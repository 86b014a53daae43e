//! The served workloads: `serve_hit` (a warmed router answering Zipf
//! lookups) and `serve_cold` (an empty router filling up), both driven
//! through the real `Server::serve` loop by a [`ScriptStream`].

use crate::calib::{batched_percentile, Pace, Speed};
use crate::gen::{self, LookupGen, Scratch};
use crate::stats::percentile;
use crate::stream::{Script, ScriptStream, Span};
use crate::{Budget, Run};
use autotune_cache::CacheSnapshot;
use autotune_serve::{Request, Response, Server, TenantRouter};
use autotune_wid::{Tenant, TenantFleet, TenantFleetConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Random-search budget of the campaign a `serve_hit` miss admits during
/// set-up; the measured phase never tunes.
const HIT_BUDGET: usize = 8;
/// Discarded lookups before the first measured `serve_hit` segment; part
/// of set-up.
const HIT_WARMUP: usize = 5_000;
/// Lookups per measured `serve_hit` segment: 100 samples beyond p99, and
/// short enough (a third of a second) for the calibration runs around it
/// to see the same machine speed.
const HIT_SEGMENT: usize = 10_000;
/// Segments before the reopen; everything reported as a size (recovery
/// time, peak memory) is taken here so it does not depend on how many
/// more segments fit into `--seconds`.
const HIT_FIXED_SEGMENTS: usize = 9;
/// How often `serve_hit` reopens its directory for `recovery_s`.
const REOPENS: usize = 5;

/// What one cold stream sends: `lookups` times (`Lookup`, `Step`), then
/// the drain. With `every_family_first` the stream opens with one tenant
/// of each family, which makes its length in rounds the same for every
/// seed; without, admission order is the Zipf stream's own.
pub struct ColdShape {
    pub lookups: usize,
    pub every_family_first: bool,
    /// Random-search budget of the campaign a miss admits.
    pub budget: usize,
}

/// One `serve_cold` repetition (E35's budget).
pub const COLD: ColdShape = ColdShape {
    lookups: 4_000,
    every_family_first: false,
    budget: 32,
};

/// One probe stream (see `probe` in `main.rs`): the same length for every
/// seed, and short, so that many fit: the tails want samples, and with a
/// small budget the slowest twentieth of the rounds is the round the
/// campaigns complete in, not the edge of a plateau.
pub const PROBE: ColdShape = ColdShape {
    lookups: 400,
    every_family_first: true,
    budget: 8,
};
/// Warms a fresh router in `dir` as E35 does, but deterministically
/// complete: one miss per tenant, then every admitted campaign runs to
/// the end and backfills the cache.
pub fn warm_router(
    dir: &std::path::Path,
    cfg: &TenantFleetConfig,
    fleet: &TenantFleet,
    budget: usize,
) -> TenantRouter {
    let mut router = gen::create_router(dir, gen::router_config(cfg));
    for t in fleet.tenants() {
        router
            .lookup(t.fingerprint.features(), &gen::tenant_spec(t, budget))
            .expect("set-up lookup");
    }
    router.run_all().expect("set-up drain");
    router
}

/// Sends Zipf lookups in segments and checks every reply against the
/// fleet's ground truth.
pub struct HitScript<'a> {
    gen: LookupGen<'a>,
    /// Requests still to send before the connection closes.
    remaining: usize,
    pending: Option<&'a Tenant>,
    /// fleet family → cache family, learned from the first reply of each.
    family_of: BTreeMap<usize, u64>,
    pub latencies: Vec<u64>,
    pub failed: u64,
}

impl<'a> HitScript<'a> {
    pub fn new(fleet: &'a TenantFleet, seed: u64) -> Self {
        HitScript {
            gen: LookupGen::new(fleet, seed, HIT_BUDGET),
            remaining: 0,
            pending: None,
            family_of: BTreeMap::new(),
            latencies: Vec::new(),
            failed: 0,
        }
    }

    /// Serves `n` more lookups on `router`; returns it with the latencies.
    pub fn drive(
        &mut self,
        router: TenantRouter,
        n: usize,
        spans: Option<&mut Vec<Span>>,
    ) -> (TenantRouter, Vec<u64>) {
        self.remaining = n;
        self.latencies = Vec::with_capacity(n);
        let stream = match spans {
            Some(spans) => ScriptStream::traced(self, spans),
            None => ScriptStream::new(self),
        };
        let router = Server::new(stream, router)
            .serve()
            .expect("serve loop ends at EOF");
        (router, std::mem::take(&mut self.latencies))
    }
}

impl Script for HitScript<'_> {
    fn next_request(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (tenant, req) = self.gen.next();
        self.pending = Some(tenant);
        Some(req)
    }

    fn on_reply(&mut self, resp: Response, ns: u64) {
        self.latencies.push(ns);
        let tenant = self.pending.take().expect("a reply follows a request");
        match resp {
            Response::CacheHit { family, .. } => {
                // Ground truth: two tenants share a cache family exactly
                // when the fleet drew them from the same family.
                let known = *self.family_of.entry(tenant.family).or_insert(family);
                let clash = self
                    .family_of
                    .iter()
                    .any(|(&f, &c)| c == family && f != tenant.family);
                if known != family || clash {
                    self.failed += 1;
                }
            }
            _ => self.failed += 1,
        }
    }
}

/// Per-segment rate, p50 and p99 of `latencies` in the units the metrics
/// use, scaled to the reference machine.
fn segment_stats(latencies: &mut [u64], speed: Speed) -> (f64, f64, f64) {
    let busy_s = latencies.iter().sum::<u64>() as f64 / 1e9;
    let rate = speed.rate(latencies.len() as f64 / busy_s);
    let us = |ns: Option<u64>| speed.time(ns.expect("a segment supports p99") as f64 / 1e3);
    let p50 = us(percentile(latencies, 0.50));
    let p99 = us(percentile(latencies, 0.99));
    (rate, p50, p99)
}

pub struct HitSetup<'a> {
    pub scratch: Scratch,
    pub router: TenantRouter,
    pub script: HitScript<'a>,
}

/// `serve_hit` set-up: a warmed router, its request script, and
/// [`HIT_WARMUP`] discarded lookups served.
pub fn hit_setup<'a>(cfg: &TenantFleetConfig, fleet: &'a TenantFleet, seed: u64) -> HitSetup<'a> {
    let scratch = Scratch::new("hit");
    let router = warm_router(scratch.path(), cfg, fleet, HIT_BUDGET);
    let mut script = HitScript::new(fleet, seed ^ 0x5e17e);
    let (router, _) = script.drive(router, HIT_WARMUP, None);
    HitSetup {
        scratch,
        router,
        script,
    }
}

/// Drops `router`, reopens its directory `reopens` times and checks that
/// replay rebuilt the cache exactly. Returns the last reopened router, the
/// seconds each `TenantRouter::open` took on the reference machine, and
/// whether the snapshots agreed.
pub fn reopen_checked(
    router: TenantRouter,
    dir: &std::path::Path,
    reopens: usize,
    pace: &Pace,
) -> (TenantRouter, Vec<f64>, bool) {
    let before: CacheSnapshot = router.cache().snapshot();
    let mut router = Some(router);
    let mut times = Vec::with_capacity(reopens);
    for _ in 0..reopens {
        drop(router.take());
        let (secs, speed) = pace.around(|| {
            let start = Instant::now();
            router = Some(gen::open_router(dir));
            start.elapsed().as_secs_f64()
        });
        times.push(speed.time(secs));
    }
    let router = router.expect("the router handed in, or the last reopened");
    let same = router.cache().snapshot() == before;
    (router, times, same)
}

pub fn run_hit(seed: u64, budget: &Budget) -> Run {
    let cfg = gen::fleet_config(seed);
    let fleet = gen::fleet(&cfg);
    let (setup_s, mut setups) = budget.time_setups(|| {
        // Fleet generation is part of set-up; the script borrows the
        // long-lived copy.
        std::hint::black_box(gen::fleet(&cfg));
        hit_setup(&cfg, &fleet, seed)
    });
    let HitSetup {
        scratch,
        mut router,
        mut script,
    } = setups.pop().expect("at least three set-ups");
    drop(setups);

    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut recovery_s = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut hits_at_reopen = 0;
    let mut failed = 0;
    let measured = Instant::now();
    let mut segments = 0;
    while segments < HIT_FIXED_SEGMENTS || !budget.spent(measured) {
        let ((back, mut latencies), speed) = budget
            .pace
            .around(|| script.drive(router, HIT_SEGMENT, None));
        router = back;
        let (rate, p50, p99) = segment_stats(&mut latencies, speed);
        rates.push(rate);
        p50s.push(p50);
        p99s.push(p99);
        segments += 1;
        if segments == HIT_FIXED_SEGMENTS {
            let (back, times, same) = reopen_checked(router, scratch.path(), REOPENS, &budget.pace);
            router = back;
            recovery_s = times;
            failed += u64::from(!same);
            peak_rss_mb = gen::peak_rss_mb();
            hits_at_reopen = router.cache_stats().hits;
        }
    }
    failed += script.failed;
    drop(router);

    let mut run = Run::new((HIT_WARMUP + segments * HIT_SEGMENT) as u64, failed);
    run.reps = segments;
    run.put("setup_s", setup_s);
    run.put("lookups_per_s", rates);
    run.put("lookup_p50_us", p50s);
    run.put("lookup_p99_us", p99s);
    run.put("recovery_s", recovery_s);
    run.put("peak_rss_mb", vec![peak_rss_mb]);
    run.count("serve_hit.cache_hits_at_reopen", hits_at_reopen as f64);
    run
}

/// One `serve_cold` stream: `(Lookup, Step{1})` pairs, then `RunAll`
/// until the fleet drains, then `FleetStats`.
struct ColdScript<'a> {
    gen: LookupGen<'a>,
    lookups_left: usize,
    phase: ColdPhase,
    lookup_ns: Vec<u64>,
    step_ns: Vec<u64>,
    busy_ns: u64,
    requests: u64,
    hits: u64,
    failed: u64,
    trials: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum ColdPhase {
    Lookup,
    Step,
    Drain,
    Stats,
    Done,
}

impl Script for ColdScript<'_> {
    fn next_request(&mut self) -> Option<Request> {
        match self.phase {
            ColdPhase::Lookup => Some(self.gen.next().1),
            ColdPhase::Step => Some(Request::Step { rounds: 1 }),
            ColdPhase::Drain => Some(Request::RunAll),
            ColdPhase::Stats => Some(Request::FleetStats),
            ColdPhase::Done => None,
        }
    }

    fn on_reply(&mut self, resp: Response, ns: u64) {
        if self.phase != ColdPhase::Stats {
            // The closing stats request is bookkeeping, not load.
            self.requests += 1;
            self.busy_ns += ns;
        }
        self.phase = match (self.phase, resp) {
            (ColdPhase::Lookup, Response::CacheHit { .. }) => {
                self.hits += 1;
                self.lookup_ns.push(ns);
                ColdPhase::Step
            }
            (ColdPhase::Lookup, Response::CacheMiss { .. }) => {
                self.lookup_ns.push(ns);
                ColdPhase::Step
            }
            (ColdPhase::Step, Response::Stepped { rounds, .. }) => {
                // Only a round that serviced a campaign is a stall worth
                // a percentile; with nothing active a step is a no-op.
                if rounds > 0 {
                    self.step_ns.push(ns);
                }
                self.lookups_left -= 1;
                if self.lookups_left == 0 {
                    ColdPhase::Drain
                } else {
                    ColdPhase::Lookup
                }
            }
            (ColdPhase::Drain, Response::Stepped { n_active: 0, .. }) => ColdPhase::Stats,
            (ColdPhase::Drain, Response::Stepped { .. }) => ColdPhase::Drain,
            (ColdPhase::Stats, Response::Fleet { stats }) => {
                self.trials = stats.n_suggested;
                ColdPhase::Done
            }
            (_, _) => {
                self.failed += 1;
                ColdPhase::Done
            }
        };
    }
}

/// What one cold stream's script saw.
pub struct ColdStream {
    pub lookup_ns: Vec<u64>,
    pub step_ns: Vec<u64>,
    /// Seconds from the first request to the drained reply, as measured.
    pub warm_s: f64,
    pub requests: u64,
    pub trials: u64,
    pub hits: u64,
    pub failed: u64,
    pub families: u64,
    pub backfills: u64,
}

/// Sends one cold stream to an empty router over a fresh fleet; returns
/// the router, its directory and what the script saw.
pub fn cold_stream(
    shape: &ColdShape,
    fleet_seed: u64,
    spans: Option<&mut Vec<Span>>,
) -> (TenantRouter, Scratch, ColdStream) {
    let cfg = gen::fleet_config(fleet_seed);
    let fleet = gen::fleet(&cfg);
    let scratch = Scratch::new("cold");
    let router = gen::create_router(scratch.path(), gen::router_config(&cfg));
    let gen = LookupGen::new(&fleet, fleet_seed ^ 0xc01d, shape.budget);
    let mut script = ColdScript {
        gen: if shape.every_family_first {
            gen.every_family_first()
        } else {
            gen
        },
        lookups_left: shape.lookups,
        phase: ColdPhase::Lookup,
        lookup_ns: Vec::with_capacity(shape.lookups),
        step_ns: Vec::with_capacity(shape.lookups),
        busy_ns: 0,
        requests: 0,
        hits: 0,
        failed: 0,
        trials: 0,
    };
    let stream = match spans {
        Some(spans) => ScriptStream::traced(&mut script, spans),
        None => ScriptStream::new(&mut script),
    };
    let router = Server::new(stream, router)
        .serve()
        .expect("serve loop ends at EOF");
    let stats = router.cache_stats();
    let stream = ColdStream {
        warm_s: script.busy_ns as f64 / 1e9,
        requests: script.requests,
        trials: script.trials,
        hits: script.hits,
        failed: script.failed,
        families: stats.families,
        backfills: stats.backfills,
        lookup_ns: script.lookup_ns,
        step_ns: script.step_ns,
    };
    (router, scratch, stream)
}

/// One measured cold stream.
pub struct ColdRep {
    pub stream: ColdStream,
    /// The machine's speed around the stream.
    pub speed: Speed,
    /// Failed operations of the stream and of the reopen check.
    pub failed: u64,
    pub recovery_s: Vec<f64>,
}

/// Runs one cold stream between two calibration runs; with `reopen` the
/// router is then dropped and its directory opened again, timed, and the
/// replayed cache checked.
pub fn cold_rep(
    shape: &ColdShape,
    fleet_seed: u64,
    reopen: bool,
    spans: Option<&mut Vec<Span>>,
    pace: &Pace,
) -> ColdRep {
    let ((router, scratch, stream), speed) = pace.around(|| cold_stream(shape, fleet_seed, spans));
    let (recovery_s, same) = if reopen {
        let (_, times, same) = reopen_checked(router, scratch.path(), 1, pace);
        (times, same)
    } else {
        (Vec::new(), true)
    };
    ColdRep {
        failed: stream.failed + u64::from(!same),
        stream,
        speed,
        recovery_s,
    }
}

/// The end-to-end metrics as a sequence of cold streams defines them;
/// `serve_cold` reports these over its own repetitions, and the probe of
/// the other workloads over a few short ones. Rates and times are one
/// value per stream; a percentile is one value per batch of as many
/// consecutive streams as it takes to support it.
#[derive(Default)]
pub struct ColdMetrics {
    reps: Vec<ColdRep>,
    pub attempted: u64,
    pub failed: u64,
}

impl ColdMetrics {
    pub fn absorb(&mut self, rep: ColdRep) {
        self.attempted += rep.stream.requests;
        self.failed += rep.failed;
        self.reps.push(rep);
    }

    /// Every metric a cold stream defines (all but `setup_s` and
    /// `peak_rss_mb`), by name. Too few streams for a percentile is a
    /// failed operation, never a silently weaker statistic.
    pub fn into_samples(self, failed: &mut u64) -> [(&'static str, Vec<f64>); 8] {
        let per_stream =
            |value: fn(&ColdRep) -> f64| -> Vec<f64> { self.reps.iter().map(value).collect() };
        let mut pct = |latencies: fn(&ColdRep) -> &Vec<u64>, q: f64, unit_ns: f64| -> Vec<f64> {
            let batches = batched_percentile(&self.reps, |rep| (latencies(rep), rep.speed), q);
            if batches.is_empty() {
                *failed += 1;
                return vec![f64::NAN];
            }
            batches.into_iter().map(|ns| ns / unit_ns).collect()
        };
        [
            ("lookup_p50_us", pct(|rep| &rep.stream.lookup_ns, 0.50, 1e3)),
            ("lookup_p99_us", pct(|rep| &rep.stream.lookup_ns, 0.99, 1e3)),
            ("step_p95_ms", pct(|rep| &rep.stream.step_ns, 0.95, 1e6)),
            (
                "warm_s",
                per_stream(|rep| rep.speed.time(rep.stream.warm_s)),
            ),
            (
                "lookups_per_s",
                per_stream(|rep| {
                    let lookup_ns = &rep.stream.lookup_ns;
                    let lookup_s = lookup_ns.iter().sum::<u64>() as f64 / 1e9;
                    rep.speed.rate(lookup_ns.len() as f64 / lookup_s)
                }),
            ),
            (
                "trials_per_s",
                per_stream(|rep| rep.speed.rate(rep.stream.trials as f64 / rep.stream.warm_s)),
            ),
            (
                "ops_per_s",
                per_stream(|rep| {
                    rep.speed
                        .rate(rep.stream.requests as f64 / rep.stream.warm_s)
                }),
            ),
            (
                "recovery_s",
                self.reps
                    .iter()
                    .flat_map(|rep| rep.recovery_s.clone())
                    .collect(),
            ),
        ]
    }
}

/// Distinct fleet seed of repetition `rep` of a run seeded `seed`.
pub fn cold_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9).wrapping_add(1 + rep as u64)
}

/// Streams before anything depends on `--seconds`; these also reopen.
pub const COLD_MIN_REPS: usize = 5;

pub fn run_cold(seed: u64, budget: &Budget) -> Run {
    // Set-up is one discarded stream, which warms the process; what a
    // stream needs before its first request (the fleet, an empty WAL
    // directory, an empty router) is part of every stream.
    let mut i = 0;
    let (setup_s, _) = budget.time_setups(|| {
        i += 1;
        drop(cold_stream(&COLD, cold_seed(seed, 10_000 + i), None));
    });
    let mut cold = ColdMetrics::default();
    let mut failed = 0;
    let mut peak_rss_mb = 0.0;
    let mut first = (0, 0);
    let measured = Instant::now();
    let mut reps = 0;
    while reps < COLD_MIN_REPS || !budget.spent(measured) {
        let rep = cold_rep(
            &COLD,
            cold_seed(seed, reps),
            reps < COLD_MIN_REPS,
            None,
            &budget.pace,
        );
        if reps == 0 {
            first = (rep.stream.hits, rep.stream.trials);
        }
        let hit_rate = rep.stream.hits as f64 / COLD.lookups as f64;
        failed += u64::from(rep.stream.families != 12)
            + u64::from(rep.stream.backfills != 12)
            + u64::from(hit_rate < 0.95);
        cold.absorb(rep);
        reps += 1;
        if reps == COLD_MIN_REPS {
            peak_rss_mb = gen::peak_rss_mb();
        }
    }
    let mut run = Run::new(cold.attempted, cold.failed + failed);
    run.reps = reps;
    run.put("setup_s", setup_s);
    run.put("peak_rss_mb", vec![peak_rss_mb]);
    let mut short = 0;
    let samples = cold.into_samples(&mut short);
    run.failed += short;
    for (name, samples) in samples {
        run.put(name, samples);
    }
    run.count("serve_cold.hits_first_stream", first.0 as f64);
    run.count("serve_cold.trials_first_stream", first.1 as f64);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_cold_stream_counts() {
        let pace = Pace::new();
        let counts = |seed: u64| {
            let shape = ColdShape {
                lookups: 300,
                ..COLD
            };
            let rep = cold_rep(&shape, seed, true, None, &pace);
            assert_eq!(rep.failed, 0);
            let s = rep.stream;
            (s.hits, s.trials, s.requests, s.families, s.backfills)
        };
        let a = counts(9);
        assert_eq!(a, counts(9));
        // 300 lookups, 300 steps and at least one drain request.
        assert!(a.2 > 600);
        assert_eq!((a.3, a.4), (12, 12));
        assert_eq!(a.1, 12 * COLD.budget as u64);
    }

    #[test]
    fn warmed_router_serves_only_hits_and_replays_exactly() {
        let cfg = gen::fleet_config(4);
        let fleet = gen::fleet(&cfg);
        let HitSetup {
            scratch,
            router,
            mut script,
        } = hit_setup(&cfg, &fleet, 4);
        let (router, latencies) = script.drive(router, 500, None);
        assert_eq!(latencies.len(), 500);
        assert_eq!(script.failed, 0);
        let (_, times, same) = reopen_checked(router, scratch.path(), 1, &Pace::new());
        assert!(same && times.len() == 1);
    }
}
