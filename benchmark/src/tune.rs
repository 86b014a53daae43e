//! The tuning workloads: `tune_bo` (a few Bayesian-optimisation
//! campaigns, where optimizer → surrogate → linalg own the time) and
//! `tune_fleet` (many random-search campaigns, where bookkeeping and the
//! WAL own it), both `Register`ed and `Step`ped through the served router.

use crate::calib::{Pace, Speed};
use crate::stats::percentile;
use crate::gen::{self, Scratch};
use crate::stream::{Script, ScriptStream, Span};
use crate::{Budget, Run};
use autotune_serve::{
    CampaignSpec, OptimizerKind, Request, Response, RouterConfig, Server, TenantRouter, WalConfig,
};
use std::time::Instant;

/// How many campaigns of which optimizer and budget one repetition runs.
#[derive(Debug, Clone, Copy)]
pub struct TuneShape {
    pub optimizer: OptimizerKind,
    pub campaigns: usize,
    pub budget: usize,
}

pub const TUNE_BO: TuneShape = TuneShape {
    optimizer: OptimizerKind::BoGp,
    campaigns: 2,
    budget: 128,
};

pub const TUNE_FLEET: TuneShape = TuneShape {
    optimizer: OptimizerKind::Random,
    campaigns: 64,
    budget: 32,
};

/// Repetitions before anything that depends on `--seconds` happens. Every
/// repetition also reopens its directory, so `recovery_s` rests on as many
/// samples as `trials_per_s`.
const TUNE_MIN_REPS: usize = 3;

impl TuneShape {
    pub fn specs(&self, seed: u64) -> Vec<CampaignSpec> {
        (0..self.campaigns)
            .map(|i| gen::tune_spec(self.optimizer, i, self.budget, seed))
            .collect()
    }

    pub fn trials(&self) -> u64 {
        (self.campaigns * self.budget) as u64
    }
}

/// `Register` every spec, `Step{1}` until the fleet drains, `FleetStats`.
struct TuneScript<'a> {
    specs: &'a [CampaignSpec],
    registered: usize,
    drained: bool,
    done: bool,
    step_ns: Vec<u64>,
    busy_ns: u64,
    requests: u64,
    trials: u64,
    n_done: usize,
    failed: u64,
}

impl Script for TuneScript<'_> {
    fn next_request(&mut self) -> Option<Request> {
        if self.done {
            None
        } else if self.registered < self.specs.len() {
            Some(Request::Register {
                spec: self.specs[self.registered].clone(),
                request_id: None,
            })
        } else if !self.drained {
            Some(Request::Step { rounds: 1 })
        } else {
            Some(Request::FleetStats)
        }
    }

    fn on_reply(&mut self, resp: Response, ns: u64) {
        match resp {
            Response::Registered { id } if id == self.registered as u64 => self.registered += 1,
            Response::Stepped { n_active, .. } if self.registered == self.specs.len() => {
                self.step_ns.push(ns);
                self.drained = n_active == 0;
            }
            Response::Fleet { stats } if self.drained => {
                self.trials = stats.n_suggested;
                self.n_done = stats.n_done;
                // Bookkeeping, not load: outside the measured interval.
                self.done = true;
                return;
            }
            _ => {
                self.failed += 1;
                self.done = true;
            }
        }
        self.requests += 1;
        self.busy_ns += ns;
    }
}

/// What one tuning repetition measured.
pub struct TuneRep {
    pub step_ns: Vec<u64>,
    /// Seconds from the first `Register` to the `Stepped{n_active:0}`
    /// reply, as measured, and the machine's speed around them.
    pub run_s: f64,
    pub speed: Speed,
    pub requests: u64,
    pub trials: u64,
    pub failed: u64,
    /// `storage().to_json()` of the sampled campaign.
    pub sample_json: String,
    pub wal_appends: u64,
    /// What reopening the directory found, where the repetition reopened.
    pub reopened: Option<Reopened>,
}

pub struct Reopened {
    /// Seconds `TenantRouter::open` took, on the reference machine.
    pub recovery_s: f64,
    pub records_read: u64,
    pub segments: u64,
}

/// Index of the campaign whose history the checks compare.
pub fn sample_index(shape: &TuneShape, seed: u64) -> usize {
    (seed % shape.campaigns as u64) as usize
}

/// Sends one tuning script to an empty router in a fresh WAL directory;
/// returns the router, the directory and the script with what it saw.
fn tune_stream<'a>(
    specs: &'a [CampaignSpec],
    spans: Option<&mut Vec<Span>>,
) -> (TenantRouter, Scratch, TuneScript<'a>) {
    let scratch = Scratch::new("tune");
    let router = gen::create_router(scratch.path(), RouterConfig::default());
    let mut script = TuneScript {
        specs,
        registered: 0,
        drained: false,
        done: false,
        step_ns: Vec::new(),
        busy_ns: 0,
        requests: 0,
        trials: 0,
        n_done: 0,
        failed: 0,
    };
    let stream = match spans {
        Some(spans) => ScriptStream::traced(&mut script, spans),
        None => ScriptStream::new(&mut script),
    };
    let router = Server::new(stream, router)
        .serve()
        .expect("serve loop ends at EOF");
    (router, scratch, script)
}

/// One repetition between two calibration runs; with `reopen` the router
/// is then dropped and its directory opened again, timed, and the
/// recovered fleet checked.
pub fn tune_rep(
    shape: &TuneShape,
    specs: &[CampaignSpec],
    seed: u64,
    reopen: bool,
    spans: Option<&mut Vec<Span>>,
    pace: &Pace,
) -> TuneRep {
    let ((router, scratch, script), speed) = pace.around(|| tune_stream(specs, spans));
    let sample = sample_index(shape, seed) as u64;
    let history = |r: &TenantRouter| -> String {
        r.registry()
            .campaign(sample)
            .map(|c| c.storage().to_json())
            .unwrap_or_default()
    };
    let sample_json = history(&router);
    let wal_appends = router.registry().fleet_stats().wal_appends;
    let mut failed = script.failed
        + u64::from(script.n_done != shape.campaigns)
        + u64::from(script.trials != shape.trials());
    drop(router);
    let reopened = reopen.then(|| {
        let ((reopened, report, open_s), open_speed) = pace.around(|| {
            let start = Instant::now();
            let (reopened, report) =
                TenantRouter::open(scratch.path(), gen::WORKERS, WalConfig::default())
                    .expect("reopen router");
            (reopened, report, start.elapsed().as_secs_f64())
        });
        failed += u64::from(history(&reopened) != sample_json)
            + u64::from(reopened.registry().fleet_stats().n_done != shape.campaigns);
        Reopened {
            recovery_s: open_speed.time(open_s),
            records_read: report.records_read,
            segments: report.segments_read as u64,
        }
    });
    TuneRep {
        run_s: script.busy_ns as f64 / 1e9,
        speed,
        step_ns: script.step_ns,
        requests: script.requests,
        trials: script.trials,
        failed,
        sample_json,
        wal_appends,
        reopened,
    }
}

pub fn run_tune(shape: &TuneShape, seed: u64, budget: &Budget) -> Run {
    // Set-up is the specs and one discarded repetition, which warms the
    // process; the empty WAL directory and router are part of every
    // repetition.
    let (setup_s, _) = budget.time_setups(|| {
        drop(tune_stream(&shape.specs(seed), None));
    });
    let specs = shape.specs(seed);
    let (mut trials_per_s, mut recovery_s) = (Vec::new(), Vec::new());
    // Every `Step` latency of the run, on the reference machine.
    let mut step_ns: Vec<u64> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut peak_rss_mb = 0.0;
    let mut first_json: Option<String> = None;
    let mut wal = (0, 0, 0);
    let measured = Instant::now();
    let mut reps = 0;
    while reps < TUNE_MIN_REPS || !budget.spent(measured) {
        let rep = tune_rep(shape, &specs, seed, true, None, &budget.pace);
        trials_per_s.push(rep.speed.rate(rep.trials as f64 / rep.run_s));
        if let Some(reopened) = &rep.reopened {
            recovery_s.push(reopened.recovery_s);
            wal = (rep.wal_appends, reopened.records_read, reopened.segments);
        }
        step_ns.extend(rep.step_ns.iter().map(|&ns| rep.speed.time(ns as f64) as u64));
        attempted += rep.requests;
        failed += rep.failed;
        // Same specs, same histories: every repetition must agree.
        match &first_json {
            Some(first) => failed += u64::from(*first != rep.sample_json),
            None => first_json = Some(rep.sample_json),
        }
        reps += 1;
        if reps == TUNE_MIN_REPS {
            peak_rss_mb = gen::peak_rss_mb();
        }
    }
    // The served, durable, interleaved campaign must equal the same spec
    // run alone.
    let mut alone = specs[sample_index(shape, seed)].build();
    alone.run();
    failed += u64::from(Some(alone.storage().to_json()) != first_json);

    let mut run = Run::new(attempted, failed);
    run.reps = reps;
    run.put("setup_s", setup_s);
    run.put("trials_per_s", trials_per_s);
    run.put("recovery_s", recovery_s);
    run.put("peak_rss_mb", vec![peak_rss_mb]);
    // The slowest twentieth of a campaign's rounds is a steep slope (its
    // hyperparameter refits), and one repetition has six rounds on it, so
    // the p95 is taken over the rounds of all repetitions together. Native
    // on `tune_bo` only: a random-search fleet finishes in so few rounds
    // that the fixed minimum of repetitions does not support a p95.
    if shape.optimizer == OptimizerKind::BoGp {
        match percentile(&mut step_ns, 0.95) {
            Some(ns) => run.put("step_p95_ms", vec![ns as f64 / 1e6]),
            None => run.failed += 1,
        }
    }
    let name = if shape.optimizer == OptimizerKind::BoGp {
        "tune_bo"
    } else {
        "tune_fleet"
    };
    run.count(&format!("{name}.trials_per_run"), shape.trials() as f64);
    run.count(&format!("{name}.wal_appends_per_run"), wal.0 as f64);
    run.count(&format!("{name}.records_read_at_reopen"), wal.1 as f64);
    run.count(&format!("{name}.segments_at_reopen"), wal.2 as f64);
    run
}
