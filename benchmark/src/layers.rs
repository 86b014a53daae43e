//! The traced run (`--trace 1`): per-layer metrics, spans and the
//! reconciliation of layer times against the end-to-end time.
//!
//! Everything here is timed from the benchmark's own files, around the
//! public functions of each layer, on inputs generated from the seed.
//! One repetition of the workload runs untraced and once more with the
//! [`ScriptStream`](crate::stream::ScriptStream) recording three spans per
//! request; then the same inputs are replayed against each layer on twin
//! state. End-to-end metrics never come from here.

use crate::cache::{self, churn_rep, churn_setup, read_segment, read_setup, CHURN_DRAWS};
use crate::calib::{Pace, Speed};
use crate::gen::{self, LookupGen, Scratch};
use crate::serve::{self, cold_rep, cold_seed};
use crate::stats::{median, percentile};
use crate::stream::{Span, SPAN_CLIENT_DECODE, SPAN_CLIENT_ENCODE, SPAN_SERVER_REQUEST};
use crate::tune::{tune_rep, TuneShape, TUNE_BO, TUNE_FLEET};
use autotune::{
    measure_request, Campaign, NoiseStrategy, Objective, Target, TrialRequest, WallTimer,
};
use autotune_cache::{CacheConfig, ShardedCache};
use autotune_linalg::{Cholesky, Matrix};
use autotune_optimizer::{BayesianOptimizer, Optimizer, RandomSearch};
use autotune_serve::{
    read_frame, spawn_router_server, write_frame, CampaignRegistry, CampaignSpec, DurableRegistry,
    OptimizerKind, Request, Response, RouterLookup, ServeBackend, ServerConfig, SystemKind,
    TenantRouter, WalConfig,
};
use autotune_sim::{Environment, Workload};
use autotune_surrogate::{GaussianProcess, Matern52, RandomForest, Surrogate};
use autotune_wid::{Fingerprint, StreamingClusters, TenantFleet};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Every per-layer metric: name, unit, whether higher is better. The
/// layer is the module name before the dot.
pub const PER_LAYER: [(&str, &str, bool); 67] = [
    ("protocol.encode_request_ns", "ns", false),
    ("protocol.decode_request_ns", "ns", false),
    ("protocol.encode_response_ns", "ns", false),
    ("protocol.decode_response_ns", "ns", false),
    ("protocol.request_bytes", "B", false),
    ("protocol.response_bytes", "B", false),
    ("protocol.server_self_ns", "ns", false),
    ("protocol.pipe_rtt_p50_us", "us", false),
    ("router.lookup_hit_ns", "ns", false),
    ("router.lookup_miss_admit_ns", "ns", false),
    ("router.lookup_miss_join_ns", "ns", false),
    ("router.self_ns", "ns", false),
    ("router.open_s", "s", false),
    ("router.hits", "count", true),
    ("router.misses", "count", false),
    ("router.joins", "count", false),
    ("router.backfills", "count", false),
    ("cache.lookup_ns", "ns", false),
    ("cache.lookups_per_s_1t", "1/s", true),
    ("cache.scaling", "x", true),
    ("cache.insert_ns", "ns", false),
    ("cache.admit_family_ns", "ns", false),
    ("cache.snapshot_ms", "ms", false),
    ("cache.restore_ms", "ms", false),
    ("cache.evictions", "count", false),
    ("cache.exact_hits", "count", true),
    ("cache.borrowed_hits", "count", false),
    ("durability.append_aux_ns", "ns", false),
    ("durability.checkpoint_ms", "ms", false),
    ("durability.open_s", "s", false),
    ("durability.trials_per_s", "1/s", true),
    ("durability.bytes_written", "B", false),
    ("durability.bytes_per_lookup", "B", false),
    ("durability.bytes_per_trial", "B", false),
    ("durability.wal_appends", "count", false),
    ("durability.records_read", "count", false),
    ("durability.segments", "count", false),
    ("registry.trials_per_s", "1/s", true),
    ("registry.step_round_p50_us", "us", false),
    ("registry.step_round_p95_ms", "ms", false),
    ("campaign.trials_per_s", "1/s", true),
    ("campaign.snapshot_ms", "ms", false),
    ("campaign.resume_ms", "ms", false),
    ("campaign.self_us_per_trial", "us", false),
    ("optimizer.suggest_ms_total", "ms", false),
    ("optimizer.observe_ms_total", "ms", false),
    ("optimizer.suggest_us_n32", "us", false),
    ("optimizer.suggest_us_n128", "us", false),
    ("optimizer.random_suggest_ns", "ns", false),
    ("optimizer.n_refits", "count", false),
    ("optimizer.n_model_updates", "count", true),
    ("surrogate.gp_fit_ms_n128", "ms", false),
    ("surrogate.gp_observe_us_n128", "us", false),
    ("surrogate.gp_predict_us_x256", "us", false),
    ("surrogate.forest_fit_ms_n128", "ms", false),
    ("linalg.cholesky_ms_n128", "ms", false),
    ("linalg.cholesky_extend_us_n128", "us", false),
    ("linalg.matmul_ms_n128", "ms", false),
    ("linalg.solve_us_n128", "us", false),
    ("wid.classify_ns", "ns", false),
    ("wid.assign_ns", "ns", false),
    ("wid.fleet_generate_ms", "ms", false),
    ("sim.measure_ns", "ns", false),
    ("space.sample_ns", "ns", false),
    ("space.encode_ns", "ns", false),
    ("trace.overhead_pct", "%", false),
    ("trace.reconcile_gap_pct", "%", false),
];

/// Observations a tuning campaign of `tune_bo` reaches; the surrogate and
/// linalg rows are sized to it.
const N_OBS: usize = TUNE_BO.budget;
/// Lookups replayed against each serving layer, per round.
const REPLAY: usize = 3_000;
/// Lookups of one serving segment of the traced run, and how many rounds
/// of an untraced segment, a traced one and a replay it makes.
const TRACE_SEGMENT: usize = 6_000;
const TRACE_ROUNDS: usize = 5;
/// The tuning fleet the durability, registry and campaign rows run when
/// the traced workload is not itself a tuning workload.
const REFERENCE_FLEET: TuneShape = TuneShape {
    optimizer: OptimizerKind::Random,
    campaigns: 32,
    budget: 32,
};

/// The per-layer values, and the pace that scales every time among them
/// to the reference machine, as the end-to-end metrics are.
struct Table {
    values: BTreeMap<&'static str, f64>,
    pace: Pace,
}

impl Table {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Mean nanoseconds of `n` calls of `f`, as measured.
    fn mean_ns(&self, n: usize, mut f: impl FnMut(usize)) -> f64 {
        1e9 * self.secs(|| (0..n).for_each(&mut f)) / n as f64
    }

    /// Seconds `f` takes, as measured.
    fn secs(&self, f: impl FnOnce()) -> f64 {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    }

    /// Runs one group of layer measurements between two calibration runs
    /// and scales every value the group set to the reference machine, by
    /// its unit: times are multiplied by the factor, rates divided, counts
    /// and sizes left alone. One factor for the whole group keeps the
    /// group's values consistent with each other, which a reconciliation
    /// needs. Returns the group's result and the factor.
    fn group<T>(&mut self, f: impl FnOnce(&mut Table) -> T) -> (T, f64) {
        let before: Vec<&'static str> = self.values.keys().copied().collect();
        let start = self.pace.mark();
        let out = f(self);
        let Speed(factor) = self.pace.speed_since(start);
        for (name, unit, _) in PER_LAYER {
            if before.contains(&name) {
                continue;
            }
            if let Some(v) = self.values.get_mut(name) {
                match unit {
                    "ns" | "us" | "ms" | "s" => *v *= factor,
                    "1/s" => *v /= factor,
                    _ => {}
                }
            }
        }
        (out, factor)
    }
}

/// Real time for a campaign's suggest/observe attribution.
struct InstantTimer(Instant);

impl WallTimer for InstantTimer {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One row of a reconciliation: a layer and the time attributed to it.
struct Row(&'static str, f64);

/// What the traced repetition of a workload produced.
struct Traced {
    spans: Vec<Span>,
    /// The workload's primary rate, untraced and traced.
    rate_untraced: f64,
    rate_traced: f64,
    /// End-to-end time being reconciled and the unit of the rows.
    e2e: f64,
    unit: &'static str,
    rows: Vec<Row>,
    /// The unattributed share where it was measured round by round;
    /// otherwise it is what the rows leave of `e2e`.
    gap: Option<f64>,
}

impl Traced {
    /// Scales a reconciliation measured inside one calibrated interval.
    fn scaled(mut self, factor: f64) -> Self {
        self.rate_untraced /= factor;
        self.rate_traced /= factor;
        self.e2e *= factor;
        self
    }

    fn with_rows(mut self, rows: Vec<Row>) -> Self {
        self.rows = rows;
        self
    }
}

fn span_total(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum()
}

/// The serving reference: a warmed twin router; `TRACE_ROUNDS` rounds of an
/// untraced `serve_hit` segment, a traced one, and the same kind of lookups
/// replayed against protocol, router, cache and WAL. Every value is the
/// median over the rounds, so that a speed change between a segment and
/// its replay does not open a gap. Fills the serving rows of the table and
/// returns the `serve_hit` reconciliation without its rows.
fn serving_layers(seed: u64, t: &mut Table) -> Traced {
    let cfg = gen::fleet_config(seed);
    let fleet = gen::fleet(&cfg);
    let serve::HitSetup {
        scratch,
        router,
        mut script,
    } = serve::hit_setup(&cfg, &fleet, seed);
    let (mut router, _) = script.drive(router, REPLAY, None);

    // Replayed lookups come from the same generator as the served ones, so
    // the frames have the same distribution.
    let mut gen = LookupGen::new(&fleet, seed ^ 0x1a7e5, 8);
    let requests: Vec<Request> = (0..REPLAY).map(|_| gen.next().1).collect();
    let lookups: Vec<(&[f64], &CampaignSpec)> = requests
        .iter()
        .map(|r| match r {
            Request::Lookup { features, spec } => (features.as_slice(), spec),
            _ => unreachable!("the generator only makes lookups"),
        })
        .collect();
    // The journal record a hit appends, on a bare durable registry.
    let aux_dir = Scratch::new("aux");
    let mut durable =
        DurableRegistry::create(aux_dir.path(), gen::WORKERS, WalConfig::default()).expect("wal");
    let op = format!("{{\"Lookup\":{{\"features\":{:?}}}}}", lookups[0].0);
    let config = ServerConfig::default();

    let mean = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len() as f64;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut spans = Vec::with_capacity(3 * TRACE_ROUNDS * TRACE_SEGMENT);
    let written = gen::bytes_written();
    for _ in 0..TRACE_ROUNDS {
        let mut rec = |name: &'static str, value: f64| samples.entry(name).or_default().push(value);
        let (back, latencies) = script.drive(router, TRACE_SEGMENT, None);
        rec("untraced", mean(&latencies));
        let mut segment = Vec::with_capacity(3 * TRACE_SEGMENT);
        let (back, latencies) = script.drive(back, TRACE_SEGMENT, Some(&mut segment));
        router = back;
        rec("traced", mean(&latencies));
        rec(
            "server",
            span_total(&segment, SPAN_SERVER_REQUEST, |_| true) / TRACE_SEGMENT as f64,
        );
        // Request ids keep counting across the segments of one trace.
        let base = (spans.len() / 3) as u64;
        spans.extend(segment.into_iter().map(|s| Span {
            request: s.request + base,
            ..s
        }));

        // The request's own path, stage by stage and request by request,
        // as the served path runs it: a tight loop per stage would keep
        // each stage's code and data hotter than serving does.
        let mut stage_ns = [0u64; 5];
        let (mut request_bytes, mut response_bytes) = (0, 0);
        let (mut frame, mut reply_frame) = (Vec::new(), Vec::new());
        for request in &requests {
            frame.clear();
            reply_frame.clear();
            let t0 = Instant::now();
            write_frame(&mut frame, request).expect("encode");
            let t1 = Instant::now();
            let decoded: Request = read_frame(&mut &frame[..])
                .expect("decode")
                .expect("one frame");
            let t2 = Instant::now();
            let reply = router.handle_request(decoded, &config).expect("backend");
            let t3 = Instant::now();
            write_frame(&mut reply_frame, &reply).expect("encode");
            let t4 = Instant::now();
            let decoded: Option<Response> = read_frame(&mut &reply_frame[..]).expect("decode");
            let t5 = Instant::now();
            std::hint::black_box(decoded);
            for (slot, (from, to)) in
                stage_ns
                    .iter_mut()
                    .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)])
            {
                *slot += to.duration_since(from).as_nanos() as u64;
            }
            request_bytes += frame.len();
            response_bytes += reply_frame.len();
        }
        for (name, ns) in [
            "protocol.encode_request_ns",
            "protocol.decode_request_ns",
            "backend",
            "protocol.encode_response_ns",
            "protocol.decode_response_ns",
        ]
        .into_iter()
        .zip(stage_ns)
        {
            rec(name, ns as f64 / REPLAY as f64);
        }
        // This round's gap, before the machine changes speed again.
        let replayed = stage_ns.iter().sum::<u64>() as f64 / REPLAY as f64;
        let served = mean(&latencies);
        rec("gap", (served - replayed) / served);
        rec(
            "protocol.request_bytes",
            request_bytes as f64 / REPLAY as f64,
        );
        rec(
            "protocol.response_bytes",
            response_bytes as f64 / REPLAY as f64,
        );
        // Inside the backend: the router's own lookup, the cache under it
        // and the journal record it appends, each in a loop of its own.
        rec(
            "router.lookup_hit_ns",
            t.mean_ns(REPLAY, |i| {
                let out = router.lookup(lookups[i].0, lookups[i].1).expect("lookup");
                debug_assert!(matches!(out, RouterLookup::Hit(_)));
            }),
        );
        let cache = router.cache();
        rec(
            "cache.lookup_ns",
            t.mean_ns(REPLAY, |i| {
                std::hint::black_box(cache.lookup(lookups[i].0));
            }),
        );
        rec(
            "durability.append_aux_ns",
            t.mean_ns(REPLAY, |_| {
                durable
                    .append_aux("router-ops", op.clone())
                    .expect("append")
            }),
        );
    }
    // Every served or replayed lookup journals one record, and so does
    // every append to the bare registry.
    let records = TRACE_ROUNDS * (2 * TRACE_SEGMENT + 3 * REPLAY);
    t.set(
        "durability.bytes_per_lookup",
        (gen::bytes_written() - written) as f64 / records as f64,
    );
    let m = |name: &str| median(&samples[name]);
    for name in [
        "protocol.encode_request_ns",
        "protocol.decode_request_ns",
        "protocol.encode_response_ns",
        "protocol.decode_response_ns",
        "protocol.request_bytes",
        "protocol.response_bytes",
        "router.lookup_hit_ns",
        "cache.lookup_ns",
        "durability.append_aux_ns",
    ] {
        t.set(name, m(name));
    }
    t.set(
        "router.self_ns",
        m("backend") - m("cache.lookup_ns") - m("durability.append_aux_ns"),
    );
    t.set(
        "protocol.server_self_ns",
        m("server")
            - m("protocol.decode_request_ns")
            - m("backend")
            - m("protocol.encode_response_ns"),
    );
    drop(router);
    t.set(
        "router.open_s",
        t.secs(|| drop(gen::open_router(scratch.path()))),
    );
    Traced {
        spans,
        rate_untraced: 1e9 / m("untraced"),
        rate_traced: 1e9 / m("traced"),
        e2e: m("traced"),
        unit: "ns per request",
        rows: Vec::new(),
        gap: Some(m("gap")),
    }
}

/// The `serve_hit` reconciliation rows: what the replayed layers cost per
/// request.
fn hit_rows(t: &Table) -> Vec<Row> {
    let protocol = t.get("protocol.encode_request_ns")
        + t.get("protocol.decode_request_ns")
        + t.get("protocol.encode_response_ns")
        + t.get("protocol.decode_response_ns");
    vec![
        Row("protocol", protocol),
        Row("router", t.get("router.self_ns")),
        Row("cache", t.get("cache.lookup_ns")),
        Row("durability", t.get("durability.append_aux_ns")),
    ]
}

/// Miss paths, the pipe round trip and the router's counts, on cold
/// routers. Returns the counts of the reference cold stream.
fn cold_layers(seed: u64, t: &mut Table) {
    let cfg = gen::fleet_config(seed);
    let fleet = gen::fleet(&cfg);
    // Miss-admit and miss-join, by outcome, on a router nothing has run on:
    // the first tenant of a family admits, every later one joins.
    let dir = Scratch::new("miss");
    let mut router = gen::create_router(dir.path(), gen::router_config(&cfg));
    let (mut admit_ns, mut join_ns) = (Vec::new(), Vec::new());
    for tenant in fleet.tenants() {
        let spec = gen::tenant_spec(tenant, serve::COLD.budget);
        let start = Instant::now();
        let out = router
            .lookup(tenant.fingerprint.features(), &spec)
            .expect("lookup");
        let ns = start.elapsed().as_nanos() as f64;
        match out {
            RouterLookup::Miss { enqueued: true, .. } => admit_ns.push(ns),
            RouterLookup::Miss {
                enqueued: false, ..
            } => join_ns.push(ns),
            RouterLookup::Hit(_) => {}
        }
    }
    t.set("router.lookup_miss_admit_ns", median(&admit_ns));
    t.set("router.lookup_miss_join_ns", median(&join_ns));
    drop(router);

    // The in-process pipe and thread hand-off, for comparison only.
    let pipe_dir = Scratch::new("pipe");
    let (path, router_cfg) = (pipe_dir.path().to_path_buf(), gen::router_config(&cfg));
    let (mut client, handle) = spawn_router_server(move || {
        TenantRouter::create(path, gen::WORKERS, WalConfig::default(), router_cfg)
    });
    for tenant in fleet.tenants() {
        client
            .lookup(tenant.fingerprint.features(), &gen::tenant_spec(tenant, 8))
            .expect("pipe warm");
    }
    client.run_all().expect("pipe drain");
    let mut gen = LookupGen::new(&fleet, seed ^ 0x919e, 8);
    let mut rtt: Vec<u64> = (0..2_000)
        .map(|_| {
            let (tenant, _) = gen.next();
            let spec = gen::tenant_spec(tenant, 8);
            let start = Instant::now();
            client
                .lookup(tenant.fingerprint.features(), &spec)
                .expect("pipe lookup");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    client.shutdown().expect("pipe shutdown");
    handle
        .join()
        .expect("server thread")
        .expect("server result");
    t.set(
        "protocol.pipe_rtt_p50_us",
        percentile(&mut rtt, 0.5).expect("2 000 samples") as f64 / 1e3,
    );

    let (_, _, stream) = serve::cold_stream(&serve::COLD, cold_seed(seed, 0), None);
    let lookups = stream.lookup_ns.len() as u64;
    t.set("router.hits", stream.hits as f64);
    t.set("router.misses", (lookups - stream.hits) as f64);
    t.set(
        "router.joins",
        (lookups - stream.hits - stream.backfills) as f64,
    );
    t.set("router.backfills", stream.backfills as f64);
}

/// The cache used as a library: thread scaling, writes, snapshots.
fn cache_layers(seed: u64, t: &mut Table) {
    let cfg = gen::fleet_config(seed);
    let fleet = gen::fleet(&cfg);
    let setup = read_setup(&cfg, &fleet);
    let n = cache::READ_SEGMENT / 2;
    read_segment(&setup, &fleet, 1, n, seed);
    let rate = |threads: usize| n as f64 / read_segment(&setup, &fleet, threads, n, seed).0;
    let (one, many) = (rate(1), rate(cache::reader_threads()));
    t.set("cache.lookups_per_s_1t", one);
    t.set("cache.scaling", many / one);

    let churn = churn_setup(seed);
    let (_, counts) = churn_rep(&churn, CHURN_DRAWS, seed);
    t.set("cache.evictions", counts.evictions as f64);
    t.set("cache.exact_hits", counts.exact_hits as f64);
    t.set("cache.borrowed_hits", counts.borrowed_hits as f64);

    // Writes on a bare cache: admit every tenant of the big fleet, then
    // insert an entry for each (past 16 × 64 entries every insert evicts).
    let bare = ShardedCache::new(CacheConfig {
        threshold: TenantFleet::recommended_threshold(&churn.cfg),
        ..CacheConfig::default()
    });
    let tenants = churn.fleet.tenants();
    let mut families = vec![0; tenants.len()];
    t.set(
        "cache.admit_family_ns",
        t.mean_ns(tenants.len(), |i| {
            families[i] = bare.admit_family(tenants[i].fingerprint.features()).family;
        }),
    );
    let config = SystemKind::Redis.build().space().default_config();
    t.set(
        "cache.insert_ns",
        t.mean_ns(tenants.len(), |i| {
            bare.insert(
                families[i],
                tenants[i].fingerprint.features(),
                config.clone(),
                1.0 + i as f64,
            );
        }),
    );
    let mut snapshot = None;
    t.set(
        "cache.snapshot_ms",
        1e3 * t.secs(|| snapshot = Some(bare.snapshot())),
    );
    let snapshot = snapshot.expect("snapshot taken");
    t.set(
        "cache.restore_ms",
        1e3 * t.secs(|| drop(ShardedCache::restore(&snapshot).expect("restore"))),
    );
}

/// What the tuning rows measured on one fleet shape, for reconciliation.
struct TuneLayers {
    /// Seconds of the same specs on a bare `DurableRegistry`, an in-memory
    /// `CampaignRegistry`, and one after another as plain campaigns.
    durable_s: f64,
    registry_s: f64,
    campaign_s: f64,
    /// Seconds the campaigns' optimizers spent in suggest and observe.
    optimizer_s: f64,
}

/// Durability, registry and campaign rows on the fleet `shape`.
fn tune_layers(shape: &TuneShape, seed: u64, t: &mut Table) -> TuneLayers {
    let specs = shape.specs(seed);
    let trials = shape.trials() as f64;

    // In-memory registry; rounds pooled over runs until a p95 is supported.
    let mut round_ns: Vec<u64> = Vec::new();
    let mut registry_s = Vec::new();
    while round_ns.len() < 200 && registry_s.len() < 8 {
        let mut registry = CampaignRegistry::new(gen::WORKERS);
        for spec in &specs {
            registry.register_spec(spec);
        }
        let run = Instant::now();
        while registry.has_runnable() {
            let start = Instant::now();
            registry.step_round().expect("round");
            round_ns.push(start.elapsed().as_nanos() as u64);
        }
        registry_s.push(run.elapsed().as_secs_f64());
    }
    let registry_s = median(&registry_s);
    t.set("registry.trials_per_s", trials / registry_s);
    t.set(
        "registry.step_round_p50_us",
        percentile(&mut round_ns, 0.5).map_or(0.0, |ns| ns as f64 / 1e3),
    );
    t.set(
        "registry.step_round_p95_ms",
        percentile(&mut round_ns, 0.95).map_or(0.0, |ns| ns as f64 / 1e6),
    );

    // The same fleet behind the WAL.
    let dir = Scratch::new("durable");
    let mut durable =
        DurableRegistry::create(dir.path(), gen::WORKERS, WalConfig::default()).expect("wal");
    let written = gen::bytes_written();
    let durable_s = t.secs(|| {
        for spec in &specs {
            durable.register_spec(spec).expect("register");
        }
        durable.run_all().expect("run");
    });
    let written = gen::bytes_written() - written;
    t.set("durability.trials_per_s", trials / durable_s);
    t.set("durability.bytes_written", written as f64);
    t.set("durability.bytes_per_trial", written as f64 / trials);
    t.set(
        "durability.wal_appends",
        durable.registry().fleet_stats().wal_appends as f64,
    );
    t.set(
        "durability.checkpoint_ms",
        1e3 * t.secs(|| durable.checkpoint().expect("checkpoint")),
    );
    drop(durable);
    let mut report = None;
    t.set(
        "durability.open_s",
        t.secs(|| {
            report = Some(
                DurableRegistry::open(dir.path(), gen::WORKERS, WalConfig::default())
                    .expect("open")
                    .1,
            )
        }),
    );
    let report = report.expect("opened");
    t.set("durability.records_read", report.records_read as f64);
    t.set("durability.segments", report.segments_read as f64);

    // Plain campaigns, one after another, with real time injected so the
    // optimizer's share is the campaign's own attribution.
    let mut first: Option<Campaign<'static>> = None;
    let mut optimizer_ns = 0.0;
    let campaign_s = t.secs(|| {
        for spec in &specs {
            let timer = InstantTimer(Instant::now());
            let mut campaign = spec.build().with_timer(Box::new(timer));
            campaign.run();
            let m = campaign.metrics();
            optimizer_ns += m.suggest_ns.sum() + m.observe_ns.sum();
            first.get_or_insert(campaign);
        }
    });
    t.set("campaign.trials_per_s", trials / campaign_s);
    let first = first.expect("at least one campaign");
    let mut snapshot = None;
    t.set(
        "campaign.snapshot_ms",
        1e3 * t.secs(|| snapshot = first.snapshot().ok()),
    );
    let snapshot = snapshot.expect("a finished campaign snapshots");
    t.set(
        "campaign.resume_ms",
        1e3 * t.secs(|| drop(Campaign::resume(&snapshot, specs[0].build()).expect("resume"))),
    );
    let measure_s = trials * t.get("sim.measure_ns") / 1e9;
    t.set(
        "campaign.self_us_per_trial",
        1e6 * (campaign_s - optimizer_ns / 1e9 - measure_s) / trials,
    );
    TuneLayers {
        durable_s,
        registry_s,
        campaign_s,
        optimizer_s: optimizer_ns / 1e9,
    }
}

fn redis_target() -> Target {
    Target::simulated(
        SystemKind::Redis.build(),
        Workload::kv_cache(50_000.0),
        Environment::small(),
        Objective::MinimizeLatencyAvg,
    )
}

/// Optimizer, surrogate, linalg, wid, sim and space rows: fixed sizes,
/// inputs from the seed.
fn model_layers(seed: u64, t: &mut Table) {
    let target = redis_target();
    let space = target.space().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e);
    let configs: Vec<_> = (0..2_000).map(|_| space.sample(&mut rng)).collect();
    t.set(
        "space.sample_ns",
        t.mean_ns(10_000, |_| {
            std::hint::black_box(space.sample(&mut rng));
        }),
    );
    t.set(
        "space.encode_ns",
        t.mean_ns(10_000, |i| {
            std::hint::black_box(
                space
                    .encode_onehot(&configs[i % configs.len()])
                    .expect("encode"),
            );
        }),
    );
    t.set(
        "sim.measure_ns",
        t.mean_ns(configs.len(), |i| {
            let req = TrialRequest::new(configs[i].clone());
            std::hint::black_box(measure_request(
                &target,
                &NoiseStrategy::Single,
                &req,
                i as u64,
            ));
        }),
    );

    // A sequential ask/tell loop over the tune_bo target and budget.
    let mut bo = BayesianOptimizer::gp(space.clone());
    let (mut suggest_ns, mut observe_ns) = (vec![0.0; N_OBS], 0.0);
    for (i, slot) in suggest_ns.iter_mut().enumerate() {
        let start = Instant::now();
        let config = bo.suggest(&mut rng);
        *slot = start.elapsed().as_nanos() as f64;
        let req = TrialRequest::new(config.clone());
        let m = measure_request(&target, &NoiseStrategy::Single, &req, i as u64);
        let start = Instant::now();
        bo.observe(&config, m.cost);
        observe_ns += start.elapsed().as_nanos() as f64;
    }
    let window = |end: usize| suggest_ns[end - 8..end].iter().sum::<f64>() / 8.0 / 1e3;
    t.set(
        "optimizer.suggest_ms_total",
        suggest_ns.iter().sum::<f64>() / 1e6,
    );
    t.set("optimizer.observe_ms_total", observe_ns / 1e6);
    t.set("optimizer.suggest_us_n32", window(N_OBS / 4));
    t.set("optimizer.suggest_us_n128", window(N_OBS));
    t.set("optimizer.n_refits", bo.n_refits() as f64);
    t.set("optimizer.n_model_updates", bo.n_model_updates() as f64);
    let mut random = RandomSearch::new(space.clone());
    t.set(
        "optimizer.random_suggest_ns",
        t.mean_ns(10_000, |_| {
            std::hint::black_box(random.suggest(&mut rng));
        }),
    );

    // The surrogate on the loop's own observations.
    let xs: Vec<Vec<f64>> = bo
        .history()
        .iter()
        .map(|o| space.encode_onehot(&o.config).expect("encode"))
        .collect();
    let ys: Vec<f64> = bo.history().iter().map(|o| o.value).collect();
    let d = space.onehot_dim();
    let mut gp = GaussianProcess::new(Box::new(Matern52::ard(vec![0.5; d], 1.0)), 1e-6);
    t.set(
        "surrogate.gp_fit_ms_n128",
        1e3 * t.secs(|| gp.fit(&xs, &ys).expect("gp fit")),
    );
    let extra = space.encode_onehot(&configs[0]).expect("encode");
    t.set(
        "surrogate.gp_observe_us_n128",
        1e6 * t.secs(|| gp.observe(&extra, ys[0]).expect("gp observe")),
    );
    let queries: Vec<Vec<f64>> = configs[..256]
        .iter()
        .map(|c| space.encode_onehot(c).expect("encode"))
        .collect();
    t.set(
        "surrogate.gp_predict_us_x256",
        1e6 * t.secs(|| {
            for q in &queries {
                std::hint::black_box(gp.predict(q));
            }
        }),
    );
    let mut forest = RandomForest::default_forest();
    t.set(
        "surrogate.forest_fit_ms_n128",
        1e3 * t.secs(|| forest.fit(&xs, &ys).expect("forest fit")),
    );

    // Dense kernels at the same n: a random SPD matrix A = B·Bᵀ + n·I.
    let b = Matrix::from_fn(N_OBS, N_OBS, |_, _| rng.gen::<f64>() - 0.5);
    let mut a = b.matmul(&b.transpose()).expect("square");
    a.add_diag(N_OBS as f64);
    t.set(
        "linalg.matmul_ms_n128",
        t.mean_ns(20, |_| {
            std::hint::black_box(b.matmul(&a).expect("square"));
        }) / 1e6,
    );
    t.set(
        "linalg.cholesky_ms_n128",
        t.mean_ns(20, |_| {
            std::hint::black_box(Cholesky::new(&a).expect("spd"));
        }) / 1e6,
    );
    let chol = Cholesky::new(&a).expect("spd");
    let rhs: Vec<f64> = (0..N_OBS).map(|i| i as f64).collect();
    t.set(
        "linalg.solve_us_n128",
        t.mean_ns(200, |_| {
            std::hint::black_box(chol.solve_vec(&rhs));
        }) / 1e3,
    );
    let lead = Matrix::from_fn(N_OBS - 1, N_OBS - 1, |i, j| a.row(i)[j]);
    let col: Vec<f64> = a.row(N_OBS - 1)[..N_OBS - 1].to_vec();
    let smaller = Cholesky::new(&lead).expect("spd");
    t.set(
        "linalg.cholesky_extend_us_n128",
        t.mean_ns(50, |_| {
            let mut c = smaller.clone();
            c.extend(&col, a.row(N_OBS - 1)[N_OBS - 1]).expect("extend");
            std::hint::black_box(c);
        }) / 1e3,
    );

    // Family routing: 12 centroids in 12 dimensions.
    let cfg = gen::fleet_config(seed);
    t.set(
        "wid.fleet_generate_ms",
        t.mean_ns(20, |_| {
            std::hint::black_box(gen::fleet(&cfg));
        }) / 1e6,
    );
    let fleet = gen::fleet(&cfg);
    let mut clusters = StreamingClusters::new(TenantFleet::recommended_threshold(&cfg));
    let prints: Vec<Fingerprint> = fleet
        .tenants()
        .iter()
        .map(|t| t.fingerprint.clone())
        .collect();
    t.set(
        "wid.assign_ns",
        t.mean_ns(10_000, |i| {
            std::hint::black_box(clusters.assign(&prints[i % prints.len()]));
        }),
    );
    t.set(
        "wid.classify_ns",
        t.mean_ns(10_000, |i| {
            std::hint::black_box(clusters.classify(&prints[i % prints.len()]));
        }),
    );
}

/// Spans of lookups and of everything else in an alternating cold stream:
/// request `2i` is a lookup while `2i < 2 * lookups`.
fn cold_span_split(spans: &[Span], lookups: usize, name: &str) -> (f64, f64) {
    let is_lookup = |s: &Span| s.request.is_multiple_of(2) && (s.request as usize) < 2 * lookups;
    (
        span_total(spans, name, is_lookup),
        span_total(spans, name, |s| !is_lookup(s)),
    )
}

fn trace_cold(seed: u64, t: &Table) -> Traced {
    let untraced = cold_rep(&serve::COLD, cold_seed(seed, 0), false, None, &t.pace);
    let mut spans = Vec::new();
    let traced = cold_rep(
        &serve::COLD,
        cold_seed(seed, 0),
        false,
        Some(&mut spans),
        &t.pace,
    );
    let n = serve::COLD.lookups;
    let client = span_total(&spans, SPAN_CLIENT_ENCODE, |_| true)
        + span_total(&spans, SPAN_CLIENT_DECODE, |_| true);
    let (_, other_server) = cold_span_split(&spans, n, SPAN_SERVER_REQUEST);
    // What the replayed layers predict for the lookups of this stream.
    let (hits, admits) = (traced.stream.hits as f64, traced.stream.backfills as f64);
    let joins = n as f64 - hits - admits;
    let framing = t.get("protocol.decode_request_ns") + t.get("protocol.encode_response_ns");
    let predicted = n as f64 * framing
        + hits * t.get("router.lookup_hit_ns")
        + admits * t.get("router.lookup_miss_admit_ns")
        + joins * t.get("router.lookup_miss_join_ns");
    Traced {
        rate_untraced: 1.0 / (untraced.speed.time(untraced.stream.warm_s)),
        rate_traced: 1.0 / (traced.speed.time(traced.stream.warm_s)),
        e2e: traced.speed.time(traced.stream.warm_s),
        unit: "s per stream",
        rows: vec![
            Row("protocol (client spans)", traced.speed.0 * client / 1e9),
            Row(
                "protocol+router+cache+durability (lookups, replayed)",
                predicted / 1e9,
            ),
            Row(
                "registry+durability (steps and drain, server spans)",
                traced.speed.0 * other_server / 1e9,
            ),
        ],
        gap: None,
        spans,
    }
}

fn trace_tune(shape: &TuneShape, seed: u64, layers: &TuneLayers, t: &Table) -> Traced {
    let specs = shape.specs(seed);
    let untraced = tune_rep(shape, &specs, seed, false, None, &t.pace);
    let mut spans = Vec::new();
    let traced = tune_rep(shape, &specs, seed, false, Some(&mut spans), &t.pace);
    let client = span_total(&spans, SPAN_CLIENT_ENCODE, |_| true)
        + span_total(&spans, SPAN_CLIENT_DECODE, |_| true);
    let measure_s = shape.trials() as f64 * t.get("sim.measure_ns") / 1e9;
    Traced {
        spans,
        rate_untraced: untraced.trials as f64 / (untraced.speed.0 * untraced.run_s),
        rate_traced: traced.trials as f64 / (traced.speed.0 * traced.run_s),
        e2e: traced.speed.0 * traced.run_s,
        unit: "s per run",
        // Each row is what its layer adds over the one below it; what the
        // router and server add over a bare durable registry is the
        // unattributed remainder.
        rows: vec![
            Row("protocol (client spans)", traced.speed.0 * client / 1e9),
            Row("optimizer+surrogate+linalg", layers.optimizer_s),
            Row("sim (serial)", measure_s),
            Row(
                "campaign",
                layers.campaign_s - layers.optimizer_s - measure_s,
            ),
            Row("registry", layers.registry_s - layers.campaign_s),
            Row("durability", layers.durable_s - layers.registry_s),
        ],
        gap: None,
    }
}

/// Mean nanoseconds of one Zipf draw, the generator's share of a cache op.
fn draw_ns(fleet: &TenantFleet, seed: u64, t: &Table) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    t.mean_ns(200_000, |_| {
        std::hint::black_box(fleet.sample(&mut rng));
    })
}

fn segment_spans(seconds: &[f64]) -> Vec<Span> {
    let mut at = 0;
    seconds
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let start_ns = at;
            at += (s * 1e9) as u64;
            Span {
                request: i as u64,
                name: "cache.segment",
                start_ns,
                end_ns: at,
            }
        })
        .collect()
}

fn trace_read(seed: u64, t: &Table) -> Traced {
    let cfg = gen::fleet_config(seed);
    let fleet = gen::fleet(&cfg);
    let setup = read_setup(&cfg, &fleet);
    let ((seconds, draw), Speed(factor)) = t.pace.around(|| {
        let seconds: Vec<f64> = (0..3)
            .map(|i| read_segment(&setup, &fleet, 1, cache::READ_SEGMENT, seed + i).0)
            .collect();
        (seconds, draw_ns(&fleet, seed, t))
    });
    let rate = |secs: f64| cache::READ_SEGMENT as f64 / (factor * secs);
    Traced {
        spans: segment_spans(&seconds),
        // No request stream to trace: the same segment twice.
        rate_untraced: rate(seconds[1]),
        rate_traced: rate(seconds[2]),
        e2e: 1e9 / rate(seconds[2]),
        unit: "ns per lookup",
        rows: vec![
            Row("cache", t.get("cache.lookup_ns")),
            Row("generator (Zipf draw)", factor * draw),
        ],
        gap: None,
    }
}

fn trace_churn(seed: u64, t: &Table) -> Traced {
    let setup = churn_setup(seed);
    let ((runs, draw), Speed(factor)) = t.pace.around(|| {
        let runs: Vec<(f64, cache::ChurnCounts)> = (0..3)
            .map(|_| churn_rep(&setup, CHURN_DRAWS, seed))
            .collect();
        (runs, draw_ns(&setup.fleet, seed, t))
    });
    let (secs, counts) = runs[2];
    let share = |n: u64| n as f64 / CHURN_DRAWS as f64;
    let inserts = share(counts.borrowed_hits + counts.misses);
    Traced {
        spans: segment_spans(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
        rate_untraced: CHURN_DRAWS as f64 / (factor * runs[1].0),
        rate_traced: CHURN_DRAWS as f64 / (factor * secs),
        e2e: 1e9 * factor * secs / CHURN_DRAWS as f64,
        unit: "ns per draw",
        rows: vec![
            Row(
                "cache",
                t.get("cache.lookup_ns")
                    + inserts * t.get("cache.insert_ns")
                    + share(counts.misses) * t.get("cache.admit_family_ns"),
            ),
            Row("generator (Zipf draw)", factor * draw),
        ],
        gap: None,
    }
}

fn write_outputs(workload: &str, seed: u64, spans: &[Span], report: &str) -> std::io::Result<()> {
    let dir = gen::out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("trace-{workload}-seed{seed}");
    let mut csv = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{stem}.spans.csv")),
    )?);
    writeln!(csv, "request,span,start_ns,end_ns")?;
    for s in spans {
        writeln!(csv, "{},{},{},{}", s.request, s.name, s.start_ns, s.end_ns)?;
    }
    csv.flush()?;
    std::fs::write(dir.join(format!("{stem}.layers.txt")), report)
}

/// The `--trace 1` run of one workload; returns the exit code.
pub fn run_traced(workload: &str, seed: u64) -> i32 {
    let mut t = Table {
        values: BTreeMap::new(),
        pace: Pace::new(),
    };
    t.group(|t| model_layers(seed, t));
    let (hit, hit_factor) = t.group(|t| serving_layers(seed, t));
    t.group(|t| cold_layers(seed, t));
    t.group(|t| cache_layers(seed, t));
    let shape = match workload {
        "tune_bo" => TUNE_BO,
        "tune_fleet" => TUNE_FLEET,
        _ => REFERENCE_FLEET,
    };
    let (tuned, factor) = t.group(|t| tune_layers(&shape, seed, t));
    let tuned = TuneLayers {
        durable_s: factor * tuned.durable_s,
        registry_s: factor * tuned.registry_s,
        campaign_s: factor * tuned.campaign_s,
        optimizer_s: factor * tuned.optimizer_s,
    };
    let traced = match workload {
        // Its rows are read from the table only now, after the group's
        // values were scaled.
        "serve_hit" => hit.scaled(hit_factor).with_rows(hit_rows(&t)),
        "serve_cold" => trace_cold(seed, &t),
        "tune_bo" | "tune_fleet" => trace_tune(&shape, seed, &tuned, &t),
        "cache_read" => trace_read(seed, &t),
        "cache_churn" => trace_churn(seed, &t),
        other => unreachable!("workload {other} was validated"),
    };
    let attributed: f64 = traced.rows.iter().map(|r| r.1).sum();
    let unattributed = match traced.gap {
        Some(share) => share * traced.e2e,
        None => traced.e2e - attributed,
    };
    t.set("trace.reconcile_gap_pct", 100.0 * unattributed / traced.e2e);
    t.set(
        "trace.overhead_pct",
        100.0 * (traced.rate_untraced - traced.rate_traced) / traced.rate_untraced,
    );

    let mut report = String::new();
    for (name, unit, _) in PER_LAYER {
        report += &format!("{name:<34} {:>16.3} {unit}\n", t.get(name));
    }
    report += &format!(
        "# reconciliation of {workload} ({}): end to end {:.4}\n",
        traced.unit, traced.e2e
    );
    for Row(layer, value) in traced
        .rows
        .iter()
        .chain([&Row("unattributed", unattributed)])
    {
        report += &format!(
            "{layer:<58} {value:>14.4} {:>6.1} %\n",
            100.0 * value / traced.e2e
        );
    }
    print!("{report}");
    let mut failed = 0;
    if let Err(e) = write_outputs(workload, seed, &traced.spans, &report) {
        eprintln!("writing the trace failed: {e}");
        failed += 1;
    }
    let metrics: Vec<(String, f64, String)> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = t.get(name);
            failed += u64::from(!value.is_finite());
            (name.to_string(), value, unit.to_string())
        })
        .collect();
    println!("ops_attempted {}", PER_LAYER.len());
    println!("ops_failed {failed}");
    println!(
        "{}",
        crate::result_line(failed == 0, PER_LAYER.len() as u64, failed, &metrics)
    );
    i32::from(failed != 0)
}
