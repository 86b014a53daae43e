//! E35 (ROADMAP item 1, request-time serving): a fingerprint-keyed
//! config cache amortizes tuning across a multi-tenant fleet.
//!
//! A synthetic Zipf tenant population ([`TenantFleet`]: 12 workload
//! families, 300 tenants, hot-skewed request popularity) streams
//! lookups through a [`TenantRouter`]. Every miss admits one tuning
//! campaign for the family (single-flight); its best trial backfills
//! the cache; later tenants of the family borrow the incumbent.
//!
//! Three claims, matching the paper's amortization premise:
//!
//! * **Hit rate** — after the cold-start transient, ≥ 95 % of the
//!   request stream is served from cache (most workloads repeat).
//! * **Regret** — the served (family-incumbent) config is within 5 % of
//!   what a dedicated per-tenant campaign achieves, evaluated on each
//!   tenant's own target with a fixed seed.
//! * **Recovery** — replaying the WAL-journaled op stream rebuilds the
//!   cache byte-identically (hit/miss behavior survives a crash).
//!
//! How fast a warmed cache answers is the benchmark's `cache_read` and
//! `serve_hit` workloads to measure.

use crate::report::Report;
use autotune::{measure_request, NoiseStrategy, Objective, Target, TrialRequest};
use autotune_serve::{
    CampaignSpec, MemStorage, RouterConfig, RouterLookup, SystemKind, TenantRouter, WalConfig,
};
use autotune_sim::{Environment, Workload};
use autotune_wid::{Tenant, TenantFleet, TenantFleetConfig};
use rand::{rngs::StdRng, SeedableRng};

/// Fleet shape of the experiment.
fn fleet_config() -> TenantFleetConfig {
    TenantFleetConfig {
        n_families: 12,
        n_tenants: 300,
        dim: 12,
        zipf_exponent: 1.1,
        separation: 10.0,
        jitter: 0.25,
        rate_spread: 0.03,
        seed: 35,
    }
}

/// Requests in the Zipf stream.
const N_REQUESTS: usize = 4_000;
/// Fixed seed for regret evaluations (same seed for served and tuned
/// configs, so the comparison is noise-free).
const EVAL_SEED: u64 = 0xE35;

/// The campaign a missing tenant enqueues: tune the tenant's own
/// workload (offered rate scaled by its intensity). Same-family tenants
/// produce nearly identical specs, which is exactly why the family
/// incumbent serves them all well.
fn tenant_spec(t: &Tenant) -> CampaignSpec {
    let mut s = CampaignSpec::minimal(
        format!("tenant-{}", t.id),
        SystemKind::Redis,
        32,
        35_000 + t.family as u64,
    );
    s.workload = Workload::kv_cache(50_000.0 * t.rate_scale);
    s.environment = Environment::small();
    s.objective = Objective::MinimizeLatencyAvg;
    s
}

/// Router shape for the fleet: spawn threshold from the fleet's own
/// geometry, everything else default.
fn router_config(fleet_cfg: &TenantFleetConfig) -> RouterConfig {
    let mut rc = RouterConfig::default();
    rc.cache.threshold = TenantFleet::recommended_threshold(fleet_cfg);
    rc
}

/// Evaluates `config`'s cost on the tenant's own target with a fixed
/// eval seed.
fn eval_on_tenant(t: &Tenant, config: &autotune_space::Config) -> f64 {
    let target = Target::simulated(
        SystemKind::Redis.build(),
        Workload::kv_cache(50_000.0 * t.rate_scale),
        Environment::small(),
        Objective::MinimizeLatencyAvg,
    );
    measure_request(
        &target,
        &NoiseStrategy::Single,
        &TrialRequest::new(config.clone()),
        EVAL_SEED,
    )
    .cost
}

/// What a dedicated campaign on the tenant's own target achieves.
fn tuned_cost(t: &Tenant) -> f64 {
    let mut spec = tenant_spec(t);
    spec.name = format!("tuned-{}", t.id);
    spec.seed = 70_000 + t.id as u64;
    let mut campaign = spec.build();
    campaign.run();
    let best = campaign
        .storage()
        .best()
        .expect("tuning campaign produced no finite trial")
        .config
        .clone();
    eval_on_tenant(t, &best)
}

/// Drives the Zipf stream through a fresh router over `wal`; returns the
/// router plus (hits, misses) observed.
fn drive_stream(
    wal: &MemStorage,
    fleet: &TenantFleet,
    config: RouterConfig,
    n_requests: usize,
) -> (TenantRouter, u64, u64) {
    let mut router =
        TenantRouter::create_in(wal, 2, WalConfig::default(), config).expect("create router");
    let mut rng = StdRng::seed_from_u64(35);
    let mut hits = 0;
    let mut misses = 0;
    for _ in 0..n_requests {
        let tenant = fleet.sample(&mut rng);
        let out = router
            .lookup(tenant.fingerprint.features(), &tenant_spec(tenant))
            .expect("lookup");
        match out {
            RouterLookup::Hit(_) => hits += 1,
            RouterLookup::Miss { .. } => misses += 1,
        }
        // One scheduling round per request: campaigns make progress
        // while the stream flows, so the cold-start window is realistic
        // rather than instantaneous.
        router.step_round().expect("round");
    }
    router.run_all().expect("drain");
    (router, hits, misses)
}

/// Runs the experiment.
pub fn run() -> Report {
    let fleet_cfg = fleet_config();
    let fleet = TenantFleet::generate(&fleet_cfg).expect("fleet");
    let wal = MemStorage::default();

    let (router, hits, misses) = drive_stream(&wal, &fleet, router_config(&fleet_cfg), N_REQUESTS);
    let hit_rate = hits as f64 / (hits + misses) as f64;
    let cache_stats = router.cache_stats();

    // Regret: every 13th tenant (hot and tail alike) asks the warmed
    // cache for a config and we compare against its own tuned optimum.
    let mut regrets = Vec::new();
    let mut served_cache = router;
    for t in fleet.tenants().iter().step_by(13) {
        let out = served_cache
            .lookup(t.fingerprint.features(), &tenant_spec(t))
            .expect("warm lookup");
        let RouterLookup::Hit(hit) = out else {
            // A tail family whose sole entry was evicted would miss; the
            // fleet shape keeps every family warm, so treat it as a
            // failure signal rather than skipping silently.
            regrets.push(f64::INFINITY);
            continue;
        };
        let served = eval_on_tenant(t, &hit.config);
        let tuned = tuned_cost(t);
        regrets.push(served / tuned.max(1e-12));
    }
    let mean_regret = regrets.iter().sum::<f64>() / regrets.len() as f64;
    let max_regret = regrets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    // Recovery: replay the WAL op journal and compare full cache state
    // (entries, ticks, counters, clustering — CacheSnapshot is PartialEq).
    let live_snapshot = served_cache.cache().snapshot();
    drop(served_cache);
    let replay_identical = match TenantRouter::open_in(&wal, 2, WalConfig::default()) {
        Ok((reopened, _)) => reopened.cache().snapshot() == live_snapshot,
        Err(_) => false,
    };

    let rows = vec![
        vec![
            "cache hit rate".into(),
            format!("{:.2} %", hit_rate * 100.0),
            format!("{hits} hits / {misses} misses over {N_REQUESTS} requests"),
        ],
        vec![
            "families spawned".into(),
            format!("{}", cache_stats.families),
            format!("ground truth {}", fleet_cfg.n_families),
        ],
        vec![
            "campaigns run".into(),
            format!("{}", cache_stats.backfills),
            "one per family (single-flight)".into(),
        ],
        vec![
            "served vs per-tenant tuned".into(),
            format!("mean {:.3}x, max {:.3}x", mean_regret, max_regret),
            format!("{} tenants sampled", regrets.len()),
        ],
        vec![
            "WAL replay".into(),
            if replay_identical {
                "byte-identical".into()
            } else {
                "DIVERGED".into()
            },
            "cache state re-derived from op journal".into(),
        ],
    ];
    let shape_holds = hit_rate >= 0.95
        && cache_stats.families as usize == fleet_cfg.n_families
        && mean_regret <= 1.05
        && replay_identical;
    Report {
        id: "E35",
        title: "Fingerprint-keyed config cache over a Zipf tenant fleet (ROADMAP: request-time serving)",
        headers: vec!["check", "result", "detail"],
        rows,
        paper_claim: "most workloads repeat, so cached configs amortize tuning: high hit rate at near-tuned quality",
        measured: format!(
            "{:.1}% hit rate, mean regret {:.3}x over {} tenants, replay {}",
            hit_rate * 100.0,
            mean_regret,
            regrets.len(),
            if replay_identical { "exact" } else { "diverged" }
        ),
        shape_holds,
    }
}
