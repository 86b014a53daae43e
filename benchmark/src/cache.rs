//! The in-process cache workloads: `cache_read` (a thread reading a warmed
//! `ShardedCache` directly) and `cache_churn` (one thread filling and
//! evicting a bare one). The same layer used both ways, so a read-path
//! gain that taxes writers shows as a loss on the other workload.

use crate::gen::{self, Scratch};
use crate::serve::warm_router;
use crate::{Budget, Run};
use autotune_cache::{CacheConfig, CacheLookup, ShardedCache};
use autotune_serve::SystemKind;
use autotune_space::Config;
use autotune_wid::{TenantFleet, TenantFleetConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Lookups per `cache_read` segment.
pub const READ_SEGMENT: usize = 500_000;
/// Draws per `cache_churn` repetition.
pub const CHURN_DRAWS: usize = 250_000;
/// Tenants of the churn fleet: far more than the cache's 16 × 64 entries.
const CHURN_TENANTS: usize = 20_000;
/// Segments or repetitions before anything depends on `--seconds`.
const CACHE_MIN_REPS: usize = 5;
/// Random-search budget of the campaigns that warm the read cache.
const WARM_BUDGET: usize = 8;

/// Reader threads of the per-layer `cache.scaling` row. The end-to-end
/// `cache_read` reads with one thread: with two on a two-vCPU box the rate
/// follows where the host places the vCPUs (the hit path bounces shared
/// counters between them), which steps between three levels a factor two
/// apart and which nothing the benchmark can run alongside sees.
pub fn reader_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// A warmed cache plus the ground truth to check its answers against.
pub struct ReadSetup {
    pub cache: Arc<ShardedCache>,
    /// fleet family → cache family.
    pub family_of: BTreeMap<usize, usize>,
}

/// `cache_read` set-up: an E35-warmed router's cache. The router and its
/// WAL directory are dropped; only the `Arc<ShardedCache>` lives on.
pub fn read_setup(cfg: &TenantFleetConfig, fleet: &TenantFleet) -> ReadSetup {
    let scratch = Scratch::new("read");
    let router = warm_router(scratch.path(), cfg, fleet, WARM_BUDGET);
    let cache = Arc::clone(router.cache());
    let mut family_of = BTreeMap::new();
    for t in fleet.tenants() {
        if let CacheLookup::Hit(hit) = cache.lookup(t.fingerprint.features()) {
            family_of.entry(t.family).or_insert(hit.family);
        }
    }
    ReadSetup { cache, family_of }
}

/// One segment: `threads` readers, `total / threads` Zipf lookups each.
/// Returns the wall seconds and the number of wrong answers.
pub fn read_segment(
    setup: &ReadSetup,
    fleet: &TenantFleet,
    threads: usize,
    total: usize,
    seed: u64,
) -> (f64, u64) {
    let per_thread = total / threads;
    let start = Instant::now();
    let wrong: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
                    let mut wrong = 0u64;
                    for _ in 0..per_thread {
                        let t = fleet.sample(&mut rng);
                        match setup.cache.lookup(t.fingerprint.features()) {
                            CacheLookup::Hit(hit)
                                if setup.family_of.get(&t.family) == Some(&hit.family) => {}
                            _ => wrong += 1,
                        }
                    }
                    wrong
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .sum()
    });
    (start.elapsed().as_secs_f64(), wrong)
}

pub fn run_read(seed: u64, budget: &Budget) -> Run {
    let cfg = gen::fleet_config(seed);
    let fleet = gen::fleet(&cfg);
    // Every set-up stays in use: segments take the warmed caches in turn,
    // because a tight read loop runs up to a tenth faster or slower with
    // where the allocator happened to put one cache's maps.
    let (setup_s, setups) = budget.time_setups(|| {
        // Fleet generation is part of set-up (the readers borrow the
        // long-lived copy), and so is one discarded segment.
        std::hint::black_box(gen::fleet(&cfg));
        let setup = read_setup(&cfg, &fleet);
        read_segment(&setup, &fleet, 1, READ_SEGMENT, seed);
        setup
    });
    let mut rates = Vec::new();
    let mut failed = setups
        .iter()
        .map(|setup| u64::from(setup.family_of.len() != cfg.n_families))
        .sum::<u64>();
    let mut peak_rss_mb = 0.0;
    let measured = Instant::now();
    let mut segments = 0;
    while segments < CACHE_MIN_REPS || !budget.spent(measured) {
        let seg_seed = seed.wrapping_add(1_000 * (1 + segments as u64));
        let setup = &setups[segments % setups.len()];
        let ((secs, wrong), speed) = budget
            .pace
            .around(|| read_segment(setup, &fleet, 1, READ_SEGMENT, seg_seed));
        rates.push(speed.rate(READ_SEGMENT as f64 / secs));
        failed += wrong;
        segments += 1;
        if segments == CACHE_MIN_REPS {
            peak_rss_mb = gen::peak_rss_mb();
        }
    }
    let mut run = Run::new((segments * READ_SEGMENT) as u64, failed);
    run.reps = segments;
    run.put("setup_s", setup_s);
    run.put("lookups_per_s", rates);
    run.put("peak_rss_mb", vec![peak_rss_mb]);
    run
}

/// `cache_churn` inputs: a fleet far larger than the cache and a config
/// and cost for each tenant, derived from its id.
pub struct ChurnSetup {
    pub cfg: TenantFleetConfig,
    pub fleet: TenantFleet,
    configs: Vec<Config>,
}

pub fn churn_setup(seed: u64) -> ChurnSetup {
    let cfg = TenantFleetConfig {
        n_tenants: CHURN_TENANTS,
        ..gen::fleet_config(seed)
    };
    let fleet = gen::fleet(&cfg);
    let space = SystemKind::Redis.build().space().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4u64);
    let configs = (0..64).map(|_| space.sample(&mut rng)).collect();
    ChurnSetup {
        cfg,
        fleet,
        configs,
    }
}

/// What one churn repetition counted; equal across repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnCounts {
    pub exact_hits: u64,
    pub borrowed_hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub families: u64,
}

/// One repetition on a fresh default-capacity cache: look up; on a
/// borrowed hit insert the tenant's own entry; on a miss admit the family
/// and insert.
pub fn churn_rep(setup: &ChurnSetup, draws: usize, seed: u64) -> (f64, ChurnCounts) {
    let cache = ShardedCache::new(CacheConfig {
        threshold: TenantFleet::recommended_threshold(&setup.cfg),
        ..CacheConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a2);
    let mut counts = ChurnCounts::default();
    let start = Instant::now();
    for _ in 0..draws {
        let t = setup.fleet.sample(&mut rng);
        let features = t.fingerprint.features();
        let family = match cache.lookup(features) {
            CacheLookup::Hit(hit) if !hit.borrowed => {
                counts.exact_hits += 1;
                continue;
            }
            CacheLookup::Hit(hit) => {
                counts.borrowed_hits += 1;
                hit.family
            }
            CacheLookup::Miss { .. } => {
                counts.misses += 1;
                cache.admit_family(features).family
            }
        };
        let config = setup.configs[t.id % setup.configs.len()].clone();
        cache.insert(family, features, config, 1.0 + (t.id % 97) as f64);
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = cache.stats();
    counts.evictions = stats.evictions;
    counts.families = stats.families;
    (secs, counts)
}

pub fn run_churn(seed: u64, budget: &Budget) -> Run {
    // Set-up includes one discarded repetition; its counts are the
    // reference.
    let (setup_s, mut setups) = budget.time_setups(|| {
        let setup = churn_setup(seed);
        let (_, reference) = churn_rep(&setup, CHURN_DRAWS, seed);
        (setup, reference)
    });
    let (setup, reference) = setups.pop().expect("at least three set-ups");
    drop(setups);
    let mut failed = u64::from(reference.families != setup.cfg.n_families as u64);
    let mut rates = Vec::new();
    let mut peak_rss_mb = 0.0;
    let measured = Instant::now();
    let mut reps = 0;
    while reps < CACHE_MIN_REPS || !budget.spent(measured) {
        let ((secs, counts), speed) = budget.pace.around(|| churn_rep(&setup, CHURN_DRAWS, seed));
        rates.push(speed.rate(CHURN_DRAWS as f64 / secs));
        failed += u64::from(counts != reference);
        reps += 1;
        if reps == CACHE_MIN_REPS {
            peak_rss_mb = gen::peak_rss_mb();
        }
    }
    let mut run = Run::new((reps * CHURN_DRAWS) as u64, failed);
    run.reps = reps;
    run.put("setup_s", setup_s);
    run.put("ops_per_s", rates);
    run.put("peak_rss_mb", vec![peak_rss_mb]);
    let per_rep = |n: u64| n as f64;
    run.count("cache_churn.exact_hits", per_rep(reference.exact_hits));
    run.count(
        "cache_churn.borrowed_hits",
        per_rep(reference.borrowed_hits),
    );
    run.count("cache_churn.misses", per_rep(reference.misses));
    run.count("cache_churn.evictions", per_rep(reference.evictions));
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_churn_counts() {
        let counts = |seed: u64| churn_rep(&churn_setup(seed), 30_000, seed).1;
        let a = counts(3);
        assert_eq!(a, counts(3));
        assert_ne!(a, counts(4));
        assert_eq!(a.families, 12);
        assert_eq!(a.exact_hits + a.borrowed_hits + a.misses, 30_000);
        // One eviction per insert once the 16 × 64 entries are full.
        assert!(a.evictions > 0 && a.evictions < a.borrowed_hits + a.misses);
    }

    #[test]
    fn warmed_cache_answers_every_tenant_with_its_family() {
        let cfg = gen::fleet_config(5);
        let fleet = gen::fleet(&cfg);
        let setup = read_setup(&cfg, &fleet);
        assert_eq!(setup.family_of.len(), cfg.n_families);
        let (_, wrong) = read_segment(&setup, &fleet, 2, 2_000, 5);
        assert_eq!(wrong, 0);
    }
}
