//! Deterministic interleaving race harness.
//!
//! The static side (autotune-lint's D7–D11 and clippy's raw-lock ban)
//! argues about locks and atomics on paper; this harness *executes* the
//! invariants those rules protect. A schedule-controlled turn gate
//! drives [`ShardedCache`] and [`TenantRouter`] through seeded
//! adversarial interleavings:
//!
//! * every schedule must be equivalent to some serial order
//!   (linearizability against a serial replay of the realized order);
//! * a fixed logical op sequence must produce **byte-identical cache
//!   snapshots and hit/miss sequences** no matter which thread executes
//!   each op, for every seed and thread count — the determinism contract
//!   the eviction/LRU atomics audit (satellite of ISSUE 10) exists to
//!   keep;
//! * the router's per-family single-flight admission must admit exactly
//!   one campaign per family under every merge order of tenant streams;
//! * an ungated stress test checks the read path never serves torn
//!   values under real concurrency.
//!
//! Seed count comes from `RACE_SEEDS` (default 8 for the inner loop;
//! CI's `race` job runs 64 in release mode).

use autotune::sync::{pwait, PoisonFreeMutex};
use autotune_cache::{CacheConfig, CacheLookup, ShardedCache};
use autotune_serve::{
    CampaignSpec, MemStorage, RouterConfig, RouterLookup, SystemKind, TenantRouter, WalConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

// ---------------------------------------------------------------------
// Seeded scheduling primitives (same splitmix discipline as the sim
// crate's fault plans and the serve crate's chaos streams).
// ---------------------------------------------------------------------

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Schedule seeds for this run: `RACE_SEEDS` many (default 8).
fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("RACE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    (1..=n).collect()
}

/// In-place Fisher–Yates driven by a splitmix stream.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..v.len()).rev() {
        s = splitmix(s);
        let j = (s % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Turn gate: a precomputed schedule of thread ids, enforced with a
/// mutex + condvar so exactly the scheduled thread runs each turn. The
/// harness dogfoods the `PoisonFree` acquisitions the lint mandates.
struct Interleaver {
    schedule: Vec<usize>,
    cursor: Mutex<usize>,
    turn: Condvar,
}

impl Interleaver {
    /// Builds a seeded schedule interleaving `counts[t]` turns for each
    /// thread `t` (a shuffled multiset, so per-thread program order is
    /// preserved but every merge order is reachable across seeds).
    fn new(seed: u64, counts: &[usize]) -> Self {
        let mut schedule = Vec::new();
        for (t, &n) in counts.iter().enumerate() {
            schedule.extend(std::iter::repeat_n(t, n));
        }
        shuffle(&mut schedule, seed);
        Interleaver {
            schedule,
            cursor: Mutex::new(0),
            turn: Condvar::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Cache op streams.
// ---------------------------------------------------------------------

const FAMILIES: usize = 6;

/// Small shards + short hot window so eviction and LRU protection are
/// exercised, not just the happy path.
fn tight_cache() -> CacheConfig {
    CacheConfig {
        threshold: 1.0,
        n_shards: 2,
        capacity_per_shard: 4,
        hot_window: 8,
    }
}

/// Tenant fingerprint `j` of family `fam`: centroids sit 10 apart, the
/// jitter stays well inside the clustering threshold.
fn feat(fam: usize, j: u64) -> [f64; 2] {
    [10.0 * fam as f64 + (j % 5) as f64 * 0.1, 0.0]
}

/// Spawns the fixed family set so the concurrent phase never mutates the
/// clustering model (lookups classify, only `admit_family` assigns).
fn seed_families(cache: &ShardedCache) {
    for fam in 0..FAMILIES {
        let a = cache.admit_family(&feat(fam, 0));
        assert_eq!(a.family, fam, "setup must spawn families in order");
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup { fam: usize, j: u64 },
    Insert { fam: usize, j: u64, cost: f64 },
}

/// A deterministic mixed op stream. Costs encode `(family, slot)` so the
/// torn-read check can validate any served value against its family.
fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    (0..n as u64)
        .map(|i| {
            let h = splitmix(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let fam = (h % FAMILIES as u64) as usize;
            let j = (h >> 8) % 5;
            if (h >> 16).is_multiple_of(3) {
                let cost = (fam * 1000) as f64 + j as f64 + ((h >> 24) % 7) as f64 * 0.125;
                Op::Insert { fam, j, cost }
            } else {
                Op::Lookup { fam, j }
            }
        })
        .collect()
}

/// Executes one op, returning a canonical outcome string (the hit/miss
/// sequence the acceptance criteria compare byte-for-byte).
fn apply(cache: &ShardedCache, op: &Op) -> String {
    match op {
        Op::Lookup { fam, j } => match cache.lookup(&feat(*fam, *j)) {
            CacheLookup::Hit(h) => format!(
                "H f={} k={:016x} c={:016x} b={}",
                h.family,
                h.key,
                h.cost.to_bits(),
                h.borrowed
            ),
            CacheLookup::Miss { family } => format!("M f={family:?}"),
        },
        Op::Insert { fam, j, cost } => {
            let f = feat(*fam, *j);
            let mut config = autotune_space::Config::new();
            config.set("slot", *j as f64);
            cache.insert(*fam, &f, config, *cost);
            "I".into()
        }
    }
}

fn snapshot_bytes(cache: &ShardedCache) -> String {
    serde_json::to_string(&cache.snapshot()).expect("snapshot serializes")
}

// ---------------------------------------------------------------------
// Test 1 — the acceptance criterion: a fixed logical op sequence yields
// byte-identical snapshots and hit/miss sequences across every seed and
// thread count. The seed controls which *thread* executes each op (the
// adversarial part: every lock handoff pattern between shard readers
// and writers is reachable), so any dependence of eviction/LRU state on
// scheduling — exactly what the D9 atomics audit guards — breaks the
// byte equality. Also the satellite regression test that eviction
// decisions are identical across thread counts.
// ---------------------------------------------------------------------

/// Runs `ops` in fixed global order, op `i` executed by thread
/// `assign[i]`, and returns (outcome sequence, final snapshot bytes).
fn run_assigned(ops: &[Op], assign: &[usize], threads: usize) -> (Vec<String>, String) {
    let cache = ShardedCache::new(tight_cache());
    seed_families(&cache);
    let cursor = Mutex::new(0usize);
    let turn = Condvar::new();
    let results: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..threads {
            let mine: Vec<usize> = (0..ops.len()).filter(|&i| assign[i] == t).collect();
            let (cache, cursor, turn, results) = (&cache, &cursor, &turn, &results);
            s.spawn(move || {
                for &i in &mine {
                    let mut cur = cursor.plock();
                    while *cur != i {
                        cur = pwait(turn, cur);
                    }
                    let out = apply(cache, &ops[i]);
                    results.plock().push((i, out));
                    *cur += 1;
                    turn.notify_all();
                }
            });
        }
    });
    let mut seq = std::mem::take(&mut *results.plock());
    seq.sort_by_key(|&(i, _)| i);
    (
        seq.into_iter().map(|(_, s)| s).collect(),
        snapshot_bytes(&cache),
    )
}

#[test]
fn snapshots_and_outcomes_identical_across_schedules_and_thread_counts() {
    let ops = gen_ops(0xCAFE, 160);
    let baseline = run_assigned(&ops, &vec![0; ops.len()], 1);
    // The fixed stream must actually exercise eviction, or the test says
    // nothing about the LRU/heat machinery.
    {
        let cache = ShardedCache::new(tight_cache());
        seed_families(&cache);
        for op in &ops {
            apply(&cache, op);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "op stream never evicted");
        assert!(stats.hits > 0 && stats.misses > 0, "op stream too tame");
    }
    for seed in seeds() {
        for threads in [2usize, 4] {
            let assign: Vec<usize> = (0..ops.len() as u64)
                .map(|i| (splitmix(seed ^ i) % threads as u64) as usize)
                .collect();
            let (outcomes, snap) = run_assigned(&ops, &assign, threads);
            assert_eq!(
                outcomes, baseline.0,
                "hit/miss sequence diverged (seed={seed}, threads={threads})"
            );
            assert_eq!(
                snap, baseline.1,
                "cache snapshot diverged (seed={seed}, threads={threads})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Test 2 — linearizability: two threads run *different* op programs
// under a seeded interleaver; the realized global order must be
// reproducible by a serial replay of that order, byte-for-byte. Each
// seed realizes a different interleaving, so outcomes differ across
// seeds — but never from their own serial witness.
// ---------------------------------------------------------------------

#[test]
fn every_interleaving_matches_its_serial_replay() {
    for seed in seeds() {
        let programs = [gen_ops(seed ^ 0xA, 60), gen_ops(seed ^ 0xB, 60)];
        let gate = Interleaver::new(seed, &[programs[0].len(), programs[1].len()]);
        let cache = ShardedCache::new(tight_cache());
        seed_families(&cache);
        // (turn index, outcome) per thread; merged afterwards into the
        // realized global history.
        let histories: Mutex<Vec<(usize, usize, usize, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for (tid, prog) in programs.iter().enumerate() {
                let (gate, cache, histories) = (&gate, &cache, &histories);
                s.spawn(move || {
                    for (pi, op) in prog.iter().enumerate() {
                        let mut cur = gate.cursor.plock();
                        while gate.schedule[*cur] != tid {
                            cur = pwait(&gate.turn, cur);
                        }
                        let turn = *cur;
                        let out = apply(cache, op);
                        histories.plock().push((turn, tid, pi, out));
                        *cur += 1;
                        gate.turn.notify_all();
                    }
                });
            }
        });
        let mut history = std::mem::take(&mut *histories.plock());
        history.sort_by_key(|&(turn, ..)| turn);
        // Serial witness: replay the realized order on a fresh cache.
        let witness = ShardedCache::new(tight_cache());
        seed_families(&witness);
        for &(_, tid, pi, ref out) in &history {
            let replayed = apply(&witness, &programs[tid][pi]);
            assert_eq!(
                &replayed, out,
                "outcome diverged from serial replay (seed={seed}, tid={tid}, op={pi})"
            );
        }
        assert_eq!(
            snapshot_bytes(&witness),
            snapshot_bytes(&cache),
            "final state diverged from serial replay (seed={seed})"
        );
    }
}

// ---------------------------------------------------------------------
// Test 3 — router single-flight admission under every merge order of
// two tenant streams per family. The projection (families, campaigns,
// joins) must be identical across all seeds: exactly one campaign per
// family, every other miss joins it.
// ---------------------------------------------------------------------

fn mini_spec(name: &str, seed: u64) -> CampaignSpec {
    CampaignSpec::minimal(name.to_string(), SystemKind::Redis, 4, seed)
}

#[test]
fn single_flight_admission_is_schedule_invariant() {
    let router_config = RouterConfig {
        cache: tight_cache(),
    };
    let mut projections: Vec<String> = Vec::new();
    for seed in seeds() {
        // Three families × two tenants × three requests each, merged in
        // a seeded order (the router API is &mut self, so the adversary
        // here is the arrival order, not thread scheduling).
        let mut arrivals: Vec<(usize, u64)> = Vec::new();
        for fam in 0..3 {
            for tenant in 0..2u64 {
                for _ in 0..3 {
                    arrivals.push((fam, tenant));
                }
            }
        }
        shuffle(&mut arrivals, seed);
        let wal = MemStorage::default();
        let mut router =
            TenantRouter::create_in(&wal, 1, WalConfig::default(), router_config.clone())
                .expect("create router");
        let mut admitted: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut joined: BTreeMap<u64, u64> = BTreeMap::new();
        for &(fam, tenant) in &arrivals {
            let features = feat(fam, tenant);
            let spec = mini_spec(&format!("f{fam}t{tenant}"), 7);
            match router.lookup(&features, &spec).expect("router lookup") {
                RouterLookup::Miss { campaign, enqueued } => {
                    let fams = router.cache().clusters();
                    // All tenants of a family must map to one cluster.
                    assert!(fams.len() as u64 <= 3, "family split (seed={seed})");
                    if enqueued {
                        admitted.entry(fam as u64).or_default().push(campaign);
                    } else {
                        let owners = admitted.get(&(fam as u64)).expect("join before admit");
                        assert_eq!(owners.as_slice(), &[campaign], "joined wrong campaign");
                        *joined.entry(fam as u64).or_default() += 1;
                    }
                }
                RouterLookup::Hit(_) => panic!("no backfill ran; hits impossible (seed={seed})"),
            }
        }
        for (fam, owners) in &admitted {
            assert_eq!(
                owners.len(),
                1,
                "family {fam} admitted {} campaigns (seed={seed})",
                owners.len()
            );
        }
        assert_eq!(router.registry().fleet_stats().n_campaigns, 3);
        // Canonical projection: per-family admit/join counts (campaign
        // ids are assignment-order-dependent, so they are projected out).
        let proj = format!(
            "admits={:?} joins={joined:?}",
            admitted.keys().collect::<Vec<_>>()
        );
        projections.push(proj);
    }
    projections.dedup();
    assert_eq!(
        projections.len(),
        1,
        "single-flight projection varied across seeds: {projections:?}"
    );
}

// ---------------------------------------------------------------------
// Test 4 — ungated stress: real concurrency on the read path while a
// writer backfills. Nothing here is schedule-deterministic; the checks
// are invariants: no panic, no poisoned lock, no torn value (every hit
// is a (family, cost) pair some insert actually wrote), coherent
// counters.
// ---------------------------------------------------------------------

#[test]
fn ungated_readers_never_observe_torn_values() {
    let cache = ShardedCache::new(tight_cache());
    seed_families(&cache);
    let lookups_done = AtomicU64::new(0);
    std::thread::scope(|s| {
        let cache = &cache;
        let lookups_done = &lookups_done;
        s.spawn(move || {
            for op in gen_ops(0xD00D, 400) {
                if matches!(op, Op::Insert { .. }) {
                    apply(cache, &op);
                }
            }
        });
        for r in 0..3u64 {
            s.spawn(move || {
                for i in 0..400u64 {
                    let h = splitmix(r ^ i.wrapping_mul(0x5DEECE66D));
                    let fam = (h % FAMILIES as u64) as usize;
                    let j = (h >> 8) % 5;
                    if let CacheLookup::Hit(hit) = cache.lookup(&feat(fam, j)) {
                        assert_eq!(hit.family, fam, "hit routed to wrong family");
                        // Costs encode their family: cost in
                        // [fam*1000, fam*1000 + 6) for every insert of
                        // `fam`, so a torn/mismatched value is visible.
                        let base = (fam * 1000) as f64;
                        assert!(
                            hit.cost >= base && hit.cost < base + 6.0,
                            "torn value: family {fam} served cost {}",
                            hit.cost
                        );
                    }
                    lookups_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        lookups_done.load(Ordering::Relaxed),
        "every lookup must count exactly once"
    );
}
