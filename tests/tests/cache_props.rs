//! Property tests for the fingerprint-keyed config cache and its
//! durable router (ISSUE 8 acceptance):
//!
//! 1. The eviction policy never removes the sole entry of a family with
//!    live traffic, under arbitrary insert/lookup interleavings on an
//!    over-committed cache.
//! 2. Concurrent lookups racing a backfill writer never observe a torn
//!    entry: every hit's `(config, cost)` pair is one the writer
//!    actually inserted.
//! 3. Killing a `TenantRouter` mid-stream and reopening from the WAL
//!    reproduces the exact hit/miss sequence (and final cache state) of
//!    an uninterrupted run, for arbitrary crash points and streams.
//! 4. The exact-feature index a lookup finds entries by holds every
//!    entry once and nothing else, through inserts, overwrites, evictions
//!    and a restore, and a restored cache serves what the live one does.

use autotune_cache::{fingerprint_key, CacheConfig, CacheLookup, ShardedCache};
use autotune_serve::{
    CampaignSpec, MemStorage, RouterConfig, RouterLookup, SystemKind, TenantRouter, WalConfig,
};
use autotune_space::Config;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Family anchors far apart relative to the clustering threshold, so the
/// family an op names is the family the cache routes it to.
fn anchor(family: usize) -> Vec<f64> {
    vec![100.0 * family as f64, 0.0]
}

/// A distinct fingerprint near `family`'s anchor (distinct cache key,
/// same family under a threshold of 5).
fn member(family: usize, i: usize) -> Vec<f64> {
    vec![100.0 * family as f64 + (i % 7) as f64 * 0.25, 0.1]
}

#[derive(Debug, Clone)]
enum Op {
    /// Backfill one entry for the family (admitting it on first touch).
    Insert { family: usize, variant: usize },
    /// Serve the family's anchor fingerprint, keeping the family hot.
    Lookup { family: usize },
}

fn op_strategy(n_families: usize) -> impl Strategy<Value = Op> {
    (0..2usize, 0..n_families, 0..16usize).prop_map(|(kind, family, variant)| {
        if kind == 0 {
            Op::Insert { family, variant }
        } else {
            Op::Lookup { family }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: whatever the interleaving, a family that both (a) had
    /// at least one cached entry and (b) served or received traffic
    /// within the hot window keeps at least one entry across any
    /// eviction the next insert triggers. The cache is deliberately
    /// over-committed (capacity 3, up to 6 families) so evictions fire
    /// constantly.
    #[test]
    fn eviction_never_orphans_a_hot_family(
        ops in proptest::collection::vec(op_strategy(6), 1..200),
        hot_window in 8u64..200,
    ) {
        let cache = ShardedCache::new(CacheConfig {
            threshold: 5.0,
            n_shards: 1,
            capacity_per_shard: 3,
            hot_window,
        });
        for op in &ops {
            // Pre-op view: which families hold entries, and how warm.
            let before = cache.snapshot();
            let mut had_entries: Vec<u64> = before.entries.iter().map(|e| e.family).collect();
            had_entries.dedup();
            match *op {
                Op::Insert { family, variant } => {
                    let features = member(family, variant);
                    // Route through the public miss path so the
                    // clustering model owns family identity.
                    let fam = match cache.lookup(&features) {
                        CacheLookup::Hit(h) => h.family,
                        CacheLookup::Miss { family: Some(f) } => f,
                        CacheLookup::Miss { family: None } => cache.admit_family(&features).family,
                    };
                    let cost = 10.0 + variant as f64;
                    cache.insert(fam, &features, Config::new().with("v", variant as i64), cost);
                }
                Op::Lookup { family } => {
                    let _ = cache.lookup(&anchor(family));
                }
            }
            let after = cache.snapshot();
            let heat: std::collections::BTreeMap<u64, u64> = before.heat.iter().copied().collect();
            for f in had_entries {
                let was_hot = heat
                    .get(&f)
                    .is_some_and(|&h| h >= after.tick.saturating_sub(hot_window));
                if was_hot {
                    prop_assert!(
                        after.entries.iter().any(|e| e.family == f),
                        "hot family {f} lost its last entry (op {op:?}, tick {})",
                        after.tick
                    );
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum IndexOp {
    /// Backfill (or overwrite) one tenant's entry at `cost`.
    Insert {
        family: usize,
        tenant: usize,
        negative_zero: bool,
        cost: u8,
    },
    /// Look one tenant up.
    Lookup {
        family: usize,
        tenant: usize,
        negative_zero: bool,
    },
}

/// A tenant of `family`: few enough per family that inserts overwrite,
/// and written with either zero, which are one tenant.
fn tenant(family: usize, tenant: usize, negative_zero: bool) -> Vec<f64> {
    let zero = if negative_zero { -0.0 } else { 0.0 };
    vec![100.0 * family as f64 + tenant as f64 * 0.5, zero]
}

fn index_op_strategy() -> impl Strategy<Value = IndexOp> {
    // `written` is the tenant and which zero it is written with.
    (0..2u8, 0..3usize, 0..10usize, 0..6u8).prop_map(|(kind, family, written, cost)| {
        let (tenant, negative_zero) = (written / 2, written % 2 == 1);
        if kind == 0 {
            IndexOp::Insert {
                family,
                tenant,
                negative_zero,
                cost,
            }
        } else {
            IndexOp::Lookup {
                family,
                tenant,
                negative_zero,
            }
        }
    })
}

/// The exact-feature index holds every entry once and nothing else.
fn index_is_exact(cache: &ShardedCache) -> Result<(), TestCaseError> {
    let bits = |family: u64, key: u64, features: &[f64]| {
        let folded: Vec<u64> = features
            .iter()
            .map(|&f| if f == 0.0 { 0 } else { f.to_bits() })
            .collect();
        (family, key, folded)
    };
    let mut entries: Vec<_> = cache
        .snapshot()
        .entries
        .iter()
        .map(|e| bits(e.family, e.key, &e.features))
        .collect();
    let mut indexed: Vec<_> = cache
        .exact_index()
        .iter()
        .map(|(family, key, features)| bits(*family, *key, features))
        .collect();
    entries.sort();
    indexed.sort();
    prop_assert_eq!(indexed, entries);
    Ok(())
}

/// What a lookup served: `(family, key, cost bits, borrowed)`, or the
/// miss. Checks `borrowed` against the key on the way.
fn served(cache: &ShardedCache, features: &[f64]) -> Result<String, TestCaseError> {
    Ok(match cache.lookup(features) {
        CacheLookup::Hit(h) => {
            prop_assert_eq!(h.borrowed, h.key != fingerprint_key(features));
            format!(
                "{}:{:x}:{:x}:{}",
                h.family,
                h.key,
                h.cost.to_bits(),
                h.borrowed
            )
        }
        CacheLookup::Miss { family } => format!("miss:{family:?}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 4: under any interleaving of inserts, overwrites,
    /// lookups and the evictions they trigger, and after a snapshot and
    /// restore, every entry's features are in the exact-feature index
    /// once and nothing else is, a hit is `borrowed` exactly when it
    /// served another key than the lookup's, and the restored cache
    /// serves what the live one does to every tenant.
    #[test]
    fn the_exact_index_follows_every_entry(
        ops in proptest::collection::vec(index_op_strategy(), 1..160),
        capacity in 1usize..5,
        hot_window in 1u64..40,
    ) {
        let cache = ShardedCache::new(CacheConfig {
            threshold: 5.0,
            n_shards: 2,
            capacity_per_shard: capacity,
            hot_window,
        });
        for op in &ops {
            match *op {
                IndexOp::Insert { family, tenant: t, negative_zero, cost } => {
                    let features = tenant(family, t, negative_zero);
                    let fam = match cache.lookup(&features) {
                        CacheLookup::Hit(h) => h.family,
                        CacheLookup::Miss { family: Some(f) } => f,
                        CacheLookup::Miss { family: None } => cache.admit_family(&features).family,
                    };
                    let config = Config::new().with("v", i64::from(cost));
                    cache.insert(fam, &features, config, f64::from(cost));
                }
                IndexOp::Lookup { family, tenant: t, negative_zero } => {
                    served(&cache, &tenant(family, t, negative_zero))?;
                }
            }
            index_is_exact(&cache)?;
        }
        let restored = ShardedCache::restore(&cache.snapshot()).expect("restore");
        index_is_exact(&restored)?;
        prop_assert_eq!(restored.exact_index(), cache.exact_index());
        for family in 0..3 {
            for t in 0..5 {
                for negative_zero in [false, true] {
                    let features = tenant(family, t, negative_zero);
                    prop_assert_eq!(served(&cache, &features)?, served(&restored, &features)?);
                }
            }
        }
        prop_assert_eq!(cache.snapshot(), restored.snapshot());
    }
}

/// Property 2: readers hammering the shared cache while a writer
/// backfills never see a torn entry. The writer inserts entries whose
/// cost is a function of the config (`cost = 5000 - v`), so any hit
/// pairing one insert's config with another's cost is detectable.
#[test]
fn concurrent_lookups_never_observe_torn_entries() {
    const WRITES: usize = 2_000;
    const READERS: usize = 3;
    let cache = Arc::new(ShardedCache::new(CacheConfig {
        threshold: 5.0,
        n_shards: 2,
        capacity_per_shard: 8,
        hot_window: 1 << 40,
    }));
    // Establish the family before the race so readers always route.
    let fam = cache.admit_family(&anchor(0)).family;
    cache.insert(fam, &anchor(0), Config::new().with("v", 5000i64), 0.0);

    let stop = Arc::new(AtomicU64::new(0));
    // The writer starts only once every reader has checked one hit: on
    // a loaded two-core host it could otherwise finish all its inserts
    // before a reader is first scheduled, and nothing would have raced.
    let racing = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let racing = Arc::clone(&racing);
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    match cache.lookup(&anchor(0)) {
                        CacheLookup::Hit(hit) => {
                            let v = hit.config.get_i64("v").expect("config missing knob");
                            let want = (5000 - v) as f64;
                            assert!(
                                hit.cost.to_bits() == want.to_bits(),
                                "torn entry: knob {v} paired with cost {}",
                                hit.cost
                            );
                            checked += 1;
                            if checked == 1 {
                                racing.wait();
                            }
                        }
                        CacheLookup::Miss { .. } => panic!("family vanished mid-race"),
                    }
                }
                checked
            })
        })
        .collect();
    // Writer: successively better incumbents (cost 5000-v falls as v
    // rises), each under a distinct key, racing the readers above.
    racing.wait();
    for i in 1..=WRITES {
        let v = i as i64;
        cache.insert(
            fam,
            &member(0, i),
            Config::new().with("v", v),
            (5000 - v) as f64,
        );
    }
    stop.store(1, Ordering::Relaxed);
    let mut total = 0;
    for r in readers {
        total += r.join().expect("reader panicked");
    }
    assert!(total > 0, "readers never observed a hit");
}

/// One lookup outcome, flattened for sequence comparison.
fn outcome_sig(out: &RouterLookup) -> String {
    match out {
        RouterLookup::Hit(h) => format!(
            "H:{}:{}:{:x}:{}",
            h.family,
            h.key,
            h.cost.to_bits(),
            h.borrowed
        ),
        RouterLookup::Miss { campaign, enqueued } => format!("M:{campaign}:{enqueued}"),
    }
}

fn stream_spec(family: usize) -> CampaignSpec {
    CampaignSpec::minimal(
        format!("fam-{family}"),
        SystemKind::Redis,
        6,
        9_000 + family as u64,
    )
}

fn stream_router_config() -> RouterConfig {
    RouterConfig {
        cache: CacheConfig {
            threshold: 5.0,
            n_shards: 2,
            capacity_per_shard: 8,
            hot_window: 4096,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 3: for an arbitrary request stream and an arbitrary
    /// crash point, [crash + reopen-from-WAL + continue] produces the
    /// same hit/miss sequence — and the same final cache state — as the
    /// uninterrupted run. One scheduling round advances per request in
    /// both runs, so in-flight campaigns straddle the crash.
    #[test]
    fn crash_and_resume_reproduces_hit_miss_sequence(
        stream in proptest::collection::vec((0..3usize, 0..5usize), 12..48),
        split_frac in 0.1f64..0.9,
    ) {
        let split = ((stream.len() as f64) * split_frac) as usize;

        // Uninterrupted run.
        let mut router_a = TenantRouter::create_in(
            &MemStorage::default(),
            2,
            WalConfig::default(),
            stream_router_config(),
        )
                .expect("create A");
        let mut seq_a = Vec::new();
        for &(family, variant) in &stream {
            let out = router_a
                .lookup(&member(family, variant), &stream_spec(family))
                .expect("lookup A");
            seq_a.push(outcome_sig(&out));
            router_a.step_round().expect("round A");
        }
        let snap_a = router_a.cache().snapshot();
        drop(router_a);

        // Same stream, crashed after `split` requests and reopened.
        let wal_b = MemStorage::default();
        let mut router_b =
            TenantRouter::create_in(&wal_b, 2, WalConfig::default(), stream_router_config())
                .expect("create B");
        let mut seq_b = Vec::new();
        for &(family, variant) in &stream[..split] {
            let out = router_b
                .lookup(&member(family, variant), &stream_spec(family))
                .expect("lookup B pre-crash");
            seq_b.push(outcome_sig(&out));
            router_b.step_round().expect("round B pre-crash");
        }
        drop(router_b); // crash
        let (mut router_b, _report) =
            TenantRouter::open_in(&wal_b, 2, WalConfig::default()).expect("reopen B");
        for &(family, variant) in &stream[split..] {
            let out = router_b
                .lookup(&member(family, variant), &stream_spec(family))
                .expect("lookup B post-crash");
            seq_b.push(outcome_sig(&out));
            router_b.step_round().expect("round B post-crash");
        }
        let snap_b = router_b.cache().snapshot();
        drop(router_b);

        prop_assert_eq!(seq_a, seq_b);
        prop_assert_eq!(snap_a, snap_b);
    }
}
