//! The sharded config cache.

use crate::key::{fingerprint_key, folded_bits};
use crate::{CacheError, Result};
use autotune::sync::PoisonFree;
use autotune_space::Config;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use autotune_wid::{StreamAssignment, StreamingClusters};
use serde::{Deserialize, Serialize};

/// Snapshot format version, bumped on incompatible layout changes.
const SNAPSHOT_VERSION: u32 = 1;

/// Shape and policy of a [`ShardedCache`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Streaming-cluster spawn threshold (Euclidean distance): a lookup
    /// farther than this from every family centroid is a new family.
    pub threshold: f64,
    /// Number of independent shards; families map to shards by
    /// `family % n_shards`.
    pub n_shards: usize,
    /// Soft per-shard entry capacity. Exceeding it triggers eviction;
    /// "soft" because protected entries (sole entry of a hot family) are
    /// never evicted even if the shard stays over capacity.
    pub capacity_per_shard: usize,
    /// A family counts as *hot* (its last entry is protected) if it served
    /// a hit within this many logical ticks.
    pub hot_window: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            threshold: 1.0,
            n_shards: 16,
            capacity_per_shard: 64,
            hot_window: 4096,
        }
    }
}

/// A successful cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHit {
    /// Workload family that served the hit.
    pub family: usize,
    /// Exact fingerprint key of the serving entry (its identity).
    pub key: u64,
    /// The cached configuration, sharing its map with the entry that
    /// holds it (a clone of a [`Config`] copies no value).
    pub config: Config,
    /// Cost observed when the entry was tuned (lower is better).
    pub cost: f64,
    /// True when no entry of the family holds the lookup's exact features
    /// (bit for bit, `-0.0` as `0.0`) — the family incumbent answered for
    /// a sibling tenant. This is `key != fingerprint_key(features)` except
    /// for two distinct fingerprints whose keys collide in FNV-64: those
    /// are two tenants, and the one without an entry borrows.
    pub borrowed: bool,
}

/// Outcome of [`ShardedCache::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Served from cache.
    Hit(CacheHit),
    /// No usable entry.
    Miss {
        /// `Some(family)` when the fingerprint routed to an existing
        /// family that has no entry yet (campaign in flight or evicted);
        /// `None` when it would spawn a new family.
        family: Option<usize>,
    },
}

/// Monotonic counters describing cache behavior, mirrored into
/// `MetricsSnapshot` by the serve layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries evicted by the LRU + quality policy.
    pub evictions: u64,
    /// Entries inserted by campaign backfill.
    pub backfills: u64,
    /// Workload families spawned by the streaming clustering.
    pub families: u64,
    /// Live entries across all shards.
    pub entries: u64,
    /// Current logical tick (advances once per lookup).
    pub tick: u64,
}

/// One cached entry. LRU bookkeeping is atomic so the hit path runs under
/// a shard *read* lock: concurrent readers never block each other, and a
/// writer (backfill/eviction) excludes them only for the insert itself.
#[derive(Debug)]
struct Entry {
    features: Vec<f64>,
    config: Config,
    cost: f64,
    hits: AtomicU64,
    last_used: AtomicU64,
    inserted_at: u64,
}

/// One family's row of the exact-feature index: every entry's folded
/// feature bits and key, sorted by the bits.
type ExactRow = Vec<(Box<[u64]>, u64)>;

/// Mutable interior of one shard. `entries` is keyed `(family, key)` so a
/// family's entries are contiguous under range scans; `exact` finds the
/// entry holding a lookup's features without hashing them, and
/// `incumbent` caches the lowest-cost entry per family, so a hit is a
/// binary search and two `BTreeMap` gets.
#[derive(Debug, Default)]
struct ShardInner {
    entries: BTreeMap<(u64, u64), Entry>,
    /// family → its entries' features, folded as [`fingerprint_key`]
    /// folds them, and their keys. Derived from `entries` (so never
    /// snapshotted): every entry is in it exactly once.
    exact: BTreeMap<u64, ExactRow>,
    /// family → (key, cost) of its lowest-cost entry.
    incumbent: BTreeMap<u64, (u64, f64)>,
    /// family → logical tick of its most recent hit. Atomic so the read
    /// path can refresh heat without a write lock.
    heat: BTreeMap<u64, AtomicU64>,
}

/// The order a family's incumbent is chosen by: lowest cost, then lowest
/// key. Total, so the incumbent is a function of the entries a family
/// holds and not of the order they went in.
fn incumbent_order(a: (u64, f64), b: (u64, f64)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Where `features` sit in `row`: compared bit for bit, folded on the fly,
/// so a probe builds nothing.
fn probe(row: &[(Box<[u64]>, u64)], features: &[f64]) -> std::result::Result<usize, usize> {
    row.binary_search_by(|(bits, _)| {
        bits.iter()
            .copied()
            .cmp(features.iter().map(|&f| folded_bits(f)))
    })
}

impl ShardInner {
    /// Key of the entry of `family` holding exactly `features`.
    fn exact_key(&self, family: u64, features: &[f64]) -> Option<u64> {
        let row = self.exact.get(&family)?;
        probe(row, features).ok().map(|i| row[i].1)
    }

    /// Holds `entry` under `(family, key)`. An entry it replaces leaves
    /// the index, and if that one was the incumbent the family's
    /// incumbent is chosen again: a re-inserted entry may have got worse.
    fn put(&mut self, family: u64, key: u64, entry: Entry) {
        let bits: Box<[u64]> = entry.features.iter().map(|&f| folded_bits(f)).collect();
        let cost = entry.cost;
        if let Some(old) = self.entries.insert((family, key), entry) {
            self.unindex(family, &old.features);
        }
        // Equal bits mean an equal key, so no other entry holds these.
        let row = self.exact.entry(family).or_default();
        let at = row
            .binary_search_by(|(b, _)| b.cmp(&bits))
            .unwrap_or_else(|at| at);
        row.insert(at, (bits, key));
        if self.incumbent.get(&family).map(|&(k, _)| k) == Some(key) {
            self.elect_incumbent(family);
        } else {
            self.offer_incumbent(family, key, cost);
        }
    }

    /// Drops the entry under `(family, key)`, if any, from the entries,
    /// the index and the incumbent.
    fn remove(&mut self, family: u64, key: u64) {
        let Some(old) = self.entries.remove(&(family, key)) else {
            return;
        };
        self.unindex(family, &old.features);
        if self.incumbent.get(&family).map(|&(k, _)| k) == Some(key) {
            self.elect_incumbent(family);
        }
    }

    /// The entry eviction takes next, scanning family by family in
    /// `(family, key)` order: a family's size and heat (whether it is
    /// protected) and its incumbent are read once, at its first entry.
    /// `None` when every entry is the sole entry of a family that served a
    /// hit at `hot_floor` or later.
    fn victim(&self, hot_floor: u64) -> Option<(u64, u64)> {
        // (entry, underperforms_incumbent, last_used): the first candidate
        // in scan order is replaced only by a strictly better one, so the
        // scan order settles exact ties.
        let mut victim: Option<((u64, u64), bool, u64)> = None;
        // Acquire pairs with the Release stores on the lookup hit path: a
        // heat/LRU refresh published before the evictor took the shard
        // write lock is always observed here.
        let hot = |h: &AtomicU64| h.load(Ordering::Acquire) >= hot_floor;
        let mut scan = self.entries.iter().peekable();
        while let Some(first) = scan.next() {
            let (&(f, _), _) = first;
            let sole = scan.peek().is_none_or(|(&(g, _), _)| g != f);
            if sole && self.heat.get(&f).is_some_and(hot) {
                continue;
            }
            let incumbent = self.incumbent.get(&f).map(|&(k, _)| k);
            let rest = std::iter::from_fn(|| scan.next_if(|(&(g, _), _)| g == f));
            for (&(_, key), e) in std::iter::once(first).chain(rest) {
                let underperforms = incumbent != Some(key);
                let lu = e.last_used.load(Ordering::Acquire);
                let better = match victim {
                    None => true,
                    // Underperformers strictly outrank incumbents as
                    // victims; within a class, older LRU tick wins.
                    Some((_, v_under, v_lu)) => {
                        (underperforms && !v_under) || (underperforms == v_under && lu < v_lu)
                    }
                };
                if better {
                    victim = Some(((f, key), underperforms, lu));
                }
            }
        }
        victim.map(|(entry, _, _)| entry)
    }

    fn unindex(&mut self, family: u64, features: &[f64]) {
        let Some(row) = self.exact.get_mut(&family) else {
            return;
        };
        if let Ok(i) = probe(row, features) {
            row.remove(i);
        }
        if row.is_empty() {
            self.exact.remove(&family);
        }
    }

    /// Makes `(key, cost)` the incumbent of `family` if it comes before
    /// the current one in [`incumbent_order`].
    fn offer_incumbent(&mut self, family: u64, key: u64, cost: f64) {
        match self.incumbent.get(&family) {
            Some(&best) if incumbent_order(best, (key, cost)).is_le() => {}
            _ => {
                self.incumbent.insert(family, (key, cost));
            }
        }
    }

    /// Chooses `family`'s incumbent afresh from the entries it holds.
    fn elect_incumbent(&mut self, family: u64) {
        let best = self
            .entries
            .range((family, 0)..=(family, u64::MAX))
            .map(|(&(_, k), e)| (k, e.cost))
            .min_by(|&a, &b| incumbent_order(a, b));
        match best {
            Some(best) => self.incumbent.insert(family, best),
            None => self.incumbent.remove(&family),
        };
    }
}

/// The fingerprint-keyed config cache. See the crate docs for the design;
/// all methods take `&self` and the structure is `Sync`, so one instance
/// can be shared across server threads behind an `Arc`.
#[derive(Debug)]
pub struct ShardedCache {
    config: CacheConfig,
    clusters: RwLock<StreamingClusters>,
    shards: Vec<RwLock<ShardInner>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    backfills: AtomicU64,
}

// Lock poisoning recovery went through per-crate helpers here until PR 10;
// acquisitions now use `autotune::sync::PoisonFree` (`.pread()`/`.pwrite()`),
// which is sound for the same reason the helpers were: cache state is plain
// data, and every mutation either fully inserts or fully removes an entry.

impl ShardedCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if `n_shards` or `capacity_per_shard` is zero, or the
    /// clustering threshold is not finite and positive.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.n_shards > 0, "cache needs at least one shard");
        assert!(
            config.capacity_per_shard > 0,
            "cache shards need capacity for at least one entry"
        );
        let clusters = RwLock::new(StreamingClusters::new(config.threshold));
        let shards = (0..config.n_shards)
            .map(|_| RwLock::new(ShardInner::default()))
            .collect();
        ShardedCache {
            config,
            clusters,
            shards,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            backfills: AtomicU64::new(0),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn shard_of(&self, family: u64) -> &RwLock<ShardInner> {
        &self.shards[(family as usize) % self.shards.len()]
    }

    /// Looks up a fingerprint. Advances the logical tick, routes to the
    /// nearest family within the threshold, and serves the entry holding
    /// exactly these features, else the family incumbent. Hits refresh
    /// the entry's LRU tick and the family's heat and hand out the
    /// entry's config, not a copy of it; the clustering model is *not*
    /// updated here — misses feed it via [`ShardedCache::admit_family`],
    /// keeping this path read-only.
    pub fn lookup(&self, features: &[f64]) -> CacheLookup {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let family = self.clusters.pread().classify(features).map(|(f, _)| f);
        let Some(family) = family else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss { family: None };
        };
        let f = family as u64;
        let inner = self.shard_of(f).pread();
        let exact = inner.exact_key(f, features);
        let serving = exact.or_else(|| inner.incumbent.get(&f).map(|&(k, _)| k));
        let Some(serve_key) = serving else {
            drop(inner);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss {
                family: Some(family),
            };
        };
        let Some(entry) = inner.entries.get(&(f, serve_key)) else {
            // Incumbent index pointing at a missing entry would be a bug;
            // degrade to a miss rather than panic in the serve path.
            drop(inner);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss {
                family: Some(family),
            };
        };
        entry.hits.fetch_add(1, Ordering::Relaxed);
        // LRU tick and family heat feed eviction decisions (a control
        // path), so the stores are Release, pairing with the Acquire
        // loads in `evict_over_capacity`. The shard RwLock alone would
        // already order them (eviction holds the write lock), but the
        // explicit pairing keeps the invariant independent of the lock.
        entry.last_used.store(tick, Ordering::Release);
        if let Some(heat) = inner.heat.get(&f) {
            heat.store(tick, Ordering::Release);
        }
        let hit = CacheHit {
            family,
            key: serve_key,
            config: entry.config.clone(),
            cost: entry.cost,
            borrowed: exact.is_none(),
        };
        drop(inner);
        self.hits.fetch_add(1, Ordering::Relaxed);
        CacheLookup::Hit(hit)
    }

    /// Folds a missed fingerprint into the clustering model, spawning a
    /// new family when it is past the threshold. Call exactly once per
    /// miss (the router does) so replaying the same lookup sequence
    /// rebuilds identical centroids.
    pub fn admit_family(&self, features: &[f64]) -> StreamAssignment {
        self.clusters.pwrite().assign(features)
    }

    /// Backfills a tuned config for `(family, exact fingerprint)` at the
    /// given observed cost, replacing the entry that fingerprint held,
    /// then enforces the shard capacity via the LRU + quality eviction
    /// policy.
    pub fn insert(&self, family: usize, features: &[f64], config: Config, cost: f64) {
        let f = family as u64;
        let key = fingerprint_key(features);
        let tick = self.tick.load(Ordering::Acquire);
        let entry = Entry {
            features: features.to_vec(),
            config,
            cost,
            hits: AtomicU64::new(0),
            last_used: AtomicU64::new(tick),
            inserted_at: tick,
        };
        let mut inner = self.shard_of(f).pwrite();
        inner.put(f, key, entry);
        inner.heat.entry(f).or_insert_with(|| AtomicU64::new(tick));
        self.backfills.fetch_add(1, Ordering::Relaxed);
        self.evict_over_capacity(&mut inner, tick);
    }

    /// Evicts until the shard is within capacity or only protected entries
    /// remain. Victim order: least-recently-used among entries that
    /// underperform their family incumbent, then least-recently-used
    /// overall; the sole entry of a hot family is never a candidate.
    fn evict_over_capacity(&self, inner: &mut ShardInner, tick: u64) {
        let hot_floor = tick.saturating_sub(self.config.hot_window);
        while inner.entries.len() > self.config.capacity_per_shard {
            let Some((f, key)) = inner.victim(hot_floor) else {
                // Everything left is the sole entry of a hot family:
                // accept the soft-capacity overflow.
                return;
            };
            inner.remove(f, key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.pread().entries.len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed), // lint: allow(D9) monotone counter; reporting only, no decision reads it
            misses: self.misses.load(Ordering::Relaxed), // lint: allow(D9) monotone counter; reporting only, no decision reads it
            evictions: self.evictions.load(Ordering::Relaxed), // lint: allow(D9) monotone counter; reporting only, no decision reads it
            backfills: self.backfills.load(Ordering::Relaxed), // lint: allow(D9) monotone counter; reporting only, no decision reads it
            families: self.clusters.pread().len() as u64,
            entries,
            tick: self.tick.load(Ordering::Acquire),
        }
    }

    /// The logical clock: lookups made so far.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Acquire)
    }

    /// What the hits after `tick` left behind, provided every lookup
    /// between `tick` and the last of them was a hit (the run then holds
    /// one hit per tick, so its length is the newest LRU stamp minus
    /// `tick`). Entries are in shard then key order, so equal states
    /// read out equal. A miss that followed the run is not part of it.
    pub fn hits_since(&self, tick: u64) -> HitRun {
        let mut run = HitRun::default();
        let mut newest = tick;
        for shard in &self.shards {
            let inner = shard.pread();
            for (&(family, key), e) in inner.entries.iter() {
                let last_used = e.last_used.load(Ordering::Acquire);
                if last_used > tick {
                    let hits = e.hits.load(Ordering::Acquire);
                    run.entries.push((family, key, hits, last_used));
                    newest = newest.max(last_used);
                }
            }
            for (&family, heat) in inner.heat.iter() {
                let heat = heat.load(Ordering::Acquire);
                if heat > tick {
                    run.heat.push((family, heat));
                }
            }
        }
        run.hits = newest - tick;
        run
    }

    /// Puts a cache that is where [`ShardedCache::hits_since`]'s `tick`
    /// was into the state the run left: `tick` and the hit counter move
    /// on by `run.hits` and every named stamp is stored. A run that names
    /// an entry or family this cache does not hold, takes hits away from
    /// an entry, stamps outside its own ticks, or whose entries did not
    /// gain `run.hits` hits between them is refused; the cache may be
    /// partly stamped by then and is to be discarded.
    pub fn apply_hits(&self, run: &HitRun) -> Result<()> {
        let refuse = |why: String| Err(CacheError::BadHitRun(why));
        let tick = self.tick.load(Ordering::Acquire);
        let Some(end) = tick.checked_add(run.hits) else {
            return refuse(format!("{} hits overflow tick {tick}", run.hits));
        };
        let in_run = |stamp: u64| tick < stamp && stamp <= end;
        let mut gained = 0u64;
        for &(family, key, hits, last_used) in &run.entries {
            let inner = self.shard_of(family).pread();
            let Some(entry) = inner.entries.get(&(family, key)) else {
                return refuse(format!("no entry {key:#x} in family {family}"));
            };
            let before = entry.hits.load(Ordering::Acquire);
            if hits < before || !in_run(last_used) {
                return refuse(format!(
                    "entry {key:#x} of family {family} at {hits} hits, last used at \
                     {last_used}: it holds {before} and the run is ticks {tick}..={end}"
                ));
            }
            gained = gained.saturating_add(hits - before);
            entry.hits.store(hits, Ordering::Release);
            entry.last_used.store(last_used, Ordering::Release);
        }
        for &(family, heat) in &run.heat {
            let inner = self.shard_of(family).pread();
            match inner.heat.get(&family) {
                Some(h) if in_run(heat) => h.store(heat, Ordering::Release),
                _ => return refuse(format!("no family {family} to be hot at {heat}")),
            }
        }
        if gained != run.hits {
            return refuse(format!(
                "{} hits, but its entries gained {gained}",
                run.hits
            ));
        }
        self.tick.store(end, Ordering::Release);
        self.hits.fetch_add(run.hits, Ordering::Relaxed);
        Ok(())
    }

    /// A copy of the clustering model (for inspection and tests).
    pub fn clusters(&self) -> StreamingClusters {
        self.clusters.pread().clone()
    }

    /// What a lookup finds entries by: `(family, key, features)` of every
    /// row of the exact-feature index, in shard, family and feature-bit
    /// order, `-0.0` read back as `0.0` (for inspection and tests; every
    /// entry is in it once and nothing else is).
    pub fn exact_index(&self) -> Vec<(u64, u64, Vec<f64>)> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            for (&family, row) in &shard.pread().exact {
                for (bits, key) in row {
                    rows.push((
                        family,
                        *key,
                        bits.iter().map(|&b| f64::from_bits(b)).collect(),
                    ));
                }
            }
        }
        rows
    }

    /// Total live entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.pread().entries.len()).sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializable deep copy of the full cache state (entries in shard
    /// then key order, so equal states snapshot to equal bytes).
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut entries = Vec::new();
        let mut heat = Vec::new();
        for shard in &self.shards {
            let inner = shard.pread();
            for (&(family, key), e) in inner.entries.iter() {
                entries.push(SnapshotEntry {
                    family,
                    key,
                    features: e.features.clone(),
                    config: e.config.clone(),
                    cost: e.cost,
                    hits: e.hits.load(Ordering::Relaxed), // lint: allow(D9) monotone per-entry counter; serialized for reporting, ordered by the shard lock
                    last_used: e.last_used.load(Ordering::Acquire),
                    inserted_at: e.inserted_at,
                });
            }
            for (&f, h) in inner.heat.iter() {
                heat.push((f, h.load(Ordering::Acquire)));
            }
        }
        CacheSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config.clone(),
            clusters: self.clusters.pread().clone(),
            tick: self.tick.load(Ordering::Acquire),
            hits: self.hits.load(Ordering::Relaxed), // lint: allow(D9) monotone counter; snapshot equality rests on quiescence (no concurrent ops), not counter ordering
            misses: self.misses.load(Ordering::Relaxed), // lint: allow(D9) monotone counter; snapshot equality rests on quiescence (no concurrent ops), not counter ordering
            evictions: self.evictions.load(Ordering::Relaxed), // lint: allow(D9) monotone counter; snapshot equality rests on quiescence (no concurrent ops), not counter ordering
            backfills: self.backfills.load(Ordering::Relaxed), // lint: allow(D9) monotone counter; snapshot equality rests on quiescence (no concurrent ops), not counter ordering
            entries,
            heat,
        }
    }

    /// Rebuilds a cache from a snapshot, byte-identical to the original
    /// (same counters, ticks, incumbents, and clustering state; the
    /// exact-feature index is rebuilt from the entries).
    pub fn restore(snap: &CacheSnapshot) -> Result<Self> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(CacheError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                got: snap.version,
            });
        }
        let cache = ShardedCache::new(snap.config.clone());
        *cache.clusters.pwrite() = snap.clusters.clone();
        cache.tick.store(snap.tick, Ordering::Release);
        cache.hits.store(snap.hits, Ordering::Relaxed); // lint: allow(D9) restore runs before the cache is shared; publication happens-before comes from handing out the Arc
        cache.misses.store(snap.misses, Ordering::Relaxed); // lint: allow(D9) restore runs before the cache is shared; publication happens-before comes from handing out the Arc
        cache.evictions.store(snap.evictions, Ordering::Relaxed); // lint: allow(D9) restore runs before the cache is shared; publication happens-before comes from handing out the Arc
        cache.backfills.store(snap.backfills, Ordering::Relaxed); // lint: allow(D9) restore runs before the cache is shared; publication happens-before comes from handing out the Arc
        for e in &snap.entries {
            cache.shard_of(e.family).pwrite().put(
                e.family,
                e.key,
                Entry {
                    features: e.features.clone(),
                    config: e.config.clone(),
                    cost: e.cost,
                    hits: AtomicU64::new(e.hits),
                    last_used: AtomicU64::new(e.last_used),
                    inserted_at: e.inserted_at,
                },
            );
        }
        for &(f, h) in &snap.heat {
            cache.shard_of(f).pwrite().heat.insert(f, AtomicU64::new(h));
        }
        Ok(cache)
    }
}

/// The soft state a run of hits leaves behind: how many there were and,
/// for every entry and family they touched, the absolute counters the
/// cache keeps for it. Read out by [`ShardedCache::hits_since`] and put
/// back by [`ShardedCache::apply_hits`], so a journal can hold one of
/// these in place of the hits themselves.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HitRun {
    /// Hits in the run; each took one tick.
    pub hits: u64,
    /// `(family, key, hits, last_used)` of every entry that served one.
    pub entries: Vec<(u64, u64, u64, u64)>,
    /// `(family, heat)` of every family one was served from.
    pub heat: Vec<(u64, u64)>,
}

/// One entry of a [`CacheSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// Workload family id.
    pub family: u64,
    /// Exact fingerprint key.
    pub key: u64,
    /// Feature vector the entry was keyed from.
    pub features: Vec<f64>,
    /// Cached configuration.
    pub config: Config,
    /// Tuned cost.
    pub cost: f64,
    /// Hit count.
    pub hits: u64,
    /// LRU tick of the last hit (or insert).
    pub last_used: u64,
    /// Tick at insert time.
    pub inserted_at: u64,
}

/// Full serializable cache state; see [`ShardedCache::snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Format version.
    pub version: u32,
    /// Cache shape and policy.
    pub config: CacheConfig,
    /// Streaming clustering model.
    pub clusters: StreamingClusters,
    /// Logical clock.
    pub tick: u64,
    /// Hit counter.
    pub hits: u64,
    /// Miss counter.
    pub misses: u64,
    /// Eviction counter.
    pub evictions: u64,
    /// Backfill counter.
    pub backfills: u64,
    /// All live entries, shard then key order.
    pub entries: Vec<SnapshotEntry>,
    /// Per-family heat ticks.
    pub heat: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cfg(threshold: f64, capacity: usize) -> CacheConfig {
        CacheConfig {
            threshold,
            n_shards: 4,
            capacity_per_shard: capacity,
            hot_window: 100,
        }
    }

    fn config_with(v: i64) -> Config {
        Config::new().with("knob", v)
    }

    #[test]
    fn miss_then_backfill_then_hit() {
        let cache = ShardedCache::new(cfg(1.0, 8));
        let fp = [5.0, 5.0];
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss { family: None });
        let a = cache.admit_family(&fp);
        assert!(a.spawned);
        cache.insert(a.family, &fp, config_with(1), 10.0);
        match cache.lookup(&fp) {
            CacheLookup::Hit(h) => {
                assert_eq!(h.family, a.family);
                assert!(!h.borrowed);
                assert_eq!(h.config, config_with(1));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.backfills), (1, 1, 1));
    }

    #[test]
    fn sibling_tenant_borrows_incumbent() {
        let cache = ShardedCache::new(cfg(1.0, 8));
        let a = [0.0, 0.0];
        let b = [0.2, 0.0]; // same family, different exact key
        cache.lookup(&a);
        let fam = cache.admit_family(&a).family;
        cache.insert(fam, &a, config_with(1), 10.0);
        match cache.lookup(&b) {
            CacheLookup::Hit(h) => {
                assert!(h.borrowed);
                assert_eq!(h.config, config_with(1));
            }
            other => panic!("expected borrowed hit, got {other:?}"),
        }
    }

    #[test]
    fn incumbent_is_lowest_cost() {
        let cache = ShardedCache::new(cfg(2.0, 8));
        let a = [0.0];
        let b = [0.5];
        cache.lookup(&a);
        let fam = cache.admit_family(&a).family;
        cache.insert(fam, &a, config_with(1), 10.0);
        cache.insert(fam, &b, config_with(2), 5.0);
        // A third tenant in the family gets the cost-5 incumbent.
        match cache.lookup(&[0.2]) {
            CacheLookup::Hit(h) => assert_eq!(h.config, config_with(2)),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn eviction_prefers_underperformers_lru_first() {
        let cache = ShardedCache::new(CacheConfig {
            threshold: 0.4,
            n_shards: 1,
            capacity_per_shard: 2,
            hot_window: 1000,
        });
        // Two families, far apart; family 0 has the incumbent + a worse entry.
        let f0a = [0.0];
        let f0b = [0.1];
        let f1 = [10.0];
        cache.lookup(&f0a);
        let fam0 = cache.admit_family(&f0a).family;
        cache.lookup(&f1);
        let fam1 = cache.admit_family(&f1).family;
        cache.insert(fam0, &f0a, config_with(1), 5.0); // incumbent
        cache.insert(fam0, &f0b, config_with(2), 9.0); // underperformer
        cache.insert(fam1, &f1, config_with(3), 7.0); // third entry: over capacity
        assert_eq!(cache.stats().evictions, 1);
        // The underperformer died; incumbent and family-1 entry live.
        assert!(matches!(cache.lookup(&f0a), CacheLookup::Hit(_)));
        assert!(matches!(cache.lookup(&f1), CacheLookup::Hit(_)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sole_entry_of_hot_family_survives() {
        let cache = ShardedCache::new(CacheConfig {
            threshold: 0.4,
            n_shards: 1,
            capacity_per_shard: 1,
            hot_window: 1000,
        });
        let f0 = [0.0];
        let f1 = [10.0];
        cache.lookup(&f0);
        let fam0 = cache.admit_family(&f0).family;
        cache.insert(fam0, &f0, config_with(1), 5.0);
        assert!(matches!(cache.lookup(&f0), CacheLookup::Hit(_))); // keeps family 0 hot
        cache.lookup(&f1);
        let fam1 = cache.admit_family(&f1).family;
        cache.insert(fam1, &f1, config_with(2), 7.0);
        // Both families are sole + hot: soft overflow, no eviction.
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(&f0), CacheLookup::Hit(_)));
        assert!(matches!(cache.lookup(&f1), CacheLookup::Hit(_)));
    }

    #[test]
    fn cold_sole_entry_is_evictable() {
        let cache = ShardedCache::new(CacheConfig {
            threshold: 0.4,
            n_shards: 1,
            capacity_per_shard: 1,
            hot_window: 2,
        });
        let f0 = [0.0];
        let f1 = [10.0];
        cache.lookup(&f0);
        let fam0 = cache.admit_family(&f0).family;
        cache.insert(fam0, &f0, config_with(1), 5.0);
        // Let family 0 go cold: many ticks with no hit on it.
        for _ in 0..10 {
            cache.lookup(&[20.0]);
        }
        cache.lookup(&f1);
        let fam1 = cache.admit_family(&f1).family;
        cache.insert(fam1, &f1, config_with(2), 7.0);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.lookup(&f1), CacheLookup::Hit(_)));
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let cache = ShardedCache::new(cfg(1.0, 4));
        for i in 0..6 {
            let fp = [i as f64 * 5.0];
            cache.lookup(&fp);
            let fam = cache.admit_family(&fp).family;
            cache.insert(fam, &fp, config_with(i), 10.0 - i as f64);
            cache.lookup(&fp);
        }
        let snap = cache.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: CacheSnapshot = serde_json::from_str(&json).unwrap();
        let restored = ShardedCache::restore(&back).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(
            serde_json::to_string(&restored.snapshot()).unwrap(),
            json,
            "snapshot bytes must round-trip"
        );
        // Behavior equivalence: same lookups give same answers.
        for i in 0..6 {
            let fp = [i as f64 * 5.0];
            assert_eq!(cache.lookup(&fp), restored.lookup(&fp));
        }
    }

    #[test]
    fn a_cost_tie_keeps_its_incumbent_across_restore_and_eviction() {
        let cache = ShardedCache::new(CacheConfig {
            threshold: 2.0,
            n_shards: 1,
            capacity_per_shard: 2,
            hot_window: 100,
        });
        // Two tenants of one family at the same cost; the higher key goes
        // in first, so insertion order and key order disagree.
        let (mut first, mut second) = ([0.0], [0.5]);
        if fingerprint_key(&first) < fingerprint_key(&second) {
            std::mem::swap(&mut first, &mut second);
        }
        cache.lookup(&first);
        let fam = cache.admit_family(&first).family;
        cache.insert(fam, &first, config_with(1), 5.0);
        cache.insert(fam, &second, config_with(2), 5.0);
        let restored = ShardedCache::restore(&cache.snapshot()).unwrap();
        let sibling = [0.2];
        let served = cache.lookup(&sibling);
        assert_eq!(restored.lookup(&sibling), served);
        match served {
            CacheLookup::Hit(h) => assert_eq!(h.key, fingerprint_key(&second)),
            other => panic!("expected a borrowed hit, got {other:?}"),
        }
        // Over capacity, the tie's loser is the underperformer that goes,
        // in the cache and in its restored copy.
        for c in [&cache, &restored] {
            c.insert(fam, &[0.9], config_with(3), 7.0);
            assert_eq!(c.stats().evictions, 1);
        }
        assert_eq!(cache.snapshot(), restored.snapshot());
        assert!(matches!(cache.lookup(&second), CacheLookup::Hit(h) if !h.borrowed));
    }

    #[test]
    fn a_reinserted_incumbent_that_got_worse_is_replaced() {
        let cache = ShardedCache::new(cfg(10.0, 8));
        let (a, b, sibling) = ([0.0], [1.0], [0.5]);
        cache.lookup(&a);
        let fam = cache.admit_family(&a).family;
        cache.insert(fam, &a, config_with(1), 1.0);
        cache.insert(fam, &b, config_with(2), 2.0);
        // `a` is tuned again and comes out worse than `b`.
        cache.insert(fam, &a, config_with(3), 3.0);
        let restored = ShardedCache::restore(&cache.snapshot()).unwrap();
        let served = cache.lookup(&sibling);
        assert_eq!(restored.lookup(&sibling), served);
        match served {
            CacheLookup::Hit(h) => assert_eq!((h.key, h.cost), (fingerprint_key(&b), 2.0)),
            other => panic!("expected a borrowed hit, got {other:?}"),
        }
        assert_eq!(cache.snapshot(), restored.snapshot());
    }

    #[test]
    fn an_entry_is_found_by_its_features_and_leaves_the_index_with_them() {
        let cache = ShardedCache::new(CacheConfig {
            threshold: 2.0,
            n_shards: 1,
            capacity_per_shard: 2,
            hot_window: 100,
        });
        let (a, b) = ([0.0, 1.0], [0.5, 1.0]);
        cache.lookup(&a);
        let fam = cache.admit_family(&a).family;
        cache.insert(fam, &a, config_with(1), 5.0);
        cache.insert(fam, &b, config_with(2), 1.0);
        // `-0.0` is the tenant `0.0` is: found exactly, not borrowed.
        match cache.lookup(&[-0.0, 1.0]) {
            CacheLookup::Hit(h) => {
                assert!(!h.borrowed);
                assert_eq!(h.key, fingerprint_key(&a));
                assert_eq!(h.config, config_with(1));
            }
            other => panic!("expected an exact hit, got {other:?}"),
        }
        // An overwrite leaves one row; an eviction takes its row along.
        cache.insert(fam, &[-0.0, 1.0], config_with(3), 4.0);
        let rows = |c: &ShardedCache| -> Vec<u64> { c.exact_index().iter().map(|r| r.1).collect() };
        assert_eq!(rows(&cache).len(), 2);
        cache.insert(fam, &[1.0, 1.0], config_with(4), 9.0);
        assert_eq!(cache.stats().evictions, 1);
        let mut keys: Vec<u64> = cache.snapshot().entries.iter().map(|e| e.key).collect();
        let mut indexed = rows(&cache);
        keys.sort_unstable();
        indexed.sort_unstable();
        assert_eq!(indexed, keys);
        assert_eq!(
            ShardedCache::restore(&cache.snapshot())
                .unwrap()
                .exact_index(),
            cache.exact_index()
        );
    }

    /// Three families with an entry each (one with two), looked up once.
    fn warmed() -> ShardedCache {
        let cache = ShardedCache::new(cfg(1.0, 4));
        for i in 0..3 {
            let fp = [i as f64 * 5.0];
            cache.lookup(&fp);
            let fam = cache.admit_family(&fp).family;
            cache.insert(fam, &fp, config_with(i), 10.0 - i as f64);
        }
        cache.insert(0, &[0.3], config_with(9), 20.0);
        cache
    }

    #[test]
    fn a_run_of_hits_applies_back_to_the_same_bytes() {
        let live = warmed();
        let before = ShardedCache::restore(&live.snapshot()).unwrap();
        let since = live.tick();
        assert_eq!(live.hits_since(since), HitRun::default());
        // Exact, borrowed and repeated hits; family 2 is left alone.
        for fp in [[0.0], [0.3], [5.0], [0.1], [0.0]] {
            assert!(matches!(live.lookup(&fp), CacheLookup::Hit(_)));
        }
        let run = live.hits_since(since);
        assert_eq!((run.hits, run.entries.len(), run.heat.len()), (5, 3, 2));
        before.apply_hits(&run).unwrap();
        assert_eq!(before.snapshot(), live.snapshot());
        // A miss after the run's last hit is not part of it.
        live.lookup(&[40.0]);
        assert_eq!(live.hits_since(since), run);
        assert_eq!(live.hits_since(live.tick()), HitRun::default());
    }

    #[test]
    fn a_run_that_does_not_continue_the_cache_is_refused() {
        let live = warmed();
        let since = live.tick();
        live.lookup(&[0.0]);
        live.lookup(&[5.0]);
        let run = live.hits_since(since);
        let lies: [fn(&mut HitRun); 6] = [
            |r| r.entries[0].1 ^= 1,  // an entry nobody inserted
            |r| r.heat[0].0 = 77,     // a family nobody spawned
            |r| r.hits += 1,          // more hits than the entries gained
            |r| r.entries[0].2 += 1,  // more gained than there were hits
            |r| r.entries[1].2 = 0,   // hits taken away
            |r| r.entries[1].3 += 40, // a stamp past the run's last tick
        ];
        for (i, lie) in lies.iter().enumerate() {
            let mut run = run.clone();
            lie(&mut run);
            let cache = warmed();
            let refused = cache.apply_hits(&run);
            assert!(
                matches!(refused, Err(CacheError::BadHitRun(_))),
                "lie {i}: {refused:?}"
            );
            assert_eq!(cache.tick(), since, "lie {i} moved the clock");
        }
        warmed().apply_hits(&run).unwrap();
    }

    #[test]
    fn restore_rejects_future_versions() {
        let cache = ShardedCache::new(cfg(1.0, 4));
        let mut snap = cache.snapshot();
        snap.version = 99;
        assert!(matches!(
            ShardedCache::restore(&snap),
            Err(CacheError::VersionMismatch { got: 99, .. })
        ));
    }

    /// The victim as eviction chose it before it scanned family by
    /// family: a map of family sizes built for every victim, then each
    /// entry in `(family, key)` order with its family's protection and
    /// incumbent looked up again. Also returns how many entries it passed
    /// over as protected.
    fn victim_by_entry_scan(inner: &ShardInner, hot_floor: u64) -> (Option<(u64, u64)>, usize) {
        let mut family_sizes: BTreeMap<u64, usize> = BTreeMap::new();
        for &(f, _) in inner.entries.keys() {
            *family_sizes.entry(f).or_insert(0) += 1;
        }
        let protected = |f: u64| -> bool {
            family_sizes.get(&f).copied().unwrap_or(0) <= 1
                && inner
                    .heat
                    .get(&f)
                    .map(|h| h.load(Ordering::Acquire) >= hot_floor)
                    .unwrap_or(false)
        };
        let mut victim: Option<((u64, u64), bool, u64)> = None;
        let mut passed = 0;
        for (&k, e) in inner.entries.iter() {
            let (f, key) = k;
            if protected(f) {
                passed += 1;
                continue;
            }
            let is_incumbent = inner.incumbent.get(&f).map(|&(ik, _)| ik) == Some(key);
            let underperforms = !is_incumbent;
            let lu = e.last_used.load(Ordering::Acquire);
            let better = match victim {
                None => true,
                Some((_, v_under, v_lu)) => {
                    (underperforms && !v_under) || (underperforms == v_under && lu < v_lu)
                }
            };
            if better {
                victim = Some((k, underperforms, lu));
            }
        }
        (victim.map(|(k, _, _)| k), passed)
    }

    /// Every `(family, key)` the cache holds.
    fn held(cache: &ShardedCache) -> BTreeSet<(u64, u64)> {
        let keys = |s: &RwLock<ShardInner>| s.pread().entries.keys().copied().collect::<Vec<_>>();
        cache.shards.iter().flat_map(keys).collect()
    }

    #[test]
    fn eviction_takes_the_victim_the_per_entry_scan_takes() {
        // Two caches fed the same seeded churn of lookups, backfills and
        // overwrites: `live` evicts as `insert` does; `reference` has no
        // capacity of its own and after each insert is brought down to
        // `live`'s by the per-entry scan.
        let config = CacheConfig {
            threshold: 1.0,
            n_shards: 4,
            capacity_per_shard: 6,
            hot_window: 150,
        };
        let capacity = config.capacity_per_shard;
        let live = ShardedCache::new(config.clone());
        let reference = ShardedCache::new(CacheConfig {
            capacity_per_shard: usize::MAX,
            ..config
        });
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let (mut evictions, mut passed_over) = (0, 0);
        for step in 0..6000 {
            // 40 families 10 apart, skewed towards the low ones; 8 tenants each.
            let family = next(40) * next(40) / 39;
            let features = [family as f64 * 10.0, next(8) as f64 * 0.1];
            let looked_up = live.lookup(&features);
            assert_eq!(looked_up, reference.lookup(&features), "step {step}");
            // A miss backfills the tenant and two siblings in the same tick,
            // so two underperformers tie on LRU; a borrowed hit backfills
            // the tenant's own entry, and now and then an exact one is
            // tuned again.
            let sibling = |d: f64| [features[0], features[1] + d];
            let (family, backfills) = match looked_up {
                CacheLookup::Miss { .. } => {
                    let admitted = live.admit_family(&features);
                    assert_eq!(admitted, reference.admit_family(&features));
                    (
                        admitted.family,
                        vec![features, sibling(0.03), sibling(0.06)],
                    )
                }
                CacheLookup::Hit(h) if h.borrowed || next(8) == 0 => (h.family, vec![features]),
                CacheLookup::Hit(_) => continue,
            };
            for features in backfills {
                let cost = next(1000) as f64 / 10.0;
                let before = held(&live);
                live.insert(family, &features, config_with(step), cost);
                reference.insert(family, &features, config_with(step), cost);
                let tick = reference.tick();
                let hot_floor = tick.saturating_sub(reference.config.hot_window);
                let mut inner = reference.shard_of(family as u64).pwrite();
                let mut taken = BTreeSet::new();
                while inner.entries.len() > capacity {
                    let (victim, passed) = victim_by_entry_scan(&inner, hot_floor);
                    passed_over += passed;
                    let Some((f, key)) = victim else { break };
                    inner.remove(f, key);
                    reference.evictions.fetch_add(1, Ordering::Relaxed);
                    taken.insert((f, key));
                }
                drop(inner);
                let mut now = before;
                now.insert((family as u64, fingerprint_key(&features)));
                let after = held(&live);
                let evicted: BTreeSet<_> = now.difference(&after).copied().collect();
                assert_eq!(evicted, taken, "step {step}: a different victim");
                assert_eq!(after, held(&reference), "step {step}");
                evictions += taken.len();
            }
        }
        assert!(evictions > 500, "only {evictions} evictions");
        assert!(passed_over > 0, "no eviction passed over a protected entry");
        let mut want = reference.snapshot();
        want.config = live.config().clone();
        assert_eq!(
            serde_json::to_string(&live.snapshot()).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
    }
}
