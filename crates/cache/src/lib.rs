//! Workload-fingerprint-keyed config cache (ROADMAP item 1).
//!
//! The paper's production premise is that tuning amortizes: most incoming
//! workloads have been seen before, so request-time answers should come
//! from a cache, not a fresh campaign. This crate is that cache:
//!
//! * incoming fingerprints are routed to a **workload family** by
//!   [`autotune_wid::StreamingClusters`] — online nearest-centroid
//!   assignment that spawns a new family past a distance threshold;
//! * each family holds tuned configurations, one per tenant, named by an
//!   exact [`fingerprint_key`] (the entry's identity in snapshots and
//!   journals); a lookup finds its tenant's entry by the feature bits
//!   themselves, without hashing, and the family's **incumbent** (lowest
//!   observed cost) answers any member that has none;
//! * the read path is **sharded** ([`ShardedCache`]): families map to
//!   shards, lookups take only read locks and bump atomic LRU ticks, and
//!   a hit hands out a clone of the entry's `Config`, whose map the two
//!   share copy-on-write, so it allocates nothing. On a 2-vCPU Xeon VM
//!   one thread serves 5-8 M hits a second (110-160 ns each; the
//!   benchmark's `cache.lookup_ns`). Readers never block each other,
//!   but they still share the logical clock, the clustering model's
//!   lock and the entries' LRU stamps, so two threads together manage
//!   0.5-0.9× what one does (`cache.scaling`), not 2×;
//! * eviction is **LRU + quality-aware**: when a shard exceeds capacity,
//!   the least-recently-used entry whose config underperforms its family
//!   incumbent goes first, and the sole entry of a family with live
//!   traffic is never evicted.
//!
//! Determinism: shards and per-family indexes are `BTreeMap`-ordered, the
//! clustering model is a pure function of assignment order, and the LRU
//! clock is a logical tick — replaying the same operation sequence
//! rebuilds byte-identical state ([`CacheSnapshot`]). The serve layer
//! leans on this to journal cache operations in its WAL and recover the
//! exact hit/miss behavior after a crash; a run of hits it journals as
//! the soft state they left ([`HitRun`]) and not one by one.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod cache;
mod key;

pub use cache::{
    CacheConfig, CacheHit, CacheLookup, CacheSnapshot, CacheStats, HitRun, ShardedCache,
    SnapshotEntry,
};
pub use key::fingerprint_key;

/// Errors produced by the cache.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// A snapshot was produced by an incompatible cache version.
    VersionMismatch {
        /// Version this build understands.
        expected: u32,
        /// Version found in the snapshot.
        got: u32,
    },
    /// A [`HitRun`] does not continue the cache it was applied to.
    BadHitRun(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::VersionMismatch { expected, got } => {
                write!(f, "cache snapshot version {got} (expected {expected})")
            }
            CacheError::BadHitRun(why) => write!(f, "hit run does not apply: {why}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Convenience alias for results from this crate.
pub type Result<T> = std::result::Result<T, CacheError>;
