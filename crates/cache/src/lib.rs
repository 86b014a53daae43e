//! Workload-fingerprint-keyed config cache (ROADMAP item 1).
//!
//! The paper's production premise is that tuning amortizes: most incoming
//! workloads have been seen before, so request-time answers should come
//! from a cache, not a fresh campaign. This crate is that cache:
//!
//! * incoming fingerprints are routed to a **workload family** by
//!   [`autotune_wid::StreamingClusters`] — online nearest-centroid
//!   assignment that spawns a new family past a distance threshold;
//! * each family holds tuned configurations keyed by an exact
//!   [`fingerprint_key`], with the **incumbent** (lowest observed cost)
//!   served to any member of the family;
//! * the read path is **sharded** ([`ShardedCache`]): families map to
//!   shards, lookups take only read locks and bump atomic LRU ticks, so
//!   concurrent lookups scale and a hit costs well under a microsecond;
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
