//! Cache-first tenant routing over a durable campaign registry.
//!
//! The paper's amortization premise: in a fleet, most incoming workloads
//! resemble one already tuned, so request-time serving should consult a
//! config cache first and fall back to a fresh campaign only on a genuine
//! miss. [`TenantRouter`] is that front door:
//!
//! * a lookup carries a workload fingerprint; the
//!   [`ShardedCache`] routes it to a workload family and answers hits
//!   instantly with the family's tuned incumbent;
//! * a miss enqueues the supplied [`CampaignSpec`] through the
//!   [`DurableRegistry`] admission path (durable before the miss is
//!   acknowledged) and the campaign's best trial is **backfilled** into
//!   the cache when it completes;
//! * misses are **single-flight per family**: concurrent tenants of the
//!   same family share one in-flight campaign instead of stampeding the
//!   registry.
//!
//! # Durability and replay
//!
//! Cache state is not stored — it is *re-derived*. Every routing
//! operation that changes what the cache holds is journaled as a compact
//! [`RouterOp`] in the registry WAL's auxiliary stream
//! ([`DurableRegistry::append_aux`]; written through, no copy kept in
//! memory), and [`TenantRouter::open`] replays the journal the recovery
//! read in order against a fresh cache, before anything is written: a
//! journal that does not replay is refused like a fleet that does not.
//! An op travels as the bytes of its CBOR
//! encoding (the `ciborium` stub's, as frames and WAL records do),
//! opaque to the WAL, and is decoded only as it is replayed. Because the
//! cache is a pure function of its operation sequence (seeded
//! clustering, logical-tick LRU, `BTreeMap` shards), replay rebuilds the
//! exact hit/miss behavior, tick counters and eviction decisions
//! included.
//!
//! **A hit writes nothing.** It is a read: it changes no entry, family
//! or campaign, only soft state (the LRU clock, the two hit counters,
//! the serving entry's `hits`/`last_used`, its family's heat), and the
//! cache already keeps that in its atomics. What a run of hits left
//! there is journaled as *one* [`RouterOp::Hits`] (a
//! [`HitRun`]: the run's length and the absolute stamps of every entry
//! and family it touched) at three points: immediately before the next
//! record the router journals anyway — a miss's `Lookup`, an `Admit`, a
//! `Backfill` — and when a live router is dropped. Replay applies a
//! summary by moving clock and counters on by its length and storing the
//! stamps; it refuses the log ([`ServeError::Storage`], nothing
//! truncated) if a summary names an entry or family the replayed cache
//! does not hold or its counts do not add up.
//!
//! The contract: **a recovered cache is the live cache as of the last
//! record in the log.** Hits served after that record were reads that
//! promised nothing; a kill forgets them *together* — clock, counters,
//! LRU stamps and heat rewind to one state the live router passed
//! through — so every later eviction is still a pure function of the
//! log. After a clean drop that state is the final one. No eviction can
//! fall inside a run, where its victim would depend on stamps the log
//! has not heard of: entries go in only under a `Backfill`, which
//! flushes the run first. A log written while every hit was still
//! journaled as a `Lookup` replays as it always did.
//!
//! Crash windows are safe by ordering: the `Lookup` op lands before the
//! admission write (so a shed request replays as the same clustering
//! mutation), the campaign registration is durable before the `Admit` op
//! (an orphaned campaign self-heals because the fingerprint-derived
//! idempotency key makes the retry land on it), and the `Backfill` op is
//! journaled only after the campaign's completion is durable (a finished
//! campaign's best trial is stable, so replay at any position agrees).

use crate::durability::{scan_wal, DurableRegistry, RecoveryReport, WalConfig, WalRecord};
use crate::protocol::{spawn_backend, Backend, Client, PipeEnd, ServerHandle, ENCODE_RESERVE};
use crate::registry::{AdmissionConfig, CampaignRegistry, FleetStats, Rounds, ServeError};
use crate::spec::CampaignSpec;
use crate::wal::{MemStorage, SegmentFiles, Storage};
use autotune_cache::{fingerprint_key, CacheHit, CacheLookup, CacheStats, HitRun, ShardedCache};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use autotune_cache::CacheConfig;

/// Auxiliary-journal key for the router's op stream.
const OPS_KEY: &str = "router-ops";
/// Auxiliary-journal key for the router's pinned configuration.
const CONFIG_KEY: &str = "router-config";
/// Salt folded into the fingerprint key to form campaign idempotency
/// keys, so router-issued request ids cannot collide with client-chosen
/// ones built from small integers.
const REQUEST_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Shape and policy of a [`TenantRouter`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// The config cache's shape (clustering threshold, shards, capacity,
    /// eviction policy). Pinned into the WAL at create time; `open`
    /// reads it back, so a recovered router cannot silently diverge.
    pub cache: CacheConfig,
}

/// One journaled routing operation. Replayed in append order by
/// [`TenantRouter::open`] to rebuild cache + routing state.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum RouterOp {
    /// A lookup missed. Replay re-runs the cache lookup, which re-derives
    /// the miss and its clustering mutation. (Logs written before hits
    /// stopped being journaled hold one of these per hit too; replay
    /// re-derives those the same way.)
    Lookup { features: Vec<f64> },
    /// A miss admitted (or idempotently re-joined) a tuning campaign
    /// for a family.
    Admit {
        campaign: u64,
        family: u64,
        features: Vec<f64>,
    },
    /// A completed campaign's best trial was folded into the cache.
    Backfill { campaign: u64 },
    /// What the hits served since the record before this one left in
    /// the cache. Replay applies it; it re-runs no lookup.
    Hits(HitRun),
}

/// The bytes a journal record carries for `value`.
fn encode_aux<T: Serialize>(value: &T) -> Result<Vec<u8>, ServeError> {
    let mut payload = Vec::with_capacity(ENCODE_RESERVE);
    ciborium::into_writer(value, &mut payload)
        .map_err(|e| ServeError::Storage(format!("encode router journal record: {e}")))?;
    Ok(payload)
}

/// The value a journal record under `key` carries.
fn decode_aux<T: for<'de> Deserialize<'de>>(key: &str, payload: &[u8]) -> Result<T, ServeError> {
    ciborium::from_slice(payload)
        .map_err(|e| ServeError::Storage(format!("decode {key} journal record: {e}")))
}

/// The config `create` pins as a router journal's first record.
fn pinned_config(journal: &[(String, Vec<u8>)]) -> Result<RouterConfig, ServeError> {
    match journal.first() {
        Some((key, payload)) if key == CONFIG_KEY => decode_aux(CONFIG_KEY, payload),
        _ => {
            let why = "WAL holds no router config record; not a router WAL";
            Err(ServeError::Storage(why.into()))
        }
    }
}

/// What the router's journal rebuilds: the cache and the fills owed to
/// it.
struct CacheState {
    cache: Arc<ShardedCache>,
    /// campaign id → the fill it owes the cache.
    pending: BTreeMap<u64, PendingFill>,
    /// family → campaign currently tuning it (single-flight).
    inflight: BTreeMap<u64, u64>,
}

impl CacheState {
    /// An empty cache shaped by `config`, with nothing owed.
    fn new(config: RouterConfig) -> Self {
        CacheState {
            cache: Arc::new(ShardedCache::new(config.cache)),
            pending: BTreeMap::new(),
            inflight: BTreeMap::new(),
        }
    }

    /// The state a router `journal` replays to against the recovered
    /// `registry`: the pinned config first, then every op in order.
    fn replayed(
        registry: &CampaignRegistry,
        journal: &[(String, Vec<u8>)],
    ) -> Result<Self, ServeError> {
        let mut state = CacheState::new(pinned_config(journal)?);
        for (_, payload) in journal.iter().skip(1).filter(|(key, _)| key == OPS_KEY) {
            state.replay(registry, decode_aux(OPS_KEY, payload)?)?;
        }
        Ok(state)
    }

    /// Books the fill `campaign` owes `family`'s cache entry, and the
    /// campaign as the one tuning the family, live and in replay alike.
    fn owe_fill(&mut self, campaign: u64, family: u64, features: Vec<f64>) {
        self.pending
            .insert(campaign, PendingFill { family, features });
        self.inflight.insert(family, campaign);
    }

    /// Folds the finished `campaign`'s best trial into the cache, and
    /// frees its family's single-flight slot.
    fn backfill(&mut self, registry: &CampaignRegistry, campaign: u64) -> Result<(), ServeError> {
        let Some(fill) = self.pending.remove(&campaign) else {
            return Ok(());
        };
        let best = registry.campaign(campaign)?.storage().best();
        // No best trial (every one crashed, or the campaign was stopped
        // empty) means nothing to cache, but the family's single-flight
        // slot below must still free so a later miss can retry.
        if let Some(best) = best {
            let config = best.config.clone();
            self.cache
                .insert(fill.family as usize, &fill.features, config, best.cost);
        }
        if self.inflight.get(&fill.family) == Some(&campaign) {
            self.inflight.remove(&fill.family);
        }
        Ok(())
    }

    /// Re-applies one recovered journal op, as the live path applied it
    /// once the op was durable.
    fn replay(&mut self, registry: &CampaignRegistry, op: RouterOp) -> Result<(), ServeError> {
        match op {
            RouterOp::Lookup { features } => {
                if matches!(self.cache.lookup(&features), CacheLookup::Miss { .. }) {
                    self.cache.admit_family(&features);
                }
            }
            RouterOp::Admit {
                campaign,
                family,
                features,
            } => self.owe_fill(campaign, family, features),
            RouterOp::Backfill { campaign } => self.backfill(registry, campaign)?,
            RouterOp::Hits(run) => self.cache.apply_hits(&run).map_err(|e| {
                ServeError::Storage(format!("{OPS_KEY} journal does not replay: {e}"))
            })?,
        }
        Ok(())
    }
}

/// A pending cache fill: the family and exact fingerprint a campaign
/// was admitted for.
#[derive(Debug, Clone)]
struct PendingFill {
    family: u64,
    features: Vec<f64>,
}

/// Outcome of [`TenantRouter::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum RouterLookup {
    /// Served from the config cache.
    Hit(CacheHit),
    /// No cached config; a tuning campaign covers this family.
    Miss {
        /// The covering campaign's registry id.
        campaign: u64,
        /// True when this miss admitted the campaign; false when it
        /// joined one already in flight for the family.
        enqueued: bool,
    },
}

/// Cache-first request router over a [`DurableRegistry`]. See the
/// module docs for the serving flow and the durability argument.
pub struct TenantRouter {
    durable: DurableRegistry,
    state: CacheState,
    /// The cache's tick as of the last record in the journal.
    logged_tick: u64,
    /// Whether a hit has been served since that record.
    hits_unlogged: bool,
}

impl TenantRouter {
    /// Creates a fresh router writing its WAL to `dir` (created if
    /// missing; must not already hold segments). The router config is
    /// pinned into the journal so recovery rebuilds the same cache.
    pub fn create(
        dir: impl Into<PathBuf>,
        workers: usize,
        wal: WalConfig,
        config: RouterConfig,
    ) -> Result<Self, ServeError> {
        Self::pin(DurableRegistry::create(dir, workers, wal)?, config)
    }

    /// [`TenantRouter::create`] with the WAL in `device`'s memory.
    pub fn create_in(
        device: &MemStorage,
        workers: usize,
        wal: WalConfig,
        config: RouterConfig,
    ) -> Result<Self, ServeError> {
        Self::pin(DurableRegistry::create_in(device, workers, wal)?, config)
    }

    /// A router over the fresh `durable`, its config the journal's first
    /// record.
    fn pin(mut durable: DurableRegistry, config: RouterConfig) -> Result<Self, ServeError> {
        durable.append_aux(CONFIG_KEY, encode_aux(&config)?)?;
        Ok(TenantRouter::over(durable, CacheState::new(config)))
    }

    /// Reopens a router from its WAL: recovers the campaign fleet, reads
    /// the pinned [`RouterConfig`], and replays the journaled op stream
    /// against a fresh cache, rebuilding the exact pre-crash hit/miss
    /// state (see the module docs). A log without the router's config
    /// record, or whose journal does not replay, is refused before
    /// anything is written.
    pub fn open(
        dir: impl Into<PathBuf>,
        workers: usize,
        wal: WalConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        Self::open_on(Box::new(SegmentFiles::new(dir.into())), workers, wal)
    }

    /// [`TenantRouter::open`] on the WAL in `device`'s memory.
    pub fn open_in(
        device: &MemStorage,
        workers: usize,
        wal: WalConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        Self::open_on(Box::new(device.clone()), workers, wal)
    }

    fn open_on(
        storage: Box<dyn Storage>,
        workers: usize,
        wal: WalConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        let (durable, report, state) =
            DurableRegistry::open_on(storage, workers, wal, CacheState::replayed)?;
        let mut router = TenantRouter::over(durable, state);
        router.logged_tick = router.state.cache.tick();
        Ok((router, report))
    }

    /// A router over `durable` and `state`, with no hit unlogged.
    fn over(durable: DurableRegistry, state: CacheState) -> Self {
        TenantRouter {
            durable,
            state,
            logged_tick: 0,
            hits_unlogged: false,
        }
    }

    /// Applies admission limits to the underlying registry.
    pub fn set_admission(&mut self, admission: AdmissionConfig) {
        self.durable.set_admission(admission);
    }

    /// The shared config cache. Clone the `Arc` to serve lookups from
    /// other threads while this handle drives campaigns. Such lookups
    /// bypass the router's journal and are not replayed: hits among them
    /// are at most swept into the next hit summary with the router's
    /// own, and a miss among them takes a tick no record accounts for,
    /// so a summary that spans it is one `open` refuses. A cache that
    /// must reopen to the same bytes is read through
    /// [`TenantRouter::lookup`] only.
    pub fn cache(&self) -> &Arc<ShardedCache> {
        &self.state.cache
    }

    /// The wrapped campaign registry (stats, snapshots).
    pub fn registry(&self) -> &CampaignRegistry {
        self.durable.registry()
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Journals `op` behind a summary of the hits served since the
    /// record before it, so the log's order is the cache's.
    fn journal_op(&mut self, op: &RouterOp) -> Result<(), ServeError> {
        self.flush_hits()?;
        self.durable.append_aux(OPS_KEY, encode_aux(op)?)?;
        self.logged_tick = self.state.cache.tick();
        Ok(())
    }

    /// Journals what the unlogged hits left in the cache, if there are
    /// any, as one [`RouterOp::Hits`].
    fn flush_hits(&mut self) -> Result<(), ServeError> {
        if !self.hits_unlogged {
            return Ok(());
        }
        let run = self.state.cache.hits_since(self.logged_tick);
        self.durable
            .append_aux(OPS_KEY, encode_aux(&RouterOp::Hits(run))?)?;
        self.hits_unlogged = false;
        Ok(())
    }

    /// Serves one tenant request: a cache hit answers instantly; a miss
    /// admits `spec` through the durable registry (or joins the family's
    /// in-flight campaign) and the cache is backfilled when it completes.
    ///
    /// A hit journals nothing (see the module docs); a miss journals the
    /// hits before it and then itself. Admission sheds surface as
    /// [`ServeError::Overloaded`]; the clustering mutation is journaled
    /// before admission, so a shed request still replays identically. A
    /// router whose WAL handle is dead answers no hits and mutates
    /// nothing: soft state it can never journal must not move either.
    pub fn lookup(
        &mut self,
        features: &[f64],
        spec: &CampaignSpec,
    ) -> Result<RouterLookup, ServeError> {
        self.durable.check_alive()?;
        if let CacheLookup::Hit(hit) = self.state.cache.lookup(features) {
            self.hits_unlogged = true;
            return Ok(RouterLookup::Hit(hit));
        }
        self.journal_op(&RouterOp::Lookup {
            features: features.to_vec(),
        })?;
        let assignment = self.state.cache.admit_family(features);
        let family = assignment.family as u64;
        if let Some(&campaign) = self.state.inflight.get(&family) {
            return Ok(RouterLookup::Miss {
                campaign,
                enqueued: false,
            });
        }
        // The idempotency key is a pure function of the fingerprint: a
        // crash between the (durable) registration and the Admit op
        // leaves an orphan campaign that the next miss of this tenant
        // re-joins instead of double-creating.
        let request_id = fingerprint_key(features) ^ REQUEST_SALT;
        let campaign = self.durable.admit_spec(spec, Some(request_id))?;
        self.journal_op(&RouterOp::Admit {
            campaign,
            family,
            features: features.to_vec(),
        })?;
        self.state.owe_fill(campaign, family, features.to_vec());
        Ok(RouterLookup::Miss {
            campaign,
            enqueued: true,
        })
    }

    /// One durable scheduling round, then backfills the cache from every
    /// pending campaign that completed during it. Returns whether the
    /// round was lost to a worker-panic recovery.
    pub fn step_round(&mut self) -> Result<bool, ServeError> {
        let recovered = self.durable.step_round()?;
        self.backfill_completed()?;
        Ok(recovered)
    }

    /// Runs rounds until the fleet drains; returns rounds executed.
    pub fn run_all(&mut self) -> Result<u64, ServeError> {
        self.durable.check_alive()?;
        self.run_rounds(u64::MAX)
    }

    /// Folds every completed-but-pending campaign's best trial into the
    /// cache, each made durable as a `Backfill` *before* the cache
    /// mutation: a completed campaign's best trial is stable, so
    /// replaying the op at any later position re-derives the same fill.
    fn backfill_completed(&mut self) -> Result<(), ServeError> {
        let registry = self.durable.registry();
        let completed: Vec<u64> = self
            .state
            .pending
            .keys()
            .copied()
            .filter(|&id| registry.is_finished(id))
            .collect();
        for campaign in completed {
            self.journal_op(&RouterOp::Backfill { campaign })?;
            self.state.backfill(self.durable.registry(), campaign)?;
        }
        Ok(())
    }
}

/// A router that is let go journals the hits it has not yet: after a
/// clean drop the log ends at the cache's final state. A dead handle
/// writes nothing, and a summary that does not land leaves the log at
/// its last record, which is a state `open` rebuilds.
impl Drop for TenantRouter {
    fn drop(&mut self) {
        let _ = self.flush_hits();
    }
}

impl Rounds for TenantRouter {
    fn registry(&self) -> &CampaignRegistry {
        self.durable.registry()
    }

    fn round(&mut self) -> Result<(), ServeError> {
        self.step_round().map(drop)
    }
}

impl Backend for TenantRouter {
    fn admit_spec(
        &mut self,
        spec: &CampaignSpec,
        request_id: Option<u64>,
    ) -> Result<u64, ServeError> {
        self.durable.admit_spec(spec, request_id)
    }

    fn stop(&mut self, id: u64) -> Result<bool, ServeError> {
        self.durable.stop(id)
    }

    fn snapshot(&self, id: u64) -> Result<autotune::CampaignSnapshot, ServeError> {
        self.durable.snapshot(id)
    }

    fn lookup(
        &mut self,
        features: &[f64],
        spec: &CampaignSpec,
    ) -> Result<RouterLookup, ServeError> {
        TenantRouter::lookup(self, features, spec)
    }
}

/// One WAL record as the `wal_dump` example prints it: where it lies
/// and what it holds, serializable as JSON (the one place the log's old
/// text form survives).
#[derive(Debug, Serialize)]
pub struct WalDumpLine {
    /// Number of the segment file (`wal-<segment>.seg`).
    pub segment: u64,
    /// Byte offset of the record's header in its segment.
    pub offset: u64,
    /// Payload length in bytes (the record is 8 header bytes longer).
    pub len: u64,
    record: DumpedRecord,
}

/// A record's content, with the router's own journal records decoded.
#[derive(Debug, Serialize)]
enum DumpedRecord {
    /// The router's pinned configuration (`Aux` under `router-config`).
    RouterConfig(RouterConfig),
    /// One routing operation (`Aux` under `router-ops`).
    RouterOp(RouterOp),
    /// Any other record as logged; an `Aux` payload nobody here owns
    /// stays bytes.
    Wal(WalRecord<'static>),
}

/// Reads the WAL in `dir` front to back without touching it and hands
/// `each` one [`WalDumpLine`] per record. The first record that is torn,
/// fails its CRC or does not decode (a router journal payload included)
/// ends the dump with [`ServeError::Storage`] naming segment and offset,
/// and so does an error from `each`; the lines before it have been
/// handed over. Returns the record count.
pub fn dump_wal(
    dir: &Path,
    each: impl FnMut(&WalDumpLine) -> Result<(), ServeError>,
) -> Result<u64, ServeError> {
    dump(&SegmentFiles::new(dir.into()), each)
}

/// [`dump_wal`] over the WAL in `storage`.
fn dump(
    storage: &dyn Storage,
    mut each: impl FnMut(&WalDumpLine) -> Result<(), ServeError>,
) -> Result<u64, ServeError> {
    let mut records = 0;
    scan_wal(storage, |segment, offset, len, record| {
        let located =
            |e: ServeError| ServeError::Storage(format!("segment {segment} offset {offset}: {e}"));
        let record = match record {
            WalRecord::Aux { key, payload } if key == CONFIG_KEY => {
                DumpedRecord::RouterConfig(decode_aux(&key, &payload).map_err(located)?)
            }
            WalRecord::Aux { key, payload } if key == OPS_KEY => {
                DumpedRecord::RouterOp(decode_aux(&key, &payload).map_err(located)?)
            }
            other => DumpedRecord::Wal(other),
        };
        records += 1;
        each(&WalDumpLine {
            segment,
            offset: offset as u64,
            len: len as u64,
            record,
        })
    })?;
    Ok(records)
}

/// Spawns a router server thread over an in-process pipe; the join
/// handle yields the final fleet and cache stats. `builder` runs inside
/// the server thread, where the router is served, and may fail — e.g. a
/// WAL directory that refuses to open — which surfaces through the
/// handle.
pub fn spawn_router_server(
    builder: impl FnOnce() -> Result<TenantRouter, ServeError> + Send + 'static,
) -> (Client<PipeEnd>, ServerHandle<(FleetStats, CacheStats)>) {
    spawn_backend(builder, |r| (r.registry().fleet_stats(), r.cache_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{LookupReply, Request, Response, ServeBackend, ServerConfig};
    use crate::spec::SystemKind;
    use crate::wal::segment_name;
    use crate::wal::tests::temp_dir;
    use autotune::{CampaignError, SchedulePolicy};

    fn spec(name: &str, seed: u64) -> CampaignSpec {
        let mut s = CampaignSpec::minimal(name.to_string(), SystemKind::Redis, 6, seed);
        s.policy = SchedulePolicy::AsyncSlots { k: 2 };
        s
    }

    #[test]
    fn a_served_snapshot_is_the_plain_registrys_before_and_after_a_reopen() {
        // A short campaign and a long one, `Step`ped alike on a router and
        // on a plain registry: snapshots of the active campaign between
        // rounds and of the finished one, as frames, before and after the
        // router reopens from its WAL.
        let config = ServerConfig::default();
        let mut short = spec("short", 71);
        short.budget = 3;
        let specs = [short, spec("long", 72)];
        let wal = MemStorage::default();
        let mut router =
            TenantRouter::create_in(&wal, 2, WalConfig::default(), RouterConfig::default())
                .unwrap();
        let mut plain = CampaignRegistry::new(2);
        let ask = |backend: &mut dyn ServeBackend, request: Request| -> Vec<u8> {
            let response = backend.handle_request(request, &config).unwrap();
            let mut frame = Vec::new();
            crate::write_frame(&mut frame, &response).unwrap();
            frame
        };
        for spec in &specs {
            let register = || Request::Register {
                spec: spec.clone(),
                request_id: None,
            };
            assert_eq!(ask(&mut router, register()), ask(&mut plain, register()));
        }
        while !plain.is_finished(0) {
            let step = || Request::Step { rounds: 1 };
            assert_eq!(ask(&mut router, step()), ask(&mut plain, step()));
        }
        assert!(!plain.is_finished(1));
        let snapshots_agree = |router: &mut TenantRouter, plain: &mut CampaignRegistry| {
            for id in [0, 1] {
                let snapshot = || Request::Snapshot { id };
                let got = ask(router, snapshot());
                assert_eq!(got, ask(plain, snapshot()), "campaign {id}");
                assert!(got.len() > 1_000, "campaign {id}: {} bytes", got.len());
                // The router's campaign keeps none of what its WAL holds.
                let kept = router.registry().snapshot(id);
                assert!(
                    matches!(
                        kept,
                        Err(ServeError::Campaign(CampaignError::LogDropped { .. }))
                    ),
                    "campaign {id}: {kept:?}"
                );
            }
        };
        snapshots_agree(&mut router, &mut plain);
        drop(router);
        let (mut router, _) = TenantRouter::open_in(&wal, 2, WalConfig::default()).unwrap();
        snapshots_agree(&mut router, &mut plain);
        // A reopened registry starts its round-robin credit afresh, so the
        // rounds a `RunAll` counts may differ; the histories do not.
        router.run_all().unwrap();
        plain.run_all().unwrap();
        snapshots_agree(&mut router, &mut plain);
        drop(router);
        let (mut router, _) = TenantRouter::open_in(&wal, 2, WalConfig::default()).unwrap();
        snapshots_agree(&mut router, &mut plain);
    }

    /// The router's journal as `wal` holds it: each op's kind, and the
    /// length of the run a `Hits` holds.
    fn journal(wal: &MemStorage) -> Vec<(&'static str, u64)> {
        let mut ops = Vec::new();
        dump(wal, |line| {
            if let DumpedRecord::RouterOp(op) = &line.record {
                ops.push(match op {
                    RouterOp::Lookup { .. } => ("Lookup", 0),
                    RouterOp::Admit { .. } => ("Admit", 0),
                    RouterOp::Backfill { .. } => ("Backfill", 0),
                    RouterOp::Hits(run) => ("Hits", run.hits),
                });
            }
            Ok(())
        })
        .unwrap();
        ops
    }

    fn cache_json(router: &TenantRouter) -> String {
        serde_json::to_string(&router.cache().snapshot()).unwrap()
    }

    const TUNED: [f64; 2] = [3.0, 3.0];
    /// Same family as `TUNED`, another key: a borrowed hit.
    const SIBLING: [f64; 2] = [3.2, 3.0];
    /// A family of its own.
    const FAR: [f64; 2] = [9.0, 9.0];

    /// A router in `wal` whose cache answers `TUNED` and `SIBLING`; the
    /// last record of its log is the `Backfill`.
    fn warmed(wal: &MemStorage) -> TenantRouter {
        warm(TenantRouter::create_in(wal, 2, WalConfig::default(), tight_config()).unwrap())
    }

    /// `router`, fresh, once its cache answers `TUNED` and `SIBLING`.
    fn warm(mut router: TenantRouter) -> TenantRouter {
        router.lookup(&TUNED, &spec("t0", 7)).unwrap();
        router.run_all().unwrap();
        router
    }

    fn serve_hits(router: &mut TenantRouter, n: usize) {
        for i in 0..n {
            let fp = if i % 3 == 2 { &SIBLING } else { &TUNED };
            let out = router.lookup(fp, &spec("t0", 7)).unwrap();
            assert!(matches!(out, RouterLookup::Hit(_)), "{out:?}");
        }
    }

    fn tight_config() -> RouterConfig {
        RouterConfig {
            cache: CacheConfig {
                threshold: 1.0,
                n_shards: 4,
                capacity_per_shard: 8,
                hot_window: 1000,
            },
        }
    }

    #[test]
    fn miss_tunes_then_hit_serves_best_config() {
        let wal = MemStorage::default();
        let mut router =
            TenantRouter::create_in(&wal, 2, WalConfig::default(), tight_config()).unwrap();
        let fp = [3.0, 3.0];
        let out = router.lookup(&fp, &spec("t0", 7)).unwrap();
        let RouterLookup::Miss { campaign, enqueued } = out else {
            panic!("expected miss, got {out:?}");
        };
        assert!(enqueued);
        router.run_all().unwrap();
        assert_eq!(router.state.pending.len(), 0);
        let best = router.registry().stats(campaign).unwrap().best_cost;
        match router.lookup(&fp, &spec("t0", 7)).unwrap() {
            RouterLookup::Hit(hit) => {
                assert_eq!(hit.cost.to_bits(), best.to_bits());
                assert!(!hit.borrowed);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = router.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.backfills), (1, 1, 1));
    }

    #[test]
    fn misses_are_single_flight_per_family() {
        let wal = MemStorage::default();
        let mut router =
            TenantRouter::create_in(&wal, 1, WalConfig::default(), tight_config()).unwrap();
        // Two tenants of the same family (within threshold of each other).
        let a = [0.0, 0.0];
        let b = [0.2, 0.0];
        let RouterLookup::Miss {
            campaign: c1,
            enqueued: e1,
        } = router.lookup(&a, &spec("a", 1)).unwrap()
        else {
            panic!("expected miss");
        };
        let RouterLookup::Miss {
            campaign: c2,
            enqueued: e2,
        } = router.lookup(&b, &spec("b", 2)).unwrap()
        else {
            panic!("expected miss");
        };
        assert!(e1);
        assert!(!e2, "second miss must join the in-flight campaign");
        assert_eq!(c1, c2);
        assert_eq!(router.registry().fleet_stats().n_campaigns, 1);
        router.run_all().unwrap();
        // The borrowed incumbent now answers both tenants.
        assert!(matches!(
            router.lookup(&a, &spec("a", 1)).unwrap(),
            RouterLookup::Hit(_)
        ));
        match router.lookup(&b, &spec("b", 2)).unwrap() {
            RouterLookup::Hit(hit) => assert!(hit.borrowed),
            other => panic!("expected borrowed hit, got {other:?}"),
        }
    }

    #[test]
    fn reopen_replays_byte_identical_cache_state() {
        let wal = MemStorage::default();
        let mut router =
            TenantRouter::create_in(&wal, 2, WalConfig::default(), tight_config()).unwrap();
        // Three short campaigns (two families) that backfill early and
        // one that outlives the 40 rounds below: the journal carries
        // hits, misses, joins, backfills and a fill that is still owed.
        let tenants = [[0.0, 0.0], [5.0, 0.0], [0.2, 0.0], [0.0, 5.0]];
        let lookups = |router: &mut TenantRouter| {
            for (i, fp) in tenants.iter().enumerate() {
                let mut s = spec(&format!("t{i}"), i as u64);
                s.budget = if i == 3 { 200 } else { 6 };
                router.lookup(fp, &s).unwrap();
            }
        };
        lookups(&mut router);
        for _ in 0..40 {
            router.step_round().unwrap();
            lookups(&mut router);
        }
        assert_eq!(router.state.pending.len(), 1);
        let state = |r: &TenantRouter| {
            (
                serde_json::to_string(&r.cache().snapshot()).unwrap(),
                format!("{:?}", r.state.pending),
                format!("{:?}", r.state.inflight),
            )
        };
        let live = state(&router);
        drop(router);
        // The journal is read, never rewritten: a second reopen replays
        // to the same bytes as the first.
        for reopen in 1..=2 {
            let (reopened, report) = TenantRouter::open_in(&wal, 2, WalConfig::default()).unwrap();
            assert!(report.records_read > 0);
            assert_eq!(state(&reopened), live, "reopen {reopen}");
        }
    }

    #[test]
    fn reopen_mid_campaign_resumes_pending_backfill() {
        let wal = MemStorage::default();
        let mut router =
            TenantRouter::create_in(&wal, 1, WalConfig::default(), tight_config()).unwrap();
        let fp = [1.0, 1.0];
        router.lookup(&fp, &spec("t0", 3)).unwrap();
        // One round only: the campaign is still live, the fill pending.
        router.step_round().unwrap();
        assert_eq!(router.state.pending.len(), 1);
        drop(router);
        let (mut reopened, _) = TenantRouter::open_in(&wal, 1, WalConfig::default()).unwrap();
        assert_eq!(reopened.state.pending.len(), 1);
        // A repeat miss joins the recovered in-flight campaign.
        assert!(matches!(
            reopened.lookup(&fp, &spec("t0", 3)).unwrap(),
            RouterLookup::Miss {
                enqueued: false,
                ..
            }
        ));
        reopened.run_all().unwrap();
        assert_eq!(reopened.state.pending.len(), 0);
        assert!(matches!(
            reopened.lookup(&fp, &spec("t0", 3)).unwrap(),
            RouterLookup::Hit(_)
        ));
    }

    #[test]
    fn shed_miss_replays_consistently() {
        let wal = MemStorage::default();
        let mut router =
            TenantRouter::create_in(&wal, 1, WalConfig::default(), tight_config()).unwrap();
        router.set_admission(AdmissionConfig {
            max_active: 1,
            max_pending: 0,
        });
        let a = [0.0, 0.0];
        let b = [8.0, 0.0]; // different family → wants a second campaign
        assert!(matches!(
            router.lookup(&a, &spec("a", 1)).unwrap(),
            RouterLookup::Miss { .. }
        ));
        match router.lookup(&b, &spec("b", 2)) {
            Err(ServeError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let families_live = router.cache_stats().families;
        drop(router);
        // The shed lookup's clustering mutation was journaled before
        // admission, so the replayed model matches the live one.
        let (reopened, _) = TenantRouter::open_in(&wal, 1, WalConfig::default()).unwrap();
        assert_eq!(reopened.cache_stats().families, families_live);
        assert_eq!(reopened.state.pending.len(), 1, "only the admitted miss");
    }

    #[test]
    fn lookup_flows_through_the_protocol() {
        let wal = MemStorage::default();
        let (mut client, handle) = spawn_router_server(move || {
            TenantRouter::create_in(&wal, 2, WalConfig::default(), tight_config())
        });
        let fp = [2.0, 2.0];
        let miss = client.lookup(&fp, &spec("t0", 11)).unwrap();
        let LookupReply::Miss { campaign, enqueued } = miss else {
            panic!("expected miss, got {miss:?}");
        };
        assert!(enqueued);
        client.run_all().unwrap();
        let best = client.stats(campaign).unwrap().best_cost;
        match client.lookup(&fp, &spec("t0", 11)).unwrap() {
            LookupReply::Hit { cost, borrowed, .. } => {
                assert_eq!(cost.to_bits(), best.to_bits());
                assert!(!borrowed);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        client.shutdown().unwrap();
        let (fleet, cache) = handle.join().unwrap().unwrap();
        assert_eq!(fleet.n_done, 1);
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn a_served_hit_stays_within_its_byte_budgets() {
        // The benchmark's shapes (`benchmark/src/gen.rs`): a 12-feature
        // fingerprint and the tenant's own random-search Redis campaign.
        // The budgets sit just above today's sizes (576 and 157 bytes),
        // so an encoding that quietly fattens fails here first; a hit
        // journals nothing.
        let wal = MemStorage::default();
        let mut router =
            TenantRouter::create_in(&wal, 2, WalConfig::default(), tight_config()).unwrap();
        let mut tenant = CampaignSpec::minimal("tenant-217", SystemKind::Redis, 8, 35_007);
        tenant.workload = autotune_sim::Workload::kv_cache(50_000.0 * 1.0173);
        let request = Request::Lookup {
            features: (0..12).map(|i| 9.87 * i as f64 - 31.4).collect(),
            spec: tenant,
        };
        fn frame_len<T: Serialize>(msg: &T) -> usize {
            let mut frame = Vec::new();
            crate::protocol::write_frame(&mut frame, msg).unwrap();
            frame.len()
        }
        let request_len = frame_len(&request);
        assert!(request_len <= 600, "a Lookup frame is {request_len} bytes");

        let config = ServerConfig::default();
        let miss = router.handle_request(request.clone(), &config).unwrap();
        assert!(matches!(miss, Response::CacheMiss { .. }), "{miss:?}");
        router.run_all().unwrap();
        let before = wal.appended_bytes();
        let hit = router.handle_request(request, &config).unwrap();
        assert!(matches!(hit, Response::CacheHit { .. }), "{hit:?}");
        let journaled = wal.appended_bytes() - before;
        assert_eq!(journaled, 0, "a hit journals {journaled} bytes");
        let reply_len = frame_len(&hit);
        assert!(reply_len <= 170, "a CacheHit frame is {reply_len} bytes");
    }

    #[test]
    fn a_trial_stays_within_its_wal_byte_budget() {
        // What the log holds of a trial is what a replay cannot recompute
        // (the measurement, its 32-sample series packed: 1 792 bytes) and
        // enough of the rest to tell a divergence by. The budget sits
        // just above today's size (2 407 bytes), so a field that
        // quietly fattens a record fails here and not only in the
        // benchmark's `durability.bytes_per_trial`.
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 1, WalConfig::default()).unwrap();
        let spec = CampaignSpec::minimal("tenant-217", SystemKind::Redis, 8, 35_007);
        let id = durable.register_spec(&spec).unwrap();
        let before = wal.appended_bytes();
        durable.run_all().unwrap();
        assert_eq!(durable.registry().stats(id).unwrap().n_trials, 8);
        let per_trial = (wal.appended_bytes() - before) / 8;
        assert!(per_trial <= 2600, "a trial logs {per_trial} bytes");
    }

    #[test]
    fn a_hit_writes_nothing() {
        let wal = MemStorage::default();
        let mut router = warmed(&wal);
        let warm = [("Lookup", 0), ("Admit", 0), ("Backfill", 0)];
        assert_eq!(journal(&wal), warm);
        let (bytes, appends) = (
            wal.appended_bytes(),
            router.registry().fleet_stats().wal_appends,
        );
        serve_hits(&mut router, 1000);
        assert_eq!(wal.appended_bytes(), bytes);
        assert_eq!(router.registry().fleet_stats().wal_appends, appends);
        // The next record the router has to write takes the hits' one
        // summary in ahead of it.
        let miss = router.lookup(&FAR, &spec("t1", 8)).unwrap();
        assert!(matches!(miss, RouterLookup::Miss { enqueued: true, .. }));
        let mut want = warm.to_vec();
        want.extend([("Hits", 1000), ("Lookup", 0), ("Admit", 0)]);
        assert_eq!(journal(&wal), want);
        // A drop with hits outstanding adds one more, a drop without none.
        serve_hits(&mut router, 5);
        let live = cache_json(&router);
        drop(router);
        want.push(("Hits", 5));
        assert_eq!(journal(&wal), want);
        let (reopened, _) = TenantRouter::open_in(&wal, 2, WalConfig::default()).unwrap();
        assert_eq!(cache_json(&reopened), live);
        drop(reopened);
        assert_eq!(journal(&wal), want);
    }

    #[test]
    fn hits_since_the_last_record_are_forgotten_together() {
        // A kill (no `Drop`) after hits the log never heard of: clock,
        // counters, LRU stamps and heat all come back as of the last
        // record, a state the live router passed through.
        let killed_after_hits = || {
            let wal = MemStorage::default();
            let mut router = warmed(&wal);
            serve_hits(&mut router, 4);
            router.lookup(&FAR, &spec("t1", 8)).unwrap();
            let at_record = cache_json(&router);
            serve_hits(&mut router, 7);
            assert_ne!(cache_json(&router), at_record);
            std::mem::forget(router);
            let (reopened, _) = TenantRouter::open_in(&wal, 2, WalConfig::default()).unwrap();
            let recovered = cache_json(&reopened);
            drop(reopened);
            (at_record, recovered)
        };
        let (at_record, recovered) = killed_after_hits();
        assert_eq!(recovered, at_record);
        assert_eq!(killed_after_hits().1, recovered);
    }

    /// Hits, then a miss on the warmed `router`, which `kill` has set up
    /// to die at its next append; `log` reads what its log holds and
    /// `reopen` reopens it. Returns the cache as of the last record and
    /// as the reopened router holds it.
    fn killed_by<L: PartialEq + std::fmt::Debug>(
        mut router: TenantRouter,
        kill: impl FnOnce(&mut TenantRouter),
        log: impl Fn() -> L,
        reopen: impl FnOnce() -> TenantRouter,
    ) -> (String, String) {
        let at_backfill = cache_json(&router);
        serve_hits(&mut router, 6);
        kill(&mut router);
        let refused = router.lookup(&FAR, &spec("t1", 8));
        assert!(
            matches!(refused, Err(ServeError::Storage(_))),
            "{refused:?}"
        );
        // Dead with hits it never logged: `Drop` leaves the log as it is.
        let before = log();
        drop(router);
        assert_eq!(log(), before, "a dead handle wrote in Drop");
        (at_backfill, cache_json(&reopen()))
    }

    #[test]
    fn every_crash_state_of_a_router_log_reopens_to_its_last_record() {
        // Hits on a warmed router, then a miss, which appends the hits'
        // summary, its `Lookup`, its campaign's `Register` and its `Admit`.
        // Each record cut at each prefix the reader tells apart reopens
        // to the cache and the fills owed as of the last record it holds
        // whole, and the miss retried there lands on one campaign.
        let wal = MemStorage::default();
        let mut router = warmed(&wal);
        let state = |r: &TenantRouter| (cache_json(r), r.state.pending.len());
        let (warm_end, warm) = (wal.appended_bytes(), state(&router));
        serve_hits(&mut router, 6);
        let hit = state(&router);
        router.lookup(&FAR, &spec("t1", 8)).unwrap();
        let missed = state(&router);
        drop(router);
        let log = wal.contents();
        assert_eq!(log.len(), 1, "the log rotated");
        let mut tail = Vec::new();
        dump(&wal, |line| {
            if line.offset >= warm_end {
                tail.push((line.offset, 8 + line.len));
            }
            Ok(())
        })
        .unwrap();
        let looked_up = (missed.0.clone(), 0);
        let as_of = [&hit, &looked_up, &looked_up, &missed];
        assert_eq!((tail.len(), missed.1), (as_of.len(), 1));
        for (i, &(at, len)) in tail.iter().enumerate() {
            for landed in (0..=9).chain([len - 1, len]).map(|n| n.min(len)) {
                let wal = MemStorage::default();
                wal.set_contents(log.clone());
                wal.crash_after(at + landed);
                let (mut reopened, _) =
                    TenantRouter::open_in(&wal, 2, WalConfig::default()).unwrap();
                let want = match (landed == len, i) {
                    (true, _) => as_of[i],
                    (false, 0) => &warm,
                    (false, _) => as_of[i - 1],
                };
                let at = format!("record {i}, {landed} of {len} bytes");
                assert_eq!(&state(&reopened), want, "{at}");
                // The tenant's retry lands on the one campaign, whether
                // its registration was durable or not.
                let retried = reopened.lookup(&FAR, &spec("t1", 8)).unwrap();
                assert!(
                    matches!(retried, RouterLookup::Miss { campaign: 1, .. }),
                    "{at}"
                );
                assert_eq!(reopened.registry().len(), 2, "{at}");
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_kills_the_handle_and_it_reopens_to_the_last_record() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = temp_dir("enospc");
        let created = TenantRouter::create(dir.path(), 2, WalConfig::default(), tight_config());
        // The next segment is a device that is always full: the summary
        // the miss forces is the write that meets ENOSPC.
        let full = dir.path().join(segment_name(2));
        let (last_record, recovered) = killed_by(
            warm(created.unwrap()),
            |router| {
                std::os::unix::fs::symlink("/dev/full", &full).unwrap();
                router.durable.checkpoint().unwrap();
            },
            || std::fs::read(dir.path().join(segment_name(1))).unwrap(),
            || {
                std::fs::remove_file(&full).unwrap();
                TenantRouter::open(dir.path(), 2, WalConfig::default())
                    .unwrap()
                    .0
            },
        );
        assert_eq!(recovered, last_record);
    }

    #[test]
    fn a_summary_the_replay_cannot_account_for_is_refused_and_nothing_is_truncated() {
        // A killed router's log, with a summary of its unlogged hits
        // appended by hand (so the record's CRC holds): the honest one
        // opens to the live cache, a lie is refused.
        type Lie = fn(&mut HitRun);
        let with_summary = |tag: &str, lie: Lie| {
            let wal = MemStorage::default();
            let mut router = warmed(&wal);
            serve_hits(&mut router, 6);
            let live = cache_json(&router);
            let mut run = router.cache().hits_since(router.logged_tick);
            assert_eq!(run.hits, 6);
            lie(&mut run);
            std::mem::forget(router);
            let (mut durable, _) = DurableRegistry::open_in(&wal, 2, WalConfig::default()).unwrap();
            let record = encode_aux(&RouterOp::Hits(run)).unwrap();
            durable.append_aux(OPS_KEY, record).unwrap();
            drop(durable);
            let before = wal.contents();
            let opened = TenantRouter::open_in(&wal, 2, WalConfig::default());
            let opened = opened.map(|(router, _)| cache_json(&router));
            // A refused `open` writes nothing; an accepted one starts a
            // segment of its own and touches no other.
            let mut after = wal.contents();
            if opened.is_ok() {
                assert_eq!(
                    after.pop().map(|(_, bytes)| bytes),
                    Some(Vec::new()),
                    "{tag}"
                );
            }
            assert!(after == before, "{tag}: the log was touched");
            (live, opened)
        };
        let (live, opened) = with_summary("summary-honest", |_| {});
        assert_eq!(opened.unwrap(), live);
        let lies: [(&str, Lie); 2] = [
            ("summary-no-entry", |run| run.entries[0].1 ^= 1),
            ("summary-miscounted", |run| run.hits += 1),
        ];
        for (tag, lie) in lies {
            let (_, opened) = with_summary(tag, lie);
            let Err(ServeError::Storage(why)) = opened else {
                panic!("{tag}: not refused with a storage error: {opened:?}");
            };
            assert!(why.contains("hit run does not apply"), "{why}");
        }
    }

    #[test]
    fn a_log_with_a_record_per_hit_still_opens_to_the_same_cache() {
        // `tests/golden/pr22_hit_journal.hex`: written by the build before
        // hits stopped being journaled, with the snapshot its own `open`
        // rebuilt.
        let hex = include_str!("../tests/golden/pr22_hit_journal.hex");
        let digits: Vec<u8> = hex
            .lines()
            .filter(|line| !line.starts_with('#'))
            .flat_map(str::bytes)
            .collect();
        let segment: Vec<u8> = digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect();
        let wal = MemStorage::default();
        wal.set_contents(vec![(1, segment.clone())]);
        let hits = journal(&wal).iter().filter(|op| op.0 == "Lookup").count();
        assert_eq!(hits, 7, "five hits and two misses, a `Lookup` each");
        let (reopened, report) = TenantRouter::open_in(&wal, 2, WalConfig::default()).unwrap();
        assert_eq!(report.records_read, 15);
        let want = include_str!("../tests/golden/pr22_hit_journal_snapshot.json");
        assert_eq!(cache_json(&reopened), want.trim_end());
        // Replayed hits are in the log already: nothing to summarise.
        drop(reopened);
        assert_eq!(wal.appended_bytes(), 0);
        assert_eq!(wal.contents()[0], (1, segment));
    }

    #[test]
    fn a_log_that_is_no_routers_is_refused_before_it_gets_a_segment() {
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 1, WalConfig::default()).unwrap();
        durable.register_spec(&spec("t0", 1)).unwrap();
        drop(durable);
        let before = wal.contents();
        for _ in 0..2 {
            let Err(ServeError::Storage(why)) =
                TenantRouter::open_in(&wal, 1, WalConfig::default())
            else {
                panic!("a log with no router config opened as a router's");
            };
            assert_eq!(why, "WAL holds no router config record; not a router WAL");
        }
        assert!(wal.contents() == before, "a refused open wrote");
        assert_eq!(wal.segments_opened(), 1);
    }

    #[test]
    fn plain_registry_server_rejects_lookup() {
        let (mut client, handle) = crate::protocol::spawn_server(|| CampaignRegistry::new(1));
        let err = client.lookup(&[1.0], &spec("t", 1)).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)));
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
