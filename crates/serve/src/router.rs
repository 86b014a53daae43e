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
//! operation is journaled as a compact [`RouterOp`] in the registry WAL's
//! auxiliary stream ([`DurableRegistry::append_aux`]; written through,
//! no copy kept in memory), and [`TenantRouter::open`] takes the journal
//! the recovery read ([`DurableRegistry::take_aux_log`]) and replays the
//! ops in order against a fresh cache. An op travels as the bytes of its
//! CBOR encoding (the `ciborium` stub's, as frames and WAL records do),
//! opaque to the WAL, and is decoded only as it is replayed.
//! Because the cache is a pure function of its operation sequence
//! (seeded clustering, logical-tick LRU, `BTreeMap` shards), replay
//! rebuilds the exact pre-crash hit/miss behavior — including tick
//! counters and eviction decisions — which is why hits are journaled
//! too (they advance the LRU clock and entry heat that eviction
//! decisions depend on).
//!
//! Crash windows are safe by ordering: the `Lookup` op lands before the
//! admission write (so a shed request replays as the same clustering
//! mutation), the campaign registration is durable before the `Admit` op
//! (an orphaned campaign self-heals because the fingerprint-derived
//! idempotency key makes the retry land on it), and the `Backfill` op is
//! journaled only after the campaign's completion is durable (a finished
//! campaign's best trial is stable, so replay at any position agrees).

use crate::durability::{scan_wal, DurableRegistry, RecoveryReport, WalConfig, WalRecord};
use crate::protocol::{
    pipe, Client, PipeEnd, Request, Response, ServeBackend, Server, ServerConfig, ENCODE_RESERVE,
};
use crate::registry::{AdmissionConfig, CampaignRegistry, FleetStats, ServeError};
use crate::spec::CampaignSpec;
use autotune_cache::{fingerprint_key, CacheHit, CacheLookup, CacheStats, ShardedCache};
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
    /// A lookup was served (hit) or classified (miss). Replay re-runs
    /// the cache lookup, which re-derives the same hit/miss and, on a
    /// miss, the same clustering mutation.
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
    ciborium::from_reader(payload)
        .map_err(|e| ServeError::Storage(format!("decode {key} journal record: {e}")))
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
    cache: Arc<ShardedCache>,
    /// campaign id → the fill it owes the cache.
    pending: BTreeMap<u64, PendingFill>,
    /// family → campaign currently tuning it (single-flight).
    inflight: BTreeMap<u64, u64>,
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
        let mut durable = DurableRegistry::create(dir, workers, wal)?;
        durable.append_aux(CONFIG_KEY, encode_aux(&config)?)?;
        let cache = Arc::new(ShardedCache::new(config.cache));
        Ok(TenantRouter {
            durable,
            cache,
            pending: BTreeMap::new(),
            inflight: BTreeMap::new(),
        })
    }

    /// Reopens a router from its WAL: recovers the campaign fleet, reads
    /// the pinned [`RouterConfig`], and replays the journaled op stream
    /// against a fresh cache, rebuilding the exact pre-crash hit/miss
    /// state (see the module docs).
    pub fn open(
        dir: impl Into<PathBuf>,
        workers: usize,
        wal: WalConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        let (mut durable, report) = DurableRegistry::open(dir, workers, wal)?;
        let mut journal = durable.take_aux_log().into_iter();
        // `create` pins the config as the journal's first record.
        let Some((_, payload)) = journal.next().filter(|(key, _)| key == CONFIG_KEY) else {
            let why = "WAL holds no router config record; not a router WAL";
            return Err(ServeError::Storage(why.into()));
        };
        let config: RouterConfig = decode_aux(CONFIG_KEY, &payload)?;
        let cache = Arc::new(ShardedCache::new(config.cache));
        let mut router = TenantRouter {
            durable,
            cache,
            pending: BTreeMap::new(),
            inflight: BTreeMap::new(),
        };
        for (_, payload) in journal.filter(|(key, _)| key == OPS_KEY) {
            router.replay(decode_aux(OPS_KEY, &payload)?)?;
        }
        Ok((router, report))
    }

    /// Applies admission limits to the underlying registry.
    pub fn set_admission(&mut self, admission: AdmissionConfig) {
        self.durable.set_admission(admission);
    }

    /// The shared config cache. Clone the `Arc` to serve lookups from
    /// other threads while this handle drives campaigns.
    pub fn cache(&self) -> &Arc<ShardedCache> {
        &self.cache
    }

    /// The wrapped campaign registry (stats, snapshots).
    pub fn registry(&self) -> &CampaignRegistry {
        self.durable.registry()
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn journal_op(&mut self, op: &RouterOp) -> Result<(), ServeError> {
        self.durable.append_aux(OPS_KEY, encode_aux(op)?)
    }

    /// Serves one tenant request: a cache hit answers instantly; a miss
    /// admits `spec` through the durable registry (or joins the family's
    /// in-flight campaign) and the cache is backfilled when it completes.
    ///
    /// Admission sheds surface as [`ServeError::Overloaded`]; the
    /// clustering mutation is journaled before admission, so a shed
    /// request still replays identically. A router whose WAL handle is
    /// dead answers no hits and mutates nothing: a lookup it could not
    /// journal must not advance the cache's LRU clock either.
    pub fn lookup(
        &mut self,
        features: &[f64],
        spec: &CampaignSpec,
    ) -> Result<RouterLookup, ServeError> {
        self.durable.check_alive()?;
        let looked = self.cache.lookup(features);
        self.journal_op(&RouterOp::Lookup {
            features: features.to_vec(),
        })?;
        if let CacheLookup::Hit(hit) = looked {
            return Ok(RouterLookup::Hit(hit));
        }
        let assignment = self.cache.admit_family(features);
        let family = assignment.family as u64;
        if let Some(&campaign) = self.inflight.get(&family) {
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
        self.pending.insert(
            campaign,
            PendingFill {
                family,
                features: features.to_vec(),
            },
        );
        self.inflight.insert(family, campaign);
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
        let mut rounds = 0;
        while self.durable.registry().has_runnable() {
            self.step_round()?;
            rounds += 1;
        }
        Ok(rounds)
    }

    /// Folds every completed-but-pending campaign's best trial into the
    /// cache.
    fn backfill_completed(&mut self) -> Result<(), ServeError> {
        let completed: Vec<u64> = self
            .pending
            .keys()
            .copied()
            .filter(|&id| self.durable.registry().is_finished(id))
            .collect();
        for id in completed {
            self.apply_backfill(id, true)?;
        }
        Ok(())
    }

    /// Applies one backfill. When `journal` is set the op is made
    /// durable *before* the cache mutation: a completed campaign's best
    /// trial is stable, so replaying the op at any later position
    /// re-derives the same fill.
    fn apply_backfill(&mut self, campaign: u64, journal: bool) -> Result<(), ServeError> {
        let Some(fill) = self.pending.get(&campaign).cloned() else {
            return Ok(());
        };
        let best = self
            .durable
            .registry()
            .campaign(campaign)?
            .storage()
            .best()
            .map(|t| (t.config.clone(), t.cost));
        if journal {
            self.journal_op(&RouterOp::Backfill { campaign })?;
        }
        // No best trial (every one crashed, or the campaign was stopped
        // empty) means nothing to cache, but the family's single-flight
        // slot below must still free so a later miss can retry.
        if let Some((config, cost)) = best {
            self.cache
                .insert(fill.family as usize, &fill.features, config, cost);
        }
        self.pending.remove(&campaign);
        if self.inflight.get(&fill.family) == Some(&campaign) {
            self.inflight.remove(&fill.family);
        }
        Ok(())
    }

    /// Re-applies one recovered journal op. Mirrors the live paths with
    /// journaling disabled (the op is already durable).
    fn replay(&mut self, op: RouterOp) -> Result<(), ServeError> {
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
            } => {
                self.pending
                    .insert(campaign, PendingFill { family, features });
                self.inflight.insert(family, campaign);
            }
            RouterOp::Backfill { campaign } => self.apply_backfill(campaign, false)?,
        }
        Ok(())
    }

    fn serve_rounds(&mut self, budget: u64) -> Result<Response, ServeError> {
        let mut run = 0;
        while run < budget && self.durable.registry().has_runnable() {
            self.step_round()?;
            run += 1;
        }
        Ok(Response::Stepped {
            rounds: run,
            n_active: self.durable.registry().n_active() as u64,
        })
    }
}

impl ServeBackend for TenantRouter {
    fn handle_request(
        &mut self,
        req: Request,
        config: &ServerConfig,
    ) -> Result<Response, ServeError> {
        Ok(match req {
            Request::Register { spec, request_id } => Response::Registered {
                id: self.durable.admit_spec(&spec, request_id)?,
            },
            Request::Lookup { features, spec } => match self.lookup(&features, &spec)? {
                RouterLookup::Hit(hit) => Response::CacheHit {
                    family: hit.family as u64,
                    config: hit.config,
                    cost: hit.cost,
                    borrowed: hit.borrowed,
                },
                RouterLookup::Miss { campaign, enqueued } => {
                    Response::CacheMiss { campaign, enqueued }
                }
            },
            Request::Step { rounds } => {
                let budget = u64::from(rounds).min(config.max_rounds_per_request);
                self.serve_rounds(budget)?
            }
            Request::RunAll => self.serve_rounds(config.max_rounds_per_request)?,
            Request::Snapshot { id } => Response::Snapshot {
                snapshot: self.durable.registry().snapshot(id)?,
            },
            Request::Stats { id } => Response::Stats {
                stats: self.durable.registry().stats(id)?,
            },
            Request::FleetStats => Response::Fleet {
                stats: self.durable.registry().fleet_stats(),
            },
            Request::Stop { id } => Response::Stopped {
                was_active: self.durable.stop(id)?,
            },
            Request::Shutdown => Response::Bye,
        })
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
    mut each: impl FnMut(&WalDumpLine) -> Result<(), ServeError>,
) -> Result<u64, ServeError> {
    let mut records = 0;
    scan_wal(dir, |segment, offset, len, record| {
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

/// What [`spawn_router_server`]'s thread yields on join: the final fleet
/// and cache stats, or the error that stopped the server.
type RouterServerHandle = std::thread::JoinHandle<Result<(FleetStats, CacheStats), ServeError>>;

/// Spawns a router server thread over an in-process pipe; the join
/// handle yields the final fleet and cache stats. `builder` runs inside
/// the server thread (campaigns are not `Send`) and may fail — e.g. a
/// WAL directory that refuses to open — which surfaces through the
/// handle.
pub fn spawn_router_server(
    builder: impl FnOnce() -> Result<TenantRouter, ServeError> + Send + 'static,
) -> (Client<PipeEnd>, RouterServerHandle) {
    let (client_end, server_end) = pipe();
    let handle = std::thread::spawn(move || {
        let router = builder()?;
        Server::new(server_end, router)
            .serve()
            .map(|r| (r.registry().fleet_stats(), r.cache_stats()))
    });
    (Client::new(client_end), handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LookupReply;
    use crate::spec::SystemKind;
    use autotune::SchedulePolicy;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "autotune-router-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(name: &str, seed: u64) -> CampaignSpec {
        let mut s = CampaignSpec::minimal(name.to_string(), SystemKind::Redis, 6, seed);
        s.policy = SchedulePolicy::AsyncSlots { k: 2 };
        s
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
        let dir = temp_dir("miss-hit");
        let mut router =
            TenantRouter::create(&dir, 2, WalConfig::default(), tight_config()).unwrap();
        let fp = [3.0, 3.0];
        let out = router.lookup(&fp, &spec("t0", 7)).unwrap();
        let RouterLookup::Miss { campaign, enqueued } = out else {
            panic!("expected miss, got {out:?}");
        };
        assert!(enqueued);
        router.run_all().unwrap();
        assert_eq!(router.pending.len(), 0);
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misses_are_single_flight_per_family() {
        let dir = temp_dir("single-flight");
        let mut router =
            TenantRouter::create(&dir, 1, WalConfig::default(), tight_config()).unwrap();
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_replays_byte_identical_cache_state() {
        let dir = temp_dir("replay");
        let mut router =
            TenantRouter::create(&dir, 2, WalConfig::default(), tight_config()).unwrap();
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
        assert_eq!(router.pending.len(), 1);
        let state = |r: &TenantRouter| {
            (
                serde_json::to_string(&r.cache.snapshot()).unwrap(),
                format!("{:?}", r.pending),
                format!("{:?}", r.inflight),
            )
        };
        let live = state(&router);
        drop(router);
        // The journal is read, never rewritten: a second reopen replays
        // to the same bytes as the first.
        for reopen in 1..=2 {
            let (reopened, report) = TenantRouter::open(&dir, 2, WalConfig::default()).unwrap();
            assert!(report.records_read > 0);
            assert_eq!(state(&reopened), live, "reopen {reopen}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_mid_campaign_resumes_pending_backfill() {
        let dir = temp_dir("mid");
        let mut router =
            TenantRouter::create(&dir, 1, WalConfig::default(), tight_config()).unwrap();
        let fp = [1.0, 1.0];
        router.lookup(&fp, &spec("t0", 3)).unwrap();
        // One round only: the campaign is still live, the fill pending.
        router.step_round().unwrap();
        assert_eq!(router.pending.len(), 1);
        drop(router);
        let (mut reopened, _) = TenantRouter::open(&dir, 1, WalConfig::default()).unwrap();
        assert_eq!(reopened.pending.len(), 1);
        // A repeat miss joins the recovered in-flight campaign.
        assert!(matches!(
            reopened.lookup(&fp, &spec("t0", 3)).unwrap(),
            RouterLookup::Miss {
                enqueued: false,
                ..
            }
        ));
        reopened.run_all().unwrap();
        assert_eq!(reopened.pending.len(), 0);
        assert!(matches!(
            reopened.lookup(&fp, &spec("t0", 3)).unwrap(),
            RouterLookup::Hit(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_miss_replays_consistently() {
        let dir = temp_dir("shed");
        let mut router =
            TenantRouter::create(&dir, 1, WalConfig::default(), tight_config()).unwrap();
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
        let (reopened, _) = TenantRouter::open(&dir, 1, WalConfig::default()).unwrap();
        assert_eq!(reopened.cache_stats().families, families_live);
        assert_eq!(reopened.pending.len(), 1, "only the admitted miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_flows_through_the_protocol() {
        let dir = temp_dir("proto");
        let (mut client, handle) = spawn_router_server(move || {
            TenantRouter::create(&dir, 2, WalConfig::default(), tight_config())
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
        // The budgets sit just above today's sizes (576, 166 and 157
        // bytes), so an encoding that quietly fattens fails here first.
        let dir = temp_dir("budget");
        let mut router =
            TenantRouter::create(&dir, 2, WalConfig::default(), tight_config()).unwrap();
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
        let on_disk = || -> u64 {
            let files = std::fs::read_dir(&dir).unwrap();
            files.map(|f| f.unwrap().metadata().unwrap().len()).sum()
        };
        let before = on_disk();
        let hit = router.handle_request(request, &config).unwrap();
        assert!(matches!(hit, Response::CacheHit { .. }), "{hit:?}");
        let journaled = on_disk() - before;
        assert!(journaled <= 200, "a hit journals {journaled} bytes");
        let reply_len = frame_len(&hit);
        assert!(reply_len <= 170, "a CacheHit frame is {reply_len} bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trial_stays_within_its_wal_byte_budget() {
        // What the log holds of a trial is what a replay cannot recompute
        // (the measurement, its 32-sample series packed: 1 792 bytes) and
        // enough of the rest to tell a divergence by. The budget sits
        // just above today's size (2 407 bytes), so a field that
        // quietly fattens a record fails here and not only in the
        // benchmark's `durability.bytes_per_trial`.
        let dir = temp_dir("trial-budget");
        let mut durable = DurableRegistry::create(&dir, 1, WalConfig::default()).unwrap();
        let spec = CampaignSpec::minimal("tenant-217", SystemKind::Redis, 8, 35_007);
        let id = durable.register_spec(&spec).unwrap();
        let on_disk = || -> u64 {
            let files = std::fs::read_dir(&dir).unwrap();
            files.map(|f| f.unwrap().metadata().unwrap().len()).sum()
        };
        let before = on_disk();
        durable.run_all().unwrap();
        assert_eq!(durable.registry().stats(id).unwrap().n_trials, 8);
        let per_trial = (on_disk() - before) / 8;
        assert!(per_trial <= 2600, "a trial logs {per_trial} bytes");
        let _ = std::fs::remove_dir_all(&dir);
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
