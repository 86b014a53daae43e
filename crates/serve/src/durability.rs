//! Durable, append-only write-ahead log for the campaign fleet: the
//! registry that writes it and the recovery that reads it back.
//!
//! Every tick a campaign runs is appended to the WAL before the round is
//! acknowledged, and [`DurableRegistry::open`] rebuilds the exact fleet
//! from whatever the log holds — including a torn final record from a
//! crash mid-write. Every event is written once: nothing is rewritten,
//! superseded or deleted (a campaign's snapshot *is* its event log, so a
//! checkpoint would only be a second copy of it). The records' framing,
//! their CRC and the [`Storage`] every byte goes through are
//! [`crate::wal`]'s.
//!
//! # Records
//!
//! A record's payload is a [`WalRecord`] in the deterministic CBOR subset
//! the `ciborium` stub writes (the encoding of protocol frames too). A
//! campaign is persisted one way (`Register`, then `Ticks` deltas, then
//! possibly `Stop`) and a layered subsystem one way (`Aux` records). A
//! `Ticks` record holds a campaign's events in their one form,
//! [`CampaignEvent`], encoded from the live event log where it lies into
//! the one buffer the handle keeps; a snapshot holds the same events.
//!
//! Recovery reads segments in order, front to back, and stops at the
//! first record whose header or CRC fails *in the final segment* — that
//! tail is a torn write from the crash and is cut once the log is
//! accepted, not fatal. The same failure in an earlier segment is
//! corruption, [`ServeError::Storage`].
//! So is, in any segment, a record whose length and CRC hold but whose
//! payload does not decode: a torn write cannot produce one, so it is
//! corruption or a foreign format (a log of the JSON era, or one whose
//! `Events` records hold full events), and nothing is cut for it. The
//! `wal_dump` example prints a log as JSON lines ([`crate::dump_wal`]).
//!
//! # Recovery invariant
//!
//! Every `Ticks` record holds whole ticks: events are flushed only after
//! a registry round, which leaves every campaign on a tick boundary, and
//! a record torn by a crash fails its CRC and is dropped whole. So for
//! every campaign its logged `Ticks` are a prefix of its deterministic
//! history that ends on a tick boundary, and the WAL holds the one copy
//! of it: once a round's batch has landed, each campaign drops the events
//! it logged ([`Campaign::drop_logged`]), and a snapshot reads them back
//! from the log ([`DurableRegistry::snapshot`]).
//!
//! Recovery is one forward pass, redo as in ARIES: each `Ticks` record is
//! replayed into its campaign as it is read ([`Campaign::replay_more`],
//! the replay [`Campaign::resume`] runs on a snapshot too), checked and
//! dropped. The logged measurements stand in for the target, the build
//! recomputes every other event, and each must be the logged one bit for
//! bit (a float by its bits; a crashed trial's NaN cost is `None` on both
//! sides). So a reopen holds the fleet it rebuilds and one record, never
//! the log.
//!
//! A *finished* campaign (stopped, or its source ran dry with every
//! suggested trial's outcome logged) is only ever read, and replays with
//! its log standing in for its optimizer ([`LoggedSource`]); its outcome
//! scalars, fault rolls, clock, dispatch flags and event count are still
//! recomputed and compared. The log's last idle suggestion answered
//! `Exhausted` and every earlier one `Wait`, so a campaign's records are
//! held from one that holds an idle suggestion until a later one or the
//! end of the log says which (for a served campaign, whose optimizer
//! never waits, that is its final records). Whether a campaign is
//! finished is known at the end of the log, from counts kept as it is
//! read. An *active* campaign is then rebuilt through its spec's own
//! optimizer from its events, which a second pass over the log reads
//! back (the read a snapshot makes); a divergence in any suggestion,
//! optimizer event or outcome scalar makes `open` fail. A log whose
//! campaigns are all finished takes no second pass. [`verify_wal`]
//! replays every campaign through its optimizer in the one pass, writing
//! nothing. Every refusal is [`ServeError::Campaign`], the first in id
//! order; a storage error wins over any, and recovery writes nothing for
//! either.
//!
//! # Failure model
//!
//! **A handle that could not finish a write is dead.** An `io::Error`
//! from an append or from opening the next segment ends in the private
//! `die`: the first reason is kept, every later call that could append
//! returns it as the same [`ServeError::Storage`] *before* it touches the
//! registry, and only [`DurableRegistry::open`] brings the fleet back. So
//! memory never runs ahead of the acknowledged log, and no record lands
//! behind a torn one.
//!
//! **A process crash** leaves a prefix of the log. The log is only ever
//! appended to, and a run is deterministic, so whatever the kill, the
//! segments hold the log a clean run writes cut after some byte, perhaps
//! followed by a next segment just opened empty
//! ([`crate::MemStorage::crash_after`] leaves such a state). `open` reads
//! each such state back to the records it holds whole, cuts the torn
//! rest, and the fleet then finishes as it would have.
//!
//! **A worker panic** is caught at the `step_round` boundary: the
//! in-memory campaigns are discarded and rebuilt from the WAL, inside the
//! registry that was serving them, through the pass `open` runs.

use crate::registry::{AdmissionConfig, CampaignRegistry, Rounds, ServeError};
use crate::spec::CampaignSpec;
use crate::wal::{encode_record, segment_name, MemStorage, Records, SegmentFiles, Storage};
use crate::ChaosPlan;
use autotune::sync::PoisonFreeMutex;
use autotune::{
    Campaign, CampaignError, CampaignEvent, CampaignSnapshot, OptEvent, SourceStep, TrialOutcome,
    TrialSource,
};
use autotune_linalg::par_map;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One durable WAL record. Written from what it borrows (the live event
/// log, the caller's key and payload), read back owning it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum WalRecord<'a> {
    /// A campaign was admitted: everything needed to rebuild it from
    /// scratch plus the idempotency key that created it.
    Register {
        id: u64,
        name: String,
        spec: Box<CampaignSpec>,
        request_id: Option<u64>,
    },
    /// The whole ticks a campaign ran since its last record: written
    /// from the live log where it lies, read back owned.
    Ticks {
        id: u64,
        events: Cow<'a, [CampaignEvent]>,
    },
    /// The campaign was stopped administratively.
    Stop { id: u64 },
    /// An auxiliary journal record for a subsystem layered on the
    /// registry (e.g. the config-cache router). Records are replayed to
    /// the owner in append order on recovery; the WAL itself does not
    /// interpret `payload`.
    Aux {
        key: Cow<'a, str>,
        #[serde(with = "serde_bytes")]
        payload: Cow<'a, [u8]>,
    },
}

/// WAL sizing.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one exceeds this.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What [`DurableRegistry::open`] found and rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments read.
    pub segments_read: usize,
    /// Valid records replayed.
    pub records_read: u64,
    /// Torn-tail bytes truncated from the final segment.
    pub truncated_bytes: u64,
    /// Campaigns rebuilt.
    pub campaigns: usize,
}

/// A [`CampaignRegistry`] whose state survives `kill -9`: every event
/// is WAL-appended before the round is acknowledged, worker panics are
/// caught and recovered at this boundary, and [`DurableRegistry::open`]
/// rebuilds the fleet byte-identically from disk.
pub struct DurableRegistry {
    registry: CampaignRegistry,
    /// Where the WAL's bytes go and come from.
    storage: Box<dyn Storage>,
    config: WalConfig,
    /// Bytes appended to the open segment.
    seg_bytes: u64,
    /// The batch being written, each record with its header, back to
    /// back: every append encodes into this one buffer.
    buf: Vec<u8>,
    /// Why this handle is dead (written by `die` only): the error every
    /// later call repeats.
    crashed: Option<String>,
}

impl DurableRegistry {
    /// Creates a fresh durable registry writing to `dir` (created if
    /// missing; must not already hold WAL segments).
    pub fn create(
        dir: impl Into<PathBuf>,
        workers: usize,
        config: WalConfig,
    ) -> Result<Self, ServeError> {
        let dir = dir.into();
        let at = dir.display().to_string();
        Self::create_on(Box::new(SegmentFiles::new(dir)), &at, workers, config)
    }

    /// [`DurableRegistry::create`] with the WAL in `device`'s memory,
    /// which must not already hold segments.
    pub fn create_in(
        device: &MemStorage,
        workers: usize,
        config: WalConfig,
    ) -> Result<Self, ServeError> {
        Self::create_on(Box::new(device.clone()), "the device", workers, config)
    }

    /// A fresh registry over `storage`, which holds no segments (`at`
    /// names it if it does).
    fn create_on(
        storage: Box<dyn Storage>,
        at: &str,
        workers: usize,
        config: WalConfig,
    ) -> Result<Self, ServeError> {
        if !storage.segments().map_err(io_err)?.is_empty() {
            return Err(ServeError::Storage(format!(
                "{at} already holds WAL segments; use open"
            )));
        }
        Self::over(storage, config, CampaignRegistry::new(workers))
    }

    /// Rebuilds the fleet from the WAL in `dir`: reads every segment once,
    /// replaying each record into its campaign as it is read, rebuilds the
    /// campaigns still active at the end from a second read (the ones with
    /// a surrogate model side by side), and then cuts a torn tail. The
    /// error is the first refusal in id order, and a refused log keeps its
    /// bytes and gets no new segment. The recovered handle injects no
    /// worker panics.
    /// [`verify_wal`] recomputes what this takes as logged.
    pub fn open(
        dir: impl Into<PathBuf>,
        workers: usize,
        config: WalConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        let files = Box::new(SegmentFiles::new(dir.into()));
        Self::open_on(files, workers, config, |_, _| Ok(())).map(|(s, report, ())| (s, report))
    }

    /// [`DurableRegistry::open`] on the WAL in `device`'s memory.
    pub fn open_in(
        device: &MemStorage,
        workers: usize,
        config: WalConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        let device = Box::new(device.clone());
        Self::open_on(device, workers, config, |_, _| Ok(())).map(|(s, report, ())| (s, report))
    }

    /// [`DurableRegistry::open`] over `storage`, with `accept` judging the
    /// rebuilt fleet and the auxiliary journal it read before anything is
    /// written: a journal `accept` refuses, like a fleet replay refuses,
    /// keeps its torn tail and gets no new segment.
    pub(crate) fn open_on<T>(
        mut storage: Box<dyn Storage>,
        workers: usize,
        config: WalConfig,
        accept: impl FnOnce(&CampaignRegistry, &[(String, Vec<u8>)]) -> Result<T, ServeError>,
    ) -> Result<(Self, RecoveryReport, T), ServeError> {
        let mut aux_log = Vec::new();
        let fleet = read_fleet(&*storage, Rebuild::Open, |key, payload| {
            aux_log.push((key, payload))
        })?;
        let mut registry = CampaignRegistry::new(workers);
        for (id, r) in fleet.campaigns {
            registry.restore_entry(id, r.name, r.replay?, r.stopped, r.records);
            if let Some(rid) = r.request_id {
                registry.restore_request_id(rid, id);
            }
        }
        let accepted = accept(&registry, &aux_log)?;
        // Only now, so a log that replay refuses is left as it was.
        cut_torn_tail(&mut *storage, fleet.torn)?;
        registry.note_fleet_recovery(fleet.report.truncated_bytes);
        let s = Self::over(storage, config, registry)?;
        Ok((s, fleet.report, accepted))
    }

    /// A handle over `registry`, appending to a fresh segment after the
    /// last one `storage` holds.
    fn over(
        mut storage: Box<dyn Storage>,
        config: WalConfig,
        registry: CampaignRegistry,
    ) -> Result<Self, ServeError> {
        storage.open_next().map_err(io_err)?;
        Ok(DurableRegistry {
            registry,
            storage,
            config,
            seg_bytes: 0,
            buf: Vec::new(),
            crashed: None,
        })
    }

    /// Applies admission limits.
    pub fn set_admission(&mut self, admission: AdmissionConfig) {
        self.registry.set_admission(admission);
    }

    /// Arms `plan`'s worker panics while a wave is measured.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.registry.inject_worker_panics(plan);
    }

    /// The wrapped registry (stats, campaign access). Its campaigns
    /// hold no event the WAL holds, so their snapshots are this handle's
    /// ([`DurableRegistry::snapshot`]).
    pub fn registry(&self) -> &CampaignRegistry {
        &self.registry
    }

    /// Snapshots a campaign at its current tick boundary, its log read
    /// back from the WAL, which holds the one copy of every event the
    /// campaign has logged ([`Campaign::snapshot_with`]): one read of the
    /// log. A dead handle refuses, as every call that could append does.
    pub fn snapshot(&self, id: u64) -> Result<CampaignSnapshot, ServeError> {
        self.check_alive()?;
        let campaign = self.registry.campaign(id)?;
        let mut logged = logged_events(&*self.storage, &BTreeSet::from([id]))?;
        let logged = logged.remove(&id).unwrap_or_default();
        Ok(campaign.snapshot_with(logged)?)
    }

    /// Why this handle is dead, if it is: the error every call that
    /// could append now returns.
    pub fn crashed(&self) -> Option<&str> {
        self.crashed.as_deref()
    }

    /// The error every call repeats once the handle is dead. Checked
    /// before a call changes anything in memory.
    pub(crate) fn check_alive(&self) -> Result<(), ServeError> {
        match &self.crashed {
            Some(reason) => Err(ServeError::Storage(reason.clone())),
            None => Ok(()),
        }
    }

    /// Kills the handle: a write did not land and get acknowledged, so
    /// nothing more is until [`DurableRegistry::open`]. The first reason
    /// is kept; the error returned is the one `check_alive` repeats.
    fn die(&mut self, why: String) -> ServeError {
        let reason = self
            .crashed
            .get_or_insert_with(|| why + "; reopen from the WAL");
        ServeError::Storage(reason.clone())
    }

    /// Admission-controlled, WAL-backed registration. The campaign is
    /// durable before the id is returned; a crash or failed write in
    /// between kills the handle and the client's idempotent retry lands
    /// on the recovered fleet without double-creating.
    pub fn admit_spec(
        &mut self,
        spec: &CampaignSpec,
        request_id: Option<u64>,
    ) -> Result<u64, ServeError> {
        self.check_alive()?;
        let known = self.registry.len();
        let id = self.registry.admit_spec(spec, request_id)?;
        if self.registry.len() == known {
            // An idempotent retry of a logged registration.
            return Ok(id);
        }
        self.log_register(id, spec, request_id)
    }

    /// Registers without admission control or idempotency key, as
    /// [`CampaignRegistry::register_spec`] does; WAL-backed like
    /// [`DurableRegistry::admit_spec`].
    pub fn register_spec(&mut self, spec: &CampaignSpec) -> Result<u64, ServeError> {
        self.check_alive()?;
        let id = self.registry.register_spec(spec);
        self.log_register(id, spec, None)
    }

    /// Makes the registration the registry just took durable; the id is
    /// returned once its `Register` record has landed.
    fn log_register(
        &mut self,
        id: u64,
        spec: &CampaignSpec,
        request_id: Option<u64>,
    ) -> Result<u64, ServeError> {
        self.append(&WalRecord::Register {
            id,
            name: spec.name.clone(),
            spec: Box::new(spec.clone()),
            request_id,
        })?;
        self.registry.note_wal_appends(id, 1);
        Ok(id)
    }

    /// Appends one auxiliary journal record under `key`, durable before
    /// return. Subsystems layered on the registry (the config-cache
    /// router) journal their operations here and replay them in order
    /// as they reopen ([`crate::TenantRouter::open`]). Nothing is
    /// retained in memory.
    pub fn append_aux(&mut self, key: &str, payload: impl Into<Vec<u8>>) -> Result<(), ServeError> {
        self.check_alive()?;
        self.append(&WalRecord::Aux {
            key: Cow::Borrowed(key),
            payload: Cow::Owned(payload.into()),
        })
    }

    /// Stops a campaign, durably.
    pub fn stop(&mut self, id: u64) -> Result<bool, ServeError> {
        self.check_alive()?;
        let was_active = self.registry.stop(id)?;
        self.append(&WalRecord::Stop { id })?;
        self.registry.note_wal_appends(id, 1);
        Ok(was_active)
    }

    /// One scheduling round with durability: the round runs, its new
    /// events are WAL-appended, and only then is the round
    /// acknowledged. A worker panic is caught here; the suspect
    /// in-memory campaigns are discarded and rebuilt from the WAL
    /// (losing only the unacknowledged round, whose ticks re-execute
    /// identically). Returns whether the round was lost to such a
    /// recovery. A dead handle refuses before the round runs.
    pub fn step_round(&mut self) -> Result<bool, ServeError> {
        self.check_alive()?;
        match self.guarded_round() {
            Ok(round) => {
                round?;
                self.flush_events()?;
                Ok(false)
            }
            Err(_) => {
                self.recover_in_place()?;
                Ok(true)
            }
        }
    }

    /// One registry round with worker panics caught at the round
    /// boundary; `Err` carries the panic's own payload.
    fn guarded_round(&mut self) -> std::thread::Result<Result<(), ServeError>> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.registry.step_round()))
    }

    /// Runs rounds until the fleet drains; returns rounds executed
    /// (recoveries count as rounds).
    pub fn run_all(&mut self) -> Result<u64, ServeError> {
        self.check_alive()?;
        self.run_rounds(u64::MAX)
    }

    /// Seals the open segment: later appends go to a fresh one. Nothing
    /// is rewritten or deleted (the log already holds every event once),
    /// so this is a rotation and nothing else.
    pub fn checkpoint(&mut self) -> Result<(), ServeError> {
        self.check_alive()?;
        self.rotate_segment()
    }

    /// Appends every campaign's new events (whole ticks: a round leaves
    /// every campaign on a tick boundary), encoded from the live log
    /// where it lies: one `Ticks` record a campaign, in id order, back to
    /// back in the handle's buffer, written as one batch
    /// ([`DurableRegistry::write_batch`]). Once the batch has landed, each
    /// campaign books the append and drops the events
    /// ([`Campaign::drop_logged`]): the WAL holds the one copy, so a
    /// campaign's log in memory is exactly what no record holds yet.
    fn flush_events(&mut self) -> Result<(), ServeError> {
        self.buf.clear();
        let ids = self.registry.ids();
        let mut ends = Vec::new();
        for &id in &ids {
            let campaign = self.registry.campaign(id)?;
            let events = match campaign.log() {
                Some(log) if !log.is_empty() => Cow::Borrowed(log),
                _ => continue,
            };
            let encoded = encode_record(&WalRecord::Ticks { id, events }, &mut self.buf);
            if let Err(why) = encoded {
                return Err(self.die(why));
            }
            ends.push(self.buf.len());
        }
        self.write_batch(&ends)?;
        for id in ids {
            if self.registry.drop_logged(id) {
                self.registry.note_wal_appends(id, 1);
            }
        }
        Ok(())
    }

    /// Discards every in-memory campaign after a worker panic and swaps
    /// in its rebuild from the WAL — quarantine-and-restart-from-snapshot
    /// at the round boundary. The registry stays, and with it the round
    /// counter (round-keyed panic rolls never re-fire), admission, credit
    /// and accounting. The panicked round was never acknowledged, so the
    /// rebuilt campaigns re-execute its ticks identically.
    fn recover_in_place(&mut self) -> Result<(), ServeError> {
        let fleet = read_fleet(&*self.storage, Rebuild::Open, |_, _| {})?;
        for (id, r) in fleet.campaigns {
            self.registry.replace_campaign(id, r.replay?)?;
        }
        cut_torn_tail(&mut *self.storage, fleet.torn)?;
        self.registry
            .note_fleet_recovery(fleet.report.truncated_bytes);
        Ok(())
    }

    /// Appends one record: a batch of one ([`DurableRegistry::write_batch`]).
    fn append(&mut self, record: &WalRecord) -> Result<(), ServeError> {
        self.buf.clear();
        encode_record(record, &mut self.buf).map_err(|why| self.die(why))?;
        self.write_batch(&[self.buf.len()])
    }

    /// Appends the records [`encode_record`] left back to back in the
    /// handle's buffer, record `i` ending at `ends[i]`: one append for each
    /// segment the batch touches. The segment rotates after any record
    /// that takes it to `segment_bytes`, so every record lands where an
    /// append of its own would put it. `Err` means the handle is dead, and
    /// an unknown prefix of the batch landed, none of it acknowledged.
    fn write_batch(&mut self, ends: &[usize]) -> Result<(), ServeError> {
        // Bytes `start..` are not written yet; the next record starts at
        // `begin`.
        let (mut start, mut begin) = (0, 0);
        for &end in ends {
            self.seg_bytes += (end - begin) as u64;
            begin = end;
            if self.seg_bytes >= self.config.segment_bytes {
                self.write_out(start, end)?;
                start = end;
                self.rotate_segment()?;
            }
        }
        self.write_out(start, begin)
    }

    /// Appends `buf[start..end]` to the open segment in one call; an
    /// append that fails kills the handle.
    fn write_out(&mut self, start: usize, end: usize) -> Result<(), ServeError> {
        let written = self.storage.append(&self.buf[start..end]);
        written.map_err(|e| self.die(format!("WAL write failed: {e}")))
    }

    fn rotate_segment(&mut self) -> Result<(), ServeError> {
        let opened = self.storage.open_next();
        opened.map_err(|e| self.die(format!("the next WAL segment would not open: {e}")))?;
        self.seg_bytes = 0;
        Ok(())
    }
}

impl Rounds for DurableRegistry {
    fn registry(&self) -> &CampaignRegistry {
        &self.registry
    }

    fn round(&mut self) -> Result<(), ServeError> {
        self.step_round().map(drop)
    }
}

/// How the forward pass over a WAL rebuilds its campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rebuild {
    /// What `open` and worker-panic recovery keep: a finished campaign
    /// replays with its log as its optimizer ([`LoggedSource`]), an active
    /// one through its spec's own optimizer, and a torn tail of the final
    /// segment is reported for the caller to cut.
    Open,
    /// What [`verify_wal`] checks: every campaign replays through its
    /// spec's own optimizer, and a torn record anywhere is refused.
    Verify,
}

/// The running counts of a campaign's logged events that decide whether
/// it is [`Reading::finished`] once the log ends.
#[derive(Debug, Default)]
struct Tally {
    suggested: u64,
    outcomes: u64,
    /// Whether the last `SuggestEnd` so far dispatched.
    last_dispatched: Option<bool>,
    /// Whether an `Opt` `SurrogateRefit` or `ModelUpdate` was logged: the
    /// events whose counters [`Campaign::has_model`] reads once the
    /// campaign is rebuilt.
    model: bool,
}

impl Tally {
    fn add(&mut self, events: &[CampaignEvent]) {
        for e in events {
            match e {
                CampaignEvent::Suggested { .. } => self.suggested += 1,
                CampaignEvent::Outcome { .. } => self.outcomes += 1,
                CampaignEvent::Opt { event } => match event {
                    OptEvent::SuggestEnd { dispatched, .. } => {
                        self.last_dispatched = Some(*dispatched);
                    }
                    OptEvent::SurrogateRefit { .. } | OptEvent::ModelUpdate { .. } => {
                        self.model = true;
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }

    /// Whether the logged source ran dry (the last `SuggestEnd` did not
    /// dispatch) with every suggested trial's outcome logged.
    fn drained(&self) -> bool {
        self.last_dispatched == Some(false) && self.suggested == self.outcomes
    }
}

/// Whether `e` is a `SuggestEnd` that did not dispatch.
fn is_idle(e: &CampaignEvent) -> bool {
    matches!(
        e,
        CampaignEvent::Opt {
            event: OptEvent::SuggestEnd {
                dispatched: false,
                ..
            }
        }
    )
}

/// One campaign as the forward pass reads its records: its `Register`,
/// the counts of what it logged, and its replay so far, one `Ticks`
/// record at a time, each dropped once replayed.
struct Reading {
    name: String,
    spec: Box<CampaignSpec>,
    request_id: Option<u64>,
    stopped: bool,
    records: u64,
    tally: Tally,
    /// The replay so far, or the refusal that ended it.
    replay: Result<Campaign<'static>, CampaignError>,
    /// The calls its [`LoggedSource`] answers next, when it replays from
    /// its log.
    feed: Option<Feed>,
    /// The records from the one that holds the latest idle `SuggestEnd`
    /// on, not replayed yet: whether that one answered `Wait` or
    /// `Exhausted` is known only once a later idle `SuggestEnd` or the
    /// end of the log comes.
    held: Vec<Vec<CampaignEvent>>,
}

impl Reading {
    fn new(mode: Rebuild, name: String, spec: Box<CampaignSpec>, request_id: Option<u64>) -> Self {
        let (replay, feed) = match mode {
            Rebuild::Verify => (spec.build(), None),
            Rebuild::Open => {
                let feed = Feed::default();
                let calls = Arc::clone(&feed.calls);
                let source = |_: &_| -> Box<dyn TrialSource> { Box::new(LoggedSource::new(calls)) };
                (spec.build_with(source), Some(feed))
            }
        };
        Reading {
            name,
            spec,
            request_id,
            stopped: false,
            records: 1,
            tally: Tally::default(),
            replay: Ok(replay),
            feed,
            held: Vec::new(),
        }
    }

    /// Takes the campaign's next `Ticks` record: replays it now, or holds
    /// it while an idle `SuggestEnd` before it waits for its answer.
    fn ticks(&mut self, events: Vec<CampaignEvent>) {
        self.records += 1;
        self.tally.add(&events);
        if self.feed.is_some() {
            let idle = events.iter().any(is_idle);
            if idle {
                // A later idle `SuggestEnd`: the held one answered `Wait`.
                self.release(false);
            }
            if idle || !self.held.is_empty() {
                self.held.push(events);
                return;
            }
        }
        self.replay_record(&events, false);
    }

    /// Replays the held records, the last idle `SuggestEnd` among them
    /// answered `Exhausted` at the end of the log, `Wait` before it.
    fn release(&mut self, at_end: bool) {
        for events in std::mem::take(&mut self.held) {
            self.replay_record(&events, at_end);
        }
    }

    /// Replays one record into the campaign ([`Campaign::replay_more`])
    /// and drops its events; a refusal ends the replay.
    fn replay_record(&mut self, events: &[CampaignEvent], at_end: bool) {
        let Ok(campaign) = &mut self.replay else {
            return;
        };
        if let Some(feed) = &mut self.feed {
            feed.push(events, at_end);
        }
        match campaign.replay_more(events) {
            Ok(()) => campaign.drop_logged(),
            Err(e) => self.replay = Err(e),
        }
    }

    /// Whether the campaign will never call its trial source again: its
    /// entry is stopped, or its log is [`Tally::drained`], so there is
    /// nothing left to suggest or to report.
    fn finished(&self) -> bool {
        self.stopped || self.tally.drained()
    }
}

/// What one forward pass over the WAL read and rebuilt.
struct Fleet {
    /// Every registered campaign in id order, each with its rebuild or
    /// the refusal that ended it.
    campaigns: BTreeMap<u64, Reading>,
    report: RecoveryReport,
    /// The final segment's number and clean length, when a torn tail
    /// follows: the cut [`cut_torn_tail`] makes once the log is accepted.
    torn: Option<(u64, u64)>,
}

/// Reads the WAL in `storage` front to back once, replaying each
/// `Ticks` record into its campaign as it is read ([`Reading`]) and
/// handing `aux` every auxiliary journal record in append order; writes
/// nothing. A torn tail of the final segment is reported for the caller
/// to cut under [`Rebuild::Open`] ([`Fleet::torn`]); anywhere else, and
/// anywhere at all under [`Rebuild::Verify`], it is corruption and
/// refused. A storage error ends the read; a replay refusal only ends
/// its campaign's replay, so storage errors win over refusals.
///
/// Under [`Rebuild::Open`] the campaigns still active at the end are then
/// rebuilt through their own optimizer from their events, which a second
/// pass reads back ([`logged_events`]): the ones that announce a
/// surrogate model re-run every GP fit, milliseconds a trial, so they
/// replay side by side through `par_map`, one thread each (one alone
/// stays on the caller, where its GP's own `par_map` keeps the second
/// core); the rest replay on the caller, a random search in
/// microseconds a trial, less than a spawn. A log whose campaigns are
/// all finished takes no second pass.
fn read_fleet(
    storage: &dyn Storage,
    mode: Rebuild,
    mut aux: impl FnMut(String, Vec<u8>),
) -> Result<Fleet, ServeError> {
    let segments = written_segments(storage)?;
    let mut report = RecoveryReport {
        segments_read: segments.len(),
        ..RecoveryReport::default()
    };
    let last = segments.last().copied();
    let mut campaigns: BTreeMap<u64, Reading> = BTreeMap::new();
    let mut torn_tail = None;
    for n in segments {
        let (clean, torn) = read_segment(storage, n, |_, _, record| {
            report.records_read += 1;
            match record {
                WalRecord::Register {
                    id,
                    name,
                    spec,
                    request_id,
                } => {
                    campaigns.insert(id, Reading::new(mode, name, spec, request_id));
                }
                WalRecord::Ticks { id, events } => {
                    if let Some(r) = campaigns.get_mut(&id) {
                        r.ticks(events.into_owned());
                    }
                }
                WalRecord::Stop { id } => {
                    if let Some(r) = campaigns.get_mut(&id) {
                        r.stopped = true;
                        r.records += 1;
                    }
                }
                WalRecord::Aux { key, payload } => aux(key.into_owned(), payload.into_owned()),
            }
            Ok(())
        })?;
        if torn > 0 {
            if mode == Rebuild::Verify {
                return Err(torn_record(n, clean));
            }
            if Some(n) != last {
                return Err(ServeError::Storage(format!(
                    "corrupt record mid-WAL in {} (not the final segment)",
                    segment_name(n)
                )));
            }
            report.truncated_bytes += torn;
            torn_tail = Some((n, clean));
        }
    }
    report.campaigns = campaigns.len();
    for r in campaigns.values_mut() {
        r.release(true);
    }
    if mode == Rebuild::Open {
        rebuild_active(storage, &mut campaigns)?;
    }
    Ok(Fleet {
        campaigns,
        report,
        torn: torn_tail,
    })
}

/// Rebuilds every campaign of `campaigns` that is not
/// [`Reading::finished`] through its spec's own optimizer, from its
/// events as a second pass reads them back (see [`read_fleet`]).
fn rebuild_active(
    storage: &dyn Storage,
    campaigns: &mut BTreeMap<u64, Reading>,
) -> Result<(), ServeError> {
    let active: BTreeSet<u64> = campaigns
        .iter()
        .filter(|(_, r)| !r.finished())
        .map(|(id, _)| *id)
        .collect();
    if active.is_empty() {
        return Ok(());
    }
    let mut logs = logged_events(storage, &active)?;
    let mut model = Vec::new();
    for (id, r) in campaigns
        .iter()
        .filter(|(id, r)| active.contains(id) && r.tally.model)
    {
        model.push((*id, &*r.spec, logs.remove(id).unwrap_or_default()));
    }
    let side_by_side = par_map(&model, 2, |_, (id, spec, events)| {
        (*id, rebuild(spec, events))
    });
    drop(model);
    for (id, rebuilt) in side_by_side {
        if let Some(r) = campaigns.get_mut(&id) {
            r.replay = rebuilt;
        }
    }
    for (id, events) in logs {
        if let Some(r) = campaigns.get_mut(&id) {
            r.replay = rebuild(&r.spec, &events);
        }
    }
    Ok(())
}

/// Replays a campaign's logged events into a fresh build of its spec
/// ([`Campaign::replay`]) and drops them: the log ends on a tick
/// boundary, so the rebuilt campaign is where the logged one stood.
fn rebuild(
    spec: &CampaignSpec,
    logged: &[CampaignEvent],
) -> Result<Campaign<'static>, CampaignError> {
    let mut campaign = Campaign::replay(spec.build(), logged)?;
    campaign.drop_logged();
    Ok(campaign)
}

/// The events of each campaign of `ids` that the WAL in `storage` holds,
/// in log order, read front to back and up to a torn tail, if one
/// follows: what a campaign that dropped its logged events
/// ([`Campaign::drop_logged`]) has logged.
fn logged_events(
    storage: &dyn Storage,
    ids: &BTreeSet<u64>,
) -> Result<BTreeMap<u64, Vec<CampaignEvent>>, ServeError> {
    let mut logs: BTreeMap<u64, Vec<CampaignEvent>> =
        ids.iter().map(|&id| (id, Vec::new())).collect();
    for n in written_segments(storage)? {
        read_segment(storage, n, |_, _, record| {
            if let WalRecord::Ticks { id, events } = record {
                if let Some(log) = logs.get_mut(&id) {
                    log.extend(events.into_owned());
                }
            }
            Ok(())
        })?;
    }
    Ok(logs)
}

/// The source calls a [`LoggedSource`] answers next, in call order.
type Calls = Arc<Mutex<VecDeque<LoggedCall>>>;

/// What the forward pass tells a [`LoggedSource`], one record at a time.
#[derive(Default)]
struct Feed {
    calls: Calls,
    /// The model counters after the last call queued.
    refits: usize,
    updates: usize,
}

impl Feed {
    /// Queues the source calls `events` record: per `SuggestEnd`, what
    /// `next` answered (an idle one `Wait`, the last idle one `Exhausted`
    /// when `at_end`), per `ObserveEnd` a `report`; each call's model
    /// counters are what the `SurrogateRefit`/`ModelUpdate` events after
    /// it announce.
    fn push(&mut self, events: &[CampaignEvent], at_end: bool) {
        let mut requests = events.iter().filter_map(|e| match e {
            CampaignEvent::Suggested { request, .. } => Some(request),
            _ => None,
        });
        let last_idle = events.iter().rposition(is_idle);
        let mut calls = self.calls.plock();
        for (i, e) in events.iter().enumerate() {
            let CampaignEvent::Opt { event } = e else {
                continue;
            };
            let next = match *event {
                OptEvent::SuggestEnd {
                    dispatched: true, ..
                } => Some(match requests.next() {
                    Some(request) => SourceStep::Dispatch(request.clone()),
                    None => SourceStep::Exhausted,
                }),
                OptEvent::SuggestEnd { .. } if at_end && last_idle == Some(i) => {
                    Some(SourceStep::Exhausted)
                }
                OptEvent::SuggestEnd { .. } => Some(SourceStep::Wait),
                OptEvent::ObserveEnd { .. } => None,
                OptEvent::SurrogateRefit { n_refits, .. } => {
                    self.refits = n_refits;
                    if let Some(call) = calls.back_mut() {
                        call.refits = n_refits;
                    }
                    continue;
                }
                OptEvent::ModelUpdate { n_updates, .. } => {
                    self.updates = n_updates;
                    if let Some(call) = calls.back_mut() {
                        call.updates = n_updates;
                    }
                    continue;
                }
                _ => continue,
            };
            calls.push_back(LoggedCall {
                next,
                refits: self.refits,
                updates: self.updates,
            });
        }
    }
}

/// A finished campaign's optimizer played back from its log, the way
/// the logged measurements stand in for its target: `next` answers each
/// logged suggestion in order as its [`Feed`] queued it, `report` learns
/// nothing, and after each call the model counters read what the log's
/// `SurrogateRefit`/`ModelUpdate` events announced after it. A log that
/// lies about its own shape runs the answers out of step, and the
/// replay refuses the events that come out.
struct LoggedSource {
    /// One entry per source call the log records, in call order: a
    /// `SuggestEnd` (what `next` answered) or an `ObserveEnd` (`None`).
    calls: Calls,
    refits: usize,
    updates: usize,
}

struct LoggedCall {
    next: Option<SourceStep>,
    refits: usize,
    updates: usize,
}

impl LoggedSource {
    fn new(calls: Calls) -> Self {
        LoggedSource {
            calls,
            refits: 0,
            updates: 0,
        }
    }

    /// The next logged call, its counters now the source's.
    fn call(&mut self) -> Option<SourceStep> {
        let call = self.calls.plock().pop_front()?;
        (self.refits, self.updates) = (call.refits, call.updates);
        call.next
    }
}

impl TrialSource for LoggedSource {
    fn next(&mut self, _rng: &mut dyn RngCore) -> SourceStep {
        self.call().unwrap_or(SourceStep::Exhausted)
    }

    fn report(&mut self, _outcome: &TrialOutcome) {
        self.call();
    }

    fn n_refits(&self) -> usize {
        self.refits
    }

    fn n_model_updates(&self) -> usize {
        self.updates
    }
}

/// Checks the WAL in `dir` the way [`DurableRegistry::open`] checks an
/// active campaign, for every campaign, writing nothing: a torn or
/// undecodable record is refused wherever it sits (as [`crate::dump_wal`]
/// does), and **every** campaign replays through its spec's own
/// optimizer, finished ones included (which `open` takes as logged). The
/// error is the first refusal in id order.
pub fn verify_wal(dir: &Path) -> Result<RecoveryReport, ServeError> {
    verify(&SegmentFiles::new(dir.into()))
}

/// [`verify_wal`] on the WAL in `storage`.
pub(crate) fn verify(storage: &dyn Storage) -> Result<RecoveryReport, ServeError> {
    let fleet = read_fleet(storage, Rebuild::Verify, |_, _| {})?;
    for r in fleet.campaigns.into_values() {
        r.replay?;
    }
    Ok(fleet.report)
}

/// Cuts the torn tail [`read_fleet`] found, if it found one, so later
/// appends start at a clean record boundary.
fn cut_torn_tail(storage: &mut dyn Storage, torn: Option<(u64, u64)>) -> Result<(), ServeError> {
    match torn {
        Some((n, clean)) => storage.cut(n, clean).map_err(io_err),
        None => Ok(()),
    }
}

/// The one WAL reader: streams segment `n` front to back, one record at
/// a time ([`Records`]), and hands `each` every record, decoded where it
/// lies in the reader's window, with its byte offset and payload length,
/// until the bytes run out or a record fails its header/CRC check.
/// Returns the clean byte count and how many bytes follow it; what such
/// a tail means is the caller's call, and nothing is written here. A
/// record whose CRC holds but whose payload does not decode ends the
/// walk with [`ServeError::Storage`] (see the module docs).
fn read_segment(
    storage: &dyn Storage,
    n: u64,
    mut each: impl FnMut(usize, usize, WalRecord<'static>) -> Result<(), ServeError>,
) -> Result<(u64, u64), ServeError> {
    let mut records = Records::new(storage.read(n).map_err(io_err)?);
    loop {
        let at = records.at();
        let Some(payload) = records.next_record().map_err(io_err)? else {
            break;
        };
        let record: WalRecord = ciborium::from_slice(payload).map_err(|why| {
            ServeError::Storage(format!(
                "undecodable record in {} at offset {at}: its length and CRC hold, so this is \
                 corruption or a foreign format (a log of an earlier build?), not a torn write, \
                 and nothing was truncated: {why}",
                segment_name(n)
            ))
        })?;
        each(at as usize, payload.len(), record)?;
    }
    Ok((records.at(), records.rest()))
}

/// Reads the WAL in `storage` front to back for inspection, handing
/// `each` every record with its segment number, byte offset in the
/// segment and payload length. Unlike recovery it heals nothing: the
/// first record that is torn, fails its CRC or does not decode ends the
/// scan with [`ServeError::Storage`], wherever it sits, and nothing is
/// written.
pub(crate) fn scan_wal(
    storage: &dyn Storage,
    mut each: impl FnMut(u64, usize, usize, WalRecord<'static>) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    for n in written_segments(storage)? {
        let (clean, torn) = read_segment(storage, n, |at, len, record| each(n, at, len, record))?;
        if torn > 0 {
            return Err(torn_record(n, clean));
        }
    }
    Ok(())
}

/// The segments of a WAL that must exist: a storage without any holds
/// no log.
fn written_segments(storage: &dyn Storage) -> Result<Vec<u64>, ServeError> {
    let segments = storage.segments().map_err(io_err)?;
    if segments.is_empty() {
        return Err(ServeError::Storage("no WAL segments to read".into()));
    }
    Ok(segments)
}

/// The refusal of a read that heals nothing, for the bytes of segment
/// `n` from offset `clean` on.
fn torn_record(n: u64, clean: u64) -> ServeError {
    ServeError::Storage(format!(
        "torn or corrupt record in {} at offset {clean}",
        segment_name(n)
    ))
}

fn io_err(e: std::io::Error) -> ServeError {
    ServeError::Storage(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::{event_log, standalone_runs};
    use crate::spec::{NoiseSpec, OptimizerKind, SystemKind};
    use crate::wal::tests::{record_at, temp_dir};
    use crate::wal::{crc32, WINDOW};
    use autotune::{SchedulePolicy, TrialRequest};
    use autotune_sim::{FaultPlan, NoiseConfig};
    use std::io::Write;
    use std::sync::Arc;

    fn spec(i: u64) -> CampaignSpec {
        let mut s = CampaignSpec::minimal(format!("c{i}"), SystemKind::Redis, 6, 300 + i);
        s.policy = SchedulePolicy::AsyncSlots { k: 2 };
        s
    }

    fn straight_history(s: &CampaignSpec) -> String {
        let mut c = s.build();
        c.run();
        c.storage().to_json()
    }

    fn history(d: &DurableRegistry, id: u64) -> String {
        d.registry().campaign(id).unwrap().storage().to_json()
    }

    const SMALL_SEGMENTS: WalConfig = WalConfig {
        segment_bytes: 4 * 1024,
    };

    /// Registers `specs` and runs the fleet dry, one call at a time.
    fn drive(wal: &MemStorage, specs: &[CampaignSpec], config: WalConfig) -> DurableRegistry {
        let mut durable = DurableRegistry::create_in(wal, 2, config).unwrap();
        for s in specs {
            durable.register_spec(s).unwrap();
        }
        while durable.registry().has_runnable() {
            durable.step_round().unwrap();
        }
        durable
    }

    /// Reopens `wal` and finishes it ([`finish`]).
    fn recover_and_finish(
        wal: &MemStorage,
        specs: &[CampaignSpec],
        config: WalConfig,
    ) -> Vec<String> {
        finish(DurableRegistry::open_in(wal, 2, config).unwrap().0, specs)
    }

    /// Retries on `recovered` the registrations of `specs` its log lost,
    /// runs the fleet dry and returns every history in spec order.
    fn finish(mut recovered: DurableRegistry, specs: &[CampaignSpec]) -> Vec<String> {
        for s in &specs[recovered.registry().len()..] {
            recovered.register_spec(s).unwrap();
        }
        recovered.run_all().unwrap();
        let ids = recovered.registry().ids();
        ids.into_iter().map(|id| history(&recovered, id)).collect()
    }

    #[test]
    fn wal_round_trip_rebuilds_identical_fleet() {
        let wal = MemStorage::default();
        let specs: Vec<CampaignSpec> = (0..4).map(spec).collect();
        let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| durable.register_spec(s).unwrap())
            .collect();
        for _ in 0..5 {
            durable.step_round().unwrap();
        }
        let live: Vec<String> = ids.iter().map(|id| history(&durable, *id)).collect();
        drop(durable);
        let (mut recovered, report) =
            DurableRegistry::open_in(&wal, 2, WalConfig::default()).unwrap();
        assert_eq!(report.campaigns, 4);
        assert_eq!(report.truncated_bytes, 0);
        for (id, want) in ids.iter().zip(&live) {
            assert_eq!(
                &history(&recovered, *id),
                want,
                "campaign {id} diverged across reopen"
            );
        }
        // And the recovered fleet finishes to the straight-run history.
        recovered.run_all().unwrap();
        for (id, s) in ids.iter().zip(&specs) {
            assert_eq!(
                history(&recovered, *id),
                straight_history(s),
                "campaign {id} final history"
            );
        }
        assert!(recovered.registry().fleet_stats().recoveries >= 1);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let wal = MemStorage::default();
        let specs: Vec<CampaignSpec> = (0..2).map(spec).collect();
        let mut durable = DurableRegistry::create_in(&wal, 1, WalConfig::default()).unwrap();
        for s in &specs {
            durable.register_spec(s).unwrap();
        }
        for _ in 0..3 {
            durable.step_round().unwrap();
        }
        drop(durable);
        // Tear the last segment by hand: append garbage half-record.
        let mut segments = wal.contents();
        segments.last_mut().unwrap().1.extend([0x55u8; 13]);
        wal.set_contents(segments);
        let (recovered, report) = DurableRegistry::open_in(&wal, 1, WalConfig::default()).unwrap();
        assert_eq!(report.truncated_bytes, 13);
        assert_eq!(report.campaigns, 2);
        assert_eq!(recovered.registry().fleet_stats().wal_truncated_bytes, 13);
        // The file is clean again: a second open sees no torn bytes.
        drop(recovered);
        let (_, report2) = DurableRegistry::open_in(&wal, 1, WalConfig::default()).unwrap();
        assert_eq!(report2.truncated_bytes, 0);
    }

    #[test]
    fn undecodable_record_is_refused_and_nothing_is_truncated() {
        // A record whose length and CRC hold but whose payload is no
        // `WalRecord` (here: a record of the JSON era) was not torn by a
        // crash. Treated as a torn tail it would be cut off, and a whole
        // JSON-era log would be cut to zero bytes; instead `open` fails
        // and every file keeps its length.
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 1, WalConfig::default()).unwrap();
        durable.register_spec(&spec(0)).unwrap();
        durable.step_round().unwrap();
        drop(durable);
        let mut segments = wal.contents();
        let (last, bytes) = segments.last_mut().unwrap();
        let clean_len = bytes.len();
        let payload = b"{\"Stop\":{\"id\":0}}";
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        let name = segment_name(*last);
        wal.set_contents(segments);
        let before = wal.contents();
        match DurableRegistry::open_in(&wal, 1, WalConfig::default()) {
            Err(ServeError::Storage(msg)) => {
                assert!(
                    msg.contains(&name) && msg.contains(&format!("offset {clean_len}")),
                    "the error does not say where: {msg}"
                );
            }
            Err(e) => panic!("not a storage error: {e}"),
            Ok(_) => panic!("a log with an undecodable record opened"),
        }
        assert!(wal.contents() == before, "open wrote to a log it refused");
    }

    #[test]
    fn aux_journal_survives_reopen_and_rotation() {
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 1, SMALL_SEGMENTS).unwrap();
        durable.register_spec(&spec(0)).unwrap();
        // Payloads are the owner's bytes, text or not.
        let journal = [
            ("router", &b"{\"op\":1}"[..]),
            ("other", &[]),
            ("router", &[0xff, 0x00, 0xc3, 0x28]),
        ]
        .map(|(key, payload)| (key.to_string(), payload.to_vec()));
        for (i, (key, payload)) in journal.iter().enumerate() {
            if i == 2 {
                // The campaign's events roll the log over before the last op.
                durable.run_all().unwrap();
                assert!(wal.contents().len() > 2, "the log never rotated");
            }
            durable.append_aux(key, payload.clone()).unwrap();
        }
        drop(durable);
        let reopen =
            DurableRegistry::open_on(Box::new(wal.clone()), 1, SMALL_SEGMENTS, |_, aux| {
                Ok(aux.to_vec())
            });
        assert_eq!(reopen.unwrap().2, journal);
    }

    #[test]
    fn worker_panics_recover_at_the_pool_boundary() {
        let wal = MemStorage::default();
        let specs: Vec<CampaignSpec> = (0..3).map(spec).collect();
        let want: Vec<String> = specs.iter().map(straight_history).collect();
        let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| durable.register_spec(s).unwrap())
            .collect();
        durable.set_chaos(ChaosPlan::new(77).with_worker_panics(0.15));
        // The first injected panic, caught by hand at the boundary
        // `step_round` guards: the payload is the worker's own message,
        // not an opaque `Any` from the pool.
        let payload = loop {
            assert!(durable.registry().has_runnable(), "panic plan never fired");
            match durable.guarded_round() {
                Ok(round) => {
                    round.unwrap();
                    durable.flush_events().unwrap();
                }
                Err(payload) => break payload,
            }
        };
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            msg.starts_with("chaos: injected worker panic (round ") && msg.contains(", campaign "),
            "payload lost its message: {msg}"
        );
        durable.recover_in_place().unwrap();
        let mut recoveries = 1;
        let mut guard = 0;
        while durable.registry().has_runnable() {
            if durable.step_round().unwrap() {
                recoveries += 1;
            }
            guard += 1;
            assert!(guard < 10_000, "fleet failed to converge under panics");
        }
        assert!(recoveries > 0, "panic plan at 15% never fired");
        assert_eq!(durable.registry().fleet_stats().recoveries, recoveries);
        // Each recovery is booked on the one campaign whose wave panicked.
        let booked = |id| durable.registry().stats(id).unwrap().recoveries;
        assert_eq!(ids.iter().copied().map(booked).sum::<u64>(), recoveries);
        for (id, want) in ids.iter().zip(&want) {
            assert_eq!(
                &history(&durable, *id),
                want,
                "campaign {id} diverged across panic recovery"
            );
        }
    }

    #[test]
    fn panic_recovery_keeps_admission_and_accounting() {
        let wal = MemStorage::default();
        let specs: Vec<CampaignSpec> = (0..4).map(spec).collect();
        let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
        durable.set_admission(AdmissionConfig {
            max_active: 1,
            max_pending: 8,
        });
        for s in &specs {
            durable.admit_spec(s, None).unwrap();
        }
        for _ in 0..3 {
            durable.step_round().unwrap();
        }
        // Everything the registry reports (queue, live measurements,
        // virtual seconds, rounds, appends) reads the same but the count.
        let stats = |d: &DurableRegistry| d.registry().fleet_stats();
        let mut want = stats(&durable);
        assert_eq!((want.n_active, want.n_pending), (1, 3));
        assert!(want.live_measurements > 0 && want.virtual_serial_s > 0.0);
        durable.recover_in_place().unwrap();
        want.recoveries += 1;
        assert_eq!(
            serde_json::to_string(&stats(&durable)).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
        durable.run_all().unwrap();
        for (id, s) in specs.iter().enumerate() {
            assert_eq!(history(&durable, id as u64), straight_history(s));
        }
    }

    #[test]
    fn register_spec_bypasses_admission_and_is_logged() {
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
        durable.set_admission(AdmissionConfig {
            max_active: 1,
            max_pending: 0,
        });
        let ids: Vec<u64> = (0..2)
            .map(|i| durable.register_spec(&spec(i)).unwrap())
            .collect();
        assert_eq!(durable.registry().n_active(), 2);
        // Admission still governs `admit_spec`.
        let shed = durable.admit_spec(&spec(2), None);
        assert!(
            matches!(shed, Err(ServeError::Overloaded { .. })),
            "{shed:?}"
        );
        drop(durable);
        let (mut recovered, report) =
            DurableRegistry::open_in(&wal, 2, WalConfig::default()).unwrap();
        assert_eq!((recovered.registry().ids(), report.campaigns), (ids, 2));
        recovered.run_all().unwrap();
        for i in 0..2 {
            assert_eq!(history(&recovered, i), straight_history(&spec(i)));
        }
    }

    #[test]
    fn log_cut_inside_a_tick_is_refused_not_healed() {
        let wal = MemStorage::default();
        let s = spec(0);
        let mut durable = DurableRegistry::create_in(&wal, 1, WalConfig::default()).unwrap();
        let id = durable.register_spec(&s).unwrap();
        // By hand, CRC and all: the first tick without its last event.
        let mut first = s.build();
        first.tick();
        let (_, events) = first.log().unwrap().split_last().unwrap();
        let events = Cow::Borrowed(events);
        durable.append(&WalRecord::Ticks { id, events }).unwrap();
        drop(durable);
        match DurableRegistry::open_in(&wal, 1, WalConfig::default()) {
            Err(ServeError::Campaign(
                CampaignError::MissingMeasurement { .. } | CampaignError::ReplayDiverged { .. },
            )) => {}
            Err(e) => panic!("not a campaign error: {e}"),
            Ok(_) => panic!("a log cut inside a tick opened"),
        }
    }

    /// Applies `edit` to the campaign id and events of each `Ticks`
    /// record of the one-segment log in `wal`, until it reports an edit,
    /// and writes the log back with every length and CRC recomputed.
    /// Returns the log as rewritten.
    fn edit_log(
        wal: &MemStorage,
        mut edit: impl FnMut(u64, &mut Vec<CampaignEvent>) -> bool,
    ) -> Vec<u8> {
        let segments = wal.contents();
        let [(n, _)] = &segments[..] else {
            panic!("the run rotated its log");
        };
        let (mut log, mut edited) = (Vec::new(), false);
        let each = |_, _, mut record: WalRecord<'static>| {
            if let WalRecord::Ticks { id, events } = &mut record {
                edited = edited || edit(*id, events.to_mut());
            }
            encode_record(&record, &mut log).unwrap();
            Ok(())
        };
        assert_eq!(read_segment(wal, *n, each).unwrap().1, 0);
        assert!(edited, "nothing to edit");
        wal.set_contents(vec![(*n, log.clone())]);
        log
    }

    fn flip(v: &mut f64) {
        *v = f64::from_bits(v.to_bits() ^ 1);
    }

    /// Flips the lowest bit of the first float knob a logged suggestion
    /// holds.
    fn lie_about_a_suggestion(request: &mut TrialRequest) {
        let config = &mut request.config;
        let float = config.iter().find_map(|(k, v)| match v {
            autotune_space::Value::Float(v) => Some((k.clone(), *v)),
            _ => None,
        });
        let (name, mut v) = float.expect("a float knob");
        flip(&mut v);
        config.set(name, v);
    }

    /// The refusal of a replay that diverged, or `what` panics.
    fn diverged<T>(what: &str, result: Result<T, ServeError>) -> CampaignError {
        match result {
            Err(ServeError::Campaign(
                e @ (CampaignError::ReplayDiverged { .. }
                | CampaignError::MissingMeasurement { .. }),
            )) => e,
            Err(e) => panic!("{what}: not a campaign error: {e}"),
            Ok(_) => panic!("{what} was accepted"),
        }
    }

    /// Runs `specs` durably in `wal`: dry, or for `rounds` rounds.
    fn drive_rounds(wal: &MemStorage, specs: &[CampaignSpec], rounds: Option<usize>) {
        let Some(rounds) = rounds else {
            drop(drive(wal, specs, WalConfig::default()));
            return;
        };
        let mut durable = DurableRegistry::create_in(wal, 2, WalConfig::default()).unwrap();
        for s in specs {
            durable.register_spec(s).unwrap();
        }
        for _ in 0..rounds {
            durable.step_round().unwrap();
        }
    }

    #[test]
    fn a_lie_about_what_replay_recomputes_is_refused_and_nothing_is_truncated() {
        // Run dry, every campaign is finished and `open` takes its
        // suggestions as logged; cut after four rounds, every campaign is
        // active and replays its optimizer.
        for rounds in [None, Some(4)] {
            lies_are_refused(rounds);
        }
    }

    fn lies_are_refused(rounds: Option<usize>) {
        let specs = fleet_of(10);
        let wal = MemStorage::default();
        drive_rounds(&wal, &specs, rounds);
        let honest = wal.contents();
        let [(n, _)] = honest[..] else {
            panic!("the run rotated its log");
        };
        let fleet = read_fleet(&wal, Rebuild::Open, |_, _| {})
            .unwrap()
            .campaigns;
        let all_finished = rounds.is_none();
        assert!(fleet.values().all(|r| r.finished() == all_finished));
        // One bit in a suggestion's config, in an outcome's cost and in an
        // optimizer event, and an event count off by one either way.
        type Lie<'a> = &'a dyn Fn(&mut Vec<CampaignEvent>) -> bool;
        let lies: [Lie; 5] = [
            &|events| {
                events.iter_mut().any(|e| match e {
                    CampaignEvent::Suggested { request, .. } => {
                        lie_about_a_suggestion(request);
                        true
                    }
                    _ => false,
                })
            },
            &|events| {
                events.iter_mut().any(|e| match e {
                    CampaignEvent::Outcome { cost: Some(c), .. } => {
                        flip(c);
                        true
                    }
                    _ => false,
                })
            },
            &|events| {
                events.iter_mut().any(|e| match e {
                    CampaignEvent::Opt {
                        event: OptEvent::SuggestEnd { dispatched, .. },
                    } => {
                        *dispatched = !*dispatched;
                        true
                    }
                    _ => false,
                })
            },
            &|events| events.pop().is_some(),
            &|events| {
                events.extend(events.last().cloned());
                true
            },
        ];
        for (i, lie) in lies.into_iter().enumerate() {
            let lied = edit_log(&wal, |_, events| lie(events));
            assert_ne!(lied, honest[0].1, "lie {i} changed nothing");
            let untouched = |by: &str| {
                let now = wal.contents();
                assert_eq!(now.len(), 1, "lie {i}: {by}");
                assert_eq!(now[0], (n, lied.clone()), "lie {i}: {by} wrote");
            };
            diverged(&format!("lie {i} to verify_wal"), verify(&wal));
            untouched("verify_wal");
            let opened = DurableRegistry::open_in(&wal, 2, WalConfig::default());
            if all_finished && i == 0 {
                // A finished campaign's suggestions are not recomputed by
                // `open`: the lied one comes back as logged.
                let (reopened, _) = opened.unwrap();
                assert_ne!(history(&reopened, 0), straight_history(&specs[0]));
                let mut segments = wal.contents();
                segments.pop();
                wal.set_contents(segments);
            } else {
                diverged(&format!("lie {i} to open"), opened);
            }
            untouched("open");
            wal.set_contents(honest.clone());
        }
        // The honest log, after all that, verifies, opens and finishes.
        let report = verify(&wal).unwrap();
        assert_eq!((report.campaigns, report.truncated_bytes), (3, 0));
        let (mut recovered, _) = DurableRegistry::open_in(&wal, 2, WalConfig::default()).unwrap();
        recovered.run_all().unwrap();
        let want: Vec<String> = specs.iter().map(straight_history).collect();
        let ids = recovered.registry().ids();
        let got: Vec<String> = ids.into_iter().map(|id| history(&recovered, id)).collect();
        assert_eq!(got, want);
    }

    /// Three GP campaigns that get past `n_init` (SyncBatch, AsyncSlots,
    /// and one on a noisy, faulty target) and two random searches.
    fn model_fleet() -> Vec<CampaignSpec> {
        let gp = |name: &str, policy, seed| {
            let mut s = CampaignSpec::minimal(name, SystemKind::Redis, 16, seed);
            s.optimizer = OptimizerKind::BoGp;
            s.policy = policy;
            s
        };
        let mut noisy = gp("gp-noisy", SchedulePolicy::AsyncSlots { k: 2 }, 47);
        noisy.noise = Some(NoiseSpec {
            n_machines: 4,
            config: NoiseConfig::default(),
            seed: 5,
        });
        noisy.faults = Some(FaultPlan::aggressive(3));
        vec![
            gp("gp-sync", SchedulePolicy::SyncBatch { k: 2 }, 40),
            gp("gp-async", SchedulePolicy::AsyncSlots { k: 2 }, 41),
            spec(2),
            spec(3),
            noisy,
        ]
    }

    /// Every campaign's full event log (drift-clock stamps included), in
    /// id order, as its WAL snapshot holds it.
    fn event_logs(d: &DurableRegistry) -> Vec<String> {
        let log = |id| serde_json::to_string(&d.snapshot(id).unwrap().events).unwrap();
        d.registry().ids().into_iter().map(log).collect()
    }

    /// Every campaign's event log run alone, in spec order.
    fn standalone_logs(specs: &[CampaignSpec]) -> Vec<String> {
        standalone_runs(specs).iter().map(event_log).collect()
    }

    #[test]
    fn reopen_rebuilds_model_campaigns_side_by_side_determinism() {
        // Cut once the two fastest GP campaigns have a model: they and the
        // noisy one are active, so they replay their GPs side by side.
        let specs = model_fleet();
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
        for s in &specs {
            durable.register_spec(s).unwrap();
        }
        let modelled = |d: &DurableRegistry| (0..2).all(|id| campaign(d, id).has_model());
        while !modelled(&durable) {
            durable.step_round().unwrap();
        }
        drop(durable);
        let logged = read_fleet(&wal, Rebuild::Open, |_, _| {})
            .unwrap()
            .campaigns;
        let (mut reopened, report) =
            DurableRegistry::open_in(&wal, 2, WalConfig::default()).unwrap();
        assert_eq!(report.campaigns, specs.len());
        // The split `open` makes is the one the registry's rounds make.
        for (id, r) in &logged {
            let rebuilt = campaign(&reopened, *id);
            assert_eq!(r.tally.model, rebuilt.has_model(), "{}", r.name);
        }
        let split: Vec<(bool, bool)> = logged
            .values()
            .map(|r| (r.finished(), r.tally.model))
            .collect();
        let active_gp = (false, true);
        assert_eq!(
            split,
            [
                active_gp,
                active_gp,
                (true, false),
                (true, false),
                active_gp
            ]
        );
        reopened.run_all().unwrap();
        assert_eq!(event_logs(&reopened), standalone_logs(&specs));
    }

    #[test]
    fn a_reopen_replays_alike_at_any_worker_count_determinism() {
        // Random and GP campaigns, cut mid-run with some of each finished
        // and some active: the reopen takes both paths and the second pass.
        let mut specs = fleet_of(24);
        specs.extend(model_fleet());
        let mut long_gp = specs[4].clone();
        (long_gp.name, long_gp.budget) = ("gp-long".into(), 24);
        specs.push(long_gp);
        let is_gp = |id: u64| [3, 4, 7, 8].contains(&id);
        let n = specs.len() as u64;
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
        for s in &specs {
            durable.register_spec(s).unwrap();
        }
        let split = |d: &DurableRegistry| -> BTreeSet<(bool, bool)> {
            let done = |id| d.registry().is_finished(id);
            (0..n).map(|id| (is_gp(id), done(id))).collect()
        };
        while split(&durable).len() < 4 {
            assert!(durable.registry().has_runnable(), "no cut holds all four");
            durable.step_round().unwrap();
        }
        drop(durable);
        let cut = wal.contents();
        let snapshot_bytes = |d: &DurableRegistry, id| {
            let mut bytes = Vec::new();
            ciborium::into_writer(&d.snapshot(id).unwrap(), &mut bytes).unwrap();
            bytes
        };
        let fleet = |d: &DurableRegistry| -> Vec<(String, Vec<u8>)> {
            (0..n)
                .map(|id| (history(d, id), snapshot_bytes(d, id)))
                .collect()
        };
        let mut reopened = Vec::new();
        for workers in [1, 2, 4] {
            let device = MemStorage::default();
            device.set_contents(cut.clone());
            let (mut d, _) = DurableRegistry::open_in(&device, workers, WalConfig::default())
                .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
            let at_cut = fleet(&d);
            d.run_all().unwrap();
            reopened.push((workers, at_cut, fleet(&d), event_logs(&d)));
        }
        let (_, at_cut, finished, logs) = &reopened[0];
        for (workers, got_cut, got, got_logs) in &reopened[1..] {
            assert!(got_cut == at_cut, "{workers} workers at the cut");
            assert!(got == finished, "{workers} workers finished");
            assert!(got_logs == logs, "{workers} workers' logs");
        }
        let alone: Vec<String> = specs.iter().map(straight_history).collect();
        let histories: Vec<String> = finished.iter().map(|(h, _)| h.clone()).collect();
        assert_eq!(histories, alone);
        assert_eq!(*logs, standalone_logs(&specs));
    }

    fn campaign(d: &DurableRegistry, id: u64) -> &Campaign<'static> {
        d.registry().campaign(id).unwrap()
    }

    #[test]
    fn a_campaign_rebuilt_after_any_tick_finishes_as_run_alone_determinism() {
        // A GP campaign with three async slots: the tick that finds its
        // source dry completes one of the two trials still out, so for one
        // tick its source is dry but it is not drained (the last outcome
        // must still reach the GP). A registry
        // round absorbs that drain tick, so this walks the campaign tick
        // by tick: its log after every tick, written as one `Ticks`
        // record, reopens (from the log once drained) and runs dry to the
        // campaign run alone.
        let mut spec = model_fleet()[1].clone();
        spec.policy = SchedulePolicy::AsyncSlots { k: 3 };
        let want = event_log(&standalone_runs(std::slice::from_ref(&spec))[0]);
        let mut live = spec.build();
        let (mut ticks, mut dry_not_drained) = (0, 0);
        while !live.tick() {
            ticks += 1;
            let logged = live.log().unwrap();
            let mut tally = Tally::default();
            tally.add(logged);
            let dry = tally.last_dispatched == Some(false);
            dry_not_drained += usize::from(dry && !tally.drained());
            let wal = MemStorage::default();
            let mut durable = DurableRegistry::create_in(&wal, 1, WalConfig::default()).unwrap();
            let id = durable.register_spec(&spec).unwrap();
            let events = Cow::Borrowed(logged);
            durable.append(&WalRecord::Ticks { id, events }).unwrap();
            drop(durable);
            let (mut rebuilt, _) = DurableRegistry::open_in(&wal, 1, WalConfig::default()).unwrap();
            rebuilt.run_all().unwrap();
            assert_eq!(
                event_logs(&rebuilt),
                [want.as_str()],
                "rebuilt after tick {ticks}"
            );
        }
        assert!(
            dry_not_drained > 0,
            "no tick left the source dry with a trial out"
        );
    }

    #[test]
    fn a_finished_campaign_reopens_as_its_full_replay_determinism() {
        // `model_fleet`, a SMAC campaign and a GP campaign stopped once it
        // has a model, every one finished before the reopen.
        let mut specs = model_fleet();
        let mut smac = CampaignSpec::minimal("smac", SystemKind::Redis, 16, 48);
        smac.optimizer = OptimizerKind::BoSmac;
        let mut stopped = CampaignSpec::minimal("gp-stopped", SystemKind::Redis, 16, 49);
        (stopped.optimizer, stopped.policy) =
            (OptimizerKind::BoGp, SchedulePolicy::AsyncSlots { k: 2 });
        specs.extend([smac, stopped]);
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
        for s in &specs {
            durable.register_spec(s).unwrap();
        }
        let stopped_id = specs.len() as u64 - 1;
        while !campaign(&durable, stopped_id).has_model() {
            durable.step_round().unwrap();
        }
        assert!(!campaign(&durable, stopped_id).is_done());
        durable.stop(stopped_id).unwrap();
        durable.run_all().unwrap();
        drop(durable);
        assert_eq!(verify(&wal).unwrap().campaigns, specs.len());
        let fleet = read_fleet(&wal, Rebuild::Open, |_, _| {})
            .unwrap()
            .campaigns;
        assert!(
            fleet.values().all(Reading::finished),
            "a campaign is still active"
        );

        let (reopened, _) = DurableRegistry::open_in(&wal, 2, WalConfig::default()).unwrap();
        // What `verify_wal` rebuilds, kept.
        let mut full = CampaignRegistry::new(2);
        let verified = read_fleet(&wal, Rebuild::Verify, |_, _| {}).unwrap();
        for (id, r) in verified.campaigns {
            full.restore_entry(id, r.name, r.replay.unwrap(), r.stopped, r.records);
        }
        let ids: BTreeSet<u64> = (0..specs.len() as u64).collect();
        let mut logged = logged_events(&wal, &ids).unwrap();
        let stats = |reg: &CampaignRegistry, id| serde_json::to_string(&reg.stats(id).unwrap());
        for (id, spec) in specs.iter().enumerate() {
            let id = id as u64;
            let (got, want) = (campaign(&reopened, id), full.campaign(id).unwrap());
            assert_eq!(got.storage().to_json(), want.storage().to_json());
            assert_eq!(
                stats(reopened.registry(), id).unwrap(),
                stats(&full, id).unwrap()
            );
            assert_eq!(got.has_model(), want.has_model(), "{}", spec.name);
            // Neither keeps a logged event; each takes its log back whole.
            assert!(matches!(
                got.snapshot(),
                Err(CampaignError::LogDropped { supplied: 0, .. })
            ));
            let snapshot = reopened.snapshot(id).unwrap();
            let want = want.snapshot_with(logged.remove(&id).unwrap()).unwrap();
            let json = |s| serde_json::to_string(&s).unwrap();
            assert_eq!(json(&snapshot), json(&want), "{}", spec.name);
            // A real snapshot: the spec's own optimizer resumes it.
            Campaign::resume(&snapshot, spec.build()).unwrap();
        }
        let with_model = |id| campaign(&reopened, id).has_model();
        assert!([0, 1, 4, 5, stopped_id].into_iter().all(with_model));
        assert!(reopened.registry().stats(stopped_id).unwrap().stopped);
    }

    #[test]
    fn lies_in_several_campaigns_are_refused_in_id_order() {
        let specs = model_fleet();
        let wal = MemStorage::default();
        drop(drive(&wal, &specs, WalConfig::default()));
        let honest = wal.contents();
        // Flips a bit in the `nth` suggestion of each `(id, nth)`, verifies
        // the log and returns the refusal's text; the refused log keeps its
        // bytes and gets no second segment.
        let refusal = |lies: &[(u64, usize)]| -> String {
            let mut lied = Vec::new();
            for &(liar, nth) in lies {
                let mut seen = 0;
                lied = edit_log(&wal, |id, events| {
                    id == liar
                        && events.iter_mut().any(|e| match e {
                            CampaignEvent::Suggested { request, .. } => {
                                seen += 1;
                                let here = seen > nth;
                                if here {
                                    lie_about_a_suggestion(request);
                                }
                                here
                            }
                            _ => false,
                        })
                });
            }
            let text = diverged(&format!("{lies:?}"), verify(&wal)).to_string();
            let now = wal.contents();
            assert_eq!(now.len(), 1, "{lies:?}");
            assert_eq!(now[0].1, lied, "{lies:?}: verify_wal wrote");
            wal.set_contents(honest.clone());
            text
        };
        // A lone lying GP among healthy campaigns, each on its own; the
        // texts tell them apart (they name the event that diverged).
        let (gp_sync, gp_async, random) =
            (refusal(&[(0, 1)]), refusal(&[(1, 5)]), refusal(&[(2, 0)]));
        assert_ne!(gp_sync, gp_async);
        assert_ne!(random, gp_async);
        // Two liars: the lower id's refusal, as a walk in id order gives,
        // whichever side of the split each replays on.
        assert_eq!(refusal(&[(1, 5), (0, 1)]), gp_sync);
        assert_eq!(refusal(&[(1, 5), (2, 0)]), gp_async);
        assert_eq!(refusal(&[(4, 3), (2, 0)]), random);
    }

    #[test]
    fn panic_recovery_of_model_campaigns_determinism() {
        let specs = model_fleet();
        let wal = MemStorage::default();
        let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
        // One campaign at a time: `gp-sync` runs dry, then `gp-async`
        // runs until it has a model, so the log holds two model campaigns
        // and three the registry has not started.
        durable.set_admission(AdmissionConfig {
            max_active: 1,
            max_pending: 8,
        });
        for s in &specs {
            durable.admit_spec(s, None).unwrap();
        }
        while !durable.registry().campaign(1).unwrap().has_model() {
            assert!(!durable.step_round().unwrap());
        }
        assert!(durable.registry().campaign(0).unwrap().is_done());
        // A plan that panics `gp-async`'s waves half the time, armed until
        // one panics and is recovered.
        durable.set_chaos(ChaosPlan::new(3).with_worker_panics(0.5));
        let stats = |d: &DurableRegistry| d.registry().fleet_stats();
        let mut want = loop {
            let before = stats(&durable);
            if durable.step_round().unwrap() {
                break before;
            }
        };
        // Admission and accounting read as before the panicked round, which
        // booked itself and the recovery and nothing else.
        assert_eq!((want.n_active, want.n_pending), (1, 3));
        want.rounds += 1;
        want.recoveries += 1;
        assert_eq!(
            serde_json::to_string(&stats(&durable)).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
        let booked = |id| durable.registry().stats(id).unwrap().recoveries;
        let booked: Vec<u64> = durable.registry().ids().into_iter().map(booked).collect();
        assert_eq!(booked, [0, 1, 0, 0, 0], "only gp-async's wave panicked");
        durable.set_chaos(ChaosPlan::new(3));
        durable.run_all().unwrap();
        assert_eq!(event_logs(&durable), standalone_logs(&specs));
    }

    #[test]
    fn a_measurement_is_an_input_and_comes_back_as_logged() {
        // Nothing recomputes a measurement, so nothing can contradict
        // one: a telemetry bit flipped in the log is, to recovery, what
        // was measured. It reaches the rebuilt event log bit for bit and
        // leaves the trial history (which holds no telemetry) as it was.
        let specs = fleet_of(10);
        let wal = MemStorage::default();
        drop(drive(&wal, &specs, WalConfig::default()));
        let mut flipped = None;
        edit_log(&wal, |_, events| {
            events.iter_mut().any(|e| {
                let CampaignEvent::Measured { id, telemetry, .. } = e else {
                    return false;
                };
                let cpu = &mut Arc::make_mut(telemetry)[3].cpu;
                *cpu = f64::from_bits(cpu.to_bits() ^ 1);
                flipped = Some((*id, cpu.to_bits()));
                true
            })
        });
        let (flipped_id, flipped_bits) = flipped.unwrap();
        let (recovered, _) = DurableRegistry::open_in(&wal, 2, WalConfig::default()).unwrap();
        let log = recovered.snapshot(0).unwrap().events;
        let rebuilt = log.iter().find_map(|e| match e {
            CampaignEvent::Measured { id, telemetry, .. } if *id == flipped_id => Some(telemetry),
            _ => None,
        });
        assert_eq!(rebuilt.unwrap()[3].cpu.to_bits(), flipped_bits);
        for (id, s) in specs.iter().enumerate() {
            assert_eq!(history(&recovered, id as u64), straight_history(s));
        }
    }

    #[test]
    fn a_reopened_trial_holds_the_series_its_record_decoded_into() {
        let specs = vec![noisy_random(9, 31)];
        let wal = MemStorage::default();
        drop(drive(&wal, &specs, WalConfig::default()));
        // Rebuilt from the decoded log: each `Measured` holds the very
        // allocation its record was unpacked into.
        let logged = &logged_events(&wal, &BTreeSet::from([0])).unwrap()[&0];
        let campaign = Campaign::replay(specs[0].build(), logged).unwrap();
        let rebuilt = campaign.log().unwrap();
        let mut measured = 0;
        for (got, want) in rebuilt.iter().zip(logged) {
            if let (
                CampaignEvent::Measured { telemetry: got, .. },
                CampaignEvent::Measured { telemetry, .. },
            ) = (got, want)
            {
                assert!(Arc::ptr_eq(got, telemetry));
                measured += 1;
            }
        }
        assert!(measured >= 9, "{measured}");
    }

    /// A random search on a noisy fleet under an aggressive fault plan.
    fn noisy_random(budget: usize, seed: u64) -> CampaignSpec {
        let mut s = CampaignSpec::minimal("noisy", SystemKind::Redis, budget, seed);
        s.noise = Some(NoiseSpec {
            n_machines: 4,
            config: NoiseConfig::default(),
            seed,
        });
        s.faults = Some(FaultPlan::aggressive(seed));
        s
    }

    /// Three sequential campaigns, the longest of `budget` trials (one
    /// trial a round).
    fn fleet_of(budget: usize) -> Vec<CampaignSpec> {
        (0..3)
            .map(|i| {
                let name = format!("fleet{i}");
                CampaignSpec::minimal(name, SystemKind::Redis, budget - 2 * i, 500 + i as u64)
            })
            .collect()
    }

    #[test]
    fn every_event_is_written_once() {
        let wal = MemStorage::default();
        let specs = fleet_of(66);
        let durable = drive(&wal, &specs, SMALL_SEGMENTS);
        assert!(durable.registry().rounds() > 64, "the run was too short");
        let segments = wal.contents();
        assert_eq!(segments[0].0, 1, "segment 1 was deleted");
        assert!(segments.len() > 2, "the run never rotated");
        let (mut records, mut events, mut disk_bytes, mut record_bytes) = (0, 0, 0, 0);
        let mut logs = vec![Vec::new(); specs.len()];
        let mut buf = Vec::new();
        for (n, _) in &segments {
            let each = |_, _, record: WalRecord<'static>| {
                records += 1;
                buf.clear();
                encode_record(&record, &mut buf).unwrap();
                record_bytes += buf.len() as u64;
                if let WalRecord::Ticks { id, events: batch } = record {
                    events += batch.len();
                    // Every record ends on a tick boundary: the log so
                    // far replays without asking for a measurement.
                    let i = id as usize;
                    logs[i].extend(batch.into_owned());
                    if let Err(e) = rebuild(&specs[i], &logs[i]) {
                        panic!("campaign {id} record {records} ends inside a tick: {e}");
                    }
                }
                Ok(())
            };
            let (clean, torn) = read_segment(&wal, *n, each).unwrap();
            disk_bytes += clean + torn;
        }
        // A durable campaign holds no event the WAL holds, and the WAL
        // holds what the same campaigns log run alone.
        let reg = durable.registry();
        let held = |id| reg.campaign(id).unwrap().log().unwrap().len();
        assert_eq!(reg.ids().into_iter().map(held).sum::<usize>(), 0);
        let logged = |c: &Campaign| c.log().unwrap().len();
        let logged: usize = standalone_runs(&specs).iter().map(logged).sum();
        assert_eq!(events, logged, "an event was written twice or not at all");
        // Every append this handle made is on disk, and nothing else is
        // (no torn tail, no bytes outside a record).
        let appends = durable.registry().fleet_stats().wal_appends;
        assert_eq!(records, appends, "a record was rewritten or deleted");
        assert_eq!(disk_bytes, record_bytes);
    }

    #[test]
    fn a_snapshot_is_its_wal() {
        // A plain Redis random search and a noisy, faulty one, run
        // durably a few rounds at a time.
        let specs = [
            CampaignSpec::minimal("plain", SystemKind::Redis, 32, 1),
            noisy_random(12, 31),
        ];
        let wal = MemStorage::default();
        let durable = drive(&wal, &specs, WalConfig::default());
        let mut logged = vec![Vec::new(); specs.len()];
        for (n, _) in wal.contents() {
            read_segment(&wal, n, |_, _, record| {
                if let WalRecord::Ticks { id, events } = record {
                    logged[id as usize].extend(events.into_owned());
                }
                Ok(())
            })
            .unwrap();
        }
        let cbor = |events: &[CampaignEvent]| {
            let mut bytes = Vec::new();
            ciborium::into_writer(events, &mut bytes).unwrap();
            bytes
        };
        for (id, logged) in logged.iter().enumerate() {
            let snapshot = durable.snapshot(id as u64).unwrap();
            assert!(durable.registry().stats(id as u64).unwrap().done);
            assert_eq!(cbor(&snapshot.events), cbor(logged), "campaign {id}");
        }
        // What a client is sent: about what the log holds a trial.
        let snapshot = durable.snapshot(0).unwrap();
        let mut frame = Vec::new();
        crate::write_frame(&mut frame, &crate::Response::Snapshot { snapshot }).unwrap();
        assert!(
            frame.len() <= 2_400 * 32,
            "{} bytes a trial",
            frame.len() / 32
        );
    }

    #[test]
    fn segments_hold_what_one_write_per_record_lays_out() {
        // Rounds of up to three ~2.4 KB `Ticks` records against 4 KiB
        // segments, so rotation falls inside rounds.
        let wal = MemStorage::default();
        let specs = fleet_of(16);
        let durable = drive(&wal, &specs, SMALL_SEGMENTS);
        let mut records = Vec::new();
        for (n, _) in wal.contents() {
            read_segment(&wal, n, |_, _, record| {
                records.push(record);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(
            records.len() as u64,
            durable.registry().fleet_stats().wal_appends
        );
        // The reference: each record encoded on its own, appended to the
        // open segment, which rotates once it holds `segment_bytes`.
        let (mut want, mut record) = (vec![(1, Vec::new())], Vec::new());
        let mut rotated_mid_round = false;
        for (i, r) in records.iter().enumerate() {
            record.clear();
            encode_record(r, &mut record).unwrap();
            let (n, open) = want.last_mut().unwrap();
            open.extend_from_slice(&record);
            if open.len() as u64 >= SMALL_SEGMENTS.segment_bytes {
                let next = *n + 1;
                want.push((next, Vec::new()));
                // A round writes its campaigns' records in rising id order.
                let ticks = |r: &WalRecord| match r {
                    WalRecord::Ticks { id, .. } => Some(*id),
                    _ => None,
                };
                let (this, after) = (ticks(r), records.get(i + 1).and_then(ticks));
                rotated_mid_round |= matches!((this, after), (Some(a), Some(b)) if a < b);
            }
        }
        assert!(rotated_mid_round, "no segment boundary fell inside a round");
        let got = wal.contents();
        let numbers = |segments: &[(u64, Vec<u8>)]| -> Vec<(u64, usize)> {
            segments.iter().map(|(n, b)| (*n, b.len())).collect()
        };
        assert_eq!(numbers(&got), numbers(&want));
        for ((n, got), (_, want)) in got.iter().zip(&want) {
            assert!(got == want, "segment {n} differs from one write per record");
        }
    }

    /// A walk of a segment: each record's offset and payload length, then
    /// the clean length and the bytes after it.
    type Walk = (Vec<(usize, usize)>, u64, u64);

    /// Segment `bytes` walked as a slice, the way a reader that loads the
    /// whole segment walks it.
    fn slice_walk(bytes: &[u8]) -> Walk {
        let (mut spans, mut at) = (Vec::new(), 0);
        while let Some((payload, end)) = record_at(bytes, at) {
            spans.push((at, payload.len()));
            at = end;
        }
        (spans, at as u64, (bytes.len() - at) as u64)
    }

    /// Checks that every segment in `wal` streams as its slice walk
    /// does, and returns the walks.
    fn walks_agree(wal: &MemStorage) -> Vec<Walk> {
        let mut walks = Vec::new();
        for (n, bytes) in wal.contents() {
            let mut spans = Vec::new();
            let (clean, torn) = read_segment(wal, n, |at, len, _| {
                spans.push((at, len));
                Ok(())
            })
            .unwrap();
            let walk = slice_walk(&bytes);
            assert_eq!((spans, clean, torn), walk, "segment {n}");
            walks.push(walk);
        }
        walks
    }

    #[test]
    fn a_record_the_window_cuts_is_read_whole() {
        // One segment of ~2.4 KB records well past the first window, so
        // records straddle its end and are read whole across the refill.
        let wal = MemStorage::default();
        let specs = fleet_of(40);
        drop(drive(&wal, &specs, WalConfig::default()));
        let walks = walks_agree(&wal);
        let [(spans, clean, 0)] = &walks[..] else {
            panic!("expected one clean segment: {walks:?}")
        };
        assert!(*clean as usize > 2 * WINDOW, "{clean} bytes");
        let straddles = |edge: usize| {
            spans
                .iter()
                .any(|&(at, len)| at < edge && at + 8 + len > edge)
        };
        assert!(straddles(WINDOW), "no record straddles the window's end");
        assert_eq!(recover_and_finish(&wal, &specs, WalConfig::default()), {
            specs.iter().map(straight_history).collect::<Vec<_>>()
        });
    }

    #[test]
    fn a_record_larger_than_the_window_is_read_whole() {
        // A `Register` whose spec's name alone outgrows the window, behind
        // and ahead of ordinary records.
        let wal = MemStorage::default();
        let mut specs = fleet_of(12);
        specs[1].name = "n".repeat(WINDOW + 4096);
        drop(drive(&wal, &specs, WalConfig::default()));
        let walks = walks_agree(&wal);
        let [(spans, _, 0)] = &walks[..] else {
            panic!("expected one clean segment: {walks:?}")
        };
        let large = spans.iter().position(|&(_, len)| len > WINDOW);
        assert!(
            large.is_some_and(|i| i > 0 && i + 1 < spans.len()),
            "{spans:?}"
        );
        assert_eq!(recover_and_finish(&wal, &specs, WalConfig::default()), {
            specs.iter().map(straight_history).collect::<Vec<_>>()
        });
    }

    #[test]
    fn a_torn_tail_at_the_windows_end_is_cut_there() {
        // Auxiliary records that fill the first window exactly, then a
        // torn record: cut short in its header, after it, in its
        // payload, or whole with a CRC that fails.
        let aux = |payload: Vec<u8>| WalRecord::Aux {
            key: Cow::Borrowed("k"),
            payload: Cow::Owned(payload),
        };
        let encoded = |record: &WalRecord| {
            let mut bytes = Vec::new();
            encode_record(record, &mut bytes).unwrap();
            bytes
        };
        let (mut clean, mut journal) = (Vec::new(), Vec::new());
        while clean.len() < WINDOW {
            let left = WINDOW - clean.len();
            let fits = |len: usize| encoded(&aux(vec![7; len])).len() <= left;
            let len = if left > 2100 { 1000 } else { left } - 8;
            let len = (0..=len).rev().find(|&len| fits(len)).unwrap();
            let payload = vec![journal.len() as u8; len];
            clean.extend(encoded(&aux(payload.clone())));
            journal.push(("k".to_string(), payload));
        }
        assert_eq!(clean.len(), WINDOW);
        let last = encoded(&aux(vec![9; 300]));
        let mut bad_crc = last.clone();
        *bad_crc.last_mut().unwrap() ^= 1;
        let tails = [3, 8, 100, last.len() - 1]
            .map(|cut| last[..cut].to_vec())
            .into_iter()
            .chain([bad_crc]);
        for tail in tails {
            let wal = MemStorage::default();
            wal.set_contents(vec![(1, [&clean[..], &tail].concat())]);
            let walks = walks_agree(&wal);
            assert_eq!(walks[0].1, WINDOW as u64);
            let device = Box::new(wal.clone());
            let (recovered, report, read) =
                DurableRegistry::open_on(device, 1, WalConfig::default(), |_, journal| {
                    Ok(journal.to_vec())
                })
                .unwrap_or_else(|e| panic!("a {}-byte tail: {e}", tail.len()));
            assert_eq!(report.truncated_bytes, tail.len() as u64);
            assert_eq!(read, journal);
            assert_eq!(wal.contents()[0].1.len(), WINDOW);
            drop(recovered);
        }
    }

    #[test]
    fn crash_at_any_append_recovers_byte_identically() {
        // The log is append-only and the run deterministic, so a kill at
        // any instant leaves the clean run's log cut after some byte, in
        // the segments written so far, perhaps with the next one opened
        // empty. For each record: each landed prefix the reader tells
        // apart (none, a torn header, the header, one byte more, all but
        // one byte, all); at each rotation: the next segment opened empty.
        let specs = fleet_of(10);
        let want: Vec<String> = specs.iter().map(straight_history).collect();
        let wal = MemStorage::default();
        drop(drive(&wal, &specs, SMALL_SEGMENTS));
        let clean = wal.contents();
        assert!(clean.len() > 4, "the swept run never rotated");
        // Each record's start in the log read as one stream, and its
        // length; each segment's end.
        let (mut records, mut ends, mut start) = (Vec::new(), Vec::new(), 0);
        for (n, bytes) in &clean {
            read_segment(&wal, *n, |at, len, _| {
                records.push((start + at as u64, 8 + len as u64));
                Ok(())
            })
            .unwrap();
            start += bytes.len() as u64;
            ends.push(start);
        }
        let mut states = std::collections::BTreeSet::new();
        for &(at, len) in &records {
            for landed in (0..=9).chain([len - 1, len]) {
                states.insert((at + landed.min(len), false));
            }
        }
        states.extend(ends[..ends.len() - 1].iter().map(|&end| (end, true)));
        let count = states.len();
        assert!(count >= 300, "{count} crash states");
        let mut finished = 0;
        for (i, &(bytes, opened)) in states.iter().enumerate() {
            let state = format!(
                "crash state {i} of {count}: {bytes} bytes{}",
                if opened { ", next segment empty" } else { "" }
            );
            let wal = MemStorage::default();
            wal.set_contents(clean.clone());
            wal.crash_after(bytes);
            if opened {
                wal.clone().open_next().unwrap();
            }
            // What the reopen must leave: the state without its torn
            // bytes, and the segment it opens.
            let whole = records.partition_point(|&(at, len)| at + len <= bytes);
            let torn = bytes - records[..whole].last().map_or(0, |&(at, len)| at + len);
            let mut healed = wal.contents();
            let (last, tail) = healed.pop().unwrap();
            let tail = tail[..tail.len() - torn as usize].to_vec();
            healed.extend([(last, tail), (last + 1, Vec::new())]);
            let opened =
                std::panic::catch_unwind(|| DurableRegistry::open_in(&wal, 2, SMALL_SEGMENTS));
            let (reopened, report) = opened
                .unwrap_or_else(|_| panic!("{state}: open panicked"))
                .unwrap_or_else(|e| panic!("{state}: {e}"));
            let read = (report.records_read, report.truncated_bytes);
            assert_eq!(read, (whole as u64, torn), "{state}: records, torn bytes");
            assert!(
                wal.contents() == healed,
                "{state}: not the clean prefix and a new segment"
            );
            // A torn state reopens to the bytes of the clean one it tears:
            // only the clean ones run on.
            if torn == 0 {
                assert_eq!(finish(reopened, &specs), want, "{state}");
                finished += 1;
            }
        }
        assert!(
            finished > records.len(),
            "{finished} of {count} crash states finished"
        );
        // A torn record anywhere but in the final segment is no crash's:
        // `open` refuses it and writes nothing.
        let mut torn = clean.clone();
        torn[1].1.pop();
        wal.set_contents(torn.clone());
        let why = refusal(DurableRegistry::open_in(&wal, 2, SMALL_SEGMENTS).map(drop));
        assert!(why.contains("mid-WAL in wal-000002.seg"), "{why}");
        assert!(wal.contents() == torn, "a refused open wrote");
    }

    #[test]
    fn a_torn_log_that_replay_refuses_keeps_every_byte() {
        // A campaign's last event gone from its first record, behind a
        // torn tail: the replay refuses the log, so the tail stays too.
        let wal = MemStorage::default();
        drive_rounds(&wal, &fleet_of(10), Some(4));
        edit_log(&wal, |_, events| events.pop().is_some());
        let mut segments = wal.contents();
        segments[0].1.extend([0x55; 13]);
        wal.set_contents(segments.clone());
        diverged(
            "a torn log that lies",
            DurableRegistry::open_in(&wal, 2, WalConfig::default()),
        );
        assert!(
            wal.contents() == segments,
            "a refused open cut its torn tail"
        );
    }

    /// What a refused call must leave alone: everything the registry
    /// reports, campaign by campaign.
    fn books(d: &DurableRegistry) -> String {
        let reg = d.registry();
        let stats = |id| serde_json::to_string(&reg.stats(id).unwrap()).unwrap();
        let campaigns: Vec<String> = reg.ids().into_iter().map(stats).collect();
        let fleet = serde_json::to_string(&reg.fleet_stats()).unwrap();
        format!("{fleet} {campaigns:?}")
    }

    /// The `Storage` text of a refused call.
    fn refusal<T: std::fmt::Debug>(result: Result<T, ServeError>) -> String {
        match result {
            Err(ServeError::Storage(msg)) => msg,
            other => panic!("not refused with a storage error: {other:?}"),
        }
    }

    /// Every public call that could append, on a dead handle: the same
    /// error each time and nothing in memory moves.
    fn assert_dead(durable: &mut DurableRegistry, reason: &str) {
        let before = books(durable);
        assert_eq!(refusal(durable.admit_spec(&spec(1), Some(8))), reason);
        assert_eq!(refusal(durable.register_spec(&spec(1))), reason);
        assert_eq!(refusal(durable.append_aux("k", vec![1])), reason);
        assert_eq!(refusal(durable.stop(0)), reason);
        assert_eq!(refusal(durable.step_round()), reason);
        assert_eq!(refusal(durable.run_all()), reason);
        assert_eq!(refusal(durable.checkpoint()), reason);
        assert_eq!(books(durable), before, "a refused call changed memory");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_write_the_disk_refuses_kills_the_handle() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        // The next segment is a device that is always full: it opens, and
        // every write to it is ENOSPC.
        let dir = temp_dir("enospc");
        let mut durable = DurableRegistry::create(dir.path(), 1, WalConfig::default()).unwrap();
        let full = dir.path().join(segment_name(2));
        std::os::unix::fs::symlink("/dev/full", &full).unwrap();
        durable.checkpoint().unwrap();
        let reason = refusal(durable.admit_spec(&spec(0), Some(7)));
        assert!(reason.contains("No space left on device"), "{reason}");
        // The retry is no "idempotent replay" of a campaign no record holds.
        assert_eq!(refusal(durable.admit_spec(&spec(0), Some(7))), reason);
        assert_eq!(durable.crashed(), Some(reason.as_str()));
        assert_dead(&mut durable, &reason);
        drop(durable);
        std::fs::remove_file(&full).unwrap();
        // Reopened, the fleet is exactly what was acknowledged (nothing),
        // and the retry lands once.
        let (mut reopened, report) =
            DurableRegistry::open(dir.path(), 1, WalConfig::default()).unwrap();
        assert_eq!((report.campaigns, reopened.registry().len()), (0, 0));
        let id = reopened.admit_spec(&spec(0), Some(7)).unwrap();
        assert_eq!(reopened.admit_spec(&spec(0), Some(7)).unwrap(), id);
        reopened.run_all().unwrap();
        assert_eq!(history(&reopened, id), straight_history(&spec(0)));
    }

    #[test]
    fn a_segment_that_will_not_open_kills_the_handle() {
        let dir = temp_dir("noseg");
        let mut durable = DurableRegistry::create(dir.path(), 1, WalConfig::default()).unwrap();
        let id = durable.register_spec(&spec(0)).unwrap();
        durable.step_round().unwrap();
        let acknowledged = history(&durable, id);
        // A directory sits where the next segment goes.
        let blocked = dir.path().join(segment_name(2));
        std::fs::create_dir(&blocked).unwrap();
        let reason = refusal(durable.checkpoint());
        assert!(reason.contains("would not open"), "{reason}");
        assert_eq!(durable.crashed(), Some(reason.as_str()));
        assert_dead(&mut durable, &reason);
        drop(durable);
        std::fs::remove_dir(&blocked).unwrap();
        let (reopened, _) = DurableRegistry::open(dir.path(), 1, WalConfig::default()).unwrap();
        assert_eq!(history(&reopened, id), acknowledged);
    }

    #[test]
    fn the_device_and_the_files_hold_one_log() {
        // The end-to-end test on files: one fleet over 4 KiB segments, so
        // it rotates, in a directory and in memory, then the same torn
        // tail on each, cut alike on reopen.
        let specs = fleet_of(10);
        let run = |mut durable: DurableRegistry| {
            for s in &specs {
                durable.register_spec(s).unwrap();
            }
            durable.run_all().unwrap();
        };
        let dir = temp_dir("one-log");
        let on_files = || {
            let numbers = SegmentFiles::new(dir.path().into()).segments().unwrap();
            let read = |n| (n, std::fs::read(dir.path().join(segment_name(n))).unwrap());
            numbers.into_iter().map(read).collect::<Vec<_>>()
        };
        run(DurableRegistry::create(dir.path(), 2, SMALL_SEGMENTS).unwrap());
        let wal = MemStorage::default();
        run(DurableRegistry::create_in(&wal, 2, SMALL_SEGMENTS).unwrap());
        let segments = on_files();
        assert!(segments.len() > 2, "the fleet never rotated");
        assert!(
            wal.contents() == segments,
            "the devices hold different logs"
        );
        let on_disk: usize = segments.iter().map(|(_, bytes)| bytes.len()).sum();
        assert_eq!(wal.appended_bytes(), on_disk as u64);
        // A torn record at the end of the last segment of each.
        let (last, _) = *segments.last().unwrap();
        let torn = [0x55u8; 13];
        let path = dir.path().join(segment_name(last));
        let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(&torn).unwrap();
        let mut in_memory = wal.contents();
        in_memory.last_mut().unwrap().1.extend(torn);
        wal.set_contents(in_memory);
        let reopen = |opened: Result<(DurableRegistry, RecoveryReport), ServeError>| {
            let (durable, report) = opened.unwrap();
            (report, durable.registry().fleet_stats().wal_truncated_bytes)
        };
        let files_report = reopen(DurableRegistry::open(dir.path(), 2, SMALL_SEGMENTS));
        let device_report = reopen(DurableRegistry::open_in(&wal, 2, SMALL_SEGMENTS));
        assert_eq!(files_report, device_report);
        assert_eq!(files_report.0.truncated_bytes, 13);
        assert!(
            wal.contents() == on_files(),
            "the cut or the next segment differs"
        );
    }

    #[test]
    fn wal_records_and_a_real_event_log_decode_alike_from_cbor_and_json() {
        use crate::protocol::tests::codecs_agree;
        let mut tenant = spec(0);
        (tenant.name, tenant.budget) = ("tenant-é".into(), 32);
        let mut campaign = tenant.build();
        assert_eq!(campaign.run().n_finished, 32);
        let log = campaign.log().unwrap();
        codecs_agree(&log.to_vec());
        // In the log the series is one byte string; for a person it is
        // spelled out, and either reads back as the other.
        let json = serde_json::to_string(log).unwrap();
        assert!(json.contains("\"telemetry\":[{\"cpu\":"), "{json}");
        for record in [
            WalRecord::Register {
                id: 0,
                name: tenant.name.clone(),
                spec: Box::new(tenant),
                request_id: Some(9),
            },
            WalRecord::Ticks {
                id: 0,
                events: Cow::Borrowed(log),
            },
            WalRecord::Stop { id: 0 },
            // Opaque bytes: through JSON they travel as an array of numbers.
            WalRecord::Aux {
                key: "router-ops".into(),
                payload: vec![0x00, 0xff, 0xc3, 0x28, b'{'].into(),
            },
            WalRecord::Aux {
                key: "".into(),
                payload: Vec::new().into(),
            },
        ] {
            codecs_agree(&record);
        }
    }
}
