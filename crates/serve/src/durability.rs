//! Durable, append-only write-ahead log for the campaign fleet.
//!
//! PR 6 made campaigns *resumable* (snapshot → byte-verified replay);
//! this module makes the whole serving layer *crash-safe*: every tick a
//! campaign runs is appended to an on-disk WAL before the round is
//! acknowledged, and [`DurableRegistry::open`] rebuilds the exact fleet
//! from whatever the filesystem holds — including a torn final record
//! from a crash mid-write. Every event is written once: nothing is
//! rewritten, superseded or deleted. (A campaign's snapshot *is* its
//! event log, so a checkpoint would only be a second copy of it and
//! would shorten no replay.)
//!
//! # Record format
//!
//! A WAL is a directory of numbered segments (`wal-000001.seg`, …).
//! Each segment is a sequence of length-prefixed, CRC-checked records:
//!
//! ```text
//! ┌──────────┬──────────┬───────────────────┐
//! │ len: u32 │ crc: u32 │ payload (CBOR)    │   little-endian header,
//! └──────────┴──────────┴───────────────────┘   crc32(payload)
//! ```
//!
//! The payload is a [`WalRecord`] in the deterministic CBOR subset the
//! `ciborium` stub writes (the encoding of protocol frames too): a
//! campaign registration (spec + assigned id), the ticks a campaign ran
//! in a round, an administrative stop, or an auxiliary journal record
//! whose own payload is opaque bytes. A campaign is persisted one way
//! (`Register`, then `Ticks` deltas, then possibly `Stop`) and a
//! layered subsystem one way (`Aux` records).
//!
//! A `Ticks` record holds a campaign's events in their one form,
//! [`CampaignEvent`], which holds what a replay cannot recompute (its
//! docs lay out what each event keeps and why); a snapshot holds the
//! same events. They are encoded from the live event log where it lies:
//! nothing is cloned or converted to be written, and every record is
//! encoded into one buffer the handle keeps.
//!
//! Recovery reads segments in order, front to back, and stops at the
//! first record whose header or CRC fails *in the final segment* — that
//! tail is a torn write from the crash and is truncated, not fatal. The
//! same failure in an earlier segment means real corruption and is
//! reported as [`ServeError::Storage`]. So is, in any segment, a record
//! whose length and CRC hold but whose payload does not decode: a torn
//! write cannot produce one, so it is corruption or a foreign format (a
//! log of the JSON era, or one whose `Events` records hold full events),
//! and nothing is truncated for it. The `wal_dump` example prints a log
//! as JSON lines, the packed series spelled out as numbers
//! ([`crate::dump_wal`]).
//!
//! # Recovery invariant
//!
//! Every `Ticks` record holds whole ticks: events are flushed only
//! after a registry round, which leaves every campaign on a tick
//! boundary, and a record torn by a crash fails its CRC and is dropped
//! whole. So for every campaign the concatenation of its logged `Ticks`
//! is a prefix of its deterministic history that ends on a tick
//! boundary. Recovery is one replay, [`Campaign::replay`], the one
//! [`Campaign::resume`] runs on a snapshot too: the logged measurements
//! stand in for the target, a fresh build of the spec recomputes every
//! other event, and each rebuilt event must be the logged one bit for
//! bit, compared field by field without encoding either (a float by its
//! bits, so `-0.0` is not `0.0`; a crashed trial's NaN cost is `None` on
//! both sides). What comes out is the campaign the log's measurements
//! produce, its full event log and history included, and live
//! measurement takes over with the next tick.
//!
//! What the fresh build recomputes depends on whether the campaign is
//! **finished**: stopped, or its source ran dry (the last `SuggestEnd`
//! did not dispatch) with every suggested trial's outcome logged, so it
//! will never call its source again. An *active* campaign replays its
//! spec's own optimizer, and a divergence in any suggestion, optimizer
//! event or outcome scalar makes `open` fail. A *finished* one replays
//! with its log standing in for its optimizer too ([`LoggedSource`]): its
//! suggestions and model counters come back as logged, while its outcome
//! scalars, fault rolls, clock, dispatch flags and event count are still
//! recomputed and compared. A finished campaign is only ever read, and
//! this rebuilds everything that is read of it exactly. [`verify_wal`]
//! replays every campaign through its optimizer, finished ones included,
//! writing nothing; the `wal_dump` example runs it. An event count that
//! is off and a log that stops inside a tick (which this module never
//! writes) fail either way. Every refusal is [`ServeError::Campaign`],
//! and recovery writes nothing for it.
//!
//! Campaigns share nothing, so the order they are rebuilt in is free.
//! Finished campaigns rebuild on the caller in id order. The active
//! campaigns whose log holds an `Opt` `SurrogateRefit` or `ModelUpdate`
//! (what [`Campaign::has_model`] reads, the split the registry runs its
//! rounds on) replay side by side, one thread each; every other campaign
//! replays on the caller in id order. Results are taken in id order, so
//! the first refusal in id order is the error, and `open` opens no
//! segment before every rebuild has succeeded (the one write recovery
//! makes, cutting a torn tail, comes before any rebuild).
//!
//! # Failure model
//!
//! **A round reaches the log in one write per segment.** Every
//! campaign's `Ticks` record is encoded back to back into the handle's
//! one buffer, each with its own header, and the buffer goes to the file
//! in one `write_all`, split only where a record takes the segment to
//! `segment_bytes` and the log rotates. A registration, a stop and an
//! auxiliary record are batches of one. Every record takes one number of
//! a monotone operation counter, in order, and lands in the segment a
//! write of its own would put it in.
//!
//! **A handle that could not finish a write is dead.** An `io::Error`
//! from writing a batch or opening the next segment, and a crash point
//! of an armed [`ChaosPlan`] ([`DurableRegistry::set_chaos`]), end in the
//! same private `die`: the first reason is kept, every later call that
//! could append returns it as the same [`ServeError::Storage`] *before*
//! it touches the registry, nothing more is acknowledged, and only
//! [`DurableRegistry::open`] brings the fleet back. So memory never runs
//! ahead of the acknowledged log, and no record lands behind a torn one.
//! The plan consults [`ChaosPlan::crash_at`] on each record's operation
//! number, and the first record of a batch it crashes decides the landed
//! prefix: the records before it land whole (and are acknowledged), and
//! of it `PreAppend` nothing, `MidAppend` a torn prefix,
//! `PostAppendPreAck` the whole record (its acknowledgement is what is
//! lost); nothing after it lands. [`DurableRegistry::crashed`] names the
//! point for both kinds; a real failure reports the one it cannot be told
//! from on disk (`MidAppend` for a failed write, of which an unknown
//! prefix landed, none of it acknowledged; `PreAppend` for a segment that
//! would not open) and carries the `io::Error` in its text.
//!
//! **A worker panic** — a panic while a campaign's wave is measured, on
//! the thread that called `step_round` (the pool is virtual), or one a
//! side-by-side suggest or observe task raised, which `step_round`
//! re-raises on that thread with its own payload — is caught at the
//! `step_round` boundary: the suspect in-memory campaigns are discarded
//! and rebuilt from the WAL, inside the registry that was serving them,
//! through the same rebuild `open` runs (finished campaigns from their
//! log, active model campaigns side by side, the rest on the caller in
//! id order). The injected one is raised
//! with `resume_unwind`, which never runs the panic hook, so no
//! process-global hook is swapped to keep it quiet.

use crate::chaos::{ChaosPlan, CrashPoint};
use crate::registry::{AdmissionConfig, CampaignRegistry, ServeError};
use crate::spec::CampaignSpec;
use autotune::{
    Campaign, CampaignError, CampaignEvent, OptEvent, SourceStep, TrialOutcome, TrialSource,
};
use autotune_linalg::par_map;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

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
    dir: PathBuf,
    config: WalConfig,
    chaos: Option<ChaosPlan>,
    /// Monotone append counter driving chaos rolls. Owned by the
    /// handle, not derived from WAL contents, so a recovered process
    /// does not re-roll the crash that killed it.
    ops: u64,
    seg_index: u64,
    seg: std::fs::File,
    seg_bytes: u64,
    /// The batch being written, each record with its header, back to
    /// back: every append encodes into this one buffer.
    buf: Vec<u8>,
    /// Per-campaign count of events already durable.
    durable_len: BTreeMap<u64, usize>,
    /// The auxiliary journal [`DurableRegistry::open`] read, held until
    /// its owner collects it with [`DurableRegistry::take_aux_log`].
    /// Live appends never land here.
    recovered_aux: Vec<(String, Vec<u8>)>,
    /// Why this handle is dead (written by `die` only): the crash point
    /// and the error every later call repeats.
    crashed: Option<(CrashPoint, String)>,
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
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        if !list_segments(&dir)?.is_empty() {
            return Err(ServeError::Storage(format!(
                "{} already holds WAL segments; use open",
                dir.display()
            )));
        }
        Self::over(dir, config, CampaignRegistry::new(workers), 0)
    }

    /// Rebuilds the fleet from the WAL in `dir`: reads every segment,
    /// truncates a torn tail and replays each campaign through
    /// [`Campaign::replay`]. A finished campaign (stopped, or drained with
    /// every outcome logged) replays with its log standing in for its
    /// optimizer, on the caller in id order; of the active ones, those
    /// whose log announces a surrogate model replay their optimizer side
    /// by side, one thread each, and the rest on the caller in id order.
    /// The error is the first refusal in id order, and a refused log gets
    /// no new segment. Chaos is disarmed on the recovered handle.
    /// [`verify_wal`] recomputes what this takes as logged.
    pub fn open(
        dir: impl Into<PathBuf>,
        workers: usize,
        config: WalConfig,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        let dir = dir.into();
        let mut aux_log = Vec::new();
        let recovered = recover_dir(&dir, true, |key, payload| aux_log.push((key, payload)))?;
        let mut registry = CampaignRegistry::new(workers);
        let mut durable_len = BTreeMap::new();
        rebuild_fleet(recovered.fleet, false, |id, d, campaign| {
            durable_len.insert(id, d.events.len());
            registry.restore_entry(id, d.name, campaign, d.stopped, d.records);
            if let Some(rid) = d.request_id {
                registry.restore_request_id(rid, id);
            }
            Ok(())
        })?;
        registry.note_fleet_recovery(recovered.report.truncated_bytes);
        // Only now, so a log that replay refuses leaves no new segment.
        let mut s = Self::over(dir, config, registry, recovered.max_seg)?;
        s.durable_len = durable_len;
        s.recovered_aux = aux_log;
        Ok((s, recovered.report))
    }

    /// A handle over `registry`, appending to a fresh segment after
    /// `max_seg`.
    fn over(
        dir: PathBuf,
        config: WalConfig,
        registry: CampaignRegistry,
        max_seg: u64,
    ) -> Result<Self, ServeError> {
        let seg_index = max_seg + 1;
        let seg = open_segment(&dir, seg_index).map_err(io_err)?;
        Ok(DurableRegistry {
            registry,
            dir,
            config,
            chaos: None,
            ops: 0,
            seg_index,
            seg,
            seg_bytes: 0,
            buf: Vec::new(),
            durable_len: BTreeMap::new(),
            recovered_aux: Vec::new(),
            crashed: None,
        })
    }

    /// Applies admission limits.
    pub fn set_admission(&mut self, admission: AdmissionConfig) {
        self.registry.set_admission(admission);
    }

    /// Arms chaos injection: WAL crash points on this handle's append
    /// counter and worker panics while a wave is measured.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(plan);
        self.registry.inject_worker_panics(plan);
    }

    /// The wrapped registry (stats, snapshots, campaign access).
    pub fn registry(&self) -> &CampaignRegistry {
        &self.registry
    }

    /// The crash point that killed this handle, if it is dead (for a
    /// real failure, the one it cannot be told from on disk).
    pub fn crashed(&self) -> Option<CrashPoint> {
        self.crashed.as_ref().map(|(point, _)| *point)
    }

    /// The error every call repeats once the handle is dead. Checked
    /// before a call changes anything in memory.
    pub(crate) fn check_alive(&self) -> Result<(), ServeError> {
        match &self.crashed {
            Some((_, reason)) => Err(ServeError::Storage(reason.clone())),
            None => Ok(()),
        }
    }

    /// Kills the handle: a write did not land and get acknowledged, so
    /// nothing more is until [`DurableRegistry::open`]. The first reason
    /// is kept; the error returned is the one `check_alive` repeats.
    fn die(&mut self, point: CrashPoint, why: String) -> ServeError {
        let (_, reason) = self
            .crashed
            .get_or_insert_with(|| (point, why + "; reopen from the WAL"));
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
        let known = request_id.map(|_| self.registry.len()).unwrap_or_default();
        let id = self.registry.admit_spec(spec, request_id)?;
        if request_id.is_some() && self.registry.len() == known {
            // Idempotent replay of an existing registration: nothing
            // new to persist.
            return Ok(id);
        }
        self.durable_len.insert(id, 0);
        self.append(&WalRecord::Register {
            id,
            name: spec.name.clone(),
            spec: Box::new(spec.clone()),
            request_id,
        })?;
        self.registry.note_wal_appends(id, 1);
        Ok(id)
    }

    /// Registers without admission control or idempotency key.
    pub fn register_spec(&mut self, spec: &CampaignSpec) -> Result<u64, ServeError> {
        self.admit_spec(spec, None)
    }

    /// Appends one auxiliary journal record under `key`, durable before
    /// return. Subsystems layered on the registry (the config-cache
    /// router) journal their operations here and replay them in order
    /// after [`DurableRegistry::open`] via
    /// [`DurableRegistry::take_aux_log`]. Nothing is retained in memory.
    pub fn append_aux(&mut self, key: &str, payload: impl Into<Vec<u8>>) -> Result<(), ServeError> {
        self.check_alive()?;
        self.append(&WalRecord::Aux {
            key: Cow::Borrowed(key),
            payload: Cow::Owned(payload.into()),
        })
    }

    /// Hands over every `(key, payload)` auxiliary record
    /// [`DurableRegistry::open`] read from the WAL, in append order, each
    /// payload the bytes its owner appended (the owner decodes them one
    /// at a time as it replays: held decoded, a long journal would cost
    /// several times its size on disk). The journal is moved out: a
    /// second call (and any call on a handle made by
    /// [`DurableRegistry::create`]) returns an empty list.
    pub fn take_aux_log(&mut self) -> Vec<(String, Vec<u8>)> {
        std::mem::take(&mut self.recovered_aux)
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
        let mut rounds = 0;
        while self.registry.has_runnable() {
            self.step_round()?;
            rounds += 1;
        }
        Ok(rounds)
    }

    /// Seals the open segment: later appends go to a fresh one. Nothing
    /// is rewritten or deleted (the log already holds every event once),
    /// so this is a rotation and nothing else.
    pub fn checkpoint(&mut self) -> Result<(), ServeError> {
        self.check_alive()?;
        self.rotate_segment()
    }

    /// Appends every campaign's events past its durable frontier (whole
    /// ticks: a round leaves every campaign on a tick boundary), encoded
    /// from the live log where it lies: one `Ticks` record a campaign, in
    /// id order, back to back in the handle's buffer, written as one batch
    /// ([`DurableRegistry::write_batch`]). Each campaign's appends and
    /// durable frontier are booked if its record landed whole.
    fn flush_events(&mut self) -> Result<(), ServeError> {
        self.buf.clear();
        let (mut ends, mut frontiers) = (Vec::new(), Vec::new());
        let mut unencoded = None;
        for id in self.registry.ids() {
            let campaign = self.registry.campaign(id)?;
            let Some(log) = campaign.log() else { continue };
            let durable = self.durable_len.get(&id).copied().unwrap_or(0);
            if log.len() <= durable {
                continue;
            }
            let events = Cow::Borrowed(&log[durable..]);
            if let Err(why) = encode_record(&WalRecord::Ticks { id, events }, &mut self.buf) {
                unencoded = Some(why);
                break;
            }
            ends.push(self.buf.len());
            frontiers.push((id, log.len()));
        }
        let written = self.write_batch(&ends);
        let landed = match &written {
            Ok(()) => ends.len(),
            Err((landed, _)) => *landed,
        };
        for &(id, new_len) in &frontiers[..landed] {
            self.registry.note_wal_appends(id, 1);
            self.durable_len.insert(id, new_len);
        }
        written.map_err(|(_, e)| e)?;
        match unencoded {
            Some(why) => Err(self.unencoded(why)),
            None => Ok(()),
        }
    }

    /// Discards every in-memory campaign after a worker panic and swaps
    /// in its rebuild from the WAL — quarantine-and-restart-from-snapshot
    /// at the round boundary. The registry stays, and with it the round
    /// counter (round-keyed chaos rolls never re-fire), admission, credit
    /// and accounting. The panicked round was never acknowledged, so the
    /// rebuilt campaigns re-execute its ticks identically.
    fn recover_in_place(&mut self) -> Result<(), ServeError> {
        let recovered = recover_dir(&self.dir, true, |_, _| {})?;
        rebuild_fleet(recovered.fleet, false, |id, d, campaign| {
            self.durable_len.insert(id, d.events.len());
            self.registry.replace_campaign(id, campaign)
        })?;
        self.registry
            .note_fleet_recovery(recovered.report.truncated_bytes);
        // The campaigns whose waves panicked this round (a pure re-roll
        // of the same chaos decision).
        let round = self.registry.rounds();
        for id in self.registry.ids() {
            if self.chaos.is_some_and(|p| p.worker_panics(round, id)) {
                self.registry.note_campaign_recovery(id);
            }
        }
        Ok(())
    }

    /// Appends one record: a batch of one ([`DurableRegistry::write_batch`]).
    fn append(&mut self, record: &WalRecord) -> Result<(), ServeError> {
        self.buf.clear();
        if let Err(why) = encode_record(record, &mut self.buf) {
            return Err(self.unencoded(why));
        }
        self.write_batch(&[self.buf.len()]).map_err(|(_, e)| e)
    }

    /// Refuses a record that did not encode: it takes its operation
    /// number, and the handle dies before a byte of it is written.
    fn unencoded(&mut self, why: String) -> ServeError {
        self.ops += 1;
        let why = format!("WAL record did not encode: {why}");
        self.die(CrashPoint::PreAppend, why)
    }

    /// Appends the records [`encode_record`] left back to back in the
    /// handle's buffer, record `i` ending at `ends[i]`: one `write_all` for
    /// each segment the batch touches. Each record takes the next operation
    /// number, and the segment rotates after any record that takes it to
    /// `segment_bytes`, so every record lands where a write of its own
    /// would put it. `Err` carries how many records landed and were
    /// acknowledged (the ones to book) and means the handle is dead. A
    /// chaos crash point only decides how many bytes the batch's last
    /// write is handed: the records before the first one the plan crashes
    /// land whole, that one lands per its point, and nothing after it. A
    /// write that fails leaves an unknown prefix of its bytes in the file,
    /// which nothing may land behind.
    fn write_batch(&mut self, ends: &[usize]) -> Result<(), (usize, ServeError)> {
        // Records `from..` (bytes `start..`) are not written yet; record `i`
        // starts at `begin`.
        let (mut from, mut start, mut begin) = (0, 0, 0);
        for (i, &end) in ends.iter().enumerate() {
            let op = self.ops;
            self.ops += 1;
            if let Some(plan) = self.chaos {
                if let Some(point) = plan.crash_at(op) {
                    let landed = match point {
                        CrashPoint::PreAppend => 0,
                        CrashPoint::MidAppend => plan.torn_len(op, end - begin),
                        CrashPoint::PostAppendPreAck => end - begin,
                    };
                    self.write_out(start, begin + landed)
                        .map_err(|e| (from, e))?;
                    let why = format!("simulated crash ({})", point.label());
                    return Err((i, self.die(point, why)));
                }
            }
            self.seg_bytes += (end - begin) as u64;
            if self.seg_bytes >= self.config.segment_bytes {
                self.write_out(start, end).map_err(|e| (from, e))?;
                (from, start) = (i + 1, end);
                self.rotate_segment().map_err(|e| (i, e))?;
            }
            begin = end;
        }
        self.write_out(start, begin).map_err(|e| (from, e))
    }

    /// Writes `buf[start..end]` to the open segment in one call; a write
    /// that fails kills the handle.
    fn write_out(&mut self, start: usize, end: usize) -> Result<(), ServeError> {
        let written = self.seg.write_all(&self.buf[start..end]);
        written.map_err(|e| self.die(CrashPoint::MidAppend, format!("WAL write failed: {e}")))
    }

    fn rotate_segment(&mut self) -> Result<(), ServeError> {
        let next = self.seg_index + 1;
        self.seg = open_segment(&self.dir, next).map_err(|e| {
            let why = format!("WAL segment {next} would not open: {e}");
            self.die(CrashPoint::PreAppend, why)
        })?;
        self.seg_index = next;
        self.seg_bytes = 0;
        Ok(())
    }
}

/// One campaign's durable state, as accumulated from its WAL records.
struct Durable {
    name: String,
    spec: Box<CampaignSpec>,
    request_id: Option<u64>,
    events: Vec<CampaignEvent>,
    stopped: bool,
    records: u64,
}

/// What [`recover_dir`] read from the WAL.
struct Recovered {
    fleet: BTreeMap<u64, Durable>,
    /// The highest segment index seen.
    max_seg: u64,
    report: RecoveryReport,
}

/// Replays a campaign's durable log into a fresh build of its spec
/// ([`Campaign::replay`]): the logged measurements are the replay's
/// input, and every event it rebuilds must be the logged one bit for
/// bit. The log ends on a tick boundary, so the rebuilt campaign's log
/// is the logged history. With `from_log` the build's optimizer is its
/// log ([`LoggedSource`]), which only a [`finished`] campaign may take.
fn rebuild(
    spec: &CampaignSpec,
    logged: &[CampaignEvent],
    from_log: bool,
) -> Result<Campaign<'static>, CampaignError> {
    let fresh = if from_log {
        spec.build_with(|_| Box::new(LoggedSource::new(logged)))
    } else {
        spec.build()
    };
    Campaign::replay(fresh, logged)
}

/// Whether a logged campaign will never call its trial source again:
/// its entry is stopped, or its log is [`drained`], so there is nothing
/// left to suggest or to report.
fn finished(d: &Durable) -> bool {
    d.stopped || drained(&d.events)
}

/// Whether a logged source ran dry (the last `SuggestEnd` did not
/// dispatch) with every suggested trial's outcome logged.
fn drained(events: &[CampaignEvent]) -> bool {
    let (mut suggested, mut outcomes, mut last_dispatched) = (0, 0, None);
    for e in events {
        match e {
            CampaignEvent::Suggested { .. } => suggested += 1,
            CampaignEvent::Outcome { .. } => outcomes += 1,
            CampaignEvent::Opt {
                event: OptEvent::SuggestEnd { dispatched, .. },
            } => last_dispatched = Some(*dispatched),
            _ => {}
        }
    }
    last_dispatched == Some(false) && suggested == outcomes
}

/// A finished campaign's optimizer played back from its log, the way
/// the logged measurements stand in for its target: `next` answers
/// each logged suggestion in order (`Exhausted` at the last `SuggestEnd`
/// that did not dispatch, `Wait` at an earlier one), `report` learns
/// nothing, and after each call the model counters read what the log's
/// `SurrogateRefit`/`ModelUpdate` events announced after it. A log that
/// lies about its own shape runs the answers out of step, and the
/// replay refuses the events that come out.
struct LoggedSource {
    /// One entry per source call the log records, in call order: a
    /// `SuggestEnd` (what `next` answered) or an `ObserveEnd` (`None`).
    calls: std::vec::IntoIter<LoggedCall>,
    refits: usize,
    updates: usize,
}

struct LoggedCall {
    next: Option<SourceStep>,
    refits: usize,
    updates: usize,
}

impl LoggedSource {
    fn new(logged: &[CampaignEvent]) -> Self {
        let mut requests = logged.iter().filter_map(|e| match e {
            CampaignEvent::Suggested { request, .. } => Some(request),
            _ => None,
        });
        let last_idle = logged.iter().rposition(|e| {
            matches!(
                e,
                CampaignEvent::Opt {
                    event: OptEvent::SuggestEnd {
                        dispatched: false,
                        ..
                    }
                }
            )
        });
        let mut calls: Vec<LoggedCall> = Vec::new();
        for (i, e) in logged.iter().enumerate() {
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
                OptEvent::SuggestEnd { .. } if last_idle == Some(i) => Some(SourceStep::Exhausted),
                OptEvent::SuggestEnd { .. } => Some(SourceStep::Wait),
                OptEvent::ObserveEnd { .. } => None,
                OptEvent::SurrogateRefit { n_refits, .. } => {
                    if let Some(call) = calls.last_mut() {
                        call.refits = n_refits;
                    }
                    continue;
                }
                OptEvent::ModelUpdate { n_updates, .. } => {
                    if let Some(call) = calls.last_mut() {
                        call.updates = n_updates;
                    }
                    continue;
                }
                _ => continue,
            };
            let (refits, updates) = calls.last().map_or((0, 0), |c| (c.refits, c.updates));
            calls.push(LoggedCall {
                next,
                refits,
                updates,
            });
        }
        LoggedSource {
            calls: calls.into_iter(),
            refits: 0,
            updates: 0,
        }
    }

    /// The next logged call, its counters now the source's.
    fn call(&mut self) -> Option<SourceStep> {
        let call = self.calls.next()?;
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

/// Whether a logged history announces a surrogate model: an `Opt`
/// `SurrogateRefit` or `ModelUpdate`, the events whose counters
/// [`Campaign::has_model`] reads once the campaign is rebuilt.
fn announces_model(logged: &[CampaignEvent]) -> bool {
    logged.iter().any(|e| {
        matches!(
            e,
            CampaignEvent::Opt {
                event: OptEvent::SurrogateRefit { .. } | OptEvent::ModelUpdate { .. }
            }
        )
    })
}

/// Rebuilds every campaign of a recovered fleet ([`rebuild`]) and hands
/// each, with its durable state, to `restore` in id order; the first
/// refusal in id order ends the walk and is returned. A [`finished`]
/// campaign replays with its log as its optimizer unless
/// `rerun_finished`, in microseconds a trial whatever its optimizer. A
/// model campaign that replays its optimizer re-runs every GP fit,
/// milliseconds a trial, so those (the ones whose log
/// [`announces_model`]) replay first, side by side through `par_map`,
/// one thread each (one alone stays on the caller, where its GP's own
/// `par_map` keeps the second core). The rest replay on the caller as
/// the walk reaches them, a random search in microseconds a trial, less
/// than a spawn, and their durable state is released as it goes.
fn rebuild_fleet(
    fleet: BTreeMap<u64, Durable>,
    rerun_finished: bool,
    mut restore: impl FnMut(u64, Durable, Campaign<'static>) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    let from_log = |d: &Durable| !rerun_finished && finished(d);
    let model: Vec<(&u64, &Durable)> = fleet
        .iter()
        .filter(|(_, d)| !from_log(d) && announces_model(&d.events))
        .collect();
    let replay = |d: &Durable| rebuild(&d.spec, &d.events, from_log(d));
    let mut side_by_side: BTreeMap<u64, _> = par_map(&model, 2, |_, (id, d)| (**id, replay(d)))
        .into_iter()
        .collect();
    for (id, d) in fleet {
        let campaign = side_by_side.remove(&id).unwrap_or_else(|| replay(&d))?;
        restore(id, d, campaign)?;
    }
    Ok(())
}

/// Checks the WAL in `dir` the way [`DurableRegistry::open`] checks an
/// active campaign, for every campaign, writing nothing: reads every
/// segment, refuses a torn or
/// undecodable record wherever it sits (as [`crate::dump_wal`] does),
/// and replays **every** campaign through its spec's own optimizer, so
/// each logged suggestion and model counter is recomputed and compared
/// too, finished campaigns' included (which `open` takes as logged).
/// The error is the first refusal in id order.
pub fn verify_wal(dir: &Path) -> Result<RecoveryReport, ServeError> {
    let recovered = recover_dir(dir, false, |_, _| {})?;
    rebuild_fleet(recovered.fleet, true, |_, _, _| Ok(()))?;
    Ok(recovered.report)
}

/// Reads the WAL in `dir` front to back, handing `aux` every auxiliary
/// journal record in append order. With `heal`, a torn tail is
/// truncated from the final segment (so future appends start at a clean
/// record boundary); anywhere else, and anywhere at all without `heal`,
/// it is corruption and refused, and nothing is written.
fn recover_dir(
    dir: &Path,
    heal: bool,
    mut aux: impl FnMut(String, Vec<u8>),
) -> Result<Recovered, ServeError> {
    let segments = written_segments(dir)?;
    let mut report = RecoveryReport {
        segments_read: segments.len(),
        ..RecoveryReport::default()
    };
    // Sorted by index and not empty.
    let last_idx = segments.len() - 1;
    let max_seg = segments[last_idx].0;
    let mut fleet: BTreeMap<u64, Durable> = BTreeMap::new();
    for (i, (_, path)) in segments.iter().enumerate() {
        let (clean, torn) = read_segment(path, |_, _, record| {
            report.records_read += 1;
            match record {
                WalRecord::Register {
                    id,
                    name,
                    spec,
                    request_id,
                } => {
                    fleet.insert(
                        id,
                        Durable {
                            name,
                            spec,
                            request_id,
                            events: Vec::new(),
                            stopped: false,
                            records: 1,
                        },
                    );
                }
                WalRecord::Ticks { id, events } => {
                    if let Some(r) = fleet.get_mut(&id) {
                        r.events.extend(events.into_owned());
                        r.records += 1;
                    }
                }
                WalRecord::Stop { id } => {
                    if let Some(r) = fleet.get_mut(&id) {
                        r.stopped = true;
                        r.records += 1;
                    }
                }
                WalRecord::Aux { key, payload } => aux(key.into_owned(), payload.into_owned()),
            }
            Ok(())
        })?;
        if torn > 0 {
            if !heal {
                return Err(torn_record(path, clean));
            }
            if i != last_idx {
                return Err(ServeError::Storage(format!(
                    "corrupt record mid-WAL in {} (not the final segment)",
                    path.display()
                )));
            }
            report.truncated_bytes += torn;
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(io_err)?;
            file.set_len(clean).map_err(io_err)?;
        }
    }
    report.campaigns = fleet.len();
    Ok(Recovered {
        fleet,
        max_seg,
        report,
    })
}

/// The record that starts at byte `at`: its payload and where it ends.
/// `None` when the bytes from `at` on are not a whole record whose CRC
/// holds, which is the clean end of the segment when `at` is its length
/// and a torn tail otherwise.
fn record_at(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let header = bytes.get(at..at.checked_add(8)?)?;
    let (len, crc) = header.split_at(4);
    let len = u32::from_le_bytes(len.try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(crc.try_into().ok()?);
    let end = (at + 8).checked_add(len)?;
    let payload = bytes.get(at + 8..end)?;
    (crc32(payload) == crc).then_some((payload, end))
}

/// The one WAL reader: decodes the segment at `path` front to back and
/// hands `each` every record with its byte offset and payload length,
/// until the bytes run out or a record fails its header/CRC check.
/// Returns the clean byte count and how many bytes follow it; what such
/// a tail means is the caller's call, and nothing is written here. A
/// record whose CRC holds but whose payload does not decode ends the
/// walk with [`ServeError::Storage`] (see the module docs).
fn read_segment(
    path: &Path,
    mut each: impl FnMut(usize, usize, WalRecord<'static>) -> Result<(), ServeError>,
) -> Result<(u64, u64), ServeError> {
    let bytes = std::fs::read(path).map_err(io_err)?;
    let mut at = 0usize;
    while let Some((payload, end)) = record_at(&bytes, at) {
        let record: WalRecord = ciborium::from_slice(payload).map_err(|why| {
            ServeError::Storage(format!(
                "undecodable record in {} at offset {at}: its length and CRC hold, so this is \
                 corruption or a foreign format (a log of an earlier build?), not a torn write, \
                 and nothing was truncated: {why}",
                path.display()
            ))
        })?;
        each(at, payload.len(), record)?;
        at = end;
    }
    Ok((at as u64, (bytes.len() - at) as u64))
}

/// Reads the WAL in `dir` front to back for inspection, handing `each`
/// every record with its segment number, byte offset in the segment and
/// payload length. Unlike recovery it heals nothing: the first record
/// that is torn, fails its CRC or does not decode ends the scan with
/// [`ServeError::Storage`], wherever it sits, and no file is written.
pub(crate) fn scan_wal(
    dir: &Path,
    mut each: impl FnMut(u64, usize, usize, WalRecord<'static>) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    for (seg_no, path) in written_segments(dir)? {
        let (clean, torn) = read_segment(&path, |at, len, record| each(seg_no, at, len, record))?;
        if torn > 0 {
            return Err(torn_record(&path, clean));
        }
    }
    Ok(())
}

/// The refusal of a read that heals nothing, for the bytes of the
/// segment at `path` from offset `clean` on.
fn torn_record(path: &Path, clean: u64) -> ServeError {
    ServeError::Storage(format!(
        "torn or corrupt record in {} at offset {clean}",
        path.display()
    ))
}

/// Appends to `out` one record as it lies on disk: the payload is
/// encoded behind a placeholder header and the header patched, so records
/// encoded back to back are written as one buffer. On `Err`, `out` is
/// left as it was.
fn encode_record(record: &WalRecord, out: &mut Vec<u8>) -> Result<(), String> {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    let encoded = ciborium::into_writer(record, &mut *out).map_err(|e| e.to_string());
    let len = encoded
        .and_then(|()| u32::try_from(out.len() - start - 8).map_err(|_| "over 4 GiB".to_string()));
    let len = len.inspect_err(|_| out.truncate(start))?;
    let (header, payload) = out[start..].split_at_mut(8);
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

/// Opens segment `index` of the WAL in `dir` for appending, creating it.
fn open_segment(dir: &Path, index: u64) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(segment_path(dir, index))
}

/// Numbered WAL segments in `dir`, sorted by index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err(e)),
    };
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        else {
            continue;
        };
        if let Ok(idx) = num.parse::<u64>() {
            out.push((idx, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// The segments of a WAL that must exist: a directory without any is
/// not a log.
fn written_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
    let segments = list_segments(dir)?;
    if segments.is_empty() {
        return Err(ServeError::Storage(format!(
            "no WAL segments in {}",
            dir.display()
        )));
    }
    Ok(segments)
}

fn io_err(e: std::io::Error) -> ServeError {
    ServeError::Storage(e.to_string())
}

/// The slicing-by-8 tables: `[0]` is the bytewise table, and `[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table
/// lookups advance the CRC over eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// Advances the CRC register `c` over `bytes`, eight bytes a step
/// (slicing-by-8).
fn slice8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    chunks.remainder().iter().fold(c, |c, &b| crc32_step(c, b))
}

/// [`crc32`] by the tables alone: the path of a CPU without carry-less
/// multiply.
fn crc32_slice8(bytes: &[u8]) -> u32 {
    !slice8(!0, bytes)
}

/// [`crc32`] by carry-less multiply, where the CPU has it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn crc32_clmul(bytes: &[u8]) -> Option<u32> {
    if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
        return None;
    }
    // SAFETY: `clmul::crc32` needs PCLMULQDQ and SSE4.1, and this CPU was
    // just found to have both.
    Some(unsafe { clmul::crc32(bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
fn crc32_clmul(_: &[u8]) -> Option<u32> {
    None
}

/// CRC-32 (IEEE 802.3), the WAL's record integrity check, on write and
/// on read. On an x86-64 CPU with PCLMULQDQ and SSE4.1 it folds 64 bytes a
/// step by carry-less multiply ([`clmul`]); elsewhere, for an input under
/// 64 bytes and for the tail under 16, it runs the slicing-by-8 tables.
/// Both compute the same value, so a log reads the same on either.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_clmul(bytes).unwrap_or_else(|| crc32_slice8(bytes))
}

/// CRC-32 by folding with carry-less multiply, after Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Gopal et al., 2009), bit-reflected, with the IEEE constants the Linux
/// kernel's `crc32-pclmul` uses. Four 128-bit lanes fold 64 bytes a step;
/// the lanes fold into one, 16 bytes a step; one Barrett reduction takes
/// the 128 bits left to the 32-bit register, and the tables finish the
/// tail.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Bit-reflected, as the reflected CRC wants them; the fold constants
    // K1-K5 are also shifted left one bit.
    /// x^(4·128+32) and x^(4·128-32) mod P: one fold across four lanes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128-32) mod P: one fold across a lane.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P and floor(x^64 / P): the Barrett reduction.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// A 16-byte block as `_mm_loadu_si128` reads it.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let word = |at: usize| {
            let mut le = [0; 8];
            le.copy_from_slice(&block[at..at + 8]);
            i64::from_le_bytes(le)
        };
        _mm_set_epi64x(word(8), word(0))
    }

    /// `acc` carried 128 bits (the distance `k` holds) further and added
    /// to `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::crc32_slice8(bytes);
        }
        let (head, rest) = bytes.split_at(64);
        let mut lanes = [0, 16, 32, 48].map(|at| load(&head[at..at + 16]));
        // The register starts at all ones, over the first four bytes.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(-1));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(64);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad.chunks_exact(16)) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [a, b, c, d] = lanes;
        let mut x = fold(fold(fold(a, b, k3k4), c, k3k4), d, k3k4);
        let mut blocks = quads.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold(x, load(block), k3k4);
        }
        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·mu, T2 = (T1 mod x^32)·P, and the
        // register is the upper half of R + T2 (the bits are reflected).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        !super::slice8(c, blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::{event_log, standalone_runs};
    use crate::spec::{NoiseSpec, OptimizerKind, SystemKind};
    use autotune::{SchedulePolicy, TrialRequest};
    use autotune_sim::{FaultPlan, NoiseConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("autotune-wal-{}-{}-{}", std::process::id(), tag, n));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

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

    /// Registers `specs` and runs the fleet dry or until an append
    /// crashes; `arm` runs before every call that appends.
    fn drive(
        dir: &Path,
        specs: &[CampaignSpec],
        config: WalConfig,
        arm: impl Fn(&mut DurableRegistry),
    ) -> DurableRegistry {
        let mut durable = DurableRegistry::create(dir, 2, config).unwrap();
        for s in specs {
            arm(&mut durable);
            if durable.register_spec(s).is_err() {
                return durable;
            }
        }
        while durable.registry().has_runnable() {
            arm(&mut durable);
            if durable.step_round().is_err() {
                break;
            }
        }
        durable
    }

    /// Reopens `dir` with chaos off, retries the registrations that never
    /// became durable, runs the fleet dry and returns every history in
    /// spec order.
    fn recover_and_finish(dir: &Path, specs: &[CampaignSpec], config: WalConfig) -> Vec<String> {
        let (mut recovered, _) = DurableRegistry::open(dir, 2, config).unwrap();
        for s in &specs[recovered.registry().len()..] {
            recovered.register_spec(s).unwrap();
        }
        recovered.run_all().unwrap();
        let ids = recovered.registry().ids();
        ids.into_iter().map(|id| history(&recovered, id)).collect()
    }

    /// The CRC-32 of `bytes` by every path this CPU runs: the dispatch,
    /// the tables, and the carry-less kernel where the CPU has it.
    fn crc32_paths(bytes: &[u8]) -> Vec<(&'static str, u32)> {
        let mut paths = vec![("crc32", crc32(bytes)), ("slice8", crc32_slice8(bytes))];
        paths.extend(crc32_clmul(bytes).map(|c| ("clmul", c)));
        paths
    }

    #[test]
    fn crc32_matches_known_vectors() {
        let counting: Vec<u8> = (0..1000).map(|i| i as u8).collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0; 64], 0x758D_6336),
            (&counting[..129], 0xCA91_CDF7),
            (&counting, 0x74E3_FB41),
        ];
        for (bytes, want) in vectors {
            for (path, got) in crc32_paths(bytes) {
                assert_eq!(got, want, "{path} over {} bytes", bytes.len());
            }
        }
    }

    #[test]
    fn crc32_paths_match_the_bytewise_definition_at_every_length_and_alignment() {
        // Every length up to 1 KiB at each of 16 alignments (so every tail
        // under 64 bytes after 0 to 15 whole 64-byte steps, 127/128/129
        // among them), then every length up to 4 KiB at one alignment each.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..4096 + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        let check = |skip: usize, lengths: &mut dyn Iterator<Item = usize>| {
            let data = &bytes[skip..];
            let (mut register, mut at) = (0xFFFF_FFFF, 0);
            for len in lengths {
                register = data[at..len]
                    .iter()
                    .fold(register, |c, &b| crc32_step(c, b));
                at = len;
                for (path, got) in crc32_paths(&data[..len]) {
                    assert_eq!(got, !register, "{path}: {len} bytes at offset {skip}");
                }
            }
        };
        for skip in 0..16 {
            check(skip, &mut (0..=1024));
        }
        for skip in 0..16 {
            check(skip, &mut (1025..=4096).filter(|len| len % 16 == skip));
        }
    }

    proptest::proptest! {
        /// Every path against the byte-at-a-time definition, over every
        /// length class (whole folds, every remainder) and alignment.
        #[test]
        fn crc32_matches_the_bytewise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..4096usize),
            skip in 0usize..16,
        ) {
            let bytes = &bytes[skip.min(bytes.len())..];
            let bytewise = bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF;
            for (path, got) in crc32_paths(bytes) {
                proptest::prop_assert_eq!(got, bytewise, "{}", path);
            }
        }
    }

    #[test]
    fn wal_round_trip_rebuilds_identical_fleet() {
        let dir = temp_dir("roundtrip");
        let specs: Vec<CampaignSpec> = (0..4).map(spec).collect();
        let mut durable = DurableRegistry::create(&dir, 2, WalConfig::default()).unwrap();
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| durable.register_spec(s).unwrap())
            .collect();
        for _ in 0..5 {
            durable.step_round().unwrap();
        }
        let live: Vec<String> = ids.iter().map(|id| history(&durable, *id)).collect();
        drop(durable);
        let (mut recovered, report) = DurableRegistry::open(&dir, 2, WalConfig::default()).unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        let specs: Vec<CampaignSpec> = (0..2).map(spec).collect();
        let mut durable = DurableRegistry::create(&dir, 1, WalConfig::default()).unwrap();
        for s in &specs {
            durable.register_spec(s).unwrap();
        }
        for _ in 0..3 {
            durable.step_round().unwrap();
        }
        drop(durable);
        // Tear the last segment by hand: append garbage half-record.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&last)
            .unwrap();
        f.write_all(&[0x55u8; 13]).unwrap();
        drop(f);
        let (recovered, report) = DurableRegistry::open(&dir, 1, WalConfig::default()).unwrap();
        assert_eq!(report.truncated_bytes, 13);
        assert_eq!(report.campaigns, 2);
        assert_eq!(recovered.registry().fleet_stats().wal_truncated_bytes, 13);
        // The file is clean again: a second open sees no torn bytes.
        drop(recovered);
        let (_, report2) = DurableRegistry::open(&dir, 1, WalConfig::default()).unwrap();
        assert_eq!(report2.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_record_is_refused_and_nothing_is_truncated() {
        // A record whose length and CRC hold but whose payload is no
        // `WalRecord` (here: a record of the JSON era) was not torn by a
        // crash. Treated as a torn tail it would be cut off, and a whole
        // JSON-era log would be cut to zero bytes; instead `open` fails
        // and every file keeps its length.
        let dir = temp_dir("foreign");
        let mut durable = DurableRegistry::create(&dir, 1, WalConfig::default()).unwrap();
        durable.register_spec(&spec(0)).unwrap();
        durable.step_round().unwrap();
        drop(durable);
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let clean_len = std::fs::metadata(&last).unwrap().len();
        let payload = b"{\"Stop\":{\"id\":0}}";
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&last)
            .unwrap();
        f.write_all(&record).unwrap();
        drop(f);
        let lengths = |dir: &Path| -> Vec<u64> {
            let segments = list_segments(dir).unwrap();
            let len = |(_, path): &(u64, PathBuf)| std::fs::metadata(path).unwrap().len();
            segments.iter().map(len).collect()
        };
        let before = lengths(&dir);
        match DurableRegistry::open(&dir, 1, WalConfig::default()) {
            Err(ServeError::Storage(msg)) => {
                let name = last.file_name().unwrap().to_str().unwrap();
                assert!(
                    msg.contains(name) && msg.contains(&format!("offset {clean_len}")),
                    "the error does not say where: {msg}"
                );
            }
            Err(e) => panic!("not a storage error: {e}"),
            Ok(_) => panic!("a log with an undecodable record opened"),
        }
        assert_eq!(lengths(&dir), before, "open wrote to a log it refused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_crash_points_all_recover_byte_identically() {
        // For each crash window, run with an aggressive chaos plan until
        // a crash fires, recover, finish, and compare to straight runs.
        let specs: Vec<CampaignSpec> = (0..3).map(spec).collect();
        let want: Vec<String> = specs.iter().map(straight_history).collect();
        for seed in [1u64, 2, 3, 4, 5, 6] {
            let dir = temp_dir(&format!("chaos{seed}"));
            let plan = ChaosPlan::new(seed).with_crashes(0.02);
            drop(drive(&dir, &specs, WalConfig::default(), |d| {
                d.set_chaos(plan)
            }));
            assert_eq!(
                recover_and_finish(&dir, &specs, WalConfig::default()),
                want,
                "seed {seed} diverged after crash recovery"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn aux_journal_survives_reopen_and_rotation() {
        let dir = temp_dir("aux");
        let mut durable = DurableRegistry::create(&dir, 1, SMALL_SEGMENTS).unwrap();
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
                assert!(durable.seg_index > 2, "the log never rotated");
            }
            durable.append_aux(key, payload.clone()).unwrap();
        }
        assert!(
            durable.take_aux_log().is_empty(),
            "appends are not retained"
        );
        drop(durable);
        let (mut reopened, _) = DurableRegistry::open(&dir, 1, SMALL_SEGMENTS).unwrap();
        assert_eq!(reopened.take_aux_log(), journal);
        assert!(reopened.take_aux_log().is_empty(), "handed over once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_panics_recover_at_the_pool_boundary() {
        let dir = temp_dir("panic");
        let specs: Vec<CampaignSpec> = (0..3).map(spec).collect();
        let want: Vec<String> = specs.iter().map(straight_history).collect();
        let mut durable = DurableRegistry::create(&dir, 2, WalConfig::default()).unwrap();
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
        for (id, want) in ids.iter().zip(&want) {
            assert_eq!(
                &history(&durable, *id),
                want,
                "campaign {id} diverged across panic recovery"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panic_recovery_keeps_admission_and_accounting() {
        let dir = temp_dir("books");
        let specs: Vec<CampaignSpec> = (0..4).map(spec).collect();
        let mut durable = DurableRegistry::create(&dir, 2, WalConfig::default()).unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_cut_inside_a_tick_is_refused_not_healed() {
        let dir = temp_dir("cut");
        let s = spec(0);
        let mut durable = DurableRegistry::create(&dir, 1, WalConfig::default()).unwrap();
        let id = durable.register_spec(&s).unwrap();
        // By hand, CRC and all: the first tick without its last event.
        let mut first = s.build();
        first.tick();
        let (_, events) = first.log().unwrap().split_last().unwrap();
        let events = Cow::Borrowed(events);
        durable.append(&WalRecord::Ticks { id, events }).unwrap();
        drop(durable);
        match DurableRegistry::open(&dir, 1, WalConfig::default()) {
            Err(ServeError::Campaign(
                CampaignError::MissingMeasurement { .. } | CampaignError::ReplayDiverged { .. },
            )) => {}
            Err(e) => panic!("not a campaign error: {e}"),
            Ok(_) => panic!("a log cut inside a tick opened"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Applies `edit` to the campaign id and events of each `Ticks`
    /// record of the one-segment log in `dir`, until it reports an edit,
    /// and writes the log back with every length and CRC recomputed.
    /// Returns the log as rewritten.
    fn edit_log(dir: &Path, mut edit: impl FnMut(u64, &mut Vec<CampaignEvent>) -> bool) -> Vec<u8> {
        let segments = list_segments(dir).unwrap();
        let [(_, path)] = &segments[..] else {
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
        assert_eq!(read_segment(path, each).unwrap().1, 0);
        assert!(edited, "nothing to edit");
        std::fs::write(path, &log).unwrap();
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

    /// Runs `specs` durably in `dir`: dry, or for `rounds` rounds.
    fn drive_rounds(dir: &Path, specs: &[CampaignSpec], rounds: Option<usize>) {
        let Some(rounds) = rounds else {
            drop(drive(dir, specs, WalConfig::default(), |_| {}));
            return;
        };
        let mut durable = DurableRegistry::create(dir, 2, WalConfig::default()).unwrap();
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
        let dir = temp_dir("lies");
        drive_rounds(&dir, &specs, rounds);
        let (_, segment) = list_segments(&dir).unwrap().pop().unwrap();
        let honest = std::fs::read(&segment).unwrap();
        let fleet = recover_dir(&dir, false, |_, _| {}).unwrap().fleet;
        let all_finished = rounds.is_none();
        assert!(fleet.values().all(|d| finished(d) == all_finished));
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
            let lied = edit_log(&dir, |_, events| lie(events));
            assert_ne!(lied, honest, "lie {i} changed nothing");
            let untouched = |by: &str| {
                assert_eq!(list_segments(&dir).unwrap().len(), 1, "lie {i}: {by}");
                let now = std::fs::read(&segment).unwrap();
                assert_eq!(now, lied, "lie {i}: {by} wrote");
            };
            diverged(&format!("lie {i} to verify_wal"), verify_wal(&dir));
            untouched("verify_wal");
            let opened = DurableRegistry::open(&dir, 2, WalConfig::default());
            if all_finished && i == 0 {
                // A finished campaign's suggestions are not recomputed by
                // `open`: the lied one comes back as logged.
                let (reopened, _) = opened.unwrap();
                assert_ne!(history(&reopened, 0), straight_history(&specs[0]));
                std::fs::remove_file(segment_path(&dir, reopened.seg_index)).unwrap();
            } else {
                diverged(&format!("lie {i} to open"), opened);
            }
            untouched("open");
            std::fs::write(&segment, &honest).unwrap();
        }
        // The honest log, after all that, verifies, opens and finishes.
        let report = verify_wal(&dir).unwrap();
        assert_eq!((report.campaigns, report.truncated_bytes), (3, 0));
        let (mut recovered, _) = DurableRegistry::open(&dir, 2, WalConfig::default()).unwrap();
        recovered.run_all().unwrap();
        let want: Vec<String> = specs.iter().map(straight_history).collect();
        let ids = recovered.registry().ids();
        let got: Vec<String> = ids.into_iter().map(|id| history(&recovered, id)).collect();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).unwrap();
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
    /// id order.
    fn event_logs(d: &DurableRegistry) -> Vec<String> {
        let reg = d.registry();
        let log = |id| event_log(reg.campaign(id).unwrap());
        reg.ids().into_iter().map(log).collect()
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
        let dir = temp_dir("model-reopen");
        let mut durable = DurableRegistry::create(&dir, 2, WalConfig::default()).unwrap();
        for s in &specs {
            durable.register_spec(s).unwrap();
        }
        let modelled = |d: &DurableRegistry| (0..2).all(|id| campaign(d, id).has_model());
        while !modelled(&durable) {
            durable.step_round().unwrap();
        }
        drop(durable);
        let logged = recover_dir(&dir, false, |_, _| {}).unwrap().fleet;
        let (mut reopened, report) = DurableRegistry::open(&dir, 2, WalConfig::default()).unwrap();
        assert_eq!(report.campaigns, specs.len());
        // The split `open` makes is the one the registry's rounds make.
        for (id, d) in &logged {
            let rebuilt = campaign(&reopened, *id);
            assert_eq!(
                announces_model(&d.events),
                rebuilt.has_model(),
                "{}",
                d.name
            );
        }
        let split: Vec<(bool, bool)> = logged
            .values()
            .map(|d| (finished(d), announces_model(&d.events)))
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
        std::fs::remove_dir_all(&dir).unwrap();
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
        // by tick: its log after every tick rebuilds (from the log once
        // drained) and runs dry to the campaign run alone.
        let mut spec = model_fleet()[1].clone();
        spec.policy = SchedulePolicy::AsyncSlots { k: 3 };
        let want = event_log(&standalone_runs(std::slice::from_ref(&spec))[0]);
        let mut live = spec.build();
        let (mut ticks, mut dry_not_drained) = (0, 0);
        while !live.tick() {
            ticks += 1;
            let logged = live.log().unwrap();
            let dry = logged.iter().rev().find_map(|e| match e {
                CampaignEvent::Opt {
                    event: OptEvent::SuggestEnd { dispatched, .. },
                } => Some(!dispatched),
                _ => None,
            }) == Some(true);
            let from_log = drained(logged);
            dry_not_drained += usize::from(dry && !from_log);
            let mut rebuilt = rebuild(&spec, logged, from_log).unwrap();
            rebuilt.run();
            assert_eq!(event_log(&rebuilt), want, "rebuilt after tick {ticks}");
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
        let dir = temp_dir("finished");
        let mut durable = DurableRegistry::create(&dir, 2, WalConfig::default()).unwrap();
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
        assert_eq!(verify_wal(&dir).unwrap().campaigns, specs.len());
        let fleet = recover_dir(&dir, false, |_, _| {}).unwrap().fleet;
        assert!(fleet.values().all(finished), "a campaign is still active");

        let (reopened, _) = DurableRegistry::open(&dir, 2, WalConfig::default()).unwrap();
        // What `verify_wal` rebuilds, kept.
        let mut full = CampaignRegistry::new(2);
        rebuild_fleet(fleet, true, |id, d, campaign| {
            full.restore_entry(id, d.name, campaign, d.stopped, d.records);
            Ok(())
        })
        .unwrap();
        let stats = |reg: &CampaignRegistry, id| serde_json::to_string(&reg.stats(id).unwrap());
        for (id, spec) in specs.iter().enumerate() {
            let id = id as u64;
            let (got, want) = (campaign(&reopened, id), full.campaign(id).unwrap());
            assert_eq!(event_log(got), event_log(want), "{}", spec.name);
            assert_eq!(got.storage().to_json(), want.storage().to_json());
            assert_eq!(
                stats(reopened.registry(), id).unwrap(),
                stats(&full, id).unwrap()
            );
            assert_eq!(got.has_model(), want.has_model(), "{}", spec.name);
            let snapshot = got.snapshot().unwrap();
            let json = |s| serde_json::to_string(&s).unwrap();
            assert_eq!(json(&snapshot), json(&want.snapshot().unwrap()));
            // A real snapshot: the spec's own optimizer resumes it.
            Campaign::resume(&snapshot, spec.build()).unwrap();
        }
        let with_model = |id| campaign(&reopened, id).has_model();
        assert!([0, 1, 4, 5, stopped_id].into_iter().all(with_model));
        assert!(reopened.registry().stats(stopped_id).unwrap().stopped);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lies_in_several_campaigns_are_refused_in_id_order() {
        let specs = model_fleet();
        let dir = temp_dir("ordered-lies");
        drop(drive(&dir, &specs, WalConfig::default(), |_| {}));
        let (_, segment) = list_segments(&dir).unwrap().pop().unwrap();
        let honest = std::fs::read(&segment).unwrap();
        // Flips a bit in the `nth` suggestion of each `(id, nth)`, verifies
        // the log and returns the refusal's text; the refused log keeps its
        // bytes and gets no second segment.
        let refusal = |lies: &[(u64, usize)]| -> String {
            let mut lied = Vec::new();
            for &(liar, nth) in lies {
                let mut seen = 0;
                lied = edit_log(&dir, |id, events| {
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
            let text = diverged(&format!("{lies:?}"), verify_wal(&dir)).to_string();
            assert_eq!(list_segments(&dir).unwrap().len(), 1, "{lies:?}");
            assert_eq!(
                std::fs::read(&segment).unwrap(),
                lied,
                "{lies:?}: verify_wal wrote"
            );
            std::fs::write(&segment, &honest).unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panic_recovery_of_model_campaigns_determinism() {
        let specs = model_fleet();
        let dir = temp_dir("model-panic");
        let mut durable = DurableRegistry::create(&dir, 2, WalConfig::default()).unwrap();
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
        assert_eq!(durable.registry().stats(1).unwrap().recoveries, 1);
        durable.set_chaos(ChaosPlan::new(3));
        durable.run_all().unwrap();
        assert_eq!(event_logs(&durable), standalone_logs(&specs));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_measurement_is_an_input_and_comes_back_as_logged() {
        // Nothing recomputes a measurement, so nothing can contradict
        // one: a telemetry bit flipped in the log is, to recovery, what
        // was measured. It reaches the rebuilt event log bit for bit and
        // leaves the trial history (which holds no telemetry) as it was.
        let specs = fleet_of(10);
        let dir = temp_dir("input");
        drop(drive(&dir, &specs, WalConfig::default(), |_| {}));
        let mut flipped = None;
        edit_log(&dir, |_, events| {
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
        let (recovered, _) = DurableRegistry::open(&dir, 2, WalConfig::default()).unwrap();
        let log = recovered.registry().campaign(0).unwrap().log().unwrap();
        let rebuilt = log.iter().find_map(|e| match e {
            CampaignEvent::Measured { id, telemetry, .. } if *id == flipped_id => Some(telemetry),
            _ => None,
        });
        assert_eq!(rebuilt.unwrap()[3].cpu.to_bits(), flipped_bits);
        for (id, s) in specs.iter().enumerate() {
            assert_eq!(history(&recovered, id as u64), straight_history(s));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reopened_trial_holds_the_series_its_record_decoded_into() {
        let specs = vec![noisy_random(9, 31)];
        let dir = temp_dir("shared-series");
        drop(drive(&dir, &specs, WalConfig::default(), |_| {}));
        // Rebuilt from the decoded log: each `Measured` holds the very
        // allocation its record was unpacked into.
        let fleet = recover_dir(&dir, false, |_, _| {}).unwrap().fleet;
        let logged = &fleet[&0].events;
        let campaign = rebuild(&specs[0], logged, false).unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
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

    /// A plan that leaves appends `from..op` alone and crashes append
    /// `op` at `point`.
    fn crash_plan(from: u64, op: u64, point: CrashPoint) -> ChaosPlan {
        (0..)
            .map(|seed| ChaosPlan::new(seed).with_crashes(0.05))
            .find(|p| (from..op).all(|i| p.crash_at(i).is_none()) && p.crash_at(op) == Some(point))
            .expect("some seed qualifies")
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
        let dir = temp_dir("once");
        let specs = fleet_of(66);
        let durable = drive(&dir, &specs, SMALL_SEGMENTS, |_| {});
        assert!(durable.registry().rounds() > 64, "the run was too short");
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments[0].0, 1, "segment 1 was deleted");
        assert!(segments.len() > 2, "the run never rotated");
        let (mut records, mut events, mut disk_bytes, mut record_bytes) = (0, 0, 0, 0);
        let mut logs = vec![Vec::new(); specs.len()];
        let mut buf = Vec::new();
        for (_, path) in &segments {
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
                    if let Err(e) = rebuild(&specs[i], &logs[i], false) {
                        panic!("campaign {id} record {records} ends inside a tick: {e}");
                    }
                }
                Ok(())
            };
            let (clean, torn) = read_segment(path, each).unwrap();
            disk_bytes += clean + torn;
        }
        let reg = durable.registry();
        let logged = |id| reg.campaign(id).unwrap().log().unwrap().len();
        let logged: usize = reg.ids().into_iter().map(logged).sum();
        assert_eq!(events, logged, "an event was written twice or not at all");
        // Every append this handle made is on disk, and nothing else is
        // (no torn tail, no bytes outside a record).
        assert_eq!(records, durable.ops, "a record was rewritten or deleted");
        assert_eq!(disk_bytes, record_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_is_its_wal() {
        // A plain Redis random search and a noisy, faulty one, run
        // durably a few rounds at a time.
        let specs = [
            CampaignSpec::minimal("plain", SystemKind::Redis, 32, 1),
            noisy_random(12, 31),
        ];
        let dir = temp_dir("snapshot-wal");
        let durable = drive(&dir, &specs, WalConfig::default(), |_| {});
        let mut logged = vec![Vec::new(); specs.len()];
        for (_, path) in list_segments(&dir).unwrap() {
            read_segment(&path, |_, _, record| {
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
            let snapshot = durable.registry().snapshot(id as u64).unwrap();
            assert!(durable.registry().stats(id as u64).unwrap().done);
            assert_eq!(cbor(&snapshot.events), cbor(logged), "campaign {id}");
        }
        // What a client is sent: about what the log holds a trial.
        let snapshot = durable.registry().snapshot(0).unwrap();
        let mut frame = Vec::new();
        crate::write_frame(&mut frame, &crate::Response::Snapshot { snapshot }).unwrap();
        assert!(
            frame.len() <= 2_400 * 32,
            "{} bytes a trial",
            frame.len() / 32
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every segment of the WAL in `dir`: its number and its bytes.
    fn segment_bytes(dir: &Path) -> Vec<(u64, Vec<u8>)> {
        let read = |(n, path): (u64, PathBuf)| (n, std::fs::read(path).unwrap());
        list_segments(dir).unwrap().into_iter().map(read).collect()
    }

    #[test]
    fn segments_hold_what_one_write_per_record_lays_out() {
        // Rounds of up to three ~2.4 KB `Ticks` records against 4 KiB
        // segments, so rotation falls inside rounds.
        let dir = temp_dir("layout");
        let specs = fleet_of(16);
        let durable = drive(&dir, &specs, SMALL_SEGMENTS, |_| {});
        let mut records = Vec::new();
        for (_, path) in list_segments(&dir).unwrap() {
            read_segment(&path, |_, _, record| {
                records.push(record);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(records.len() as u64, durable.ops);
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
        let got = segment_bytes(&dir);
        let numbers = |segments: &[(u64, Vec<u8>)]| -> Vec<(u64, usize)> {
            segments.iter().map(|(n, b)| (*n, b.len())).collect()
        };
        assert_eq!(numbers(&got), numbers(&want));
        for ((n, got), (_, want)) in got.iter().zip(&want) {
            assert!(got == want, "segment {n} differs from one write per record");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_at_any_append_recovers_byte_identically() {
        // A short fleet: the sweep reruns it once per append and crash
        // point, and a trial's events are ~2.4 KB, so every second append
        // still rolls a 4 KiB segment.
        let specs = fleet_of(10);
        let want: Vec<String> = specs.iter().map(straight_history).collect();
        let dir = temp_dir("sweep-clean");
        let clean = drive(&dir, &specs, SMALL_SEGMENTS, |_| {});
        let appends = clean.ops;
        assert!(clean.seg_index > 4, "the swept run never rotated");
        // Where each append of the clean run lies: its segment (an index
        // into `clean_segments`), offset and length.
        let clean_segments = segment_bytes(&dir);
        let mut placed = Vec::new();
        for (i, (_, path)) in list_segments(&dir).unwrap().into_iter().enumerate() {
            read_segment(&path, |at, len, _| {
                placed.push((i, at, 8 + len));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(placed.len() as u64, appends);
        std::fs::remove_dir_all(&dir).unwrap();
        for point in [
            CrashPoint::PreAppend,
            CrashPoint::MidAppend,
            CrashPoint::PostAppendPreAck,
        ] {
            for k in 0..appends {
                let dir = temp_dir(&format!("sweep-{}-{k}", point.label()));
                // A call appends at most one record per campaign, so the
                // plan is armed (and searched for) only this close to `k`.
                let armed = std::cell::Cell::new(None);
                let arm = |d: &mut DurableRegistry| {
                    if (d.ops..d.ops + specs.len() as u64).contains(&k) {
                        let plan = crash_plan(d.ops, k, point);
                        armed.set(Some(plan));
                        d.set_chaos(plan);
                    }
                };
                let crashed = drive(&dir, &specs, SMALL_SEGMENTS, arm).crashed();
                assert_eq!(crashed, Some(point), "append {k} never crashed");
                // On disk: every append before `k` whole, where the clean run
                // put it, then what `k`'s crash point let land, and nothing
                // after it.
                let (seg, at, len) = placed[k as usize];
                let landed = match point {
                    CrashPoint::PreAppend => 0,
                    CrashPoint::MidAppend => armed.get().unwrap().torn_len(k, len),
                    CrashPoint::PostAppendPreAck => len,
                };
                let mut on_disk = clean_segments[..=seg].to_vec();
                on_disk[seg].1.truncate(at + landed);
                assert!(
                    segment_bytes(&dir) == on_disk,
                    "{} at append {k}: the log is not appends 0..{k} and {landed} bytes of {k}",
                    point.label()
                );
                let got = recover_and_finish(&dir, &specs, SMALL_SEGMENTS);
                assert_eq!(got, want, "{} at append {k}", point.label());
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
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
        let mut durable = DurableRegistry::create(&dir, 1, WalConfig::default()).unwrap();
        let full = segment_path(&dir, durable.seg_index + 1);
        std::os::unix::fs::symlink("/dev/full", &full).unwrap();
        durable.checkpoint().unwrap();
        let reason = refusal(durable.admit_spec(&spec(0), Some(7)));
        assert!(reason.contains("No space left on device"), "{reason}");
        // The retry is no "idempotent replay" of a campaign no record holds.
        assert_eq!(refusal(durable.admit_spec(&spec(0), Some(7))), reason);
        // Some unknown prefix of the record landed, as far as anyone knows.
        assert_eq!(durable.crashed(), Some(CrashPoint::MidAppend));
        assert_dead(&mut durable, &reason);
        drop(durable);
        std::fs::remove_file(&full).unwrap();
        // Reopened, the fleet is exactly what was acknowledged (nothing),
        // and the retry lands once.
        let (mut reopened, report) = DurableRegistry::open(&dir, 1, WalConfig::default()).unwrap();
        assert_eq!((report.campaigns, reopened.registry().len()), (0, 0));
        let id = reopened.admit_spec(&spec(0), Some(7)).unwrap();
        assert_eq!(reopened.admit_spec(&spec(0), Some(7)).unwrap(), id);
        reopened.run_all().unwrap();
        assert_eq!(history(&reopened, id), straight_history(&spec(0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_that_will_not_open_kills_the_handle() {
        let dir = temp_dir("noseg");
        let mut durable = DurableRegistry::create(&dir, 1, WalConfig::default()).unwrap();
        let id = durable.register_spec(&spec(0)).unwrap();
        durable.step_round().unwrap();
        let acknowledged = history(&durable, id);
        // A directory sits where the next segment goes.
        let blocked = segment_path(&dir, durable.seg_index + 1);
        std::fs::create_dir(&blocked).unwrap();
        let reason = refusal(durable.checkpoint());
        assert!(reason.contains("would not open"), "{reason}");
        // Nothing of a next record landed anywhere.
        assert_eq!(durable.crashed(), Some(CrashPoint::PreAppend));
        assert_dead(&mut durable, &reason);
        drop(durable);
        std::fs::remove_dir(&blocked).unwrap();
        let (reopened, _) = DurableRegistry::open(&dir, 1, WalConfig::default()).unwrap();
        assert_eq!(history(&reopened, id), acknowledged);
        std::fs::remove_dir_all(&dir).unwrap();
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
