//! Multi-campaign registry with fair scheduling over a virtual pool.
//!
//! A [`CampaignRegistry`] owns many [`Campaign`]s and advances them in
//! *rounds* of deficit round-robin: each active campaign accrues credit
//! every round, and once its credit covers its policy's wave capacity it
//! is serviced. A round has three phases:
//!
//! 1. **stage** each serviced campaign's ready wave (`suggest`);
//! 2. **measure** the staged waves one after another, in staging order,
//!    on the thread that called [`CampaignRegistry::step_round`];
//! 3. **absorb** the results (`observe`).
//!
//! Phases 1 and 3 are where the tuner spends its time, and for a
//! campaign with a surrogate model ([`Campaign::has_model`]) that is
//! milliseconds a call: those campaigns run the two phases side by side,
//! each on one thread, through `autotune_linalg::par_map_mut` (and
//! a GP's own `par_map` inside such a task stays on its thread, so two
//! campaigns on two cores do not become four threads). A model-free
//! campaign's suggest costs microseconds, less than a thread spawn, so
//! those run on the caller in entry order, as does everything else: the
//! credit books, phase 2, the virtual pool and the caller's WAL flush.
//!
//! # Determinism
//!
//! Each campaign owns its target, RNG streams and optimizer, so the only
//! cross-campaign coupling is *which* waves get measured in a round — a
//! pure function of credits and policies. Within a phase one campaign is
//! worked by one thread; each wave is measured with [`measure_wave`], the
//! same in-order function a standalone [`Campaign::tick`] uses, and a
//! retry re-measures inside [`Campaign::complete_wave`] on the one
//! thread absorbing that campaign, in wave order. The result: every
//! campaign's history is byte-identical to running it alone, for any
//! `workers` value, any thread count and any fleet composition, by
//! construction. That is why campaigns registered here must not share a
//! [`Target`](autotune::Target) (see [`CampaignRegistry::register`]).
//!
//! # Virtual pool accounting
//!
//! Real wall-clock on the test host says little about serving capacity
//! (and reading it is banned in library code). Instead the registry
//! keeps a deterministic *virtual* pool model, and `workers` is the size
//! of that pool and nothing else: each round, the benchmark seconds of
//! every measured trial are assigned greedily to the least-loaded of
//! `workers` virtual workers; the round's makespan is the maximum worker
//! load. Serial seconds divided by summed makespans gives the pool
//! speedup a real fleet of that size would see. (A measurement is a
//! simulator call of about a microsecond, so the threads go where the
//! milliseconds are, around `suggest` and `observe`, not around it.)
//!
//! # Worker panics
//!
//! A "worker panic" is a panic while one campaign's wave is measured. It
//! unwinds out of [`CampaignRegistry::step_round`] with the round's
//! counter, queue activations and credit booked and none of its
//! measurements. A panic inside a side-by-side task is re-raised on the
//! caller with its own payload once the other tasks are joined, so it
//! unwinds out of `step_round` the same way. The durability layer
//! catches it and swaps in each campaign's rebuild from the WAL; the
//! registry and the rest of every entry stay, so admission, queue
//! positions and accounting read the same after a recovery.

use crate::chaos::ChaosPlan;
use crate::spec::CampaignSpec;
use autotune::{measure_wave, Campaign, CampaignError, CampaignSnapshot, MetricsSnapshot};
use autotune_linalg::par_map_mut;
use std::collections::BTreeMap;

/// Errors from registry operations.
#[derive(Debug)]
pub enum ServeError {
    /// No campaign with the given id.
    UnknownCampaign(u64),
    /// The campaign rejected the operation (snapshot/resume/wave error).
    Campaign(CampaignError),
    /// A protocol-level failure (framing, serde, closed pipe).
    Protocol(String),
    /// A frame's length prefix exceeds [`crate::protocol::MAX_FRAME_LEN`];
    /// the body was never read (let alone allocated) and the stream is no
    /// longer at a frame boundary.
    FrameTooLarge {
        /// The advertised body length.
        len: u64,
        /// The cap it violated.
        max: u64,
    },
    /// A complete, well-framed payload failed to decode (garbage bytes,
    /// unknown variant). The stream is still at a frame boundary, so the
    /// connection remains usable.
    Decode(String),
    /// The server shed the request under overload; retry after the
    /// indicated number of scheduling rounds.
    Overloaded {
        /// Suggested backoff before retrying, in scheduling rounds.
        retry_after_rounds: u64,
    },
    /// Durable storage failure (WAL/snapshot I/O or corruption).
    Storage(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownCampaign(id) => write!(f, "unknown campaign id {id}"),
            ServeError::Campaign(e) => write!(f, "campaign error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ServeError::Decode(msg) => write!(f, "decode error: {msg}"),
            ServeError::Overloaded { retry_after_rounds } => {
                write!(f, "overloaded; retry after {retry_after_rounds} rounds")
            }
            ServeError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CampaignError> for ServeError {
    fn from(e: CampaignError) -> Self {
        ServeError::Campaign(e)
    }
}

/// Serializes "no finite best yet" as null and back to `+inf`, as
/// core's `nan_as_null` does for a crashed trial's cost.
mod infinity_as_null {
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_some(v)
        } else {
            s.serialize_none()
        }
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        Ok(Option::<f64>::deserialize(d)?.unwrap_or(f64::INFINITY))
    }
}

/// Point-in-time stats for one registered campaign. Flat and
/// serializable so it can cross the serving protocol.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CampaignStats {
    /// Registry-assigned id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Schedule label (e.g. `sync-batch(4)`).
    pub policy: String,
    /// Whether the campaign has drained its source.
    pub done: bool,
    /// Whether serving was stopped administratively.
    pub stopped: bool,
    /// Whether the campaign is admitted but still queued behind the
    /// `max_active` admission limit.
    #[serde(default)]
    pub queued: bool,
    /// Ticks completed.
    pub n_ticks: u64,
    /// Trials recorded in storage.
    pub n_trials: usize,
    /// Best finite cost so far (infinity if none; neither codec has an
    /// infinity, so that one is encoded as null).
    #[serde(with = "infinity_as_null")]
    pub best_cost: f64,
    /// Waves serviced by the registry.
    pub waves_served: u64,
    /// Live measurements performed by the registry.
    pub live_measurements: u64,
    /// Benchmark seconds this campaign consumed on the virtual pool.
    pub virtual_busy_s: f64,
    /// Trials suggested (from the campaign's telemetry).
    pub n_suggested: u64,
    /// Trials crashed (from the campaign's telemetry).
    pub n_crashed: u64,
    /// Virtual campaign wall-clock seconds (from telemetry).
    pub wall_clock_s: f64,
    /// Mean suggest latency in real nanoseconds (0 without a timer).
    pub mean_suggest_ns: f64,
    /// Mean observe latency in real nanoseconds (0 without a timer).
    pub mean_observe_ns: f64,
    /// WAL records appended for this campaign (durable serving only).
    #[serde(default)]
    pub wal_appends: u64,
    /// Worker panics raised while this campaign's wave was measured, each
    /// recovered by rebuilding the fleet from its durable log.
    #[serde(default)]
    pub recoveries: u64,
}

/// Aggregate stats for the whole registry.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetStats {
    /// Size of the virtual pool the registry books makespans on.
    pub workers: usize,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Registered campaigns.
    pub n_campaigns: usize,
    /// Campaigns still running (not done, not stopped).
    pub n_active: usize,
    /// Completed campaigns.
    pub n_done: usize,
    /// Live measurements performed across all campaigns.
    pub live_measurements: u64,
    /// Total benchmark seconds if measured strictly serially.
    pub virtual_serial_s: f64,
    /// Deterministic makespan of the same work on the virtual pool.
    pub virtual_makespan_s: f64,
    /// `virtual_serial_s / virtual_makespan_s` (1.0 when no work yet).
    pub pool_speedup: f64,
    /// Trials suggested across the fleet.
    pub n_suggested: u64,
    /// Trials crashed across the fleet.
    pub n_crashed: u64,
    /// Campaigns admitted but queued behind the `max_active` limit.
    #[serde(default)]
    pub n_pending: usize,
    /// Register requests shed by admission control.
    #[serde(default)]
    pub shed_requests: u64,
    /// Idempotent request retries absorbed without duplicating work.
    #[serde(default)]
    pub retried_requests: u64,
    /// WAL records appended across the fleet (durable serving only).
    #[serde(default)]
    pub wal_appends: u64,
    /// Bytes discarded as torn WAL tails during recovery.
    #[serde(default)]
    pub wal_truncated_bytes: u64,
    /// Crash/panic recoveries: whole-process WAL replays plus
    /// per-campaign rebuilds after worker panics.
    #[serde(default)]
    pub recoveries: u64,
}

/// Admission limits for a registry. Defaults are unbounded, preserving
/// the plain `register` behavior; a serving deployment sets both to put
/// a hard ceiling on memory and scheduling load.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Campaigns allowed to run concurrently; admissions beyond this
    /// queue (FIFO) until capacity frees up.
    pub max_active: usize,
    /// Bound on that pending queue; admissions beyond it are shed with
    /// [`ServeError::Overloaded`].
    pub max_pending: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_active: usize::MAX,
            max_pending: usize::MAX,
        }
    }
}

struct Entry {
    id: u64,
    name: String,
    campaign: Campaign<'static>,
    credit: f64,
    stopped: bool,
    queued: bool,
    waves_served: u64,
    live_measurements: u64,
    virtual_busy_s: f64,
    wal_appends: u64,
    recoveries: u64,
}

impl Entry {
    fn active(&self) -> bool {
        !self.stopped && !self.queued && !self.campaign.is_done()
    }
}

/// A fleet stepped in rounds: the registry, the durable registry and the
/// router. [`Rounds::run_rounds`] is the one loop that steps any of them.
pub(crate) trait Rounds {
    /// The registry whose campaigns the rounds step.
    fn registry(&self) -> &CampaignRegistry;

    /// Steps one round.
    fn round(&mut self) -> Result<(), ServeError>;

    /// Steps rounds while a campaign is runnable, `budget` at most;
    /// returns how many ran.
    fn run_rounds(&mut self, budget: u64) -> Result<u64, ServeError> {
        let mut run = 0;
        while run < budget && self.registry().has_runnable() {
            self.round()?;
            run += 1;
        }
        Ok(run)
    }
}

impl Rounds for CampaignRegistry {
    fn registry(&self) -> &CampaignRegistry {
        self
    }

    fn round(&mut self) -> Result<(), ServeError> {
        self.step_round()
    }
}

/// Credit every active campaign accrues per round. The value only
/// shifts interleaving order, never any campaign's own history.
const QUANTUM: f64 = 1.0;

/// Owns and fairly advances a fleet of campaigns. See the module docs
/// for the scheduling and determinism story.
pub struct CampaignRegistry {
    entries: Vec<Entry>,
    workers: usize,
    next_id: u64,
    rounds: u64,
    virtual_serial_s: f64,
    virtual_makespan_s: f64,
    admission: AdmissionConfig,
    request_ids: BTreeMap<u64, u64>,
    shed_requests: u64,
    retried_requests: u64,
    wal_truncated_bytes: u64,
    fleet_recoveries: u64,
    worker_panic_plan: Option<ChaosPlan>,
    /// The campaign whose wave is being measured (left set by its panic).
    measuring: Option<u64>,
}

impl CampaignRegistry {
    /// A registry booking its rounds on a virtual pool of `workers`
    /// (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        CampaignRegistry {
            entries: Vec::new(),
            workers: workers.max(1),
            next_id: 0,
            rounds: 0,
            virtual_serial_s: 0.0,
            virtual_makespan_s: 0.0,
            admission: AdmissionConfig::default(),
            request_ids: BTreeMap::new(),
            shed_requests: 0,
            retried_requests: 0,
            wal_truncated_bytes: 0,
            fleet_recoveries: 0,
            worker_panic_plan: None,
            measuring: None,
        }
    }

    /// Arms deterministic worker-panic injection: each (round, campaign)
    /// wave consults `plan` and may panic in place of being measured.
    /// The panic propagates out of [`CampaignRegistry::step_round`]; a
    /// durability layer catches it at that boundary and swaps in
    /// campaigns rebuilt from the WAL.
    pub(crate) fn inject_worker_panics(&mut self, plan: ChaosPlan) {
        self.worker_panic_plan = Some(plan);
    }

    /// Caps concurrent and queued admissions (see [`AdmissionConfig`]).
    pub fn set_admission(&mut self, admission: AdmissionConfig) {
        self.admission = admission;
    }

    /// Scheduling rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Re-inserts a campaign under its original id when a fleet is
    /// reopened from its WAL.
    pub(crate) fn restore_entry(
        &mut self,
        id: u64,
        name: String,
        campaign: Campaign<'static>,
        stopped: bool,
        wal_appends: u64,
    ) {
        let entry = self.push_entry(id, name, campaign);
        entry.stopped = stopped;
        entry.wal_appends = wal_appends;
    }

    /// Swaps in the rebuild of a live campaign after a worker panic;
    /// the rest of its entry (queue position, credit, accounting) stays.
    pub(crate) fn replace_campaign(
        &mut self,
        id: u64,
        campaign: Campaign<'static>,
    ) -> Result<(), ServeError> {
        self.entry_mut(id)?.campaign = campaign;
        Ok(())
    }

    /// Drops the events campaign `id` holds once its durability layer
    /// has logged them ([`Campaign::drop_logged`]); returns whether it
    /// held any (false for an unknown id).
    pub(crate) fn drop_logged(&mut self, id: u64) -> bool {
        let Ok(entry) = self.entry_mut(id) else {
            return false;
        };
        let held = entry.campaign.log().is_some_and(|log| !log.is_empty());
        entry.campaign.drop_logged();
        held
    }

    /// Registers an owned campaign under `name`; returns its id. This
    /// low-level path bypasses admission control — servers route
    /// registrations through [`CampaignRegistry::admit_spec`] instead.
    ///
    /// A registered campaign must not share its
    /// [`Target`](autotune::Target) with another registered campaign
    /// (two `Campaign::new` over clones of one `Arc<Target>`): campaigns
    /// with a model are worked side by side, and two threads advancing
    /// one target's drift clock would stamp its measurements in
    /// scheduling order. A spec's [`CampaignSpec::build`] always owns its
    /// target.
    pub fn register(&mut self, name: impl Into<String>, campaign: Campaign<'static>) -> u64 {
        self.push_entry(self.next_id, name.into(), campaign).id
    }

    /// Appends a running entry with empty books under `id`; the caller
    /// adjusts what differs (queued, or stopped and already logged).
    fn push_entry(&mut self, id: u64, name: String, campaign: Campaign<'static>) -> &mut Entry {
        self.next_id = self.next_id.max(id + 1);
        self.entries.push(Entry {
            id,
            name,
            campaign,
            credit: 0.0,
            stopped: false,
            queued: false,
            waves_served: 0,
            live_measurements: 0,
            virtual_busy_s: 0.0,
            wal_appends: 0,
            recoveries: 0,
        });
        let last = self.entries.len() - 1;
        &mut self.entries[last]
    }

    /// Builds and registers a campaign from a declarative spec.
    pub fn register_spec(&mut self, spec: &CampaignSpec) -> u64 {
        self.register(spec.name.clone(), spec.build())
    }

    /// Admission-controlled registration. A `request_id` seen before
    /// returns the originally assigned campaign id (idempotent retry);
    /// past `max_active` the campaign is queued; past `max_pending` the
    /// request is shed with [`ServeError::Overloaded`].
    pub fn admit_spec(
        &mut self,
        spec: &CampaignSpec,
        request_id: Option<u64>,
    ) -> Result<u64, ServeError> {
        if let Some(rid) = request_id {
            if let Some(&id) = self.request_ids.get(&rid) {
                self.retried_requests += 1;
                return Ok(id);
            }
        }
        let n_running = self.n_active();
        let n_queued = self.n_pending();
        if n_running >= self.admission.max_active && n_queued >= self.admission.max_pending {
            self.shed_requests += 1;
            return Err(ServeError::Overloaded {
                retry_after_rounds: n_queued as u64 + 1,
            });
        }
        let queued = n_running >= self.admission.max_active;
        let id = self.next_id;
        self.push_entry(id, spec.name.clone(), spec.build()).queued = queued;
        if let Some(rid) = request_id {
            self.request_ids.insert(rid, id);
        }
        Ok(id)
    }

    /// Number of registered campaigns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Campaigns still running (not done, not stopped, not queued).
    pub fn n_active(&self) -> usize {
        self.entries.iter().filter(|e| e.active()).count()
    }

    /// Campaigns admitted but queued behind the `max_active` limit.
    pub fn n_pending(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.queued && !e.stopped && !e.campaign.is_done())
            .count()
    }

    /// Whether any campaign can still make progress (running now, or
    /// queued and eligible for activation).
    pub fn has_runnable(&self) -> bool {
        self.n_active() > 0 || (self.n_pending() > 0 && self.admission.max_active > 0)
    }

    fn entry(&self, id: u64) -> Result<&Entry, ServeError> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .ok_or(ServeError::UnknownCampaign(id))
    }

    fn entry_mut(&mut self, id: u64) -> Result<&mut Entry, ServeError> {
        self.entries
            .iter_mut()
            .find(|e| e.id == id)
            .ok_or(ServeError::UnknownCampaign(id))
    }

    /// Read access to a campaign (history, metrics, log).
    pub fn campaign(&self, id: u64) -> Result<&Campaign<'static>, ServeError> {
        Ok(&self.entry(id)?.campaign)
    }

    /// Whether a campaign will never tick again (done or stopped);
    /// false for an unknown id.
    pub(crate) fn is_finished(&self, id: u64) -> bool {
        self.entry(id)
            .is_ok_and(|e| e.stopped || e.campaign.is_done())
    }

    /// Stops serving a campaign (its state is kept and can still be
    /// snapshotted). Returns whether it was previously active.
    pub fn stop(&mut self, id: u64) -> Result<bool, ServeError> {
        let entry = self.entry_mut(id)?;
        let was_active = entry.active();
        entry.stopped = true;
        Ok(was_active)
    }

    /// Snapshots a campaign at its current tick boundary. A campaign
    /// whose durability layer dropped what it logged refuses
    /// ([`CampaignError::LogDropped`](autotune::CampaignError::LogDropped));
    /// its snapshot is [`DurableRegistry::snapshot`](crate::DurableRegistry::snapshot).
    pub fn snapshot(&self, id: u64) -> Result<CampaignSnapshot, ServeError> {
        Ok(self.entry(id)?.campaign.snapshot()?)
    }

    /// Executes one deficit-round-robin round: accrues credit, stages
    /// the ready wave of every campaign whose credit covers its wave
    /// capacity, measures the staged waves in staging order on this
    /// thread, and absorbs the results. Drain ticks — ticks with no live
    /// measurement, e.g. barrier completions or replay fills — are
    /// absorbed for free so a stalled campaign never blocks the fleet.
    /// Staging and absorbing run side by side for the serviced campaigns
    /// that have a model ([`Campaign::has_model`]), one thread per
    /// campaign; everything else runs here, in entry order.
    pub fn step_round(&mut self) -> Result<(), ServeError> {
        self.rounds += 1;
        // Phase 0: activate queued admissions FIFO as capacity frees up
        // (registration order, so activation is deterministic).
        let mut n_running = self.n_active();
        for entry in &mut self.entries {
            if n_running >= self.admission.max_active {
                break;
            }
            if entry.queued && !entry.stopped && !entry.campaign.is_done() {
                entry.queued = false;
                n_running += 1;
            }
        }
        // Accrue credit; the campaigns it covers are serviced.
        let mut serviced = Vec::new();
        for (idx, entry) in self.entries.iter_mut().enumerate() {
            if !entry.active() {
                continue;
            }
            entry.credit += QUANTUM;
            if entry.credit >= entry.campaign.policy().capacity() as f64 {
                serviced.push((idx, ()));
            }
        }
        // A round of credit alone (every other round of a `k = 2` fleet)
        // has nothing to stage, measure or book.
        if serviced.is_empty() {
            return Ok(());
        }
        // Phase 1: stage each serviced campaign's wave, absorbing drain
        // ticks for free until it has live work (or is done).
        let mut staged = Vec::new();
        for (idx, n) in side_by_side(&mut self.entries, serviced, |c, ()| stage(c)) {
            let n = n?;
            if n > 0 {
                self.entries[idx].credit -= n as f64;
                staged.push(idx);
            }
        }
        // Phase 2: measure the staged waves in staging order on this
        // thread, each through `measure_wave`. Nothing is absorbed before
        // every wave is measured, so a panic here loses the whole round.
        let measured: Vec<Vec<autotune::Measurement>> = staged
            .iter()
            .map(|&idx| {
                let (c, id) = (&self.entries[idx].campaign, self.entries[idx].id);
                self.measuring = Some(id);
                if let Some(plan) = self.worker_panic_plan {
                    if plan.worker_panics(self.rounds, id) {
                        chaos_worker_panic(self.rounds, id);
                    }
                }
                measure_wave(c.target(), c.noise_strategy(), c.staged_wave())
            })
            .collect();
        self.measuring = None;
        // Phase 3: virtual-pool accounting and every entry's books here,
        // in staging order; then absorb the results.
        let mut loads = vec![0.0f64; self.workers];
        for m in measured.iter().flatten() {
            let slot = least_loaded(&loads);
            loads[slot] += m.elapsed_s;
            self.virtual_serial_s += m.elapsed_s;
        }
        self.virtual_makespan_s += loads.iter().fold(0.0f64, |a, &b| a.max(b));
        let mut absorb = Vec::with_capacity(staged.len());
        for (idx, live) in staged.into_iter().zip(measured) {
            let entry = &mut self.entries[idx];
            let elapsed: f64 = live.iter().map(|m| m.elapsed_s).sum();
            entry.waves_served += 1;
            entry.live_measurements += live.len() as u64;
            entry.virtual_busy_s += elapsed;
            absorb.push((idx, live));
        }
        for (_, done) in side_by_side(&mut self.entries, absorb, |c, live| c.complete_wave(live)) {
            done?;
        }
        Ok(())
    }

    /// Runs rounds until every campaign is done or stopped; returns the
    /// number of rounds executed.
    pub fn run_all(&mut self) -> Result<u64, ServeError> {
        self.run_rounds(u64::MAX)
    }

    /// Attributes `n` durable WAL appends to campaign `id` (hook for
    /// the durability layer; unknown ids count fleet-wide only).
    pub(crate) fn note_wal_appends(&mut self, id: u64, n: u64) {
        if let Ok(entry) = self.entry_mut(id) {
            entry.wal_appends += n;
        }
    }

    /// Records one WAL replay (a reopen after a crash, or a rebuild
    /// after a worker panic) and the torn-tail bytes it discarded. A
    /// panic raised while a wave was measured is booked on that wave's
    /// campaign too.
    pub(crate) fn note_fleet_recovery(&mut self, truncated_bytes: u64) {
        self.fleet_recoveries += 1;
        self.wal_truncated_bytes += truncated_bytes;
        if let Some(entry) = self.measuring.take().and_then(|id| self.entry_mut(id).ok()) {
            entry.recoveries += 1;
        }
    }

    /// Restores the idempotency table after recovery, so retried
    /// `Register`s from before the crash still map to their campaigns.
    pub(crate) fn restore_request_id(&mut self, request_id: u64, campaign_id: u64) {
        self.request_ids.insert(request_id, campaign_id);
    }

    /// Stats for one campaign.
    pub fn stats(&self, id: u64) -> Result<CampaignStats, ServeError> {
        let entry = self.entry(id)?;
        let m = entry.campaign.metrics();
        Ok(CampaignStats {
            id: entry.id,
            name: entry.name.clone(),
            policy: entry.campaign.policy().label(),
            done: entry.campaign.is_done(),
            stopped: entry.stopped,
            queued: entry.queued,
            n_ticks: entry.campaign.n_ticks(),
            n_trials: entry.campaign.storage().len(),
            best_cost: entry
                .campaign
                .storage()
                .best()
                .map_or(f64::INFINITY, |t| t.cost),
            waves_served: entry.waves_served,
            live_measurements: entry.live_measurements,
            virtual_busy_s: entry.virtual_busy_s,
            n_suggested: m.n_suggested,
            n_crashed: m.n_crashed,
            wall_clock_s: m.wall_clock_s,
            mean_suggest_ns: m.suggest_ns.mean(),
            mean_observe_ns: m.observe_ns.mean(),
            wal_appends: entry.wal_appends,
            recoveries: entry.recoveries,
        })
    }

    /// Aggregate fleet stats.
    pub fn fleet_stats(&self) -> FleetStats {
        // Campaign telemetry merged across the fleet; the registry's own
        // durability and overload counters are fields of `self`.
        let mut merged = MetricsSnapshot::default();
        for entry in &self.entries {
            merged.merge(&entry.campaign.metrics());
        }
        FleetStats {
            workers: self.workers,
            rounds: self.rounds,
            n_campaigns: self.entries.len(),
            n_active: self.n_active(),
            n_done: self.entries.iter().filter(|e| e.campaign.is_done()).count(),
            live_measurements: self.entries.iter().map(|e| e.live_measurements).sum(),
            virtual_serial_s: self.virtual_serial_s,
            virtual_makespan_s: self.virtual_makespan_s,
            pool_speedup: if self.virtual_makespan_s > 0.0 {
                self.virtual_serial_s / self.virtual_makespan_s
            } else {
                1.0
            },
            n_suggested: merged.n_suggested,
            n_crashed: merged.n_crashed,
            n_pending: self.n_pending(),
            shed_requests: self.shed_requests,
            retried_requests: self.retried_requests,
            wal_appends: self.entries.iter().map(|e| e.wal_appends).sum(),
            wal_truncated_bytes: self.wal_truncated_bytes,
            recoveries: self.fleet_recoveries,
        }
    }

    /// Ids of all registered campaigns, in registration order.
    pub fn ids(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.id).collect()
    }
}

/// Deterministic chaos injection for a wave's measurement: rolled by
/// the armed [`ChaosPlan`] on (round, campaign id), and caught at the
/// `step_round` boundary by the durability layer, which quarantines the
/// in-memory campaigns and swaps in their rebuilds from the WAL. Raised
/// with `resume_unwind`, which never runs the panic hook, so nothing has
/// to silence it.
fn chaos_worker_panic(round: u64, id: u64) -> ! {
    std::panic::resume_unwind(Box::new(format!(
        "chaos: injected worker panic (round {round}, campaign {id})"
    )))
}

/// Stages a campaign's next wave, absorbing drain ticks for free until
/// it has live work or is done; returns the live items staged (0: none).
fn stage(c: &mut Campaign<'static>) -> Result<usize, CampaignError> {
    loop {
        let n = c.ready_wave().count();
        if n > 0 || c.is_done() || c.complete_wave(Vec::new())? {
            return Ok(n);
        }
    }
}

/// Calls `f` once per `(entry index, input)` of `work`, whose indices
/// ascend, and returns each result with its index, in `work`'s order.
/// The campaigns with a model go through `par_map_mut`, each on one
/// thread (a GP suggest costs milliseconds, so they run side by side);
/// the rest run here in order, where a microsecond suggest would not pay
/// for a spawn.
fn side_by_side<X, R, F>(entries: &mut [Entry], work: Vec<(usize, X)>, f: F) -> Vec<(usize, R)>
where
    X: Default + Send,
    R: Send,
    F: Fn(&mut Campaign<'static>, X) -> R + Sync,
{
    let mut out = Vec::with_capacity(work.len());
    let mut model = Vec::new();
    let mut work = work.into_iter().peekable();
    for (idx, entry) in entries.iter_mut().enumerate() {
        let Some((_, x)) = work.next_if(|&(i, _)| i == idx) else {
            continue;
        };
        if entry.campaign.has_model() {
            model.push((idx, &mut entry.campaign, x));
        } else {
            out.push((idx, f(&mut entry.campaign, x)));
        }
    }
    out.extend(par_map_mut(&mut model, 2, |_, (idx, c, x)| {
        (*idx, f(c, std::mem::take(x)))
    }));
    out.sort_unstable_by_key(|&(idx, _)| idx);
    out
}

/// Index of the least-loaded virtual worker (first wins ties, so the
/// assignment is deterministic).
fn least_loaded(loads: &[f64]) -> usize {
    let mut best = 0;
    for (i, &l) in loads.iter().enumerate().skip(1) {
        if l < loads[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, NoiseSpec, OptimizerKind, SystemKind};
    use autotune::sync::PoisonFreeMutex;
    use autotune::{CampaignEvent, Objective, OptEvent, SchedulePolicy};
    use autotune_sim::{Environment, FaultPlan, NoiseConfig, Workload};
    use std::collections::BTreeSet;

    fn mixed_specs(n: usize) -> Vec<CampaignSpec> {
        (0..n)
            .map(|i| {
                let mut s = CampaignSpec::minimal(
                    format!("c{i}"),
                    match i % 4 {
                        0 => SystemKind::Redis,
                        1 => SystemKind::Dbms,
                        2 => SystemKind::Spark,
                        _ => SystemKind::Nginx,
                    },
                    6 + i % 3,
                    1_000 + i as u64,
                );
                s.workload = match i % 4 {
                    0 => Workload::kv_cache(60_000.0),
                    1 => Workload::tpcc(1_500.0),
                    2 => Workload::tpch(8.0),
                    _ => Workload::ycsb_b(40_000.0),
                };
                s.environment = Environment::small();
                s.objective = if i % 2 == 0 {
                    Objective::MinimizeLatencyAvg
                } else {
                    Objective::MinimizeLatencyP99
                };
                s.policy = match i % 3 {
                    0 => SchedulePolicy::Sequential,
                    1 => SchedulePolicy::SyncBatch { k: 3 },
                    _ => SchedulePolicy::AsyncSlots { k: 2 },
                };
                s.optimizer = if i % 5 == 0 {
                    OptimizerKind::BoGp
                } else {
                    OptimizerKind::Random
                };
                if i % 3 == 2 {
                    s.noise = Some(NoiseSpec {
                        n_machines: 3,
                        config: NoiseConfig::default(),
                        seed: 70 + i as u64,
                    });
                    s.faults = Some(FaultPlan::new(500 + i as u64));
                }
                s
            })
            .collect()
    }

    pub(crate) fn standalone_runs(specs: &[CampaignSpec]) -> Vec<Campaign<'static>> {
        specs
            .iter()
            .map(|s| {
                let mut c = s.build();
                c.run();
                c
            })
            .collect()
    }

    fn sequential_histories(specs: &[CampaignSpec]) -> Vec<String> {
        standalone_runs(specs)
            .iter()
            .map(|c| c.storage().to_json())
            .collect()
    }

    /// The full event log, `Measurement.clock` drift stamps included.
    pub(crate) fn event_log(c: &Campaign<'_>) -> String {
        serde_json::to_string(c.log().expect("log is on by default")).unwrap()
    }

    #[test]
    fn interleaved_serving_determinism_matches_standalone_runs() {
        let specs = mixed_specs(12);
        let want = standalone_runs(&specs);
        for workers in [1, 4] {
            let mut reg = CampaignRegistry::new(workers);
            let ids: Vec<u64> = specs.iter().map(|s| reg.register_spec(s)).collect();
            reg.run_all().unwrap();
            for (id, want) in ids.iter().zip(&want) {
                let got = reg.campaign(*id).unwrap();
                assert_eq!(
                    got.storage().to_json(),
                    want.storage().to_json(),
                    "campaign {id} diverged (workers={workers})"
                );
                assert_eq!(
                    event_log(got),
                    event_log(want),
                    "campaign {id} event log diverged (workers={workers})"
                );
            }
        }
    }

    #[test]
    fn round_determinism_same_fleet_same_round_reports() {
        let specs = mixed_specs(6);
        // Everything the registry reports, after every round.
        let run = |workers| {
            let mut reg = CampaignRegistry::new(workers);
            for s in &specs {
                reg.register_spec(s);
            }
            let mut reports = Vec::new();
            while reg.n_active() > 0 {
                reg.step_round().unwrap();
                reports.push(serde_json::to_string(&reg.fleet_stats()).unwrap());
            }
            (reports, reg.fleet_stats().virtual_serial_s)
        };
        let (a, serial_a) = run(1);
        let (b, serial_b) = run(1);
        assert_eq!(a, b);
        assert_eq!(serial_a.to_bits(), serial_b.to_bits());
        // A bigger pool changes makespans but not the work done.
        let (_, serial_c) = run(8);
        assert_eq!(serial_a.to_bits(), serial_c.to_bits());
    }

    #[test]
    fn step_round_measures_on_the_callers_thread() {
        use autotune::{OptimizerSource, Target};
        use autotune_optimizer::RandomSearch;
        use autotune_space::{Param, Space};
        use std::collections::BTreeSet;
        use std::sync::{Arc, Mutex};

        let seen = Arc::new(Mutex::new(BTreeSet::new()));
        let mut reg = CampaignRegistry::new(4);
        for seed in 0..4 {
            let space = Space::builder()
                .add(Param::float("x", 0.0, 1.0))
                .build()
                .unwrap();
            let seen = Arc::clone(&seen);
            let target =
                Target::black_box(space.clone(), Objective::MinimizeLatencyAvg, move |c| {
                    let id = format!("{:?}", std::thread::current().id());
                    seen.plock().insert(id);
                    c.get_f64("x").unwrap()
                });
            let source = OptimizerSource::new(Box::new(RandomSearch::new(space)), 5);
            let campaign =
                Campaign::new(target, Box::new(source), SchedulePolicy::Sequential, seed);
            reg.register(format!("c{seed}"), campaign);
        }
        reg.run_all().unwrap();
        assert_eq!(reg.fleet_stats().live_measurements, 20);
        let me = format!("{:?}", std::thread::current().id());
        assert_eq!(
            seen.plock().iter().collect::<Vec<_>>(),
            [&me],
            "a wave was measured off the thread that called step_round"
        );
    }

    /// Records, per campaign name, the threads its suggests began on.
    type SeenThreads = std::sync::Arc<std::sync::Mutex<BTreeMap<String, BTreeSet<String>>>>;

    struct SuggestThreads {
        name: String,
        seen: SeenThreads,
    }

    impl autotune::Subscriber for SuggestThreads {
        fn name(&self) -> &str {
            "suggest-threads"
        }

        fn on_opt_event(&mut self, _at_s: f64, event: &OptEvent) {
            if let OptEvent::SuggestBegin { .. } = event {
                let id = format!("{:?}", std::thread::current().id());
                let mut seen = self.seen.plock();
                seen.entry(self.name.clone()).or_default().insert(id);
            }
        }
    }

    #[test]
    fn model_campaigns_side_by_side_determinism() {
        // Three GP campaigns past `n_init`, two random-search ones, and
        // a GP campaign behind `RetryMw` whose retries re-measure inside
        // phase 3.
        let mut specs = Vec::new();
        for (i, policy) in [
            SchedulePolicy::SyncBatch { k: 2 },
            SchedulePolicy::AsyncSlots { k: 2 },
            SchedulePolicy::SyncBatch { k: 2 },
        ]
        .into_iter()
        .enumerate()
        {
            let mut s =
                CampaignSpec::minimal(format!("gp{i}"), SystemKind::Redis, 16, 40 + i as u64);
            s.optimizer = OptimizerKind::BoGp;
            s.policy = policy;
            specs.push(s);
        }
        for (i, mut s) in mixed_specs(3).into_iter().skip(1).enumerate() {
            s.name = format!("random{i}");
            s.optimizer = OptimizerKind::Random;
            specs.push(s);
        }
        let mut faulty = CampaignSpec::minimal("gp-retried", SystemKind::Redis, 16, 47);
        faulty.optimizer = OptimizerKind::BoGp;
        faulty.policy = SchedulePolicy::AsyncSlots { k: 2 };
        faulty.noise = Some(NoiseSpec {
            n_machines: 4,
            config: NoiseConfig::default(),
            seed: 5,
        });
        faulty.faults = Some(FaultPlan::aggressive(3));
        let build_retried = || {
            faulty
                .build()
                .with_middleware(Box::new(autotune::RetryMw::new(3, 5.0)))
        };

        let mut want = standalone_runs(&specs);
        let mut retried = build_retried();
        retried.run();
        // Some retry comes after the model is up, so it re-measures in a
        // campaign task.
        let log = retried.log().unwrap();
        let model_at = log
            .iter()
            .position(|e| {
                matches!(
                    e,
                    CampaignEvent::Opt {
                        event: OptEvent::SurrogateRefit { .. } | OptEvent::ModelUpdate { .. }
                    }
                )
            })
            .expect("the GP fits a model");
        assert!(log[model_at..]
            .iter()
            .any(|e| matches!(e, CampaignEvent::Measured { attempt, .. } if *attempt > 0)));
        want.push(retried);

        let seen = SeenThreads::default();
        let watched = |name: &str, c: Campaign<'static>| {
            c.with_subscriber(Box::new(SuggestThreads {
                name: name.to_string(),
                seen: std::sync::Arc::clone(&seen),
            }))
        };
        let mut reg = CampaignRegistry::new(2);
        let mut ids: Vec<u64> = specs
            .iter()
            .map(|s| reg.register(s.name.clone(), watched(&s.name, s.build())))
            .collect();
        ids.push(reg.register(faulty.name.clone(), watched(&faulty.name, build_retried())));
        reg.run_all().unwrap();
        for (id, want) in ids.iter().zip(&want) {
            let got = reg.campaign(*id).unwrap();
            assert_eq!(
                got.storage().to_json(),
                want.storage().to_json(),
                "campaign {id}"
            );
            assert_eq!(event_log(got), event_log(want), "campaign {id} event log");
        }

        // On one hardware thread every `par_map*` runs sequentially.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let me = format!("{:?}", std::thread::current().id());
        let seen = seen.plock();
        let gp_threads: BTreeSet<&String> = seen
            .iter()
            .filter(|(name, _)| name.starts_with("gp"))
            .flat_map(|(_, threads)| threads)
            .collect();
        assert!(gp_threads.len() >= 2, "GP suggests ran on {gp_threads:?}");
        let random: Vec<_> = seen
            .iter()
            .filter(|(name, _)| name.starts_with("random"))
            .collect();
        assert_eq!(random.len(), 2);
        for (name, threads) in random {
            assert_eq!(threads.iter().collect::<Vec<_>>(), [&me], "{name}");
        }
    }

    #[test]
    fn snapshot_resume_determinism_through_registry() {
        let specs = mixed_specs(4);
        let want = sequential_histories(&specs);
        let mut reg = CampaignRegistry::new(2);
        let ids: Vec<u64> = specs.iter().map(|s| reg.register_spec(s)).collect();
        for _ in 0..3 {
            reg.step_round().unwrap();
        }
        // Snapshot every campaign mid-flight, resume into fresh builds,
        // finish them standalone: histories must match the straight runs.
        for (i, id) in ids.iter().enumerate() {
            let snap = reg.snapshot(*id).unwrap();
            let fresh = specs[i].build();
            let mut resumed = autotune::Campaign::resume(&snap, fresh).unwrap();
            resumed.run();
            assert_eq!(
                resumed.storage().to_json(),
                want[i],
                "campaign {i} resume diverged"
            );
        }
    }

    #[test]
    fn fairness_no_campaign_starves() {
        let specs = mixed_specs(9);
        let mut reg = CampaignRegistry::new(2);
        let ids: Vec<u64> = specs.iter().map(|s| reg.register_spec(s)).collect();
        for _ in 0..4 {
            reg.step_round().unwrap();
        }
        for id in &ids {
            let st = reg.stats(*id).unwrap();
            assert!(
                st.waves_served > 0 || st.done,
                "campaign {id} starved after 4 rounds: {st:?}"
            );
        }
    }

    #[test]
    fn stop_freezes_a_campaign_and_keeps_it_snapshotable() {
        let specs = mixed_specs(3);
        let mut reg = CampaignRegistry::new(2);
        let ids: Vec<u64> = specs.iter().map(|s| reg.register_spec(s)).collect();
        reg.step_round().unwrap();
        assert!(reg.stop(ids[0]).unwrap());
        let ticks = reg.stats(ids[0]).unwrap().n_ticks;
        reg.run_all().unwrap();
        assert_eq!(reg.stats(ids[0]).unwrap().n_ticks, ticks);
        assert!(reg.snapshot(ids[0]).is_ok());
        assert!(reg.stats(ids[1]).unwrap().done);
        assert!(reg.stats(ids[2]).unwrap().done);
    }

    #[test]
    fn virtual_pool_speedup_grows_with_workers() {
        let specs = mixed_specs(12);
        let makespan = |workers| {
            let mut reg = CampaignRegistry::new(workers);
            for s in &specs {
                reg.register_spec(s);
            }
            reg.run_all().unwrap();
            let fs = reg.fleet_stats();
            (fs.virtual_serial_s, fs.virtual_makespan_s)
        };
        let (serial_1, mk_1) = makespan(1);
        let (serial_8, mk_8) = makespan(8);
        assert_eq!(serial_1.to_bits(), serial_8.to_bits());
        assert!(
            (mk_1 - serial_1).abs() < 1e-9,
            "1 worker ⇒ makespan = serial"
        );
        assert!(
            mk_8 < mk_1 / 2.0,
            "8 virtual workers should at least halve the makespan: {mk_8} vs {mk_1}"
        );
    }

    #[test]
    fn admission_queues_then_sheds_and_stays_deterministic() {
        let specs = mixed_specs(6);
        let want = sequential_histories(&specs);
        let mut reg = CampaignRegistry::new(2);
        reg.set_admission(AdmissionConfig {
            max_active: 2,
            max_pending: 2,
        });
        // First two run, next two queue, the rest shed.
        let mut ids = Vec::new();
        for s in &specs[..4] {
            ids.push(reg.admit_spec(s, None).unwrap());
        }
        assert_eq!(reg.n_active(), 2);
        assert_eq!(reg.n_pending(), 2);
        assert!(reg.stats(ids[2]).unwrap().queued);
        for s in &specs[4..] {
            assert!(matches!(
                reg.admit_spec(s, None),
                Err(ServeError::Overloaded { .. })
            ));
        }
        assert_eq!(reg.fleet_stats().shed_requests, 2);
        // Accepted campaigns drain to completion and match standalone
        // histories byte for byte despite queueing.
        reg.run_all().unwrap();
        for (i, id) in ids.iter().enumerate() {
            let got = reg.campaign(*id).unwrap().storage().to_json();
            assert_eq!(&got, &want[i], "campaign {i} diverged under admission");
        }
    }

    #[test]
    fn idempotent_request_ids_never_double_create() {
        let specs = mixed_specs(1);
        let mut reg = CampaignRegistry::new(1);
        let a = reg.admit_spec(&specs[0], Some(77)).unwrap();
        let b = reg.admit_spec(&specs[0], Some(77)).unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.fleet_stats().retried_requests, 1);
        // A different request id is a genuinely new campaign.
        let c = reg.admit_spec(&specs[0], Some(78)).unwrap();
        assert_ne!(a, c);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn unknown_ids_error() {
        let mut reg = CampaignRegistry::new(1);
        assert!(matches!(reg.stats(7), Err(ServeError::UnknownCampaign(7))));
        assert!(reg.stop(0).is_err());
        assert!(reg.snapshot(0).is_err());
    }
}
