//! The resumable campaign state machine.
//!
//! A [`Campaign`] holds everything one tuning run needs — target, source,
//! middleware, telemetry fan-out, virtual clock — and advances in
//! discrete **ticks**: stage a wave of trial requests, measure it
//! ([`measure_wave`]), absorb the results. [`Campaign::run`] is that
//! tick in a loop and [`Campaign::tick`] is the
//! [`ready_wave`](Campaign::ready_wave)/[`complete_wave`](Campaign::complete_wave)
//! cycle inline, so a campaign advanced wave by wave (e.g. multiplexed
//! with thousands of others by `autotune-serve`) produces a
//! byte-identical trial history to a standalone run.
//!
//! # The event log and the replay contract
//!
//! Every campaign appends to an append-only, serde-serializable event
//! log ([`CampaignEvent`]): the dispatched [`TrialRequest`]s, every raw
//! [`Measurement`] (keyed by `(trial, attempt)`), the scalars of the
//! finalized [`TrialOutcome`]s, and the optimizer-side [`OptEvent`]s
//! (with `wall_ns` zeroed — real time never enters the log). Only the raw
//! measurements are *inputs*; everything else is deterministically
//! recomputable from the campaign seed and the determinism contract:
//!
//! * suggestions re-draw from `StdRng::seed_from_u64(seed)`,
//! * fault rolls are a pure function of `(trial, attempt, machine, time)`,
//! * middleware transforms replay identically over identical inputs.
//!
//! [`Campaign::snapshot`] therefore only persists `(seed, policy, log)`,
//! the log in the one form a write-ahead log holds too, and
//! [`Campaign::replay`] rebuilds a campaign from a log — re-running
//! suggestion and middleware code live while serving recorded
//! measurements instead of touching the target — then checks every
//! rebuilt event against the logged one bit for bit before handing the
//! campaign back, mid-flight state and all. [`Campaign::resume`] is that
//! replay behind the snapshot's seed and policy check.

use super::event::{Measurement, TrialEvent, TrialOutcome, TrialRequest};
use super::log::{CampaignEvent, SameBits, DIVERGED};
use super::policy::SchedulePolicy;
use super::source::{SourceStep, TrialSource};
use super::{apply_fault, measure_request, measure_wave, trial_seed, FanOut};
use crate::telemetry::{
    MetricsCollector, MetricsSnapshot, NullTimer, OptEvent, Subscriber, WallTimer,
};
use crate::{Middleware, NoiseStrategy, Objective, Target, Trial, TrialStatus, TrialStorage};
use autotune_sim::FailureKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A dispatched trial awaiting measurement: the request plus the private
/// evaluation seed its measurement must draw from. Pure data — a worker
/// pool can measure items from many campaigns in any order or thread
/// without perturbing any campaign's history.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Trial id within its campaign (dispatch order).
    pub id: u64,
    /// What to run.
    pub req: TrialRequest,
    /// Seed of the trial's private measurement RNG stream.
    pub eval_seed: u64,
}

/// A measured trial waiting for its virtual finish time.
pub(crate) struct Scheduled {
    pub(crate) id: u64,
    pub(crate) req: TrialRequest,
    pub(crate) m: Measurement,
    pub(crate) finish: f64,
    pub(crate) retries: u32,
}

/// A point-in-time capture of a campaign: its seed, its policy and its
/// event log, the form a write-ahead log holds too. Everything else —
/// optimizer state, middleware state, in-flight trials, metrics — is
/// rebuilt by [`Campaign::resume`]'s deterministic replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSnapshot {
    /// The campaign seed.
    pub seed: u64,
    /// The schedule policy.
    pub policy: SchedulePolicy,
    /// The append-only event log up to the snapshot point.
    pub events: Vec<CampaignEvent>,
}

/// Why a campaign operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The campaign was built with its event log disabled.
    LogDisabled,
    /// Snapshot requested while a staged wave is awaiting measurements.
    MidTick,
    /// [`Campaign::complete_wave`] got the wrong number of measurements.
    WaveSizeMismatch {
        /// Unmeasured staged items.
        expected: usize,
        /// Measurements supplied.
        got: usize,
    },
    /// The snapshot doesn't match the freshly built campaign (seed or
    /// policy).
    SnapshotMismatch {
        /// What differed.
        reason: String,
    },
    /// Resume was handed a campaign that has already run ticks.
    NotPristine,
    /// The snapshot log lacks a measurement the replay needs.
    MissingMeasurement {
        /// Trial id.
        id: u64,
        /// Attempt index.
        attempt: u32,
    },
    /// Replaying the log did not reproduce it byte-identically — the
    /// rebuilt campaign was constructed over a different target, source
    /// or middleware chain than the snapshotted one.
    ReplayDiverged {
        /// What diverged.
        reason: String,
    },
    /// A snapshot was asked of a campaign that dropped the front of its
    /// log ([`Campaign::drop_logged`]) without being handed back exactly
    /// those events ([`Campaign::snapshot_with`]).
    LogDropped {
        /// Events the campaign dropped.
        dropped: usize,
        /// Events handed back in their place.
        supplied: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::LogDisabled => write!(f, "campaign event log is disabled"),
            CampaignError::MidTick => {
                write!(f, "operation requires a tick boundary (wave staged)")
            }
            CampaignError::WaveSizeMismatch { expected, got } => {
                write!(f, "expected {expected} measurements, got {got}")
            }
            CampaignError::SnapshotMismatch { reason } => {
                write!(f, "snapshot mismatch: {reason}")
            }
            CampaignError::NotPristine => {
                write!(f, "resume requires a freshly built campaign")
            }
            CampaignError::MissingMeasurement { id, attempt } => {
                write!(
                    f,
                    "snapshot log lacks the measurement for trial {id} attempt {attempt}"
                )
            }
            CampaignError::ReplayDiverged { reason } => {
                write!(f, "replay diverged from snapshot: {reason}")
            }
            CampaignError::LogDropped { dropped, supplied } => write!(
                f,
                "the campaign dropped the first {dropped} events of its log and {supplied} \
                 were handed back; snapshot it from where its log was persisted"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The live measurement for the next unreplayed staged item.
fn next_live(live: &mut std::vec::IntoIter<Measurement>) -> Measurement {
    live.next().expect("one live measurement per staged item") // lint: allow(D5) apply_wave callers measure exactly `staged_wave()`
}

/// How a campaign holds its target: shared (the registry's `'static`
/// campaigns) or borrowed for a one-shot run over a caller-owned target.
enum TargetRef<'a> {
    Shared(Arc<Target>),
    Borrowed(&'a Target),
}

impl std::ops::Deref for TargetRef<'_> {
    type Target = Target;

    fn deref(&self) -> &Target {
        match self {
            TargetRef::Shared(t) => t,
            TargetRef::Borrowed(t) => t,
        }
    }
}

/// A resumable tuning campaign: the one trial engine.
///
/// A `Campaign` holds its whole world — target, source, middleware,
/// telemetry fan-out, virtual clock, trial history — and advances in
/// discrete ticks, so thousands can be interleaved by a scheduler.
/// [`Campaign::new`] shares its target behind an [`Arc`]; with `'static`
/// collaborators (an owned source, owned middleware) the campaign itself
/// is `'static` and can be parked in a registry indefinitely.
/// [`Campaign::over`] borrows a caller-owned target for a one-shot run.
///
/// ```
/// use autotune::executor::{Campaign, OptimizerSource, SchedulePolicy};
/// use autotune::{Objective, Target};
/// use autotune_optimizer::RandomSearch;
/// use autotune_sim::{Environment, RedisSim, Workload};
///
/// let target = Target::simulated(
///     Box::new(RedisSim::new()),
///     Workload::kv_cache(10_000.0),
///     Environment::medium(),
///     Objective::MinimizeLatencyP95,
/// );
/// let mut opt = RandomSearch::new(target.space().clone());
/// let mut campaign = Campaign::new(
///     target,
///     Box::new(OptimizerSource::new(&mut opt, 8)),
///     SchedulePolicy::AsyncSlots { k: 4 },
///     1,
/// );
/// let metrics = campaign.run();
/// assert_eq!(metrics.n_trials(), 8);
/// assert!(metrics.wall_clock_s < metrics.machine_seconds());
/// let snapshot = campaign.snapshot().expect("log is on by default");
/// assert!(!snapshot.events.is_empty());
/// ```
pub struct Campaign<'a> {
    target: TargetRef<'a>,
    noise_strategy: NoiseStrategy,
    source: Box<dyn TrialSource + 'a>,
    middleware: Vec<Box<dyn Middleware + 'a>>,
    fan: FanOut<'a>,
    timer: Box<dyn WallTimer + 'a>,
    storage: TrialStorage,
    seed: u64,
    policy: SchedulePolicy,
    cost_is_elapsed: bool,
    suggest_rng: StdRng,
    clock: f64,
    next_id: u64,
    in_flight: Vec<Scheduled>,
    exhausted: bool,
    done: bool,
    primed: bool,
    last_refits: usize,
    last_updates: usize,
    log: Option<Vec<CampaignEvent>>,
    /// Events logged and then dropped from the front of `log`
    /// ([`Campaign::drop_logged`]): the log's indices count them.
    dropped: usize,
    replay: BTreeMap<(u64, u32), Measurement>,
    staged: Vec<(WorkItem, Option<Measurement>)>,
    n_ticks: u64,
}

impl<'a> Campaign<'a> {
    /// A campaign over `target` drawing trials from `source` under the
    /// given scheduling policy and campaign seed. The event log is
    /// enabled by default ([`Campaign::with_event_log`] turns it off for
    /// fleets that never snapshot).
    pub fn new(
        target: impl Into<Arc<Target>>,
        source: Box<dyn TrialSource + 'a>,
        policy: SchedulePolicy,
        seed: u64,
    ) -> Self {
        Self::build(TargetRef::Shared(target.into()), source, policy, seed)
    }

    /// [`Campaign::new`] over a borrowed target: the one-shot form for
    /// callers that keep their target (and usually read their source
    /// back — hand it over as `Box::new(&mut source)`).
    pub fn over(
        target: &'a Target,
        source: Box<dyn TrialSource + 'a>,
        policy: SchedulePolicy,
        seed: u64,
    ) -> Self {
        Self::build(TargetRef::Borrowed(target), source, policy, seed)
    }

    fn build(
        target: TargetRef<'a>,
        source: Box<dyn TrialSource + 'a>,
        policy: SchedulePolicy,
        seed: u64,
    ) -> Self {
        let cost_is_elapsed = matches!(target.objective(), Objective::MinimizeElapsed);
        Campaign {
            target,
            noise_strategy: NoiseStrategy::Single,
            source,
            middleware: Vec::new(),
            fan: FanOut {
                collector: MetricsCollector::new(),
                subs: Vec::new(),
            },
            timer: Box::new(NullTimer),
            storage: TrialStorage::new(),
            seed,
            policy,
            cost_is_elapsed,
            suggest_rng: StdRng::seed_from_u64(seed),
            clock: 0.0,
            next_id: 0,
            in_flight: Vec::new(),
            exhausted: false,
            done: false,
            primed: false,
            last_refits: 0,
            last_updates: 0,
            log: Some(Vec::new()),
            dropped: 0,
            replay: BTreeMap::new(),
            staged: Vec::new(),
            n_ticks: 0,
        }
    }

    /// Sets the measurement policy per trial (default: one raw run).
    pub fn with_noise_strategy(mut self, strategy: NoiseStrategy) -> Self {
        self.noise_strategy = strategy;
        self
    }

    /// Appends a middleware to the chain (applied in insertion order).
    pub fn with_middleware(mut self, mw: Box<dyn Middleware + 'a>) -> Self {
        self.middleware.push(mw);
        self
    }

    /// Attaches a telemetry subscriber (notified in attachment order, on
    /// the driver thread, with virtual-clock timestamps). Subscribers are
    /// pure observers: attaching any combination leaves campaign results
    /// byte-identical.
    pub fn with_subscriber(mut self, sub: Box<dyn Subscriber + 'a>) -> Self {
        self.fan.subs.push(sub);
        self
    }

    /// Injects a real-time source for optimizer overhead attribution
    /// (default: [`NullTimer`], every reading 0). Readings flow only into
    /// subscriber-side metrics — never into the clock, and the event log
    /// records them as 0.
    pub fn with_timer(mut self, timer: Box<dyn WallTimer + 'a>) -> Self {
        self.timer = timer;
        self
    }

    /// Enables or disables the append-only event log (default: on).
    /// Snapshots require it; a fleet that never snapshots can turn it
    /// off to drop the bookkeeping.
    pub fn with_event_log(mut self, enabled: bool) -> Self {
        self.log = enabled.then(Vec::new);
        self
    }

    /// The target under tuning.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The per-trial measurement policy.
    pub fn noise_strategy(&self) -> &NoiseStrategy {
        &self.noise_strategy
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduling policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Whether the campaign has drained.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the source has reported a surrogate refit or an in-place
    /// model update (what [`OptEvent::SurrogateRefit`] and
    /// [`OptEvent::ModelUpdate`] announce): from then on its suggest and
    /// observe cost milliseconds where a model-free one costs
    /// microseconds.
    pub fn has_model(&self) -> bool {
        self.last_refits > 0 || self.last_updates > 0
    }

    /// Ticks completed so far.
    pub fn n_ticks(&self) -> u64 {
        self.n_ticks
    }

    /// The trial history so far.
    pub fn storage(&self) -> &TrialStorage {
        &self.storage
    }

    /// Consumes the campaign, returning its trial history.
    pub fn into_storage(self) -> TrialStorage {
        self.storage
    }

    /// The campaign's accounting so far: counters, machine-seconds,
    /// latency/queue/overhead histograms, per-machine utilization
    /// (`wall_clock_s` is final once the campaign is done).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.fan.collector.snapshot()
    }

    /// The event log, when enabled: every event since the last
    /// [`Campaign::drop_logged`], the whole log if it was never called.
    pub fn log(&self) -> Option<&[CampaignEvent]> {
        self.log.as_deref()
    }

    /// Drops every event the log holds, once the caller has persisted
    /// them (a write-ahead log that keeps the one copy). The campaign
    /// still counts them, so replay indices and refusals keep naming
    /// events from the log's start; [`Campaign::snapshot`] refuses from
    /// now on, and [`Campaign::snapshot_with`] takes them back.
    pub fn drop_logged(&mut self) {
        if let Some(log) = &mut self.log {
            self.dropped += log.len();
            log.clear();
        }
    }

    /// Events logged so far, dropped ones included.
    fn log_len(&self) -> usize {
        self.dropped + self.log.as_ref().map_or(0, Vec::len)
    }

    fn log_push(&mut self, f: impl FnOnce() -> CampaignEvent) {
        if let Some(log) = &mut self.log {
            log.push(f());
        }
    }

    /// Fans an optimizer-side event out and logs it with `wall_ns`
    /// zeroed, keeping the log independent of any injected real timer.
    fn emit_opt(&mut self, ev: &OptEvent) {
        self.fan.opt(self.clock, ev);
        if self.log.is_some() {
            let mut e = *ev;
            match &mut e {
                OptEvent::SuggestEnd { wall_ns, .. } | OptEvent::ObserveEnd { wall_ns, .. } => {
                    *wall_ns = 0;
                }
                _ => {}
            }
            self.log_push(|| CampaignEvent::Opt { event: e });
        }
    }

    /// Announces increases of the source's cumulative refit/update
    /// counters, attributed to trial `id`.
    fn poll_model_counters(&mut self, id: u64) {
        let refits = self.source.n_refits();
        if refits > self.last_refits {
            self.last_refits = refits;
            self.emit_opt(&OptEvent::SurrogateRefit {
                id,
                n_refits: refits,
            });
        }
        let updates = self.source.n_model_updates();
        if updates > self.last_updates {
            self.last_updates = updates;
            self.emit_opt(&OptEvent::ModelUpdate {
                id,
                n_updates: updates,
            });
        }
    }

    /// Admission: fills free slots from the source and stages the wave,
    /// serving any replayed measurements from the log, then
    /// fast-forwards the target's drift clock past those replayed
    /// measurements, so the first live measurement after a replay starts
    /// from the recorded trajectory (a no-op outside replay: the queue is
    /// empty and stamped clocks never run ahead of a live target's).
    /// No-op when a wave is already staged or the campaign is done.
    fn stage(&mut self) {
        if self.done || !self.staged.is_empty() {
            return;
        }
        if !self.primed {
            // Baseline read of the source's cumulative counters.
            self.last_refits = self.source.n_refits();
            self.last_updates = self.source.n_model_updates();
            self.primed = true;
        }
        let capacity = self.policy.capacity();
        let mut wave: Vec<WorkItem> = Vec::new();
        while !self.exhausted && self.in_flight.len() + wave.len() < capacity {
            let prospective = self.next_id;
            self.emit_opt(&OptEvent::SuggestBegin { id: prospective });
            let t0 = self.timer.now_ns();
            let step = self.source.next(&mut self.suggest_rng);
            let wall_ns = self.timer.now_ns().saturating_sub(t0);
            self.emit_opt(&OptEvent::SuggestEnd {
                id: prospective,
                wall_ns,
                dispatched: matches!(step, SourceStep::Dispatch(_)),
            });
            self.poll_model_counters(prospective);
            match step {
                SourceStep::Dispatch(mut req) => {
                    for mw in &mut self.middleware {
                        mw.before_dispatch(&mut req, &mut self.suggest_rng);
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    let ev = TrialEvent::Suggested {
                        id,
                        config: req.config.clone(),
                    };
                    self.fan.trial(self.clock, &ev);
                    self.log_push(|| CampaignEvent::Suggested {
                        id,
                        request: req.clone(),
                    });
                    wave.push(WorkItem {
                        id,
                        req,
                        eval_seed: trial_seed(self.seed, id),
                    });
                }
                SourceStep::Wait => break,
                SourceStep::Exhausted => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        for (config, rung) in self.source.take_promotions() {
            self.fan
                .trial(self.clock, &TrialEvent::Promoted { config, rung });
        }
        self.staged = Vec::with_capacity(wave.len());
        for w in wave {
            let m = self.replay.remove(&(w.id, 0));
            self.staged.push((w, m));
        }
        // Measurements within a wave run in wave order, so the latest
        // replayed stamp is the clock after the wave.
        let replayed = self
            .staged
            .iter()
            .filter_map(|(_, m)| m.as_ref().map(|m| m.clock))
            .max()
            .unwrap_or(0);
        if replayed > self.target.noise_clock() {
            self.target.set_noise_clock(replayed);
        }
    }

    /// The staged items that still need a live measurement, in wave
    /// order (the rest were served from the replay queue): what
    /// [`Campaign::ready_wave`] returned, borrowed again through `&self`
    /// so it can be measured next to [`Campaign::target`]. Empty between
    /// waves.
    pub fn staged_wave(&self) -> impl Iterator<Item = &WorkItem> {
        self.staged
            .iter()
            .filter(|(_, m)| m.is_none())
            .map(|(w, _)| w)
    }

    /// Stages the next wave and returns the items needing a **live**
    /// measurement, borrowed (replayed items are filled internally). The
    /// caller measures them with [`measure_wave`] — on any thread, but
    /// one campaign's wave in wave order on one thread, because a noisy
    /// target's drift clock advances per evaluation — and hands the
    /// results back to [`Campaign::complete_wave`] in that order.
    /// Idempotent until the wave completes; empty when the campaign is
    /// done or the tick needs no live measurement.
    pub fn ready_wave(&mut self) -> impl Iterator<Item = &WorkItem> {
        self.stage();
        self.staged_wave()
    }

    /// Completes the staged wave with the live measurements for
    /// [`Campaign::ready_wave`]'s items, in that order. Returns whether
    /// the campaign is done.
    pub fn complete_wave(&mut self, live: Vec<Measurement>) -> Result<bool, CampaignError> {
        let expected = self.staged_wave().count();
        if live.len() != expected {
            return Err(CampaignError::WaveSizeMismatch {
                expected,
                got: live.len(),
            });
        }
        self.apply_wave(live);
        Ok(self.done)
    }

    /// The back half of one tick: pair the staged wave with its
    /// measurements (replayed ones from the stage step, live ones from
    /// `live` in wave order), absorb them (fault rolls, middleware,
    /// retries), advance the virtual clock to the next completion,
    /// finalize completed trials and report them to the source. Sets
    /// `done` when the campaign has drained.
    fn apply_wave(&mut self, live: Vec<Measurement>) {
        if self.done {
            return;
        }
        self.n_ticks += 1;
        let mut live = live.into_iter();

        // Measurement absorption: per trial, log the raw measurement,
        // inject any planned fault, run censoring middleware, and loop on
        // retries — a retry re-measures with a fresh per-attempt seed and
        // a fresh fault roll, charging the failed attempt plus backoff to
        // the trial's elapsed time.
        for (p, m) in std::mem::take(&mut self.staged) {
            let mut m = m.unwrap_or_else(|| next_live(&mut live));
            self.log_push(|| CampaignEvent::measured(p.id, 0, &m));
            let ev = TrialEvent::Started {
                id: p.id,
                at_s: self.clock,
                machine_id: m.machine_id.or(p.req.machine_id),
            };
            self.fan.trial(self.clock, &ev);
            let mut attempt: u32 = 0;
            let mut carried_s = 0.0_f64;
            loop {
                if m.fault.is_none() {
                    // ConfigCrash already set by the target; otherwise
                    // roll this attempt's infrastructure fate.
                    if let Some(plan) = self.target.faults() {
                        let machine = m.machine_id.or(p.req.machine_id);
                        if let Some(f) = plan.roll(p.id, attempt, machine, self.clock + carried_s) {
                            apply_fault(&f, &mut m, self.cost_is_elapsed);
                        }
                    }
                }
                for mw in &mut self.middleware {
                    mw.after_measure(&mut m, self.cost_is_elapsed);
                }
                let backoff = self
                    .middleware
                    .iter_mut()
                    .find_map(|mw| mw.retry_after(&m, attempt));
                match backoff {
                    Some(backoff_s) => {
                        carried_s += m.elapsed_s + backoff_s;
                        attempt += 1;
                        let ev = TrialEvent::Retried {
                            id: p.id,
                            attempt,
                            backoff_s,
                            at_s: self.clock + carried_s,
                        };
                        self.fan.trial(self.clock + carried_s, &ev);
                        m = match self.replay.remove(&(p.id, attempt)) {
                            Some(m) => {
                                // A replayed re-measurement advanced the
                                // original target's drift clock; keep the
                                // fresh target in step so live measurement
                                // after the replay starts from the recorded
                                // trajectory.
                                if m.clock > self.target.noise_clock() {
                                    self.target.set_noise_clock(m.clock);
                                }
                                m
                            }
                            None => measure_request(
                                &self.target,
                                &self.noise_strategy,
                                &p.req,
                                trial_seed(p.eval_seed, u64::from(attempt)),
                            ),
                        };
                        self.log_push(|| CampaignEvent::measured(p.id, attempt, &m));
                    }
                    None => break,
                }
            }
            m.elapsed_s += carried_s;
            self.in_flight.push(Scheduled {
                id: p.id,
                req: p.req,
                finish: self.clock + m.elapsed_s,
                retries: attempt,
                m,
            });
        }

        if self.in_flight.is_empty() {
            // Exhausted and drained — or a source that waits with
            // nothing in flight, which would never unblock.
            self.done = true;
            self.fan.end(self.clock);
            return;
        }

        // Completion: a full wave under a batch barrier, else the
        // earliest virtual finisher (ties go to dispatch order).
        let completed: Vec<Scheduled> = if self.policy.barrier() {
            let batch_max = self
                .in_flight
                .iter()
                .map(|s| s.m.elapsed_s)
                .fold(0.0_f64, f64::max);
            self.clock += batch_max;
            std::mem::take(&mut self.in_flight)
        } else {
            let i = self
                .in_flight
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.finish.total_cmp(&b.finish))
                .map(|(i, _)| i)
                .expect("in_flight nonempty"); // lint: allow(D5) emptiness handled above
            let s = self.in_flight.remove(i);
            self.clock = self.clock.max(s.finish);
            vec![s]
        };

        for s in completed {
            let status = if s.m.aborted {
                TrialStatus::Aborted
            } else if s.m.cost.is_nan() && s.m.fault.is_some_and(|f| f.is_transient()) {
                TrialStatus::TransientFailure
            } else if !s.m.cost.is_finite() {
                TrialStatus::Crashed
            } else {
                TrialStatus::Complete
            };
            let mut outcome = TrialOutcome {
                id: s.id,
                config: s.req.config,
                cost: s.m.cost,
                learn_cost: s.m.cost,
                elapsed_s: s.m.elapsed_s,
                fidelity: s.req.fidelity,
                machine_id: s.m.machine_id,
                status,
                retries: s.retries,
                fault: s.m.fault,
                telemetry: s.m.telemetry,
            };
            for mw in &mut self.middleware {
                mw.on_outcome(&mut outcome);
            }
            self.log_push(|| CampaignEvent::outcome(&outcome));
            self.emit_opt(&OptEvent::ObserveBegin { id: outcome.id });
            let t0 = self.timer.now_ns();
            self.source.report(&outcome);
            let wall_ns = self.timer.now_ns().saturating_sub(t0);
            self.emit_opt(&OptEvent::ObserveEnd {
                id: outcome.id,
                wall_ns,
            });
            self.poll_model_counters(outcome.id);
            let ev = match status {
                TrialStatus::Crashed => TrialEvent::Crashed {
                    id: outcome.id,
                    elapsed_s: outcome.elapsed_s,
                },
                TrialStatus::Aborted => TrialEvent::Aborted {
                    id: outcome.id,
                    cost: outcome.cost,
                    elapsed_s: outcome.elapsed_s,
                    saved_s: s.m.saved_s,
                },
                TrialStatus::TransientFailure => TrialEvent::FailedTransient {
                    id: outcome.id,
                    kind: outcome.fault.unwrap_or(FailureKind::Transient),
                    elapsed_s: outcome.elapsed_s,
                },
                TrialStatus::Complete => TrialEvent::Finished {
                    id: outcome.id,
                    cost: outcome.cost,
                    elapsed_s: outcome.elapsed_s,
                },
            };
            self.fan.trial(self.clock, &ev);
            self.fan.outcome(self.clock, &outcome);
            // A crash keeps its cost (±inf is not NaN); a trial lost to
            // infrastructure says nothing of its config and records none.
            let cost = match outcome.status {
                TrialStatus::TransientFailure => f64::NAN,
                _ => outcome.cost,
            };
            self.storage.record(Trial {
                id: 0,
                config: outcome.config,
                cost,
                elapsed_s: outcome.elapsed_s,
                fidelity: outcome.fidelity,
                machine_id: outcome.machine_id,
                status: outcome.status,
                retries: outcome.retries,
            });
        }

        // Drain middleware lifecycle events (quarantines, releases).
        for mw in &mut self.middleware {
            for ev in mw.take_events() {
                self.fan.trial(self.clock, &ev);
            }
        }
    }

    /// Advances one tick inline: stage the wave, measure it with
    /// [`measure_wave`] (in wave order, on this thread), absorb the
    /// results. Returns whether the campaign is done.
    pub fn tick(&mut self) -> bool {
        if self.done {
            return true;
        }
        self.stage();
        let live = measure_wave(&self.target, &self.noise_strategy, self.staged_wave());
        self.apply_wave(live);
        self.done
    }

    /// Drives the campaign to exhaustion and returns its final
    /// [`Campaign::metrics`].
    pub fn run(&mut self) -> MetricsSnapshot {
        while !self.tick() {}
        self.metrics()
    }

    /// Captures the campaign as `(seed, policy, event log)`. Requires
    /// the event log, all of it held ([`CampaignError::LogDropped`] once
    /// [`Campaign::drop_logged`] dropped some), and a tick boundary (no
    /// wave staged via [`Campaign::ready_wave`] awaiting completion).
    pub fn snapshot(&self) -> Result<CampaignSnapshot, CampaignError> {
        self.snapshot_with(Vec::new())
    }

    /// [`Campaign::snapshot`] of a campaign whose dropped events are
    /// handed back as `dropped`, read from where they were persisted:
    /// the snapshot's log is `dropped` and then the events the campaign
    /// holds. `dropped` must be as long as what was dropped.
    pub fn snapshot_with(
        &self,
        mut dropped: Vec<CampaignEvent>,
    ) -> Result<CampaignSnapshot, CampaignError> {
        let log = self.log.as_ref().ok_or(CampaignError::LogDisabled)?;
        if dropped.len() != self.dropped {
            return Err(CampaignError::LogDropped {
                dropped: self.dropped,
                supplied: dropped.len(),
            });
        }
        if !self.staged.is_empty() {
            return Err(CampaignError::MidTick);
        }
        dropped.extend_from_slice(log);
        Ok(CampaignSnapshot {
            seed: self.seed,
            policy: self.policy,
            events: dropped,
        })
    }

    /// Rebuilds a snapshotted campaign into `fresh` — a pristine campaign
    /// constructed over the *same* target, source, middleware and seed as
    /// the original: the seed and policy are checked against the
    /// snapshot's, and its events replayed ([`Campaign::replay`]).
    /// Continuing the campaign then produces exactly what the original
    /// would have produced.
    pub fn resume(
        snapshot: &CampaignSnapshot,
        fresh: Campaign<'a>,
    ) -> Result<Campaign<'a>, CampaignError> {
        let mismatch = |reason: String| Err(CampaignError::SnapshotMismatch { reason });
        if fresh.policy != snapshot.policy {
            return mismatch(format!(
                "policy {} != snapshot {}",
                fresh.policy.label(),
                snapshot.policy.label()
            ));
        }
        if fresh.seed != snapshot.seed {
            return mismatch(format!("seed {} != snapshot {}", fresh.seed, snapshot.seed));
        }
        Self::replay(fresh, &snapshot.events)
    }

    /// The one replay and the one check: feeds the logged `Measured`
    /// events to the pristine `fresh` in place of its target and runs
    /// whole ticks until its own log is as long as `events`, recomputing
    /// every other event live (suggestions, fault rolls and middleware
    /// transforms under the determinism contract; the measurements' clock
    /// stamps fast-forward the target's drift clock). Each rebuilt event
    /// must then be the logged one bit for bit, as the log's binary
    /// encoding sees it (`SameBits`: `-0.0` is not `0.0`, a crashed
    /// trial's NaN cost equals itself), or the rebuild is refused as
    /// [`CampaignError::ReplayDiverged`]; so is a measurement left over,
    /// and a log that is not as long as `events` when the last whole
    /// tick ends.
    ///
    /// The log must end on a tick boundary, which is where snapshots are
    /// taken and where a write-ahead log of whole ticks stops. A log that
    /// stops inside a tick is [`CampaignError::MissingMeasurement`] when
    /// the cut wave still needs a measurement, and
    /// [`CampaignError::ReplayDiverged`] when replay runs past it.
    pub fn replay(
        fresh: Campaign<'a>,
        events: &[CampaignEvent],
    ) -> Result<Campaign<'a>, CampaignError> {
        let mut c = fresh;
        if c.n_ticks != 0 || c.next_id != 0 {
            return Err(CampaignError::NotPristine);
        }
        c.replay_more(events)?;
        Ok(c)
    }

    /// Continues a replay with the next stretch of the log, `events`,
    /// which must end on a tick boundary: the same ticks and the same
    /// check as [`Campaign::replay`], over the events after the ones
    /// replayed so far (a reader can replay a log one stretch at a time
    /// and [`Campaign::drop_logged`] each, holding none of it whole).
    /// Refusals name events by their index in the whole log.
    pub fn replay_more(&mut self, events: &[CampaignEvent]) -> Result<(), CampaignError> {
        let Some(held) = self.log.as_ref().map(Vec::len) else {
            return Err(CampaignError::LogDisabled);
        };
        if !self.staged.is_empty() {
            return Err(CampaignError::MidTick);
        }
        let start = self.log_len();
        let n_events = start + events.len();
        self.replay
            .extend(events.iter().filter_map(CampaignEvent::measurement));
        while self.log_len() < n_events && !self.done {
            let before = self.log_len();
            self.stage();
            if let Some(w) = self.staged_wave().next() {
                return Err(CampaignError::MissingMeasurement {
                    id: w.id,
                    attempt: 0,
                });
            }
            self.apply_wave(Vec::new());
            if self.log_len() == before && !self.done {
                return Err(CampaignError::ReplayDiverged {
                    reason: "replay stalled without appending events".into(),
                });
            }
        }
        let rebuilt = self.log.iter().flatten().skip(held);
        if let Some(i) = rebuilt
            .zip(events)
            .position(|(got, want)| !got.same_bits(want))
        {
            return Err(CampaignError::ReplayDiverged {
                reason: format!("event {} {DIVERGED}", start + i),
            });
        }
        if !self.replay.is_empty() {
            return Err(CampaignError::ReplayDiverged {
                reason: format!(
                    "{} recorded measurements were never consumed",
                    self.replay.len()
                ),
            });
        }
        // Shorter: the campaign drained before reproducing the whole log
        // (e.g. a larger budget than the fresh build's). Longer: the log
        // stops between a tick's last measurement and its outcomes.
        let rebuilt_len = self.log_len();
        if rebuilt_len != n_events {
            return Err(CampaignError::ReplayDiverged {
                reason: format!(
                    "rebuilt log has {rebuilt_len} events, the recorded one {n_events}"
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::executor::{EarlyAbortMw, OptimizerSource, RetryMw};
    use crate::sync::PoisonFreeMutex;
    use crate::test_fixtures::redis_target;
    use autotune_optimizer::RandomSearch;
    use autotune_sim::TelemetrySample;
    use rand::RngCore;
    use std::sync::{Arc, Mutex};

    /// What a [`Reported`] source was reported, shared with the test.
    type Reports = Arc<Mutex<Vec<TrialOutcome>>>;

    /// A random search that keeps every outcome it is reported.
    struct Reported {
        inner: OptimizerSource<Box<RandomSearch>>,
        seen: Reports,
    }

    impl TrialSource for Reported {
        fn next(&mut self, rng: &mut dyn RngCore) -> SourceStep {
            self.inner.next(rng)
        }

        fn report(&mut self, outcome: &TrialOutcome) {
            self.seen.plock().push(outcome.clone());
            self.inner.report(outcome);
        }
    }

    /// A random search over `target` and the outcomes its source is
    /// reported.
    fn reporting(
        target: Target,
        policy: SchedulePolicy,
        budget: usize,
        seed: u64,
    ) -> (Campaign<'static>, Reports) {
        let opt = Box::new(RandomSearch::new(target.space().clone()));
        let seen = Reports::default();
        let source = Reported {
            inner: OptimizerSource::new(opt, budget),
            seen: Arc::clone(&seen),
        };
        (Campaign::new(target, Box::new(source), policy, seed), seen)
    }

    fn campaign_for(policy: SchedulePolicy, budget: usize, seed: u64) -> Campaign<'static> {
        reporting(redis_target(), policy, budget, seed).0
    }

    /// A noisy, fault-injected campaign behind retry and early-abort
    /// middleware (its log holds re-measurements, attempt > 0), and the
    /// outcomes its source is reported.
    fn faulty_reporting(policy: SchedulePolicy) -> (Campaign<'static>, Reports) {
        use autotune_sim::{CloudNoise, FaultPlan, NoiseConfig};
        let target = redis_target()
            .with_noise(CloudNoise::new_fleet(4, NoiseConfig::default(), 5))
            .with_faults(FaultPlan::aggressive(5));
        let (c, seen) = reporting(target, policy, 16, 5);
        let c = c
            .with_middleware(Box::new(RetryMw::new(3, 5.0)))
            .with_middleware(Box::new(EarlyAbortMw::new(1.3)));
        (c, seen)
    }

    pub(crate) fn faulty_campaign(policy: SchedulePolicy) -> Campaign<'static> {
        faulty_reporting(policy).0
    }

    /// Per outcome the source was reported, whether its series is the
    /// very allocation its trial's last `Measured` event in `log` holds.
    fn outcome_shares_last_series(
        log: &[CampaignEvent],
        seen: &Reports,
    ) -> Vec<(bool, TrialOutcome)> {
        let last_series = |id| -> &Arc<[TelemetrySample]> {
            let last = log.iter().rev().find_map(|e| match e {
                CampaignEvent::Measured {
                    id: m_id,
                    telemetry,
                    ..
                } if *m_id == id => Some(telemetry),
                _ => None,
            });
            last.unwrap()
        };
        let seen = seen.plock();
        let shares = |o: &TrialOutcome| Arc::ptr_eq(&o.telemetry, last_series(o.id));
        seen.iter().map(|o| (shares(o), o.clone())).collect()
    }

    #[test]
    fn a_trials_series_is_allocated_once() {
        let (mut clean, seen) =
            reporting(redis_target(), SchedulePolicy::AsyncSlots { k: 2 }, 10, 9);
        clean.run();
        let shared = outcome_shares_last_series(clean.log().unwrap(), &seen);
        assert_eq!(shared.len(), 10);
        for (same, o) in shared {
            assert!(same && o.telemetry.len() == 32, "trial {}", o.id);
        }
        // Behind faults and retries: a fault that loses the measurement
        // drops its series, and every other outcome holds the last
        // attempt's.
        let (mut faulty, seen) = faulty_reporting(SchedulePolicy::AsyncSlots { k: 2 });
        faulty.run();
        let shared = outcome_shares_last_series(faulty.log().unwrap(), &seen);
        let dropped = shared.iter().filter(|(same, _)| !same).count();
        assert!(dropped > 0 && dropped < shared.len(), "{dropped} dropped");
        // Replayed, each outcome holds the series the log holds, not a
        // copy.
        let snap = faulty.snapshot().unwrap();
        let (fresh, replayed) = faulty_reporting(SchedulePolicy::AsyncSlots { k: 2 });
        Campaign::resume(&snap, fresh).unwrap();
        let replayed = outcome_shares_last_series(&snap.events, &replayed);
        let flags = |v: &[(bool, TrialOutcome)]| -> Vec<(bool, u64)> {
            v.iter().map(|(same, o)| (*same, o.id)).collect()
        };
        assert_eq!(flags(&replayed), flags(&shared));
        for (same, o) in shared {
            assert!(
                same || (o.telemetry.is_empty() && o.fault.is_some()),
                "trial {}",
                o.id
            );
        }
    }

    #[test]
    fn wave_api_matches_inline_ticks() {
        // Driving via ready_wave/measure_wave/complete_wave (what a
        // registry does) must equal the inline tick path byte for byte.
        let mut inline = campaign_for(SchedulePolicy::AsyncSlots { k: 2 }, 10, 9);
        let inline_metrics = inline.run();
        let mut waved = campaign_for(SchedulePolicy::AsyncSlots { k: 2 }, 10, 9);
        loop {
            let n_live = waved.ready_wave().count();
            let live = measure_wave(waved.target(), waved.noise_strategy(), waved.staged_wave());
            assert_eq!(live.len(), n_live);
            if waved.complete_wave(live).expect("sizes match") {
                break;
            }
        }
        assert_eq!(inline.storage().to_json(), waved.storage().to_json());
        assert_eq!(
            inline_metrics.wall_clock_s.to_bits(),
            waved.metrics().wall_clock_s.to_bits()
        );
    }

    #[test]
    fn snapshot_resume_mid_campaign_is_byte_identical() {
        let mut straight = campaign_for(SchedulePolicy::AsyncSlots { k: 2 }, 12, 5);
        straight.run();

        let mut half = campaign_for(SchedulePolicy::AsyncSlots { k: 2 }, 12, 5);
        for _ in 0..5 {
            half.tick();
        }
        let snap = half.snapshot().expect("log enabled");
        let mut bytes = Vec::new();
        ciborium::into_writer(&snap, &mut bytes).unwrap();
        let parsed: CampaignSnapshot = ciborium::from_reader(&bytes[..]).expect("round-trips");

        let fresh = campaign_for(SchedulePolicy::AsyncSlots { k: 2 }, 12, 5);
        let mut resumed = Campaign::resume(&parsed, fresh).expect("replay succeeds");
        assert_eq!(resumed.n_ticks(), half.n_ticks());
        assert_eq!(resumed.storage().to_json(), half.storage().to_json());
        resumed.run();
        assert_eq!(resumed.storage().to_json(), straight.storage().to_json());
        assert_eq!(
            resumed.metrics().wall_clock_s.to_bits(),
            straight.metrics().wall_clock_s.to_bits()
        );
    }

    #[test]
    fn resume_accepts_only_tick_boundary_cuts() {
        let policy = SchedulePolicy::AsyncSlots { k: 2 };
        let mut straight = faulty_campaign(policy);
        let mut boundaries = vec![0];
        while !straight.tick() {
            boundaries.push(straight.log_len());
        }
        boundaries.push(straight.log_len());
        assert!(straight.metrics().n_retries > 0, "the sweep needs retries");
        let full = straight.snapshot().expect("log enabled");
        // A log cut at every event: the cuts a tick ended on resume and
        // finish byte-identically, every other cut is a typed error.
        for cut in 0..=full.events.len() {
            let mut torn = full.clone();
            torn.events.truncate(cut);
            let on_boundary = boundaries.contains(&cut);
            let mut resumed = match Campaign::resume(&torn, faulty_campaign(policy)) {
                Ok(c) if on_boundary => c,
                Err(
                    CampaignError::MissingMeasurement { .. } | CampaignError::ReplayDiverged { .. },
                ) if !on_boundary => continue,
                other => panic!("cut at {cut} (boundary: {on_boundary}): {:?}", other.err()),
            };
            resumed.run();
            assert_eq!(
                resumed.storage().to_json(),
                straight.storage().to_json(),
                "cut at {cut}"
            );
            assert_eq!(
                resumed.metrics().wall_clock_s.to_bits(),
                straight.metrics().wall_clock_s.to_bits(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn a_log_replayed_a_stretch_at_a_time_and_dropped_rebuilds_the_campaign() {
        let policy = SchedulePolicy::AsyncSlots { k: 2 };
        let mut straight = faulty_campaign(policy);
        let mut boundaries = vec![0];
        while !straight.tick() {
            boundaries.push(straight.log_len());
        }
        boundaries.push(straight.log_len());
        let full = straight.snapshot().unwrap();
        // Two ticks a stretch, each dropped once replayed, as a reader of
        // a write-ahead log replays it.
        let mut cuts: Vec<usize> = boundaries.iter().copied().step_by(2).collect();
        cuts.push(full.events.len());
        cuts.dedup();
        let stretches: Vec<&[CampaignEvent]> =
            cuts.windows(2).map(|w| &full.events[w[0]..w[1]]).collect();
        let mut c = faulty_campaign(policy);
        let mut at = 0;
        for stretch in &stretches {
            at += stretch.len();
            c.replay_more(stretch).unwrap();
            assert_eq!(c.log().unwrap().len(), stretch.len());
            c.drop_logged();
            assert_eq!((c.log().unwrap().len(), c.log_len()), (0, at));
        }
        assert_eq!(at, full.events.len());
        assert_eq!(c.storage().to_json(), straight.storage().to_json());
        // The dropped events are only taken back whole.
        assert_eq!(
            c.snapshot().unwrap_err(),
            CampaignError::LogDropped {
                dropped: at,
                supplied: 0
            }
        );
        let short = full.events[1..].to_vec();
        assert!(matches!(
            c.snapshot_with(short),
            Err(CampaignError::LogDropped { .. })
        ));
        let back = c.snapshot_with(full.events.clone()).unwrap();
        let cbor = |s: &CampaignSnapshot| {
            let mut bytes = Vec::new();
            ciborium::into_writer(s, &mut bytes).unwrap();
            bytes
        };
        assert_eq!(cbor(&back), cbor(&full));
        // A refusal names its event by its index in the whole log.
        let mut lied = stretches.iter().map(|s| s.to_vec()).collect::<Vec<_>>();
        let last = lied.len() - 1;
        let i = lied[last]
            .iter()
            .position(|e| matches!(e, CampaignEvent::Outcome { .. }))
            .expect("an outcome in the last stretch");
        let CampaignEvent::Outcome { elapsed_s, .. } = &mut lied[last][i] else {
            unreachable!()
        };
        *elapsed_s = f64::from_bits(elapsed_s.to_bits() ^ 1);
        let mut c = faulty_campaign(policy);
        for stretch in &lied[..last] {
            c.replay_more(stretch).unwrap();
            c.drop_logged();
        }
        let at = full.events.len() - lied[last].len() + i;
        match c.replay_more(&lied[last]) {
            Err(CampaignError::ReplayDiverged { reason }) => {
                assert!(reason.starts_with(&format!("event {at} ")), "{reason}")
            }
            other => panic!("a lie replayed: {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_foreign_history() {
        let mut a = campaign_for(SchedulePolicy::Sequential, 8, 3);
        a.run();
        let mut snap = a.snapshot().expect("log enabled");
        // Graft one event from a different campaign's history into the
        // log: replay must notice the divergence, not absorb it.
        let mut b = campaign_for(SchedulePolicy::Sequential, 8, 4);
        b.run();
        let foreign = b.snapshot().expect("log enabled");
        snap.events[2] = foreign.events[2].clone();
        snap.seed = 3; // keep the header valid; only the body lies
        let fresh = campaign_for(SchedulePolicy::Sequential, 8, 3);
        assert!(matches!(
            Campaign::resume(&snap, fresh),
            Err(CampaignError::ReplayDiverged { .. })
        ));
    }

    #[test]
    fn resume_rejects_mismatched_campaigns() {
        let mut c = campaign_for(SchedulePolicy::Sequential, 6, 1);
        c.run();
        let snap = c.snapshot().expect("log enabled");

        let wrong_seed = campaign_for(SchedulePolicy::Sequential, 6, 2);
        assert!(matches!(
            Campaign::resume(&snap, wrong_seed),
            Err(CampaignError::SnapshotMismatch { .. })
        ));
        let wrong_policy = campaign_for(SchedulePolicy::SyncBatch { k: 2 }, 6, 1);
        assert!(matches!(
            Campaign::resume(&snap, wrong_policy),
            Err(CampaignError::SnapshotMismatch { .. })
        ));
        let mut stale = campaign_for(SchedulePolicy::Sequential, 6, 1);
        stale.tick();
        assert!(matches!(
            Campaign::resume(&snap, stale),
            Err(CampaignError::NotPristine)
        ));
    }

    #[test]
    fn resume_compares_floats_bit_for_bit() {
        let build = || campaign_for(SchedulePolicy::Sequential, 6, 3);
        let mut c = build();
        c.run();
        let snap = c.snapshot().expect("log enabled");
        assert!(Campaign::resume(&snap, build()).is_ok());
        // An outcome is recomputed by replay, never read back from the
        // log, so a lie in one is a divergence.
        let at = snap
            .events
            .iter()
            .position(|e| matches!(e, CampaignEvent::Outcome { .. }))
            .expect("an outcome");
        let lies: [fn(&mut f64); 2] = [
            |x| *x = f64::from_bits(x.to_bits() ^ 1),
            |x| *x = f64::INFINITY,
        ];
        for lie in lies {
            let mut lied = snap.clone();
            let CampaignEvent::Outcome { elapsed_s, .. } = &mut lied.events[at] else {
                unreachable!()
            };
            lie(elapsed_s);
            match Campaign::resume(&lied, build()) {
                Err(CampaignError::ReplayDiverged { reason }) => {
                    assert!(reason.starts_with(&format!("event {at} ")), "{reason}")
                }
                other => panic!("a lie resumed: {:?}", other.err()),
            }
        }
    }

    #[test]
    fn resume_accepts_a_crashed_trial() {
        let build = || faulty_campaign(SchedulePolicy::Sequential);
        let mut c = build();
        c.run();
        let snap = c.snapshot().expect("log enabled");
        // NaN is unequal to itself as a float; as the `None` both sides
        // log it as, it is equal.
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e, CampaignEvent::Outcome { cost: None, .. })));
        assert!(Campaign::resume(&snap, build()).is_ok());
    }

    #[test]
    fn resume_detects_divergent_construction() {
        // Resuming over a different budget changes the suggestion
        // stream's exhaustion point — the rebuilt log must not silently
        // pass verification.
        let mut c = campaign_for(SchedulePolicy::Sequential, 8, 3);
        c.run();
        let snap = c.snapshot().expect("log enabled");
        let shorter = campaign_for(SchedulePolicy::Sequential, 4, 3);
        assert!(Campaign::resume(&snap, shorter).is_err());
    }

    #[test]
    fn event_log_survives_faults_and_retries() {
        let build = || faulty_campaign(SchedulePolicy::Sequential);
        let mut straight = build();
        let metrics = straight.run();
        assert!(metrics.n_retries > 0, "aggressive plan should retry");
        // Retry re-measurements land in the log with attempt > 0.
        assert!(straight
            .log()
            .expect("enabled")
            .iter()
            .any(|e| matches!(e, CampaignEvent::Measured { attempt, .. } if *attempt > 0)));

        let mut half = build();
        for _ in 0..7 {
            half.tick();
        }
        let snap = half.snapshot().expect("log enabled");
        let mut resumed = Campaign::resume(&snap, build()).expect("replay succeeds");
        resumed.run();
        assert_eq!(resumed.storage().to_json(), straight.storage().to_json());
    }
}
