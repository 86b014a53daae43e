//! The typed records flowing through the executor: what a source asks to
//! run ([`TrialRequest`]), what a measurement produced ([`Measurement`]),
//! what a completed trial looks like to the source ([`TrialOutcome`]),
//! and the event stream a campaign emits ([`TrialEvent`]).

use crate::TrialStatus;
use autotune_sim::{FailureKind, TelemetrySample, Workload};
use autotune_space::Config;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A trial a [`super::TrialSource`] wants executed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialRequest {
    /// The configuration to evaluate.
    pub config: Config,
    /// Fidelity annotation recorded on the trial (1.0 = full fidelity).
    pub fidelity: f64,
    /// Workload override (multi-fidelity rungs, online schedules); `None`
    /// runs the target's own workload.
    pub workload: Option<Workload>,
    /// Pin the trial to a specific machine of the noise fleet.
    pub machine_id: Option<usize>,
}

impl TrialRequest {
    /// A plain full-fidelity request on the target's own workload.
    pub fn new(config: Config) -> Self {
        TrialRequest {
            config,
            fidelity: 1.0,
            workload: None,
            machine_id: None,
        }
    }
}

/// What one measurement produced, before and after the middleware chain
/// transforms it (early-abort censoring adjusts `cost`/`elapsed_s` and
/// sets `aborted`). The log holds it as a `CampaignEvent::Measured`.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Scalar cost (NaN = crashed).
    pub cost: f64,
    /// Benchmark seconds charged for the trial.
    pub elapsed_s: f64,
    /// Machine the trial landed on, when a noise fleet is attached.
    pub machine_id: Option<usize>,
    /// Telemetry stream of the run (empty for aggregate noise strategies),
    /// shared with the trial's log events and outcome, never copied.
    pub telemetry: Arc<[TelemetrySample]>,
    /// Set by censoring middleware when the trial was cut short.
    pub aborted: bool,
    /// Benchmark seconds shaved off by censoring middleware.
    pub saved_s: f64,
    /// Fault annotation: a deterministic config crash reported by the
    /// target, or the fault a [`autotune_sim::FaultPlan`] injected into
    /// this attempt. Stragglers and corruptions keep their (suspect)
    /// measurement; the transient kinds carry a NaN cost.
    pub fault: Option<FailureKind>,
    /// Position of the target's temporal-drift clock immediately after
    /// this measurement. Replaying an event log uses it to fast-forward
    /// the fresh target to exactly where the recorded history ends, so
    /// live measurement takes over on the original drift trajectory.
    pub clock: u64,
}

impl Measurement {
    /// Wraps a raw target evaluation.
    pub fn from_eval(e: crate::target::Evaluation) -> Self {
        Measurement {
            cost: e.cost,
            elapsed_s: e.result.elapsed_s,
            machine_id: e.machine_id,
            telemetry: e.result.telemetry,
            aborted: false,
            saved_s: 0.0,
            fault: e.failure,
            clock: 0,
        }
    }
}

/// A finalized trial as reported back to the [`super::TrialSource`]. The
/// log holds its scalars as a `CampaignEvent::Outcome`.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Trial id within the campaign (dispatch order).
    pub id: u64,
    /// The evaluated configuration.
    pub config: Config,
    /// Recorded cost (NaN = crashed, censored when aborted).
    pub cost: f64,
    /// Cost fed to the learner. Defaults to `cost`; crash-penalty
    /// middleware may replace NaN with a large finite penalty.
    pub learn_cost: f64,
    /// Benchmark seconds charged.
    pub elapsed_s: f64,
    /// Fidelity the trial ran at.
    pub fidelity: f64,
    /// Machine assignment, if any.
    pub machine_id: Option<usize>,
    /// Outcome status.
    pub status: TrialStatus,
    /// Retry attempts consumed before this outcome (0 = first try).
    pub retries: u32,
    /// Fault annotation of the final attempt, if any.
    pub fault: Option<FailureKind>,
    /// Telemetry stream of the run: its last measurement's allocation.
    pub telemetry: Arc<[TelemetrySample]>,
}

/// The event stream a campaign emits, one entry per lifecycle transition.
#[derive(Debug, Clone)]
pub enum TrialEvent {
    /// A source proposed a configuration (before it starts running).
    Suggested {
        /// Trial id.
        id: u64,
        /// The proposed configuration.
        config: Config,
    },
    /// The trial began executing at the given virtual time.
    Started {
        /// Trial id.
        id: u64,
        /// Virtual-clock start time, seconds.
        at_s: f64,
        /// Machine the first attempt landed on, when a fleet is attached.
        machine_id: Option<usize>,
    },
    /// The trial completed normally.
    Finished {
        /// Trial id.
        id: u64,
        /// Its cost.
        cost: f64,
        /// Benchmark seconds charged.
        elapsed_s: f64,
    },
    /// The trial crashed the system under test.
    Crashed {
        /// Trial id.
        id: u64,
        /// Benchmark seconds charged before the crash.
        elapsed_s: f64,
    },
    /// The trial was cut short by censoring middleware.
    Aborted {
        /// Trial id.
        id: u64,
        /// The censored cost.
        cost: f64,
        /// Benchmark seconds charged up to the abort.
        elapsed_s: f64,
        /// Benchmark seconds the censoring shaved off.
        saved_s: f64,
    },
    /// The trial was lost to infrastructure with every retry exhausted.
    FailedTransient {
        /// Trial id.
        id: u64,
        /// What finally took it down.
        kind: FailureKind,
        /// Benchmark seconds burned across all attempts.
        elapsed_s: f64,
    },
    /// An attempt failed transiently and the trial is being re-measured.
    Retried {
        /// Trial id.
        id: u64,
        /// The attempt about to run (1 = first retry).
        attempt: u32,
        /// Virtual-clock backoff before the new attempt, seconds.
        backoff_s: f64,
        /// Virtual-clock time at which the new attempt begins; the failed
        /// attempt ended and the backoff started at `at_s - backoff_s`.
        at_s: f64,
    },
    /// A machine's failure rate crossed the quarantine threshold; no new
    /// trials are steered to it until probation.
    Quarantined {
        /// The machine taken out of rotation.
        machine_id: usize,
    },
    /// A quarantined machine finished its cooldown and re-entered the
    /// rotation on probation.
    Released {
        /// The machine returning to rotation.
        machine_id: usize,
    },
    /// A configuration graduated to the next fidelity rung.
    Promoted {
        /// The promoted configuration.
        config: Config,
        /// The rung it enters (0-based).
        rung: usize,
    },
}
