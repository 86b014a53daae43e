//! Cross-cutting trial machinery as a composable middleware chain.
//!
//! Each [`Middleware`] sees every trial at three points: before dispatch
//! (annotate the request — machine pinning, guardrails), after measurement
//! (transform cost/elapsed — early-abort censoring), and at completion
//! (rewrite what the learner is told — crash penalties).

use super::event::{Measurement, TrialEvent, TrialOutcome, TrialRequest};
use crate::{EarlyAbort, TrialStatus};
use autotune_sim::FailureKind;
use rand::{Rng, RngCore};
use std::borrow::BorrowMut;

/// A cross-cutting hook on the trial lifecycle. `Send` for the reason
/// [`super::TrialSource`] is.
pub trait Middleware: Send {
    /// Name for diagnostics.
    fn name(&self) -> &str;

    /// Adjusts a request before it is dispatched.
    fn before_dispatch(&mut self, _req: &mut TrialRequest, _rng: &mut dyn RngCore) {}

    /// Transforms a measurement (censoring, clamping).
    /// `cost_is_elapsed` is true when the objective is elapsed time, the
    /// case where censoring is exact.
    fn after_measure(&mut self, _m: &mut Measurement, _cost_is_elapsed: bool) {}

    /// Asks whether the executor should re-measure this trial instead of
    /// finalizing it. Returns the virtual-clock backoff (seconds) to charge
    /// before the next attempt, or `None` to accept the measurement.
    /// `attempt` is the attempt that just ran (0 = first try).
    fn retry_after(&mut self, _m: &Measurement, _attempt: u32) -> Option<f64> {
        None
    }

    /// Rewrites a finalized outcome before the source sees it.
    fn on_outcome(&mut self, _outcome: &mut TrialOutcome) {}

    /// Drains lifecycle events this middleware wants published (machine
    /// quarantines, releases). Polled by the executor after each hook round.
    fn take_events(&mut self) -> Vec<TrialEvent> {
        Vec::new()
    }
}

/// Early-abort censoring (tutorial slide 69) as middleware: trials slower
/// than `ratio x` the incumbent are cut at the threshold, charging only
/// the time-to-threshold.
///
/// Generic over ownership so a campaign can either own its policy
/// ([`EarlyAbortMw::new`]) or thread a long-lived one through several
/// runs ([`EarlyAbortMw::over`]).
pub struct EarlyAbortMw<P: BorrowMut<EarlyAbort>> {
    policy: P,
}

impl EarlyAbortMw<EarlyAbort> {
    /// An owned policy with the given abort ratio.
    pub fn new(ratio: f64) -> Self {
        EarlyAbortMw {
            policy: EarlyAbort::new(ratio),
        }
    }
}

impl<'a> EarlyAbortMw<&'a mut EarlyAbort> {
    /// Borrows a caller-owned policy (its incumbent and savings stats
    /// survive the run).
    pub fn over(policy: &'a mut EarlyAbort) -> Self {
        EarlyAbortMw { policy }
    }
}

impl<P: BorrowMut<EarlyAbort> + Send> Middleware for EarlyAbortMw<P> {
    fn name(&self) -> &str {
        "early-abort"
    }

    fn after_measure(&mut self, m: &mut Measurement, cost_is_elapsed: bool) {
        let (cost, charged, aborted) =
            self.policy
                .borrow_mut()
                .process(m.cost, m.elapsed_s, cost_is_elapsed);
        if aborted {
            m.saved_s += m.elapsed_s - charged;
            m.aborted = true;
        }
        m.cost = cost;
        m.elapsed_s = charged;
    }
}

/// Crash-penalty middleware (tutorial slide 67): the stored trial keeps
/// its NaN cost, but the learner is told a large finite penalty so its
/// running statistics stay well-defined (bandits, RL).
///
/// By default only deterministic config crashes ([`TrialStatus::Crashed`])
/// are penalized; transient infrastructure failures keep their NaN
/// `learn_cost` so the source drops them instead of mis-training the
/// surrogate. [`CrashPenaltyMw::naive`] penalizes *every* non-finite cost
/// — the anti-pattern the tutorial warns about, kept as the E30 baseline.
pub struct CrashPenaltyMw {
    penalty: f64,
    penalize_transient: bool,
}

impl CrashPenaltyMw {
    /// Penalty value reported to the learner for crashed trials.
    pub fn new(penalty: f64) -> Self {
        CrashPenaltyMw {
            penalty,
            penalize_transient: false,
        }
    }

    /// The naive variant: every non-finite cost — config crash, transient
    /// failure, timed-out hang — is fed to the learner as `penalty`.
    pub fn naive(penalty: f64) -> Self {
        CrashPenaltyMw {
            penalty,
            penalize_transient: true,
        }
    }
}

impl Middleware for CrashPenaltyMw {
    fn name(&self) -> &str {
        "crash-penalty"
    }

    fn on_outcome(&mut self, outcome: &mut TrialOutcome) {
        if !outcome.cost.is_finite()
            && (self.penalize_transient || outcome.status == TrialStatus::Crashed)
        {
            outcome.learn_cost = self.penalty;
        }
    }
}

/// Machine-assignment middleware for noise experiments (TUNA-style):
/// spreads trials across a fleet of `n_machines`, either round-robin or
/// uniformly at random from the suggestion stream.
pub struct MachineAssignMw {
    n_machines: usize,
    round_robin: bool,
    next: usize,
}

impl MachineAssignMw {
    /// Round-robin assignment over `n_machines`.
    pub fn round_robin(n_machines: usize) -> Self {
        assert!(n_machines >= 1, "need at least one machine");
        MachineAssignMw {
            n_machines,
            round_robin: true,
            next: 0,
        }
    }

    /// Uniform random assignment over `n_machines`.
    pub fn random(n_machines: usize) -> Self {
        assert!(n_machines >= 1, "need at least one machine");
        MachineAssignMw {
            n_machines,
            round_robin: false,
            next: 0,
        }
    }
}

impl Middleware for MachineAssignMw {
    fn name(&self) -> &str {
        "machine-assign"
    }

    fn before_dispatch(&mut self, req: &mut TrialRequest, rng: &mut dyn RngCore) {
        if req.machine_id.is_some() {
            return; // the source pinned it explicitly
        }
        let m = if self.round_robin {
            let m = self.next % self.n_machines;
            self.next += 1;
            m
        } else {
            rng.gen_range(0..self.n_machines)
        };
        req.machine_id = Some(m);
    }
}

/// Budgeted retries for transient infrastructure failures (MLOS/TUNA
/// practice): a trial lost to a [`FailureKind::Transient`] machine death
/// or an outage window is re-measured up to `max_retries` times, charging
/// an exponential virtual-clock backoff between attempts. Deterministic
/// config crashes, hangs and stragglers are never retried — crashes go to
/// [`CrashPenaltyMw`], hangs to [`TimeoutMw`].
pub struct RetryMw {
    max_retries: u32,
    base_backoff_s: f64,
}

impl RetryMw {
    /// Up to `max_retries` re-measurements, waiting
    /// `base_backoff_s * 2^attempt` virtual seconds before each.
    pub fn new(max_retries: u32, base_backoff_s: f64) -> Self {
        RetryMw {
            max_retries,
            base_backoff_s: base_backoff_s.max(0.0),
        }
    }
}

impl Middleware for RetryMw {
    fn name(&self) -> &str {
        "retry"
    }

    fn retry_after(&mut self, m: &Measurement, attempt: u32) -> Option<f64> {
        let transient = matches!(
            m.fault,
            Some(FailureKind::Transient) | Some(FailureKind::Outage)
        );
        if transient && attempt < self.max_retries {
            Some(self.base_backoff_s * f64::powi(2.0, attempt as i32))
        } else {
            None
        }
    }
}

/// Wall-clock budget per trial: a hang (or pathologically slow attempt)
/// is cut at `budget_s` and surfaced as an aborted, censored measurement
/// instead of stalling the campaign forever. When the objective is elapsed
/// time the censored cost is exact (`budget_s`); otherwise the cost is
/// unknown at the cut and reported NaN so the source drops it.
pub struct TimeoutMw {
    budget_s: f64,
}

impl TimeoutMw {
    /// Kill any attempt that exceeds `budget_s` virtual seconds.
    pub fn new(budget_s: f64) -> Self {
        assert!(budget_s > 0.0, "timeout budget must be positive");
        TimeoutMw { budget_s }
    }
}

impl Middleware for TimeoutMw {
    fn name(&self) -> &str {
        "timeout"
    }

    fn after_measure(&mut self, m: &mut Measurement, cost_is_elapsed: bool) {
        if m.elapsed_s > self.budget_s {
            m.saved_s += m.elapsed_s - self.budget_s;
            m.elapsed_s = self.budget_s;
            m.aborted = true;
            m.cost = if cost_is_elapsed {
                self.budget_s
            } else {
                f64::NAN
            };
        }
    }
}

/// Per-machine health tracking (HUNTER-style): an EWMA of the
/// fault/straggler rate per `CloudNoise` machine id. A machine whose EWMA
/// crosses `threshold` is quarantined — [`MachineAssignMw`] assignments
/// are re-routed to the next healthy machine — for `cooldown` outcomes,
/// then released on probation (its EWMA is reset just under the threshold,
/// so one more failure re-trips it).
pub struct QuarantineMw {
    n_machines: usize,
    alpha: f64,
    threshold: f64,
    cooldown: usize,
    ewma: Vec<f64>,
    down: Vec<Option<usize>>,
    events: Vec<TrialEvent>,
}

impl QuarantineMw {
    /// Tracks `n_machines` with an EWMA smoothing of `alpha`, quarantining
    /// above `threshold` for `cooldown` completed outcomes.
    pub fn new(n_machines: usize, alpha: f64, threshold: f64, cooldown: usize) -> Self {
        assert!(n_machines >= 1, "need at least one machine");
        assert!(
            (0.0..=1.0).contains(&alpha) && (0.0..=1.0).contains(&threshold),
            "alpha and threshold must lie in [0, 1]"
        );
        QuarantineMw {
            n_machines,
            alpha,
            threshold,
            cooldown: cooldown.max(1),
            ewma: vec![0.0; n_machines],
            down: vec![None; n_machines],
            events: Vec::new(),
        }
    }

    /// Defaults tuned for the E30 fleet: alpha 0.3, threshold 0.5,
    /// cooldown 8 outcomes.
    pub fn with_defaults(n_machines: usize) -> Self {
        QuarantineMw::new(n_machines, 0.3, 0.5, 8)
    }
}

impl Middleware for QuarantineMw {
    fn name(&self) -> &str {
        "quarantine"
    }

    fn before_dispatch(&mut self, req: &mut TrialRequest, _rng: &mut dyn RngCore) {
        let Some(m) = req.machine_id else { return };
        if m >= self.n_machines || self.down[m].is_none() {
            return;
        }
        // Deterministic re-route: scan forward for the next healthy machine.
        for step in 1..self.n_machines {
            let cand = (m + step) % self.n_machines;
            if self.down[cand].is_none() {
                req.machine_id = Some(cand);
                return;
            }
        }
        // Every machine is down; leave the pin — better a sick machine
        // than no progress.
    }

    fn after_measure(&mut self, m: &mut Measurement, _cost_is_elapsed: bool) {
        let Some(id) = m.machine_id else { return };
        if id >= self.n_machines {
            return;
        }
        // Hard infrastructure failures count fully, degraded-but-complete
        // measurements half. A config crash says nothing about the
        // *machine*, so it scores like a clean run.
        let x = match m.fault {
            Some(f) if f.is_transient() => 1.0,
            Some(FailureKind::Straggler) | Some(FailureKind::Corruption) => 0.5,
            _ => 0.0,
        };
        self.ewma[id] = (1.0 - self.alpha) * self.ewma[id] + self.alpha * x;
        if self.ewma[id] > self.threshold && self.down[id].is_none() {
            self.down[id] = Some(self.cooldown);
            self.events.push(TrialEvent::Quarantined { machine_id: id });
        }
    }

    fn on_outcome(&mut self, _outcome: &mut TrialOutcome) {
        for id in 0..self.n_machines {
            if let Some(left) = self.down[id] {
                if left <= 1 {
                    self.down[id] = None;
                    // Probation: one more failure re-trips immediately.
                    self.ewma[id] = self.threshold * 0.9;
                    self.events.push(TrialEvent::Released { machine_id: id });
                } else {
                    self.down[id] = Some(left - 1);
                }
            }
        }
    }

    fn take_events(&mut self) -> Vec<TrialEvent> {
        std::mem::take(&mut self.events)
    }
}
