//! Cross-cutting trial machinery as a composable middleware chain.
//!
//! Each [`Middleware`] sees every trial at three points: before dispatch
//! (annotate the request — machine pinning, guardrails), after measurement
//! (transform cost/elapsed — early-abort censoring), and at completion
//! (rewrite what the learner is told — crash penalties).

use super::event::{Measurement, TrialEvent, TrialOutcome, TrialRequest};
use crate::TrialStatus;
use autotune_sim::FailureKind;
use rand::RngCore;

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

/// Early-abort censoring (tutorial slide 69): for elapsed-time
/// benchmarks (TPC-H style: run the queries, report the wall-clock), a
/// trial already slower than `ratio x` the incumbent is cut at that
/// threshold, reporting the censored cost and charging only the
/// time-to-threshold. We know its score is bad without paying for the
/// rest of the run.
///
/// The censoring is exact for [`crate::Objective::MinimizeElapsed`]
/// (cost *is* seconds); for other objectives the policy is conservative
/// and never aborts. Aborts and saved seconds are counted by the
/// campaign's [`crate::MetricsSnapshot`] (`n_aborted`, `saved_s`).
pub struct EarlyAbortMw {
    ratio: f64,
    /// Best uncensored cost seen so far.
    best_cost: Option<f64>,
}

impl EarlyAbortMw {
    /// Cuts trials at `ratio x` the incumbent (`ratio > 1`, e.g. 1.5).
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 1.0, "abort ratio must exceed 1");
        EarlyAbortMw {
            ratio,
            best_cost: None,
        }
    }
}

impl Middleware for EarlyAbortMw {
    fn name(&self) -> &str {
        "early-abort"
    }

    /// The simulator knows a trial's full cost and elapsed time up
    /// front; a real harness would stream progress and kill the process
    /// at the threshold instead.
    fn after_measure(&mut self, m: &mut Measurement, cost_is_elapsed: bool) {
        if !m.cost.is_finite() {
            return; // crashes are handled elsewhere; charge what was spent
        }
        match self.best_cost {
            Some(best) if cost_is_elapsed && m.cost > best * self.ratio => {
                let threshold = best * self.ratio;
                // Time-to-threshold: the run is killed when the clock hits
                // the censored cost.
                let charged = m.elapsed_s * (threshold / m.cost).min(1.0);
                m.saved_s += m.elapsed_s - charged;
                m.aborted = true;
                m.cost = threshold;
                m.elapsed_s = charged;
            }
            best => self.best_cost = Some(best.map_or(m.cost, |b| b.min(m.cost))),
        }
    }
}

/// The cost [`CrashPenaltyMw`] reports to the learner for a crash.
const CRASH_PENALTY: f64 = 1e9;

/// Crash-penalty middleware (tutorial slide 67): the stored trial keeps
/// its NaN cost, but the learner is told a large finite penalty (1e9) so
/// its running statistics stay well-defined (bandits, RL).
///
/// By default only deterministic config crashes ([`TrialStatus::Crashed`])
/// are penalized; transient infrastructure failures keep their NaN
/// `learn_cost` so the source drops them instead of mis-training the
/// surrogate. [`CrashPenaltyMw::naive`] penalizes *every* non-finite cost
/// — the anti-pattern the tutorial warns about, kept as the E30 baseline.
#[derive(Default)]
pub struct CrashPenaltyMw {
    penalize_transient: bool,
}

impl CrashPenaltyMw {
    /// Penalizes config crashes only.
    pub fn new() -> Self {
        CrashPenaltyMw::default()
    }

    /// The naive variant: every non-finite cost — config crash, transient
    /// failure, timed-out hang — is fed to the learner as the penalty.
    pub fn naive() -> Self {
        CrashPenaltyMw {
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
            outcome.learn_cost = CRASH_PENALTY;
        }
    }
}

/// Machine-assignment middleware for noise experiments (TUNA-style):
/// spreads trials round-robin across a fleet of `n_machines`.
pub struct MachineAssignMw {
    n_machines: usize,
    next: usize,
}

impl MachineAssignMw {
    /// Round-robin assignment over `n_machines`.
    pub fn round_robin(n_machines: usize) -> Self {
        assert!(n_machines >= 1, "need at least one machine");
        MachineAssignMw {
            n_machines,
            next: 0,
        }
    }
}

impl Middleware for MachineAssignMw {
    fn name(&self) -> &str {
        "machine-assign"
    }

    fn before_dispatch(&mut self, req: &mut TrialRequest, _rng: &mut dyn RngCore) {
        if req.machine_id.is_some() {
            return; // the source pinned it explicitly
        }
        req.machine_id = Some(self.next % self.n_machines);
        self.next += 1;
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

/// [`QuarantineMw`]'s EWMA smoothing of the per-machine fault rate.
const QUARANTINE_ALPHA: f64 = 0.3;
/// The EWMA above which [`QuarantineMw`] quarantines a machine.
const QUARANTINE_THRESHOLD: f64 = 0.5;
/// Completed outcomes a quarantined machine sits out.
const QUARANTINE_COOLDOWN: usize = 8;
const _: () = assert!(
    0.0 <= QUARANTINE_ALPHA
        && QUARANTINE_ALPHA <= 1.0
        && 0.0 <= QUARANTINE_THRESHOLD
        && QUARANTINE_THRESHOLD <= 1.0
        && QUARANTINE_COOLDOWN >= 1
);

/// Per-machine health tracking (HUNTER-style): an EWMA (smoothing 0.3)
/// of the fault/straggler rate per `CloudNoise` machine id. A machine
/// whose EWMA crosses 0.5 is quarantined — [`MachineAssignMw`]
/// assignments are re-routed to the next healthy machine — for 8
/// completed outcomes, then released on probation (its EWMA is reset just
/// under the threshold, so one more failure re-trips it). The constants
/// are tuned for the E30 fleet.
pub struct QuarantineMw {
    n_machines: usize,
    ewma: Vec<f64>,
    down: Vec<Option<usize>>,
    events: Vec<TrialEvent>,
}

impl QuarantineMw {
    /// Tracks `n_machines` machines.
    pub fn new(n_machines: usize) -> Self {
        assert!(n_machines >= 1, "need at least one machine");
        QuarantineMw {
            n_machines,
            ewma: vec![0.0; n_machines],
            down: vec![None; n_machines],
            events: Vec::new(),
        }
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
        self.ewma[id] = (1.0 - QUARANTINE_ALPHA) * self.ewma[id] + QUARANTINE_ALPHA * x;
        if self.ewma[id] > QUARANTINE_THRESHOLD && self.down[id].is_none() {
            self.down[id] = Some(QUARANTINE_COOLDOWN);
            self.events.push(TrialEvent::Quarantined { machine_id: id });
        }
    }

    fn on_outcome(&mut self, _outcome: &mut TrialOutcome) {
        for id in 0..self.n_machines {
            if let Some(left) = self.down[id] {
                if left <= 1 {
                    self.down[id] = None;
                    // Probation: one more failure re-trips immediately.
                    self.ewma[id] = QUARANTINE_THRESHOLD * 0.9;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one trial whose full cost and elapsed time are known through
    /// `mw`, returning the measurement as the middleware left it.
    fn measure(
        mw: &mut EarlyAbortMw,
        cost: f64,
        elapsed_s: f64,
        cost_is_elapsed: bool,
    ) -> Measurement {
        let mut m = Measurement {
            cost,
            elapsed_s,
            machine_id: None,
            telemetry: Vec::new(),
            aborted: false,
            saved_s: 0.0,
            fault: None,
            clock: 0,
        };
        mw.after_measure(&mut m, cost_is_elapsed);
        m
    }

    #[test]
    fn first_trial_sets_incumbent() {
        let mut ea = EarlyAbortMw::new(1.5);
        assert_eq!(ea.best_cost, None);
        let m = measure(&mut ea, 100.0, 100.0, true);
        assert_eq!((m.cost, m.elapsed_s, m.aborted), (100.0, 100.0, false));
        assert_eq!(ea.best_cost, Some(100.0));
    }

    #[test]
    fn slow_trial_censored_and_time_saved() {
        let mut ea = EarlyAbortMw::new(1.5);
        measure(&mut ea, 100.0, 100.0, true);
        let m = measure(&mut ea, 400.0, 400.0, true);
        assert!(m.aborted);
        assert_eq!(m.cost, 150.0);
        assert!((m.elapsed_s - 150.0).abs() < 1e-9);
        assert!((m.saved_s - 250.0).abs() < 1e-9);
    }

    #[test]
    fn aborted_trials_do_not_move_the_incumbent() {
        let mut ea = EarlyAbortMw::new(1.5);
        measure(&mut ea, 100.0, 100.0, true);
        assert!(measure(&mut ea, 500.0, 500.0, true).aborted);
        assert_eq!(ea.best_cost, Some(100.0));
        // A genuinely better trial still lowers the threshold.
        measure(&mut ea, 60.0, 60.0, true);
        assert_eq!(ea.best_cost, Some(60.0));
        assert_eq!(measure(&mut ea, 100.0, 100.0, true).cost, 90.0);
    }

    #[test]
    fn non_elapsed_objectives_never_abort() {
        let mut ea = EarlyAbortMw::new(1.2);
        measure(&mut ea, 10.0, 60.0, false);
        let m = measure(&mut ea, 1e9, 60.0, false);
        assert!(!m.aborted);
        assert_eq!(m.cost, 1e9);
        assert_eq!(m.elapsed_s, 60.0);
        assert_eq!(m.saved_s, 0.0);
    }

    #[test]
    fn crash_passthrough() {
        let mut ea = EarlyAbortMw::new(1.5);
        measure(&mut ea, 100.0, 100.0, true);
        let m = measure(&mut ea, f64::NAN, 5.0, true);
        assert!(m.cost.is_nan());
        assert_eq!(m.elapsed_s, 5.0);
        assert!(!m.aborted);
        assert_eq!(ea.best_cost, Some(100.0));
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn ratio_must_exceed_one() {
        let _ = EarlyAbortMw::new(0.9);
    }
}
