//! Early abort of hopeless trials (tutorial slide 69).
//!
//! For elapsed-time benchmarks (TPC-H style: run the queries, report the
//! wall-clock), a trial that is already slower than `ratio x` the best
//! time can be killed immediately: we know its score is bad without paying
//! for the rest of the run. The policy reports the *censored* cost and how
//! much benchmark time was saved.

use serde::{Deserialize, Serialize};

/// Early-abort policy for elapsed-time objectives.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EarlyAbort {
    /// A trial is cut once it reaches `ratio * best_cost` (ratio > 1).
    pub ratio: f64,
    best_cost: Option<f64>,
    total_saved_s: f64,
    n_aborted: usize,
}

impl EarlyAbort {
    /// Creates a policy with the given abort ratio (e.g. 1.5).
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 1.0, "abort ratio must exceed 1");
        EarlyAbort {
            ratio,
            best_cost: None,
            total_saved_s: 0.0,
            n_aborted: 0,
        }
    }

    /// The abort threshold, if an incumbent exists.
    pub fn threshold(&self) -> Option<f64> {
        self.best_cost.map(|b| b * self.ratio)
    }

    /// Number of trials aborted so far.
    pub fn n_aborted(&self) -> usize {
        self.n_aborted
    }

    /// Processes a trial whose *full* cost and elapsed time are known
    /// (the simulator computes them analytically; a real harness would
    /// stream progress and kill the process instead).
    ///
    /// Returns `(reported_cost, charged_elapsed_s, aborted)`: when the
    /// trial would have been aborted, the reported cost is censored at the
    /// threshold and only the time-to-threshold is charged.
    ///
    /// This mapping is exact for [`crate::Objective::MinimizeElapsed`]
    /// (cost *is* seconds); for other objectives the policy is
    /// conservative and never aborts.
    pub fn process(
        &mut self,
        full_cost: f64,
        full_elapsed_s: f64,
        cost_is_elapsed: bool,
    ) -> (f64, f64, bool) {
        if !full_cost.is_finite() {
            // Crashes are handled elsewhere; charge what was spent.
            return (full_cost, full_elapsed_s, false);
        }
        let decision = match (self.best_cost, cost_is_elapsed) {
            (Some(best), true) if full_cost > best * self.ratio => {
                let threshold = best * self.ratio;
                // Time-to-threshold: the run is killed when the clock hits
                // the censored cost.
                let charged = full_elapsed_s * (threshold / full_cost).min(1.0);
                self.total_saved_s += full_elapsed_s - charged;
                self.n_aborted += 1;
                (threshold, charged, true)
            }
            _ => (full_cost, full_elapsed_s, false),
        };
        if !decision.2 && full_cost.is_finite() {
            self.best_cost = Some(match self.best_cost {
                Some(b) => b.min(full_cost),
                None => full_cost,
            });
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_trial_sets_incumbent() {
        let mut ea = EarlyAbort::new(1.5);
        assert_eq!(ea.threshold(), None);
        let (cost, elapsed, aborted) = ea.process(100.0, 100.0, true);
        assert_eq!((cost, elapsed, aborted), (100.0, 100.0, false));
        assert_eq!(ea.threshold(), Some(150.0));
    }

    #[test]
    fn slow_trial_censored_and_time_saved() {
        let mut ea = EarlyAbort::new(1.5);
        ea.process(100.0, 100.0, true);
        let (cost, elapsed, aborted) = ea.process(400.0, 400.0, true);
        assert!(aborted);
        assert_eq!(cost, 150.0);
        assert!((elapsed - 150.0).abs() < 1e-9);
        assert!((ea.total_saved_s - 250.0).abs() < 1e-9);
        assert_eq!(ea.n_aborted(), 1);
    }

    #[test]
    fn aborted_trials_do_not_move_the_incumbent() {
        let mut ea = EarlyAbort::new(1.5);
        ea.process(100.0, 100.0, true);
        ea.process(500.0, 500.0, true); // aborted
        assert_eq!(ea.threshold(), Some(150.0));
        // A genuinely better trial still lowers the threshold.
        ea.process(60.0, 60.0, true);
        assert_eq!(ea.threshold(), Some(90.0));
    }

    #[test]
    fn non_elapsed_objectives_never_abort() {
        let mut ea = EarlyAbort::new(1.2);
        ea.process(10.0, 60.0, false);
        let (cost, elapsed, aborted) = ea.process(1e9, 60.0, false);
        assert!(!aborted);
        assert_eq!(cost, 1e9);
        assert_eq!(elapsed, 60.0);
    }

    #[test]
    fn crash_passthrough() {
        let mut ea = EarlyAbort::new(1.5);
        ea.process(100.0, 100.0, true);
        let (cost, _, aborted) = ea.process(f64::NAN, 5.0, true);
        assert!(cost.is_nan());
        assert!(!aborted);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn ratio_must_exceed_one() {
        let _ = EarlyAbort::new(0.9);
    }
}
