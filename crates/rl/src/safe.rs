//! Safe online exploration with guardrails (tutorial slide 84).
//!
//! Production tuning must not regress the system it is tuning. The
//! [`SafeTuner`] wraps any candidate-producing policy with:
//!
//! * a **baseline** (the incumbent configuration's running cost);
//! * a **guardrail**: a candidate whose measured cost exceeds
//!   `baseline * (1 + TOLERANCE)` is immediately reverted and, after
//!   repeated violations, blacklisted (OnlineTune/LOCAT-style safety);
//! * **trust region** promotion: a candidate only becomes the new
//!   incumbent after `PROMOTE_AFTER` consecutive measurements at or below
//!   the baseline.
//!
//! Cost convention: **minimize** (it guards system metrics, which arrive
//! as latency/cost).

use autotune_linalg::stats::RunningStats;
use std::collections::BTreeMap;

/// Allowed relative regression over the baseline before a candidate is
/// rejected (0.1 = 10 %).
const TOLERANCE: f64 = 0.1;
/// Consecutive in-budget measurements required to promote a candidate to
/// incumbent.
const PROMOTE_AFTER: usize = 3;
/// Guardrail violations before a candidate is blacklisted outright.
const BLACKLIST_AFTER: usize = 2;

/// What the tuner decided after a measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafeDecision {
    /// Keep evaluating the candidate (within budget, not yet promoted).
    Continue,
    /// Candidate promoted to incumbent.
    Promoted,
    /// Candidate breached the guardrail; revert to the incumbent.
    Reverted,
    /// Candidate breached the guardrail too often; never try it again.
    Blacklisted,
}

/// Guardrailed candidate evaluation around a trusted incumbent.
///
/// Generic over how candidates are produced — callers pass candidate keys
/// (rendered configurations) plus measured costs; the wrapped search policy
/// lives outside.
#[derive(Debug, Clone, Default)]
pub struct SafeTuner {
    baseline: RunningStats,
    /// Current candidate under evaluation: key and its in-budget streak.
    candidate: Option<(String, usize)>,
    /// Guardrail violations per candidate key.
    violations: BTreeMap<String, usize>,
    blacklist: std::collections::BTreeSet<String>,
}

impl SafeTuner {
    /// Creates a tuner; feed baseline measurements before exploring.
    pub fn new() -> Self {
        SafeTuner::default()
    }

    /// Records a measurement of the *incumbent* configuration.
    pub fn observe_baseline(&mut self, cost: f64) {
        if cost.is_finite() {
            self.baseline.push(cost);
        }
    }

    /// Running mean cost of the incumbent.
    pub fn baseline_cost(&self) -> f64 {
        self.baseline.mean()
    }

    /// The guardrail threshold candidates must stay under.
    pub fn guardrail(&self) -> f64 {
        self.baseline_cost() * (1.0 + TOLERANCE)
    }

    /// Asks whether `key` may be evaluated at all. Admission registers the
    /// key as the active candidate; only one candidate is live at a time.
    /// (Without a baseline there is nothing to protect, but the
    /// one-at-a-time discipline still applies so measurements attribute
    /// cleanly.)
    pub fn admit(&mut self, key: &str) -> bool {
        if self.blacklist.contains(key) {
            return false;
        }
        match &self.candidate {
            Some((current, _)) => current == key,
            None => {
                self.candidate = Some((key.to_string(), 0));
                true
            }
        }
    }

    /// Records a measurement of the current candidate and returns the
    /// guardrail decision.
    ///
    /// # Panics
    /// Panics if no candidate was admitted (`admit` not called / refused).
    pub fn observe_candidate(&mut self, key: &str, cost: f64) -> SafeDecision {
        let (current, streak) = self
            .candidate
            .clone()
            .expect("observe_candidate without an admitted candidate"); // lint: allow(D5) documented panic: admit() must precede
        assert_eq!(current, key, "observation for a non-admitted candidate");
        let breach = !cost.is_finite() || (self.baseline.count() > 0 && cost > self.guardrail());
        if breach {
            let v = self.violations.entry(key.to_string()).or_insert(0);
            *v += 1;
            self.candidate = None;
            if *v >= BLACKLIST_AFTER {
                self.blacklist.insert(key.to_string());
                return SafeDecision::Blacklisted;
            }
            return SafeDecision::Reverted;
        }
        let streak = streak + 1;
        if streak >= PROMOTE_AFTER {
            // Candidate becomes the incumbent; its measurements seed the
            // new baseline.
            self.baseline = RunningStats::new();
            self.baseline.push(cost);
            self.candidate = None;
            self.violations.remove(key);
            SafeDecision::Promoted
        } else {
            self.candidate = Some((current, streak));
            SafeDecision::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_tuner() -> SafeTuner {
        let mut t = SafeTuner::new();
        for _ in 0..5 {
            t.observe_baseline(10.0);
        }
        t
    }

    #[test]
    fn guardrail_is_tolerance_above_baseline() {
        let t = seeded_tuner();
        assert!((t.baseline_cost() - 10.0).abs() < 1e-12);
        assert!((t.guardrail() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn good_candidate_promotes_after_streak() {
        let mut t = seeded_tuner();
        assert!(t.admit("cfg_a"));
        assert_eq!(t.observe_candidate("cfg_a", 8.0), SafeDecision::Continue);
        assert!(t.admit("cfg_a"));
        assert_eq!(t.observe_candidate("cfg_a", 8.5), SafeDecision::Continue);
        assert!(t.admit("cfg_a"));
        assert_eq!(t.observe_candidate("cfg_a", 8.2), SafeDecision::Promoted);
        // Baseline moved to the candidate's level.
        assert!(t.baseline_cost() < 9.0);
    }

    #[test]
    fn regressing_candidate_reverted_then_blacklisted() {
        let mut t = seeded_tuner();
        assert!(t.admit("bad"));
        assert_eq!(t.observe_candidate("bad", 20.0), SafeDecision::Reverted);
        assert!(t.admit("bad")); // second chance
        assert_eq!(t.observe_candidate("bad", 25.0), SafeDecision::Blacklisted);
        assert!(t.blacklist.contains("bad"));
        assert!(!t.admit("bad"));
    }

    #[test]
    fn only_one_candidate_at_a_time() {
        let mut t = seeded_tuner();
        assert!(t.admit("a"));
        assert!(!t.admit("b"), "second candidate admitted concurrently");
        assert!(t.admit("a"), "the active candidate must stay admitted");
    }

    #[test]
    fn crash_counts_as_breach() {
        let mut t = seeded_tuner();
        assert!(t.admit("crashy"));
        assert_eq!(
            t.observe_candidate("crashy", f64::NAN),
            SafeDecision::Reverted
        );
    }

    #[test]
    fn no_baseline_still_enforces_one_candidate() {
        let mut t = SafeTuner::new();
        assert!(t.admit("anything"));
        assert!(!t.admit("anything_else"), "one candidate at a time");
        // Without a baseline a finite cost cannot breach.
        assert_eq!(
            t.observe_candidate("anything", 123.0),
            SafeDecision::Continue
        );
    }

    #[test]
    fn streak_resets_between_candidates() {
        let mut t = seeded_tuner();
        assert!(t.admit("a"));
        assert_eq!(t.observe_candidate("a", 9.0), SafeDecision::Continue);
        assert_eq!(t.observe_candidate("a", 30.0), SafeDecision::Reverted);
        // New candidate starts a fresh streak.
        assert!(t.admit("b"));
        assert_eq!(t.observe_candidate("b", 9.0), SafeDecision::Continue);
    }
}
