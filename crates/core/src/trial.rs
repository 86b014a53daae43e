//! Trial records and history storage.
//!
//! Every benchmark run becomes a [`Trial`], and [`TrialStorage`] is the
//! framework's experiment database: it answers "what have we tried, what
//! did it score, what is the incumbent", keeps every trial as recorded
//! (repeats included), exports to JSON for knowledge transfer between
//! campaigns, and produces the best-so-far convergence curves every
//! experiment report plots.

use autotune_space::Config;
use serde::{Deserialize, Serialize};

/// Serializes NaN as JSON `null` (and back), since JSON has no NaN.
/// Shared with the executor's event types ([`crate::executor::Measurement`],
/// [`crate::executor::TrialOutcome`]), whose cost fields are NaN for
/// crashed trials.
pub(crate) mod nan_as_null {
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_nan() {
            s.serialize_none()
        } else {
            s.serialize_some(v)
        }
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        Ok(Option::<f64>::deserialize(d)?.unwrap_or(f64::NAN))
    }
}

/// Lifecycle of a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialStatus {
    /// Completed normally.
    Complete,
    /// The configuration crashed the system under test.
    Crashed,
    /// Cut short by censoring middleware (early abort or a wall-clock
    /// timeout); cost is right-censored.
    Aborted,
    /// Lost to infrastructure (machine blip, outage, unrecovered hang)
    /// with every retry exhausted. Carries no information about the
    /// configuration, so it never reaches the learner as a crash.
    TransientFailure,
}

/// One recorded benchmark run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trial {
    /// Sequence number within the campaign.
    pub id: u64,
    /// The evaluated configuration.
    pub config: Config,
    /// Scalar cost under the campaign objective (NaN when crashed).
    ///
    /// JSON has no NaN, so crashes serialize as `null` and round-trip
    /// back to NaN.
    #[serde(with = "nan_as_null")]
    pub cost: f64,
    /// Benchmark wall-clock consumed, seconds.
    pub elapsed_s: f64,
    /// Fidelity the trial ran at (1.0 = full fidelity).
    pub fidelity: f64,
    /// Machine the trial landed on, when the noise model assigns one.
    pub machine_id: Option<usize>,
    /// Outcome.
    pub status: TrialStatus,
    /// Retry attempts consumed before this outcome (0 = first try).
    #[serde(default)]
    pub retries: u32,
}

/// In-memory experiment history with JSON import/export.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrialStorage {
    trials: Vec<Trial>,
}

impl TrialStorage {
    /// Empty storage.
    pub fn new() -> Self {
        TrialStorage::default()
    }

    /// Appends a trial, assigning it the next id. Returns the id.
    pub fn record(&mut self, mut trial: Trial) -> u64 {
        trial.id = self.trials.len() as u64;
        let id = trial.id;
        self.trials.push(trial);
        id
    }

    /// All trials in execution order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// True when no trials are stored.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// The completed trial with the lowest cost.
    pub fn best(&self) -> Option<&Trial> {
        self.trials
            .iter()
            .filter(|t| t.status == TrialStatus::Complete && t.cost.is_finite())
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
    }

    /// Best-so-far cost after each trial (the convergence curve). Trials
    /// before the first success contribute `NaN`.
    pub fn convergence_curve(&self) -> Vec<f64> {
        let mut best = f64::NAN;
        self.trials
            .iter()
            .map(|t| {
                // `best` starts as NaN, so compare via explicit
                // is_nan rather than a NaN-exploiting negation.
                if t.status == TrialStatus::Complete
                    && t.cost.is_finite()
                    && (best.is_nan() || t.cost < best)
                {
                    best = t.cost;
                }
                best
            })
            .collect()
    }

    /// Trials-to-target: the first trial index whose best-so-far cost is
    /// `<= target`, if ever reached.
    pub fn trials_to_reach(&self, target: f64) -> Option<usize> {
        self.convergence_curve()
            .iter()
            .position(|&c| c.is_finite() && c <= target)
            .map(|i| i + 1)
    }

    /// Total benchmark seconds consumed (the *real* cost of a campaign).
    pub fn total_elapsed_s(&self) -> f64 {
        self.trials.iter().map(|t| t.elapsed_s).sum()
    }

    /// Number of crashed trials.
    pub fn n_crashed(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.status == TrialStatus::Crashed)
            .count()
    }

    /// Number of trials lost to infrastructure after exhausting retries.
    pub fn n_transient_failures(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.status == TrialStatus::TransientFailure)
            .count()
    }

    /// Total retry attempts consumed across all trials.
    pub fn n_retried(&self) -> usize {
        self.trials.iter().map(|t| t.retries as usize).sum()
    }

    /// Exports the history as JSON (the transfer format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trials serialize") // lint: allow(D5) serializing plain data cannot fail
    }

    /// Imports a history previously exported with [`TrialStorage::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Builder-style constructor for completed trials.
impl Trial {
    /// A completed trial at full fidelity.
    pub fn complete(config: Config, cost: f64, elapsed_s: f64) -> Self {
        Trial {
            id: 0,
            config,
            cost,
            elapsed_s,
            fidelity: 1.0,
            machine_id: None,
            status: TrialStatus::Complete,
            retries: 0,
        }
    }

    /// A trial cut short by the early-abort policy; `cost` is the
    /// censored (threshold) value.
    pub fn aborted(config: Config, cost: f64, elapsed_s: f64) -> Self {
        Trial {
            id: 0,
            config,
            cost,
            elapsed_s,
            fidelity: 1.0,
            machine_id: None,
            status: TrialStatus::Aborted,
            retries: 0,
        }
    }

    /// A crashed trial.
    pub fn crashed(config: Config, elapsed_s: f64) -> Self {
        Trial {
            id: 0,
            config,
            cost: f64::NAN,
            elapsed_s,
            fidelity: 1.0,
            machine_id: None,
            status: TrialStatus::Crashed,
            retries: 0,
        }
    }

    /// A trial lost to infrastructure with retries exhausted; the cost is
    /// unknown (NaN) and the elapsed time is what the failed attempts
    /// (plus backoff) burned.
    pub fn transient_failure(config: Config, elapsed_s: f64) -> Self {
        Trial {
            id: 0,
            config,
            cost: f64::NAN,
            elapsed_s,
            fidelity: 1.0,
            machine_id: None,
            status: TrialStatus::TransientFailure,
            retries: 0,
        }
    }

    /// Builder-style fidelity annotation.
    pub fn at_fidelity(mut self, fidelity: f64) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Builder-style machine annotation.
    pub fn on_machine(mut self, machine_id: usize) -> Self {
        self.machine_id = Some(machine_id);
        self
    }

    /// Builder-style retry count annotation.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(x: f64) -> Config {
        Config::new().with("x", x)
    }

    #[test]
    fn record_assigns_sequential_ids() {
        let mut s = TrialStorage::new();
        assert_eq!(s.record(Trial::complete(cfg(1.0), 5.0, 10.0)), 0);
        assert_eq!(s.record(Trial::complete(cfg(2.0), 3.0, 10.0)), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn best_ignores_crashes() {
        let mut s = TrialStorage::new();
        s.record(Trial::complete(cfg(1.0), 5.0, 10.0));
        s.record(Trial::crashed(cfg(2.0), 2.0));
        s.record(Trial::complete(cfg(3.0), 3.0, 10.0));
        assert_eq!(s.best().unwrap().cost, 3.0);
        assert_eq!(s.n_crashed(), 1);
    }

    #[test]
    fn convergence_curve_monotone() {
        let mut s = TrialStorage::new();
        for &c in &[5.0, 7.0, 3.0, 4.0, 1.0] {
            s.record(Trial::complete(cfg(c), c, 1.0));
        }
        assert_eq!(s.convergence_curve(), vec![5.0, 5.0, 3.0, 3.0, 1.0]);
        assert_eq!(s.trials_to_reach(3.0), Some(3));
        assert_eq!(s.trials_to_reach(0.5), None);
    }

    #[test]
    fn curve_starts_nan_before_first_success() {
        let mut s = TrialStorage::new();
        s.record(Trial::crashed(cfg(1.0), 1.0));
        s.record(Trial::complete(cfg(2.0), 4.0, 1.0));
        let curve = s.convergence_curve();
        assert!(curve[0].is_nan());
        assert_eq!(curve[1], 4.0);
    }

    #[test]
    fn elapsed_accounting() {
        let mut s = TrialStorage::new();
        s.record(Trial::complete(cfg(1.0), 1.0, 30.0));
        s.record(Trial::crashed(cfg(2.0), 5.0));
        assert_eq!(s.total_elapsed_s(), 35.0);
    }

    #[test]
    fn json_roundtrip() {
        let mut s = TrialStorage::new();
        s.record(
            Trial::complete(cfg(1.0), 2.0, 3.0)
                .at_fidelity(0.5)
                .on_machine(7),
        );
        let json = s.to_json();
        let back = TrialStorage::from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.trials()[0].fidelity, 0.5);
        assert_eq!(back.trials()[0].machine_id, Some(7));
    }

    #[test]
    fn nan_cost_never_best() {
        let mut s = TrialStorage::new();
        s.record(Trial {
            id: 0,
            config: cfg(1.0),
            cost: f64::NAN,
            elapsed_s: 1.0,
            fidelity: 1.0,
            machine_id: None,
            status: TrialStatus::Complete,
            retries: 0,
        });
        assert!(s.best().is_none());
    }

    #[test]
    fn transient_failures_are_counted_separately_from_crashes() {
        let mut s = TrialStorage::new();
        s.record(Trial::crashed(cfg(1.0), 1.0));
        s.record(Trial::transient_failure(cfg(2.0), 4.0).with_retries(3));
        s.record(Trial::complete(cfg(3.0), 1.5, 1.0).with_retries(1));
        assert_eq!(s.n_crashed(), 1);
        assert_eq!(s.n_transient_failures(), 1);
        assert_eq!(s.n_retried(), 4);
        // A transient failure is never the best and never bends the curve.
        assert_eq!(s.best().unwrap().cost, 1.5);
    }

    #[test]
    fn retries_survive_json_roundtrip() {
        let mut s = TrialStorage::new();
        s.record(Trial::transient_failure(cfg(1.0), 2.0).with_retries(2));
        let back = TrialStorage::from_json(&s.to_json()).unwrap();
        assert_eq!(back.trials()[0].retries, 2);
        assert_eq!(back.trials()[0].status, TrialStatus::TransientFailure);
        assert!(back.trials()[0].cost.is_nan());
    }
}
