//! Tuning objectives (tutorial slide 9: "What are we autotuning for?").
//!
//! An [`Objective`] maps a benchmark's [`autotune_sim::TrialResult`] to the
//! scalar **cost** (minimization convention) the optimizer consumes.
//! Maximization metrics (throughput) are negated; crashed trials map to
//! NaN, which every optimizer in the workspace treats as "worst possible,
//! remember to avoid".

use autotune_sim::TrialResult;
use serde::{Deserialize, Serialize};

/// What the tuner optimizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize mean latency (ms).
    MinimizeLatencyAvg,
    /// Minimize 95th-percentile latency (ms) — the Redis running example.
    MinimizeLatencyP95,
    /// Minimize 99th-percentile latency (ms).
    MinimizeLatencyP99,
    /// Maximize throughput (ops/s), scored as its negation.
    MaximizeThroughput,
    /// Minimize dollar cost of the trial.
    MinimizeCost,
    /// Minimize benchmark wall-clock (elapsed-time benchmarks like TPC-H).
    MinimizeElapsed,
    /// Weighted sum of normalized latency and cost (a pragmatic
    /// scalarization when a full Pareto study is overkill).
    LatencyCostWeighted {
        /// Weight on mean latency (ms).
        latency_weight: f64,
        /// Weight on cost units.
        cost_weight: f64,
    },
}

impl Objective {
    /// Scalar cost of a trial result (NaN for crashes).
    pub fn cost(&self, r: &TrialResult) -> f64 {
        if r.crashed {
            return f64::NAN;
        }
        match self {
            Objective::MinimizeLatencyAvg => r.latency_avg_ms,
            Objective::MinimizeLatencyP95 => r.latency_p95_ms,
            Objective::MinimizeLatencyP99 => r.latency_p99_ms,
            Objective::MaximizeThroughput => -r.throughput_ops,
            Objective::MinimizeCost => r.cost_units,
            Objective::MinimizeElapsed => r.elapsed_s,
            Objective::LatencyCostWeighted {
                latency_weight,
                cost_weight,
            } => latency_weight * r.latency_avg_ms + cost_weight * r.cost_units,
        }
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            Objective::MinimizeLatencyAvg => "latency_avg_ms".into(),
            Objective::MinimizeLatencyP95 => "latency_p95_ms".into(),
            Objective::MinimizeLatencyP99 => "latency_p99_ms".into(),
            Objective::MaximizeThroughput => "-throughput_ops".into(),
            Objective::MinimizeCost => "cost_units".into(),
            Objective::MinimizeElapsed => "elapsed_s".into(),
            Objective::LatencyCostWeighted {
                latency_weight,
                cost_weight,
            } => format!("{latency_weight}*latency + {cost_weight}*cost"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> TrialResult {
        TrialResult {
            latency_avg_ms: 5.0,
            latency_p95_ms: 12.0,
            latency_p99_ms: 30.0,
            throughput_ops: 1000.0,
            cost_units: 0.02,
            elapsed_s: 60.0,
            crashed: false,
            failure: None,
            telemetry: Default::default(),
            profile: Vec::new(),
        }
    }

    #[test]
    fn each_objective_reads_its_metric() {
        let r = result();
        assert_eq!(Objective::MinimizeLatencyAvg.cost(&r), 5.0);
        assert_eq!(Objective::MinimizeLatencyP95.cost(&r), 12.0);
        assert_eq!(Objective::MinimizeLatencyP99.cost(&r), 30.0);
        assert_eq!(Objective::MaximizeThroughput.cost(&r), -1000.0);
        assert_eq!(Objective::MinimizeCost.cost(&r), 0.02);
        assert_eq!(Objective::MinimizeElapsed.cost(&r), 60.0);
    }

    #[test]
    fn weighted_combination() {
        let obj = Objective::LatencyCostWeighted {
            latency_weight: 1.0,
            cost_weight: 100.0,
        };
        assert!((obj.cost(&result()) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn crash_is_nan_for_every_objective() {
        let crash = TrialResult::crash(5.0);
        for obj in [
            Objective::MinimizeLatencyAvg,
            Objective::MaximizeThroughput,
            Objective::MinimizeCost,
            Objective::MinimizeElapsed,
        ] {
            assert!(
                obj.cost(&crash).is_nan(),
                "{} not NaN on crash",
                obj.label()
            );
        }
    }
}
