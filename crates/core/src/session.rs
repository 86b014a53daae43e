//! The tuning session: the sequential experiment loop of slide 33,
//! hardened with the systems machinery of slides 55-71.
//!
//! Since the campaign refactor this is a thin single-campaign adapter:
//! `run` assembles a [`Campaign`] with a [`SchedulePolicy::Sequential`]
//! policy, the session's noise strategy, and an early-abort middleware
//! borrowing the session's long-lived policy, drives it to exhaustion,
//! and folds the campaign's history and telemetry back into the
//! session's long-lived storage and metrics.

use crate::executor::{Campaign, EarlyAbortMw, OptimizerSource, SchedulePolicy};
use crate::telemetry::{MetricsSnapshot, Subscriber};
use crate::{EarlyAbort, NoiseStrategy, Target, TrialStorage};
use autotune_optimizer::Optimizer;
use std::sync::Arc;

/// Session-level options.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Measurement policy per logical trial.
    pub noise_strategy: NoiseStrategy,
    /// Early-abort ratio for elapsed-time objectives (None disables).
    pub early_abort_ratio: Option<f64>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            noise_strategy: NoiseStrategy::Single,
            early_abort_ratio: None,
        }
    }
}

/// Outcome of a tuning campaign.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// Best configuration found.
    pub best_config: autotune_space::Config,
    /// Its cost (minimization convention; see
    /// [`crate::Objective::display_value`] for the natural reading).
    pub best_cost: f64,
    /// Best-so-far cost after each logical trial.
    pub convergence: Vec<f64>,
    /// Total benchmark seconds consumed.
    pub total_elapsed_s: f64,
    /// Accounting across every campaign this session ran: crash, abort,
    /// transient and retry counts, seconds saved by early abort,
    /// quarantined machines, latency and overhead histograms.
    pub metrics: MetricsSnapshot,
}

/// A sequential tuning campaign binding a target and an optimizer.
pub struct TuningSession {
    target: Arc<Target>,
    optimizer: Box<dyn Optimizer>,
    storage: TrialStorage,
    config: SessionConfig,
    early_abort: Option<EarlyAbort>,
    metrics: MetricsSnapshot,
}

impl TuningSession {
    /// Creates a session.
    pub fn new(target: Target, optimizer: Box<dyn Optimizer>, config: SessionConfig) -> Self {
        let early_abort = config.early_abort_ratio.map(EarlyAbort::new);
        TuningSession {
            target: Arc::new(target),
            optimizer,
            storage: TrialStorage::new(),
            config,
            early_abort,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// The trial history.
    pub fn storage(&self) -> &TrialStorage {
        &self.storage
    }

    /// The target under tuning.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The optimizer (e.g. to export its observation history for
    /// transfer).
    pub fn optimizer(&self) -> &dyn Optimizer {
        self.optimizer.as_ref()
    }

    /// Runs `budget` logical trials through the executor and summarizes.
    /// Returns `None` when every trial crashed.
    pub fn run(&mut self, budget: usize, seed: u64) -> Option<SessionSummary> {
        self.run_observed(budget, seed, &mut [])
    }

    /// [`TuningSession::run`] with telemetry subscribers attached to the
    /// underlying executor. Subscribers are pure observers (virtual-clock
    /// timestamps, driver-thread delivery): attaching any combination
    /// leaves the campaign byte-identical with a plain `run`.
    pub fn run_observed(
        &mut self,
        budget: usize,
        seed: u64,
        subscribers: &mut [&mut dyn Subscriber],
    ) -> Option<SessionSummary> {
        {
            let mut campaign = Campaign::new(
                Arc::clone(&self.target),
                Box::new(OptimizerSource::new(self.optimizer.as_mut(), budget)),
                SchedulePolicy::Sequential,
                seed,
            )
            .with_noise_strategy(self.config.noise_strategy.clone())
            .with_event_log(false); // one-shot campaign, never snapshotted
            if let Some(ea) = self.early_abort.as_mut() {
                campaign = campaign.with_middleware(Box::new(EarlyAbortMw::over(ea)));
            }
            for sub in subscribers.iter_mut() {
                campaign = campaign.with_subscriber(Box::new(&mut **sub));
            }
            self.metrics.merge(&campaign.run());
            for trial in campaign.into_storage().into_trials() {
                self.storage.record(trial);
            }
        }
        self.summary()
    }

    /// Summary of everything run so far, or `None` when no trial has
    /// succeeded yet (e.g. every configuration crashed).
    pub fn summary(&self) -> Option<SessionSummary> {
        let best = self.storage.best()?;
        Some(SessionSummary {
            best_config: best.config.clone(),
            best_cost: best.cost,
            convergence: self.storage.convergence_curve(),
            total_elapsed_s: self.storage.total_elapsed_s(),
            metrics: self.metrics.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use autotune_optimizer::{BayesianOptimizer, RandomSearch};
    use autotune_sim::{DbmsSim, Environment, RedisSim, Workload};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn bo_session_tunes_redis_example() {
        // The tutorial's running example end to end: minimize Redis P95 by
        // tuning the scheduler knob.
        let target = Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(20_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        );
        let default_cfg = target.space().default_config();
        let mut probe_rng = StdRng::seed_from_u64(99);
        let default_cost: f64 = (0..5)
            .map(|_| target.evaluate(&default_cfg, &mut probe_rng).cost)
            .sum::<f64>()
            / 5.0;

        let opt = BayesianOptimizer::gp(target.space().clone());
        let mut session = TuningSession::new(target, Box::new(opt), SessionConfig::default());
        let summary = session.run(40, 7).expect("at least one successful trial");
        assert!(
            summary.best_cost < default_cost * 0.6,
            "tuned {} should cut >40% off default {default_cost}",
            summary.best_cost
        );
        // Convergence curve is monotone non-increasing once finite.
        let finite: Vec<f64> = summary
            .convergence
            .iter()
            .cloned()
            .filter(|c| c.is_finite())
            .collect();
        for w in finite.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn crashes_are_recorded_and_survived() {
        // DBMS with tight RAM: random search will hit the OOM region.
        let target = Target::simulated(
            Box::new(DbmsSim::new()),
            Workload::tpcc(2_000.0),
            Environment::small(),
            Objective::MinimizeLatencyAvg,
        );
        let opt = RandomSearch::new(target.space().clone());
        let mut session = TuningSession::new(target, Box::new(opt), SessionConfig::default());
        let summary = session.run(60, 11).expect("some trials survive");
        assert!(
            summary.metrics.n_crashed > 0,
            "expected some OOM crashes on a small VM"
        );
        assert!(summary.best_cost.is_finite());
    }

    #[test]
    fn all_crash_campaign_yields_none_not_panic() {
        // Regression: `summary()` used to panic when every trial crashed —
        // the Environment::small() OOM regime taken to its limit, modeled
        // here as a black-box target whose every configuration crashes.
        use autotune_space::{Param, Space};
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let target = Target::black_box(space, Objective::MinimizeLatencyAvg, |_| f64::NAN);
        let opt = RandomSearch::new(target.space().clone());
        let mut session = TuningSession::new(target, Box::new(opt), SessionConfig::default());
        assert!(session.run(10, 3).is_none());
        assert!(session.summary().is_none());
        assert_eq!(session.storage().n_crashed(), 10);
    }

    #[test]
    fn early_abort_saves_time_without_changing_winner() {
        let run = |abort: Option<f64>, seed: u64| {
            let target = crate::test_fixtures::spark_target();
            let opt = RandomSearch::new(target.space().clone());
            let mut session = TuningSession::new(
                target,
                Box::new(opt),
                SessionConfig {
                    early_abort_ratio: abort,
                    ..Default::default()
                },
            );
            session.run(40, seed).expect("successful trials")
        };
        let plain = run(None, 13);
        let abort = run(Some(1.3), 13);
        assert!(
            abort.metrics.n_aborted > 5,
            "expected aborted trials, got {}",
            abort.metrics.n_aborted
        );
        assert!(
            abort.total_elapsed_s < plain.total_elapsed_s * 0.9,
            "abort should save >10% time: {} vs {}",
            abort.total_elapsed_s,
            plain.total_elapsed_s
        );
        // Same seeds, same suggestions: the winner is identical.
        assert!((abort.best_cost - plain.best_cost).abs() < 1e-9);
    }

    #[test]
    fn repeat_strategy_charges_more_time() {
        let make = |strategy: NoiseStrategy| {
            let target = Target::simulated(
                Box::new(RedisSim::new()),
                Workload::kv_cache(10_000.0),
                Environment::medium(),
                Objective::MinimizeLatencyP95,
            );
            let opt = RandomSearch::new(target.space().clone());
            TuningSession::new(
                target,
                Box::new(opt),
                SessionConfig {
                    noise_strategy: strategy,
                    ..Default::default()
                },
            )
        };
        let single = make(NoiseStrategy::Single).run(10, 17).expect("trials");
        let repeat = make(NoiseStrategy::Repeat {
            n: 3,
            median: false,
        })
        .run(10, 17)
        .expect("trials");
        assert!(
            repeat.total_elapsed_s > 2.5 * single.total_elapsed_s,
            "3x repeats should cost ~3x time: {} vs {}",
            repeat.total_elapsed_s,
            single.total_elapsed_s
        );
    }
}
