//! Knowledge transfer between tuning campaigns (tutorial slide 67).
//!
//! The policy table from the slide:
//!
//! | Sample quality | Action |
//! |---|---|
//! | Good (low cost) | reuse from *similar* workloads, keep the score |
//! | Poor (mediocre) | keep exploring — could be good in the new context |
//! | Bad (crash) | reuse **everywhere**: a config that crashes the system probably always does; score it `N x worst` so the optimizer avoids the region |
//!
//! [`transfer_observations`] rewrites a donor history into observations a
//! fresh optimizer can be warm-started with, applying that policy.

use crate::{Trial, TrialStatus};
use autotune_optimizer::Observation;
use serde::{Deserialize, Serialize};

/// How donor trials map into the new campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferPolicy {
    /// Keep only the best `good_fraction` of completed donor trials
    /// (good samples transfer; mediocre ones mislead more than they help
    /// when the context differs).
    pub good_fraction: f64,
    /// Import crashes even when contexts differ (slide 67: "bad samples:
    /// reuse everywhere").
    pub always_transfer_crashes: bool,
}

impl Default for TransferPolicy {
    fn default() -> Self {
        TransferPolicy {
            good_fraction: 0.3,
            always_transfer_crashes: true,
        }
    }
}

/// Crash score multiplier: crashes import at
/// `CRASH_PENALTY x worst_donor_cost`.
const CRASH_PENALTY: f64 = 2.0;

/// Rewrites a donor trial history into warm-start observations.
///
/// `context_compatible` declares whether the donor's environment/workload
/// is similar enough for *good* scores to transfer (crashes transfer
/// regardless when the policy says so).
pub fn transfer_observations(
    donor: &[Trial],
    policy: &TransferPolicy,
    context_compatible: bool,
) -> Vec<Observation> {
    let mut completed: Vec<&Trial> = donor
        .iter()
        .filter(|t| t.status == TrialStatus::Complete && t.cost.is_finite())
        .collect();
    completed.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    let worst = completed.last().map_or(1.0, |t| t.cost);

    let mut out = Vec::new();
    if context_compatible {
        let keep =
            ((completed.len() as f64 * policy.good_fraction).ceil() as usize).min(completed.len());
        for t in &completed[..keep] {
            out.push(Observation {
                config: t.config.clone(),
                value: t.cost,
            });
        }
    }
    if context_compatible || policy.always_transfer_crashes {
        let crash_score = CRASH_PENALTY * worst.abs().max(1.0) + worst.max(0.0);
        for t in donor.iter().filter(|t| t.status == TrialStatus::Crashed) {
            out.push(Observation {
                config: t.config.clone(),
                value: crash_score,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_space::Config;

    fn history() -> Vec<Trial> {
        let mut trials = Vec::new();
        for (i, cost) in [5.0, 1.0, 9.0, 3.0].iter().enumerate() {
            trials.push(Trial::complete(
                Config::new().with("x", i as f64),
                *cost,
                10.0,
            ));
        }
        trials.push(Trial::crashed(Config::new().with("x", 99.0), 2.0));
        trials
    }

    #[test]
    fn compatible_context_keeps_best_fraction_and_crashes() {
        let obs = transfer_observations(&history(), &TransferPolicy::default(), true);
        // 30% of 4 completed = 2 best (costs 1, 3) + 1 crash.
        assert_eq!(obs.len(), 3);
        let values: Vec<f64> = obs.iter().map(|o| o.value).collect();
        assert!(values.contains(&1.0));
        assert!(values.contains(&3.0));
        // Crash scored beyond the worst observed cost.
        let crash = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            crash > 9.0,
            "crash score {crash} must exceed worst donor cost"
        );
    }

    #[test]
    fn incompatible_context_transfers_only_crashes() {
        let obs = transfer_observations(&history(), &TransferPolicy::default(), false);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].config.get_f64("x"), Some(99.0));
        assert!(obs[0].value > 9.0);
    }

    #[test]
    fn crash_transfer_can_be_disabled() {
        let policy = TransferPolicy {
            always_transfer_crashes: false,
            ..Default::default()
        };
        let obs = transfer_observations(&history(), &policy, false);
        assert!(obs.is_empty());
    }

    #[test]
    fn empty_donor_history_is_fine() {
        let obs = transfer_observations(&[], &TransferPolicy::default(), true);
        assert!(obs.is_empty());
    }

    #[test]
    fn warm_start_accelerates_bo_on_same_function() {
        use autotune_optimizer::{BayesianOptimizer, Optimizer};
        use autotune_space::{Param, Space};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let space = Space::builder()
            .add(Param::float("x", -3.0, 3.0))
            .add(Param::float("y", -3.0, 3.0))
            .build()
            .unwrap();
        let f = |c: &Config| {
            (c.get_f64("x").unwrap() - 1.0).powi(2) + (c.get_f64("y").unwrap() + 1.0).powi(2)
        };
        // Donor campaign.
        let mut donor_trials = Vec::new();
        {
            let mut opt = BayesianOptimizer::gp(space.clone());
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..25 {
                let cfg = opt.suggest(&mut rng);
                let v = f(&cfg);
                opt.observe(&cfg, v);
                donor_trials.push(Trial::complete(cfg, v, 1.0));
            }
        }
        let budget = 8;
        // Transfer the whole donor history: the surrogate needs contrast
        // (good AND bad regions) to exploit rather than explore.
        let policy = TransferPolicy {
            good_fraction: 1.0,
            ..Default::default()
        };
        let run = |warm: bool, seed: u64| {
            let mut opt = BayesianOptimizer::gp(space.clone());
            if warm {
                let obs = transfer_observations(&donor_trials, &policy, true);
                opt.warm_start(&obs);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut best = f64::INFINITY;
            for _ in 0..budget {
                let cfg = opt.suggest(&mut rng);
                let v = f(&cfg);
                opt.observe(&cfg, v);
                best = best.min(v);
            }
            best
        };
        // Averaged over seeds to tame noise.
        let cold: f64 = (0..4).map(|s| run(false, 50 + s)).sum::<f64>() / 4.0;
        let warm: f64 = (0..4).map(|s| run(true, 50 + s)).sum::<f64>() / 4.0;
        assert!(
            warm < cold,
            "warm start ({warm}) should beat cold start ({cold}) at a tiny budget"
        );
    }
}
