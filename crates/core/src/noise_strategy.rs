//! Noise-mitigation strategies (tutorial slides 70-71).
//!
//! Cloud measurements are noisy; the tutorial surveys four responses, all
//! implemented here as *measurement policies* that turn one logical trial
//! into one score:
//!
//! * [`NoiseStrategy::Single`] — take the raw measurement (the naïve
//!   baseline);
//! * [`NoiseStrategy::Repeat`] — run N times, report the aggregate
//!   ("costly" — the cost shows up in elapsed-time accounting);
//! * [`NoiseStrategy::Duet`] — run the candidate *and* the incumbent
//!   baseline side by side on the same machine at the same time and score
//!   the normalized relative difference, cancelling machine and temporal
//!   noise (Duet benchmarking, ICPE 2020);
//! * [`NoiseStrategy::Tuna`] — TUNA (EuroSys 2025): replicate across
//!   distinct machines, drop statistical outliers, report a trimmed mean —
//!   sampling noise across the fleet instead of being ambushed by it.

use crate::target::Target;
use autotune_space::Config;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// How a logical trial is measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NoiseStrategy {
    /// One raw measurement.
    Single,
    /// `n` measurements aggregated by mean (or median).
    Repeat {
        /// Number of repetitions.
        n: usize,
        /// Use the median instead of the mean.
        median: bool,
    },
    /// Candidate and baseline measured on the same machine; score is
    /// `baseline_cost * candidate/paired_baseline` — i.e. the relative
    /// difference re-anchored to the baseline's nominal cost.
    Duet,
    /// Replicate across `replicas` distinct machines, drop measurements
    /// more than `outlier_sigmas` from the replica mean, average the rest.
    Tuna {
        /// Distinct machines to sample.
        replicas: usize,
        /// Outlier rejection threshold in standard deviations.
        outlier_sigmas: f64,
    },
}

impl NoiseStrategy {
    /// Measures `config` on `target`, returning `(cost, total_elapsed_s)`.
    ///
    /// `baseline` is the incumbent configuration used by the duet
    /// strategy; other strategies ignore it.
    pub fn measure(
        &self,
        target: &Target,
        config: &Config,
        baseline: &Config,
        rng: &mut dyn RngCore,
    ) -> (f64, f64) {
        let mut rng = rng;
        match self {
            NoiseStrategy::Single => {
                let e = target.evaluate(config, &mut rng);
                (e.cost, e.result.elapsed_s)
            }
            NoiseStrategy::Repeat { n, median } => {
                let mut costs = Vec::with_capacity(*n);
                let mut elapsed = 0.0;
                for _ in 0..(*n).max(1) {
                    let e = target.evaluate(config, &mut rng);
                    elapsed += e.result.elapsed_s;
                    if e.cost.is_finite() {
                        costs.push(e.cost);
                    }
                }
                if costs.is_empty() {
                    return (f64::NAN, elapsed);
                }
                let agg = if *median {
                    autotune_linalg::stats::median(&costs)
                } else {
                    autotune_linalg::stats::mean(&costs)
                };
                (agg, elapsed)
            }
            NoiseStrategy::Duet => {
                // Same machine, same time slot: the shared noise factor
                // (machine speed, drift, spikes) hits both runs and
                // divides out of the ratio.
                let (cand, base) = target.evaluate_pair(config, baseline, &mut rng);
                let elapsed = cand.result.elapsed_s + base.result.elapsed_s;
                if !cand.cost.is_finite() || !base.cost.is_finite() || base.cost == 0.0 {
                    return (f64::NAN, elapsed);
                }
                (cand.cost / base.cost, elapsed)
            }
            NoiseStrategy::Tuna {
                replicas,
                outlier_sigmas,
            } => {
                let n = (*replicas).max(1);
                let mut costs = Vec::with_capacity(n);
                let mut elapsed = 0.0;
                let fleet_size = target.noise().map(|f| f.n_machines());
                for i in 0..n {
                    let e = match fleet_size {
                        // Stride over the fleet so replicas land on
                        // distinct machines.
                        Some(sz) => {
                            let m = (rng.gen_range(0..sz) + i * 7) % sz;
                            target.evaluate_on_machine(config, m, &mut rng)
                        }
                        None => target.evaluate(config, &mut rng),
                    };
                    elapsed += e.result.elapsed_s;
                    if e.cost.is_finite() {
                        costs.push(e.cost);
                    }
                }
                if costs.is_empty() {
                    return (f64::NAN, elapsed);
                }
                // Robust outlier rejection anchored at the median with a
                // MAD scale: a mean/stddev anchor is itself dragged by the
                // very spikes it is supposed to reject.
                let med = autotune_linalg::stats::median(&costs);
                let abs_dev: Vec<f64> = costs.iter().map(|c| (c - med).abs()).collect();
                let mad = autotune_linalg::stats::median(&abs_dev);
                let scale = 1.4826 * mad; // MAD -> sigma for Gaussians
                let kept: Vec<f64> = if scale > 0.0 {
                    costs
                        .iter()
                        .cloned()
                        .filter(|c| ((c - med) / scale).abs() <= *outlier_sigmas)
                        .collect()
                } else {
                    costs.clone()
                };
                if kept.is_empty() {
                    (med, elapsed)
                } else {
                    (autotune_linalg::stats::mean(&kept), elapsed)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use autotune_sim::{CloudNoise, Environment, NoiseConfig, RedisSim, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noisy_target(machine_sigma: f64, seed: u64) -> Target {
        Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(10_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        )
        .with_noise(CloudNoise::new_fleet(
            16,
            NoiseConfig {
                machine_sigma,
                drift_amplitude: 0.05,
                spike_probability: 0.02,
                ..Default::default()
            },
            seed,
        ))
    }

    /// Standard deviation of repeated measurements of the same config.
    fn measurement_sd(strategy: &NoiseStrategy, target: &Target, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = target.space().default_config();
        let baseline = target.space().default_config();
        let scores: Vec<f64> = (0..20)
            .map(|_| strategy.measure(target, &cfg, &baseline, &mut rng).0)
            .filter(|c| c.is_finite())
            .collect();
        autotune_linalg::stats::std_dev(&scores) / autotune_linalg::stats::mean(&scores).abs()
    }

    #[test]
    fn repeat_reduces_variance_over_single() {
        let t = noisy_target(0.3, 1);
        let single = measurement_sd(&NoiseStrategy::Single, &t, 2);
        let repeat = measurement_sd(
            &NoiseStrategy::Repeat {
                n: 5,
                median: false,
            },
            &t,
            1,
        );
        assert!(
            repeat < single * 0.7,
            "repeat CV {repeat} should beat single CV {single}"
        );
    }

    #[test]
    fn duet_cancels_machine_noise() {
        let t = noisy_target(0.4, 4);
        let single = measurement_sd(&NoiseStrategy::Single, &t, 5);
        let duet = measurement_sd(&NoiseStrategy::Duet, &t, 6);
        assert!(
            duet < single * 0.5,
            "duet CV {duet} should cancel machine noise vs single CV {single}"
        );
    }

    #[test]
    fn tuna_is_robust_to_spikes() {
        // Heavy-tailed noise: frequent large spikes are exactly what the
        // trimmed TUNA aggregate defends against and a plain mean cannot.
        let t = Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(10_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        )
        .with_noise(CloudNoise::new_fleet(
            16,
            NoiseConfig {
                machine_sigma: 0.05,
                drift_amplitude: 0.02,
                spike_probability: 0.25,
                spike_scale: 2.0,
            },
            7,
        ));
        let naive = measurement_sd(
            &NoiseStrategy::Repeat {
                n: 5,
                median: false,
            },
            &t,
            8,
        );
        let tuna = measurement_sd(
            &NoiseStrategy::Tuna {
                replicas: 5,
                outlier_sigmas: 1.5,
            },
            &t,
            9,
        );
        assert!(
            tuna < naive,
            "TUNA CV {tuna} should beat naive repeat CV {naive} under heavy spikes"
        );
    }

    #[test]
    fn duet_score_is_relative() {
        // On a noise-free target, duet(config, config) == 1.0 up to
        // measurement jitter.
        let t = Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(10_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        );
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = t.space().default_config();
        let (score, elapsed) = NoiseStrategy::Duet.measure(&t, &cfg, &cfg, &mut rng);
        assert!((score - 1.0).abs() < 0.3, "self-duet score {score}");
        assert!(elapsed > 0.0);
    }

    #[test]
    fn crash_propagates_as_nan() {
        use autotune_space::{Param, Space};
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let t = Target::black_box(space, Objective::MinimizeLatencyAvg, |_| f64::NAN);
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = t.space().default_config();
        for strat in [
            NoiseStrategy::Single,
            NoiseStrategy::Repeat {
                n: 3,
                median: false,
            },
            NoiseStrategy::Duet,
        ] {
            let (score, _) = strat.measure(&t, &cfg, &cfg, &mut rng);
            assert!(score.is_nan(), "{strat:?} should propagate crash");
        }
    }
}
