//! Multi-fidelity optimization via successive halving (tutorial slides
//! 65-66; also the inner loop of TUNA's config screening).
//!
//! Cheap low-fidelity trials (TPC-H SF-1, 1-minute TPC-C) screen many
//! configurations; only the promising fraction graduates to the expensive
//! full-fidelity benchmark. Knowledge transfers imperfectly — a config
//! that wins in-memory may not win I/O-bound — which is exactly why the
//! *final* ranking always comes from the top fidelity.

use crate::executor::{Campaign, RungSource, SchedulePolicy};
use crate::Target;
use autotune_sim::Workload;
use autotune_space::Config;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One rung of the fidelity ladder.
#[derive(Debug, Clone)]
pub struct FidelityLevel {
    /// Label for reports (e.g. "SF-1").
    pub label: String,
    /// The workload evaluated at this rung.
    pub workload: Workload,
}

/// Successive-halving configuration.
#[derive(Debug, Clone)]
pub struct SuccessiveHalvingConfig {
    /// Configurations entering the bottom rung.
    pub initial_configs: usize,
    /// Fraction retained per rung (e.g. 3 keeps the top third).
    pub eta: usize,
}

impl Default for SuccessiveHalvingConfig {
    fn default() -> Self {
        SuccessiveHalvingConfig {
            initial_configs: 27,
            eta: 3,
        }
    }
}

/// Result of a successive-halving run.
#[derive(Debug, Clone)]
pub struct HalvingOutcome {
    /// The winner at the top fidelity.
    pub best_config: Config,
    /// Its top-fidelity cost.
    pub best_cost: f64,
    /// Total benchmark seconds consumed.
    pub total_elapsed_s: f64,
    /// Survivors per rung (diagnostics).
    pub rung_sizes: Vec<usize>,
}

/// Successive-halving multi-fidelity search.
#[derive(Debug)]
pub struct SuccessiveHalving {
    config: SuccessiveHalvingConfig,
    levels: Vec<FidelityLevel>,
}

impl SuccessiveHalving {
    /// Creates a search over a fidelity ladder (cheapest first).
    pub fn new(levels: Vec<FidelityLevel>, config: SuccessiveHalvingConfig) -> Self {
        assert!(!levels.is_empty(), "need at least one fidelity level");
        assert!(config.eta >= 2, "eta must be at least 2");
        // A bracket entering with a single config (Hyperband's most
        // conservative bracket) is legitimate: it just evaluates straight
        // through the ladder.
        assert!(config.initial_configs >= 1, "need at least one config");
        SuccessiveHalving { config, levels }
    }

    /// Runs the bracket against `target` (whose own workload is ignored in
    /// favour of each rung's) on a single execution slot.
    pub fn run(&self, target: &Target, seed: u64) -> HalvingOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<Config> = (0..self.config.initial_configs)
            .map(|_| target.space().sample(&mut rng))
            .collect();
        let mut source = RungSource::new(&self.levels, self.config.eta, pool);
        let metrics = Campaign::over(
            target,
            Box::new(&mut source),
            SchedulePolicy::Rungs { k: 1 },
            seed,
        )
        .with_event_log(false) // one-shot campaign, never snapshotted
        .run();
        let (best_config, best_cost) = source
            .final_scores()
            .first()
            .cloned()
            .expect("top rung evaluated at least one config"); // lint: allow(D5) top rung retains at least one config
        HalvingOutcome {
            best_config,
            best_cost,
            total_elapsed_s: metrics.machine_seconds(),
            rung_sizes: source.rung_sizes().to_vec(),
        }
    }

    /// Total trials the bracket will execute (for budget comparisons).
    pub fn total_trials(&self) -> usize {
        let mut n = self.config.initial_configs;
        let mut total = 0;
        for rung in 0..self.levels.len() {
            total += n;
            if rung + 1 < self.levels.len() {
                n = (n / self.config.eta).max(1);
            }
        }
        total
    }
}

/// Hyperband (Li et al. 2018): several successive-halving brackets with
/// different aggressiveness, hedging the unknown fidelity-transfer quality.
///
/// An aggressive bracket (many configs, heavy pruning at low fidelity)
/// wins when low-fidelity scores rank configurations faithfully; a
/// conservative bracket (few configs, mostly high fidelity) wins when they
/// do not (slide 66's "is the knowledge gained transferable?"). Hyperband
/// runs both and keeps the best.
#[derive(Debug)]
pub struct Hyperband {
    levels: Vec<FidelityLevel>,
    eta: usize,
}

impl Hyperband {
    /// Creates a Hyperband search over a fidelity ladder (cheapest first).
    pub fn new(levels: Vec<FidelityLevel>, eta: usize) -> Self {
        assert!(!levels.is_empty(), "need at least one fidelity level");
        assert!(eta >= 2, "eta must be at least 2");
        Hyperband { levels, eta }
    }

    /// The brackets this ladder supports: bracket `s` starts with
    /// `eta^s` configs at rung `len-1-s` of the ladder (so the most
    /// aggressive bracket enters at the cheapest fidelity).
    fn brackets(&self) -> Vec<SuccessiveHalving> {
        let max_s = self.levels.len() - 1;
        (0..=max_s)
            .rev()
            .map(|s| {
                let entry_level = max_s - s;
                SuccessiveHalving::new(
                    self.levels[entry_level..].to_vec(),
                    SuccessiveHalvingConfig {
                        initial_configs: self.eta.pow(s as u32).max(1),
                        eta: self.eta,
                    },
                )
            })
            .collect()
    }

    /// Runs every bracket and returns the best outcome overall plus the
    /// total benchmark time across brackets.
    pub fn run(&self, target: &Target, seed: u64) -> HalvingOutcome {
        let mut best: Option<HalvingOutcome> = None;
        let mut total_elapsed = 0.0;
        let mut rung_sizes = Vec::new();
        for (i, bracket) in self.brackets().into_iter().enumerate() {
            let outcome = bracket.run(target, seed.wrapping_add(i as u64));
            total_elapsed += outcome.total_elapsed_s;
            rung_sizes.extend(outcome.rung_sizes.iter().copied());
            if best
                .as_ref()
                .is_none_or(|b| outcome.best_cost < b.best_cost)
            {
                best = Some(outcome);
            }
        }
        let mut best = best.expect("at least one bracket ran"); // lint: allow(D5) brackets() yields at least one bracket
        best.total_elapsed_s = total_elapsed;
        best.rung_sizes = rung_sizes;
        best
    }

    /// Total trials across all brackets.
    pub fn total_trials(&self) -> usize {
        self.brackets().iter().map(|b| b.total_trials()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use autotune_sim::{DbmsSim, Environment};

    fn tpch_ladder() -> Vec<FidelityLevel> {
        vec![
            FidelityLevel {
                label: "SF-1".into(),
                workload: Workload::tpch(1.0),
            },
            FidelityLevel {
                label: "SF-4".into(),
                workload: Workload::tpch(4.0),
            },
            FidelityLevel {
                label: "SF-10".into(),
                workload: Workload::tpch(10.0),
            },
        ]
    }

    fn dbms_target() -> Target {
        Target::simulated(
            Box::new(DbmsSim::new()),
            Workload::tpch(10.0),
            Environment::medium(),
            Objective::MinimizeElapsed,
        )
    }

    #[test]
    fn bracket_shrinks_by_eta() {
        let sh = SuccessiveHalving::new(tpch_ladder(), SuccessiveHalvingConfig::default());
        let outcome = sh.run(&dbms_target(), 1);
        assert_eq!(outcome.rung_sizes, vec![27, 9, 3]);
        assert!(outcome.best_cost.is_finite());
        assert_eq!(sh.total_trials(), 39);
    }

    #[test]
    fn cheaper_than_full_fidelity_everywhere() {
        // 39 multi-fidelity trials must cost far less than 39 SF-10 trials.
        let target = dbms_target();
        let sh = SuccessiveHalving::new(tpch_ladder(), SuccessiveHalvingConfig::default());
        let outcome = sh.run(&target, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let full_cost: f64 = (0..sh.total_trials())
            .map(|_| {
                let cfg = target.space().sample(&mut rng);
                target.evaluate(&cfg, &mut rng).result.elapsed_s
            })
            .sum();
        assert!(
            outcome.total_elapsed_s < 0.5 * full_cost,
            "halving {} vs flat {} seconds",
            outcome.total_elapsed_s,
            full_cost
        );
    }

    #[test]
    fn finds_config_close_to_exhaustive_winner() {
        let target = dbms_target();
        let sh = SuccessiveHalving::new(tpch_ladder(), SuccessiveHalvingConfig::default());
        let outcome = sh.run(&target, 4);
        // Exhaustive at full fidelity with the same trial *count*.
        let mut rng = StdRng::seed_from_u64(4);
        let mut best_flat = f64::INFINITY;
        for _ in 0..sh.total_trials() {
            let cfg = target.space().sample(&mut rng);
            let c = target.evaluate(&cfg, &mut rng).cost;
            if c.is_finite() {
                best_flat = best_flat.min(c);
            }
        }
        assert!(
            outcome.best_cost < best_flat * 1.5,
            "halving {} vs flat {}; transfer should roughly hold",
            outcome.best_cost,
            best_flat
        );
    }

    #[test]
    fn crashed_configs_never_promoted() {
        // Small VM: big buffer pools crash. Survivors at the top rung must
        // all be finite.
        let target = Target::simulated(
            Box::new(DbmsSim::new()),
            Workload::tpch(10.0),
            Environment::small(),
            Objective::MinimizeElapsed,
        );
        let sh = SuccessiveHalving::new(tpch_ladder(), SuccessiveHalvingConfig::default());
        let outcome = sh.run(&target, 5);
        assert!(outcome.best_cost.is_finite());
    }

    #[test]
    fn hyperband_brackets_span_aggressiveness() {
        let hb = Hyperband::new(tpch_ladder(), 3);
        let brackets = hb.brackets();
        assert_eq!(brackets.len(), 3);
        // Bracket 0: 9 configs entering at SF-1 (3 rungs).
        // Bracket 1: 3 configs entering at SF-4 (2 rungs).
        // Bracket 2: 1 config straight at SF-10.
        assert_eq!(brackets[0].total_trials(), 9 + 3 + 1);
        assert_eq!(brackets[1].total_trials(), 3 + 1);
        assert_eq!(brackets[2].total_trials(), 1);
        assert_eq!(hb.total_trials(), 13 + 4 + 1);
    }

    #[test]
    fn hyperband_finds_finite_best_and_accounts_time() {
        let hb = Hyperband::new(tpch_ladder(), 3);
        let target = dbms_target();
        let outcome = hb.run(&target, 7);
        assert!(outcome.best_cost.is_finite());
        assert!(outcome.total_elapsed_s > 0.0);
        assert!(target.space().validate_config(&outcome.best_config).is_ok());
        // All brackets' rungs are reported.
        assert_eq!(outcome.rung_sizes.len(), 3 + 2 + 1);
    }

    #[test]
    fn hyperband_never_loses_to_its_worst_bracket() {
        let hb = Hyperband::new(tpch_ladder(), 3);
        let target = dbms_target();
        let outcome = hb.run(&target, 9);
        for (i, bracket) in hb.brackets().into_iter().enumerate() {
            let b = bracket.run(&target, 9u64.wrapping_add(i as u64));
            assert!(
                outcome.best_cost <= b.best_cost + 1e-9,
                "hyperband {} must be <= bracket {i}'s {}",
                outcome.best_cost,
                b.best_cost
            );
        }
    }

    #[test]
    #[should_panic(expected = "eta")]
    fn eta_must_be_at_least_two() {
        let _ = SuccessiveHalving::new(
            tpch_ladder(),
            SuccessiveHalvingConfig {
                initial_configs: 9,
                eta: 1,
            },
        );
    }
}
