//! Property-based tests over the whole optimizer family: every optimizer
//! must satisfy the ask/tell contract on arbitrary spaces and objectives.

use autotune_optimizer::{
    BayesianOptimizer, CmaEs, GaConfig, GeneticAlgorithm, GridSearch, Optimizer, ParticleSwarm,
    RandomSearch, SimulatedAnnealing,
};
use autotune_space::{Param, Space};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A randomized mixed-type space (1 float + optional int/categorical).
fn random_space(n_extra: usize) -> Space {
    let mut b = Space::builder().add(Param::float("x", -1.0, 1.0));
    if n_extra >= 1 {
        b = b.add(Param::int("n", 1, 9));
    }
    if n_extra >= 2 {
        b = b.add(Param::categorical("c", &["a", "b", "c"]));
    }
    b.build().expect("valid space")
}

fn all_optimizers(space: &Space) -> Vec<Box<dyn Optimizer>> {
    vec![
        Box::new(RandomSearch::new(space.clone())),
        Box::new(GridSearch::with_budget(space.clone(), 16)),
        Box::new(SimulatedAnnealing::new(space.clone(), 1.0, 0.95)),
        Box::new(BayesianOptimizer::gp(space.clone())),
        Box::new(BayesianOptimizer::smac(space.clone())),
        Box::new(CmaEs::new(space.clone())),
        Box::new(ParticleSwarm::new(space.clone())),
        Box::new(GeneticAlgorithm::new(space.clone(), GaConfig::default())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariants for every optimizer on every space shape:
    /// * suggestions always validate against the space,
    /// * best() equals the minimum finite observed value,
    /// * n_observed counts every observe call,
    /// * crashed (NaN) observations never become best.
    #[test]
    fn ask_tell_contract(seed in 0u64..500, n_extra in 0usize..3, crash_every in 2usize..9) {
        let space = random_space(n_extra);
        for mut opt in all_optimizers(&space) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut min_finite = f64::INFINITY;
            let budget = 20;
            for i in 0..budget {
                let cfg = opt.suggest(&mut rng);
                prop_assert!(
                    space.validate_config(&cfg).is_ok(),
                    "{}: invalid suggestion {cfg}",
                    opt.name()
                );
                let v = if i % crash_every == 0 {
                    f64::NAN
                } else {
                    let x = cfg.get_f64("x").expect("x always present");
                    x * x + i as f64 * 0.01
                };
                opt.observe(&cfg, v);
                if v.is_finite() {
                    min_finite = min_finite.min(v);
                }
            }
            prop_assert_eq!(opt.n_observed(), budget, "{} miscounts", opt.name());
            if min_finite.is_finite() {
                let best = opt.best().expect("finite observations exist");
                prop_assert!(best.value.is_finite(), "{}: NaN best", opt.name());
                prop_assert!(
                    (best.value - min_finite).abs() < 1e-12,
                    "{}: best {} != min observed {}",
                    opt.name(),
                    best.value,
                    min_finite
                );
            }
        }
    }

    /// Batch suggestion always returns exactly k valid configs.
    #[test]
    fn batch_contract(seed in 0u64..200, k in 1usize..6) {
        let space = random_space(2);
        let mut opt = BayesianOptimizer::gp(space.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let c = opt.suggest(&mut rng);
            let x = c.get_f64("x").expect("present");
            opt.observe(&c, x * x);
        }
        let batch = opt.suggest_batch(k, &mut rng);
        prop_assert_eq!(batch.len(), k);
        for c in &batch {
            prop_assert!(space.validate_config(c).is_ok());
        }
        // Resolve liars so the optimizer stays consistent.
        for c in &batch {
            let x = c.get_f64("x").expect("present");
            opt.observe(c, x * x);
        }
    }

    /// Pareto-front invariants under arbitrary insert sequences: no member
    /// dominates another; every rejected point is dominated by or equal to
    /// some member.
    #[test]
    fn pareto_front_invariants(points in proptest::collection::vec((0.0..10.0f64, 0.0..10.0f64), 1..60)) {
        use autotune_optimizer::moo::{dominates, MultiObservation, ParetoFront};
        use autotune_space::Config;
        let mut front = ParetoFront::new();
        for &(a, b) in &points {
            let obs = MultiObservation {
                config: Config::new(),
                objectives: vec![a, b],
            };
            let accepted = front.insert(obs.clone());
            if !accepted {
                prop_assert!(
                    front.members().iter().any(|m| dominates(&m.objectives, &obs.objectives)
                        || m.objectives == obs.objectives),
                    "rejected point not dominated"
                );
            }
        }
        let members = front.members();
        for i in 0..members.len() {
            for j in 0..members.len() {
                if i != j {
                    prop_assert!(
                        !dominates(&members[i].objectives, &members[j].objectives),
                        "front contains dominated member"
                    );
                }
            }
        }
        // Hypervolume is monotone under any reference expansion.
        let hv1 = front.hypervolume_2d((10.0, 10.0));
        let hv2 = front.hypervolume_2d((12.0, 12.0));
        prop_assert!(hv2 >= hv1 - 1e-9);
    }

    /// Successive halving conserves its trial arithmetic for any (n, eta).
    #[test]
    fn successive_halving_budget(initial in 4usize..40, eta in 2usize..5, levels in 1usize..4) {
        use autotune::{FidelityLevel, SuccessiveHalving, SuccessiveHalvingConfig};
        use autotune_sim::Workload;
        prop_assume!(initial >= eta);
        let ladder: Vec<FidelityLevel> = (0..levels)
            .map(|i| FidelityLevel {
                label: format!("L{i}"),
                workload: Workload::tpch(1.0 + i as f64),
            })
            .collect();
        let sh = SuccessiveHalving::new(ladder, SuccessiveHalvingConfig {
            initial_configs: initial,
            eta,
        });
        // total = sum of rung sizes with floor-division shrinkage.
        let mut expect = 0;
        let mut n = initial;
        for i in 0..levels {
            expect += n;
            if i + 1 < levels {
                n = (n / eta).max(1);
            }
        }
        prop_assert_eq!(sh.total_trials(), expect);
    }
}
