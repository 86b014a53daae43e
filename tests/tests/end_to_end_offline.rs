//! Cross-crate integration: the full offline tuning pipeline
//! (space -> optimizer -> simulated target -> campaign -> storage).

use autotune::{Campaign, Objective, OptimizerSource, SchedulePolicy, Target, TrialStorage};
use autotune_optimizer::{
    BayesianOptimizer, CmaEs, GaConfig, GeneticAlgorithm, GridSearch, Optimizer, ParticleSwarm,
    RandomSearch, SimulatedAnnealing,
};
use autotune_sim::{DbmsSim, Environment, SparkSim, Workload};
use autotune_tests::redis_target;

/// Every optimizer family completes a campaign against every simulator
/// without panicking, always improves on the first trial, and leaves a
/// consistent trial history.
#[test]
fn every_optimizer_tunes_every_simulator() {
    let targets: Vec<Target> = vec![
        redis_target(),
        Target::simulated(
            Box::new(DbmsSim::new()),
            Workload::tpcc(500.0),
            Environment::medium(),
            Objective::MinimizeLatencyAvg,
        ),
        Target::simulated(
            Box::new(SparkSim::new()),
            Workload::tpch(10.0),
            Environment::large(),
            Objective::MinimizeElapsed,
        ),
    ];
    for target in targets {
        let space = target.space().clone();
        let optimizers: Vec<Box<dyn Optimizer>> = vec![
            Box::new(RandomSearch::new(space.clone())),
            Box::new(GridSearch::with_budget(space.clone(), 30)),
            Box::new(SimulatedAnnealing::new(space.clone(), 1.0, 0.95)),
            Box::new(BayesianOptimizer::gp(space.clone())),
            Box::new(BayesianOptimizer::smac(space.clone())),
            Box::new(CmaEs::new(space.clone())),
            Box::new(ParticleSwarm::new(space.clone())),
            Box::new(GeneticAlgorithm::new(space.clone(), GaConfig::default())),
        ];
        let name = target.name().to_string();
        for opt in optimizers {
            let opt_name = opt.name().to_string();
            let target = match name.split('/').next().expect("name has system") {
                "redis" => redis_target(),
                "dbms" => Target::simulated(
                    Box::new(DbmsSim::new()),
                    Workload::tpcc(500.0),
                    Environment::medium(),
                    Objective::MinimizeLatencyAvg,
                ),
                _ => Target::simulated(
                    Box::new(SparkSim::new()),
                    Workload::tpch(10.0),
                    Environment::large(),
                    Objective::MinimizeElapsed,
                ),
            };
            let source = OptimizerSource::new(opt, 30);
            let mut campaign =
                Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 7);
            campaign.run();
            let storage = campaign.storage();
            let best = storage.best().expect("at least one successful trial");
            assert!(best.cost.is_finite(), "{name}/{opt_name}: no finite best");
            // The incumbent curve never worsens.
            let finite: Vec<f64> = storage
                .convergence_curve()
                .into_iter()
                .filter(|c| c.is_finite())
                .collect();
            assert!(!finite.is_empty(), "{name}/{opt_name}: empty curve");
            for w in finite.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "{name}/{opt_name}: curve regressed");
            }
            assert_eq!(storage.len(), 30);
            assert!(storage.total_elapsed_s() > 0.0);
        }
    }
}

/// Storage survives a JSON round trip with the best trial intact.
#[test]
fn storage_roundtrip_preserves_campaign() {
    let target = redis_target();
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, 15);
    let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 3);
    campaign.run();
    let storage = campaign.storage();
    let json = storage.to_json();
    let restored = TrialStorage::from_json(&json).expect("valid JSON");
    assert_eq!(restored.len(), storage.len());
    assert_eq!(
        restored.best().expect("has best").cost,
        storage.best().expect("has best").cost
    );
    assert_eq!(restored.convergence_curve(), storage.convergence_curve());
}

/// Tuned configurations validate against their space and actually deploy:
/// re-evaluating the best config yields a cost near the recorded one.
#[test]
fn best_config_is_deployable() {
    use rand::SeedableRng;
    let target = redis_target();
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, 30);
    let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 9);
    campaign.run();
    let best = campaign
        .storage()
        .best()
        .expect("at least one successful trial");
    assert!(target.space().validate_config(&best.config).is_ok());
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let redeploy: f64 = (0..10)
        .map(|_| target.evaluate(&best.config, &mut rng).cost)
        .sum::<f64>()
        / 10.0;
    assert!(
        (redeploy - best.cost).abs() / best.cost < 0.5,
        "redeployed cost {redeploy} far from recorded {}",
        best.cost
    );
}

/// Tuning runs are deterministic given (seed, optimizer, target).
#[test]
fn sessions_are_reproducible() {
    let run = || {
        let target = redis_target();
        let mut opt = BayesianOptimizer::gp(target.space().clone());
        let source = OptimizerSource::new(&mut opt, 20);
        let mut campaign =
            Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 12);
        campaign.run();
        campaign
            .storage()
            .best()
            .expect("at least one successful trial")
            .cost
    };
    assert_eq!(run(), run());
}
