//! Cross-crate integration: knowledge transfer (storage JSON export →
//! policy rewrite → warm start) and multi-fidelity successive halving.

use autotune::{
    transfer_observations, Campaign, FidelityLevel, Objective, OptimizerSource, SchedulePolicy,
    SuccessiveHalving, SuccessiveHalvingConfig, Target, TransferPolicy, TrialStorage,
};
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use autotune_sim::{DbmsSim, Environment, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dbms(load: f64) -> Target {
    Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(load),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    )
}

/// The history of `budget` sequential GP-BO trials on `target`.
fn tune(target: &Target, budget: usize, seed: u64) -> TrialStorage {
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, budget);
    let mut campaign = Campaign::over(target, Box::new(source), SchedulePolicy::Sequential, seed);
    campaign.run();
    campaign.into_storage()
}

/// The full transfer loop: campaign -> JSON -> import -> rewrite ->
/// warm-started campaign that avoids the donor's crash region.
#[test]
fn transfer_via_json_roundtrip() {
    // Donor campaign.
    let json = tune(&dbms(500.0), 40, 1).to_json();

    // "Another process" imports the history.
    let imported = TrialStorage::from_json(&json).expect("valid export");
    let obs = transfer_observations(imported.trials(), &TransferPolicy::default(), true);
    assert!(!obs.is_empty(), "transfer produced no observations");

    // Warm-started recipient: quickly goes below the donor's median cost.
    let recipient = dbms(800.0);
    let mut opt = BayesianOptimizer::gp(recipient.space().clone());
    opt.warm_start(&obs);
    let mut rng = StdRng::seed_from_u64(2);
    let mut best = f64::INFINITY;
    for _ in 0..10 {
        let cfg = opt.suggest(&mut rng);
        let e = recipient.evaluate(&cfg, &mut rng);
        opt.observe(&cfg, e.cost);
        if e.cost.is_finite() {
            best = best.min(e.cost);
        }
    }
    assert!(best.is_finite(), "warm-started campaign found nothing");
    // Crash knowledge: the imported crash observations exist whenever the
    // donor crashed, and carry worse-than-worst scores.
    let donor_worst = imported
        .trials()
        .iter()
        .filter(|t| t.cost.is_finite())
        .map(|t| t.cost)
        .fold(f64::NEG_INFINITY, f64::max);
    let crash_obs: Vec<_> = obs.iter().filter(|o| o.value > donor_worst).collect();
    assert_eq!(
        crash_obs.len(),
        imported.n_crashed(),
        "one penalty obs per crash"
    );
}

/// Successive halving conserves its budget arithmetic and promotes only
/// survivors.
#[test]
fn successive_halving_budget_conservation() {
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpch(10.0),
        Environment::medium(),
        Objective::MinimizeElapsed,
    );
    let sh = SuccessiveHalving::new(
        vec![
            FidelityLevel {
                label: "SF-1".into(),
                workload: Workload::tpch(1.0),
            },
            FidelityLevel {
                label: "SF-10".into(),
                workload: Workload::tpch(10.0),
            },
        ],
        SuccessiveHalvingConfig {
            initial_configs: 16,
            eta: 4,
        },
    );
    assert_eq!(sh.total_trials(), 16 + 4);
    let outcome = sh.run(&target, 3);
    assert_eq!(outcome.rung_sizes, vec![16, 4]);
    assert!(outcome.best_cost.is_finite());
    assert!(outcome.total_elapsed_s > 0.0);
    assert!(target.space().validate_config(&outcome.best_config).is_ok());
}

/// Incompatible-context transfer only moves crash knowledge.
#[test]
fn incompatible_context_transfers_only_crashes() {
    let donor = tune(&dbms(500.0), 40, 5);
    let obs = transfer_observations(
        donor.trials(),
        &TransferPolicy::default(),
        false, // different VM size / workload: scores don't transfer
    );
    assert_eq!(obs.len(), donor.n_crashed());
}
