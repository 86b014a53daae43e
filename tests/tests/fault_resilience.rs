//! Cross-crate integration: fault injection (`autotune_sim::FaultPlan`)
//! composed with the resilient campaign stack (`RetryMw`, `TimeoutMw`,
//! `QuarantineMw`).
//!
//! The determinism test here is the CI gate for the fault layer: the PR 1
//! contract — `Sequential`, `SyncBatch{k:1}` and `AsyncSlots{k:1}` are
//! byte-identical — must survive retries, timeouts and quarantine, all of
//! which are driven by `(seed, trial, attempt)` rather than wall-clock or
//! thread timing.

use autotune::executor::{
    Campaign, CrashPenaltyMw, MachineAssignMw, OptimizerSource, QuarantineMw, RetryMw,
    SchedulePolicy, TimeoutMw,
};
use autotune::{Target, TrialStatus, TrialStorage};
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::{CloudNoise, FaultPlan, NoiseConfig};
use autotune_tests::redis_target;

const N_MACHINES: usize = 6;

fn faulty_target(seed: u64) -> Target {
    redis_target()
        .with_noise(CloudNoise::new_fleet(
            N_MACHINES,
            NoiseConfig::default(),
            seed,
        ))
        .with_faults(
            FaultPlan::aggressive(seed)
                .with_sick_machine(1, 6.0)
                .with_outage(3, 0.0, 1_500.0),
        )
}

fn run_resilient(seed: u64, policy: SchedulePolicy, budget: usize) -> (TrialStorage, u64) {
    let target = faulty_target(seed);
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, budget);
    let mut campaign = Campaign::over(&target, Box::new(source), policy, seed)
        .with_middleware(Box::new(MachineAssignMw::round_robin(N_MACHINES)))
        .with_middleware(Box::new(QuarantineMw::new(N_MACHINES)))
        .with_middleware(Box::new(RetryMw::new(3, 5.0)))
        .with_middleware(Box::new(TimeoutMw::new(150.0)))
        .with_middleware(Box::new(CrashPenaltyMw::new()));
    let metrics = campaign.run();
    (campaign.into_storage(), metrics.n_retries)
}

/// The fault-determinism regression test CI runs in `--release`:
/// identical seeds must give byte-identical trial histories across all
/// three single-slot schedule policies, faults and resilience included.
#[test]
fn fault_campaigns_are_byte_identical_across_k1_policies() {
    for seed in [2, 47] {
        let (seq, seq_retries) = run_resilient(seed, SchedulePolicy::Sequential, 24);
        let (sync1, _) = run_resilient(seed, SchedulePolicy::SyncBatch { k: 1 }, 24);
        let (async1, async_retries) = run_resilient(seed, SchedulePolicy::AsyncSlots { k: 1 }, 24);
        assert_eq!(seq.to_json(), sync1.to_json(), "seed {seed}: sync differs");
        assert_eq!(
            seq.to_json(),
            async1.to_json(),
            "seed {seed}: async differs"
        );
        assert_eq!(
            seq_retries, async_retries,
            "seed {seed}: retry counts differ"
        );
    }
}

/// Re-running the identical campaign replays it exactly (faults, retries,
/// quarantine decisions and all).
#[test]
fn fault_campaigns_replay_exactly() {
    let (a, _) = run_resilient(9, SchedulePolicy::AsyncSlots { k: 3 }, 30);
    let (b, _) = run_resilient(9, SchedulePolicy::AsyncSlots { k: 3 }, 30);
    assert_eq!(a.to_json(), b.to_json());
}

/// The resilient stack keeps the campaign productive under an aggressive
/// fault plan: most trials still complete, retries fire, and the learner
/// still finds a competitive optimum.
#[test]
fn resilient_stack_survives_aggressive_faults() {
    let (storage, n_retried) = run_resilient(5, SchedulePolicy::AsyncSlots { k: 2 }, 40);
    assert_eq!(storage.len(), 40);
    assert!(n_retried > 0, "aggressive plan should trigger retries");
    let complete = storage
        .trials()
        .iter()
        .filter(|t| t.status == TrialStatus::Complete)
        .count();
    assert!(
        complete >= 20,
        "retries should keep most trials alive: {complete}/40"
    );
    // Transient losses are recorded as such, not as config crashes.
    assert!(storage.n_transient_failures() < 40 - complete + 1);
    assert!(storage.best().is_some());
}

/// A plain sequential tuning run on a faulty target surfaces the fault
/// counters in the metrics summary `Campaign::run` returns.
#[test]
fn session_summary_reports_fault_counters() {
    use autotune_optimizer::RandomSearch;
    let target = redis_target().with_faults(FaultPlan::aggressive(17));
    let mut opt = RandomSearch::new(target.space().clone());
    let source = OptimizerSource::new(&mut opt, 40);
    let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 17);
    let metrics = campaign.run();
    // No retry middleware: transient losses surface directly, with zero
    // retries and zero quarantines.
    assert!(metrics.n_transient > 0);
    assert_eq!(metrics.n_retries, 0);
    assert!(metrics.quarantined_machines.is_empty());
    let best = campaign.storage().best().expect("some trials survive");
    assert!(best.cost.is_finite());
}
