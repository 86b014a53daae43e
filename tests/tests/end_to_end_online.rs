//! Cross-crate integration: the online tuning stack
//! (core::OnlineTuner + rl bandits/guardrails + wid shift detection + sim
//! drifting workloads).

use autotune::{static_config_cost, Objective, OnlineTuner, OnlineTunerConfig, Target};
use autotune_sim::{DbmsSim, Environment, Workload, WorkloadSchedule};

fn target() -> Target {
    Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::ycsb_c(2_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    )
}

fn shifting_schedule() -> WorkloadSchedule {
    WorkloadSchedule::new(vec![
        (70, Workload::ycsb_c(2_000.0)),
        (70, Workload::ycsb_a(2_000.0)),
    ])
}

fn menu(t: &Target) -> Vec<autotune_space::Config> {
    let base = t.space().default_config().with("buffer_pool_gb", 8.0);
    vec![
        base.clone().with("query_cache", true),
        base.clone().with("query_cache", false),
    ]
}

/// The agent's history is complete and internally consistent.
#[test]
fn online_history_is_consistent() {
    let t = target();
    let mut tuner = OnlineTuner::new(menu(&t), OnlineTunerConfig::default());
    tuner.run(&t, &shifting_schedule(), 140, 1);
    assert_eq!(tuner.history().len(), 140);
    for (i, step) in tuner.history().iter().enumerate() {
        assert_eq!(step.t, i);
        assert!(step.arm < 2);
    }
    assert!(tuner.cumulative_cost() > 0.0);
}

/// Shift detection and adaptation happen together: a shift is flagged
/// near the phase boundary and the post-shift arm distribution flips.
#[test]
fn detects_and_adapts_to_shift() {
    let t = target();
    let mut tuner = OnlineTuner::new(menu(&t), OnlineTunerConfig::default());
    tuner.run(&t, &shifting_schedule(), 140, 2);
    let shifts = tuner.detected_shifts();
    assert!(
        shifts.iter().any(|&s| (65..=90).contains(&s)),
        "no shift near the boundary: {shifts:?}"
    );
    let arm0_late_phase1 = tuner.history()[50..70]
        .iter()
        .filter(|s| s.arm == 0)
        .count();
    let arm1_late_phase2 = tuner.history()[120..140]
        .iter()
        .filter(|s| s.arm == 1)
        .count();
    assert!(
        arm0_late_phase1 > 12,
        "phase-1 preference weak: {arm0_late_phase1}/20"
    );
    assert!(
        arm1_late_phase2 > 12,
        "phase-2 preference weak: {arm1_late_phase2}/20"
    );
}

/// The online agent is competitive with the best static config even
/// though no static config is good in both phases.
#[test]
fn online_competitive_with_best_static() {
    let t = target();
    let schedule = shifting_schedule();
    let candidates = menu(&t);
    let mut tuner = OnlineTuner::new(candidates.clone(), OnlineTunerConfig::default());
    tuner.run(&t, &schedule, 140, 3);
    let online = tuner.cumulative_cost();
    let best_static = candidates
        .iter()
        .map(|c| static_config_cost(&t, c, &schedule, 140, 3))
        .fold(f64::INFINITY, f64::min);
    assert!(
        online < best_static * 1.15,
        "online {online} not competitive with best static {best_static}"
    );
}

/// Guardrails bound crash exposure when the menu contains an OOM config.
#[test]
fn guardrail_bounds_crash_exposure() {
    let t = target();
    let base = t.space().default_config().with("buffer_pool_gb", 8.0);
    let crashy = t.space().default_config().with("buffer_pool_gb", 15.9);
    let schedule = WorkloadSchedule::new(vec![(120, Workload::ycsb_c(2_000.0))]);
    let mut tuner = OnlineTuner::new(
        vec![base, crashy],
        OnlineTunerConfig {
            safety: true,
            shift: false,
            ..Default::default()
        },
    );
    tuner.run(&t, &schedule, 120, 4);
    let crashes = tuner.history().iter().filter(|s| s.cost.is_nan()).count();
    assert!(crashes <= 3, "guardrail allowed {crashes} crashes");
}
