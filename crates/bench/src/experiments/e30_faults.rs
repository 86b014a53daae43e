//! E30 (systems challenges): fault injection and resilient execution.
//! Real campaigns lose trials to transient machine failures, hangs,
//! stragglers and outages — not just to bad configs. Feeding every loss
//! to the learner as a crash penalty (the naive baseline) mis-trains the
//! surrogate; retrying transient losses, timing out hangs and
//! quarantining sick machines recovers near-fault-free quality.

use crate::report::{f, Report};
use autotune::executor::{
    Campaign, CrashPenaltyMw, MachineAssignMw, OptimizerSource, QuarantineMw, RetryMw,
    SchedulePolicy, TimeoutMw,
};
use autotune::{Target, TrialStorage};
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::{CloudNoise, FaultPlan, NoiseConfig};

const N_MACHINES: usize = 8;
const BUDGET: usize = 48;
const PENALTY: f64 = 1e9;
/// Trials run ~30 s; a hang inflates that 30-60x, so 120 s cleanly
/// separates hangs from slow-but-honest trials.
const TIMEOUT_S: f64 = 120.0;

/// The E30 stress regime: aggressive background fault rates, two sick
/// machines the quarantine should catch, and a scheduled outage.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::aggressive(seed)
        .with_sick_machine(0, 6.0)
        .with_sick_machine(5, 6.0)
        .with_outage(2, 0.0, 2_000.0)
}

fn target(seed: u64, faults: bool) -> Target {
    let t = super::dbms_target().with_noise(CloudNoise::new_fleet(
        N_MACHINES,
        NoiseConfig::default(),
        seed,
    ));
    if faults {
        t.with_faults(fault_plan(seed))
    } else {
        t
    }
}

enum Variant {
    FaultFree,
    Naive,
    Resilient,
}

fn run_variant(variant: &Variant, seed: u64, policy: SchedulePolicy) -> (TrialStorage, usize) {
    let target = target(seed, !matches!(variant, Variant::FaultFree));
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, BUDGET);
    let mut campaign = Campaign::over(&target, Box::new(source), policy, seed)
        .with_event_log(false)
        .with_middleware(Box::new(MachineAssignMw::round_robin(N_MACHINES)));
    if matches!(variant, Variant::Resilient) {
        campaign = campaign
            .with_middleware(Box::new(QuarantineMw::with_defaults(N_MACHINES)))
            .with_middleware(Box::new(RetryMw::new(3, 5.0)))
            .with_middleware(Box::new(TimeoutMw::new(TIMEOUT_S)));
    }
    let mw = if matches!(variant, Variant::Naive) {
        CrashPenaltyMw::naive(PENALTY)
    } else {
        CrashPenaltyMw::new(PENALTY)
    };
    let mut campaign = campaign.with_middleware(Box::new(mw));
    let metrics = campaign.run();
    (campaign.into_storage(), metrics.quarantined_machines.len())
}

/// Runs the experiment.
pub fn run() -> Report {
    let n_seeds = 5u64;
    let mut rows = Vec::new();
    let mut bests = [0.0_f64; 3];
    for (vi, (variant, label)) in [
        (Variant::FaultFree, "fault-free"),
        (Variant::Naive, "naive crash-penalty"),
        (Variant::Resilient, "retry+timeout+quarantine"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut best = 0.0;
        let mut crashed = 0;
        let mut transient = 0;
        let mut retried = 0;
        let mut quarantined = 0;
        for seed in 0..n_seeds {
            let (s, nq) = run_variant(&variant, 3_000 + seed, SchedulePolicy::Sequential);
            best += s.best().map_or(f64::INFINITY, |t| t.cost) / n_seeds as f64;
            crashed += s.n_crashed();
            transient += s.n_transient_failures();
            retried += s.n_retried();
            quarantined += nq;
        }
        bests[vi] = best;
        rows.push(vec![
            label.into(),
            format!("{} ms", f(best, 2)),
            crashed.to_string(),
            transient.to_string(),
            retried.to_string(),
            quarantined.to_string(),
        ]);
    }
    let [free_best, naive_best, resilient_best] = bests;

    // Determinism under faults: the full resilience stack must stay
    // byte-identical across the three k=1 schedule policies.
    let (seq, _) = run_variant(&Variant::Resilient, 3_000, SchedulePolicy::Sequential);
    let (sync1, _) = run_variant(
        &Variant::Resilient,
        3_000,
        SchedulePolicy::SyncBatch { k: 1 },
    );
    let (async1, _) = run_variant(
        &Variant::Resilient,
        3_000,
        SchedulePolicy::AsyncSlots { k: 1 },
    );
    let deterministic = seq.to_json() == sync1.to_json() && seq.to_json() == async1.to_json();
    rows.push(vec![
        "k=1 policies byte-identical".into(),
        if deterministic { "yes" } else { "NO" }.into(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);

    let recovered = resilient_best <= free_best * 1.10;
    let naive_worse = naive_best > resilient_best * 1.05;
    Report {
        id: "E30",
        title: "Fault injection and resilient execution (systems challenges)",
        headers: vec![
            "executor",
            "best latency",
            "crashed",
            "transient",
            "retries",
            "quarantined",
        ],
        rows,
        paper_claim: "retries, timeouts and quarantine recover near-fault-free quality; feeding \
                      transient losses to the learner as crashes degrades it",
        measured: format!(
            "resilient {} vs fault-free {} (within 10%: {recovered}), naive {} ({}% worse), \
             deterministic: {deterministic}",
            f(resilient_best, 2),
            f(free_best, 2),
            f(naive_best, 2),
            f((naive_best / resilient_best - 1.0) * 100.0, 0),
        ),
        shape_holds: recovered && naive_worse && deterministic,
    }
}
