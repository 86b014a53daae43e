//! E24 (slide 84): avoiding performance regressions — guardrailed
//! exploration vs unconstrained exploration on a production-like stream.
//! The menu contains good, mediocre, regressing, and crashing configs;
//! safety should bound the user-visible damage at a small optimality cost.

use crate::report::{f, Report};
use autotune::{Objective, OnlineTuner, OnlineTunerConfig, Target};
use autotune_sim::{DbmsSim, Environment, Workload, WorkloadSchedule};

/// Runs the experiment.
pub fn run() -> Report {
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(2_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    );
    let schedule = WorkloadSchedule::new(vec![(200, Workload::tpcc(2_000.0))]);
    let steps = 200;
    let base = target.space().default_config().with("buffer_pool_gb", 8.0);
    let candidates = vec![
        base.clone(),                                  // good incumbent
        base.clone().with("log_file_size_mb", 2048.0), // better
        base.clone().with("worker_threads", 512i64),   // regressing
        base.clone().with("buffer_pool_gb", 15.5),     // crashes (OOM)
    ];

    let run = |safety: bool, seed: u64| {
        // ε-greedy keeps exploring forever — exactly the behaviour that
        // needs a guardrail in production. The same policy runs on both
        // sides; only the guardrail differs.
        let mut tuner = OnlineTuner::new(
            candidates.clone(),
            OnlineTunerConfig {
                policy: autotune_optimizer::bandit::BanditPolicy::EpsilonGreedy { epsilon: 0.15 },
                safety,
                shift: false,
            },
        );
        tuner.run(&target, &schedule, steps, seed);
        let crashes = tuner.history().iter().filter(|s| s.cost.is_nan()).count();
        // "Regressions served": steps whose cost exceeded 1.5x the median.
        let finite: Vec<f64> = tuner
            .history()
            .iter()
            .filter(|s| s.cost.is_finite())
            .map(|s| s.cost)
            .collect();
        let med = autotune_linalg::stats::median(&finite);
        let regressions = finite.iter().filter(|&&c| c > 1.5 * med).count();
        (tuner.cumulative_cost(), crashes, regressions)
    };

    let (unsafe_cost, unsafe_crashes, unsafe_regr) = run(false, 3);
    let (safe_cost, safe_crashes, safe_regr) = run(true, 3);

    let rows = vec![
        vec![
            "unconstrained".into(),
            f(unsafe_cost, 2),
            unsafe_crashes.to_string(),
            unsafe_regr.to_string(),
        ],
        vec![
            "guardrailed".into(),
            f(safe_cost, 2),
            safe_crashes.to_string(),
            safe_regr.to_string(),
        ],
    ];
    let shape_holds = safe_crashes < unsafe_crashes
        && safe_crashes <= 4
        && safe_regr <= unsafe_regr
        && safe_cost <= unsafe_cost * 1.2;
    Report {
        id: "E24",
        title: "Safe exploration / regression guardrails (slide 84)",
        headers: vec![
            "policy",
            "cumulative cost",
            "crashes served",
            "regressions served",
        ],
        rows,
        paper_claim: "safety limits regressions/crashes to a handful at modest optimality cost",
        measured: format!(
            "guardrail: {safe_crashes} crashes vs {unsafe_crashes} unconstrained; cost {} vs {}",
            f(safe_cost, 2),
            f(unsafe_cost, 2)
        ),
        shape_holds,
    }
}
