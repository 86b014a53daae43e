//! E29 (slide 57, async variant): synchronous batches vs asynchronous
//! slot-refilling at the same trial budget and parallelism. Spark runtimes
//! vary by an order of magnitude with the config, so the synchronous
//! barrier wastes slot time on every batch.

use crate::experiments::run_bo_policy;
use crate::report::{f, Report};
use autotune::{Objective, SchedulePolicy, Target};
use autotune_sim::{Environment, SparkSim, Workload};

fn spark_target() -> Target {
    Target::simulated(
        Box::new(SparkSim::new()),
        Workload::tpch(20.0),
        Environment::large(),
        Objective::MinimizeElapsed,
    )
}

/// Runs the experiment.
pub fn run() -> Report {
    let total = 32;
    let k = 4;
    let n_seeds = 4;
    let mut sync_wall = 0.0;
    let mut async_wall = 0.0;
    let mut sync_best = 0.0;
    let mut async_best = 0.0;
    for seed in 0..n_seeds {
        let sync = SchedulePolicy::SyncBatch { k };
        let (s, best) = run_bo_policy(&spark_target(), sync, total, 800 + seed);
        sync_wall += s.wall_clock_s / n_seeds as f64;
        sync_best += best / n_seeds as f64;

        let slots = SchedulePolicy::AsyncSlots { k };
        let (a, best) = run_bo_policy(&spark_target(), slots, total, 800 + seed);
        async_wall += a.wall_clock_s / n_seeds as f64;
        async_best += best / n_seeds as f64;
    }
    let speedup = sync_wall / async_wall.max(1e-9);

    let rows = vec![
        vec![
            "synchronous batches".into(),
            format!("{sync_wall:.0} s"),
            format!("{} s", f(sync_best, 1)),
        ],
        vec![
            "asynchronous slots".into(),
            format!("{async_wall:.0} s"),
            format!("{} s", f(async_best, 1)),
        ],
        vec![
            "wall-clock speedup".into(),
            format!("{speedup:.2}x"),
            String::new(),
        ],
    ];
    let shape_holds = async_wall < sync_wall && async_best < sync_best * 1.5;
    Report {
        id: "E29",
        title: "Sync vs async parallel trials (slide 57)",
        headers: vec!["scheduler", "wall clock", "best runtime"],
        rows,
        paper_claim: "async suggestion avoids the batch barrier on heterogeneous trial durations",
        measured: format!(
            "async {async_wall:.0}s vs sync {sync_wall:.0}s wall clock ({speedup:.2}x) at {total} trials, {k} slots"
        ),
        shape_holds,
    }
}
