//! E19 (slide 69): early abort — for elapsed-time benchmarks, kill trials
//! already slower than `1.3x` the incumbent and bank the saved time,
//! without changing which configuration wins.

use crate::report::{f, Report};
use autotune::{Objective, SessionConfig, Target, TuningSession};
use autotune_optimizer::RandomSearch;
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
    let budget = 40;
    let run = |abort: Option<f64>, seed: u64| {
        let target = spark_target();
        let opt = RandomSearch::new(target.space().clone());
        let mut session = TuningSession::new(
            target,
            Box::new(opt),
            SessionConfig {
                early_abort_ratio: abort,
                ..Default::default()
            },
        );
        session.run(budget, seed).expect("tuning campaign succeeds")
    };
    let plain = run(None, 9);
    let abort = run(Some(1.3), 9);
    let saved_pct = 100.0 * (1.0 - abort.total_elapsed_s / plain.total_elapsed_s);

    let rows = vec![
        vec![
            "no abort".into(),
            format!("{} s", f(plain.best_cost, 1)),
            format!("{:.0} s", plain.total_elapsed_s),
            "0".into(),
        ],
        vec![
            "abort @1.3x".into(),
            format!("{} s", f(abort.best_cost, 1)),
            format!("{:.0} s", abort.total_elapsed_s),
            abort.metrics.n_aborted.to_string(),
        ],
        vec![
            "time saved".into(),
            format!("{saved_pct:.0}%"),
            format!("{:.0} s", abort.metrics.saved_s),
            String::new(),
        ],
    ];
    let shape_holds = saved_pct >= 20.0 && (abort.best_cost - plain.best_cost).abs() < 1e-9;
    Report {
        id: "E19",
        title: "Early abort of hopeless trials (slide 69)",
        headers: vec!["policy", "best runtime", "bench time", "aborted"],
        rows,
        paper_claim: "report bad scores sooner on elapsed-time benchmarks; same winner, less time",
        measured: format!(
            "saved {saved_pct:.0}% of benchmark time ({} aborted), identical winner",
            abort.metrics.n_aborted
        ),
        shape_holds,
    }
}
