//! E19 (slide 69): early abort — for elapsed-time benchmarks, kill trials
//! already slower than `1.3x` the incumbent and bank the saved time,
//! without changing which configuration wins.

use crate::report::{f, Report};
use autotune::executor::{Campaign, EarlyAbortMw, OptimizerSource, SchedulePolicy};
use autotune::{Objective, Target, TrialStorage};
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
        let mut opt = RandomSearch::new(target.space().clone());
        let source = OptimizerSource::new(&mut opt, budget);
        let mut campaign =
            Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, seed)
                .with_event_log(false);
        if let Some(ratio) = abort {
            campaign = campaign.with_middleware(Box::new(EarlyAbortMw::new(ratio)));
        }
        (campaign.run(), campaign.into_storage())
    };
    let (_, plain) = run(None, 9);
    let (metrics, abort) = run(Some(1.3), 9);
    let best_cost = |s: &TrialStorage| s.best().expect("tuning campaign succeeds").cost;
    let (plain_best, abort_best) = (best_cost(&plain), best_cost(&abort));
    let saved_pct = 100.0 * (1.0 - abort.total_elapsed_s() / plain.total_elapsed_s());

    let rows = vec![
        vec![
            "no abort".into(),
            format!("{} s", f(plain_best, 1)),
            format!("{:.0} s", plain.total_elapsed_s()),
            "0".into(),
        ],
        vec![
            "abort @1.3x".into(),
            format!("{} s", f(abort_best, 1)),
            format!("{:.0} s", abort.total_elapsed_s()),
            metrics.n_aborted.to_string(),
        ],
        vec![
            "time saved".into(),
            format!("{saved_pct:.0}%"),
            format!("{:.0} s", metrics.saved_s),
            String::new(),
        ],
    ];
    let shape_holds = saved_pct >= 20.0 && (abort_best - plain_best).abs() < 1e-9;
    Report {
        id: "E19",
        title: "Early abort of hopeless trials (slide 69)",
        headers: vec!["policy", "best runtime", "bench time", "aborted"],
        rows,
        paper_claim: "report bad scores sooner on elapsed-time benchmarks; same winner, less time",
        measured: format!(
            "saved {saved_pct:.0}% of benchmark time ({} aborted), identical winner",
            metrics.n_aborted
        ),
        shape_holds,
    }
}
