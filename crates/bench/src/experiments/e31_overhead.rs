//! E31 (systems challenges): tuner overhead vs trial cost. The "tuning
//! the tuner" question — how much real compute does the optimizer itself
//! burn per suggestion, and does it matter next to the benchmark time a
//! trial costs? Model-free search suggests in microseconds; GP-based BO
//! pays cubic-in-observations suggestion costs plus periodic
//! hyperparameter refits, yet even that stays negligible against
//! seconds-long trials. Measured with the telemetry subsystem's injected
//! wall timer, so the virtual-clock campaign stays deterministic while
//! the overhead histograms carry real nanoseconds.

use crate::report::{f, Report};
use autotune::executor::{Campaign, OptimizerSource, SchedulePolicy};
use autotune::telemetry::{MetricsSnapshot, SpanRecorder};
use autotune_optimizer::{BayesianOptimizer, Optimizer, RandomSearch};

const BUDGET: usize = 40;

fn run_instrumented(mut opt: Box<dyn Optimizer>, record_spans: bool) -> (MetricsSnapshot, String) {
    let target = super::dbms_target();
    let source = OptimizerSource::new(opt.as_mut(), BUDGET);
    let mut spans = SpanRecorder::new();
    let metrics = {
        let mut campaign =
            Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 3_100)
                .with_event_log(false)
                .with_timer(Box::new(super::StdTimer::start()));
        if record_spans {
            campaign = campaign.with_subscriber(Box::new(&mut spans));
        }
        campaign.run()
    };
    let trace = if record_spans {
        spans.validate_all().expect("well-formed spans");
        spans.to_chrome_trace()
    } else {
        String::new()
    };
    (metrics, trace)
}

fn row(label: &str, m: &MetricsSnapshot) -> Vec<String> {
    // Overhead share: real tuner seconds per virtual benchmark second.
    let share = m.tuner_wall_ns as f64 / 1e9 / m.wall_clock_s.max(1e-9);
    vec![
        label.into(),
        format!("{} us", f(m.suggest_ns.mean() / 1e3, 1)),
        format!("{} us", f(m.suggest_ns.quantile(0.95) / 1e3, 1)),
        format!("{} us", f(m.observe_ns.mean() / 1e3, 1)),
        m.n_refits.to_string(),
        format!("{} ms", f(m.tuner_wall_ns as f64 / 1e6, 2)),
        format!("{:.6}%", share * 100.0),
    ]
}

/// Runs the experiment.
pub fn run() -> Report {
    let (random, _) = run_instrumented(
        Box::new(RandomSearch::new(super::dbms_target().space().clone())),
        false,
    );
    let (bo, trace) = run_instrumented(
        Box::new(BayesianOptimizer::gp(super::dbms_target().space().clone())),
        true,
    );

    let trace_path = std::path::Path::new("target").join("e31_trace.json");
    let trace_note = match std::fs::write(&trace_path, &trace) {
        Ok(()) => format!("trace: {}", trace_path.display()),
        Err(e) => format!("trace not written ({e})"),
    };

    let rows = vec![row("random search", &random), row("BO (GP)", &bo)];

    // Shape: BO's model fitting makes suggestions far costlier than
    // random's (≥5x mean), it refits hyperparameters at least once, and
    // even so the tuner's real compute stays under 10% of the virtual
    // benchmark seconds a campaign spends.
    let bo_costlier = bo.suggest_ns.mean() >= 5.0 * random.suggest_ns.mean().max(1.0);
    let refits = bo.n_refits >= 1;
    let negligible = bo.tuner_wall_ns as f64 / 1e9 <= 0.10 * bo.wall_clock_s;
    Report {
        id: "E31",
        title: "Tuner overhead vs trial cost (telemetry wall timer)",
        headers: vec![
            "optimizer",
            "suggest mean",
            "suggest p95",
            "observe mean",
            "refits",
            "tuner total",
            "overhead/trial-s",
        ],
        rows,
        paper_claim: "model-based suggestion costs orders of magnitude more compute than random \
                      search, but stays negligible against benchmark-scale trial times",
        measured: format!(
            "BO suggest {} us vs random {} us ({}x), {} refits, tuner share {:.5}% of virtual \
             time; {trace_note}",
            f(bo.suggest_ns.mean() / 1e3, 1),
            f(random.suggest_ns.mean() / 1e3, 1),
            f(bo.suggest_ns.mean() / random.suggest_ns.mean().max(1.0), 0),
            bo.n_refits,
            bo.tuner_wall_ns as f64 / 1e9 / bo.wall_clock_s.max(1e-9) * 100.0,
        ),
        shape_holds: bo_costlier && refits && negligible,
    }
}
