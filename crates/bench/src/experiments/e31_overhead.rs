//! E31 (systems challenges): tuner work vs trial cost. The "tuning the
//! tuner" question — what does the optimizer itself do per suggestion,
//! and can a campaign be observed without perturbing it? Model-free
//! search keeps no model; GP-based BO refits its hyperparameters
//! periodically and absorbs every other observation in place, while each
//! trial costs seconds of benchmark time.
//!
//! Everything here is counted on the campaign's telemetry: model events
//! from the optimizer, spans on the virtual clock. What a suggestion costs
//! in wall time is the benchmark's `tune_bo` workload and its
//! `optimizer.*` rows to measure.

use crate::report::{f, Report};
use autotune::executor::{Campaign, OptimizerSource, SchedulePolicy};
use autotune::telemetry::{MetricsSnapshot, SpanRecorder};
use autotune_optimizer::{BayesianOptimizer, Optimizer, RandomSearch};

const BUDGET: usize = 40;

/// One campaign with every span recorded: its metrics, its trial spans
/// (if they validate), the size of its exported trace, and whether its
/// history is the one the same campaign leaves unobserved.
struct Instrumented {
    metrics: MetricsSnapshot,
    spans: Result<usize, String>,
    trace_bytes: usize,
    unperturbed: bool,
}

/// Runs a `BUDGET`-trial campaign of a fresh `make()` optimizer on the
/// DBMS target, recording spans into `spans` when given; returns its
/// metrics and history.
fn campaign(
    make: &dyn Fn() -> Box<dyn Optimizer>,
    spans: Option<&mut SpanRecorder>,
) -> (MetricsSnapshot, String) {
    let target = super::dbms_target();
    let mut opt = make();
    let source = OptimizerSource::new(opt.as_mut(), BUDGET);
    let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 3_100)
        .with_event_log(false);
    if let Some(spans) = spans {
        campaign = campaign.with_subscriber(Box::new(spans));
    }
    let metrics = campaign.run();
    (metrics, campaign.storage().to_json())
}

fn run_instrumented(make: &dyn Fn() -> Box<dyn Optimizer>) -> Instrumented {
    let mut spans = SpanRecorder::new();
    let (metrics, observed) = campaign(make, Some(&mut spans));
    Instrumented {
        metrics,
        spans: spans.validate_all().map(|()| spans.spans().len()),
        trace_bytes: spans.to_chrome_trace().len(),
        unperturbed: campaign(make, None).1 == observed,
    }
}

fn row(label: &str, run: &Instrumented) -> Vec<String> {
    let m = &run.metrics;
    vec![
        label.into(),
        m.n_suggested.to_string(),
        m.n_refits.to_string(),
        m.n_model_updates.to_string(),
        match &run.spans {
            Ok(n) => format!("{n} valid"),
            Err(e) => format!("invalid: {e}"),
        },
        format!("{} s", f(m.wall_clock_s, 0)),
    ]
}

/// Runs the experiment.
pub fn run() -> Report {
    let space = super::dbms_target().space().clone();
    let random = run_instrumented(&|| Box::new(RandomSearch::new(space.clone())));
    let bo = run_instrumented(&|| Box::new(BayesianOptimizer::gp(space.clone())));

    let rows = vec![row("random search", &random), row("BO (GP)", &bo)];

    // Shape: random search keeps no model; BO refits its hyperparameters
    // at least once and absorbs observations in place in between; both
    // campaigns' spans validate, one per trial; and recording them moved
    // no byte of either history.
    let (r, b) = (&random.metrics, &bo.metrics);
    let model_free = r.n_refits == 0 && r.n_model_updates == 0;
    let model_based = b.n_refits >= 1 && b.n_model_updates >= 1;
    let spans_hold = [&random, &bo].iter().all(|run| {
        run.unperturbed
            && run
                .spans
                .as_ref()
                .is_ok_and(|&n| n as u64 == run.metrics.n_trials())
    });
    Report {
        id: "E31",
        title: "Tuner work vs trial cost (telemetry model events and spans)",
        headers: vec![
            "optimizer",
            "suggestions",
            "refits",
            "in-place updates",
            "trial spans",
            "benchmark time",
        ],
        rows,
        paper_claim:
            "model-based suggestion costs real compute that random search does not, and a \
                      campaign must be observable without perturbing its results",
        measured: format!(
            "BO refit {} times and updated in place {} times over {} trials, random search 0/0; \
             {} + {} spans valid, {} B of trace for BO, histories unperturbed: {}",
            b.n_refits,
            b.n_model_updates,
            b.n_trials(),
            random.spans.as_ref().map_or(0, |&n| n),
            bo.spans.as_ref().map_or(0, |&n| n),
            bo.trace_bytes,
            random.unperturbed && bo.unperturbed,
        ),
        shape_holds: model_free && model_based && spans_hold,
    }
}
