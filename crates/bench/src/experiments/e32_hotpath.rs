//! E32 (systems challenges): the incremental surrogate hot path. The
//! historical BO loop refit its GP from scratch before every suggestion
//! — O(n³) per trial, O(n⁴) per campaign — which is exactly the
//! "optimizer overhead grows with history" wall long campaigns hit.
//! PR 4 replaced it with rank-1 Cholesky extension
//! ([`autotune_linalg::Cholesky::extend`]): each `observe` borders the
//! cached kernel matrix and factor in O(n²), bitwise-identical to the
//! full refit.
//!
//! One measurement on the telemetry wall timer (the virtual-clock
//! campaign stays deterministic): fresh campaigns at budgets 1000 and
//! 2000. Mean per-observe time follows the average of n² over the
//! campaign, so doubling the budget multiplies it by ~4; the historical
//! O(n³) path would give ~8. Asserting the ratio ≤ 6 pins the exponent,
//! and `MetricsSnapshot::n_model_updates` confirms every trial was
//! absorbed in place (0 full hyperparameter refits). The fit-per-suggest
//! path is no longer a public switch to time against: the optimizer
//! crate's own tests hold the two trajectories bitwise equal, and what a
//! suggestion costs is the benchmark's `optimizer.*` rows.

use crate::report::{f, Report};
use autotune::executor::{Campaign, OptimizerSource, SchedulePolicy};
use autotune::telemetry::MetricsSnapshot;
use autotune_optimizer::{AcquisitionFunction, BayesianOptimizer, BoConfig, SurrogateChoice};

/// Budgets of the two scaling campaigns (2x apart, so the observe-time
/// ratio pins the per-observe exponent).
const SCALE_BUDGETS: [usize; 2] = [1_000, 2_000];

/// BO tuned for overhead measurement: hyperparameter refits off so every
/// model sync is an in-place update, and a small candidate batch so
/// posterior prediction doesn't drown the observe cost.
fn hot_config() -> BoConfig {
    BoConfig {
        n_init: 8,
        acquisition: AcquisitionFunction::ExpectedImprovement,
        n_candidates: 4,
        n_local_steps: 0,
        refit_every: 0,
        surrogate: SurrogateChoice::GaussianProcess,
    }
}

fn run_instrumented(opt: &mut BayesianOptimizer, budget: usize, seed: u64) -> MetricsSnapshot {
    let target = super::dbms_target();
    let source = OptimizerSource::new(opt, budget);
    let metrics = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, seed)
        .with_event_log(false)
        .with_timer(Box::new(super::StdTimer::start()))
        .run();
    metrics
}

fn scaling_arm(budget: usize) -> MetricsSnapshot {
    let mut opt = BayesianOptimizer::new(super::dbms_target().space().clone(), hot_config());
    run_instrumented(&mut opt, budget, 3_203)
}

fn row(label: &str, m: &MetricsSnapshot) -> Vec<String> {
    vec![
        label.into(),
        format!("{} us", f(m.suggest_ns.mean() / 1e3, 1)),
        format!("{} us", f(m.observe_ns.mean() / 1e3, 1)),
        m.n_refits.to_string(),
        m.n_model_updates.to_string(),
        format!("{} ms", f(m.tuner_wall_ns as f64 / 1e6, 1)),
    ]
}

/// Runs the experiment.
pub fn run() -> Report {
    let scale: Vec<MetricsSnapshot> = SCALE_BUDGETS.iter().map(|&b| scaling_arm(b)).collect();

    let observe_ratio = scale[1].observe_ns.mean() / scale[0].observe_ns.mean().max(1.0);

    let rows = vec![
        row("incremental, budget 1000", &scale[0]),
        row("incremental, budget 2000", &scale[1]),
    ];

    // Shape: (a) the campaigns absorbed ≥90% of trials in place with zero
    // full refits — hyper refits are disabled and the GP never takes the
    // refused-incremental fallback that `n_refits` also counts since PR 9
    // (crashed trials report NaN and legitimately skip absorption);
    // (b) doubling the budget multiplies mean observe time by ~4 (O(n²)),
    // well under the ~8x a cubic per-observe cost would show.
    let absorbed = scale
        .iter()
        .zip(SCALE_BUDGETS)
        .all(|(m, b)| m.n_model_updates as usize >= b * 9 / 10 && m.n_refits == 0);
    let quadratic = observe_ratio <= 6.0;
    Report {
        id: "E32",
        title: "Incremental surrogate hot path (O(n²) observe, cached factors)",
        headers: vec![
            "campaign",
            "suggest mean",
            "observe mean",
            "refits",
            "in-place updates",
            "tuner total",
        ],
        rows,
        paper_claim: "rank-1 factor updates make per-trial surrogate cost quadratic instead of \
                      cubic, so optimizer overhead stays tractable as campaign histories grow",
        measured: format!(
            "observe mean 2000-vs-1000 budget ratio {} (~4 = quadratic, ~8 = cubic); in-place \
             updates {}/{} with {} refits",
            f(observe_ratio, 2),
            scale[1].n_model_updates,
            SCALE_BUDGETS[1],
            scale[1].n_refits,
        ),
        shape_holds: absorbed && quadratic,
    }
}
