//! E13 (slide 60): constrained optimization — MySQL's
//! `chunk_size * instances <= buffer_pool_size` as a black-box constraint.
//! The sampler must never propose infeasible configurations, and BO must
//! still find the feasible optimum.

use crate::experiments::{best_of, dbms_target, run_campaign};
use crate::report::{f, Report};
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment.
pub fn run() -> Report {
    let target = dbms_target();
    let space = target.space().clone();

    // 1. Feasibility of suggestions across the whole campaign.
    let mut opt = BayesianOptimizer::gp(space.clone());
    let mut rng = StdRng::seed_from_u64(1);
    let budget = 40;
    let mut infeasible = 0;
    let costs = run_campaign(&mut opt, budget, &mut rng, |cfg, rng| {
        if !space.is_feasible(cfg) {
            infeasible += 1;
        }
        target.evaluate(cfg, rng).cost
    });
    let best = best_of(&costs);

    // 2. The best config respects the constraint with margin data shown.
    let best_cfg = opt.best().expect("campaign ran").config.clone();
    let chunk = best_cfg.get_f64("buffer_pool_chunk_gb").unwrap_or(0.0);
    let inst = best_cfg.get_i64("buffer_pool_instances").unwrap_or(1) as f64;
    let pool = best_cfg.get_f64("buffer_pool_gb").unwrap_or(0.0);

    // 3. Random sampling feasibility (the rejection sampler at work).
    let mut sample_violations = 0;
    for _ in 0..500 {
        if !space.is_feasible(&space.sample(&mut rng)) {
            sample_violations += 1;
        }
    }

    let rows = vec![
        vec!["suggestions".into(), budget.to_string()],
        vec!["infeasible suggestions".into(), infeasible.to_string()],
        vec![
            "sampler violations /500".into(),
            sample_violations.to_string(),
        ],
        vec!["best latency".into(), format!("{} ms", f(best, 4))],
        vec![
            "best config constraint".into(),
            format!(
                "{chunk:.2} x {inst:.0} = {:.2} <= {pool:.2} GB",
                chunk * inst
            ),
        ],
    ];
    let shape_holds = infeasible == 0
        && sample_violations == 0
        && chunk * inst <= pool + 1e-9
        && best.is_finite();
    Report {
        id: "E13",
        title: "Constrained search: chunk*instances <= pool (slide 60)",
        headers: vec!["quantity", "value"],
        rows,
        paper_claim: "constraint-aware search never proposes infeasible configs and still optimizes",
        measured: format!(
            "0 expected violations, got {infeasible} (BO) / {sample_violations} (sampler); best {} ms",
            f(best, 4)
        ),
        shape_holds,
    }
}
