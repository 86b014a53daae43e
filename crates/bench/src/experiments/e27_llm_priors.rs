//! E27 (slides 63-64): LLM-derived knob priors — DB-BERT/GPTuner distill
//! manuals into biased search spaces. We tune the DBMS with and without
//! the curated "manual-derived" hint table (`autotune_sim::priors`), which
//! is exactly the artifact an LLM pass produces.

use crate::experiments::{best_so_far, dbms_target, run_on_target};
use crate::report::{f, Report};
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::priors::dbms_hinted_space;
use autotune_sim::Environment;

/// Runs the experiment.
pub fn run() -> Report {
    let budget = 25;
    let n_seeds = 6u64;
    let env = Environment::medium();

    let run = |hinted: bool, seed: u64| -> (f64, f64) {
        let target = dbms_target();
        let space = if hinted {
            dbms_hinted_space(target.space(), &env)
        } else {
            target.space().clone()
        };
        let mut opt = BayesianOptimizer::gp(space);
        let curve = best_so_far(&run_on_target(&mut opt, &target, budget, seed));
        (curve[9], curve[budget - 1])
    };

    let mut hinted10 = Vec::new();
    let mut hinted25 = Vec::new();
    let mut uniform10 = Vec::new();
    let mut uniform25 = Vec::new();
    for seed in 0..n_seeds {
        let (h10, h25) = run(true, 600 + seed);
        let (u10, u25) = run(false, 600 + seed);
        hinted10.push(h10);
        hinted25.push(h25);
        uniform10.push(u10);
        uniform25.push(u25);
    }
    let m = autotune_linalg::stats::mean;
    let rows = vec![
        vec![
            "manual-derived priors".into(),
            format!("{} ms", f(m(&hinted10), 4)),
            format!("{} ms", f(m(&hinted25), 4)),
        ],
        vec![
            "uniform space".into(),
            format!("{} ms", f(m(&uniform10), 4)),
            format!("{} ms", f(m(&uniform25), 4)),
        ],
    ];
    // Hints must accelerate the early phase and not hurt the final result.
    let shape_holds = m(&hinted10) < m(&uniform10) && m(&hinted25) <= m(&uniform25) * 1.1;
    Report {
        id: "E27",
        title: "Manual-derived knob priors (slides 63-64, DB-BERT/GPTuner)",
        headers: vec!["space", "mean best @10", "mean best @25"],
        rows,
        paper_claim:
            "knowledge extracted from manuals biases the search space and accelerates tuning",
        measured: format!(
            "@10 trials: hinted {} vs uniform {} ms; @25: {} vs {} ms",
            f(m(&hinted10), 4),
            f(m(&uniform10), 4),
            f(m(&hinted25), 4),
            f(m(&uniform25), 4)
        ),
        shape_holds,
    }
}
