//! E14 (slide 61): structured search spaces — when PostgreSQL's `jit=off`,
//! the JIT sub-knobs are meaningless; more generally, whole families of
//! knobs activate only under a parent setting (storage engine, JIT,
//! replication mode). A conditional space collapses every inactive branch
//! onto its defaults, so the surrogate models ~5 live dimensions instead
//! of 14; a flat space smears the same information across every dead
//! dimension.

use crate::experiments::{best_of, run_campaign};
use crate::report::{f, Report};
use autotune_optimizer::BayesianOptimizer;
use autotune_space::{Condition, Config, Param, Space, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHILDREN: usize = 4;

/// Engine-choice objective: engine "a" can win but only with its four
/// sub-knobs tuned; engines "b" and "c" are flat mediocre/bad. Plus one
/// always-active knob.
fn objective(c: &Config) -> f64 {
    let wm = c.get_f64("work_mem").expect("always active");
    let base = (wm - 0.7).powi(2);
    match c.get_str("engine").expect("always active") {
        "a" => {
            let mut miss = 0.05;
            for i in 0..CHILDREN {
                let v = c.get_f64(&format!("a_knob{i}")).unwrap_or(0.5);
                miss += 0.4 * (v - 0.3).powi(2);
            }
            base + miss
        }
        "b" => base + 0.3,
        _ => base + 0.5,
    }
}

fn build_space(conditional: bool) -> Space {
    let mut b = Space::builder()
        .add(Param::float("work_mem", 0.0, 1.0))
        .add(Param::categorical("engine", &["a", "b", "c"]));
    for engine in ["a", "b", "c"] {
        for i in 0..CHILDREN {
            b = b.add(Param::float(format!("{engine}_knob{i}"), 0.0, 1.0));
        }
    }
    if conditional {
        for engine in ["a", "b", "c"] {
            for i in 0..CHILDREN {
                b = b.condition(Condition::equals(
                    format!("{engine}_knob{i}"),
                    "engine",
                    Value::Cat(engine.to_string()),
                ));
            }
        }
    }
    b.build().expect("valid space")
}

/// Runs the experiment.
pub fn run() -> Report {
    let budget = 35;
    let n_seeds = 12;
    let run_space = |conditional: bool, seed: u64| -> f64 {
        let mut opt = BayesianOptimizer::smac(build_space(conditional));
        let mut rng = StdRng::seed_from_u64(seed);
        best_of(&run_campaign(&mut opt, budget, &mut rng, |c, _| {
            objective(c)
        }))
    };
    let mut cond_best = Vec::new();
    let mut flat_best = Vec::new();
    for seed in 0..n_seeds {
        cond_best.push(run_space(true, 100 + seed));
        flat_best.push(run_space(false, 100 + seed));
    }
    let cond_mean = autotune_linalg::stats::mean(&cond_best);
    let flat_mean = autotune_linalg::stats::mean(&flat_best);
    let cond_wins = cond_best
        .iter()
        .zip(&flat_best)
        .filter(|(c, f)| c <= f)
        .count();

    let rows = vec![
        vec![
            "conditional (14 knobs, ~6 live)".into(),
            f(cond_mean, 4),
            f(autotune_linalg::stats::median(&cond_best), 4),
        ],
        vec![
            "flat (14 knobs)".into(),
            f(flat_mean, 4),
            f(autotune_linalg::stats::median(&flat_best), 4),
        ],
        vec![
            "conditional wins".into(),
            format!("{cond_wins}/{n_seeds} seeds"),
            String::new(),
        ],
    ];
    let shape_holds = cond_mean <= flat_mean && cond_wins * 2 >= n_seeds as usize;
    Report {
        id: "E14",
        title: "Structured (conditional) space: engine + sub-knobs (slide 61)",
        headers: vec!["space", "mean best @35", "median"],
        rows,
        paper_claim: "exploiting knob dependence structure improves trials-to-optimum",
        measured: format!(
            "conditional {} vs flat {} (conditional wins {cond_wins}/{n_seeds})",
            f(cond_mean, 4),
            f(flat_mean, 4)
        ),
        shape_holds,
    }
}
