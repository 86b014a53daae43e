//! E8 (slide 50): other models for black-box optimization — GP-BO vs
//! SMAC's random forest vs CMA-ES vs PSO vs random, on the 12-knob DBMS
//! target (categoricals + conditionals, where forests are expected to be
//! competitive).

use crate::experiments::{dbms_target, mean_curve};
use crate::report::{f, Report};
use autotune_optimizer::{BayesianOptimizer, CmaEs, Optimizer, ParticleSwarm, RandomSearch};

/// Runs the experiment.
pub fn run() -> Report {
    let budget = 50;
    let seeds = 0..8u64;
    let space = || dbms_target().space().clone();
    type MethodFactory = Box<dyn Fn() -> Box<dyn Optimizer>>;
    let methods: Vec<(&str, MethodFactory)> = vec![
        (
            "random",
            Box::new(move || Box::new(RandomSearch::new(dbms_target().space().clone()))),
        ),
        (
            "bo_gp",
            Box::new(move || Box::new(BayesianOptimizer::gp(space()))),
        ),
        (
            "smac_rf",
            Box::new(move || Box::new(BayesianOptimizer::smac(dbms_target().space().clone()))),
        ),
        (
            "cma_es",
            Box::new(move || Box::new(CmaEs::new(dbms_target().space().clone()))),
        ),
        (
            "pso",
            Box::new(move || Box::new(ParticleSwarm::new(dbms_target().space().clone()))),
        ),
    ];
    let mut rows = Vec::new();
    let mut finals = Vec::new();
    for (name, make) in &methods {
        let curve = mean_curve(|| make(), dbms_target, budget, seeds.clone());
        rows.push(vec![
            name.to_string(),
            format!("{} ms", f(curve[24], 4)),
            format!("{} ms", f(curve[budget - 1], 4)),
        ]);
        finals.push((name.to_string(), curve[budget - 1]));
    }
    let get = |n: &str| finals.iter().find(|(m, _)| m == n).expect("method ran").1;
    let random = get("random");
    let model_best = get("bo_gp").min(get("smac_rf"));
    let shape_holds = model_best < random && get("smac_rf") < random * 1.02;
    Report {
        id: "E8",
        title: "Surrogate families on the DBMS target (slide 50)",
        headers: vec!["method", "best@25", "best@50"],
        rows,
        paper_claim: "model-guided methods beat random; RF (SMAC) handles hybrid spaces well",
        measured: format!(
            "best model-guided {} ms vs random {} ms",
            f(model_best, 4),
            f(random, 4)
        ),
        shape_holds,
    }
}
