//! E11 (slide 58): multi-objective optimization — latency vs dollar cost
//! on the DBMS target via ParEGO scalarization. The deliverable is a
//! Pareto frontier; quality is measured by 2-D hypervolume against a
//! large-budget random-search reference front.

use crate::report::{f, Report};
use autotune::{Objective, Target};
use autotune_optimizer::moo::{MultiObservation, ParEgo, ParetoFront};
use autotune_optimizer::NsgaII;
use autotune_sim::{DbmsSim, Environment, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Evaluates (latency_ms, cost_units*1000) for a config; the cost axis is
/// driven by how big a VM the config implicitly needs (buffer pool rent).
fn objectives(target: &Target, cfg: &autotune_space::Config, rng: &mut StdRng) -> Option<[f64; 2]> {
    let e = target.evaluate(cfg, rng);
    if !e.cost.is_finite() {
        return None;
    }
    // Cost model: the VM bill plus memory rent proportional to the pool.
    let pool = cfg.get_f64("buffer_pool_gb").unwrap_or(0.125);
    let cost = e.result.cost_units * 1000.0 + pool * 0.05;
    Some([e.cost, cost])
}

/// Runs the experiment.
pub fn run() -> Report {
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(500.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    );
    // Crash placeholder: far beyond anything finite observed.
    let crash_obj = [1e6, 1e6];

    // ParEGO with 60 trials.
    let mut pe = ParEgo::new(target.space().clone(), 2);
    let mut rng = StdRng::seed_from_u64(1);
    let mut all_points: Vec<[f64; 2]> = Vec::new();
    for _ in 0..60 {
        let cfg = pe.suggest(&mut rng);
        if let Some(obj) = objectives(&target, &cfg, &mut rng) {
            all_points.push(obj);
            pe.observe(&cfg, &obj);
        } else {
            pe.observe(&cfg, &crash_obj);
        }
    }

    // Reference method: random search with 3x the budget.
    let mut random_front = ParetoFront::new();
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..180 {
        let cfg = target.space().sample(&mut rng);
        if let Some(obj) = objectives(&target, &cfg, &mut rng) {
            all_points.push(obj);
            random_front.insert(MultiObservation {
                config: cfg,
                objectives: obj.to_vec(),
            });
        }
    }
    // NSGA-II at the same budget as ParEGO (60 trials).
    let mut nsga = NsgaII::new(target.space().clone(), 2);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..60 {
        let cfg = nsga.suggest(&mut rng);
        match objectives(&target, &cfg, &mut rng) {
            Some(obj) => {
                all_points.push(obj);
                nsga.observe(&cfg, &obj);
            }
            None => nsga.observe(&cfg, &crash_obj),
        }
    }

    // Hypervolume reference: 10% beyond the worst finite observation on
    // each axis, shared by all fronts.
    let reference = (
        1.1 * all_points.iter().map(|p| p[0]).fold(0.0_f64, f64::max),
        1.1 * all_points.iter().map(|p| p[1]).fold(0.0_f64, f64::max),
    );
    let parego_hv = pe.front().hypervolume_2d(reference);
    let random_hv = random_front.hypervolume_2d(reference);
    let nsga_hv = nsga.front().hypervolume_2d(reference);

    let mut rows: Vec<Vec<String>> = pe
        .front()
        .members()
        .iter()
        .map(|m| {
            vec![
                format!("{} ms", f(m.objectives[0], 4)),
                format!("{} $m", f(m.objectives[1], 4)),
                m.config
                    .get_f64("buffer_pool_gb")
                    .map_or("-".into(), |v| format!("bp={v:.2}G")),
            ]
        })
        .collect();
    rows.sort();
    rows.push(vec![
        "ParEGO hypervolume".into(),
        f(parego_hv, 2),
        format!("front size {}", pe.front().len()),
    ]);
    rows.push(vec![
        "NSGA-II hypervolume".into(),
        f(nsga_hv, 2),
        format!("front size {}", nsga.front().len()),
    ]);
    rows.push(vec![
        "random(3x) hypervolume".into(),
        f(random_hv, 2),
        format!("front size {}", random_front.len()),
    ]);

    let ratio = parego_hv / random_hv.max(1e-9);
    let shape_holds = pe.front().len() >= 3 && ratio >= 0.9 && nsga_hv >= 0.8 * random_hv;
    Report {
        id: "E11",
        title: "Multi-objective: latency vs cost Pareto front (slide 58)",
        headers: vec!["latency", "cost", "note"],
        rows,
        paper_claim: "scalarized BO (ParEGO) recovers the latency/cost trade-off frontier",
        measured: format!(
            "ParEGO HV {} / NSGA-II HV {} vs 3x-budget random HV {} (ParEGO ratio {})",
            f(parego_hv, 2),
            f(nsga_hv, 2),
            f(random_hv, 2),
            f(ratio, 2)
        ),
        shape_holds,
    }
}
