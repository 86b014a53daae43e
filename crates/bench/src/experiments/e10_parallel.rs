//! E10 (slide 57): parallel optimization — batch suggestion with the
//! constant liar. Same total trial budget at batch sizes 1/4/8: wall-clock
//! drops with batch size while solution quality stays comparable, and the
//! batches remain diverse.

use crate::experiments::{redis_target, run_bo_policy, run_campaign};
use crate::report::{f, Report};
use autotune::SchedulePolicy;
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment.
pub fn run() -> Report {
    let total = 32;
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for &k in &[1usize, 4, 8] {
        // Average over a few seeds.
        let mut wall = 0.0;
        let mut machine = 0.0;
        let mut best = 0.0;
        let n_seeds = 5;
        for seed in 0..n_seeds {
            let policy = SchedulePolicy::SyncBatch { k };
            let (s, best_cost) = run_bo_policy(&redis_target(), policy, total, 77 + seed);
            wall += s.wall_clock_s / n_seeds as f64;
            machine += s.machine_seconds() / n_seeds as f64;
            best += best_cost / n_seeds as f64;
        }
        rows.push(vec![
            format!("{k}"),
            format!("{} ms", f(best, 3)),
            format!("{wall:.0} s"),
            format!("{machine:.0} s"),
        ]);
        results.push((k, best, wall));
    }
    // Batch diversity: minimum pairwise distance within one suggested batch.
    let target = redis_target();
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let mut rng = StdRng::seed_from_u64(5);
    run_campaign(&mut opt, 10, &mut rng, |c, rng| {
        target.evaluate(c, rng).cost
    });
    let batch = opt.suggest_batch(8, &mut rng);
    let mut min_dist = f64::INFINITY;
    for i in 0..batch.len() {
        for j in (i + 1)..batch.len() {
            let a = target.space().encode_unit(&batch[i]).expect("encodes");
            let b = target.space().encode_unit(&batch[j]).expect("encodes");
            min_dist = min_dist.min(autotune_linalg::squared_distance(&a, &b).sqrt());
        }
    }
    rows.push(vec![
        "min batch dist (k=8)".into(),
        f(min_dist, 4),
        String::new(),
        String::new(),
    ]);

    let (_, best1, wall1) = results[0];
    let (_, best8, wall8) = results[2];
    let shape_holds = wall8 < wall1 * 0.25 && best8 < best1 * 1.5 && min_dist > 1e-6;
    Report {
        id: "E10",
        title: "Parallel optimization with constant liar (slide 57)",
        headers: vec!["batch k", "best P95", "wall clock", "machine secs"],
        rows,
        paper_claim:
            "k-way batches cut wall-clock ~k-fold at comparable quality; liar keeps batches diverse",
        measured: format!(
            "k=8 wall {} vs k=1 {} s; quality {} vs {} ms; min batch distance {}",
            f(wall8, 0),
            f(wall1, 0),
            f(best8, 3),
            f(best1, 3),
            f(min_dist, 4)
        ),
        shape_holds,
    }
}
