//! E1 (slide 10): why tune — "properly tuned database systems can achieve
//! 4-10x higher throughput" and "68 % reduction in P95 latency for Redis"
//! from tuning kernel scheduler parameters.

use crate::experiments::{redis_target, run_bo_policy};
use crate::report::{f, Report};
use autotune::executor::{Campaign, OptimizerSource, SchedulePolicy};
use autotune::{Objective, Target};
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::{DbmsSim, Environment, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment.
pub fn run() -> Report {
    // --- DBMS throughput: default vs tuned ---
    let dbms = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(50_000.0),
        Environment::medium(),
        Objective::MaximizeThroughput,
    );
    let mut rng = StdRng::seed_from_u64(0);
    let default_thr = -(0..5)
        .map(|_| dbms.evaluate(&dbms.space().default_config(), &mut rng).cost)
        .sum::<f64>()
        / 5.0;
    let mut opt = BayesianOptimizer::smac(dbms.space().clone());
    let source = OptimizerSource::new(&mut opt, 80);
    let mut campaign = Campaign::over(&dbms, Box::new(source), SchedulePolicy::Sequential, 1)
        .with_event_log(false);
    campaign.run();
    let best = campaign.storage().best().expect("tuning campaign succeeds");
    let tuned_thr = -best.cost;
    let gain = tuned_thr / default_thr;

    // --- Redis P95: kernel default vs tuned scheduler knob ---
    let redis = redis_target();
    let mut rng = StdRng::seed_from_u64(2);
    let default_p95 = (0..8)
        .map(|_| {
            redis
                .evaluate(&redis.space().default_config(), &mut rng)
                .cost
        })
        .sum::<f64>()
        / 8.0;
    let (_, tuned) = run_bo_policy(&redis, SchedulePolicy::Sequential, 40, 3);
    let reduction = 100.0 * (1.0 - tuned.cost / default_p95);

    let shape_holds = (3.0..=20.0).contains(&gain) && (40.0..=85.0).contains(&reduction);
    Report {
        id: "E1",
        title: "Why tune? (slide 10)",
        headers: vec!["system", "metric", "default", "tuned", "improvement"],
        rows: vec![
            vec![
                "dbms/tpc-c".into(),
                "throughput".into(),
                format!("{default_thr:.0} tps"),
                format!("{tuned_thr:.0} tps"),
                format!("{gain:.1}x"),
            ],
            vec![
                "redis/kv".into(),
                "P95 latency".into(),
                format!("{} ms", f(default_p95, 2)),
                format!("{} ms", f(tuned.cost, 2)),
                format!("-{reduction:.0}%"),
            ],
        ],
        paper_claim: "4-10x higher DB throughput; 68% P95 latency reduction for Redis",
        measured: format!("{gain:.1}x throughput; {reduction:.0}% P95 reduction"),
        shape_holds,
    }
}
