//! DBMS knob tuning: the "4-10x higher throughput" scenario (slide 10).
//!
//! Tunes a 12-knob MySQL/PostgreSQL-flavoured simulated database under a
//! TPC-C-like workload, comparing optimizer families, then runs a knob-
//! importance analysis over the winning campaign's history (slide 68) and
//! a LlamaTune projected search (slide 62).
//!
//! Run with:
//! ```text
//! cargo run -p autotune-examples --bin dbms_tuning --release
//! ```

use autotune::{
    lasso_path, Campaign, LlamaTune, LlamaTuneConfig, Objective, OptimizerSource, SchedulePolicy,
    Target,
};
use autotune_optimizer::{BayesianOptimizer, CmaEs, Optimizer, RandomSearch, SimulatedAnnealing};
use autotune_sim::{DbmsSim, Environment, Workload};

fn make_target() -> Target {
    Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(50_000.0),
        Environment::medium(),
        Objective::MaximizeThroughput,
    )
}

fn main() {
    let budget = 60;
    println!("== DBMS knob tuning: TPC-C on a 4-core / 16 GB VM ==");
    println!("12 knobs (buffer pool, flush method, logs, threads, JIT, ...)");
    println!("objective: maximize throughput, budget {budget} trials\n");

    let target = make_target();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let default_thr = -(0..5)
        .map(|_| {
            target
                .evaluate(&target.space().default_config(), &mut rng)
                .cost
        })
        .sum::<f64>()
        / 5.0;
    println!("default-config throughput: {default_thr:.0} tps\n");

    let optimizers: Vec<(&str, Box<dyn Optimizer>)> = vec![
        (
            "random",
            Box::new(RandomSearch::new(target.space().clone())),
        ),
        (
            "anneal",
            Box::new(SimulatedAnnealing::new(
                target.space().clone(),
                2000.0,
                0.93,
            )),
        ),
        ("cma_es", Box::new(CmaEs::new(target.space().clone()))),
        (
            "smac",
            Box::new(BayesianOptimizer::smac(target.space().clone())),
        ),
        (
            "bo_gp",
            Box::new(BayesianOptimizer::gp(target.space().clone())),
        ),
        (
            "llamatune",
            Box::new(LlamaTune::new(
                target.space().clone(),
                LlamaTuneConfig::default(),
            )),
        ),
    ];

    println!(
        "{:<10} {:>12} {:>8} {:>9}",
        "method", "best_tps", "gain", "crashes"
    );
    let mut best_history: Option<(Vec<Vec<f64>>, Vec<f64>)> = None;
    let mut best_tps = 0.0;
    for (name, opt) in optimizers {
        let target = make_target();
        let source = OptimizerSource::new(opt, budget);
        let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 7)
            .with_event_log(false);
        let metrics = campaign.run();
        let storage = campaign.storage();
        let best = storage.best().expect("at least one successful trial");
        let tuned_thr = -best.cost;
        println!(
            "{:<10} {:>10.0}tps {:>7.1}x {:>9}",
            name,
            tuned_thr,
            tuned_thr / default_thr,
            metrics.n_crashed
        );
        if tuned_thr > best_tps {
            best_tps = tuned_thr;
            // Export the campaign history for importance analysis.
            let space = target.space();
            let xs: Vec<Vec<f64>> = storage
                .trials()
                .iter()
                .filter(|t| t.cost.is_finite())
                .map(|t| space.encode_unit(&t.config).expect("history encodes"))
                .collect();
            let ys: Vec<f64> = storage
                .trials()
                .iter()
                .filter(|t| t.cost.is_finite())
                .map(|t| t.cost)
                .collect();
            best_history = Some((xs, ys));
        }
    }

    if let Some((xs, ys)) = best_history {
        println!("\n== Knob importance (Lasso path over the best campaign) ==");
        let imp = lasso_path(make_target().space(), &xs, &ys);
        for (rank, (name, score)) in imp.ranking.iter().take(6).enumerate() {
            println!("  #{:<2} {:<28} score {:.3}", rank + 1, name, score);
        }
        println!("\n(Slide 68: tune the top knobs first — the rest are noise.)");
    }
}
