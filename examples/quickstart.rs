//! Quickstart: the tutorial's running example, end to end.
//!
//! Tunes the Linux scheduler knob `sched_migration_cost_ns` (plus two
//! Redis knobs) to minimize Redis P95 tail latency, exactly as in slides
//! 26-31 — grid search, random search, and Bayesian optimization on the
//! same budget, printing the best-so-far curves side by side.
//!
//! Run with:
//! ```text
//! cargo run -p autotune-examples --bin quickstart --release
//! ```
//!
//! # serve_demo: from one campaign to a served fleet
//!
//! Each method below is one [`Campaign`]: an optimizer proposing trials
//! under the `Sequential` policy, run to its budget. When one process
//! must tune many tenants, the `autotune-serve` layer runs each as an
//! owned, snapshot-resumable campaign multiplexed over a bounded worker
//! pool — without changing any campaign's outcome (this snippet is
//! compile-checked as the `autotune_serve` crate-level doctest):
//!
//! ```text
//! use autotune_serve::{spawn_server, CampaignRegistry, CampaignSpec, SystemKind};
//!
//! let (mut client, server) = spawn_server(|| CampaignRegistry::new(4));
//! let id = client
//!     .register(&CampaignSpec::minimal("tenant-0", SystemKind::Redis, 6, 42))
//!     .unwrap();
//! client.run_all().unwrap();
//! let stats = client.stats(id).unwrap();          // per-campaign telemetry
//! let snapshot = client.snapshot(id).unwrap();    // spec + snapshot = durable tuner
//! client.shutdown().unwrap();
//! server.join().unwrap().unwrap();
//! ```
//!
//! See `workload_fleet.rs` for the registry used directly (no protocol)
//! and `crates/serve` for the scheduling and determinism contract.

use autotune::{Campaign, Objective, OptimizerSource, SchedulePolicy, Target};
use autotune_optimizer::{BayesianOptimizer, GridSearch, Optimizer, RandomSearch};
use autotune_sim::{Environment, RedisSim, Workload};

fn main() {
    let budget = 24;
    println!("== Redis tail-latency tuning (tutorial running example) ==");
    println!("knob: kernel.sched_migration_cost_ns in [1e3, 1e6] (log scale)");
    println!("objective: minimize P95 latency, budget {budget} trials\n");

    let make_target = || {
        Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(20_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        )
    };

    // Baseline: the kernel default.
    let target = make_target();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let default_cfg = target.space().default_config();
    let default_cost: f64 = (0..5)
        .map(|_| target.evaluate(&default_cfg, &mut rng).cost)
        .sum::<f64>()
        / 5.0;
    println!("kernel-default P95: {default_cost:.3} ms\n");

    let optimizers: Vec<(&str, Box<dyn Optimizer>)> = vec![
        (
            "grid",
            Box::new(GridSearch::with_budget(target.space().clone(), budget)),
        ),
        (
            "random",
            Box::new(RandomSearch::new(target.space().clone())),
        ),
        (
            "bo_gp",
            Box::new(BayesianOptimizer::gp(target.space().clone())),
        ),
    ];

    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>8}",
        "method", "best_p95", "vs_default", "bench_secs", "trials"
    );
    for (name, opt) in optimizers {
        let target = make_target();
        let source = OptimizerSource::new(opt, budget);
        let mut campaign =
            Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 42)
                .with_event_log(false);
        campaign.run();
        let storage = campaign.storage();
        let best = storage.best().expect("at least one successful trial");
        let reduction = 100.0 * (1.0 - best.cost / default_cost);
        println!(
            "{:<8} {:>8.3}ms {:>9.1}% {:>11.0}s {:>8}",
            name,
            best.cost,
            reduction,
            storage.total_elapsed_s(),
            budget
        );
        if name == "bo_gp" {
            println!("\nBO convergence (best-so-far P95 per trial):");
            let convergence = storage.convergence_curve();
            for (i, c) in convergence.iter().enumerate() {
                if i % 4 == 0 || i + 1 == convergence.len() {
                    println!("  trial {:>2}: {:.3} ms", i + 1, c);
                }
            }
            println!("\nbest config: {}", best.config);
        }
    }
}
