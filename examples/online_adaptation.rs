//! Online tuning under workload drift (slides 75-84).
//!
//! An agent tunes a live database whose traffic shifts from read-only
//! (YCSB-C) to update-heavy (YCSB-A) and then to analytics (TPC-H). The
//! context-scoped Thompson bandit relearns after each detected shift, the
//! safety guardrail blocks configurations that regress the incumbent, and
//! the run is compared against every static configuration.
//!
//! Run with:
//! ```text
//! cargo run -p autotune-examples --bin online_adaptation --release
//! ```

use autotune::{static_config_cost, Objective, OnlineTuner, OnlineTunerConfig, Target};
use autotune_sim::{DbmsSim, Environment, Workload, WorkloadSchedule};

fn main() {
    println!("== Online tuning across workload shifts ==\n");
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::ycsb_c(2_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    );
    let schedule = WorkloadSchedule::new(vec![
        (80, Workload::ycsb_c(2_000.0)),
        (80, Workload::ycsb_a(2_000.0)),
        (80, Workload::tpch(2.0)),
    ]);
    println!("schedule: 80 steps YCSB-C -> 80 steps YCSB-A -> 80 steps TPC-H");
    println!("true shift points: t=80, t=160\n");

    // Candidate menu: plausible configs an offline campaign might ship.
    let base = target.space().default_config().with("buffer_pool_gb", 8.0);
    let candidates = vec![
        base.clone().with("query_cache", true), // read-optimized
        base.clone()
            .with("query_cache", false)
            .with("log_file_size_mb", 2048.0), // write-optimized
        base.clone()
            .with("jit", true)
            .with("jit_above_cost", 1e5)
            .with("io_threads", 32i64), // scan-optimized
    ];
    let labels = ["read-optimized", "write-optimized", "scan-optimized"];

    let mut tuner = OnlineTuner::new(
        candidates.clone(),
        OnlineTunerConfig {
            safety: true,
            ..Default::default()
        },
    );
    tuner.run(&target, &schedule, 240, 11);

    println!("detected shifts at: {:?}\n", tuner.detected_shifts());
    println!(
        "{:<12} {:>16} {:>16} {:>16}",
        "phase", labels[0], labels[1], labels[2]
    );
    for (phase, range) in [
        ("ycsb-c", 40..80),
        ("ycsb-a", 120..160),
        ("tpc-h", 200..240),
    ] {
        let counts: Vec<usize> = (0..3)
            .map(|arm| {
                tuner.history()[range.clone()]
                    .iter()
                    .filter(|s| s.arm == arm)
                    .count()
            })
            .collect();
        println!(
            "{:<12} {:>15}x {:>15}x {:>15}x",
            phase, counts[0], counts[1], counts[2]
        );
    }

    let online = tuner.cumulative_cost();
    println!("\ncumulative cost (lower is better):");
    println!("  online agent       : {online:.2}");
    for (label, cfg) in labels.iter().zip(&candidates) {
        let c = static_config_cost(&target, cfg, &schedule, 240, 11);
        println!("  static {:<12}: {c:.2}", label);
    }
    let guarded = tuner.history().iter().filter(|s| s.guarded).count();
    println!("\nguardrail interventions: {guarded}");
}
