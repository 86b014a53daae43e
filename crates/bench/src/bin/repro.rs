//! Regenerates every table and figure of the tutorial's experiment index.
//!
//! ```text
//! cargo run -p autotune-bench --release --bin repro          # all experiments
//! cargo run -p autotune-bench --release --bin repro -- e15   # one experiment
//! ```
//!
//! Exit code is non-zero when any executed experiment's shape check fails,
//! so CI can gate on reproduction quality.
//!
//! Everything printed is a function of the code: no experiment reads a
//! clock, so two runs print the same bytes at any thread count (a
//! platform whose math library rounds `exp` or `sin` differently may move
//! last digits). A full run's
//! output is checked in as `repro_output.txt`, and CI diffs a fresh run
//! against it, so any moved number, flipped shape or vanished experiment
//! shows in the commit that moved it.

use autotune_bench::all_experiments;

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let experiments = all_experiments();
    let mut ran = 0;
    let mut failed = Vec::new();
    for (key, run) in experiments {
        if !filter.is_empty() && !filter.iter().any(|f| key.starts_with(f.as_str())) {
            continue;
        }
        ran += 1;
        let report = run();
        println!("{}", report.render());
        if !report.shape_holds {
            failed.push(report.id);
        }
    }
    if ran == 0 {
        eprintln!("no experiment matches {filter:?}; available: e01..e36, ablations");
        std::process::exit(2);
    }
    println!(
        "== summary: {}/{} experiment shapes hold ==",
        ran - failed.len(),
        ran
    );
    if !failed.is_empty() {
        println!("failed: {failed:?}");
        std::process::exit(1);
    }
}
