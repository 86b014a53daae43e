//! Pins the scalable Bayesian optimisers' histories to digests an earlier
//! build wrote, not to the current build run twice.
//!
//! `BayesianOptimizer::sparse_gp` and `BayesianOptimizer::turbo` run E36's
//! quality arm: the DBMS target (TPC-C at 500 tps, medium environment,
//! mean latency), budget 110, seeds 3603..=3612, a fresh optimizer and a
//! fresh target per campaign, and suggest → evaluate → observe on one RNG
//! seeded with the campaign's seed. A campaign's costs, as `f64` bits in
//! trial order, hash to one FNV-64, which must equal its row of
//! `tests/fixtures/history_digests.tsv` along with the bits of its best
//! cost. The file was written by the binary of commit 73babd6, before the
//! sparse GP moved onto the chained Cholesky, and is never regenerated: a
//! change that means to move a history edits that row by hand and says
//! which and why.

use autotune::{Objective, Target};
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use autotune_sim::{DbmsSim, Environment, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E36's quality budget.
const BUDGET: usize = 110;
/// E36's two quality seeds and the eight after them.
const SEEDS: std::ops::RangeInclusive<u64> = 3_603..=3_612;

/// FNV-1a over the little-endian bytes of each value's bits.
fn fnv64(xs: &[f64]) -> u64 {
    xs.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One campaign's row: `optimizer seed budget costs_fnv64 best_cost_bits`.
fn row(name: &str, make: fn(autotune_space::Space) -> BayesianOptimizer, seed: u64) -> String {
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(500.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    );
    let mut opt = make(target.space().clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let costs: Vec<f64> = (0..BUDGET)
        .map(|_| {
            let cfg = opt.suggest(&mut rng);
            let cost = target.evaluate(&cfg, &mut rng).cost;
            opt.observe(&cfg, cost);
            cost
        })
        .collect();
    let best = costs
        .iter()
        .copied()
        .filter(|c| c.is_finite())
        .fold(f64::INFINITY, f64::min);
    format!(
        "{name}\t{seed}\t{BUDGET}\t{:016x}\t{:016x}",
        fnv64(&costs),
        best.to_bits()
    )
}

#[test]
fn scalable_bo_histories_match_the_parent_digests() {
    let optimizers: [(&str, fn(_) -> _); 2] = [
        ("sparse_gp", BayesianOptimizer::sparse_gp),
        ("turbo", BayesianOptimizer::turbo),
    ];
    let got: Vec<String> = optimizers
        .iter()
        .flat_map(|&(name, make)| SEEDS.map(move |seed| row(name, make, seed)))
        .collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/history_digests.tsv");
    let file = std::fs::read_to_string(&path).expect("committed digests");
    let want: Vec<&str> = file.lines().filter(|l| !l.starts_with('#')).collect();
    let moved: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(got, want)| got != *want)
        .map(|(got, want)| format!("  {want}\n→ {got}"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == want.len(),
        "{} of {} histories differ from {} ({} rows committed):\n{}\nevery row as this build \
         computes it:\n{}",
        moved.len(),
        got.len(),
        path.display(),
        want.len(),
        moved.join("\n"),
        got.join("\n")
    );
}
