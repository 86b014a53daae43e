//! Pins optimizer histories to digests an earlier build wrote, not to the
//! current build run twice.
//!
//! Every row runs E36's quality arm: the DBMS target (TPC-C at 500 tps,
//! medium environment, mean latency), a fresh optimizer and a fresh target
//! per campaign, and suggest → evaluate → observe on one RNG seeded with
//! the campaign's seed. A campaign's costs, as `f64` bits in trial order,
//! hash to one FNV-64, which must equal its row of
//! `tests/fixtures/history_digests.tsv` along with the bits of its best
//! cost. The rows:
//!
//! * `BayesianOptimizer::sparse_gp` and `BayesianOptimizer::turbo` at
//!   budget 110, seeds 3603..=3612, written by the binary of commit
//!   73babd6, before the sparse GP moved onto the chained Cholesky;
//! * CMA-ES and PSO at their defaults and the GA at E22's population 10
//!   and mutation rate 0.6, same budget and seeds, and
//!   `BayesianOptimizer::smac` (BO over the random forest) at budget 40,
//!   seeds 3603..=3605, written by the binary of commit b5cdf1e, before
//!   the tuners' unset knobs became constants.
//!
//! The file is never regenerated: a change that means to move a history
//! edits that row by hand and says which and why.

use autotune::{Objective, Target};
use autotune_optimizer::{
    BayesianOptimizer, CmaEs, GaConfig, GeneticAlgorithm, Optimizer, ParticleSwarm,
};
use autotune_sim::{DbmsSim, Environment, Workload};
use autotune_space::Space;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E36's quality budget.
const BUDGET: usize = 110;
/// E36's two quality seeds and the eight after them.
const SEEDS: std::ops::RangeInclusive<u64> = 3_603..=3_612;
/// The random-forest BO's budget and seeds: a forest refit per trial makes
/// E36's 110 × 10 take over a minute in a debug build.
const SMAC_BUDGET: usize = 40;
const SMAC_SEEDS: std::ops::RangeInclusive<u64> = 3_603..=3_605;

/// A constructor of one row's optimizer.
type Make = fn(Space) -> Box<dyn Optimizer>;

/// FNV-1a over the little-endian bytes of each value's bits.
fn fnv64(xs: &[f64]) -> u64 {
    xs.iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One campaign's row: `optimizer seed budget costs_fnv64 best_cost_bits`.
fn row(name: &str, make: Make, budget: usize, seed: u64) -> String {
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(500.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    );
    let mut opt = make(target.space().clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let costs: Vec<f64> = (0..budget)
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
        "{name}\t{seed}\t{budget}\t{:016x}\t{:016x}",
        fnv64(&costs),
        best.to_bits()
    )
}

/// One optimizer's rows: its name, constructor, budget and seeds.
type Rows = (&'static str, Make, usize, std::ops::RangeInclusive<u64>);

/// Runs every row of `optimizers` and compares them, in order, with the
/// committed rows of the same optimizers.
fn check(optimizers: &[Rows]) {
    let got: Vec<String> = optimizers
        .iter()
        .flat_map(|(name, make, budget, seeds)| {
            seeds
                .clone()
                .map(move |seed| row(name, *make, *budget, seed))
        })
        .collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/history_digests.tsv");
    let file = std::fs::read_to_string(&path).expect("committed digests");
    let want: Vec<&str> = file
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            optimizers
                .iter()
                .any(|(name, ..)| l.split('\t').next() == Some(name))
        })
        .collect();
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

#[test]
fn scalable_bo_histories_match_the_parent_digests() {
    check(&[
        (
            "sparse_gp",
            |s| Box::new(BayesianOptimizer::sparse_gp(s)),
            BUDGET,
            SEEDS,
        ),
        (
            "turbo",
            |s| Box::new(BayesianOptimizer::turbo(s)),
            BUDGET,
            SEEDS,
        ),
    ]);
}

#[test]
fn model_free_and_forest_histories_match_the_parent_digests() {
    check(&[
        ("cma_es", |s| Box::new(CmaEs::new(s)), BUDGET, SEEDS),
        ("pso", |s| Box::new(ParticleSwarm::new(s)), BUDGET, SEEDS),
        (
            "ga",
            |s| {
                let config = GaConfig {
                    population: 10,
                    mutation_rate: 0.6,
                };
                Box::new(GeneticAlgorithm::new(s, config))
            },
            BUDGET,
            SEEDS,
        ),
        (
            "smac",
            |s| Box::new(BayesianOptimizer::smac(s)),
            SMAC_BUDGET,
            SMAC_SEEDS,
        ),
    ]);
}
