//! One module per experiment of the index in `DESIGN.md`.

pub mod ablations;
pub mod e01_tuning_wins;
pub mod e02_classic_search;
pub mod e05_gp_visuals;
pub mod e06_kernels;
pub mod e07_acquisitions;
pub mod e08_surrogates;
pub mod e09_discrete;
pub mod e10_parallel;
pub mod e11_moo;
pub mod e12_multitask;
pub mod e13_constraints;
pub mod e14_structured;
pub mod e15_llamatune;
pub mod e16_multifidelity;
pub mod e17_transfer;
pub mod e18_importance;
pub mod e19_early_abort;
pub mod e20_noise;
pub mod e21_rl;
pub mod e22_ga;
pub mod e23_context;
pub mod e24_safety;
pub mod e25_wid;
pub mod e26_synth;
pub mod e27_llm_priors;
pub mod e28_profile_guided;
pub mod e29_async;
pub mod e30_faults;
pub mod e31_overhead;
pub mod e32_hotpath;
pub mod e33_serve;
pub mod e34_chaos;
pub mod e35_cache;
pub mod e36_scale;

use autotune::executor::{Campaign, OptimizerSource, SchedulePolicy};
use autotune::telemetry::WallTimer;
use autotune::{MetricsSnapshot, Objective, Target};
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use autotune_sim::{DbmsSim, Environment, RedisSim, Workload};
use autotune_space::Config;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A real wall timer for overhead attribution (core itself never reads
/// real time; the bench harness injects this).
pub(crate) struct StdTimer(Instant);

impl StdTimer {
    pub(crate) fn start() -> Self {
        StdTimer(Instant::now())
    }
}

impl WallTimer for StdTimer {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The tutorial's running example target: Redis P95 vs the scheduler knob.
pub(crate) fn redis_target() -> Target {
    Target::simulated(
        Box::new(RedisSim::new()),
        Workload::kv_cache(20_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyP95,
    )
}

/// The DBMS workhorse target (TPC-C-like, latency objective). Offered
/// load is set so decently-tuned configs serve it below saturation while
/// bad ones overload — latency then separates configurations cleanly.
pub(crate) fn dbms_target() -> Target {
    Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(500.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    )
}

/// Runs `budget` GP-BO trials over `target` under `policy` (slide 57:
/// `SyncBatch` barriers vs `AsyncSlots` refilling); returns the campaign
/// metrics and the best cost found.
pub(crate) fn run_bo_policy(
    target: &Target,
    policy: SchedulePolicy,
    budget: usize,
    seed: u64,
) -> (MetricsSnapshot, f64) {
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, budget);
    let mut campaign = Campaign::over(target, Box::new(source), policy, seed).with_event_log(false);
    let metrics = campaign.run();
    let best = campaign.storage().best().expect("a successful trial");
    (metrics, best.cost)
}

/// The ask/tell loop every experiment shares: `budget` rounds of suggest
/// → `evaluate` → observe, with the optimizer's draws and the
/// evaluation's noise interleaved on the one `rng`. `evaluate` returns the
/// cost the optimizer is told (NaN = crash) and may record whatever else
/// the experiment reads. Returns those costs in trial order.
pub(crate) fn run_campaign(
    opt: &mut dyn Optimizer,
    budget: usize,
    rng: &mut StdRng,
    mut evaluate: impl FnMut(&Config, &mut StdRng) -> f64,
) -> Vec<f64> {
    (0..budget)
        .map(|_| {
            let cfg = opt.suggest(rng);
            let cost = evaluate(&cfg, rng);
            opt.observe(&cfg, cost);
            cost
        })
        .collect()
}

/// [`run_campaign`] against `target` itself, on a fresh RNG from `seed`.
pub(crate) fn run_on_target(
    opt: &mut dyn Optimizer,
    target: &Target,
    budget: usize,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    run_campaign(opt, budget, &mut rng, |cfg, rng| {
        target.evaluate(cfg, rng).cost
    })
}

/// The best finite cost after each trial (infinite until the first).
pub(crate) fn best_so_far(costs: &[f64]) -> Vec<f64> {
    costs
        .iter()
        .scan(f64::INFINITY, |best, &cost| {
            if cost.is_finite() {
                *best = best.min(cost);
            }
            Some(*best)
        })
        .collect()
}

/// The best finite cost of a campaign (infinite when every trial crashed).
pub(crate) fn best_of(costs: &[f64]) -> f64 {
    costs
        .iter()
        .copied()
        .filter(|cost| cost.is_finite())
        .fold(f64::INFINITY, f64::min)
}

/// Mean best-so-far curve over seeds.
pub(crate) fn mean_curve(
    make_opt: impl Fn() -> Box<dyn Optimizer>,
    make_target: impl Fn() -> Target,
    budget: usize,
    seeds: std::ops::Range<u64>,
) -> Vec<f64> {
    let n = seeds.clone().count() as f64;
    let mut acc = vec![0.0; budget];
    for seed in seeds {
        let mut opt = make_opt();
        let target = make_target();
        let curve = best_so_far(&run_on_target(opt.as_mut(), &target, budget, seed));
        for (a, c) in acc.iter_mut().zip(&curve) {
            *a += c / n;
        }
    }
    acc
}

/// First index (1-based) at which a curve reaches `target`, if ever.
pub(crate) fn trials_to_reach(curve: &[f64], target: f64) -> Option<usize> {
    curve.iter().position(|&c| c <= target).map(|i| i + 1)
}
