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

/// Runs an ask/tell campaign and returns the best-so-far curve.
pub(crate) fn run_campaign(
    opt: &mut dyn Optimizer,
    target: &Target,
    budget: usize,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = f64::INFINITY;
    let mut curve = Vec::with_capacity(budget);
    for _ in 0..budget {
        let cfg = opt.suggest(&mut rng);
        let e = target.evaluate(&cfg, &mut rng);
        opt.observe(&cfg, e.cost);
        if e.cost.is_finite() {
            best = best.min(e.cost);
        }
        curve.push(best);
    }
    curve
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
        let curve = run_campaign(opt.as_mut(), &target, budget, seed);
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
