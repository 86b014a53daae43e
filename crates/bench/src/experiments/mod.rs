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
use autotune::{MetricsSnapshot, Objective, Target, Trial};
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use autotune_sim::{DbmsSim, Environment, RedisSim, Workload};
use autotune_space::Config;
use autotune_surrogate::{Kernel, Matern52};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Kernel evaluations so far, shared by a [`Counted`] kernel and its
/// clones: the unit of surrogate work E32 and E36 report. A count is a
/// function of the code and the seed alone, so it reads the same on every
/// machine; what the work costs in seconds is the benchmark's to measure.
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalCount(Arc<AtomicU64>);

impl EvalCount {
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A kernel that counts every covariance it computes. Each value is the
/// wrapped kernel's, bit for bit.
#[derive(Debug)]
pub(crate) struct Counted {
    inner: Box<dyn Kernel>,
    count: EvalCount,
}

impl Counted {
    /// A Matérn-5/2 ARD kernel (every lengthscale 0.5, signal 1.0, as BO
    /// uses) over `dim` inputs, and the count its evaluations go to.
    pub(crate) fn matern52(dim: usize) -> (Box<dyn Kernel>, EvalCount) {
        let count = EvalCount::default();
        let kernel = Counted {
            inner: Box::new(Matern52::ard(vec![0.5; dim], 1.0)),
            count: count.clone(),
        };
        (Box::new(kernel), count)
    }

    fn add(&self, n: usize) {
        self.count.0.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl Kernel for Counted {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.add(1);
        self.inner.eval(a, b)
    }

    fn diag(&self, x: &[f64]) -> f64 {
        self.add(1);
        self.inner.diag(x)
    }

    fn eval_many(&self, xs: &[f64], stride: usize, b: &[f64], out: &mut [f64]) {
        self.add(out.len());
        self.inner.eval_many(xs, stride, b, out);
    }

    fn params(&self) -> Vec<f64> {
        self.inner.params()
    }

    fn set_params(&mut self, p: &[f64]) {
        self.inner.set_params(p);
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(Counted {
            inner: self.inner.clone_box(),
            count: self.count.clone(),
        })
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
/// `SyncBatch` barriers vs `AsyncSlots` refilling; `Sequential` for a
/// plain tuning run); returns the campaign metrics and the best trial.
pub(crate) fn run_bo_policy(
    target: &Target,
    policy: SchedulePolicy,
    budget: usize,
    seed: u64,
) -> (MetricsSnapshot, Trial) {
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, budget);
    let mut campaign = Campaign::over(target, Box::new(source), policy, seed).with_event_log(false);
    let metrics = campaign.run();
    let best = campaign.storage().best().expect("a successful trial");
    (metrics, best.clone())
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

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_surrogate::{GaussianProcess, Surrogate};

    #[test]
    fn a_counted_kernel_is_its_kernel_bit_for_bit_and_counts_each_evaluation() {
        let (counted, count) = Counted::matern52(2);
        let plain = Matern52::ard(vec![0.5; 2], 1.0);
        let (a, b) = ([0.1, 0.7], [0.4, -0.2]);
        assert_eq!(counted.eval(&a, &b).to_bits(), plain.eval(&a, &b).to_bits());
        assert_eq!(counted.diag(&a).to_bits(), plain.diag(&a).to_bits());
        // Three points stored dimension-major.
        let xs = [0.1, 0.5, 0.9, 0.3, 0.0, -0.4];
        let (mut got, mut want) = ([0.0; 3], [0.0; 3]);
        counted.eval_many(&xs, 3, &b, &mut got);
        plain.eval_many(&xs, 3, &b, &mut want);
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        assert_eq!(count.get(), 1 + 1 + 3);
        // A clone counts into the same total.
        counted.clone_box().eval(&a, &b);
        assert_eq!(count.get(), 6);
    }

    #[test]
    fn a_gp_prediction_evaluates_the_kernel_once_per_point_and_once_at_the_candidate() {
        let (kernel, count) = Counted::matern52(1);
        let mut gp = GaussianProcess::new(kernel, 1e-6);
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        gp.fit(&xs, &ys).expect("distinct points");
        let before = count.get();
        gp.predict(&[0.55]);
        assert_eq!(count.get() - before, 11);
    }
}
