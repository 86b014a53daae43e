//! E36 (scaling challenges): surrogates that survive 100k observations.
//!
//! "Tuning the Tuner" identifies optimizer overhead as the binding
//! constraint of long campaigns: the dense GP pays O(n²) per observe and
//! O(n²) per candidate prediction, which is hopeless at the 100k
//! observations a service campaign accumulates. This experiment measures
//! both halves of the escape hatch:
//!
//! * **Quality** — on the DBMS repro target, sparse-GP and trust-region BO
//!   must match dense-GP incumbent quality within tolerance at a normal
//!   campaign budget (the approximations must not cost tuning power).
//! * **Scaling** — grown to n = 100k, the sparse and trust-region
//!   surrogates' suggest work must stay roughly flat in n and land
//!   ≥ 10× below the dense GP's extrapolated work at the same n.
//!
//! Work is counted in kernel evaluations (through `Counted`, a counting
//! kernel wrapper), not timed. A prediction evaluates the kernel once
//! per point it conditions on and then solves against those same points,
//! so the count is the size of the model a suggestion pays for, and the
//! dense/scalable ratio it gives is a lower bound on the ratio in
//! arithmetic (the solves are quadratic in that size). What a suggestion
//! costs in seconds is the benchmark's to measure.

use super::{Counted, EvalCount};
use crate::report::{f, Report};
use autotune_optimizer::BayesianOptimizer;
use autotune_surrogate::{
    GaussianProcess, SparseGaussianProcess, Surrogate, TrustRegionConfig, TrustRegionSurrogate,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Campaign budget of the quality arm.
const QUALITY_BUDGET: usize = 110;
/// Seeds of the quality arm, shared across all three surrogates. Single
/// campaigns of this budget are noisy enough that one lucky/unlucky start
/// can dominate the comparison; the arm reports the mean best incumbent.
const QUALITY_SEEDS: [u64; 2] = [3_603, 3_604];
/// Sparse/trust-region incumbent quality must stay within this factor of
/// the dense GP's (lower is better; both arms share seeds).
const QUALITY_TOL: f64 = 1.3;
/// Input dimension of the scaling arm's synthetic target.
const SCALE_DIM: usize = 6;
/// Training-set sizes at which the scaling arm counts work.
const SCALE_NS: [usize; 3] = [1_000, 10_000, 100_000];
/// Candidates predicted per suggest sample (the model-side work of one
/// BO suggestion).
const SUGGEST_CANDIDATES: usize = 256;
/// Observes counted per observe sample.
pub(crate) const OBSERVE_SAMPLE: usize = 64;

/// One work sample of the scaling arm.
#[derive(Debug, Clone)]
struct ScalePoint {
    /// Surrogate family: `"dense_gp"`, `"sparse_gp"`, or `"trust_region"`.
    surrogate: &'static str,
    /// Training-set size at the sample.
    n: usize,
    /// Kernel evaluations of one suggestion (a fixed batch of 256
    /// posterior predictions, `SUGGEST_CANDIDATES`).
    suggest_evals: f64,
    /// Mean kernel evaluations of one incremental observe at this n.
    observe_evals: f64,
    /// True for the dense GP's 100k row, which is extrapolated from its
    /// measured scaling exponent rather than run (running it would take
    /// hours — that being infeasible is the point of this experiment).
    extrapolated: bool,
}

/// Synthetic minimization target of the scaling arm: a smooth anisotropic
/// bowl with a sinusoidal ripple, cheap enough to evaluate 100k times.
fn synthetic(x: &[f64]) -> f64 {
    let mut v = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        let c = 0.2 + 0.1 * i as f64;
        v += (xi - c) * (xi - c) * (1.0 + 0.3 * i as f64);
    }
    v + 0.05 * (7.0 * x[0]).sin()
}

/// The scaling arm's observations of [`synthetic`], with the incumbent
/// tracked as a trust region tracks it. Points are uniform, or, for a
/// `directed` stream, every other one lands near the incumbent, as a
/// TuRBO campaign's suggestions do (on a uniform stream alone the trust
/// region shrinks until it holds a single point).
pub(crate) struct Stream {
    rng: StdRng,
    directed: bool,
    step: usize,
    best: Option<(Vec<f64>, f64)>,
}

impl Stream {
    pub(crate) fn new(seed: u64, directed: bool) -> Self {
        Stream {
            rng: StdRng::seed_from_u64(seed),
            directed,
            step: 0,
            best: None,
        }
    }

    /// A point inside the smallest trust region around the incumbent.
    fn near_best(&mut self) -> Vec<f64> {
        let h = TrustRegionSurrogate::MIN_RADIUS;
        let (center, _) = self
            .best
            .as_ref()
            .expect("an incumbent follows the first point");
        center
            .iter()
            .map(|c| c + self.rng.gen_range(-h..h))
            .collect()
    }

    /// The next observation.
    fn next(&mut self) -> (Vec<f64>, f64) {
        self.step += 1;
        let x = if self.directed && self.step.is_multiple_of(2) {
            self.near_best()
        } else {
            (0..SCALE_DIM)
                .map(|_| self.rng.gen_range(0.0..1.0))
                .collect()
        };
        let y = synthetic(&x);
        if self.best.as_ref().is_none_or(|(_, best)| y < *best) {
            self.best = Some((x.clone(), y));
        }
        (x, y)
    }
}

/// Kernel evaluations of the model-side work of one suggestion: predict
/// [`SUGGEST_CANDIDATES`] candidates near the incumbent, where a TuRBO
/// suggestion draws them. The dense and sparse GPs condition every
/// prediction on all their points wherever it lies; the trust region
/// models only its region.
fn suggest_evals(model: &dyn Surrogate, count: &EvalCount, stream: &mut Stream) -> f64 {
    let cands: Vec<Vec<f64>> = (0..SUGGEST_CANDIDATES)
        .map(|_| stream.near_best())
        .collect();
    let before = count.get();
    for c in &cands {
        model.predict(c);
    }
    (count.get() - before) as f64
}

/// Feeds `model` `n` observations; returns the mean kernel evaluations per
/// observe.
pub(crate) fn observe(
    model: &mut dyn Surrogate,
    count: &EvalCount,
    stream: &mut Stream,
    n: usize,
) -> f64 {
    let before = count.get();
    for _ in 0..n {
        let (x, y) = stream.next();
        // The surrogate must absorb every point incrementally; a refused
        // observe here would silently change what is counted.
        model
            .observe(&x, y)
            .expect("scaling surrogates absorb points incrementally");
    }
    (count.get() - before) as f64 / n as f64
}

/// Grows `model` to each size in [`SCALE_NS`] through its incremental
/// path, counting suggest/observe work at each checkpoint.
fn scale_arm(
    surrogate: &'static str,
    (mut model, count): (Box<dyn Surrogate>, EvalCount),
    mut stream: Stream,
) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    let mut n = 0usize;
    for target_n in SCALE_NS {
        // Grow to target_n - OBSERVE_SAMPLE, then count the rest.
        observe(
            model.as_mut(),
            &count,
            &mut stream,
            target_n - OBSERVE_SAMPLE - n,
        );
        let observe_evals = observe(model.as_mut(), &count, &mut stream, OBSERVE_SAMPLE);
        n = target_n;
        points.push(ScalePoint {
            surrogate,
            n,
            suggest_evals: suggest_evals(model.as_ref(), &count, &mut stream),
            observe_evals,
            extrapolated: false,
        });
    }
    points
}

fn sparse_model() -> (Box<dyn Surrogate>, EvalCount) {
    let (kernel, count) = Counted::matern52(SCALE_DIM);
    (Box::new(SparseGaussianProcess::new(kernel, 128)), count)
}

fn trust_region_model() -> (Box<dyn Surrogate>, EvalCount) {
    let (kernel, count) = Counted::matern52(SCALE_DIM);
    let config = TrustRegionConfig {
        max_local: 128,
        ..TrustRegionConfig::default()
    };
    (Box::new(TrustRegionSurrogate::new(kernel, config)), count)
}

/// A dense GP (on a counted kernel) fitted in one batch to the next `n`
/// points of `stream`.
pub(crate) fn dense_gp(stream: &mut Stream, n: usize) -> (GaussianProcess, EvalCount) {
    let (kernel, count) = Counted::matern52(SCALE_DIM);
    let mut model = GaussianProcess::new(kernel, 1e-6);
    let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = (0..n).map(|_| stream.next()).unzip();
    model
        .fit(&xs, &ys)
        .expect("synthetic design matrix is clean");
    (model, count)
}

/// Dense-GP work, counted at 1k and 2k and extrapolated to 100k from the
/// fitted power law (exponent clamped to [1, 3]: prediction is provably
/// at least linear and at most cubic in n).
///
/// Each checkpoint batch-fits at `n - OBSERVE_SAMPLE` and counts the last
/// [`OBSERVE_SAMPLE`] points through the incremental path — growing 2k
/// points one observe at a time would count the same thing far more
/// slowly.
fn dense_arm() -> Vec<ScalePoint> {
    let mut measured = Vec::new();
    let mut stream = Stream::new(3_602, false);
    for target_n in [1_000usize, 2_000] {
        let (mut model, count) = dense_gp(&mut stream, target_n - OBSERVE_SAMPLE);
        let observe_evals = observe(&mut model, &count, &mut stream, OBSERVE_SAMPLE);
        measured.push(ScalePoint {
            surrogate: "dense_gp",
            n: target_n,
            suggest_evals: suggest_evals(&model, &count, &mut stream),
            observe_evals,
            extrapolated: false,
        });
    }
    let exp_of = |a: f64, b: f64| (b / a.max(1.0)).log2().clamp(1.0, 3.0);
    let s_exp = exp_of(measured[0].suggest_evals, measured[1].suggest_evals);
    let o_exp = exp_of(measured[0].observe_evals, measured[1].observe_evals);
    let scale = 100_000.0 / measured[0].n as f64;
    measured.push(ScalePoint {
        surrogate: "dense_gp",
        n: 100_000,
        suggest_evals: measured[0].suggest_evals * scale.powf(s_exp),
        observe_evals: measured[0].observe_evals * scale.powf(o_exp),
        extrapolated: true,
    });
    measured
}

/// All scaling-arm work samples: sparse and trust-region surrogates
/// measured at n ∈ {1k, 10k, 100k}, dense GP measured at {1k, 2k} and
/// extrapolated to 100k.
fn scale_points() -> Vec<ScalePoint> {
    let mut points = dense_arm();
    points.extend(scale_arm(
        "sparse_gp",
        sparse_model(),
        Stream::new(3_601, false),
    ));
    points.extend(scale_arm(
        "trust_region",
        trust_region_model(),
        Stream::new(3_601, true),
    ));
    points
}

/// Finds the point for a surrogate at a given n.
fn at<'p>(points: &'p [ScalePoint], surrogate: &str, n: usize) -> &'p ScalePoint {
    points
        .iter()
        .find(|p| p.surrogate == surrogate && p.n == n)
        .expect("scale_points covers every (surrogate, n) pair")
}

/// Mean best incumbent over [`QUALITY_SEEDS`] BO campaigns on the DBMS
/// target (a fresh optimizer per seed).
fn quality_arm(make: impl Fn() -> BayesianOptimizer) -> f64 {
    let target = super::dbms_target();
    let total: f64 = QUALITY_SEEDS
        .iter()
        .map(|&seed| {
            let mut opt = make();
            super::best_of(&super::run_on_target(
                &mut opt,
                &target,
                QUALITY_BUDGET,
                seed,
            ))
        })
        .sum();
    total / QUALITY_SEEDS.len() as f64
}

/// Runs the experiment.
pub fn run() -> Report {
    let space = super::dbms_target().space().clone();
    let dense_best = quality_arm(|| BayesianOptimizer::gp(space.clone()));
    let sparse_best = quality_arm(|| BayesianOptimizer::sparse_gp(space.clone()));
    let turbo_best = quality_arm(|| BayesianOptimizer::turbo(space.clone()));

    let points = scale_points();
    let dense_100k = at(&points, "dense_gp", 100_000);
    let sparse_1k = at(&points, "sparse_gp", 1_000);
    let sparse_100k = at(&points, "sparse_gp", 100_000);
    let tr_1k = at(&points, "trust_region", 1_000);
    let tr_100k = at(&points, "trust_region", 100_000);

    let mut rows = vec![vec![
        "quality: best latency".into(),
        format!("dense {}", f(dense_best, 2)),
        format!("sparse {}", f(sparse_best, 2)),
        format!("turbo {}", f(turbo_best, 2)),
    ]];
    for p in &points {
        rows.push(vec![
            format!(
                "{} @ n={}{}",
                p.surrogate,
                p.n,
                if p.extrapolated { " (extrap)" } else { "" }
            ),
            format!("suggest {} evals", f(p.suggest_evals, 0)),
            format!("observe {} evals", f(p.observe_evals, 1)),
            String::new(),
        ]);
    }

    // Shape: (a) sparse/turbo mean incumbent quality within tolerance of
    // dense over the shared quality seeds;
    // (b) at n = 100k both scalable surrogates suggest with ≥ 10x fewer
    // kernel evaluations than the dense GP's extrapolated count and stay
    // within 10x of their own n = 1k count (roughly flat in n).
    let quality_holds =
        sparse_best <= dense_best * QUALITY_TOL && turbo_best <= dense_best * QUALITY_TOL;
    let scaling_holds = [sparse_100k, tr_100k]
        .iter()
        .all(|p| p.suggest_evals * 10.0 <= dense_100k.suggest_evals)
        && sparse_100k.suggest_evals <= 10.0 * sparse_1k.suggest_evals
        && tr_100k.suggest_evals <= 10.0 * tr_1k.suggest_evals;

    Report {
        id: "E36",
        title: "Scalable surrogates: sparse/trust-region GPs at 100k observations",
        headers: vec!["arm", "metric", "metric", "metric"],
        rows,
        paper_claim: "tuner overhead is the binding constraint of long campaigns: surrogates must \
                      hold suggest work roughly flat in n without giving up tuning quality",
        measured: format!(
            "quality dense/sparse/turbo {}/{}/{}; kernel evaluations per suggest at 100k: dense \
             (extrap) {}, sparse {}, trust-region {}",
            f(dense_best, 2),
            f(sparse_best, 2),
            f(turbo_best, 2),
            f(dense_100k.suggest_evals, 0),
            f(sparse_100k.suggest_evals, 0),
            f(tr_100k.suggest_evals, 0),
        ),
        shape_holds: quality_holds && scaling_holds,
    }
}
