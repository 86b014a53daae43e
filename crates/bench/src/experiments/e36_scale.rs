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
//!   surrogates' suggest latency must stay roughly flat in n and land
//!   ≥ 10× below the dense GP's extrapolated cost at the same n.

use crate::report::{f, Report};
use autotune_optimizer::BayesianOptimizer;
use autotune_surrogate::{
    GaussianProcess, Matern52, SparseGaussianProcess, Surrogate, TrustRegionConfig,
    TrustRegionSurrogate,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

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
/// Training-set sizes at which the scaling arm samples latency.
const SCALE_NS: [usize; 3] = [1_000, 10_000, 100_000];
/// Candidates predicted per suggest-latency sample (the model-side work
/// of one BO suggestion).
const SUGGEST_CANDIDATES: usize = 256;
/// Observes timed per observe-latency sample.
const OBSERVE_SAMPLE: usize = 64;

/// One latency sample of the scaling arm.
#[derive(Debug, Clone)]
struct ScalePoint {
    /// Surrogate family: `"dense_gp"`, `"sparse_gp"`, or `"trust_region"`.
    surrogate: &'static str,
    /// Training-set size at the sample.
    n: usize,
    /// Mean model-side nanoseconds of one suggestion (a fixed batch of
    /// 256 posterior predictions, `SUGGEST_CANDIDATES`).
    suggest_ns: f64,
    /// Mean nanoseconds of one incremental observe at this n.
    observe_ns: f64,
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

fn sample_point(rng: &mut StdRng) -> Vec<f64> {
    (0..SCALE_DIM).map(|_| rng.gen_range(0.0..1.0)).collect()
}

/// Times the model-side cost of one suggestion: predict
/// [`SUGGEST_CANDIDATES`] fresh candidates and fold the means (the fold
/// keeps the optimizer honest about using every prediction).
fn time_suggest(model: &dyn Surrogate, rng: &mut StdRng) -> f64 {
    let cands: Vec<Vec<f64>> = (0..SUGGEST_CANDIDATES).map(|_| sample_point(rng)).collect();
    let t = Instant::now();
    let mut acc = 0.0;
    for c in &cands {
        acc += model.predict(c).mean;
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    ns
}

/// Grows `model` to each size in [`SCALE_NS`] through its incremental
/// path, sampling suggest/observe latency at each checkpoint.
fn scale_arm(
    surrogate: &'static str,
    mut model: Box<dyn Surrogate>,
    max_n: usize,
) -> Vec<ScalePoint> {
    let mut rng = StdRng::seed_from_u64(3_601);
    let mut points = Vec::new();
    let mut n = 0usize;
    for &target_n in SCALE_NS.iter().filter(|&&t| t <= max_n) {
        // Grow to target_n - OBSERVE_SAMPLE untimed, then time the rest.
        let untimed = target_n - OBSERVE_SAMPLE - n;
        for _ in 0..untimed {
            let x = sample_point(&mut rng);
            let y = synthetic(&x);
            // The surrogate must absorb every point incrementally; a
            // refused observe here would silently change what is measured.
            model
                .observe(&x, y)
                .expect("scaling surrogates absorb points incrementally");
            n += 1;
        }
        let t = Instant::now();
        for _ in 0..OBSERVE_SAMPLE {
            let x = sample_point(&mut rng);
            let y = synthetic(&x);
            model
                .observe(&x, y)
                .expect("scaling surrogates absorb points incrementally");
            n += 1;
        }
        let observe_ns = t.elapsed().as_nanos() as f64 / OBSERVE_SAMPLE as f64;
        let suggest_ns = time_suggest(model.as_ref(), &mut rng);
        points.push(ScalePoint {
            surrogate,
            n,
            suggest_ns,
            observe_ns,
            extrapolated: false,
        });
    }
    points
}

fn sparse_model() -> Box<dyn Surrogate> {
    Box::new(SparseGaussianProcess::new(
        Box::new(Matern52::ard(vec![0.5; SCALE_DIM], 1.0)),
        128,
    ))
}

fn trust_region_model() -> Box<dyn Surrogate> {
    Box::new(TrustRegionSurrogate::new(
        Box::new(Matern52::ard(vec![0.5; SCALE_DIM], 1.0)),
        TrustRegionConfig {
            max_local: 128,
            ..TrustRegionConfig::default()
        },
    ))
}

/// Dense-GP latency, measured at 1k and 2k and extrapolated to 100k from
/// the fitted power law (exponent clamped to [1, 3]: prediction is
/// provably at least linear and at most cubic in n).
///
/// Each checkpoint batch-fits at `n - OBSERVE_SAMPLE` and times the last
/// [`OBSERVE_SAMPLE`] points through the O(n²) incremental path — growing
/// 2k points one observe at a time would measure the same thing far more
/// slowly.
fn dense_arm() -> Vec<ScalePoint> {
    let mut measured = Vec::new();
    let mut rng = StdRng::seed_from_u64(3_602);
    for target_n in [1_000usize, 2_000] {
        let mut model =
            GaussianProcess::new(Box::new(Matern52::ard(vec![0.5; SCALE_DIM], 1.0)), 1e-6);
        let warm = target_n - OBSERVE_SAMPLE;
        let xs: Vec<Vec<f64>> = (0..warm).map(|_| sample_point(&mut rng)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| synthetic(x)).collect();
        model
            .fit(&xs, &ys)
            .expect("synthetic design matrix is clean");
        let t = Instant::now();
        for _ in 0..OBSERVE_SAMPLE {
            let x = sample_point(&mut rng);
            let y = synthetic(&x);
            model
                .observe(&x, y)
                .expect("dense GP absorbs points incrementally");
        }
        let observe_ns = t.elapsed().as_nanos() as f64 / OBSERVE_SAMPLE as f64;
        let suggest_ns = time_suggest(&model, &mut rng);
        measured.push(ScalePoint {
            surrogate: "dense_gp",
            n: target_n,
            suggest_ns,
            observe_ns,
            extrapolated: false,
        });
    }
    let exp_of = |a: f64, b: f64| (b / a.max(1.0)).log2().clamp(1.0, 3.0);
    let s_exp = exp_of(measured[0].suggest_ns, measured[1].suggest_ns);
    let o_exp = exp_of(measured[0].observe_ns, measured[1].observe_ns);
    let scale = 100_000.0 / measured[0].n as f64;
    measured.push(ScalePoint {
        surrogate: "dense_gp",
        n: 100_000,
        suggest_ns: measured[0].suggest_ns * scale.powf(s_exp),
        observe_ns: measured[0].observe_ns * scale.powf(o_exp),
        extrapolated: true,
    });
    measured
}

/// All scaling-arm latency samples: sparse and trust-region surrogates
/// measured at n ∈ {1k, 10k, 100k}, dense GP measured at {1k, 2k} and
/// extrapolated to 100k.
fn scale_points() -> Vec<ScalePoint> {
    let mut points = dense_arm();
    points.extend(scale_arm("sparse_gp", sparse_model(), 100_000));
    points.extend(scale_arm("trust_region", trust_region_model(), 100_000));
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
            format!("suggest {} us", f(p.suggest_ns / 1e3, 1)),
            format!("observe {} us", f(p.observe_ns / 1e3, 1)),
            String::new(),
        ]);
    }

    // Shape: (a) sparse/turbo mean incumbent quality within tolerance of
    // dense over the shared quality seeds;
    // (b) at n = 100k both scalable surrogates suggest ≥ 10x below the
    // dense GP's extrapolated cost and stay within 10x of their own
    // n = 1k latency (roughly flat in n).
    let quality_holds =
        sparse_best <= dense_best * QUALITY_TOL && turbo_best <= dense_best * QUALITY_TOL;
    let scaling_holds = [sparse_100k, tr_100k]
        .iter()
        .all(|p| p.suggest_ns * 10.0 <= dense_100k.suggest_ns)
        && sparse_100k.suggest_ns <= 10.0 * sparse_1k.suggest_ns
        && tr_100k.suggest_ns <= 10.0 * tr_1k.suggest_ns;

    Report {
        id: "E36",
        title: "Scalable surrogates: sparse/trust-region GPs at 100k observations",
        headers: vec!["arm", "metric", "metric", "metric"],
        rows,
        paper_claim: "tuner overhead is the binding constraint of long campaigns: surrogates must \
                      hold suggest latency roughly flat in n without giving up tuning quality",
        measured: format!(
            "quality dense/sparse/turbo {}/{}/{}; suggest at 100k: dense (extrap) {} ms, \
             sparse {} us, trust-region {} us",
            f(dense_best, 2),
            f(sparse_best, 2),
            f(turbo_best, 2),
            f(dense_100k.suggest_ns / 1e6, 1),
            f(sparse_100k.suggest_ns / 1e3, 1),
            f(tr_100k.suggest_ns / 1e3, 1),
        ),
        shape_holds: quality_holds && scaling_holds,
    }
}
