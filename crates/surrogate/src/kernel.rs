//! Covariance (kernel) functions for Gaussian-process surrogates.
//!
//! Tutorial slides 43-44: the kernel encodes the smoothness assumptions of
//! the surrogate. RBF is infinitely smooth (and scikit-learn's default);
//! Matérn with ν ∈ {1/2, 3/2, 5/2} relaxes that and is "the most popular
//! kernel nowadays"; kernels compose by sum and product.
//!
//! All kernels here expose their hyperparameters through
//! [`Kernel::params`] / [`Kernel::set_params`] in **log space**, so the
//! marginal-likelihood optimizer in [`crate::GaussianProcess`] can search
//! multiplicative scales additively.

use std::fmt::Debug;

/// A positive-definite covariance function.
pub trait Kernel: Send + Sync + Debug {
    /// Covariance `k(a, b)`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Prior variance at a point, `k(x, x)`.
    fn diag(&self, x: &[f64]) -> f64 {
        self.eval(x, x)
    }

    /// `out[j] = k(x_j, b)` for `out.len()` points stored dimension-major
    /// in `xs`: coordinate `d` of point `j` at `xs[d * stride + j]`, for
    /// `d < b.len()`.
    ///
    /// Every value is bit for bit what [`Kernel::eval`] returns. The
    /// default gathers each point and calls `eval`; the stationary kernels
    /// run the same arithmetic across all points at once.
    fn eval_many(&self, xs: &[f64], stride: usize, b: &[f64], out: &mut [f64]) {
        let mut point = vec![0.0; b.len()];
        for (j, o) in out.iter_mut().enumerate() {
            for (d, p) in point.iter_mut().enumerate() {
                *p = xs[d * stride + j];
            }
            *o = self.eval(&point, b);
        }
    }

    /// Hyperparameters in log space (e.g. `ln(lengthscale)`,
    /// `ln(signal_std)`), in a fixed documented order per kernel.
    fn params(&self) -> Vec<f64>;

    /// Replaces the hyperparameters (log space, same order as
    /// [`Kernel::params`]).
    ///
    /// # Panics
    /// Panics if `p.len()` does not match the kernel's parameter count.
    fn set_params(&mut self, p: &[f64]);

    /// Clones into a boxed trait object (kernels are cheap value types).
    fn clone_box(&self) -> Box<dyn Kernel>;
}

impl Clone for Box<dyn Kernel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Scaled distance `r = ||a - b|| / l` for isotropic kernels, or the ARD
/// equivalent with per-dimension lengthscales.
fn scaled_distance(a: &[f64], b: &[f64], lengthscales: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "kernel: point dimension mismatch");
    let mut s = 0.0;
    if lengthscales.len() == 1 {
        let l = lengthscales[0];
        for (&x, &y) in a.iter().zip(b) {
            let d = (x - y) / l;
            s += d * d;
        }
    } else {
        debug_assert_eq!(
            a.len(),
            lengthscales.len(),
            "ARD kernel: lengthscale count must match dimension"
        );
        for ((&x, &y), &l) in a.iter().zip(b).zip(lengthscales) {
            let d = (x - y) / l;
            s += d * d;
        }
    }
    s.sqrt()
}

/// [`scaled_distance`] from each of the dimension-major points of
/// [`Kernel::eval_many`] to `b`, with the same operations in the same
/// order per point, one dimension at a time across all points.
fn scaled_distances(xs: &[f64], stride: usize, b: &[f64], lengthscales: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    let m = out.len();
    let mut add = |d: usize, y: f64, l: f64| {
        for (s, &x) in out.iter_mut().zip(&xs[d * stride..d * stride + m]) {
            let t = (x - y) / l;
            *s += t * t;
        }
    };
    if lengthscales.len() == 1 {
        for (d, &y) in b.iter().enumerate() {
            add(d, y, lengthscales[0]);
        }
    } else {
        for (d, (&y, &l)) in b.iter().zip(lengthscales).enumerate() {
            add(d, y, l);
        }
    }
    for s in out.iter_mut() {
        *s = s.sqrt();
    }
}

macro_rules! stationary_kernel {
    ($(#[$doc:meta])* $name:ident, $profile:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            /// Lengthscales: one entry (isotropic) or one per dimension (ARD).
            pub lengthscales: Vec<f64>,
            /// Signal standard deviation (output scale).
            pub signal_std: f64,
        }

        impl $name {
            /// Isotropic kernel with a single lengthscale.
            pub fn isotropic(lengthscale: f64, signal_std: f64) -> Self {
                assert!(lengthscale > 0.0 && signal_std > 0.0, "kernel scales must be positive");
                Self { lengthscales: vec![lengthscale], signal_std }
            }

            /// ARD kernel with one lengthscale per input dimension.
            pub fn ard(lengthscales: Vec<f64>, signal_std: f64) -> Self {
                assert!(!lengthscales.is_empty(), "ARD kernel needs at least one lengthscale");
                assert!(lengthscales.iter().all(|&l| l > 0.0) && signal_std > 0.0,
                        "kernel scales must be positive");
                Self { lengthscales, signal_std }
            }
        }

        impl Kernel for $name {
            fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
                let r = scaled_distance(a, b, &self.lengthscales);
                let profile: fn(f64) -> f64 = $profile;
                self.signal_std * self.signal_std * profile(r)
            }

            fn eval_many(&self, xs: &[f64], stride: usize, b: &[f64], out: &mut [f64]) {
                scaled_distances(xs, stride, b, &self.lengthscales, out);
                let profile: fn(f64) -> f64 = $profile;
                for r in out.iter_mut() {
                    *r = self.signal_std * self.signal_std * profile(*r);
                }
            }

            fn params(&self) -> Vec<f64> {
                let mut p: Vec<f64> = self.lengthscales.iter().map(|l| l.ln()).collect();
                p.push(self.signal_std.ln());
                p
            }

            fn set_params(&mut self, p: &[f64]) {
                assert_eq!(p.len(), self.lengthscales.len() + 1,
                           "wrong parameter count for kernel");
                for (l, &lp) in self.lengthscales.iter_mut().zip(p) {
                    *l = lp.exp();
                }
                self.signal_std = p[p.len() - 1].exp();
            }

            fn clone_box(&self) -> Box<dyn Kernel> {
                Box::new(self.clone())
            }
        }
    };
}

stationary_kernel!(
    /// Radial basis function (squared exponential):
    /// `k(r) = s^2 exp(-r^2 / 2)` with `r = ||a-b||/l`.
    ///
    /// Infinitely differentiable — often *too* smooth for system response
    /// surfaces with cliffs (tutorial slide 43).
    Rbf,
    |r| (-0.5 * r * r).exp()
);

stationary_kernel!(
    /// Matérn ν = 1/2 (a.k.a. exponential / Ornstein-Uhlenbeck):
    /// `k(r) = s^2 exp(-r)`. Very rough sample paths.
    Matern12,
    |r| (-r).exp()
);

stationary_kernel!(
    /// Matérn ν = 3/2: `k(r) = s^2 (1 + √3 r) exp(-√3 r)`.
    Matern32,
    |r| {
        let t = 3f64.sqrt() * r;
        (1.0 + t) * (-t).exp()
    }
);

stationary_kernel!(
    /// Matérn ν = 5/2: `k(r) = s^2 (1 + √5 r + 5r²/3) exp(-√5 r)`.
    ///
    /// The workhorse choice for systems tuning: twice differentiable but
    /// not implausibly smooth.
    Matern52,
    |r| {
        let t = 5f64.sqrt() * r;
        (1.0 + t + t * t / 3.0) * (-t).exp()
    }
);

/// Constant kernel `k(a, b) = c` — composes with others to add a bias term.
#[derive(Debug, Clone)]
pub struct ConstantKernel {
    /// The constant covariance (must be positive).
    pub value: f64,
}

impl ConstantKernel {
    /// Creates a constant kernel.
    pub fn new(value: f64) -> Self {
        assert!(value > 0.0, "constant kernel value must be positive");
        ConstantKernel { value }
    }
}

impl Kernel for ConstantKernel {
    fn eval(&self, _a: &[f64], _b: &[f64]) -> f64 {
        self.value
    }
    fn params(&self) -> Vec<f64> {
        vec![self.value.ln()]
    }
    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 1, "constant kernel has one parameter");
        self.value = p[0].exp();
    }
    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

/// Linear (dot-product) kernel `k(a, b) = s^2 (a·b)`, for globally linear
/// trends.
#[derive(Debug, Clone)]
pub struct LinearKernel {
    /// Output scale.
    pub signal_std: f64,
}

impl LinearKernel {
    /// Creates a linear kernel.
    pub fn new(signal_std: f64) -> Self {
        assert!(signal_std > 0.0, "kernel scale must be positive");
        LinearKernel { signal_std }
    }
}

impl Kernel for LinearKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.signal_std * self.signal_std * a.iter().zip(b).map(|(&x, &y)| x * y).sum::<f64>()
    }
    fn params(&self) -> Vec<f64> {
        vec![self.signal_std.ln()]
    }
    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 1, "linear kernel has one parameter");
        self.signal_std = p[0].exp();
    }
    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

/// Periodic kernel `k(a,b) = s^2 exp(-2 sin²(π ||a-b|| / p) / l²)` for
/// diurnal/cyclic workload structure.
#[derive(Debug, Clone)]
pub struct PeriodicKernel {
    /// Period length.
    pub period: f64,
    /// Lengthscale inside one period.
    pub lengthscale: f64,
    /// Output scale.
    pub signal_std: f64,
}

impl PeriodicKernel {
    /// Creates a periodic kernel.
    pub fn new(period: f64, lengthscale: f64, signal_std: f64) -> Self {
        assert!(
            period > 0.0 && lengthscale > 0.0 && signal_std > 0.0,
            "kernel scales must be positive"
        );
        PeriodicKernel {
            period,
            lengthscale,
            signal_std,
        }
    }
}

impl Kernel for PeriodicKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let d = crate::kernel::scaled_distance(a, b, &[1.0]);
        let s = (std::f64::consts::PI * d / self.period).sin();
        self.signal_std
            * self.signal_std
            * (-2.0 * s * s / (self.lengthscale * self.lengthscale)).exp()
    }
    fn params(&self) -> Vec<f64> {
        vec![
            self.period.ln(),
            self.lengthscale.ln(),
            self.signal_std.ln(),
        ]
    }
    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 3, "periodic kernel has three parameters");
        self.period = p[0].exp();
        self.lengthscale = p[1].exp();
        self.signal_std = p[2].exp();
    }
    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

/// Sum of two kernels (sums of PD kernels are PD).
#[derive(Debug, Clone)]
pub struct SumKernel {
    /// Left summand.
    pub left: Box<dyn Kernel>,
    /// Right summand.
    pub right: Box<dyn Kernel>,
}

impl SumKernel {
    /// `left + right`.
    pub fn new(left: Box<dyn Kernel>, right: Box<dyn Kernel>) -> Self {
        SumKernel { left, right }
    }
}

impl Kernel for SumKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.left.eval(a, b) + self.right.eval(a, b)
    }
    fn params(&self) -> Vec<f64> {
        let mut p = self.left.params();
        p.extend(self.right.params());
        p
    }
    fn set_params(&mut self, p: &[f64]) {
        let nl = self.left.params().len();
        assert_eq!(p.len(), nl + self.right.params().len());
        self.left.set_params(&p[..nl]);
        self.right.set_params(&p[nl..]);
    }
    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

/// Product of two kernels (products of PD kernels are PD).
#[derive(Debug, Clone)]
pub struct ProductKernel {
    /// Left factor.
    pub left: Box<dyn Kernel>,
    /// Right factor.
    pub right: Box<dyn Kernel>,
}

impl ProductKernel {
    /// `left * right`.
    pub fn new(left: Box<dyn Kernel>, right: Box<dyn Kernel>) -> Self {
        ProductKernel { left, right }
    }
}

impl Kernel for ProductKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.left.eval(a, b) * self.right.eval(a, b)
    }
    fn params(&self) -> Vec<f64> {
        let mut p = self.left.params();
        p.extend(self.right.params());
        p
    }
    fn set_params(&mut self, p: &[f64]) {
        let nl = self.left.params().len();
        assert_eq!(p.len(), nl + self.right.params().len());
        self.left.set_params(&p[..nl]);
        self.right.set_params(&p[nl..]);
    }
    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn rbf_limits() {
        let k = Rbf::isotropic(1.0, 2.0);
        // At zero distance: signal variance.
        assert!((k.eval(&[0.5], &[0.5]) - 4.0).abs() < 1e-12);
        // Decays with distance, symmetric.
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[2.0]);
        assert!(near > far);
        assert_eq!(k.eval(&[0.0], &[1.0]), k.eval(&[1.0], &[0.0]));
    }

    #[test]
    fn rbf_known_value() {
        let k = Rbf::isotropic(1.0, 1.0);
        // k(0, 1) = exp(-0.5)
        assert!((k.eval(&[0.0], &[1.0]) - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn matern_nu_ordering_matches_smoothness() {
        // At a fixed moderate distance, rougher kernels decay faster.
        let r = 0.8;
        let m12 = Matern12::isotropic(1.0, 1.0).eval(&[0.0], &[r]);
        let m32 = Matern32::isotropic(1.0, 1.0).eval(&[0.0], &[r]);
        let m52 = Matern52::isotropic(1.0, 1.0).eval(&[0.0], &[r]);
        let rbf = Rbf::isotropic(1.0, 1.0).eval(&[0.0], &[r]);
        assert!(m12 < m32 && m32 < m52 && m52 < rbf);
    }

    #[test]
    fn matern12_is_exponential() {
        let k = Matern12::isotropic(2.0, 1.0);
        assert!((k.eval(&[0.0], &[2.0]) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn ard_ignores_long_lengthscale_dims() {
        let k = Rbf::ard(vec![0.1, 1e6], 1.0);
        // Moving along dim 1 barely matters; dim 0 matters a lot.
        let v_dim0 = k.eval(&[0.0, 0.0], &[0.3, 0.0]);
        let v_dim1 = k.eval(&[0.0, 0.0], &[0.0, 0.3]);
        assert!(v_dim0 < 0.02);
        assert!(v_dim1 > 0.999);
    }

    #[test]
    fn params_roundtrip_log_space() {
        let mut k = Matern52::ard(vec![0.5, 2.0], 3.0);
        let p = k.params();
        assert_eq!(p.len(), 3);
        k.set_params(&p);
        assert!((k.lengthscales[0] - 0.5).abs() < 1e-12);
        assert!((k.lengthscales[1] - 2.0).abs() < 1e-12);
        assert!((k.signal_std - 3.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_repeats() {
        let k = PeriodicKernel::new(1.0, 1.0, 1.0);
        let v0 = k.eval(&[0.0], &[0.3]);
        let v1 = k.eval(&[0.0], &[1.3]); // same phase, one period later
        assert!((v0 - v1).abs() < 1e-9);
        // Exactly one period apart -> full correlation.
        assert!((k.eval(&[0.0], &[1.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sum_and_product_compose() {
        let a: Box<dyn Kernel> = Box::new(Rbf::isotropic(1.0, 1.0));
        let b: Box<dyn Kernel> = Box::new(ConstantKernel::new(2.0));
        let sum = SumKernel::new(a.clone_box(), b.clone_box());
        let prod = ProductKernel::new(a, b);
        let x = [0.2];
        let y = [0.9];
        let rbf_v = Rbf::isotropic(1.0, 1.0).eval(&x, &y);
        assert!((sum.eval(&x, &y) - (rbf_v + 2.0)).abs() < 1e-12);
        assert!((prod.eval(&x, &y) - rbf_v * 2.0).abs() < 1e-12);
    }

    #[test]
    fn composite_params_concatenate() {
        let mut sum = SumKernel::new(
            Box::new(Rbf::isotropic(1.0, 1.0)),
            Box::new(ConstantKernel::new(1.0)),
        );
        let p = sum.params();
        assert_eq!(p.len(), 3); // lengthscale + signal + constant
        let newp = vec![0.5f64.ln(), 2.0f64.ln(), 4.0f64.ln()];
        sum.set_params(&newp);
        assert!((sum.eval(&[0.0], &[0.0]) - (4.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn linear_kernel_dot_product() {
        let k = LinearKernel::new(2.0);
        assert!((k.eval(&[1.0, 2.0], &[3.0, 4.0]) - 4.0 * 11.0).abs() < 1e-12);
    }

    /// One of every kernel, each with a different non-unit scale.
    pub(crate) fn kernel_zoo(dim: usize) -> Vec<Box<dyn Kernel>> {
        let ard: Vec<f64> = (0..dim).map(|d| 0.3 + 0.45 * d as f64).collect();
        vec![
            Box::new(Matern12::isotropic(0.7, 1.3)),
            Box::new(Matern32::isotropic(0.45, 0.9)),
            Box::new(Matern52::isotropic(0.6, 1.1)),
            Box::new(Matern52::ard(ard.clone(), 1.7)),
            Box::new(Rbf::isotropic(0.35, 2.1)),
            Box::new(Rbf::ard(ard.clone(), 0.8)),
            Box::new(ConstantKernel::new(1.9)),
            Box::new(LinearKernel::new(0.6)),
            Box::new(PeriodicKernel::new(0.8, 0.5, 1.2)),
            Box::new(SumKernel::new(
                Box::new(Matern32::ard(ard.clone(), 1.0)),
                Box::new(LinearKernel::new(0.4)),
            )),
            Box::new(ProductKernel::new(
                Box::new(Rbf::isotropic(0.9, 1.4)),
                Box::new(PeriodicKernel::new(1.1, 0.7, 0.9)),
            )),
        ]
    }

    #[test]
    fn eval_many_is_eval_bit_for_bit() {
        let dim = 3;
        let m = 19;
        // Dimension-major with padding past each dimension's points, so
        // the stride is not the point count; ±0.0 on both sides.
        let stride = m + 5;
        let coord = |d: usize, j: usize| match (d + j) % 7 {
            0 => 0.0,
            1 => -0.0,
            _ => ((d * 31 + j * 17) as f64 * 0.37).sin() * 1.5,
        };
        let xs: Vec<f64> = (0..dim * stride)
            .map(|k| coord(k / stride, k % stride))
            .collect();
        for k in kernel_zoo(dim) {
            for b in [
                vec![0.0, -0.0, 0.25],
                vec![-0.0, 0.3, -1.2],
                vec![0.9, 0.0, -0.0],
            ] {
                for from in [0, 4] {
                    let mut out = vec![f64::NAN; m - from];
                    k.eval_many(&xs[from..], stride, &b, &mut out);
                    for (j, got) in out.iter().enumerate() {
                        let x: Vec<f64> = (0..dim).map(|d| coord(d, from + j)).collect();
                        let want = k.eval(&x, &b);
                        assert_eq!(got.to_bits(), want.to_bits(), "{k:?} point {j} b {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_lengthscale_rejected() {
        let _ = Rbf::isotropic(0.0, 1.0);
    }
}
