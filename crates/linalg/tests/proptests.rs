//! Property-based tests for the linear-algebra kernels.

use autotune_linalg::{stats, symmetric_eigen, Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a random matrix with entries in [-10, 10].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: a random SPD matrix built as `A A^T + n I`.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(move |a| {
        let mut spd = a.matmul(&a.transpose()).unwrap();
        spd.add_diag(n as f64); // guarantee strict positive-definiteness
        spd
    })
}

proptest! {
    #[test]
    fn cholesky_reconstructs(a in spd_strategy(4)) {
        let c = Cholesky::new(&a).unwrap();
        let back = c.l().matmul(&c.l().transpose()).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-6 * a.max_abs().max(1.0)));
    }

    #[test]
    fn cholesky_solve_is_inverse_of_matvec(a in spd_strategy(4), x in proptest::collection::vec(-5.0..5.0f64, 4)) {
        let b = a.matvec(&x).unwrap();
        let c = Cholesky::new(&a).unwrap();
        let got = c.solve_vec(&b);
        for (g, w) in got.iter().zip(&x) {
            prop_assert!((g - w).abs() < 1e-6, "got {g}, want {w}");
        }
    }

    #[test]
    fn cholesky_log_det_matches_eigenvalues(a in spd_strategy(3)) {
        let c = Cholesky::new(&a).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let log_det: f64 = e.values.iter().map(|v| v.ln()).sum();
        prop_assert!((c.log_det() - log_det).abs() < 1e-6);
    }

    #[test]
    fn transpose_preserves_frobenius(a in matrix_strategy(3, 5)) {
        prop_assert!((a.frobenius_norm() - a.transpose().frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn matmul_associative(
        a in matrix_strategy(3, 3),
        b in matrix_strategy(3, 3),
        c in matrix_strategy(3, 3),
    ) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        let scale = a.max_abs() * b.max_abs() * c.max_abs() + 1.0;
        prop_assert!(left.approx_eq(&right, 1e-9 * scale));
    }

    #[test]
    fn eigen_trace_and_reconstruction(a in spd_strategy(4)) {
        let e = symmetric_eigen(&a).unwrap();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - a.trace()).abs() < 1e-6 * a.trace().abs().max(1.0));
        // Eigenvalues of an SPD matrix are positive and sorted descending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        prop_assert!(e.values.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn quantile_monotone(mut xs in proptest::collection::vec(-100.0..100.0f64, 1..50), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(stats::quantile(&xs, lo) <= stats::quantile(&xs, hi) + 1e-9);
    }

    #[test]
    fn quantile_within_range(xs in proptest::collection::vec(-100.0..100.0f64, 1..50), q in 0.0..1.0f64) {
        let v = stats::quantile(&xs, q);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn normal_cdf_monotone(z1 in -5.0..5.0f64, z2 in -5.0..5.0f64) {
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        prop_assert!(stats::normal_cdf(lo) <= stats::normal_cdf(hi) + 1e-9);
    }

    #[test]
    fn running_stats_matches_batch(xs in proptest::collection::vec(-100.0..100.0f64, 2..60)) {
        let mut rs = stats::RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        prop_assert!((rs.mean() - stats::mean(&xs)).abs() < 1e-8);
        prop_assert!((rs.variance() - stats::variance(&xs)).abs() < 1e-6);
    }
}
