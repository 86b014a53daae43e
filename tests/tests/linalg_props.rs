//! Property-based tests for the linalg kernels the surrogates stand on.
//!
//! The chained kernels are held bit for bit, not to a tolerance: the
//! factor of `Cholesky::new` against the row loop it replaced (the one
//! oracle for it), `solve_lower_many` against `solve_lower`, and `syrk`
//! against `matmul` with the transpose. Non-finite inputs must propagate
//! instead of vanishing, `extend` must stay atomic on failure at a few
//! hundred rows, and `rank_one_update` must agree with factoring the
//! updated matrix afresh. Vectorised loops exist only in optimised
//! builds, so CI also runs this file with `--release`.

use autotune_linalg::{dot, Cholesky, LinalgError, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// A well-conditioned random SPD matrix: G·Gᵀ + n·I.
fn rand_spd(rng: &mut StdRng, n: usize) -> Matrix {
    let g = rand_matrix(rng, n, n);
    let mut a = g.syrk();
    a.add_diag(n as f64);
    a
}

/// The row loop `Cholesky::new` ran before its factor went column by
/// column in chains: the same jitter ladder around `L[i,j]` formed from
/// `dot` row by row. The chained factor must be this one bit for bit.
fn row_loop_cholesky(a: &Matrix) -> Result<(Matrix, f64), LinalgError> {
    let n = a.rows();
    let mean_diag = if n == 0 {
        1.0
    } else {
        a.diag().iter().map(|d| d.abs()).sum::<f64>() / n as f64
    };
    let mut jitter = 0.0;
    'ladder: for attempt in 0..=9 {
        if attempt > 0 {
            jitter = mean_diag.max(1e-300) * 1e-12 * 10f64.powi(attempt - 1);
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let s = dot(&l.row(i)[..j], &l.row(j)[..j]);
                if i == j {
                    let d = a[(i, i)] + jitter - s;
                    if d <= 0.0 || !d.is_finite() {
                        continue 'ladder;
                    }
                    l[(i, j)] = d.sqrt();
                } else {
                    l[(i, j)] = (a[(i, j)] - s) / l[(j, j)];
                }
            }
        }
        return Ok((l, jitter));
    }
    Err(LinalgError::NotPositiveDefinite)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// `Cholesky::new(a)` is the row loop's factor and jitter bit for bit, or
/// the same error; returns whether the factor needed jitter.
fn assert_row_loop_factor(a: &Matrix, what: &str) -> bool {
    let n = a.rows();
    match (Cholesky::new(a), row_loop_cholesky(a)) {
        (Ok(got), Ok((l, jitter))) => {
            assert_eq!(bits(got.l().as_slice()), bits(l.as_slice()), "{what} n={n}");
            assert_eq!(got.jitter().to_bits(), jitter.to_bits(), "{what} n={n}");
            jitter > 0.0
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{what} n={n}");
            false
        }
        (got, want) => panic!("{what} n={n}: {:?} vs row loop {:?}", got.err(), want.err()),
    }
}

#[test]
fn chained_cholesky_is_the_row_loop_bit_for_bit() {
    let mut jittered = 0;
    for n in (0..=40).chain(127..=129) {
        let mut rng = StdRng::seed_from_u64(4000 + n as u64);
        let a = rand_spd(&mut rng, n);
        assert!(!assert_row_loop_factor(&a, "well-conditioned"));
        if n == 0 {
            continue;
        }
        // Gram matrix of points with duplicates: rows repeat exactly, so
        // pivots hit zero up to rounding and the ladder climbs.
        let m = n.div_ceil(2);
        let g = rand_matrix(&mut rng, m, 3.min(m));
        let dup = Matrix::from_fn(n, g.cols(), |i, c| g[(i % m, c)]);
        let mut gram = dup.matmul(&dup.transpose()).expect("shapes agree");
        if assert_row_loop_factor(&gram, "duplicate rows") {
            jittered += 1;
        }
        gram.add_diag(-1.0);
        assert_row_loop_factor(&gram, "indefinite");
        // A non-finite entry below the diagonal, on it, or above it (which
        // neither loop reads).
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            let mut bad = a.clone();
            bad[(i, j)] = value;
            assert_row_loop_factor(&bad, "non-finite");
        }
    }
    assert!(
        jittered > 10,
        "only {jittered} duplicate-row inputs needed jitter"
    );
}

#[test]
fn many_rhs_solve_is_solve_lower_bit_for_bit() {
    for n in [0, 1, 7, 8, 9, 33, 128] {
        let mut rng = StdRng::seed_from_u64(9000 + n as u64);
        let chol = Cholesky::new(&rand_spd(&mut rng, n)).expect("SPD by construction");
        for m in 0..=17 {
            let b: Vec<f64> = (0..n * m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let got = chol.solve_lower_many(&b, m);
            assert_eq!(got.len(), n * m);
            for c in 0..m {
                let col: Vec<f64> = (0..n).map(|i| b[i * m + c]).collect();
                let want = chol.solve_lower(&col);
                let got: Vec<f64> = (0..n).map(|i| got[i * m + c]).collect();
                assert_eq!(bits(&got), bits(&want), "n={n} m={m} column {c}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `syrk` is X·Xᵀ as matmul-with-transpose forms it, bit for bit,
    /// down to an empty matrix.
    #[test]
    fn syrk_is_matmul_with_transpose_bit_for_bit(
        seed in 0u64..1000,
        n in 0usize..150,
        d in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rand_matrix(&mut rng, n, d);
        let reference = x.matmul(&x.transpose()).expect("shapes agree");
        prop_assert_eq!(
            bits(x.syrk().as_slice()),
            bits(reference.as_slice()),
            "syrk differs from X·Xᵀ at n={} d={}", n, d
        );
    }

    /// A non-finite entry anywhere in the right operand must poison its
    /// whole output column (matmul's zero-skip fast path once swallowed
    /// it).
    #[test]
    fn matmul_propagates_non_finite_operands(
        seed in 0u64..1000,
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
    ) {
        let use_inf = seed % 2 == 0;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_matrix(&mut rng, m, k);
        let mut b = rand_matrix(&mut rng, k, n);
        let k0 = rng.gen_range(0..k);
        let j0 = rng.gen_range(0..n);
        b[(k0, j0)] = if use_inf { f64::INFINITY } else { f64::NAN };
        let product = a.matmul(&b).expect("shapes agree");
        for i in 0..m {
            prop_assert!(
                !product[(i, j0)].is_finite(),
                "matmul swallowed a non-finite operand at ({}, {})", i, j0
            );
        }
    }

    /// At large n, a refused `extend` (indefinite growth, non-finite
    /// column, wrong length) must leave the factor byte-identical, and the
    /// factor must still accept a valid extension afterwards.
    #[test]
    fn extend_is_atomic_on_failure_at_large_n(seed in 0u64..200) {
        let n = 300;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_spd(&mut rng, n);
        let mut chol = Cholesky::new(&a).expect("SPD by construction");
        let before = bits(chol.l().as_slice());

        let k0 = rng.gen_range(0..n);
        let col: Vec<f64> = (0..n).map(|i| a[(i, k0)]).collect();
        // A duplicate of column k0 with a lowered diagonal makes the
        // Schur complement ≈ -1: robustly indefinite.
        prop_assert!(chol.extend(&col, a[(k0, k0)] - 1.0).is_err());
        let mut nan_col = col.clone();
        nan_col[0] = f64::NAN;
        prop_assert!(chol.extend(&nan_col, a[(k0, k0)] + 2.0).is_err());
        prop_assert!(chol.extend(&col[..n - 1], a[(k0, k0)] + 2.0).is_err());

        let after = bits(chol.l().as_slice());
        prop_assert_eq!(&before, &after, "failed extend mutated the factor");

        // The duplicate direction with enough added diagonal is SPD again.
        chol.extend(&col, a[(k0, k0)] + 2.0).expect("valid extension");
        prop_assert_eq!(chol.l().rows(), n + 1);
    }

    /// `rank_one_update` (A → A + v·vᵀ) matches factoring the updated
    /// matrix from scratch.
    #[test]
    fn rank_one_update_matches_fresh_factorization(
        seed in 0u64..1000,
        n in 1usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_spd(&mut rng, n);
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut chol = Cholesky::new(&a).expect("SPD by construction");
        chol.rank_one_update(&v).expect("SPD + v·vᵀ stays SPD");
        let updated = a.add(&Matrix::from_fn(n, n, |i, j| v[i] * v[j])).expect("same shape");
        let fresh = Cholesky::new(&updated).expect("still SPD");
        prop_assert!(
            chol.l().approx_eq(fresh.l(), 1e-8 * n as f64),
            "rank-1 updated factor diverges from scratch refactorization at n={}", n
        );
    }
}
