//! Property-based tests for the blocked linalg kernels: across arbitrary
//! shapes on both sides of the tile edge (one partial tile, several
//! tiles, non-multiple dims), the cache-blocked paths must agree with
//! the naive references, non-finite inputs must propagate instead of
//! vanishing, and the incremental factor updates must stay atomic on
//! failure. The tile edge itself is swept by the linalg crate's own
//! unit tests, where it is a parameter.

use autotune_linalg::{Cholesky, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// A well-conditioned random SPD matrix: G·Gᵀ + n·I.
fn rand_spd(rng: &mut StdRng, n: usize) -> Matrix {
    let g = rand_matrix(rng, n, n);
    let mut a = g.syrk_blocked();
    a.add_diag(n as f64);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked syrk computes X·Xᵀ like matmul-with-transpose does (up to
    /// float association inside a tile).
    #[test]
    fn blocked_syrk_matches_matmul_with_transpose(
        seed in 0u64..1000,
        n in 1usize..150,
        d in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = rand_matrix(&mut rng, n, d);
        let reference = x.matmul(&x.transpose()).expect("shapes agree");
        let syrk = x.syrk_blocked();
        prop_assert!(
            syrk.approx_eq(&reference, 1e-10 * d as f64),
            "syrk diverges from X·Xᵀ at n={} d={}", n, d
        );
    }

    /// Blocked Cholesky factors random SPD matrices to the same factor as
    /// the naive right-looking loop, below and above one tile.
    #[test]
    fn blocked_cholesky_matches_naive_on_random_spd(
        seed in 0u64..1000,
        n in 1usize..150,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_spd(&mut rng, n);
        let naive = Cholesky::new(&a).expect("SPD by construction");
        let blocked = Cholesky::new_blocked(&a).expect("SPD by construction");
        prop_assert!(
            blocked.l().approx_eq(naive.l(), 1e-9 * n as f64),
            "blocked factor diverges at n={}", n
        );
        let back = blocked
            .l()
            .matmul(&blocked.l().transpose())
            .expect("square factor");
        prop_assert!(back.approx_eq(&a, 1e-8 * n as f64), "L·Lᵀ does not reconstruct A");
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
        let mut chol = Cholesky::new_blocked(&a).expect("SPD by construction");
        let before: Vec<u64> = chol.l().as_slice().iter().map(|v| v.to_bits()).collect();

        let k0 = rng.gen_range(0..n);
        let col: Vec<f64> = (0..n).map(|i| a[(i, k0)]).collect();
        // A duplicate of column k0 with a lowered diagonal makes the
        // Schur complement ≈ -1: robustly indefinite.
        prop_assert!(chol.extend(&col, a[(k0, k0)] - 1.0).is_err());
        let mut nan_col = col.clone();
        nan_col[0] = f64::NAN;
        prop_assert!(chol.extend(&nan_col, a[(k0, k0)] + 2.0).is_err());
        prop_assert!(chol.extend(&col[..n - 1], a[(k0, k0)] + 2.0).is_err());

        let after: Vec<u64> = chol.l().as_slice().iter().map(|v| v.to_bits()).collect();
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
        let mut chol = Cholesky::new_blocked(&a).expect("SPD by construction");
        chol.rank_one_update(&v).expect("SPD + v·vᵀ stays SPD");
        let updated = a.add(&Matrix::from_fn(n, n, |i, j| v[i] * v[j])).expect("same shape");
        let fresh = Cholesky::new(&updated).expect("still SPD");
        prop_assert!(
            chol.l().approx_eq(fresh.l(), 1e-8 * n as f64),
            "rank-1 updated factor diverges from scratch refactorization at n={}", n
        );
    }
}
