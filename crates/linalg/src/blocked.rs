//! Cache-blocked (tiled) dense kernels.
//!
//! The naive kernels in [`Matrix`] and [`crate::Cholesky`] stream whole
//! rows through cache on every inner product, which is fine at the few
//! hundred rows a short campaign accumulates but falls off a cliff once
//! kernel matrices reach a few thousand rows (the 100k-observation
//! service-campaign regime). These variants partition the iteration space
//! into [`DEFAULT_BLOCK`]-sized tiles so each tile of the operands is
//! reused from cache many times before being evicted — the standard
//! SYRK/POTRF tiling every BLAS uses, sized here for L1/L2 rather than
//! registers. (A tiled general product is not here: nothing multiplies
//! two large general matrices, and [`Matrix::matmul`] serves the rest.)
//!
//! Determinism contract: every output element of
//! [`Matrix::syrk_blocked`] is one dot product accumulated in ascending
//! column order, so on finite inputs the result is **bitwise equal** to
//! `a.matmul(&a.transpose())`. The blocked Cholesky regroups its trailing
//! updates per panel, so its factor agrees with the naive one only to
//! rounding — equivalence is tolerance-verified by the test suite.

use crate::Matrix;

/// Tile edge of the blocked kernels: 64×64 f64 tiles are 32 KiB, sized so
/// the two operand tiles of an inner kernel sit in L1/L2.
pub(crate) const DEFAULT_BLOCK: usize = 64;

impl Matrix {
    /// Tiled symmetric rank-k product `self * selfᵀ` (SYRK).
    ///
    /// Computes only the lower triangle tile-by-tile and mirrors it, so it
    /// does roughly half the multiplies of a general product. Each output
    /// element is a dot product of two rows of `self` accumulated in
    /// ascending column order — bitwise identical to
    /// `self.matmul(&self.transpose())` on finite inputs.
    pub fn syrk_blocked(&self) -> Matrix {
        self.syrk_tiled(DEFAULT_BLOCK)
    }

    /// [`Matrix::syrk_blocked`] with `block`-sized tiles; the tests sweep
    /// the tile edge, callers get [`DEFAULT_BLOCK`].
    fn syrk_tiled(&self, block: usize) -> Matrix {
        let block = block.max(1);
        let n = self.rows();
        let mut out = Matrix::zeros(n, n);
        for ii in (0..n).step_by(block) {
            let ie = (ii + block).min(n);
            for jj in (0..=ii).step_by(block) {
                let je = (jj + block).min(n);
                for i in ii..ie {
                    let ri = self.row(i);
                    for j in jj..je.min(i + 1) {
                        out[(i, j)] = crate::vector::dot(ri, self.row(j));
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                out[(j, i)] = out[(i, j)];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn syrk_matches_explicit_product() {
        for (r, k) in [(13, 7), (40, 40), (33, 2), (1, 5)] {
            let a = random_matrix(r, k, 77 + r as u64);
            let explicit = a.matmul(&a.transpose()).unwrap();
            for block in [1, 4, 16, 256] {
                let s = a.syrk_tiled(block);
                assert_eq!(
                    explicit.as_slice(),
                    s.as_slice(),
                    "syrk {r}x{k} block {block} diverged"
                );
                assert!(s.is_symmetric(0.0));
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        let empty = Matrix::zeros(0, 0);
        assert_eq!(empty.syrk_blocked().rows(), 0);
        let row = Matrix::from_rows(&[&[2.0, 3.0]]);
        let s = row.syrk_blocked();
        assert_eq!(s.rows(), 1);
        assert!((s[(0, 0)] - 13.0).abs() < 1e-15);
    }
}
