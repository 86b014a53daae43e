//! Free functions on `&[f64]` vectors.
//!
//! These are the hot inner-loop primitives for kernel evaluation and
//! gradient updates; they are kept as plain slice functions so callers never
//! pay for a wrapper type.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics (debug builds) if lengths differ; in release the shorter length
/// wins, so callers must pass equal lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// How many independent dot products the chained kernels run side by side.
pub(crate) const CHAINS: usize = 8;

/// `dot(rows[r], shared)` for every `r` at once, each bit for bit what
/// [`dot`] returns: its own accumulator starting at `-0.0` (where
/// `f64::sum` starts), ascending `k`, `acc + rows[r][k] * shared[k]` with
/// no fused multiply-add. The chains are independent, so their adds
/// overlap instead of each waiting on the one before it.
#[inline]
pub(crate) fn chained_dots(rows: [&[f64]; CHAINS], shared: &[f64]) -> [f64; CHAINS] {
    let rows = rows.map(|r| &r[..shared.len()]);
    let mut acc = [-0.0; CHAINS];
    for (k, &s) in shared.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[k] * s;
        }
    }
    acc
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// In-place `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn dot_starts_from_negative_zero() {
        // The chained kernels copy this start value; a toolchain whose
        // `f64::sum` starts elsewhere fails here first.
        assert_eq!(dot(&[], &[]).to_bits(), (-0.0f64).to_bits());
        let empty = chained_dots([&[]; CHAINS], &[]).map(f64::to_bits);
        assert_eq!(empty, [(-0.0f64).to_bits(); CHAINS]);
    }

    #[test]
    fn chained_dots_are_dot_bit_for_bit() {
        let shared: Vec<f64> = (0..37).map(|k| (k as f64 * 0.37).sin() * 1e3).collect();
        let rows: Vec<Vec<f64>> = (0..CHAINS)
            .map(|r| (0..40).map(|k| ((r * 40 + k) as f64).cos() / 3.0).collect())
            .collect();
        let got = chained_dots(std::array::from_fn(|r| &rows[r][..]), &shared);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(
                got[r].to_bits(),
                dot(&row[..37], &shared).to_bits(),
                "chain {r}"
            );
        }
    }

    #[test]
    fn norm_of_345_triangle() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn squared_distance_symmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(squared_distance(&a, &b), squared_distance(&b, &a));
        assert_eq!(squared_distance(&a, &b), 25.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }
}
