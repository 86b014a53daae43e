//! TuRBO-style local trust-region surrogate.
//!
//! Instead of modeling the whole space with one global GP, maintain a
//! dense [`GaussianProcess`] over only the points inside an L∞ ball (the
//! *trust region*) around the incumbent, with deterministic expand/shrink
//! rules driven by success/failure counters: `SUCC_TOL` consecutive
//! incumbent improvements double the radius, `FAIL_TOL` consecutive
//! non-improvements halve it, both clamped to `[MIN_RADIUS, MAX_RADIUS]`.
//! The local model is capped at `max_local` points, so suggest latency and
//! observe cost are O(max_local²) regardless of how many observations the
//! campaign has accumulated — the TuRBO escape hatch from cubic global GPs
//! (and the local-modeling direction MCTuner's spatial decomposition points
//! at).
//!
//! Objectives follow the workspace-wide **minimization** convention: the
//! incumbent is the lowest observed value.
//!
//! Determinism: region membership, nearest-point truncation, and the
//! counter updates are all pure functions of the observation sequence, so
//! two replays of the same campaign build identical local models.

use crate::{check_training_set, GaussianProcess, Kernel, Prediction, Result, Surrogate};
use autotune_linalg::squared_distance;

/// Configuration for [`TrustRegionSurrogate`].
#[derive(Debug, Clone)]
pub struct TrustRegionConfig {
    /// Cap on local-model size; observe/suggest cost is O(max_local²).
    pub max_local: usize,
    /// Initial trust-region half-width (L∞, in encoded-space units where
    /// the unit cube spans [0, 1]), clamped to
    /// `[MIN_RADIUS, MAX_RADIUS]`.
    pub init_radius: f64,
}

impl Default for TrustRegionConfig {
    fn default() -> Self {
        TrustRegionConfig {
            max_local: 256,
            init_radius: 0.4,
        }
    }
}

/// Radius ceiling.
const MAX_RADIUS: f64 = 1.6;
const _: () = assert!(
    0.0 < TrustRegionSurrogate::MIN_RADIUS && TrustRegionSurrogate::MIN_RADIUS <= MAX_RADIUS,
    "radius bounds must satisfy 0 < min <= max"
);
/// Consecutive incumbent improvements before the radius doubles.
const SUCC_TOL: u32 = 3;
/// Consecutive non-improvements before the radius halves.
const FAIL_TOL: u32 = 8;
/// Observation-noise variance of the local GP.
const NOISE: f64 = 1e-6;

/// A surrogate that fits a dense GP over the trust region around the
/// incumbent, with TuRBO expand/shrink dynamics.
pub struct TrustRegionSurrogate {
    /// Kernel template; each local rebuild clones it fresh.
    kernel: Box<dyn Kernel>,
    /// Cap on local-model size.
    max_local: usize,
    /// The radius a fit starts from, already clamped to the bounds.
    init_radius: f64,
    xs: Vec<Vec<f64>>,
    y_raw: Vec<f64>,
    /// Running Σy over all observations (global-prior mean in O(1)).
    y_sum: f64,
    /// Running Σy² over all observations (global-prior std in O(1)).
    y_sq: f64,
    /// Incumbent (index into `xs`, objective value); minimization.
    best: Option<(usize, f64)>,
    radius: f64,
    succ: u32,
    fail: u32,
    local: GaussianProcess,
    /// In-region observations seen since the last rebuild that the local
    /// model (full at `max_local`) could not absorb; a rebuild refreshes
    /// the selection once enough pile up.
    pending: usize,
}

impl std::fmt::Debug for TrustRegionSurrogate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustRegionSurrogate")
            .field("n_train", &self.xs.len())
            .field("n_local", &self.local.n_train())
            .field("radius", &self.radius)
            .finish()
    }
}

impl TrustRegionSurrogate {
    /// Radius floor — the region never collapses below this.
    pub const MIN_RADIUS: f64 = 1.0 / 64.0;

    /// Creates an unfitted trust-region surrogate.
    pub fn new(kernel: Box<dyn Kernel>, config: TrustRegionConfig) -> Self {
        assert!(config.max_local >= 2, "local model needs at least 2 points");
        let local = GaussianProcess::new(kernel.clone_box(), NOISE);
        let init_radius = config.init_radius.clamp(Self::MIN_RADIUS, MAX_RADIUS);
        TrustRegionSurrogate {
            kernel,
            max_local: config.max_local,
            init_radius,
            xs: Vec::new(),
            y_raw: Vec::new(),
            y_sum: 0.0,
            y_sq: 0.0,
            best: None,
            radius: init_radius,
            succ: 0,
            fail: 0,
            local,
            pending: 0,
        }
    }

    /// Current trust-region half-width.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// L∞ distance between two points.
    fn linf(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Rebuilds the local GP from the points inside the current region,
    /// truncating to the `max_local` nearest (Euclidean, ties toward the
    /// lower index). The new model is swapped in only if its fit succeeds,
    /// so a failed rebuild keeps the previous local model serving.
    fn rebuild_local(&mut self) -> Result<()> {
        let (best_idx, _) = match self.best {
            Some(b) => b,
            None => return Ok(()),
        };
        let center = self.xs[best_idx].clone();
        let mut in_region: Vec<usize> = (0..self.xs.len())
            .filter(|&i| Self::linf(&self.xs[i], &center) <= self.radius)
            .collect();
        if in_region.len() > self.max_local {
            in_region.sort_by(|&a, &b| {
                let da = squared_distance(&self.xs[a], &center);
                let db = squared_distance(&self.xs[b], &center);
                da.total_cmp(&db).then(a.cmp(&b))
            });
            in_region.truncate(self.max_local);
            // Chronological order inside the selection keeps rebuilds
            // reproducible independent of the distance sort above.
            in_region.sort_unstable();
        }
        let xs: Vec<Vec<f64>> = in_region.iter().map(|&i| self.xs[i].clone()).collect();
        let ys: Vec<f64> = in_region.iter().map(|&i| self.y_raw[i]).collect();
        let mut fresh = GaussianProcess::new(self.kernel.clone_box(), NOISE);
        fresh.fit(&xs, &ys)?;
        self.local = fresh;
        self.pending = 0;
        Ok(())
    }

    /// The global empirical prior: mean and variance of *every* observed
    /// objective value, in O(1) from the running moments. Degenerate
    /// spreads (n < 2, or all values equal) fall back to unit variance so
    /// acquisition functions still see some uncertainty.
    fn global_prior(&self) -> Prediction {
        let n = self.y_raw.len();
        if n < 2 {
            return Prediction {
                mean: self.y_raw.first().copied().unwrap_or(0.0),
                variance: 1.0,
            };
        }
        let mean = self.y_sum / n as f64;
        let var = ((self.y_sq - self.y_sum * mean) / (n - 1) as f64).max(0.0);
        Prediction {
            mean,
            variance: if var <= 1e-12 { 1.0 } else { var },
        }
    }
}

impl Surrogate for TrustRegionSurrogate {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
        check_training_set(xs, ys)?;
        let mut best = (0usize, ys[0]);
        for (i, &y) in ys.iter().enumerate() {
            if y.total_cmp(&best.1) == std::cmp::Ordering::Less {
                best = (i, y);
            }
        }
        let saved_xs = std::mem::replace(&mut self.xs, xs.to_vec());
        let saved_ys = std::mem::replace(&mut self.y_raw, ys.to_vec());
        let saved_best = self.best.replace(best);
        let saved_radius = self.radius;
        self.radius = self.init_radius;
        if let Err(e) = self.rebuild_local() {
            self.xs = saved_xs;
            self.y_raw = saved_ys;
            self.best = saved_best;
            self.radius = saved_radius;
            return Err(e);
        }
        self.y_sum = self.y_raw.iter().sum();
        self.y_sq = self.y_raw.iter().map(|v| v * v).sum();
        self.succ = 0;
        self.fail = 0;
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Prediction {
        // Outside the trust region the local posterior would revert to the
        // *local* prior — the mean of the elite in-region points — which is
        // wildly optimistic about unexplored space: every far-away
        // candidate would out-score the region the model actually knows.
        // Answer with the global empirical prior instead: "out there,
        // expect an average outcome with the global spread".
        if let Some((best_idx, _)) = self.best {
            if Self::linf(x, &self.xs[best_idx]) > self.radius {
                return self.global_prior();
            }
        }
        self.local.predict(x)
    }

    fn n_train(&self) -> usize {
        self.xs.len()
    }

    /// Absorbs one observation with TuRBO dynamics. Cost is bounded by the
    /// local model: O(max_local²) when the point lands in-region, O(d)
    /// otherwise, plus an O(max_local³) rebuild when the region moves or
    /// resizes. Never errors after input validation — counter updates and
    /// bookkeeping always succeed, and a failed local rebuild keeps the
    /// previous (still consistent) local model.
    fn observe(&mut self, x: &[f64], y: f64) -> Result<()> {
        if self.xs.is_empty() {
            return self.fit(&[x.to_vec()], &[y]);
        }
        if x.len() != self.xs[0].len() {
            return Err(crate::SurrogateError::DimensionMismatch {
                context: format!(
                    "observe: point has dimension {} (expected {})",
                    x.len(),
                    self.xs[0].len()
                ),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(crate::SurrogateError::DimensionMismatch {
                context: "observe: point contains non-finite values".into(),
            });
        }
        if !y.is_finite() {
            return Err(crate::SurrogateError::NonFiniteTarget);
        }
        self.xs.push(x.to_vec());
        self.y_raw.push(y);
        self.y_sum += y;
        self.y_sq += y * y;
        let idx = self.xs.len() - 1;
        let improved = match self.best {
            Some((_, bv)) => y.total_cmp(&bv) == std::cmp::Ordering::Less,
            None => true,
        };
        let mut region_changed = false;
        if improved {
            self.best = Some((idx, y));
            region_changed = true; // center moved to the new incumbent
            self.succ += 1;
            self.fail = 0;
            if self.succ >= SUCC_TOL {
                self.succ = 0;
                let grown = (self.radius * 2.0).min(MAX_RADIUS);
                region_changed |= grown != self.radius;
                self.radius = grown;
            }
        } else {
            self.succ = 0;
            self.fail += 1;
            if self.fail >= FAIL_TOL {
                self.fail = 0;
                let shrunk = (self.radius * 0.5).max(Self::MIN_RADIUS);
                region_changed |= shrunk != self.radius;
                self.radius = shrunk;
            }
        }
        if region_changed {
            // Center and/or radius moved: the membership set changed, so
            // refresh the local model around the new region.
            let _ = self.rebuild_local();
            return Ok(());
        }
        let center_idx = self.best.map_or(0, |(i, _)| i);
        let in_region = Self::linf(x, &self.xs[center_idx]) <= self.radius;
        if in_region {
            if self.local.n_train() < self.max_local && self.local.observe(x, y).is_ok() {
                return Ok(());
            }
            // Local model full (or the incremental path refused the
            // point): defer to a batched refresh instead of refitting on
            // every observation.
            self.pending += 1;
            if self.pending >= self.max_local {
                let _ = self.rebuild_local();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matern52;

    fn tr(config: TrustRegionConfig) -> TrustRegionSurrogate {
        TrustRegionSurrogate::new(Box::new(Matern52::ard(vec![0.3, 0.3], 1.0)), config)
    }

    /// Deterministic low-discrepancy-ish point in the unit square.
    fn point(i: usize) -> Vec<f64> {
        vec![
            (i as f64 * 0.754877666).fract(),
            (i as f64 * 0.569840296).fract(),
        ]
    }

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum()
    }

    #[test]
    fn predicts_well_inside_the_region() {
        let mut s = tr(TrustRegionConfig::default());
        for i in 0..80 {
            let x = point(i);
            let y = sphere(&x);
            s.observe(&x, y).unwrap();
        }
        // The failure streaks of random sampling shrink the region, but
        // never below MIN_RADIUS around the incumbent: a query half that
        // far away stays in-region. Out of region it would get the global
        // prior, about 0.25 on this sphere.
        let (best, _) = s.best.unwrap();
        let h = TrustRegionSurrogate::MIN_RADIUS / 2.0;
        let q = [s.xs[best][0] + h, s.xs[best][1] - h];
        assert!(TrustRegionSurrogate::linf(&q, &s.xs[best]) <= s.radius());
        let p = s.predict(&q);
        assert!(
            (p.mean - sphere(&q)).abs() < 0.05,
            "mean {} vs truth {}",
            p.mean,
            sphere(&q)
        );
    }

    #[test]
    fn radius_expands_on_success_streak_and_shrinks_on_failures() {
        let mut s = tr(TrustRegionConfig::default());
        s.fit(&[vec![0.5, 0.5]], &[10.0]).unwrap();
        assert!((s.radius() - 0.4).abs() < 1e-12);
        // SUCC_TOL consecutive improvements double the radius; one fewer
        // does not.
        for i in 0..SUCC_TOL {
            assert!((s.radius() - 0.4).abs() < 1e-12, "radius {}", s.radius());
            s.observe(&[0.45 - 0.01 * f64::from(i), 0.5], 9.0 - f64::from(i))
                .unwrap();
        }
        assert!((s.radius() - 0.8).abs() < 1e-12, "radius {}", s.radius());
        // FAIL_TOL consecutive non-improvements halve it again.
        for i in 0..FAIL_TOL {
            assert!((s.radius() - 0.8).abs() < 1e-12, "radius {}", s.radius());
            s.observe(&[0.6 + 0.01 * f64::from(i), 0.5], 20.0).unwrap();
        }
        assert!((s.radius() - 0.4).abs() < 1e-12, "radius {}", s.radius());
    }

    #[test]
    fn radius_respects_bounds() {
        let mut s = tr(TrustRegionConfig::default());
        s.fit(&[vec![0.5, 0.5]], &[10.0]).unwrap();
        // Enough successes for four doublings from 0.4: it stops at the
        // ceiling after two.
        for i in 0..4 * SUCC_TOL {
            let i = f64::from(i);
            s.observe(&[0.5, 0.49 - 0.001 * i], 9.0 - i).unwrap();
        }
        assert_eq!(s.radius(), MAX_RADIUS);
        // Enough failures for ten halvings from 1.6: it stops at the floor
        // after seven.
        for i in 0..10 * FAIL_TOL {
            s.observe(&[0.52 + 0.001 * f64::from(i), 0.5], 100.0)
                .unwrap();
        }
        assert_eq!(s.radius(), TrustRegionSurrogate::MIN_RADIUS);
    }

    #[test]
    fn local_model_stays_capped() {
        let config = TrustRegionConfig {
            max_local: 16,
            ..TrustRegionConfig::default()
        };
        let mut s = tr(config);
        for i in 0..200 {
            let x = point(i);
            s.observe(&x, sphere(&x)).unwrap();
        }
        assert_eq!(s.n_train(), 200);
        assert!(
            s.local.n_train() <= 16,
            "local model has {} points (cap 16)",
            s.local.n_train()
        );
    }

    #[test]
    fn incumbent_move_recenters_the_region() {
        let config = TrustRegionConfig {
            init_radius: 0.1,
            max_local: 8,
        };
        let mut s = tr(config);
        // Cluster around (0.8, 0.8), then a much better point far away.
        for i in 0..10 {
            let x = vec![0.8 + 0.005 * i as f64, 0.8];
            s.observe(&x, 5.0 + 0.01 * i as f64).unwrap();
        }
        s.observe(&[0.1, 0.1], 1.0).unwrap();
        // The local model now centers on (0.1, 0.1); the old cluster is
        // outside the 0.1-radius region, so the local set collapses to the
        // new incumbent.
        assert_eq!(s.local.n_train(), 1);
        let p = s.predict(&[0.1, 0.1]);
        assert!((p.mean - 1.0).abs() < 0.2, "mean {}", p.mean);
    }

    #[test]
    fn out_of_region_queries_get_the_global_prior_not_local_optimism() {
        let config = TrustRegionConfig {
            init_radius: 0.1,
            ..TrustRegionConfig::default()
        };
        let mut s = tr(config);
        // Elite cluster near (0.1, 0.1) with low objective values...
        for i in 0..10 {
            s.observe(&[0.1 + 0.005 * i as f64, 0.1], 1.0 + 0.01 * i as f64)
                .unwrap();
        }
        // ...and far-away points the campaign has learned are bad.
        for i in 0..10 {
            s.observe(&[0.9 - 0.005 * i as f64, 0.9], 100.0).unwrap();
        }
        // An unexplored far query must answer with the global average
        // (~50), not the elite local prior (~1) that would make every
        // far candidate out-score the known-good region.
        let far = s.predict(&[0.5, 0.9]);
        assert!(
            far.mean > 20.0,
            "far mean {} should reflect the global average",
            far.mean
        );
        assert!(far.variance > 0.0);
        // In-region queries still use the local posterior.
        let near = s.predict(&[0.1, 0.1]);
        assert!(near.mean < 5.0, "near mean {}", near.mean);
    }

    #[test]
    fn observe_rejects_bad_input_without_mutating() {
        let mut s = tr(TrustRegionConfig::default());
        for i in 0..10 {
            let x = point(i);
            s.observe(&x, sphere(&x)).unwrap();
        }
        let before = s.predict(&[0.3, 0.3]);
        assert!(s.observe(&[0.1], 1.0).is_err());
        assert!(s.observe(&[0.2, 0.2], f64::NAN).is_err());
        assert!(s.observe(&[f64::INFINITY, 0.2], 1.0).is_err());
        assert_eq!(s.n_train(), 10);
        assert_eq!(s.predict(&[0.3, 0.3]), before);
    }

    #[test]
    fn fit_replaces_previous_state() {
        let mut s = tr(TrustRegionConfig::default());
        for i in 0..20 {
            let x = point(i);
            s.observe(&x, sphere(&x)).unwrap();
        }
        let xs: Vec<Vec<f64>> = (0..5).map(point).collect();
        let ys: Vec<f64> = xs.iter().map(|x| sphere(x)).collect();
        s.fit(&xs, &ys).unwrap();
        assert_eq!(s.n_train(), 5);
        assert!(s.local.n_train() <= 5);
    }
}
