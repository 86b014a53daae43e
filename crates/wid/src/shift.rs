//! Workload-shift detection (tutorial slide 92: "identify changes in
//! workload over time").
//!
//! Watches the stream of per-interval workload embeddings and raises a
//! flag when the distribution moves. Mechanism: maintain a running
//! reference centroid over a trailing window; feed the distance of each
//! new embedding to the centroid into a one-sided CUSUM. When the CUSUM
//! crosses its threshold, a shift is declared and the reference resets —
//! the signal the online tuners use to re-explore.

use std::collections::VecDeque;

/// Trailing window length used to estimate the reference centroid and the
/// in-distribution distance scale.
const WINDOW: usize = 20;
const _: () = assert!(WINDOW >= 3, "window must hold at least 3 samples");
/// CUSUM drift allowance in standard deviations (distances this far above
/// normal do not accumulate).
const SLACK_SIGMAS: f64 = 1.0;
/// CUSUM alarm threshold in (cumulative) standard deviations.
const THRESHOLD_SIGMAS: f64 = 6.0;

/// Streaming workload-shift detector.
#[derive(Debug, Clone, Default)]
pub struct ShiftDetector {
    /// Reference window of recent embeddings.
    window: VecDeque<Vec<f64>>,
    cusum: f64,
    shifts: Vec<usize>,
    t: usize,
}

impl ShiftDetector {
    /// Creates a detector.
    pub fn new() -> Self {
        ShiftDetector::default()
    }

    /// Steps seen so far.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Time steps at which shifts were declared.
    pub fn shifts(&self) -> &[usize] {
        &self.shifts
    }

    /// Feeds one embedding; returns `true` when a shift is declared at
    /// this step.
    pub fn observe(&mut self, embedding: &[f64]) -> bool {
        let t = self.t;
        self.t += 1;
        // Warm-up: fill the reference window first.
        if self.window.len() < WINDOW {
            self.window.push_back(embedding.to_vec());
            return false;
        }
        // Reference statistics from the current window.
        let d = embedding.len();
        let mut centroid = vec![0.0; d];
        for w in &self.window {
            autotune_linalg::axpy(1.0, w, &mut centroid);
        }
        for c in centroid.iter_mut() {
            *c /= self.window.len() as f64;
        }
        // Per-dimension scale, so a large-magnitude channel (ops/s) cannot
        // drown mix-fraction channels in the distance metric.
        let mut dim_sd = vec![0.0; d];
        for w in &self.window {
            for (s, (&x, &c)) in dim_sd.iter_mut().zip(w.iter().zip(&centroid)) {
                *s += (x - c) * (x - c);
            }
        }
        let dim_sd: Vec<f64> = dim_sd
            .iter()
            .map(|s| (s / (self.window.len() - 1) as f64).sqrt().max(1e-9))
            .collect();
        let standardized_dist = |v: &[f64]| -> f64 {
            v.iter()
                .zip(centroid.iter().zip(&dim_sd))
                .map(|(&x, (&c, &s))| {
                    let z = (x - c) / s;
                    z * z
                })
                .sum::<f64>()
                .sqrt()
        };
        let dists: Vec<f64> = self.window.iter().map(|w| standardized_dist(w)).collect();
        let mu = autotune_linalg::stats::mean(&dists);
        let sigma = autotune_linalg::stats::std_dev(&dists).max(1e-9);
        let dist = standardized_dist(embedding);
        let z = (dist - mu) / sigma;
        // One-sided CUSUM with slack.
        self.cusum = (self.cusum + z - SLACK_SIGMAS).max(0.0);
        if self.cusum >= THRESHOLD_SIGMAS {
            self.shifts.push(t);
            self.cusum = 0.0;
            // Reset the reference to re-learn the new regime.
            self.window.clear();
            self.window.push_back(embedding.to_vec());
            return true;
        }
        // In-distribution sample: roll the window.
        self.window.pop_front();
        self.window.push_back(embedding.to_vec());
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn noisy_point(center: &[f64], spread: f64, rng: &mut impl Rng) -> Vec<f64> {
        center
            .iter()
            .map(|&c| c + spread * (rng.gen::<f64>() - 0.5))
            .collect()
    }

    #[test]
    fn detects_a_clear_shift_quickly() {
        let mut det = ShiftDetector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = [0.0, 0.0, 0.0];
        let b = [5.0, 5.0, 5.0];
        for _ in 0..60 {
            assert!(!det.observe(&noisy_point(&a, 0.2, &mut rng)));
        }
        let mut detected_at = None;
        for i in 0..20 {
            if det.observe(&noisy_point(&b, 0.2, &mut rng)) {
                detected_at = Some(i);
                break;
            }
        }
        let lag = detected_at.expect("shift never detected");
        assert!(lag <= 5, "detection lag {lag} too slow");
    }

    #[test]
    fn no_false_alarms_on_stationary_stream() {
        let mut det = ShiftDetector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = [1.0, 2.0];
        for _ in 0..500 {
            det.observe(&noisy_point(&a, 0.3, &mut rng));
        }
        assert!(
            det.shifts().is_empty(),
            "false alarms at {:?}",
            det.shifts()
        );
    }

    #[test]
    fn recovers_and_detects_second_shift() {
        let mut det = ShiftDetector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let regimes = [[0.0, 0.0], [4.0, 0.0], [0.0, 6.0]];
        for regime in &regimes {
            for _ in 0..60 {
                det.observe(&noisy_point(regime, 0.2, &mut rng));
            }
        }
        assert_eq!(det.shifts().len(), 2, "shifts: {:?}", det.shifts());
    }

    #[test]
    fn gradual_drift_within_slack_tolerated() {
        let mut det = ShiftDetector::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for t in 0..300 {
            // Very slow drift relative to noise.
            let c = [t as f64 * 0.001];
            det.observe(&noisy_point(&c, 0.5, &mut rng));
        }
        assert!(det.shifts().is_empty(), "slow drift should not alarm");
    }
}
