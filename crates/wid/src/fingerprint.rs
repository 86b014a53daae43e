//! Workload fingerprints: the raw feature vector a workload leaves behind.

use autotune_sim::{telemetry_features, TelemetrySample};
use serde::{Deserialize, Serialize};

/// A workload's observable signature.
///
/// Combines the telemetry-channel statistics (always available, never
/// sensitive — slide 90) with the operation-mix counters a database can
/// expose without seeing user data (`# of inserts/updates/selects`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Flat feature vector.
    features: Vec<f64>,
}

impl Fingerprint {
    /// Builds a fingerprint from a telemetry series.
    pub fn from_telemetry(series: &[TelemetrySample]) -> Self {
        Fingerprint {
            features: telemetry_features(series),
        }
    }

    /// Builds a fingerprint from a raw feature vector (e.g. when features
    /// come from query logs rather than telemetry).
    pub fn from_features(features: Vec<f64>) -> Self {
        Fingerprint { features }
    }

    /// The feature vector.
    pub fn features(&self) -> &[f64] {
        &self.features
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.features.len()
    }

    /// Euclidean distance to another fingerprint.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn distance(&self, other: &Fingerprint) -> f64 {
        assert_eq!(self.dim(), other.dim(), "fingerprint dimension mismatch");
        autotune_linalg::squared_distance(&self.features, &other.features).sqrt()
    }

    /// Averages several fingerprints (centroid of repeated observations of
    /// the same workload).
    pub fn mean_of(prints: &[Fingerprint]) -> Option<Fingerprint> {
        let first = prints.first()?;
        let d = first.dim();
        let mut acc = vec![0.0; d];
        for p in prints {
            assert_eq!(p.dim(), d, "fingerprint dimension mismatch");
            autotune_linalg::axpy(1.0, &p.features, &mut acc);
        }
        for a in acc.iter_mut() {
            *a /= prints.len() as f64;
        }
        Some(Fingerprint { features: acc })
    }
}

impl AsRef<[f64]> for Fingerprint {
    fn as_ref(&self) -> &[f64] {
        &self.features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::from_features(v.to_vec())
    }

    #[test]
    fn distance_is_a_metric() {
        let a = fp(&[0.0, 0.0]);
        let b = fp(&[3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn mean_of_fingerprints() {
        let m = Fingerprint::mean_of(&[fp(&[0.0, 2.0]), fp(&[2.0, 4.0])]).unwrap();
        assert_eq!(m.features(), &[1.0, 3.0]);
        assert!(Fingerprint::mean_of(&[]).is_none());
    }

    #[test]
    fn from_telemetry_produces_14_features() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sim = autotune_sim::RedisSim::new();
        use autotune_sim::SimSystem;
        let r = sim.run_trial(
            &sim.space().default_config(),
            &autotune_sim::Workload::kv_cache(10_000.0),
            &autotune_sim::Environment::medium(),
            &mut rng,
        );
        let f = Fingerprint::from_telemetry(&r.telemetry);
        assert_eq!(f.dim(), 14);
    }
}
