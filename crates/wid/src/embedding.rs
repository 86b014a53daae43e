//! Workload embeddings (tutorial slide 89).
//!
//! Maps raw fingerprints into a compact vector space where Euclidean
//! distance means "these workloads want similar configurations". Two
//! embedders:
//!
//! * **PCA** — standardize features, keep the top principal components
//!   (interpretable, needs a training corpus);
//! * **random projection** — a seeded Gaussian projection matrix
//!   (training-free, the same trick LlamaTune plays on *search spaces*).

use crate::{Fingerprint, Result, WidError};
use autotune_linalg::{Matrix, Pca};
use rand::{Rng, SeedableRng};

/// Which dimensionality-reduction method backs the embedder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedderKind {
    /// Standardize + principal components.
    Pca,
    /// Standardize + seeded Gaussian random projection.
    RandomProjection {
        /// Seed of the projection matrix.
        seed: u64,
    },
}

/// A fitted workload embedder.
#[derive(Debug)]
pub struct Embedder {
    kind: EmbedderKind,
    /// Per-feature mean for standardization.
    mean: Vec<f64>,
    /// Per-feature standard deviation (>= epsilon).
    std: Vec<f64>,
    /// PCA model (when kind is Pca).
    pca: Option<Pca>,
    /// Projection matrix rows (when kind is RandomProjection).
    projection: Option<Matrix>,
}

impl Embedder {
    /// Fits an embedder on a corpus of fingerprints.
    pub fn fit(corpus: &[Fingerprint], out_dim: usize, kind: EmbedderKind) -> Result<Self> {
        if corpus.len() < 2 {
            return Err(WidError::NotEnoughData {
                what: "embedder",
                needed: 2,
                got: corpus.len(),
            });
        }
        let d = corpus[0].dim();
        for f in corpus {
            if f.dim() != d {
                return Err(WidError::DimensionMismatch {
                    expected: d,
                    actual: f.dim(),
                });
            }
        }
        let out_dim = out_dim.min(d).max(1);
        // Standardization statistics.
        let n = corpus.len() as f64;
        let mut mean = vec![0.0; d];
        for f in corpus {
            autotune_linalg::axpy(1.0, f.features(), &mut mean);
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for f in corpus {
            for (v, (&x, &m)) in var.iter_mut().zip(f.features().iter().zip(&mean)) {
                *v += (x - m) * (x - m);
            }
        }
        let std: Vec<f64> = var
            .iter()
            .map(|v| (v / (n - 1.0)).sqrt().max(1e-9))
            .collect();
        let standardized: Vec<Vec<f64>> = corpus
            .iter()
            .map(|f| {
                f.features()
                    .iter()
                    .zip(mean.iter().zip(&std))
                    .map(|(&x, (&m, &s))| (x - m) / s)
                    .collect()
            })
            .collect();
        let (pca, projection) = match kind {
            EmbedderKind::Pca => {
                let data = Matrix::from_row_vectors(&standardized);
                let pca =
                    Pca::fit(&data, out_dim).map_err(|e| WidError::Numerical(e.to_string()))?;
                (Some(pca), None)
            }
            EmbedderKind::RandomProjection { seed } => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let scale = 1.0 / (out_dim as f64).sqrt();
                let proj = Matrix::from_fn(out_dim, d, |_, _| {
                    // Box-Muller Gaussian entries.
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    scale * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                });
                (None, Some(proj))
            }
        };
        Ok(Embedder {
            kind,
            mean,
            std,
            pca,
            projection,
        })
    }

    /// Which method backs this embedder.
    pub fn kind(&self) -> EmbedderKind {
        self.kind
    }

    /// Embeds one fingerprint.
    pub fn embed(&self, f: &Fingerprint) -> Result<Vec<f64>> {
        if f.dim() != self.mean.len() {
            return Err(WidError::DimensionMismatch {
                expected: self.mean.len(),
                actual: f.dim(),
            });
        }
        let standardized: Vec<f64> = f
            .features()
            .iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect();
        Ok(match (&self.pca, &self.projection) {
            (Some(pca), _) => pca.transform_one(&standardized),
            (_, Some(proj)) => proj
                .matvec(&standardized)
                .expect("projection matches feature dim"), // lint: allow(D5) projection built for this feature dimension
            _ => unreachable!("embedder always has a backing model"), // lint: allow(D5) constructor always sets pca or projection
        })
    }

    /// Embeds a batch.
    pub fn embed_all(&self, fs: &[Fingerprint]) -> Result<Vec<Vec<f64>>> {
        fs.iter().map(|f| self.embed(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    /// Builds a corpus with two well-separated workload families.
    fn two_family_corpus(n_per: usize, seed: u64) -> (Vec<Fingerprint>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prints = Vec::new();
        let mut labels = Vec::new();
        for i in 0..(2 * n_per) {
            let family = i % 2;
            let base: Vec<f64> = if family == 0 {
                vec![0.8, 0.1, 0.9, 0.2, 100.0, 0.5]
            } else {
                vec![0.2, 0.7, 0.1, 0.8, 10.0, 0.9]
            };
            let noisy: Vec<f64> = base
                .iter()
                .map(|&b| b + 0.05 * (rng.gen::<f64>() - 0.5))
                .collect();
            prints.push(Fingerprint::from_features(noisy));
            labels.push(family);
        }
        (prints, labels)
    }

    #[test]
    fn pca_embedding_separates_families() {
        let (corpus, labels) = two_family_corpus(20, 1);
        let emb = Embedder::fit(&corpus, 2, EmbedderKind::Pca).unwrap();
        let points = emb.embed_all(&corpus).unwrap();
        // Within-family distances must be far below between-family ones.
        let mut within = Vec::new();
        let mut between = Vec::new();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let d = autotune_linalg::squared_distance(&points[i], &points[j]).sqrt();
                if labels[i] == labels[j] {
                    within.push(d);
                } else {
                    between.push(d);
                }
            }
        }
        let w = autotune_linalg::stats::mean(&within);
        let b = autotune_linalg::stats::mean(&between);
        assert!(
            b > 5.0 * w,
            "families not separated: within {w}, between {b}"
        );
    }

    #[test]
    fn random_projection_preserves_separation() {
        let (corpus, labels) = two_family_corpus(20, 2);
        let emb = Embedder::fit(&corpus, 3, EmbedderKind::RandomProjection { seed: 7 }).unwrap();
        let points = emb.embed_all(&corpus).unwrap();
        let centroid = |fam: usize| {
            let members: Vec<&Vec<f64>> = points
                .iter()
                .zip(&labels)
                .filter(|(_, &l)| l == fam)
                .map(|(p, _)| p)
                .collect();
            let mut c = vec![0.0; 3];
            for m in &members {
                autotune_linalg::axpy(1.0, m, &mut c);
            }
            c.iter()
                .map(|x| x / members.len() as f64)
                .collect::<Vec<_>>()
        };
        let d = autotune_linalg::squared_distance(&centroid(0), &centroid(1)).sqrt();
        assert!(d > 1.0, "projected centroids too close: {d}");
    }

    #[test]
    fn same_seed_same_projection() {
        let (corpus, _) = two_family_corpus(5, 3);
        let a = Embedder::fit(&corpus, 2, EmbedderKind::RandomProjection { seed: 9 }).unwrap();
        let b = Embedder::fit(&corpus, 2, EmbedderKind::RandomProjection { seed: 9 }).unwrap();
        assert_eq!(a.embed(&corpus[0]).unwrap(), b.embed(&corpus[0]).unwrap());
    }

    #[test]
    fn dimension_errors() {
        let (corpus, _) = two_family_corpus(5, 4);
        let emb = Embedder::fit(&corpus, 2, EmbedderKind::Pca).unwrap();
        let wrong = Fingerprint::from_features(vec![1.0, 2.0]);
        assert!(matches!(
            emb.embed(&wrong),
            Err(WidError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Embedder::fit(&corpus[..1], 2, EmbedderKind::Pca),
            Err(WidError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn out_dim_clamped_to_features() {
        let (corpus, _) = two_family_corpus(5, 5);
        let emb = Embedder::fit(&corpus, 100, EmbedderKind::Pca).unwrap();
        assert_eq!(emb.embed(&corpus[0]).unwrap().len(), 6);
    }
}
