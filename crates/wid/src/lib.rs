//! Workload identification (tutorial slides 88-93).
//!
//! "Systems with similar workloads can benefit from the same optimal
//! config": optimize one system, identify similar ones, reuse the tuned
//! configuration. The pieces:
//!
//! * [`Fingerprint`] — featurization of a workload from its telemetry time
//!   series and operation mix (slide 90's "data to embed");
//! * [`Embedder`] — standardization + PCA (or random projection) into a
//!   compact embedding space (slide 89);
//! * [`KMeans`] — clustering of embeddings into workload families;
//! * [`ConfigStore`] — nearest-neighbour reuse of tuned configurations
//!   (slide 92's "knowledge transfer" application);
//! * [`ShiftDetector`] — CUSUM-style detection of workload change over
//!   time (slide 92's "workload shift detection");
//! * [`synthesize_mixture`] — synthetic benchmark generation: find the
//!   mixture of base benchmarks whose fingerprint best matches production
//!   telemetry (slide 92, Stitcher-style);
//! * [`StreamingClusters`] — online nearest-centroid assignment of incoming
//!   fingerprints to workload families, spawning a new family past a
//!   distance threshold (the routing layer of the serve-time config cache);
//! * [`TenantFleet`] — synthetic Zipf-popularity tenant populations drawn
//!   from workload-family mixtures, for exercising cache hit rates.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod cluster;
mod embedding;
mod fingerprint;
mod shift;
mod store;
mod synth;

pub use cluster::{purity, KMeans, StreamAssignment, StreamCentroid, StreamingClusters};
pub use embedding::{Embedder, EmbedderKind};
pub use fingerprint::Fingerprint;
pub use shift::ShiftDetector;
pub use store::{ConfigStore, StoredConfig};
pub use synth::{synthesize_mixture, Tenant, TenantFleet, TenantFleetConfig};

/// Errors produced by workload-identification components.
#[derive(Debug, Clone, PartialEq)]
pub enum WidError {
    /// Not enough data to fit the requested model.
    NotEnoughData {
        /// What was being fitted.
        what: &'static str,
        /// Samples required.
        needed: usize,
        /// Samples available.
        got: usize,
    },
    /// Feature vectors disagree in dimension.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// The underlying linear algebra failed to converge.
    Numerical(String),
}

impl std::fmt::Display for WidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WidError::NotEnoughData { what, needed, got } => {
                write!(f, "not enough data for {what}: need {needed}, got {got}")
            }
            WidError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            WidError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for WidError {}

/// Convenience alias for results from this crate.
pub type Result<T> = std::result::Result<T, WidError>;
