//! Configuration-space definition for systems autotuning.
//!
//! A *configuration space* ("search space") describes the tunable knobs of a
//! system: their types (continuous, integer, quantized, categorical,
//! boolean), scales (linear or logarithmic), priors, special values,
//! conditional structure (a knob only matters when a parent knob enables
//! it), and cross-knob constraints (e.g. MySQL's
//! `innodb_buffer_pool_chunk_size <= innodb_buffer_pool_size /
//! innodb_buffer_pool_instances`).
//!
//! The space also owns the *encodings* optimizers operate on:
//!
//! * [`Space::encode_unit`] — one dimension per parameter, everything mapped
//!   into `[0, 1]` (categoricals as normalized index). Used by random
//!   forests, evolutionary algorithms, and random projections.
//! * [`Space::encode_onehot`] — categoricals expanded to one-hot indicator
//!   dimensions. Used by Gaussian-process surrogates, where an artificial
//!   order over categories would corrupt the kernel distances.
//!
//! # Example
//!
//! ```
//! use autotune_space::{Space, Param, Value};
//! use rand::SeedableRng;
//!
//! let space = Space::builder()
//!     .add(Param::float("buffer_pool_gb", 0.5, 16.0).log_scale())
//!     .add(Param::categorical("flush_method", &["fsync", "O_DIRECT", "O_DSYNC"]))
//!     .add(Param::int("io_threads", 1, 64))
//!     .build()
//!     .unwrap();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let config = space.sample(&mut rng);
//! let x = space.encode_unit(&config).unwrap();
//! assert_eq!(x.len(), 3);
//! let back = space.decode_unit(&x).unwrap();
//! assert_eq!(config.get("flush_method"), back.get("flush_method"));
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod condition;
mod config;
mod constraint;
mod param;
mod space;

pub use condition::Condition;
pub use config::{Config, Value};
pub use constraint::Constraint;
pub use param::{Domain, Param, Prior};
pub use space::{Space, SpaceBuilder};

/// Errors produced when defining or using a configuration space.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// A parameter name appears twice in the space.
    DuplicateParam(String),
    /// A referenced parameter does not exist.
    UnknownParam(String),
    /// A parameter's bounds are inverted or empty.
    InvalidDomain {
        /// Offending parameter.
        param: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A value has the wrong type or is out of range for its parameter.
    InvalidValue {
        /// Offending parameter.
        param: String,
        /// What is wrong with it.
        reason: String,
    },
    /// An encoded vector has the wrong length for this space.
    EncodingLength {
        /// What the space expected.
        expected: usize,
        /// What the caller supplied.
        actual: usize,
    },
    /// A condition references itself or forms a cycle.
    ConditionCycle(String),
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::DuplicateParam(p) => write!(f, "duplicate parameter '{p}'"),
            SpaceError::UnknownParam(p) => write!(f, "unknown parameter '{p}'"),
            SpaceError::InvalidDomain { param, reason } => {
                write!(f, "invalid domain for '{param}': {reason}")
            }
            SpaceError::InvalidValue { param, reason } => {
                write!(f, "invalid value for '{param}': {reason}")
            }
            SpaceError::EncodingLength { expected, actual } => {
                write!(
                    f,
                    "encoding length mismatch: expected {expected}, got {actual}"
                )
            }
            SpaceError::ConditionCycle(p) => {
                write!(f, "conditional dependency cycle involving '{p}'")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// Convenience alias for results from this crate.
pub type Result<T> = std::result::Result<T, SpaceError>;
