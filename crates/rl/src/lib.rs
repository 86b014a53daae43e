//! Online tuning algorithms (tutorial slides 75-84).
//!
//! Online tuning learns in real time, in production: an agent observes the
//! running system (its *state*/*context*), adjusts knobs (*actions*), and
//! receives performance feedback (*reward*). This crate implements the
//! algorithm families the tutorial covers:
//!
//! * [`QLearning`] / [`Sarsa`] — tabular value-based RL (CDBTune, QTune
//!   lineage, slides 79-80);
//! * [`ActorCritic`] — policy gradient with a linear value baseline
//!   (slide 79's actor-critic diagram);
//! * [`LinUcb`] and [`ContextualEpsilonGreedy`] — contextual bandits for
//!   workload-aware tuning (slides 82-83);
//! * [`HybridBandit`] — OPPerTune-style AutoScoper: a context-splitting
//!   tree with an independent bandit per leaf (slide 83);
//! * [`SafeTuner`] — guardrailed exploration that reverts and blacklists
//!   configurations that regress performance (slide 84).
//!
//! Reward convention: RL components **maximize reward** (the standard RL
//! convention, opposite of the optimizer crate's cost minimization). The
//! [`SafeTuner`] wrapper, which speaks to system metrics, uses cost and
//! documents it.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod actor_critic;
mod contextual;
mod hybrid;
mod qlearning;
mod safe;

pub use actor_critic::ActorCritic;
pub use contextual::{ContextualEpsilonGreedy, LinUcb};
pub use hybrid::{ContextKey, HybridBandit};
pub use qlearning::{QLearning, QLearningConfig, Sarsa};
pub use safe::{SafeDecision, SafeTuner};

/// Errors produced by online tuners.
#[derive(Debug, Clone, PartialEq)]
pub enum RlError {
    /// A state or action index was out of range.
    IndexOutOfRange {
        /// What was indexed.
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The allowed bound.
        bound: usize,
    },
    /// A feature vector had the wrong dimensionality.
    FeatureDimension {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
}

impl std::fmt::Display for RlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RlError::IndexOutOfRange { what, index, bound } => {
                write!(f, "{what} index {index} out of range (bound {bound})")
            }
            RlError::FeatureDimension { expected, actual } => {
                write!(f, "feature dimension {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for RlError {}

/// Convenience alias for results from this crate.
pub type Result<T> = std::result::Result<T, RlError>;
