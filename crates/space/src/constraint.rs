//! Cross-parameter constraints.
//!
//! Two flavours, matching the tutorial's taxonomy:
//!
//! * *algebraic* constraints with a known closed form (linear combinations
//!   and ratios of numeric knobs) — cheap, and the sampler can reject
//!   against them before a trial is ever scheduled;
//! * *black-box* constraints evaluated by arbitrary user code (SCBO-style),
//!   carried as an `Arc<dyn Fn>`.

use crate::Config;
use std::sync::Arc;

/// A constraint attached to a [`crate::Space`].
#[derive(Clone)]
pub enum Constraint {
    /// `sum_i coeff_i * value(param_i) <= bound`.
    LinearLe {
        /// `(parameter name, coefficient)` pairs.
        terms: Vec<(String, f64)>,
        /// Right-hand side.
        bound: f64,
    },
    /// `value(numerator) <= bound * value(denominator)`.
    ///
    /// Expresses MySQL's `chunk_size <= buffer_pool_size / instances` family
    /// without dividing (robust when the denominator can be zero).
    RatioLe {
        /// Numerator parameter.
        numerator: String,
        /// Denominator parameter.
        denominator: String,
        /// Allowed ratio.
        bound: f64,
    },
    /// Arbitrary predicate; `true` means feasible. The label is used in
    /// diagnostics.
    BlackBox {
        /// Diagnostic name.
        label: String,
        /// Feasibility predicate.
        predicate: Arc<dyn Fn(&Config) -> bool + Send + Sync>,
    },
}

impl Constraint {
    /// `sum_i coeff_i * param_i <= bound`.
    pub fn linear_le(terms: &[(&str, f64)], bound: f64) -> Self {
        Constraint::LinearLe {
            terms: terms.iter().map(|(n, c)| (n.to_string(), *c)).collect(),
            bound,
        }
    }

    /// `numerator <= bound * denominator`.
    pub fn ratio_le(numerator: &str, denominator: &str, bound: f64) -> Self {
        Constraint::RatioLe {
            numerator: numerator.to_string(),
            denominator: denominator.to_string(),
            bound,
        }
    }

    /// A black-box feasibility predicate.
    pub fn black_box(
        label: impl Into<String>,
        predicate: impl Fn(&Config) -> bool + Send + Sync + 'static,
    ) -> Self {
        Constraint::BlackBox {
            label: label.into(),
            predicate: Arc::new(predicate),
        }
    }

    /// Evaluates the constraint under `config`. Parameters of a closed-form
    /// constraint that are missing or non-numeric make it pass vacuously:
    /// an inactive conditional knob cannot violate a constraint about it.
    pub fn is_satisfied(&self, config: &Config) -> bool {
        match self {
            Constraint::LinearLe { terms, bound } => {
                let mut total = 0.0;
                for (name, coeff) in terms {
                    match config.get_f64(name) {
                        Some(v) => total += coeff * v,
                        None => return true,
                    }
                }
                total <= *bound + 1e-12
            }
            Constraint::RatioLe {
                numerator,
                denominator,
                bound,
            } => match (config.get_f64(numerator), config.get_f64(denominator)) {
                (Some(n), Some(d)) => n <= bound * d + 1e-12,
                _ => true,
            },
            Constraint::BlackBox { predicate, .. } => predicate(config),
        }
    }

    /// Diagnostic label.
    pub fn label(&self) -> String {
        match self {
            Constraint::LinearLe { terms, bound } => {
                let lhs: Vec<String> = terms.iter().map(|(n, c)| format!("{c}*{n}")).collect();
                format!("{} <= {bound}", lhs.join(" + "))
            }
            Constraint::RatioLe {
                numerator,
                denominator,
                bound,
            } => format!("{numerator} <= {bound}*{denominator}"),
            Constraint::BlackBox { label, .. } => label.clone(),
        }
    }
}

impl std::fmt::Debug for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Constraint({})", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_le_enforced() {
        // bp_chunk + 2 * wal_size <= 10
        let c = Constraint::linear_le(&[("bp_chunk", 1.0), ("wal_size", 2.0)], 10.0);
        let ok = Config::new().with("bp_chunk", 4.0).with("wal_size", 3.0);
        let bad = Config::new().with("bp_chunk", 5.0).with("wal_size", 3.0);
        assert!(c.is_satisfied(&ok));
        assert!(!c.is_satisfied(&bad));
    }

    #[test]
    fn ratio_le_mysql_style() {
        // chunk_size <= bp_size / instances, with instances folded into bound
        let c = Constraint::ratio_le("chunk_size", "bp_size", 1.0 / 4.0);
        let ok = Config::new().with("chunk_size", 1.0).with("bp_size", 8.0);
        let bad = Config::new().with("chunk_size", 3.0).with("bp_size", 8.0);
        assert!(c.is_satisfied(&ok));
        assert!(!c.is_satisfied(&bad));
    }

    #[test]
    fn missing_param_passes_vacuously() {
        let c = Constraint::linear_le(&[("ghost", 1.0)], 0.0);
        assert!(c.is_satisfied(&Config::new()));
    }

    #[test]
    fn black_box_predicate() {
        let c = Constraint::black_box("even threads", |cfg| {
            cfg.get_i64("threads").is_none_or(|t| t % 2 == 0)
        });
        assert!(c.is_satisfied(&Config::new().with("threads", 4i64)));
        assert!(!c.is_satisfied(&Config::new().with("threads", 3i64)));
        assert_eq!(c.label(), "even threads");
    }

    #[test]
    fn labels_render() {
        let c = Constraint::linear_le(&[("a", 1.0), ("b", -2.0)], 5.0);
        assert_eq!(c.label(), "1*a + -2*b <= 5");
        let r = Constraint::ratio_le("n", "d", 0.5);
        assert_eq!(r.label(), "n <= 0.5*d");
    }
}
