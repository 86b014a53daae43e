//! Tunable-parameter definitions: domains, scales, priors, special values.

use crate::{SpaceError, Value};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The domain (type and range) of a tunable parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Domain {
    /// Continuous value in `[low, high]`. When `log` is set, sampling and
    /// unit-cube encoding happen in log space — the right treatment for
    /// knobs spanning orders of magnitude (buffer sizes, timeouts).
    Float {
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
        /// Sample/encode in log space.
        log: bool,
    },
    /// Integer value in `[low, high]` (inclusive), optionally log-scaled.
    Int {
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
        /// Sample/encode in log space.
        log: bool,
    },
    /// Continuous value quantized to `low + k * step` within `[low, high]`.
    /// LlamaTune-style bucketization is expressed by re-quantizing an
    /// existing float domain.
    Quantized {
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
        /// Quantization step (> 0).
        step: f64,
    },
    /// One of a fixed set of categories (e.g. `innodb_flush_method`).
    Categorical {
        /// Allowed category names.
        choices: Vec<String>,
    },
    /// Boolean flag.
    Bool,
}

impl Domain {
    /// Number of unit-cube dimensions this domain occupies in the one-hot
    /// encoding (1 for everything except categoricals).
    pub fn onehot_width(&self) -> usize {
        match self {
            Domain::Categorical { choices } => choices.len(),
            _ => 1,
        }
    }

    /// Number of distinct values, if finite and small enough to count in
    /// a `u64` (the full `i64` range holds one more than `u64::MAX`).
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            Domain::Float { .. } => None,
            Domain::Int { low, high, .. } => high.abs_diff(*low).checked_add(1),
            Domain::Quantized { low, high, step } => {
                (((high - low) / step).floor() as u64).checked_add(1)
            }
            Domain::Categorical { choices } => Some(choices.len() as u64),
            Domain::Bool => Some(2),
        }
    }
}

/// Prior knowledge about where good values live, used to bias sampling.
///
/// The tutorial calls this "marginal constraints": range limits and
/// log-scaling live on [`Domain`]; this type adds distributional knowledge
/// ("on an 8 GB box the buffer pool should be near 6-7 GB") and
/// LlamaTune-style *special values* (e.g. `0` = disabled) that deserve
/// dedicated probability mass rather than their Lebesgue share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Prior {
    /// No prior: uniform over the (possibly log-scaled) domain.
    #[default]
    Uniform,
    /// Truncated normal in unit-cube coordinates: samples are drawn around
    /// `mean01` (a position in `[0,1]` along the encoded axis) with the
    /// given standard deviation and clamped into the cube.
    Normal {
        /// Center in unit-cube coordinates.
        mean01: f64,
        /// Standard deviation in unit-cube coordinates.
        std01: f64,
    },
}

/// A single tunable parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Knob name, e.g. `innodb_buffer_pool_size`.
    pub name: String,
    /// Type and range.
    pub domain: Domain,
    /// Default value, used for inactive conditional parameters and as the
    /// baseline in duet benchmarking. Must lie inside the domain.
    pub default: Value,
    /// Sampling prior.
    pub prior: Prior,
    /// Special values (LlamaTune "special knob values handling"): each is
    /// sampled with probability `special_value_bias / len` instead of its
    /// natural measure. Only meaningful for numeric domains.
    pub special_values: Vec<f64>,
    /// Total probability mass devoted to special values (default 0.2 when
    /// any are declared).
    pub special_value_bias: f64,
}

impl Param {
    /// A continuous parameter with a mid-range default.
    pub fn float(name: impl Into<String>, low: f64, high: f64) -> Self {
        Param {
            name: name.into(),
            domain: Domain::Float {
                low,
                high,
                log: false,
            },
            default: Value::Float(0.5 * (low + high)),
            prior: Prior::Uniform,
            special_values: Vec::new(),
            special_value_bias: 0.2,
        }
    }

    /// An integer parameter with a mid-range default.
    pub fn int(name: impl Into<String>, low: i64, high: i64) -> Self {
        Param {
            name: name.into(),
            domain: Domain::Int {
                low,
                high,
                log: false,
            },
            default: Value::Int(low.midpoint(high)),
            prior: Prior::Uniform,
            special_values: Vec::new(),
            special_value_bias: 0.2,
        }
    }

    /// A quantized continuous parameter (`low + k * step`).
    pub fn quantized(name: impl Into<String>, low: f64, high: f64, step: f64) -> Self {
        Param {
            name: name.into(),
            domain: Domain::Quantized { low, high, step },
            default: Value::Float(low),
            prior: Prior::Uniform,
            special_values: Vec::new(),
            special_value_bias: 0.2,
        }
    }

    /// A categorical parameter; the first choice is the default.
    pub fn categorical(name: impl Into<String>, choices: &[&str]) -> Self {
        Param {
            name: name.into(),
            domain: Domain::Categorical {
                choices: choices.iter().map(|s| s.to_string()).collect(),
            },
            default: Value::Cat(choices.first().map(|s| s.to_string()).unwrap_or_default()),
            prior: Prior::Uniform,
            special_values: Vec::new(),
            special_value_bias: 0.2,
        }
    }

    /// A boolean parameter, default `false`.
    pub fn bool(name: impl Into<String>) -> Self {
        Param {
            name: name.into(),
            domain: Domain::Bool,
            default: Value::Bool(false),
            prior: Prior::Uniform,
            special_values: Vec::new(),
            special_value_bias: 0.2,
        }
    }

    /// Switches a float/int domain to log scale (builder style).
    ///
    /// # Panics
    /// Panics if applied to a non-numeric domain or a domain containing
    /// non-positive values.
    pub fn log_scale(mut self) -> Self {
        match &mut self.domain {
            Domain::Float { low, log, .. } => {
                assert!(*low > 0.0, "log scale requires positive lower bound");
                *log = true;
            }
            Domain::Int { low, log, .. } => {
                assert!(*low > 0, "log scale requires positive lower bound");
                *log = true;
            }
            _ => panic!("log_scale only applies to float/int parameters"), // lint: allow(D5) builder-time validation, panics by design
        }
        self
    }

    /// Sets the default value (builder style).
    pub fn default_value(mut self, v: impl Into<Value>) -> Self {
        self.default = v.into();
        self
    }

    /// Sets a truncated-normal prior in unit-cube coordinates (builder
    /// style).
    pub fn prior_normal(mut self, mean01: f64, std01: f64) -> Self {
        self.prior = Prior::Normal { mean01, std01 };
        self
    }

    /// Declares special values that receive dedicated sampling mass
    /// (builder style).
    pub fn with_special_values(mut self, values: &[f64]) -> Self {
        self.special_values = values.to_vec();
        self
    }

    /// Validates internal consistency (bounds ordered, default in range).
    pub fn validate(&self) -> crate::Result<()> {
        let err = |reason: String| SpaceError::InvalidDomain {
            param: self.name.clone(),
            reason,
        };
        match &self.domain {
            Domain::Float { low, high, log } => {
                if low >= high || low.is_nan() || high.is_nan() {
                    return Err(err(format!("low {low} must be < high {high}")));
                }
                if *log && *low <= 0.0 {
                    return Err(err("log scale requires positive bounds".into()));
                }
            }
            Domain::Int { low, high, log } => {
                if low > high {
                    return Err(err(format!("low {low} must be <= high {high}")));
                }
                if *log && *low <= 0 {
                    return Err(err("log scale requires positive bounds".into()));
                }
            }
            Domain::Quantized { low, high, step } => {
                if low >= high || low.is_nan() || high.is_nan() {
                    return Err(err(format!("low {low} must be < high {high}")));
                }
                if step.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(err(format!("step {step} must be positive")));
                }
            }
            Domain::Categorical { choices } => {
                if choices.is_empty() {
                    return Err(err("categorical needs at least one choice".into()));
                }
                let mut seen = std::collections::BTreeSet::new();
                for c in choices {
                    if !seen.insert(c) {
                        return Err(err(format!("duplicate choice '{c}'")));
                    }
                }
            }
            Domain::Bool => {}
        }
        self.check_value(&self.default).map_err(|e| match e {
            SpaceError::InvalidValue { param, reason } => SpaceError::InvalidDomain {
                param,
                reason: format!("default invalid: {reason}"),
            },
            other => other,
        })
    }

    /// Checks that `v` is a legal value for this parameter.
    pub fn check_value(&self, v: &Value) -> crate::Result<()> {
        let err = |reason: String| SpaceError::InvalidValue {
            param: self.name.clone(),
            reason,
        };
        match (&self.domain, v) {
            (Domain::Float { low, high, .. }, Value::Float(x)) => {
                let in_range = x.is_finite() && *x >= *low && *x <= *high;
                if in_range || self.special_values.contains(x) {
                    Ok(())
                } else {
                    Err(err(format!("{x} outside [{low}, {high}]")))
                }
            }
            (Domain::Int { low, high, .. }, Value::Int(x)) => {
                if (low..=high).contains(&x) || self.special_values.contains(&(*x as f64)) {
                    Ok(())
                } else {
                    Err(err(format!("{x} outside [{low}, {high}]")))
                }
            }
            (Domain::Quantized { low, high, step }, Value::Float(x)) => {
                if self.special_values.contains(x) {
                    return Ok(());
                }
                if !(x.is_finite() && *x >= *low - 1e-9 && *x <= *high + 1e-9) {
                    return Err(err(format!("{x} outside [{low}, {high}]")));
                }
                let k = (x - low) / step;
                if (k - k.round()).abs() > 1e-6 {
                    return Err(err(format!("{x} not on the {step} grid from {low}")));
                }
                Ok(())
            }
            (Domain::Categorical { choices }, Value::Cat(c)) => {
                if choices.iter().any(|x| x == c) {
                    Ok(())
                } else {
                    Err(err(format!("'{c}' not one of {choices:?}")))
                }
            }
            (Domain::Bool, Value::Bool(_)) => Ok(()),
            (_, v) => Err(err(format!("type mismatch: got {v:?}"))),
        }
    }

    /// Maps a value to its unit-cube coordinate in `[0, 1]`.
    ///
    /// Special values that fall outside the regular range are clamped to
    /// the nearest edge — the encoding is a model-facing view, and models
    /// only need *a* stable position for them.
    pub fn to_unit(&self, v: &Value) -> crate::Result<f64> {
        let bad = |reason: String| SpaceError::InvalidValue {
            param: self.name.clone(),
            reason,
        };
        let u = match (&self.domain, v) {
            (Domain::Float { low, high, log }, Value::Float(x)) => {
                numeric_to_unit(*x, *low, *high, *log)
            }
            (Domain::Int { low, high, log }, Value::Int(x)) => {
                numeric_to_unit(*x as f64, *low as f64, *high as f64, *log)
            }
            (Domain::Quantized { low, high, .. }, Value::Float(x)) => {
                numeric_to_unit(*x, *low, *high, false)
            }
            (Domain::Categorical { choices }, Value::Cat(c)) => {
                let idx = choices
                    .iter()
                    .position(|x| x == c)
                    .ok_or_else(|| bad(format!("'{c}' not a known choice")))?;
                if choices.len() == 1 {
                    0.0
                } else {
                    idx as f64 / (choices.len() - 1) as f64
                }
            }
            (Domain::Bool, Value::Bool(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            (_, v) => return Err(bad(format!("type mismatch: got {v:?}"))),
        };
        Ok(u.clamp(0.0, 1.0))
    }

    /// Maps a unit-cube coordinate back to a legal value (inverse of
    /// [`Param::to_unit`] up to quantization/rounding).
    pub fn from_unit(&self, u: f64) -> Value {
        let u = u.clamp(0.0, 1.0);
        match &self.domain {
            Domain::Float { low, high, log } => Value::Float(unit_to_numeric(u, *low, *high, *log)),
            Domain::Int { low, high, log } => {
                let x = unit_to_numeric(u, *low as f64, *high as f64, *log);
                Value::Int((x.round() as i64).clamp(*low, *high))
            }
            Domain::Quantized { low, high, step } => {
                let x = unit_to_numeric(u, *low, *high, false);
                let k = ((x - low) / step).round();
                Value::Float((low + k * step).clamp(*low, *high))
            }
            Domain::Categorical { choices } => {
                let n = choices.len();
                let idx = if n == 1 {
                    0
                } else {
                    ((u * n as f64).floor() as usize).min(n - 1)
                };
                Value::Cat(choices[idx].clone())
            }
            Domain::Bool => Value::Bool(u >= 0.5),
        }
    }

    /// Samples a value according to the prior and special-value bias.
    pub fn sample(&self, rng: &mut impl Rng) -> Value {
        // Special values first: they get `special_value_bias` of the mass.
        if !self.special_values.is_empty() && rng.gen::<f64>() < self.special_value_bias {
            let idx = rng.gen_range(0..self.special_values.len());
            let sv = self.special_values[idx];
            return match &self.domain {
                Domain::Int { .. } => Value::Int(sv.round() as i64),
                _ => Value::Float(sv),
            };
        }
        let u = match self.prior {
            Prior::Uniform => rng.gen::<f64>(),
            Prior::Normal { mean01, std01 } => {
                // Box-Muller truncated into [0,1] by clamping; bias at the
                // edges is acceptable for a sampling prior.
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (mean01 + std01 * z).clamp(0.0, 1.0)
            }
        };
        self.from_unit(u)
    }
}

/// Maps a numeric `x` in `[low, high]` to `[0,1]`, optionally via log space.
fn numeric_to_unit(x: f64, low: f64, high: f64, log: bool) -> f64 {
    if high <= low {
        // A one-value domain (`Param::int(name, k, k)`) has one position,
        // as a one-choice categorical does; dividing by its zero width
        // would hand the surrogate a NaN.
        return 0.0;
    }
    if log {
        let (l, h, x) = (low.ln(), high.ln(), x.max(low).ln());
        (x - l) / (h - l)
    } else {
        (x - low) / (high - low)
    }
}

/// Inverse of [`numeric_to_unit`].
fn unit_to_numeric(u: f64, low: f64, high: f64, log: bool) -> f64 {
    if log {
        let (l, h) = (low.ln(), high.ln());
        (l + u * (h - l)).exp().clamp(low, high)
    } else {
        (low + u * (high - low)).clamp(low, high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn float_unit_roundtrip() {
        let p = Param::float("x", 10.0, 20.0);
        let u = p.to_unit(&Value::Float(15.0)).unwrap();
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(p.from_unit(u), Value::Float(15.0));
    }

    #[test]
    fn log_scale_midpoint_is_geometric_mean() {
        let p = Param::float("x", 1.0, 100.0).log_scale();
        match p.from_unit(0.5) {
            Value::Float(v) => assert!((v - 10.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn int_rounding_and_bounds() {
        let p = Param::int("n", 1, 10);
        assert_eq!(p.from_unit(0.0), Value::Int(1));
        assert_eq!(p.from_unit(1.0), Value::Int(10));
        assert_eq!(p.from_unit(2.0), Value::Int(10)); // clamped
    }

    #[test]
    fn quantized_snaps_to_grid() {
        let p = Param::quantized("q", 0.0, 1.0, 0.25);
        match p.from_unit(0.4) {
            Value::Float(v) => assert!((v - 0.5).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.check_value(&Value::Float(0.75)).is_ok());
        assert!(p.check_value(&Value::Float(0.3)).is_err());
    }

    #[test]
    fn categorical_unit_roundtrip_all_choices() {
        let p = Param::categorical("m", &["a", "b", "c"]);
        for c in ["a", "b", "c"] {
            let u = p.to_unit(&Value::Cat(c.into())).unwrap();
            assert_eq!(p.from_unit(u), Value::Cat(c.into()));
        }
    }

    #[test]
    fn bool_unit_threshold() {
        let p = Param::bool("jit");
        assert_eq!(p.from_unit(0.49), Value::Bool(false));
        assert_eq!(p.from_unit(0.51), Value::Bool(true));
    }

    #[test]
    fn validate_rejects_bad_domains() {
        assert!(Param::float("x", 2.0, 1.0).validate().is_err());
        assert!(Param::quantized("q", 0.0, 1.0, 0.0).validate().is_err());
        assert!(Param::categorical("c", &["a", "a"]).validate().is_err());
        assert!(Param::int("n", 5, 4).validate().is_err());
    }

    #[test]
    fn validate_rejects_default_out_of_range() {
        let p = Param::float("x", 0.0, 1.0).default_value(5.0);
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "positive lower bound")]
    fn log_scale_rejects_nonpositive() {
        let _ = Param::float("x", 0.0, 1.0).log_scale();
    }

    #[test]
    fn special_values_accepted_out_of_range() {
        // -1 means "disabled" for many kernel knobs.
        let p = Param::float("cost", 100.0, 1000.0).with_special_values(&[-1.0]);
        assert!(p.check_value(&Value::Float(-1.0)).is_ok());
        assert!(p.check_value(&Value::Float(-2.0)).is_err());
    }

    #[test]
    fn special_values_get_sampling_mass() {
        let p = Param::float("cost", 100.0, 1000.0).with_special_values(&[-1.0]);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 2000;
        let hits = (0..n)
            .filter(|_| matches!(p.sample(&mut rng), Value::Float(v) if v == -1.0))
            .count();
        let frac = hits as f64 / n as f64;
        assert!(
            (frac - 0.2).abs() < 0.05,
            "special-value mass {frac} far from bias 0.2"
        );
    }

    #[test]
    fn normal_prior_concentrates_samples() {
        let p = Param::float("x", 0.0, 1.0).prior_normal(0.9, 0.05);
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..500)
            .map(|_| p.sample(&mut rng).as_f64().unwrap())
            .sum::<f64>()
            / 500.0;
        assert!(
            (mean - 0.9).abs() < 0.05,
            "prior mean {mean} should be near 0.9"
        );
    }

    #[test]
    fn sample_respects_bounds() {
        let p = Param::int("n", 3, 7).log_scale();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = p.sample(&mut rng).as_i64().unwrap();
            assert!((3..=7).contains(&v));
        }
    }

    #[test]
    fn cardinality() {
        assert_eq!(Param::int("n", 1, 10).domain.cardinality(), Some(10));
        assert_eq!(Param::bool("b").domain.cardinality(), Some(2));
        assert_eq!(Param::float("x", 0.0, 1.0).domain.cardinality(), None);
        assert_eq!(
            Param::quantized("q", 0.0, 1.0, 0.25).domain.cardinality(),
            Some(5)
        );
        assert_eq!(
            Param::categorical("c", &["a", "b", "c"])
                .domain
                .cardinality(),
            Some(3)
        );
    }
}
