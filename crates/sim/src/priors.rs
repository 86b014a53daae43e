//! "Manual-derived" knob hints (tutorial slides 63-64).
//!
//! DB-BERT and GPTuner use language models to extract tuning knowledge
//! from manuals, docs, and StackOverflow: which knobs matter, what ranges
//! are sensible on this hardware, which special values exist. The
//! *downstream artifact* of that extraction is a biased search space —
//! and that artifact is what this module provides, as curated hint tables
//! per simulated system (standing in for the LLM pass, which needs no
//! reproduction: its output format is the interesting part).

use crate::Environment;
use autotune_space::{Param, Space};

/// One extracted hint about a knob.
struct KnobHint {
    /// Knob name in the system's space.
    knob: &'static str,
    /// Biased sub-range in unit-cube coordinates of the knob's axis
    /// (`(0.0, 1.0)` = no restriction).
    range01: (f64, f64),
    /// Optional truncated-normal prior `(mean01, std01)` inside the range.
    prior01: Option<(f64, f64)>,
}

/// Hints for the DBMS simulator's knobs on a given environment — the kind
/// of advice a model reads out of MySQL/PostgreSQL manuals — most
/// important first, each under the manual quote that motivates it.
fn dbms_manual_hints(env: &Environment) -> [KnobHint; 5] {
    // "innodb_buffer_pool_size: typically 50-75% of system memory."
    // Map the GB recommendation into unit coords of the log-scaled axis
    // [0.125, 64] GB: u = ln(v/0.125) / ln(64/0.125).
    let bp_unit = |gb: f64| ((gb / 0.125).ln() / (64.0 / 0.125f64).ln()).clamp(0.0, 1.0);
    let lo = bp_unit(0.5 * env.ram_gb);
    let hi = bp_unit(0.8 * env.ram_gb);
    [
        // Buffer pool: 50-80% of system memory; the single most impactful
        // setting.
        KnobHint {
            knob: "buffer_pool_gb",
            range01: (lo, hi),
            prior01: Some(((lo + hi) / 2.0, 0.1)),
        },
        // O_DIRECT avoids double buffering on most Linux filesystems.
        KnobHint {
            knob: "flush_method",
            range01: (0.0, 1.0),
            prior01: None,
        },
        // Redo logs sized for ~1h of writes; small logs cause checkpoint
        // storms. Favour large logs on the log-scaled axis.
        KnobHint {
            knob: "log_file_size_mb",
            range01: (0.6, 1.0),
            prior01: Some((0.8, 0.15)),
        },
        // Threads ~ 2x cores; beyond that context switching dominates.
        KnobHint {
            knob: "worker_threads",
            range01: (0.2, 0.7),
            prior01: Some((0.45, 0.15)),
        },
        // More background I/O threads help on SSD/NVMe.
        KnobHint {
            knob: "io_threads",
            range01: (0.3, 1.0),
            prior01: None,
        },
    ]
}

/// The DBMS simulator's `space` biased by the manual hints for `env`:
/// numeric ranges narrowed to the hinted sub-range, with the hinted
/// priors installed. Unhinted knobs pass through untouched, so the tuner
/// can still correct a wrong manual.
///
/// Categorical/bool knobs cannot be range-narrowed (a hint's range is
/// ignored for them); priors apply to numeric axes only.
pub fn dbms_hinted_space(space: &Space, env: &Environment) -> Space {
    let hints = dbms_manual_hints(env);
    let mut builder = Space::builder();
    for p in space.params() {
        let hint = hints.iter().find(|h| h.knob == p.name);
        let mut param: Param = p.clone();
        if let Some(h) = hint {
            param = narrow_param(param, h);
        }
        builder = builder.add(param);
    }
    for c in space.conditions() {
        builder = builder.condition(c.clone());
    }
    for c in space.constraints() {
        builder = builder.constraint(c.clone());
    }
    builder.build().expect("narrowing preserves validity") // lint: allow(D5) narrowing preserves a valid space
}

/// Narrows one parameter to a hint's sub-range (numeric domains only).
fn narrow_param(mut param: Param, hint: &KnobHint) -> Param {
    use autotune_space::{Domain, Value};
    let (lo01, hi01) = hint.range01;
    let lo01 = lo01.clamp(0.0, 1.0);
    let hi01 = hi01.clamp(lo01 + 1e-9, 1.0);
    match &param.domain {
        Domain::Float { .. } | Domain::Int { .. } | Domain::Quantized { .. } => {
            let new_low = param.from_unit(lo01);
            let new_high = param.from_unit(hi01);
            match (&mut param.domain, new_low, new_high) {
                (Domain::Float { low, high, .. }, Value::Float(l), Value::Float(h)) if l < h => {
                    *low = l;
                    *high = h;
                }
                (Domain::Int { low, high, .. }, Value::Int(l), Value::Int(h)) if l < h => {
                    *low = l;
                    *high = h;
                }
                (Domain::Quantized { low, high, .. }, Value::Float(l), Value::Float(h))
                    if l < h =>
                {
                    *low = l;
                    *high = h;
                }
                _ => {}
            }
            // Re-anchor the default inside the narrowed range.
            param.default = param.from_unit(0.5);
            if let Some((mean01, std01)) = hint.prior01 {
                // The prior's coordinates are in the *original* axis; remap
                // into the narrowed axis.
                let remapped = ((mean01 - lo01) / (hi01 - lo01)).clamp(0.0, 1.0);
                param = param.prior_normal(remapped, std01 / (hi01 - lo01));
            }
        }
        _ => {}
    }
    param
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbmsSim, SimSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dbms_hints_narrow_buffer_pool_to_ram_share() {
        let env = Environment::medium(); // 16 GB
        let space = dbms_hinted_space(DbmsSim::new().space(), &env);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let cfg = space.sample(&mut rng);
            let bp = cfg.get_f64("buffer_pool_gb").expect("present");
            assert!(
                (0.45 * env.ram_gb..=0.85 * env.ram_gb).contains(&bp),
                "buffer pool {bp} escaped the hinted 50-80% RAM band"
            );
        }
    }

    #[test]
    fn hinted_space_keeps_conditions_and_constraints() {
        let env = Environment::medium();
        let space = dbms_hinted_space(DbmsSim::new().space(), &env);
        assert_eq!(
            space.conditions().len(),
            DbmsSim::new().space().conditions().len()
        );
        assert_eq!(
            space.constraints().len(),
            DbmsSim::new().space().constraints().len()
        );
        // Conditional structure still applies.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            assert!(space.validate_config(&c).is_ok());
            assert!(space.is_feasible(&c));
        }
    }

    #[test]
    fn unhinted_knobs_untouched() {
        let env = Environment::medium();
        let orig = DbmsSim::new();
        let space = dbms_hinted_space(orig.space(), &env);
        let orig_qc = orig.space().param("query_cache").expect("exists");
        let new_qc = space.param("query_cache").expect("exists");
        assert_eq!(orig_qc.domain, new_qc.domain);
    }
}
