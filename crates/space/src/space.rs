//! The configuration space: a validated set of parameters plus conditional
//! structure and constraints, with the encodings optimizers consume.

use crate::{Condition, Config, Constraint, Domain, Param, SpaceError};
use rand::Rng;
use std::collections::BTreeMap;

/// A validated configuration space.
///
/// Construct through [`Space::builder`]. Parameter order is the insertion
/// order and defines the layout of the encoded vectors.
#[derive(Debug, Clone)]
pub struct Space {
    params: Vec<Param>,
    index: BTreeMap<String, usize>,
    conditions: Vec<Condition>,
    constraints: Vec<Constraint>,
    /// Parameter evaluation order such that parents precede children.
    topo_order: Vec<usize>,
}

/// Builder for [`Space`].
#[derive(Debug, Default)]
pub struct SpaceBuilder {
    params: Vec<Param>,
    conditions: Vec<Condition>,
    constraints: Vec<Constraint>,
}

impl SpaceBuilder {
    /// Adds a parameter.
    #[expect(
        clippy::should_implement_trait,
        reason = "builder verb, not arithmetic"
    )]
    pub fn add(mut self, param: Param) -> Self {
        self.params.push(param);
        self
    }

    /// Adds a conditional-activation rule.
    pub fn condition(mut self, condition: Condition) -> Self {
        self.conditions.push(condition);
        self
    }

    /// Adds a cross-parameter constraint.
    pub fn constraint(mut self, constraint: Constraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Validates and builds the space.
    pub fn build(self) -> crate::Result<Space> {
        let mut index = BTreeMap::new();
        for (i, p) in self.params.iter().enumerate() {
            p.validate()?;
            if index.insert(p.name.clone(), i).is_some() {
                return Err(SpaceError::DuplicateParam(p.name.clone()));
            }
        }
        for c in &self.conditions {
            for name in [&c.child, &c.parent] {
                if !index.contains_key(name) {
                    return Err(SpaceError::UnknownParam(name.clone()));
                }
            }
            if c.child == c.parent {
                return Err(SpaceError::ConditionCycle(c.child.clone()));
            }
        }
        let topo_order = topo_sort(&self.params, &index, &self.conditions)?;
        Ok(Space {
            params: self.params,
            index,
            conditions: self.conditions,
            constraints: self.constraints,
            topo_order,
        })
    }
}

/// Kahn topological sort of parameters under parent→child condition edges.
fn topo_sort(
    params: &[Param],
    index: &BTreeMap<String, usize>,
    conditions: &[Condition],
) -> crate::Result<Vec<usize>> {
    let n = params.len();
    let mut indegree = vec![0usize; n];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in conditions {
        let child = index[&c.child];
        let parent = index[&c.parent];
        children[parent].push(child);
        indegree[child] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &ch in &children[i] {
            indegree[ch] -= 1;
            if indegree[ch] == 0 {
                queue.push(ch);
            }
        }
    }
    if order.len() != n {
        let stuck = (0..n)
            .find(|&i| indegree[i] > 0)
            .map(|i| params[i].name.clone())
            .unwrap_or_default();
        return Err(SpaceError::ConditionCycle(stuck));
    }
    Ok(order)
}

impl Space {
    /// Starts building a space.
    pub fn builder() -> SpaceBuilder {
        SpaceBuilder::default()
    }

    /// Parameters in declaration order (the encoding layout).
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Number of parameters (= unit-encoding dimensionality).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Looks a parameter up by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.index.get(name).map(|&i| &self.params[i])
    }

    /// Conditional-activation rules.
    pub fn conditions(&self) -> &[Condition] {
        &self.conditions
    }

    /// Cross-parameter constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Dimensionality of the one-hot encoding.
    pub fn onehot_dim(&self) -> usize {
        self.params.iter().map(|p| p.domain.onehot_width()).sum()
    }

    /// The all-defaults configuration (every parameter active).
    pub fn default_config(&self) -> Config {
        self.params
            .iter()
            .map(|p| (p.name.clone(), p.default.clone()))
            .collect()
    }

    /// Whether `name` is active under `config` per the conditional rules.
    /// Parameters without conditions are always active; conditional ones
    /// require *all* their conditions to hold (and, transitively, their
    /// parents to be active).
    pub fn is_active(&self, name: &str, config: &Config) -> bool {
        self.conditions
            .iter()
            .filter(|c| c.child == name)
            .all(|c| c.is_active(config) && self.is_active(&c.parent, config))
    }

    /// Validates a configuration: every *active* parameter must be present
    /// and in range; inactive or unknown assignments are rejected.
    pub fn validate_config(&self, config: &Config) -> crate::Result<()> {
        for (name, value) in config.iter() {
            match self.param(name) {
                None => return Err(SpaceError::UnknownParam(name.clone())),
                Some(p) => p.check_value(value)?,
            }
        }
        for p in &self.params {
            if self.is_active(&p.name, config) && config.get(&p.name).is_none() {
                return Err(SpaceError::InvalidValue {
                    param: p.name.clone(),
                    reason: "active parameter missing from config".into(),
                });
            }
        }
        Ok(())
    }

    /// Whether `config` satisfies every constraint.
    pub fn is_feasible(&self, config: &Config) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(config))
    }

    /// Samples a random configuration respecting priors and conditional
    /// structure. Constraints are enforced by rejection (up to 1000
    /// attempts), after which the last sample is returned regardless — a
    /// pathological constraint should degrade, not deadlock, the tuner.
    pub fn sample(&self, rng: &mut impl Rng) -> Config {
        for _ in 0..1000 {
            let config = self.sample_unconstrained(rng);
            if self.is_feasible(&config) {
                return config;
            }
        }
        self.sample_unconstrained(rng)
    }

    /// Samples ignoring constraints (but honouring conditional structure:
    /// inactive parameters are simply absent).
    fn sample_unconstrained(&self, rng: &mut impl Rng) -> Config {
        let mut config = Config::new();
        for &i in &self.topo_order {
            let p = &self.params[i];
            if self.is_active(&p.name, &config) {
                config.set(p.name.clone(), p.sample(rng));
            }
        }
        config
    }

    /// Encodes a configuration into the unit cube, one dimension per
    /// parameter in declaration order. Inactive/missing parameters encode
    /// as their default's position (the standard "default imputation" used
    /// by SMAC for conditional spaces).
    pub fn encode_unit(&self, config: &Config) -> crate::Result<Vec<f64>> {
        self.params
            .iter()
            .map(|p| {
                let value = config.get(&p.name).unwrap_or(&p.default);
                p.to_unit(value)
            })
            .collect()
    }

    /// Decodes a unit-cube vector into a configuration, dropping parameters
    /// that the decoded parent values deactivate.
    pub fn decode_unit(&self, x: &[f64]) -> crate::Result<Config> {
        if x.len() != self.params.len() {
            return Err(SpaceError::EncodingLength {
                expected: self.params.len(),
                actual: x.len(),
            });
        }
        // Decode everything first, then strip inactive children using the
        // topological order so cascading deactivation is handled.
        let mut config: Config = self
            .params
            .iter()
            .zip(x)
            .map(|(p, &u)| (p.name.clone(), p.from_unit(u)))
            .collect();
        for &i in &self.topo_order {
            let name = &self.params[i].name;
            if !self.is_active(name, &config) {
                config.remove(name);
            }
        }
        Ok(config)
    }

    /// Encodes into the one-hot layout: numeric/bool parameters occupy one
    /// dimension, categorical parameters `k` indicator dimensions.
    pub fn encode_onehot(&self, config: &Config) -> crate::Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.onehot_dim());
        for p in &self.params {
            let value = config.get(&p.name).unwrap_or(&p.default);
            match &p.domain {
                Domain::Categorical { choices } => {
                    let chosen = value.as_str().ok_or_else(|| SpaceError::InvalidValue {
                        param: p.name.clone(),
                        reason: format!("expected categorical, got {value:?}"),
                    })?;
                    for c in choices {
                        out.push(if c == chosen { 1.0 } else { 0.0 });
                    }
                }
                _ => out.push(p.to_unit(value)?),
            }
        }
        Ok(out)
    }

    /// A full-factorial grid with `per_dim` points per parameter
    /// (categoricals/bools contribute their exact cardinality). The
    /// tutorial's "grid search" baseline. Returns configs in odometer order.
    ///
    /// The grid size grows as `per_dim^d`; callers cap the budget by
    /// choosing `per_dim` accordingly. As a safety valve against
    /// accidental combinatorial explosions (a 40-knob space at
    /// `per_dim = 3` is ~10^19 points), enumeration is hard-capped at
    /// 1,000,000 points: beyond that the sweep stops early rather than
    /// attempting an impossible allocation.
    pub fn grid(&self, per_dim: usize) -> Vec<Config> {
        const MAX_GRID_POINTS: usize = 1_000_000;
        let per_dim = per_dim.max(1);
        let axis_sizes: Vec<usize> = self
            .params
            .iter()
            .map(|p| match p.domain.cardinality() {
                Some(c) => (c as usize).min(per_dim),
                None => per_dim,
            })
            .collect();
        let total: usize = axis_sizes
            .iter()
            .try_fold(1usize, |acc, &n| acc.checked_mul(n))
            .unwrap_or(usize::MAX)
            .min(MAX_GRID_POINTS);
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; self.params.len()];
        for _ in 0..total {
            let x: Vec<f64> = idx
                .iter()
                .zip(&axis_sizes)
                .map(|(&i, &n)| {
                    if n == 1 {
                        0.5
                    } else {
                        i as f64 / (n - 1) as f64
                    }
                })
                .collect();
            if let Ok(cfg) = self.decode_unit(&x) {
                if self.is_feasible(&cfg) {
                    out.push(cfg);
                }
            }
            // Odometer increment.
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < axis_sizes[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        // Grids over conditional spaces collapse deactivated children onto
        // the same config; dedup preserves the "try each distinct config
        // once" contract.
        let mut seen = std::collections::BTreeSet::new();
        out.retain(|c| seen.insert(c.render()));
        out
    }

    /// Produces a neighbouring configuration by perturbing each active
    /// parameter with probability `1/d` (at least one), moving numeric
    /// values by a Gaussian step of `scale` in unit space and resampling
    /// categoricals. This is the mutation kernel shared by simulated
    /// annealing and the genetic algorithm.
    pub fn neighbor(&self, config: &Config, scale: f64, rng: &mut impl Rng) -> Config {
        let x = self
            .encode_unit(config)
            .expect("config produced by this space must encode"); // lint: allow(D5) documented precondition on config origin
        for _ in 0..100 {
            let mut y = x.clone();
            let d = y.len().max(1);
            let mut changed = false;
            for (i, yi) in y.iter_mut().enumerate() {
                if rng.gen::<f64>() < 1.0 / d as f64 {
                    changed = true;
                    match &self.params[i].domain {
                        Domain::Categorical { .. } | Domain::Bool => {
                            *yi = rng.gen::<f64>();
                        }
                        _ => {
                            let u1: f64 = rng.gen::<f64>().max(1e-12);
                            let u2: f64 = rng.gen();
                            let z =
                                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                            *yi = (*yi + scale * z).clamp(0.0, 1.0);
                        }
                    }
                }
            }
            if !changed {
                let i = rng.gen_range(0..d);
                y[i] = rng.gen::<f64>();
            }
            let cfg = self
                .decode_unit(&y)
                .expect("vector of correct length must decode"); // lint: allow(D5) perturbed vector keeps the space dimension
            if self.is_feasible(&cfg) {
                return cfg;
            }
        }
        config.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pg_like_space() -> Space {
        Space::builder()
            .add(Param::float("shared_buffers_gb", 0.25, 8.0).log_scale())
            .add(Param::bool("jit"))
            .add(Param::float("jit_above_cost", 1e3, 1e6).log_scale())
            .add(Param::categorical(
                "wal_sync",
                &["fsync", "fdatasync", "open_sync"],
            ))
            .condition(Condition::equals("jit_above_cost", "jit", true))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_duplicates_and_unknowns() {
        let dup = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .add(Param::float("x", 0.0, 2.0))
            .build();
        assert!(matches!(dup, Err(SpaceError::DuplicateParam(_))));

        let unknown = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .condition(Condition::equals("ghost", "x", 1.0))
            .build();
        assert!(matches!(unknown, Err(SpaceError::UnknownParam(_))));
    }

    #[test]
    fn builder_rejects_condition_cycles() {
        let cyc = Space::builder()
            .add(Param::bool("a"))
            .add(Param::bool("b"))
            .condition(Condition::equals("a", "b", true))
            .condition(Condition::equals("b", "a", true))
            .build();
        assert!(matches!(cyc, Err(SpaceError::ConditionCycle(_))));

        let self_ref = Space::builder()
            .add(Param::bool("a"))
            .condition(Condition::equals("a", "a", true))
            .build();
        assert!(matches!(self_ref, Err(SpaceError::ConditionCycle(_))));
    }

    #[test]
    fn conditional_sampling_omits_inactive() {
        let space = pg_like_space();
        let mut rng = StdRng::seed_from_u64(11);
        let mut saw_active = false;
        let mut saw_inactive = false;
        for _ in 0..100 {
            let c = space.sample(&mut rng);
            let jit = c.get_bool("jit").unwrap();
            let has_cost = c.get("jit_above_cost").is_some();
            assert_eq!(jit, has_cost, "jit_above_cost present iff jit=true: {c}");
            saw_active |= jit;
            saw_inactive |= !jit;
        }
        assert!(saw_active && saw_inactive);
    }

    #[test]
    fn encode_decode_unit_roundtrip_preserves_values() {
        let space = pg_like_space();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            let x = space.encode_unit(&c).unwrap();
            assert_eq!(x.len(), 4);
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let back = space.decode_unit(&x).unwrap();
            // Categorical and bool decode exactly; floats within tolerance.
            assert_eq!(c.get_str("wal_sync"), back.get_str("wal_sync"));
            assert_eq!(c.get_bool("jit"), back.get_bool("jit"));
            let a = c.get_f64("shared_buffers_gb").unwrap();
            let b = back.get_f64("shared_buffers_gb").unwrap();
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
        }
    }

    #[test]
    fn onehot_layout_and_roundtrip() {
        let space = pg_like_space();
        assert_eq!(space.onehot_dim(), 3 + 3); // 3 scalars + 3 categories
        let c = space
            .default_config()
            .with("wal_sync", "open_sync")
            .with("jit", true)
            .with("jit_above_cost", 5e4);
        let x = space.encode_onehot(&c).unwrap();
        assert_eq!(x.len(), 6);
        assert_eq!(&x[3..], &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn validate_config_checks_active_presence() {
        let space = pg_like_space();
        // jit=true but jit_above_cost missing -> invalid.
        let c = Config::new()
            .with("shared_buffers_gb", 1.0)
            .with("jit", true)
            .with("wal_sync", "fsync");
        assert!(space.validate_config(&c).is_err());
        // jit=false, cost absent -> fine.
        let c2 = Config::new()
            .with("shared_buffers_gb", 1.0)
            .with("jit", false)
            .with("wal_sync", "fsync");
        assert!(space.validate_config(&c2).is_ok());
        // Unknown key -> error.
        let c3 = c2.clone().with("bogus", 1.0);
        assert!(matches!(
            space.validate_config(&c3),
            Err(SpaceError::UnknownParam(_))
        ));
    }

    #[test]
    fn constraints_respected_by_sampler() {
        let space = Space::builder()
            .add(Param::float("chunk", 0.0, 10.0))
            .add(Param::float("pool", 0.0, 10.0))
            .constraint(Constraint::ratio_le("chunk", "pool", 0.5))
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let c = space.sample(&mut rng);
            assert!(
                c.get_f64("chunk").unwrap() <= 0.5 * c.get_f64("pool").unwrap() + 1e-9,
                "sampler produced infeasible {c}"
            );
        }
    }

    #[test]
    fn grid_covers_endpoints_and_dedups() {
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .add(Param::bool("b"))
            .build()
            .unwrap();
        let grid = space.grid(3);
        assert_eq!(grid.len(), 6); // 3 x-values x 2 bools
        assert!(grid
            .iter()
            .any(|c| c.get_f64("x") == Some(0.0) && c.get_bool("b") == Some(false)));
        assert!(grid
            .iter()
            .any(|c| c.get_f64("x") == Some(1.0) && c.get_bool("b") == Some(true)));
    }

    #[test]
    fn grid_respects_cardinality_cap() {
        let space = Space::builder()
            .add(Param::int("n", 1, 2)) // only 2 distinct values
            .build()
            .unwrap();
        let grid = space.grid(10);
        assert_eq!(grid.len(), 2);
    }

    #[test]
    fn cardinality_and_grid_survive_the_full_integer_range() {
        let whole = Domain::Int {
            low: i64::MIN,
            high: i64::MAX,
            log: false,
        };
        assert_eq!(whole.cardinality(), None, "2^64 values do not fit a u64");
        let almost = Domain::Int {
            low: i64::MIN + 1,
            high: i64::MAX,
            log: false,
        };
        assert_eq!(almost.cardinality(), Some(u64::MAX));
        let tiny_steps = Domain::Quantized {
            low: 0.0,
            high: 1e300,
            step: 1e-300,
        };
        assert_eq!(tiny_steps.cardinality(), None);
        let space = Space::builder()
            .add(Param::int("n", i64::MIN, i64::MAX))
            .build()
            .unwrap();
        let grid = space.grid(3);
        let ns: Vec<i64> = grid.iter().map(|c| c.get_i64("n").unwrap()).collect();
        assert_eq!(ns, [i64::MIN, 0, i64::MAX]);
    }

    #[test]
    fn one_value_numeric_domain_encodes_to_zero_not_nan() {
        let space = Space::builder()
            .add(Param::int("fixed", 7, 7))
            .add(Param::int("fixed_log", 3, 3).log_scale())
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let d = space.default_config();
        assert_eq!(space.encode_unit(&d).unwrap(), [0.0, 0.0, 0.5]);
        assert_eq!(space.encode_onehot(&d).unwrap(), [0.0, 0.0, 0.5]);
        for u in [0.0, 0.3, 1.0] {
            let back = space.decode_unit(&[u, u, 0.5]).unwrap();
            assert_eq!(back, d, "decoded from {u}");
            assert_eq!(space.encode_unit(&back).unwrap(), [0.0, 0.0, 0.5]);
        }
    }

    #[test]
    fn neighbor_changes_something_and_stays_feasible() {
        let space = pg_like_space();
        let mut rng = StdRng::seed_from_u64(9);
        let base = space.sample(&mut rng);
        let mut changed = 0;
        for _ in 0..20 {
            let n = space.neighbor(&base, 0.2, &mut rng);
            assert!(space.validate_config(&n).is_ok(), "neighbor invalid: {n}");
            if n != base {
                changed += 1;
            }
        }
        assert!(changed > 10, "neighbor almost never changes the config");
    }

    #[test]
    fn default_config_is_valid_when_unconditional() {
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .add(Param::categorical("c", &["a", "b"]))
            .build()
            .unwrap();
        let d = space.default_config();
        assert!(space.validate_config(&d).is_ok());
    }

    #[test]
    fn encoding_length_errors() {
        let space = pg_like_space();
        assert!(matches!(
            space.decode_unit(&[0.5]),
            Err(SpaceError::EncodingLength { .. })
        ));
    }

    #[test]
    fn transitive_deactivation() {
        // c depends on b, b depends on a: a=false must deactivate both.
        let space = Space::builder()
            .add(Param::bool("a"))
            .add(Param::bool("b"))
            .add(Param::float("c", 0.0, 1.0))
            .condition(Condition::equals("b", "a", true))
            .condition(Condition::equals("c", "b", true))
            .build()
            .unwrap();
        let cfg = space.decode_unit(&[0.0, 1.0, 0.5]).unwrap(); // a=false
        assert!(cfg.get("b").is_none());
        assert!(cfg.get("c").is_none());
        let cfg2 = space.decode_unit(&[1.0, 1.0, 0.5]).unwrap();
        assert!(cfg2.get("b").is_some());
        assert!(cfg2.get("c").is_some());
    }
}
