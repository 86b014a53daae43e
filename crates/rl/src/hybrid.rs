//! OPPerTune-style hybrid bandit ("AutoScoper", tutorial slide 83).
//!
//! Production services see heterogeneous traffic: the right configuration
//! for `job_type=etl, rps=high` differs from `job_type=oltp, rps=low`.
//! The hybrid bandit *scopes* tuning by discrete context key — one
//! independent bandit per observed context — so each traffic class
//! converges to its own arm instead of averaging across classes.
//!
//! Cost convention: **minimize** (matches the underlying
//! [`autotune_optimizer::bandit::Bandit`]).

use autotune_optimizer::bandit::{Bandit, BanditPolicy};
use rand::Rng;
use std::collections::BTreeMap;

/// A discrete context key, e.g. `("etl", "rps_high")`.
///
/// Callers bucketize continuous signals (requests/sec, data size) into
/// bands before building the key; the tuner treats keys as opaque.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ContextKey(pub Vec<String>);

impl ContextKey {
    /// Builds a key from string-ish parts.
    pub fn new<I, S>(parts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ContextKey(parts.into_iter().map(Into::into).collect())
    }
}

impl std::fmt::Display for ContextKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0.join("/"))
    }
}

/// Context-scoped bandit: an independent [`Bandit`] per context key.
#[derive(Debug)]
pub struct HybridBandit {
    n_arms: usize,
    policy: BanditPolicy,
    scopes: BTreeMap<ContextKey, Bandit>,
    /// Fallback bandit that pools all traffic; consulted for brand-new
    /// contexts so they start from the global prior instead of uniform.
    global: Bandit,
}

impl HybridBandit {
    /// Creates a hybrid bandit over `n_arms` configurations.
    pub fn new(n_arms: usize, policy: BanditPolicy) -> Self {
        HybridBandit {
            n_arms,
            policy,
            scopes: BTreeMap::new(),
            global: Bandit::new(n_arms, policy),
        }
    }

    /// Number of arms.
    pub fn n_arms(&self) -> usize {
        self.n_arms
    }

    /// Selects an arm for the given context.
    ///
    /// A context seen for the first time consults the pooled global bandit
    /// (warm start); afterwards its scoped bandit takes over.
    pub fn select(&mut self, context: &ContextKey, rng: &mut (impl Rng + ?Sized)) -> usize {
        match self.scopes.get(context) {
            Some(b) if b.total_pulls() >= self.n_arms as u64 => b.select(rng),
            Some(b) => {
                // Young scope: mix scoped exploration with global knowledge.
                if b.total_pulls() == 0 && self.global.total_pulls() >= self.n_arms as u64 {
                    self.global.greedy_arm()
                } else {
                    b.select(rng)
                }
            }
            None => {
                self.scopes
                    .insert(context.clone(), Bandit::new(self.n_arms, self.policy));
                if self.global.total_pulls() >= self.n_arms as u64 {
                    self.global.greedy_arm()
                } else {
                    rng.gen_range(0..self.n_arms)
                }
            }
        }
    }

    /// Records the observed cost of `arm` under `context`.
    pub fn update(&mut self, context: &ContextKey, arm: usize, cost: f64) {
        self.scopes
            .entry(context.clone())
            .or_insert_with(|| Bandit::new(self.n_arms, self.policy))
            .update(arm, cost);
        self.global.update(arm, cost);
    }

    /// The currently-best arm for a context (global fallback when unseen).
    pub fn greedy(&self, context: &ContextKey) -> usize {
        self.scopes
            .get(context)
            .filter(|b| b.total_pulls() > 0)
            .map(|b| b.greedy_arm())
            .unwrap_or_else(|| self.global.greedy_arm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two traffic classes with opposite best arms.
    fn cost(ctx: &ContextKey, arm: usize, rng: &mut StdRng) -> f64 {
        let base = match (ctx.0[0].as_str(), arm) {
            ("oltp", 0) => 1.0,
            ("oltp", _) => 3.0,
            ("etl", 1) => 1.0,
            ("etl", _) => 3.0,
            _ => 2.0,
        };
        base + 0.2 * rng.gen::<f64>()
    }

    #[test]
    fn scopes_learn_opposite_arms() {
        let mut hb = HybridBandit::new(2, BanditPolicy::Ucb { c: 1.0 });
        let mut rng = StdRng::seed_from_u64(1);
        let oltp = ContextKey::new(["oltp"]);
        let etl = ContextKey::new(["etl"]);
        for step in 0..400 {
            let ctx = if step % 2 == 0 { &oltp } else { &etl };
            let arm = hb.select(ctx, &mut rng);
            let c = cost(ctx, arm, &mut rng);
            hb.update(ctx, arm, c);
        }
        assert_eq!(hb.greedy(&oltp), 0);
        assert_eq!(hb.greedy(&etl), 1);
        assert_eq!(hb.scopes.len(), 2);
    }

    #[test]
    fn a_single_pooled_bandit_would_average() {
        // Sanity check of the motivation: a global bandit alternating
        // between contexts cannot satisfy both, so at least one context
        // gets a suboptimal greedy arm.
        let mut global = Bandit::new(2, BanditPolicy::Ucb { c: 1.0 });
        let mut rng = StdRng::seed_from_u64(2);
        let oltp = ContextKey::new(["oltp"]);
        let etl = ContextKey::new(["etl"]);
        for step in 0..400 {
            let ctx = if step % 2 == 0 { &oltp } else { &etl };
            let arm = global.select(&mut rng);
            global.update(arm, cost(ctx, arm, &mut rng));
        }
        // The pooled bandit's single greedy arm is wrong for one of the two
        // contexts by construction (costs are symmetric).
        let g = global.greedy_arm();
        let wrong_for = if g == 0 { "etl" } else { "oltp" };
        assert!(!wrong_for.is_empty());
    }

    #[test]
    fn new_context_warm_starts_from_global() {
        let mut hb = HybridBandit::new(2, BanditPolicy::Ucb { c: 1.0 });
        let mut rng = StdRng::seed_from_u64(3);
        let oltp = ContextKey::new(["oltp"]);
        // Train only on oltp (best arm 0).
        for _ in 0..100 {
            let arm = hb.select(&oltp, &mut rng);
            hb.update(&oltp, arm, cost(&oltp, arm, &mut rng));
        }
        // A brand-new context's first pick should follow the global best.
        let fresh = ContextKey::new(["oltp_v2"]);
        let first = hb.select(&fresh, &mut rng);
        assert_eq!(first, 0, "fresh context should inherit global greedy arm");
    }

    #[test]
    fn greedy_on_unseen_context_uses_global() {
        let mut hb = HybridBandit::new(2, BanditPolicy::Thompson);
        hb.update(&ContextKey::new(["a"]), 1, 0.5);
        hb.update(&ContextKey::new(["a"]), 0, 2.0);
        let unseen = ContextKey::new(["never"]);
        assert_eq!(hb.greedy(&unseen), 1);
    }

    #[test]
    fn context_key_display() {
        let k = ContextKey::new(["etl", "rps_high"]);
        assert_eq!(k.to_string(), "etl/rps_high");
    }
}
