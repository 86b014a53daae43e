//! Actor–critic with linear function approximation (tutorial slide 79).
//!
//! * **Actor** — softmax policy `π(a|s) ∝ exp(wₐ·φ(s))` over discrete
//!   actions, updated by the policy gradient;
//! * **Critic** — linear state-value function `V(s) = v·φ(s)`, updated by
//!   TD(0); the TD error `δ = r + γV(s') − V(s)` is the advantage signal
//!   fed to the actor.
//!
//! Feature vectors `φ(s)` are whatever the caller supplies — telemetry
//! snapshots, workload embeddings from `autotune-wid`, or one-hot state
//! indicators.

use crate::{Result, RlError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Actor learning rate.
const ALPHA_ACTOR: f64 = 0.05;
/// Critic learning rate.
const ALPHA_CRITIC: f64 = 0.1;
/// Discount factor γ ∈ [0, 1).
const GAMMA: f64 = 0.9;
const _: () = assert!(0.0 <= GAMMA && GAMMA < 1.0, "gamma must be in [0,1)");

/// Linear actor–critic agent over `n_actions` discrete actions and
/// `n_features`-dimensional state features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActorCritic {
    n_features: usize,
    n_actions: usize,
    /// Actor weights, row per action.
    actor_w: Vec<Vec<f64>>,
    /// Critic weights.
    critic_w: Vec<f64>,
}

impl ActorCritic {
    /// Creates a zero-initialized agent.
    pub fn new(n_features: usize, n_actions: usize) -> Self {
        assert!(
            n_features > 0 && n_actions > 0,
            "dimensions must be positive"
        );
        ActorCritic {
            n_features,
            n_actions,
            actor_w: vec![vec![0.0; n_features]; n_actions],
            critic_w: vec![0.0; n_features],
        }
    }

    fn check_features(&self, phi: &[f64]) -> Result<()> {
        if phi.len() != self.n_features {
            return Err(RlError::FeatureDimension {
                expected: self.n_features,
                actual: phi.len(),
            });
        }
        Ok(())
    }

    /// The policy distribution `π(·|s)` at features `phi`.
    pub fn policy(&self, phi: &[f64]) -> Result<Vec<f64>> {
        self.check_features(phi)?;
        let logits: Vec<f64> = self
            .actor_w
            .iter()
            .map(|w| w.iter().zip(phi).map(|(&wi, &p)| wi * p).sum::<f64>())
            .collect();
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        Ok(exps.into_iter().map(|e| e / z).collect())
    }

    /// Samples an action from the softmax policy.
    pub fn select_action(&self, phi: &[f64], rng: &mut impl Rng) -> Result<usize> {
        let probs = self.policy(phi)?;
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (a, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return Ok(a);
            }
        }
        Ok(probs.len() - 1)
    }

    /// The most probable action (deployment mode).
    pub fn greedy_action(&self, phi: &[f64]) -> Result<usize> {
        let probs = self.policy(phi)?;
        Ok(probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("n_actions > 0")) // lint: allow(D5) n_actions asserted nonzero at construction
    }

    /// Critic's state-value estimate `V(s)`.
    pub fn value(&self, phi: &[f64]) -> Result<f64> {
        self.check_features(phi)?;
        Ok(self.critic_w.iter().zip(phi).map(|(&w, &p)| w * p).sum())
    }

    /// One TD(0) actor-critic update for the transition
    /// `(phi, action, reward, phi_next)`. Returns the TD error δ.
    pub fn update(
        &mut self,
        phi: &[f64],
        action: usize,
        reward: f64,
        phi_next: &[f64],
    ) -> Result<f64> {
        self.check_features(phi)?;
        self.check_features(phi_next)?;
        if action >= self.n_actions {
            return Err(RlError::IndexOutOfRange {
                what: "action",
                index: action,
                bound: self.n_actions,
            });
        }
        let v = self.value(phi)?;
        let v_next = self.value(phi_next)?;
        let delta = reward + GAMMA * v_next - v;
        // Critic: v += α_c δ φ(s).
        for (w, &p) in self.critic_w.iter_mut().zip(phi) {
            *w += ALPHA_CRITIC * delta * p;
        }
        // Actor: ∇ log π(a|s) = φ(s) (1{a=b} − π(b|s)) for each action b.
        let probs = self.policy(phi)?;
        for (b, w_row) in self.actor_w.iter_mut().enumerate() {
            let indicator = if b == action { 1.0 } else { 0.0 };
            let coeff = ALPHA_ACTOR * delta * (indicator - probs[b]);
            for (w, &p) in w_row.iter_mut().zip(phi) {
                *w += coeff * p;
            }
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Contextual task: in context A (phi=[1,0]) action 0 pays, in context
    /// B (phi=[0,1]) action 1 pays. The agent must learn a context-
    /// dependent policy — exactly the "workload shifting" structure of
    /// online tuning.
    #[test]
    fn learns_context_dependent_policy() {
        let mut agent = ActorCritic::new(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let contexts = [[1.0, 0.0], [0.0, 1.0]];
        for step in 0..4000 {
            let ctx = contexts[step % 2];
            let a = agent.select_action(&ctx, &mut rng).unwrap();
            let good = (ctx[0] > 0.5 && a == 0) || (ctx[1] > 0.5 && a == 1);
            let r = if good { 1.0 } else { -1.0 };
            agent.update(&ctx, a, r, &ctx).unwrap();
        }
        assert_eq!(agent.greedy_action(&contexts[0]).unwrap(), 0);
        assert_eq!(agent.greedy_action(&contexts[1]).unwrap(), 1);
        // Policy should be decisive.
        let p = agent.policy(&contexts[0]).unwrap();
        assert!(p[0] > 0.85, "policy not decisive: {p:?}");
    }

    #[test]
    fn critic_tracks_values() {
        let mut agent = ActorCritic::new(1, 1);
        // Single state, single action, constant reward 2: V -> r/(1-γ)·(1-γ)
        // Under TD(0) with a self-loop, V converges to r / (1 − γ).
        for _ in 0..3000 {
            agent.update(&[1.0], 0, 2.0, &[1.0]).unwrap();
        }
        let v = agent.value(&[1.0]).unwrap();
        assert!(
            (v - 20.0).abs() < 1.0,
            "V {v} should approach 2/(1-0.9) = 20"
        );
    }

    #[test]
    fn policy_is_a_distribution() {
        let agent = ActorCritic::new(3, 4);
        let p = agent.policy(&[0.2, -0.4, 1.0]).unwrap();
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn td_error_shrinks_with_learning() {
        let mut agent = ActorCritic::new(1, 1);
        let first = agent.update(&[1.0], 0, 1.0, &[1.0]).unwrap().abs();
        for _ in 0..2000 {
            agent.update(&[1.0], 0, 1.0, &[1.0]).unwrap();
        }
        let last = agent.update(&[1.0], 0, 1.0, &[1.0]).unwrap().abs();
        assert!(
            last < first * 0.1,
            "TD error {last} did not shrink from {first}"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut agent = ActorCritic::new(2, 2);
        assert!(matches!(
            agent.policy(&[1.0]),
            Err(RlError::FeatureDimension { .. })
        ));
        assert!(agent.update(&[1.0, 0.0], 5, 0.0, &[1.0, 0.0]).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let mut agent = ActorCritic::new(2, 2);
        agent.update(&[1.0, 0.0], 0, 1.0, &[0.0, 1.0]).unwrap();
        let json = serde_json::to_string(&agent).unwrap();
        let back: ActorCritic = serde_json::from_str(&json).unwrap();
        assert_eq!(
            agent.policy(&[1.0, 0.0]).unwrap(),
            back.policy(&[1.0, 0.0]).unwrap()
        );
    }
}
