//! Tabular Q-learning and SARSA (tutorial slides 79-80).
//!
//! `Q(s,a)` estimates the expected discounted reward of taking action `a`
//! in state `s`. Q-learning bootstraps off the greedy next action
//! (off-policy); SARSA off the action actually taken (on-policy, more
//! conservative — relevant for production tuning where exploratory
//! disasters are real).

use crate::{Result, RlError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters shared by [`QLearning`] and [`Sarsa`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QLearningConfig {
    /// Discount factor γ ∈ [0, 1).
    pub gamma: f64,
    /// Multiplicative ε decay applied after each update.
    pub epsilon_decay: f64,
}

impl Default for QLearningConfig {
    fn default() -> Self {
        QLearningConfig {
            gamma: 0.9,
            epsilon_decay: 0.995,
        }
    }
}

/// Learning rate α ∈ (0, 1].
const ALPHA: f64 = 0.2;
/// Initial exploration probability ε ∈ [0, 1].
const EPSILON: f64 = 0.3;
/// Floor for ε.
const EPSILON_MIN: f64 = 0.02;

/// Shared table + ε-greedy machinery.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Table {
    n_states: usize,
    n_actions: usize,
    q: Vec<f64>,
    config: QLearningConfig,
    /// Current exploration probability, decaying from [`EPSILON`].
    epsilon: f64,
}

impl Table {
    fn new(n_states: usize, n_actions: usize, config: QLearningConfig) -> Self {
        assert!(n_states > 0 && n_actions > 0, "table must be non-empty");
        assert!((0.0..1.0).contains(&config.gamma), "gamma must be in [0,1)");
        Table {
            n_states,
            n_actions,
            q: vec![0.0; n_states * n_actions],
            config,
            epsilon: EPSILON,
        }
    }

    fn check(&self, state: usize, action: usize) -> Result<()> {
        if state >= self.n_states {
            return Err(RlError::IndexOutOfRange {
                what: "state",
                index: state,
                bound: self.n_states,
            });
        }
        if action >= self.n_actions {
            return Err(RlError::IndexOutOfRange {
                what: "action",
                index: action,
                bound: self.n_actions,
            });
        }
        Ok(())
    }

    #[inline]
    fn q(&self, s: usize, a: usize) -> f64 {
        self.q[s * self.n_actions + a]
    }

    #[inline]
    fn q_mut(&mut self, s: usize, a: usize) -> &mut f64 {
        &mut self.q[s * self.n_actions + a]
    }

    fn greedy(&self, s: usize) -> usize {
        (0..self.n_actions)
            .max_by(|&a, &b| self.q(s, a).total_cmp(&self.q(s, b)))
            .expect("n_actions > 0") // lint: allow(D5) n_actions asserted nonzero at construction
    }

    fn select(&self, s: usize, rng: &mut impl Rng) -> usize {
        if rng.gen::<f64>() < self.epsilon {
            rng.gen_range(0..self.n_actions)
        } else {
            self.greedy(s)
        }
    }

    fn decay_epsilon(&mut self) {
        self.epsilon = (self.epsilon * self.config.epsilon_decay).max(EPSILON_MIN);
    }

    fn max_q(&self, s: usize) -> f64 {
        (0..self.n_actions)
            .map(|a| self.q(s, a))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Off-policy tabular Q-learning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QLearning {
    table: Table,
}

impl QLearning {
    /// Creates an agent over `n_states x n_actions`.
    pub fn new(n_states: usize, n_actions: usize, config: QLearningConfig) -> Self {
        QLearning {
            table: Table::new(n_states, n_actions, config),
        }
    }

    /// ε-greedy action selection.
    pub fn select_action(&self, state: usize, rng: &mut impl Rng) -> usize {
        self.table.select(state, rng)
    }

    /// Greedy (deployment) action.
    pub fn greedy_action(&self, state: usize) -> usize {
        self.table.greedy(state)
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.table.epsilon
    }

    /// Q-learning update:
    /// `Q(s,a) += α (r + γ max_a' Q(s',a') − Q(s,a))`.
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        reward: f64,
        next_state: usize,
    ) -> Result<()> {
        self.table.check(state, action)?;
        self.table.check(next_state, 0)?;
        // A crashed trial reports a NaN reward; folding it into the table
        // would poison Q(s,a) (and every value bootstrapped from it) and
        // leave greedy() undefined. Skip the update, matching the
        // contextual-bandit convention.
        if reward.is_nan() {
            self.table.decay_epsilon();
            return Ok(());
        }
        let target = reward + self.table.config.gamma * self.table.max_q(next_state);
        let q = self.table.q_mut(state, action);
        *q += ALPHA * (target - *q);
        self.table.decay_epsilon();
        Ok(())
    }
}

/// On-policy SARSA.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sarsa {
    table: Table,
}

impl Sarsa {
    /// Creates an agent over `n_states x n_actions`.
    pub fn new(n_states: usize, n_actions: usize, config: QLearningConfig) -> Self {
        Sarsa {
            table: Table::new(n_states, n_actions, config),
        }
    }

    /// ε-greedy action selection.
    pub fn select_action(&self, state: usize, rng: &mut impl Rng) -> usize {
        self.table.select(state, rng)
    }

    /// Greedy (deployment) action.
    pub fn greedy_action(&self, state: usize) -> usize {
        self.table.greedy(state)
    }

    /// SARSA update:
    /// `Q(s,a) += α (r + γ Q(s',a') − Q(s,a))` where `a'` is the action the
    /// policy actually chose next.
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        reward: f64,
        next_state: usize,
        next_action: usize,
    ) -> Result<()> {
        self.table.check(state, action)?;
        self.table.check(next_state, next_action)?;
        // Same NaN guard as Q-learning: crashed-trial rewards must not
        // poison the table.
        if reward.is_nan() {
            self.table.decay_epsilon();
            return Ok(());
        }
        let target = reward + self.table.config.gamma * self.table.q(next_state, next_action);
        let q = self.table.q_mut(state, action);
        *q += ALPHA * (target - *q);
        self.table.decay_epsilon();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 5-state chain: action 1 moves right (+reward at the end), action 0
    /// moves left. Optimal policy: always right.
    fn run_chain_qlearning(episodes: usize, seed: u64) -> QLearning {
        let mut agent = QLearning::new(5, 2, QLearningConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..episodes {
            let mut s = 0usize;
            for _ in 0..20 {
                let a = agent.select_action(s, &mut rng);
                let s2 = if a == 1 {
                    (s + 1).min(4)
                } else {
                    s.saturating_sub(1)
                };
                let r = if s2 == 4 { 1.0 } else { 0.0 };
                agent.update(s, a, r, s2).unwrap();
                s = s2;
                if s == 4 {
                    break;
                }
            }
        }
        agent
    }

    #[test]
    fn qlearning_learns_chain_policy() {
        let agent = run_chain_qlearning(300, 1);
        for s in 0..4 {
            assert_eq!(agent.greedy_action(s), 1, "state {s} should move right");
        }
    }

    #[test]
    fn q_values_respect_discounting() {
        let agent = run_chain_qlearning(500, 2);
        // Value of "right" grows as we approach the goal.
        let q: Vec<f64> = (0..4).map(|s| agent.table.q(s, 1)).collect();
        for w in q.windows(2) {
            assert!(w[0] < w[1] + 1e-9, "Q should increase toward goal: {q:?}");
        }
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let agent = run_chain_qlearning(2000, 3);
        assert!((agent.epsilon() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn sarsa_learns_chain_policy() {
        let mut agent = Sarsa::new(5, 2, QLearningConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..400 {
            let mut s = 0usize;
            let mut a = agent.select_action(s, &mut rng);
            for _ in 0..20 {
                let s2 = if a == 1 {
                    (s + 1).min(4)
                } else {
                    s.saturating_sub(1)
                };
                let r = if s2 == 4 { 1.0 } else { 0.0 };
                let a2 = agent.select_action(s2, &mut rng);
                agent.update(s, a, r, s2, a2).unwrap();
                s = s2;
                a = a2;
                if s == 4 {
                    break;
                }
            }
        }
        for s in 0..4 {
            assert_eq!(agent.greedy_action(s), 1, "state {s} should move right");
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let mut agent = QLearning::new(3, 2, QLearningConfig::default());
        assert!(matches!(
            agent.update(5, 0, 0.0, 0),
            Err(RlError::IndexOutOfRange { what: "state", .. })
        ));
        assert!(matches!(
            agent.update(0, 7, 0.0, 0),
            Err(RlError::IndexOutOfRange { what: "action", .. })
        ));
    }

    #[test]
    fn serde_roundtrip_preserves_policy() {
        let agent = run_chain_qlearning(300, 5);
        let json = serde_json::to_string(&agent).unwrap();
        let back: QLearning = serde_json::from_str(&json).unwrap();
        for s in 0..5 {
            assert_eq!(agent.greedy_action(s), back.greedy_action(s));
        }
    }

    #[test]
    fn nan_reward_does_not_poison_the_table() {
        // Regression (lint D4/D5 satellite): a crashed trial reports its
        // objective as NaN. Before the guard, one such reward made Q(s,a)
        // NaN, every later target bootstrapped the poison across the
        // table, and greedy()'s argmax — then `partial_cmp(..).expect()` —
        // panicked. The NaN update must be a no-op on the policy.
        let mut agent = run_chain_qlearning(300, 1);
        let before: Vec<usize> = (0..5).map(|s| agent.greedy_action(s)).collect();
        agent.update(2, 1, f64::NAN, 3).expect("indices in range");
        let after: Vec<usize> = (0..5).map(|s| agent.greedy_action(s)).collect();
        assert_eq!(before, after, "NaN reward must not change the policy");
        assert!(
            (0..5).all(|s| (0..2).all(|a| agent.table.q(s, a).is_finite())),
            "Q table must stay finite after a NaN reward"
        );
    }

    #[test]
    fn nan_reward_is_noop_for_sarsa() {
        let mut agent = Sarsa::new(5, 2, QLearningConfig::default());
        agent.update(0, 1, 1.0, 1, 1).expect("indices in range");
        let q = agent.table.q(0, 1);
        agent
            .update(0, 1, f64::NAN, 1, 1)
            .expect("indices in range");
        assert_eq!(agent.table.q(0, 1), q);
        assert_eq!(agent.greedy_action(0), 1);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn invalid_gamma_rejected() {
        let _ = QLearning::new(
            2,
            2,
            QLearningConfig {
                gamma: 1.0,
                ..Default::default()
            },
        );
    }
}
