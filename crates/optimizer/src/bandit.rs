//! Multi-armed bandits for discrete knob subspaces (tutorial slide 51).
//!
//! When a knob is categorical (`innodb_flush_method ∈ {fsync, O_DIRECT,
//! ...}`) a bandit over the choices sidesteps the need for a continuous
//! surrogate entirely. These bandits also power the OPPerTune-style hybrid
//! tuner in `autotune-rl`.
//!
//! All bandits **minimize** observed cost, matching the workspace
//! convention (classic bandit literature maximizes reward; we negate).

use rand::Rng;

/// Strategy used by [`Bandit::select`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BanditPolicy {
    /// Explore uniformly with probability ε, otherwise exploit.
    EpsilonGreedy {
        /// Exploration probability.
        epsilon: f64,
    },
    /// UCB1: optimism in the face of uncertainty, `c` scales the bonus.
    Ucb {
        /// Exploration coefficient (√2 is the classic choice).
        c: f64,
    },
    /// Thompson sampling with a Normal posterior per arm.
    Thompson,
}

/// Per-arm sufficient statistics.
#[derive(Debug, Clone, Default)]
struct Arm {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Arm {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    fn variance(&self) -> f64 {
        if self.n < 2 {
            1.0 // weakly-informative prior spread
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// A stochastic multi-armed bandit over `k` discrete arms, minimizing cost.
#[derive(Debug, Clone)]
pub struct Bandit {
    arms: Vec<Arm>,
    policy: BanditPolicy,
    total_pulls: u64,
}

impl Bandit {
    /// Creates a bandit with `k` arms.
    pub fn new(k: usize, policy: BanditPolicy) -> Self {
        assert!(k >= 1, "bandit needs at least one arm");
        Bandit {
            arms: vec![Arm::default(); k],
            policy,
            total_pulls: 0,
        }
    }

    /// Number of arms.
    pub fn n_arms(&self) -> usize {
        self.arms.len()
    }

    /// Total observations across all arms.
    pub fn total_pulls(&self) -> u64 {
        self.total_pulls
    }

    /// Selects the next arm to pull.
    pub fn select(&self, rng: &mut (impl Rng + ?Sized)) -> usize {
        // Any never-pulled arm is tried first (uniform among them).
        let unpulled: Vec<usize> = (0..self.arms.len())
            .filter(|&i| self.arms[i].n == 0)
            .collect();
        if !unpulled.is_empty() {
            return unpulled[rng.gen_range(0..unpulled.len())];
        }
        match self.policy {
            BanditPolicy::EpsilonGreedy { epsilon } => {
                if rng.gen::<f64>() < epsilon {
                    rng.gen_range(0..self.arms.len())
                } else {
                    self.greedy_arm()
                }
            }
            BanditPolicy::Ucb { c } => {
                let t = self.total_pulls as f64;
                (0..self.arms.len())
                    .min_by(|&a, &b| {
                        let ia = self.lcb_index(a, c, t);
                        let ib = self.lcb_index(b, c, t);
                        ia.total_cmp(&ib)
                    })
                    .expect("at least one arm") // lint: allow(D5) arms asserted non-empty at construction
            }
            BanditPolicy::Thompson => (0..self.arms.len())
                .map(|i| {
                    let a = &self.arms[i];
                    let sd = (a.variance() / a.n.max(1) as f64).sqrt();
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    (i, a.mean + sd * z)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
                .expect("at least one arm"), // lint: allow(D5) arms asserted non-empty at construction
        }
    }

    /// Arm with the lowest empirical mean.
    pub fn greedy_arm(&self) -> usize {
        (0..self.arms.len())
            .min_by(|&a, &b| self.arms[a].mean.total_cmp(&self.arms[b].mean))
            .expect("at least one arm") // lint: allow(D5) arms asserted non-empty at construction
    }

    /// Lower-confidence-bound index for minimization (the mirror of UCB1).
    fn lcb_index(&self, arm: usize, c: f64, t: f64) -> f64 {
        let a = &self.arms[arm];
        a.mean - c * (t.max(1.0).ln() / a.n as f64).sqrt()
    }

    /// Records the observed cost of pulling `arm`. Non-finite costs are
    /// ignored (a crashed trial carries no usable magnitude — callers
    /// penalize crashes with a large *finite* cost instead, so the running
    /// means stay well-defined).
    pub fn update(&mut self, arm: usize, cost: f64) {
        assert!(arm < self.arms.len(), "arm index out of range");
        if !cost.is_finite() {
            return;
        }
        self.arms[arm].push(cost);
        self.total_pulls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Simulates `rounds` pulls against arms with the given true mean costs
    /// plus unit-uniform noise; returns pull counts.
    fn simulate(policy: BanditPolicy, means: &[f64], rounds: usize, seed: u64) -> Vec<u64> {
        let mut bandit = Bandit::new(means.len(), policy);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..rounds {
            let arm = bandit.select(&mut rng);
            let cost = means[arm] + rng.gen::<f64>();
            bandit.update(arm, cost);
        }
        bandit.arms.iter().map(|a| a.n).collect()
    }

    #[test]
    fn ucb_concentrates_on_best_arm() {
        let pulls = simulate(BanditPolicy::Ucb { c: 1.4 }, &[3.0, 1.0, 5.0], 600, 1);
        assert!(
            pulls[1] > 400,
            "UCB pulled the best arm only {} of 600 times: {pulls:?}",
            pulls[1]
        );
    }

    #[test]
    fn epsilon_greedy_concentrates_but_keeps_exploring() {
        let pulls = simulate(
            BanditPolicy::EpsilonGreedy { epsilon: 0.1 },
            &[2.0, 0.5, 4.0],
            600,
            2,
        );
        assert!(pulls[1] > 400, "pulls {pulls:?}");
        // ε-exploration keeps some probes on other arms.
        assert!(pulls[0] >= 10 && pulls[2] >= 10, "pulls {pulls:?}");
    }

    #[test]
    fn thompson_concentrates_on_best_arm() {
        let pulls = simulate(BanditPolicy::Thompson, &[3.0, 1.0, 5.0], 600, 3);
        assert!(pulls[1] > 350, "Thompson pulls {pulls:?}");
    }

    #[test]
    fn unpulled_arms_tried_first() {
        let mut bandit = Bandit::new(4, BanditPolicy::Ucb { c: 1.0 });
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let arm = bandit.select(&mut rng);
            assert!(seen.insert(arm), "arm {arm} selected twice before coverage");
            bandit.update(arm, 1.0);
        }
    }

    #[test]
    fn nan_update_ignored() {
        let mut bandit = Bandit::new(2, BanditPolicy::Thompson);
        bandit.update(0, f64::NAN);
        assert_eq!(bandit.arms[0].n, 0);
        assert_eq!(bandit.total_pulls(), 0);
    }

    #[test]
    fn greedy_arm_is_lowest_mean() {
        let mut bandit = Bandit::new(3, BanditPolicy::Thompson);
        bandit.update(0, 5.0);
        bandit.update(1, 2.0);
        bandit.update(2, 8.0);
        assert_eq!(bandit.greedy_arm(), 1);
        assert_eq!(bandit.arms[1].mean, 2.0);
    }

    #[test]
    fn regret_sublinear_for_ucb() {
        // Cumulative regret after 2T rounds should be < 2x regret after T
        // (i.e. the per-round regret decays).
        let means = [1.0, 0.0];
        let regret = |rounds: usize, seed: u64| {
            let pulls = simulate(BanditPolicy::Ucb { c: 1.4 }, &means, rounds, seed);
            pulls[0] as f64 * (means[0] - means[1])
        };
        let r1: f64 = (0..5).map(|s| regret(300, 100 + s)).sum();
        let r2: f64 = (0..5).map(|s| regret(600, 200 + s)).sum();
        assert!(r2 < 1.8 * r1, "regret not sublinear: T={r1}, 2T={r2}");
    }
}
