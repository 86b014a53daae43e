//! Deterministic worker panics for the serving layer.
//!
//! A [`ChaosPlan`] decides whether measuring a campaign's wave in a
//! scheduling round panics, built on the same discipline as
//! [`autotune_sim::FaultPlan`]: every decision is a pure splitmix hash of
//! `(seed, round, campaign)`, so a chaos run replays byte for byte, which
//! is what lets CI assert that recovery from an injected panic reproduces
//! the uninterrupted history. A process crash is no plan's: what a killed
//! process leaves is a prefix of the log ([`crate::MemStorage::crash_after`]).

/// A seeded schedule of worker panics. A zero probability (the
/// [`ChaosPlan::new`] default) injects nothing. Decisions are pure
/// functions of `(seed, round, campaign)`, with no RNG state, so
/// concurrent consumers can share a plan and a recovered process re-rolls
/// identically.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Seed for every roll.
    pub seed: u64,
    /// Probability a (round, campaign) wave measurement panics.
    pub p_worker_panic: f64,
}

/// The hash domain of a panic roll.
const D_PANIC: u64 = 2;

impl ChaosPlan {
    /// A quiet plan: nothing injected until a builder turns panics on.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            p_worker_panic: 0.0,
        }
    }

    /// Enables worker panics with probability `p` per (round, campaign).
    pub fn with_worker_panics(mut self, p: f64) -> Self {
        self.p_worker_panic = p;
        self
    }

    /// Whether measuring `campaign_id`'s wave in scheduling round
    /// `round` panics.
    pub fn worker_panics(&self, round: u64, campaign_id: u64) -> bool {
        let h = splitmix(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(D_PANIC)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(round)
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add(campaign_id),
        );
        // Uniform in `[0, 1)`.
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.p_worker_panic
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_seed_sensitive() {
        let rolls = |seed| -> Vec<bool> {
            let plan = ChaosPlan::new(seed).with_worker_panics(0.3);
            (0..200).map(|r| plan.worker_panics(r, r % 7)).collect()
        };
        assert_eq!(rolls(7), rolls(7));
        assert_ne!(rolls(7), rolls(8));
        assert!(rolls(7).contains(&true) && rolls(7).contains(&false));
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = ChaosPlan::new(9);
        assert!((0..500).all(|i| !plan.worker_panics(i, 0)));
    }
}
