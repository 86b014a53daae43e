//! The tutorial's running example (slides 26-31): Redis on Linux, tuning
//! `/proc/sys/kernel/sched_migration_cost_ns` to minimize tail latency.
//!
//! The response surface is modelled after the published result (68 % P95
//! reduction, slide 10): migration cost too *low* makes the scheduler
//! migrate Redis's event-loop thread aggressively, trashing cache locality;
//! too *high* leaves it pinned on a contended core. The sweet spot sits
//! orders of magnitude above the kernel default of 500 µs... below it —
//! which is why log-scale treatment of the knob matters (slide 28 bounds
//! the search to [0, 1 000 000] ns).
//!
//! Two secondary knobs round out the space so the example exercises
//! integer and categorical handling: `io-threads` and `maxmemory-policy`.

use crate::{Environment, SimSystem, TrialResult, Workload};
use autotune_space::{Config, Param, Space};
use rand::RngCore;

/// The kernel default for `sched_migration_cost_ns`.
const KERNEL_DEFAULT_MIGRATION_COST: f64 = 500_000.0;

/// Simulated Redis + Linux scheduler.
#[derive(Debug)]
pub struct RedisSim {
    space: Space,
    /// Knob value minimizing P95 latency (ns).
    optimum_ns: f64,
}

impl RedisSim {
    /// Creates the simulator with the tutorial's knob bounds.
    pub fn new() -> Self {
        let space = Space::builder()
            .add(
                Param::float("sched_migration_cost_ns", 1_000.0, 1_000_000.0)
                    .log_scale()
                    .default_value(KERNEL_DEFAULT_MIGRATION_COST)
                    .with_special_values(&[0.0]),
            )
            .add(Param::int("io_threads", 1, 8).default_value(1i64))
            .add(
                Param::categorical(
                    "maxmemory_policy",
                    &["noeviction", "allkeys-lru", "allkeys-random"],
                )
                .default_value("noeviction"),
            )
            .build()
            .expect("static space definition is valid"); // lint: allow(D5) static space definition is valid
        RedisSim {
            space,
            optimum_ns: 25_000.0,
        }
    }

    /// Analytic P95 penalty multiplier from the scheduler knob: a smooth
    /// asymmetric valley in log space around the optimum.
    fn migration_penalty(&self, cost_ns: f64) -> f64 {
        // Special value 0 = "migrate on every tick": pathological.
        if cost_ns <= 0.0 {
            return 3.5;
        }
        let x = (cost_ns.max(1.0)).log10();
        let opt = self.optimum_ns.log10();
        let d = x - opt;
        // Asymmetric quadratic: cheap migrations hurt more than pinning.
        let curvature = if d < 0.0 { 1.4 } else { 0.55 };
        1.0 + curvature * d * d
    }
}

impl Default for RedisSim {
    fn default() -> Self {
        RedisSim::new()
    }
}

impl SimSystem for RedisSim {
    fn name(&self) -> &str {
        "redis"
    }

    fn space(&self) -> &Space {
        &self.space
    }

    fn run_trial(
        &self,
        config: &Config,
        workload: &Workload,
        env: &Environment,
        rng: &mut dyn RngCore,
    ) -> TrialResult {
        let cost_ns = config
            .get_f64("sched_migration_cost_ns")
            .unwrap_or(KERNEL_DEFAULT_MIGRATION_COST);
        let io_threads = config.get_i64("io_threads").unwrap_or(1).max(1) as f64;
        let policy = config.get_str("maxmemory_policy").unwrap_or("noeviction");

        // Base event-loop latency ≈ 1 ms at nominal load (slide 28's prior
        // knowledge: "Latency ≈ 1.0 ms").
        let base_ms = 1.0;
        let sched = self.migration_penalty(cost_ns);

        // io-threads help until they exceed the cores; then they thrash.
        let effective_threads = io_threads.min(env.cores as f64);
        let thread_speedup = 1.0 / (0.6 + 0.4 * effective_threads.sqrt());
        let oversubscribe = (io_threads - env.cores as f64).max(0.0);
        let thrash = 1.0 + 0.15 * oversubscribe;

        // Eviction policy matters only when the working set outgrows RAM.
        let pressure = (workload.effective_working_set_gb() / env.ram_gb).min(2.0);
        let eviction = if pressure > 0.6 {
            match policy {
                "allkeys-lru" => 1.0 + 0.4 * (pressure - 0.6),
                "allkeys-random" => 1.0 + 0.8 * (pressure - 0.6),
                _ => 1.0 + 1.6 * (pressure - 0.6), // noeviction: errors/retries
            }
        } else {
            1.0
        };

        let mean_latency = base_ms * sched * thread_speedup * thrash * eviction;
        // Capacity: single event loop, ~120k ops/s nominal per GHz-core,
        // helped by io-threads for network I/O offload.
        let capacity = 120_000.0 * (0.7 + 0.3 * effective_threads) / sched.sqrt();
        let utilization = (workload.offered_ops / capacity).min(0.999);
        let throughput = workload.offered_ops.min(capacity);
        let elapsed = workload.duration_s();

        crate::finish_trial(
            mean_latency * (1.0 + 2.0 * utilization * utilization),
            utilization,
            throughput,
            elapsed,
            env.cost_per_hour,
            workload,
            env,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p95_at(sim: &RedisSim, cost_ns: f64, seed: u64) -> f64 {
        let cfg = sim
            .space()
            .default_config()
            .with("sched_migration_cost_ns", cost_ns);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Workload::kv_cache(50_000.0);
        let env = Environment::medium();
        // Average several runs to cut measurement noise.
        let runs: Vec<f64> = (0..10)
            .map(|_| sim.run_trial(&cfg, &w, &env, &mut rng).latency_p95_ms)
            .collect();
        autotune_linalg::stats::mean(&runs)
    }

    #[test]
    fn optimum_beats_default_by_tutorial_margin() {
        let sim = RedisSim::new();
        let default = p95_at(&sim, KERNEL_DEFAULT_MIGRATION_COST, 1);
        let tuned = p95_at(&sim, sim.optimum_ns, 2);
        let reduction = 1.0 - tuned / default;
        // Slide 10: "68 % reduction in P95 latency". Accept 40-85 %.
        assert!(
            (0.40..0.85).contains(&reduction),
            "P95 reduction {reduction:.2} outside the tutorial's ballpark"
        );
    }

    #[test]
    fn surface_is_a_valley_in_log_space() {
        let sim = RedisSim::new();
        let low = p95_at(&sim, 2_000.0, 3);
        let opt = p95_at(&sim, sim.optimum_ns, 4);
        let high = p95_at(&sim, 900_000.0, 5);
        assert!(opt < low, "optimum {opt} should beat too-low {low}");
        assert!(opt < high, "optimum {opt} should beat too-high {high}");
    }

    #[test]
    fn zero_special_value_is_pathological() {
        let sim = RedisSim::new();
        let zero = p95_at(&sim, 0.0, 6);
        let opt = p95_at(&sim, sim.optimum_ns, 7);
        assert!(
            zero > 2.0 * opt,
            "always-migrate {zero} should be awful vs {opt}"
        );
    }

    #[test]
    fn io_threads_help_until_core_count() {
        let sim = RedisSim::new();
        let env = Environment::medium(); // 4 cores
        let w = Workload::kv_cache(50_000.0);
        let lat = |threads: i64, seed: u64| {
            let cfg = sim.space().default_config().with("io_threads", threads);
            let mut rng = StdRng::seed_from_u64(seed);
            let runs: Vec<f64> = (0..10)
                .map(|_| sim.run_trial(&cfg, &w, &env, &mut rng).latency_avg_ms)
                .collect();
            autotune_linalg::stats::mean(&runs)
        };
        let one = lat(1, 8);
        let four = lat(4, 9);
        let eight = lat(8, 10);
        assert!(four < one, "4 threads {four} should beat 1 thread {one}");
        assert!(
            eight > four,
            "8 threads on 4 cores {eight} should thrash vs {four}"
        );
    }

    #[test]
    fn eviction_policy_only_matters_under_pressure() {
        let sim = RedisSim::new();
        let env = Environment::small(); // 8 GB
        let mut rng = StdRng::seed_from_u64(11);
        let fits = Workload::kv_cache(10_000.0); // 2 GB working set
        let pressured = Workload::kv_cache(10_000.0).at_scale(6.0); // 12 GB
        let lat = |policy: &str, w: &Workload, rng: &mut StdRng| {
            let cfg = sim
                .space()
                .default_config()
                .with("maxmemory_policy", policy);
            let runs: Vec<f64> = (0..10)
                .map(|_| sim.run_trial(&cfg, w, &env, rng).latency_avg_ms)
                .collect();
            autotune_linalg::stats::mean(&runs)
        };
        let fit_gap =
            (lat("allkeys-lru", &fits, &mut rng) - lat("noeviction", &fits, &mut rng)).abs();
        let pressure_gap =
            lat("noeviction", &pressured, &mut rng) - lat("allkeys-lru", &pressured, &mut rng);
        assert!(
            fit_gap < 0.1,
            "policies should tie when the set fits: gap {fit_gap}"
        );
        assert!(
            pressure_gap > 0.2,
            "LRU should win under pressure: gap {pressure_gap}"
        );
    }

    #[test]
    fn throughput_saturates_at_capacity() {
        let sim = RedisSim::new();
        let env = Environment::medium();
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = sim.space().default_config();
        let modest = sim.run_trial(&cfg, &Workload::kv_cache(10_000.0), &env, &mut rng);
        let flooded = sim.run_trial(&cfg, &Workload::kv_cache(10_000_000.0), &env, &mut rng);
        assert!((modest.throughput_ops - 10_000.0).abs() < 1_500.0);
        assert!(flooded.throughput_ops < 1_000_000.0, "capacity must bind");
        assert!(flooded.latency_p95_ms > modest.latency_p95_ms);
    }
}
