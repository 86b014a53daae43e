//! Tuning targets: what the session actually evaluates.
//!
//! A [`Target`] binds a system (simulated or closure-backed), the workload
//! it runs, the environment it runs in, the optional cloud-noise model the
//! trial passes through, and the objective that scalarizes the result.

use crate::Objective;
use autotune_sim::{
    CloudNoise, Environment, FailureKind, FaultPlan, SimSystem, TrialResult, Workload,
};
use autotune_space::{Config, Space};
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a single evaluation produced.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Scalar cost under the target's objective (NaN = crashed).
    pub cost: f64,
    /// Full benchmark result.
    pub result: TrialResult,
    /// Machine the trial ran on, when a noise fleet is attached.
    pub machine_id: Option<usize>,
    /// Why the trial failed, when it did: a deterministic
    /// [`FailureKind::ConfigCrash`] or an injected infrastructure fault.
    pub failure: Option<FailureKind>,
}

enum Backend {
    Simulated {
        system: Box<dyn SimSystem>,
        workload: Workload,
        env: Environment,
        noise: Option<CloudNoise>,
    },
    BlackBox {
        space: Space,
        f: Arc<dyn Fn(&Config) -> f64 + Send + Sync>,
        elapsed_s: f64,
    },
}

/// Where a measurement runs on the noise fleet.
#[derive(Clone, Copy)]
enum Placement {
    /// On a machine drawn from the fleet, which the result names.
    Drawn,
    /// On the given machine, which the result names.
    Pinned(usize),
    /// Every config on one drawn machine, which no result names (a duet).
    Shared,
}

/// A fully-bound evaluation target.
pub struct Target {
    backend: Backend,
    objective: Objective,
    /// Logical trial clock, drives the noise model's temporal drift.
    clock: AtomicU64,
    name: String,
    faults: Option<FaultPlan>,
}

impl std::fmt::Debug for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Target")
            .field("name", &self.name)
            .field("objective", &self.objective.label())
            .finish()
    }
}

impl Target {
    /// A target over a simulated system in a fixed (noise-free) environment.
    pub fn simulated(
        system: Box<dyn SimSystem>,
        workload: Workload,
        env: Environment,
        objective: Objective,
    ) -> Self {
        let name = format!("{}/{}", system.name(), workload.kind.name());
        Target {
            backend: Backend::Simulated {
                system,
                workload,
                env,
                noise: None,
            },
            objective,
            clock: AtomicU64::new(0),
            name,
            faults: None,
        }
    }

    /// Attaches a cloud-noise fleet: each evaluation lands on a random
    /// machine whose factor perturbs the result.
    pub fn with_noise(mut self, noise: CloudNoise) -> Self {
        if let Backend::Simulated { noise: n, .. } = &mut self.backend {
            *n = Some(noise);
        }
        self
    }

    /// Attaches a deterministic fault-injection plan. The executor rolls
    /// the plan for every trial attempt and degrades the measurement
    /// accordingly (transient failure, hang, straggler, corruption,
    /// outage); works for both simulated and black-box backends.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fault-injection plan, if attached.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// A closure-backed target for algorithm tests and pure-math
    /// benchmarks (cost is whatever the closure returns; NaN = crash).
    pub fn black_box(
        space: Space,
        objective: Objective,
        f: impl Fn(&Config) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Target {
            backend: Backend::BlackBox {
                space,
                f: Arc::new(f),
                elapsed_s: 1.0,
            },
            objective,
            clock: AtomicU64::new(0),
            name: "black_box".into(),
            faults: None,
        }
    }

    /// Target name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current position of the temporal-drift clock: the number of
    /// evaluations this target has served. Captured by
    /// [`Campaign::snapshot`](crate::Campaign::snapshot) so a resumed
    /// campaign's continuation sees the same drift trajectory.
    pub fn noise_clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed) // lint: allow(D9) monotone eval counter; one thread works a campaign at a time and a scoped join orders each handoff
    }

    /// Repositions the temporal-drift clock (used by
    /// [`Campaign::resume`](crate::Campaign::resume), whose replay serves
    /// recorded measurements instead of evaluating and must fast-forward
    /// the clock past them).
    pub fn set_noise_clock(&self, t: u64) {
        self.clock.store(t, Ordering::Relaxed); // lint: allow(D9) resume fast-forwards the clock before replay begins; thread::spawn gives the happens-before
    }

    /// The objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The search space.
    pub fn space(&self) -> &Space {
        match &self.backend {
            Backend::Simulated { system, .. } => system.space(),
            Backend::BlackBox { space, .. } => space,
        }
    }

    /// The workload, when simulated.
    pub fn workload(&self) -> Option<&Workload> {
        match &self.backend {
            Backend::Simulated { workload, .. } => Some(workload),
            Backend::BlackBox { .. } => None,
        }
    }

    /// Evaluates a configuration once.
    pub fn evaluate(&self, config: &Config, rng: &mut dyn RngCore) -> Evaluation {
        self.evaluate_at(config, None, rng)
    }

    /// Evaluates a configuration at a workload override (multi-fidelity)
    /// and/or pinned machine (duet benchmarking).
    pub fn evaluate_at(
        &self,
        config: &Config,
        override_workload: Option<&Workload>,
        rng: &mut dyn RngCore,
    ) -> Evaluation {
        let [e] = self.measure([config], override_workload, Placement::Drawn, rng);
        e
    }

    /// Duet evaluation (tutorial slide 71): runs `a` and `b` side by side
    /// on the *same machine at the same time*, so both see the identical
    /// noise factor (machine speed, drift, and any transient spike). The
    /// ratio of their costs is therefore noise-cancelled.
    pub fn evaluate_pair(
        &self,
        a: &Config,
        b: &Config,
        rng: &mut dyn RngCore,
    ) -> (Evaluation, Evaluation) {
        let [ea, eb] = self.measure([a, b], None, Placement::Shared, rng);
        (ea, eb)
    }

    /// Evaluates on a *specific* machine of the noise fleet — the duet
    /// primitive. No-op distinction for noise-free targets.
    pub fn evaluate_on_machine(
        &self,
        config: &Config,
        machine_id: usize,
        rng: &mut dyn RngCore,
    ) -> Evaluation {
        let [e] = self.measure([config], None, Placement::Pinned(machine_id), rng);
        e
    }

    /// The one measurement step: ticks the drift clock, places the run
    /// on a machine of the noise fleet and scales the environment for it,
    /// then runs each config there in turn. A placement the target
    /// cannot honour (a machine pinned without a fleet, or a pair on a
    /// black box, which has no machine to share) measures each config as
    /// a plain [`Target::evaluate`] of its own, after this step's tick.
    fn measure<const N: usize>(
        &self,
        configs: [&Config; N],
        override_workload: Option<&Workload>,
        placement: Placement,
        rng: &mut dyn RngCore,
    ) -> [Evaluation; N] {
        let t = self.clock.fetch_add(1, Ordering::Relaxed) as f64;
        let evaluation = |result: TrialResult, machine_id: Option<usize>| Evaluation {
            cost: self.objective.cost(&result),
            failure: result.failure,
            result,
            machine_id,
        };
        match (&self.backend, placement) {
            (Backend::Simulated { noise: None, .. }, Placement::Pinned(_))
            | (Backend::BlackBox { .. }, Placement::Pinned(_) | Placement::Shared) => {
                configs.map(|config| {
                    let [e] = self.measure([config], None, Placement::Drawn, rng);
                    e
                })
            }
            (
                Backend::Simulated {
                    system,
                    workload,
                    env,
                    noise,
                },
                _,
            ) => {
                let (env, machine_id) = match noise {
                    Some(fleet) => {
                        let m = match placement {
                            Placement::Pinned(id) => fleet.machine(id),
                            Placement::Drawn | Placement::Shared => fleet.random_machine(rng),
                        };
                        let factor = fleet.factor_at(m, t, rng);
                        let named = match placement {
                            Placement::Drawn => Some(m.id),
                            Placement::Pinned(id) => Some(id),
                            Placement::Shared => None,
                        };
                        (env.on_machine(factor), named)
                    }
                    None => (env.clone(), None),
                };
                let w = override_workload.unwrap_or(workload);
                configs.map(|config| evaluation(system.run_trial(config, w, &env, rng), machine_id))
            }
            (Backend::BlackBox { f, elapsed_s, .. }, _) => configs.map(|config| {
                let cost = f(config);
                let crash = TrialResult::crash(*elapsed_s);
                let result = if cost.is_nan() {
                    crash
                } else {
                    TrialResult {
                        latency_avg_ms: cost,
                        latency_p95_ms: cost,
                        latency_p99_ms: cost,
                        crashed: false,
                        failure: None,
                        ..crash
                    }
                };
                evaluation(result, None)
            }),
        }
    }

    /// The noise fleet, if attached.
    pub fn noise(&self) -> Option<&CloudNoise> {
        match &self.backend {
            Backend::Simulated { noise, .. } => noise.as_ref(),
            Backend::BlackBox { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_sim::{NoiseConfig, RedisSim};
    use autotune_space::Param;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn black_box_target_scores_closure() {
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let t = Target::black_box(space, Objective::MinimizeLatencyAvg, |c| {
            c.get_f64("x").unwrap() * 2.0
        });
        let mut rng = StdRng::seed_from_u64(1);
        let e = t.evaluate(&Config::new().with("x", 0.25), &mut rng);
        assert_eq!(e.cost, 0.5);
        assert!(!e.result.crashed);
    }

    #[test]
    fn black_box_nan_is_crash() {
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let t = Target::black_box(space, Objective::MinimizeLatencyAvg, |_| f64::NAN);
        let mut rng = StdRng::seed_from_u64(2);
        let e = t.evaluate(&Config::new().with("x", 0.5), &mut rng);
        assert!(e.cost.is_nan());
        assert!(e.result.crashed);
    }

    #[test]
    fn simulated_target_runs_redis() {
        let t = Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(10_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let e = t.evaluate(&t.space().default_config(), &mut rng);
        assert!(e.cost > 0.0 && e.cost.is_finite());
        assert_eq!(t.name(), "redis/kv-cache");
        assert!(e.machine_id.is_none());
    }

    #[test]
    fn noise_assigns_machines_and_spreads_results() {
        let t = Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(10_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        )
        .with_noise(CloudNoise::new_fleet(10, NoiseConfig::default(), 5));
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = t.space().default_config();
        let costs: Vec<f64> = (0..20).map(|_| t.evaluate(&cfg, &mut rng).cost).collect();
        let sd = autotune_linalg::stats::std_dev(&costs);
        let mean = autotune_linalg::stats::mean(&costs);
        assert!(
            sd / mean > 0.02,
            "noise fleet should spread results: cv={}",
            sd / mean
        );
        let e = t.evaluate(&cfg, &mut rng);
        assert!(e.machine_id.is_some());
    }

    #[test]
    fn pinned_machine_reduces_variance() {
        let t = Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(10_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        )
        .with_noise(CloudNoise::new_fleet(
            10,
            NoiseConfig {
                machine_sigma: 0.5,
                drift_amplitude: 0.0,
                spike_probability: 0.0,
                ..Default::default()
            },
            6,
        ));
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = t.space().default_config();
        let pinned: Vec<f64> = (0..15)
            .map(|_| t.evaluate_on_machine(&cfg, 3, &mut rng).cost)
            .collect();
        let roaming: Vec<f64> = (0..15).map(|_| t.evaluate(&cfg, &mut rng).cost).collect();
        let cv =
            |xs: &[f64]| autotune_linalg::stats::std_dev(xs) / autotune_linalg::stats::mean(xs);
        assert!(
            cv(&pinned) < cv(&roaming) * 0.6,
            "pinning should kill machine variance: {} vs {}",
            cv(&pinned),
            cv(&roaming)
        );
    }

    #[test]
    fn workload_override_changes_fidelity() {
        let t = Target::simulated(
            Box::new(autotune_sim::DbmsSim::new()),
            Workload::tpch(10.0),
            Environment::medium(),
            Objective::MinimizeElapsed,
        );
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = t.space().default_config();
        let cheap = Workload::tpch(1.0);
        let full = t.evaluate(&cfg, &mut rng);
        let low = t.evaluate_at(&cfg, Some(&cheap), &mut rng);
        assert!(
            low.result.elapsed_s < full.result.elapsed_s * 0.5,
            "SF-1 {} should be much cheaper than SF-10 {}",
            low.result.elapsed_s,
            full.result.elapsed_s
        );
    }

    #[test]
    fn every_entry_point_draws_and_ticks_as_the_parent_did() {
        // Costs (bit for bit), machines and drift-clock positions after a
        // fixed call sequence on a fleet, a fleetless system and a black
        // box, folded into one FNV-1a digest the parent's code wrote. A
        // pair is one tick on a simulated system and three on a black
        // box; a machine pinned without a fleet is a second tick.
        let redis = || {
            Target::simulated(
                Box::new(RedisSim::new()),
                Workload::kv_cache(10_000.0),
                Environment::medium(),
                Objective::MinimizeLatencyP95,
            )
        };
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let black_box = Target::black_box(space, Objective::MinimizeLatencyAvg, |c| {
            c.get_f64("x").unwrap() * 3.0
        });
        let fleet = redis().with_noise(CloudNoise::new_fleet(6, NoiseConfig::default(), 9));
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut fold = |e: &Evaluation, clock: u64| {
            let words = [
                e.cost.to_bits(),
                e.machine_id.map_or(u64::MAX, |m| m as u64),
                clock,
            ];
            for b in words.iter().flat_map(|w| w.to_le_bytes()) {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut rng = StdRng::seed_from_u64(11);
        for t in [&fleet, &redis(), &black_box] {
            let a = t.space().default_config();
            let b = t.space().sample(&mut rng);
            let e = t.evaluate(&a, &mut rng);
            fold(&e, t.noise_clock());
            let (ea, eb) = t.evaluate_pair(&a, &b, &mut rng);
            fold(&ea, t.noise_clock());
            fold(&eb, t.noise_clock());
            let e = t.evaluate_on_machine(&b, 4, &mut rng);
            fold(&e, t.noise_clock());
            let e = t.evaluate_at(&a, Some(&Workload::kv_cache(500.0)), &mut rng);
            fold(&e, t.noise_clock());
        }
        assert_eq!(
            (fleet.noise_clock(), black_box.noise_clock()),
            (4, 7),
            "ticks per entry point"
        );
        assert_eq!(digest, 16_177_767_699_073_903_375, "digest");
    }
}
