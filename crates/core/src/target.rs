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
        let t = self.clock.fetch_add(1, Ordering::Relaxed) as f64;
        match &self.backend {
            Backend::Simulated {
                system,
                workload,
                env,
                noise,
            } => {
                let w = override_workload.unwrap_or(workload);
                let (env, machine_id) = match noise {
                    Some(fleet) => {
                        let m = fleet.random_machine(rng).clone();
                        let factor = fleet.factor_at(&m, t, rng);
                        (env.on_machine(factor), Some(m.id))
                    }
                    None => (env.clone(), None),
                };
                let result = system.run_trial(config, w, &env, rng);
                Evaluation {
                    cost: self.objective.cost(&result),
                    failure: result.failure,
                    result,
                    machine_id,
                }
            }
            Backend::BlackBox { f, elapsed_s, .. } => {
                let cost = f(config);
                let crashed = cost.is_nan();
                let result = if crashed {
                    TrialResult::crash(*elapsed_s)
                } else {
                    TrialResult {
                        latency_avg_ms: cost,
                        latency_p95_ms: cost,
                        latency_p99_ms: cost,
                        throughput_ops: 0.0,
                        cost_units: 0.0,
                        elapsed_s: *elapsed_s,
                        crashed: false,
                        failure: None,
                        telemetry: Default::default(),
                        profile: Vec::new(),
                    }
                };
                Evaluation {
                    cost: self.objective.cost(&result),
                    failure: result.failure,
                    result,
                    machine_id: None,
                }
            }
        }
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
        let t = self.clock.fetch_add(1, Ordering::Relaxed) as f64;
        match &self.backend {
            Backend::Simulated {
                system,
                workload,
                env,
                noise,
            } => {
                let mut rng = rng;
                let env = match noise {
                    Some(fleet) => {
                        let m = fleet.random_machine(&mut rng).clone();
                        let factor = fleet.factor_at(&m, t, &mut rng);
                        env.on_machine(factor)
                    }
                    None => env.clone(),
                };
                let ra = system.run_trial(a, workload, &env, &mut rng);
                let rb = system.run_trial(b, workload, &env, &mut rng);
                (
                    Evaluation {
                        cost: self.objective.cost(&ra),
                        failure: ra.failure,
                        result: ra,
                        machine_id: None,
                    },
                    Evaluation {
                        cost: self.objective.cost(&rb),
                        failure: rb.failure,
                        result: rb,
                        machine_id: None,
                    },
                )
            }
            Backend::BlackBox { .. } => {
                let mut rng = rng;
                let ea = self.evaluate(a, &mut rng);
                let eb = self.evaluate(b, &mut rng);
                (ea, eb)
            }
        }
    }

    /// Evaluates on a *specific* machine of the noise fleet — the duet
    /// primitive. No-op distinction for noise-free targets.
    pub fn evaluate_on_machine(
        &self,
        config: &Config,
        machine_id: usize,
        rng: &mut dyn RngCore,
    ) -> Evaluation {
        let t = self.clock.fetch_add(1, Ordering::Relaxed) as f64;
        match &self.backend {
            Backend::Simulated {
                system,
                workload,
                env,
                noise: Some(fleet),
            } => {
                let m = fleet.machine(machine_id).clone();
                let factor = fleet.factor_at(&m, t, rng);
                let result = system.run_trial(config, workload, &env.on_machine(factor), rng);
                Evaluation {
                    cost: self.objective.cost(&result),
                    failure: result.failure,
                    result,
                    machine_id: Some(machine_id),
                }
            }
            _ => self.evaluate(config, rng),
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
}
