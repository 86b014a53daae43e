//! Simulated tuning targets and workloads.
//!
//! The tutorial's running examples tune real systems — Redis on Linux (a
//! kernel scheduler knob), MySQL/PostgreSQL (buffer pools, flush methods,
//! JIT), Spark (TPC-H Q1) — against real benchmarks (YCSB, TPC-C, TPC-H) on
//! noisy cloud VMs. None of those are available in a hermetic test
//! environment, so this crate provides *analytical simulators* calibrated
//! to reproduce the qualitative response surfaces the tutorial discusses:
//!
//! * [`RedisSim`] — tail latency vs `sched_migration_cost_ns`, a noisy
//!   U-shaped 1-D surface whose optimum cuts P95 latency by ~68 % against
//!   the default (slide 10);
//! * [`DbmsSim`] — a queueing-theoretic OLTP/OLAP database with ~12
//!   interacting knobs (buffer pool sizing vs RAM, flush-method categorical,
//!   thread contention, JIT conditionals, crash regions);
//! * [`SparkSim`] — a TPC-H-Q1-like batch job with a parallelism sweet spot
//!   and a memory-spill cliff (slide 14's tuning game);
//! * [`NginxSim`] — a reverse-proxy model (workers, connections,
//!   keepalive, gzip) rounding out slide 8's system list;
//! * [`Workload`] — YCSB-A/B/C-, TPC-C- and TPC-H-shaped workload
//!   descriptions with scale factors (multi-fidelity) and drift schedules
//!   (online tuning);
//! * [`CloudNoise`] — machine-factor heterogeneity, slow temporal drift and
//!   heavy-tailed latency spikes (the TUNA/duet experiments);
//! * [`priors`] — curated "manual-derived" knob hints standing in for the
//!   LLM extraction passes of DB-BERT/GPTuner (slides 63-64);
//! * telemetry emission for workload-identification experiments.
//!
//! Every simulator is deterministic given its RNG, so experiments are
//! reproducible seed-for-seed.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod dbms;
mod env;
mod fault;
mod nginx;
mod noise;
pub mod priors;
mod redis;
mod spark;
mod telemetry;
mod workload;

pub use dbms::DbmsSim;
pub use env::Environment;
pub use fault::{FailureKind, Fault, FaultPlan, OutageWindow};
pub use nginx::NginxSim;
pub use noise::{CloudNoise, Machine, NoiseConfig};
pub use redis::RedisSim;
pub use spark::SparkSim;
pub use telemetry::{telemetry_features, TelemetrySample};
pub use workload::{Workload, WorkloadKind, WorkloadSchedule};

use autotune_space::{Config, Space};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The outcome of one benchmark trial against a simulated system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialResult {
    /// Mean operation latency, milliseconds.
    pub latency_avg_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub latency_p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub latency_p99_ms: f64,
    /// Sustained throughput, operations per second.
    pub throughput_ops: f64,
    /// Dollar-denominated cost of the resources the trial consumed.
    pub cost_units: f64,
    /// Wall-clock the benchmark took, seconds (drives early-abort and
    /// multi-fidelity cost accounting).
    pub elapsed_s: f64,
    /// True when the configuration crashed the system (OOM, failed start).
    pub crashed: bool,
    /// Why the trial failed, when it did. Distinguishes a deterministic
    /// [`FailureKind::ConfigCrash`] from transient infrastructure faults
    /// (injected by a [`FaultPlan`]); `None` for clean runs.
    #[serde(default)]
    pub failure: Option<FailureKind>,
    /// Telemetry time series sampled during the trial, in one shared
    /// allocation: the measurement and outcome events of the trial that
    /// carry it hold the same one.
    pub telemetry: Arc<[TelemetrySample]>,
    /// Component time profile: `(component, share of service time)` pairs
    /// summing to ~1. The PGO/FDO analogue of a stack profile (slide 68);
    /// empty when a simulator does not expose one.
    #[serde(default)]
    pub profile: Vec<(String, f64)>,
}

impl TrialResult {
    /// A crashed trial: no useful metrics, telemetry empty.
    pub fn crash(elapsed_s: f64) -> Self {
        TrialResult {
            latency_avg_ms: f64::NAN,
            latency_p95_ms: f64::NAN,
            latency_p99_ms: f64::NAN,
            throughput_ops: 0.0,
            cost_units: 0.0,
            elapsed_s,
            crashed: true,
            failure: Some(FailureKind::ConfigCrash),
            telemetry: Arc::default(),
            profile: Vec::new(),
        }
    }

    /// Attaches a component profile (normalized to sum to 1).
    pub fn with_profile(mut self, components: Vec<(String, f64)>) -> Self {
        let total: f64 = components.iter().map(|(_, v)| v.max(0.0)).sum();
        self.profile = if total > 0.0 {
            components
                .into_iter()
                .map(|(k, v)| (k, v.max(0.0) / total))
                .collect()
        } else {
            Vec::new()
        };
        self
    }
}

/// A simulated system under tuning.
///
/// `run_trial` must be deterministic given `rng`; all stochasticity flows
/// through it so experiments replay exactly.
pub trait SimSystem: Send + Sync {
    /// System name for experiment reports.
    fn name(&self) -> &str;

    /// The system's tunable-knob space.
    fn space(&self) -> &Space;

    /// Runs one benchmark trial of `workload` under `config` in `env`.
    fn run_trial(
        &self,
        config: &Config,
        workload: &Workload,
        env: &Environment,
        rng: &mut dyn RngCore,
    ) -> TrialResult;
}

/// Generates the shared latency/telemetry shape for a trial given its
/// analytic mean latency and utilization. Used by all simulators so their
/// outputs stay structurally comparable.
#[expect(
    clippy::too_many_arguments,
    reason = "one call per simulator, each input a distinct quantity"
)]
pub(crate) fn finish_trial(
    mean_latency_ms: f64,
    utilization: f64,
    throughput_ops: f64,
    elapsed_s: f64,
    cost_per_hour: f64,
    workload: &Workload,
    env: &Environment,
    rng: &mut dyn RngCore,
) -> TrialResult {
    use rand::Rng;
    let mut rng = rng;
    let util = utilization.clamp(0.0, 0.999);
    // Tail inflation grows superlinearly with utilization (queueing).
    let p95 = mean_latency_ms * (1.6 + 3.0 * util * util);
    let p99 = mean_latency_ms * (2.2 + 8.0 * util * util);
    // Multiplicative measurement noise.
    let jitter = |rng: &mut dyn RngCore, scale: f64| {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (1.0 + scale * z).max(0.5)
    };
    let noise = env.machine_factor * jitter(&mut rng, 0.02 * (1.0 + 2.0 * util));
    let telemetry = telemetry::emit(workload, util, throughput_ops, &mut rng);
    TrialResult {
        latency_avg_ms: mean_latency_ms * noise,
        latency_p95_ms: p95 * noise * jitter(&mut rng, 0.03),
        latency_p99_ms: p99 * noise * jitter(&mut rng, 0.05),
        throughput_ops: (throughput_ops / noise).max(0.0),
        cost_units: cost_per_hour * elapsed_s / 3600.0,
        elapsed_s,
        crashed: false,
        failure: None,
        telemetry,
        profile: Vec::new(),
    }
}
