//! `autotune` — a generalized systems-autotuning framework.
//!
//! This crate ties the workspace together into the architecture of the
//! SIGMOD 2025 tutorial "Autotuning Systems: Techniques, Challenges, and
//! Opportunities" (slide 26): an **optimizer** proposes tunable values, a
//! **scheduler** runs benchmarks against the target system, results flow
//! back as scores, and systems machinery around that loop handles the
//! parts that make real autotuning hard — noise, cost, fidelity,
//! workload drift, crashes, and safety.
//!
//! # Architecture
//!
//! Every execution path — sequential tuning runs, batch/async parallel
//! campaigns, successive halving, the online tuner, the serve registry —
//! drives the same engine, [`executor::Campaign`]. A
//! [`executor::TrialSource`] proposes trials (an optimizer adapter, a
//! rung ladder, a bandit menu), a [`executor::SchedulePolicy`] decides
//! how many run concurrently and where the barriers are, a chain of
//! [`executor::Middleware`] handles the cross-cutting systems machinery,
//! and every wave of dispatched trials is measured by one function,
//! [`measure_wave`], in wave order on the calling thread:
//!
//! ```text
//!  ┌───────────────┐ next()  ┌─────────────────────────────────────────┐
//!  │ TrialSource    │───────▶│ Campaign  (tick = stage → measure_wave  │
//!  │  Optimizer-    │        │            → absorb, on a virtual clock)│
//!  │  Source,       │◀───────│  SchedulePolicy: Sequential │ SyncBatch │
//!  │  RungSource,   │ report │    │ AsyncSlots │ Rungs                 │
//!  │  OnlineSource  │        │  Middleware: EarlyAbortMw,              │
//!  └───────────────┘        │    CrashPenaltyMw, MachineAssignMw,     │
//!                           │    RetryMw, TimeoutMw, QuarantineMw     │
//!          ▲                 └──────┬──────┬───────┬─────────────────────┘
//!          │ suggest/observe        │      │       │ TrialEvent + OptEvent
//!  ┌───────┴───────┐        ┌──────▼──────┐│  ┌───▼───────────────────┐
//!  │ Optimizer      │        │ Target       ││  │ telemetry::Subscriber │
//!  │ (BO, SMAC,     │        │ (simulated   ││  │  MetricsCollector,    │
//!  │  CMA-ES, …)    │        │  system +    ││  │  SpanRecorder (Chrome │
//!  └───────────────┘        │  workload)   ││  │  trace), Progress-    │
//!                            └─────────────┘│  │  Reporter             │
//!                        ┌─────────────────▼┐ └───────────────────────┘
//!                        │ TrialStorage      │
//!                        │ (history, best,   │
//!                        │  conv. curve,     │
//!                        │  JSON)            │
//!                        └──────────────────┘
//! ```
//!
//! A plain tuning run is a `Campaign` over an [`OptimizerSource`] with
//! `SchedulePolicy::Sequential`, plus [`Campaign::with_noise_strategy`]
//! for repeated or duet measurements and an [`EarlyAbortMw`] for
//! elapsed-time objectives; batch vs. slot scheduling is the same
//! `Campaign` built with `SchedulePolicy::SyncBatch { k }` or
//! `SchedulePolicy::AsyncSlots { k }`. The other entry points are thin
//! bindings over that loop: [`SuccessiveHalving`] / [`Hyperband`] (rung
//! barriers) and [`OnlineTuner`] (bandit over a candidate menu with
//! guardrails).
//!
//! # Quick start
//!
//! ```
//! use autotune::{Campaign, Objective, OptimizerSource, SchedulePolicy, Target};
//! use autotune_optimizer::BayesianOptimizer;
//! use autotune_sim::{DbmsSim, Environment, Workload};
//!
//! let target = Target::simulated(
//!     Box::new(DbmsSim::new()),
//!     Workload::tpcc(2_000.0),
//!     Environment::medium(),
//!     Objective::MinimizeLatencyAvg,
//! );
//! let mut optimizer = BayesianOptimizer::gp(target.space().clone());
//! let source = OptimizerSource::new(&mut optimizer, 30);
//! let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 42);
//! let metrics = campaign.run();
//! assert_eq!(metrics.n_trials(), 30);
//! let best = campaign.storage().best().expect("at least one successful trial");
//! assert!(best.cost.is_finite());
//! ```

pub mod executor;
pub mod sync;
pub mod telemetry;

mod importance;
mod llamatune;
mod multifid;
mod noise_strategy;
mod objective;
mod online;
mod profile_guided;
mod target;
mod transfer;
mod trial;

#[cfg(test)]
mod test_fixtures;

pub use executor::{
    measure_request, measure_wave, Campaign, CampaignError, CampaignEvent, CampaignSnapshot,
    CrashPenaltyMw, EarlyAbortMw, MachineAssignMw, Measurement, Middleware, OptimizerSource,
    QuarantineMw, RetryMw, RungSource, SchedulePolicy, SourceStep, TimeoutMw, TrialEvent,
    TrialOutcome, TrialRequest, TrialSource, WorkItem,
};
pub use importance::{lasso_path, permutation_importance, KnobImportance};
pub use llamatune::{LlamaTune, LlamaTuneConfig};
pub use multifid::{FidelityLevel, Hyperband, SuccessiveHalving, SuccessiveHalvingConfig};
pub use noise_strategy::NoiseStrategy;
pub use objective::Objective;
pub use online::{
    static_config_cost, ContextualOnlineTuner, OnlineStep, OnlineTuner, OnlineTunerConfig,
};
pub use profile_guided::KnobComponentMap;
pub use sync::{pwait, PoisonFree, PoisonFreeMutex};
pub use target::Target;
pub use telemetry::{
    LogHistogram, MetricsCollector, MetricsSnapshot, NullTimer, OptEvent, ProgressReporter,
    SpanRecorder, Subscriber, TrialSpan, WallTimer,
};
pub use transfer::{transfer_observations, TransferPolicy};
pub use trial::{Trial, TrialStatus, TrialStorage};
