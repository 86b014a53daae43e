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
//! Every execution path — sequential sessions, batch/async parallel
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
//! High-level entry points are thin bindings over that loop:
//! [`TuningSession`] (sequential + noise strategy + early abort),
//! [`SuccessiveHalving`] / [`Hyperband`] (rung barriers), and
//! [`OnlineTuner`] (bandit over a candidate menu with guardrails).
//! Batch vs. slot scheduling is a `Campaign` built with
//! `SchedulePolicy::SyncBatch { k }` or `SchedulePolicy::AsyncSlots { k }`.
//!
//! # Quick start
//!
//! ```
//! use autotune::{Objective, Target, TuningSession, SessionConfig};
//! use autotune_optimizer::BayesianOptimizer;
//! use autotune_sim::{DbmsSim, Environment, Workload};
//!
//! let target = Target::simulated(
//!     Box::new(DbmsSim::new()),
//!     Workload::tpcc(2_000.0),
//!     Environment::medium(),
//!     Objective::MinimizeLatencyAvg,
//! );
//! let optimizer = BayesianOptimizer::gp(target.space().clone());
//! let mut session = TuningSession::new(target, Box::new(optimizer), SessionConfig::default());
//! let summary = session.run(30, 42).expect("at least one successful trial");
//! assert!(summary.best_cost.is_finite());
//! ```

pub mod executor;
pub mod sync;
pub mod telemetry;

mod early_abort;
mod importance;
mod llamatune;
mod multifid;
mod noise_strategy;
mod objective;
mod online;
mod profile_guided;
mod session;
mod target;
mod transfer;
mod trial;

#[cfg(test)]
mod test_fixtures;

pub use early_abort::EarlyAbort;
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
pub use session::{SessionConfig, SessionSummary, TuningSession};
pub use sync::{pwait, PoisonFree, PoisonFreeMutex};
pub use target::Target;
pub use telemetry::{
    LogHistogram, MetricsCollector, MetricsSnapshot, NullTimer, OptEvent, ProgressReporter,
    SpanRecorder, Subscriber, TrialSpan, WallTimer,
};
pub use transfer::{transfer_observations, TransferPolicy};
pub use trial::{Trial, TrialStatus, TrialStorage};
