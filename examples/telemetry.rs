//! Campaign observability: metrics, spans and live progress.
//!
//! Runs one fault-injected Bayesian-optimization campaign on an
//! asynchronous slot pool with all three telemetry subscribers attached:
//!
//! * a [`ProgressReporter`] printing a one-line status every 500 virtual
//!   seconds (best so far, incumbent age, fleet health, ETA);
//! * a [`SpanRecorder`] reconstructing per-trial spans — suggest → queued
//!   → running attempts → retry backoffs → observed — and exporting them
//!   as Chrome `trace_event` JSON;
//! * a [`MetricsCollector`](autotune::telemetry::MetricsCollector) (one
//!   is always on inside the campaign; `Campaign::run` returns its
//!   snapshot) rolling up counters, latency and queue-wait histograms,
//!   and real tuner overhead measured through an injected wall timer.
//!
//! The subscribers are pure observers on the virtual clock: attach all of
//! them or none and the campaign's results are byte-identical.
//!
//! Run with:
//! ```text
//! cargo run -p autotune-examples --bin telemetry --release
//! ```
//! then load `telemetry_trace.json` in `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use autotune::executor::{
    Campaign, CrashPenaltyMw, MachineAssignMw, OptimizerSource, QuarantineMw, RetryMw,
    SchedulePolicy, TimeoutMw,
};
use autotune::telemetry::{ProgressReporter, SpanRecorder, WallTimer};
use autotune::{Objective, Target};
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::{CloudNoise, Environment, FaultPlan, NoiseConfig, RedisSim, Workload};
use std::time::Instant;

const N_MACHINES: usize = 6;
const BUDGET: usize = 48;
const SEED: u64 = 17;

/// Real time for optimizer overhead attribution. Core never reads the
/// wall clock itself — callers inject a timer, and without one every
/// overhead figure is a deterministic 0.
struct StdTimer(Instant);

impl WallTimer for StdTimer {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

fn main() {
    println!("== Campaign observability: metrics, spans, progress ==\n");

    let target = Target::simulated(
        Box::new(RedisSim::new()),
        Workload::kv_cache(20_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyP95,
    )
    .with_noise(CloudNoise::new_fleet(
        N_MACHINES,
        NoiseConfig::default(),
        SEED,
    ))
    .with_faults(FaultPlan::aggressive(SEED).with_sick_machine(1, 6.0));

    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, BUDGET);
    let mut spans = SpanRecorder::new();
    let mut progress = ProgressReporter::new(std::io::stdout(), 500.0).with_budget(BUDGET);

    let (metrics, storage) = {
        let policy = SchedulePolicy::AsyncSlots { k: 3 };
        #[expect(
            clippy::disallowed_methods,
            reason = "the example measures real tuner overhead, so its timer reads the wall clock"
        )]
        let timer = StdTimer(Instant::now());
        let mut campaign = Campaign::over(&target, Box::new(source), policy, SEED)
            .with_middleware(Box::new(MachineAssignMw::round_robin(N_MACHINES)))
            .with_middleware(Box::new(QuarantineMw::new(N_MACHINES)))
            .with_middleware(Box::new(RetryMw::new(3, 5.0)))
            .with_middleware(Box::new(TimeoutMw::new(150.0)))
            .with_middleware(Box::new(CrashPenaltyMw::new()))
            .with_subscriber(Box::new(&mut progress))
            .with_subscriber(Box::new(&mut spans))
            .with_timer(Box::new(timer));
        (campaign.run(), campaign.into_storage())
    };

    println!(
        "\nbest P95 {:.2} ms over {} trials\n",
        storage.best().map_or(f64::NAN, |t| t.cost),
        storage.len()
    );

    println!("-- metrics snapshot --\n{metrics}\n");

    spans.validate_all().expect("spans are well-formed");
    println!("-- spans --");
    for span in spans.spans().iter().take(5) {
        println!(
            "trial {:>2}: suggested {:>7.1}s started {:>7.1}s finished {:>7.1}s observed \
             {:>7.1}s | {} segment(s), {} retries, machine {:?}",
            span.id,
            span.suggested_at,
            span.started_at,
            span.finished_at,
            span.observed_at,
            span.segments.len(),
            span.retries,
            span.machine_id,
        );
    }
    println!("... ({} spans total)\n", spans.spans().len());

    let path = "telemetry_trace.json";
    std::fs::write(path, spans.to_chrome_trace()).expect("write trace");
    println!("wrote {path} — open it in chrome://tracing or https://ui.perfetto.dev");
}
