//! Cross-crate integration: the telemetry subsystem against the real
//! executor — subscriber purity (byte-identical campaigns with any
//! subscriber combination, in any order), span well-formedness under
//! every schedule policy with the full fault/resilience stack, and a
//! golden Chrome-trace export.
//!
//! `campaign_is_byte_identical_with_all_subscribers_attached` is the
//! release-mode CI gate for the ISSUE 3 acceptance criterion.

use autotune::executor::{
    Campaign, CrashPenaltyMw, ExecReport, MachineAssignMw, OptimizerSource, QuarantineMw, RetryMw,
    SchedulePolicy, TimeoutMw,
};
use autotune::telemetry::{MetricsCollector, ProgressReporter, SpanRecorder, Subscriber};
use autotune::{Target, TrialStorage};
use autotune_optimizer::{BayesianOptimizer, RandomSearch};
use autotune_sim::{CloudNoise, FaultPlan, NoiseConfig};
use autotune_tests::redis_target;

const N_MACHINES: usize = 4;

fn faulty_target(seed: u64) -> Target {
    redis_target()
        .with_noise(CloudNoise::new_fleet(
            N_MACHINES,
            NoiseConfig::default(),
            seed,
        ))
        .with_faults(FaultPlan::aggressive(seed).with_sick_machine(1, 6.0))
}

/// Runs a resilient BO campaign with the given subscribers attached.
fn run_observed(
    seed: u64,
    policy: SchedulePolicy,
    budget: usize,
    subscribers: &mut [&mut dyn Subscriber],
) -> (TrialStorage, ExecReport) {
    let target = faulty_target(seed);
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, budget);
    let mut campaign = Campaign::over(&target, Box::new(source), policy, seed)
        .with_middleware(Box::new(MachineAssignMw::round_robin(N_MACHINES)))
        .with_middleware(Box::new(QuarantineMw::with_defaults(N_MACHINES)))
        .with_middleware(Box::new(RetryMw::new(3, 5.0)))
        .with_middleware(Box::new(TimeoutMw::new(150.0)))
        .with_middleware(Box::new(CrashPenaltyMw::new(1e9)));
    for sub in subscribers.iter_mut() {
        campaign = campaign.with_subscriber(Box::new(&mut **sub));
    }
    let report = campaign.run();
    (campaign.into_storage(), report)
}

/// The ISSUE 3 acceptance criterion, run in `--release` by the CI
/// determinism job: enabling every shipped subscriber leaves a k=1
/// campaign byte-identical with the bare run, across all three
/// single-slot schedule policies.
#[test]
fn campaign_is_byte_identical_with_all_subscribers_attached() {
    let (bare, bare_r) = run_observed(19, SchedulePolicy::Sequential, 20, &mut []);
    for policy in [
        SchedulePolicy::Sequential,
        SchedulePolicy::SyncBatch { k: 1 },
        SchedulePolicy::AsyncSlots { k: 1 },
    ] {
        let mut metrics = MetricsCollector::new();
        let mut spans = SpanRecorder::new();
        let mut progress = ProgressReporter::new(Vec::new(), 250.0).with_budget(20);
        let (observed, observed_r) = run_observed(
            19,
            policy,
            20,
            &mut [&mut metrics, &mut spans, &mut progress],
        );
        assert_eq!(
            bare.to_json(),
            observed.to_json(),
            "subscribers must not perturb {policy:?}"
        );
        assert_eq!(
            bare_r.wall_clock_s.to_bits(),
            observed_r.wall_clock_s.to_bits()
        );
        assert_eq!(spans.spans().len(), 20);
        assert!(!progress.into_sink().is_empty());
    }
}

/// Subscribers see the same stream regardless of attachment order, and
/// an externally attached collector agrees with the executor's internal
/// one (the `ExecReport.metrics` snapshot).
#[test]
fn subscriber_order_does_not_change_what_subscribers_see() {
    let run = |flip: bool| {
        let mut metrics = MetricsCollector::new();
        let mut spans = SpanRecorder::new();
        let (_, report) = if flip {
            run_observed(
                7,
                SchedulePolicy::AsyncSlots { k: 3 },
                18,
                &mut [&mut spans, &mut metrics],
            )
        } else {
            run_observed(
                7,
                SchedulePolicy::AsyncSlots { k: 3 },
                18,
                &mut [&mut metrics, &mut spans],
            )
        };
        let traces = spans.to_chrome_trace();
        (metrics.snapshot(), traces, report)
    };
    let (m_ab, t_ab, r_ab) = run(false);
    let (m_ba, t_ba, _) = run(true);
    assert_eq!(t_ab, t_ba, "span recorder must be order-independent");
    assert_eq!(format!("{m_ab}"), format!("{m_ba}"));
    // The external collector and the internal ExecReport one match.
    assert_eq!(format!("{m_ab}"), format!("{}", r_ab.metrics));
    assert_eq!(m_ab.n_suggested, 18);
    assert_eq!(r_ab.metrics.n_retries as usize, r_ab.n_retried);
}

/// Span well-formedness under every schedule policy, with faults,
/// retries, timeouts and quarantine in play: every span validates
/// (ordered, non-overlapping segments; attempts match retries), every
/// trial gets exactly one span, begin/end opt events pair up, and
/// quarantine/release marks both appear.
#[test]
fn spans_are_well_formed_under_all_policies() {
    for policy in [
        SchedulePolicy::Sequential,
        SchedulePolicy::SyncBatch { k: 3 },
        SchedulePolicy::AsyncSlots { k: 3 },
    ] {
        let mut spans = SpanRecorder::new();
        let (storage, report) = run_observed(3, policy, 30, &mut [&mut spans]);
        spans
            .validate_all()
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(spans.spans().len(), storage.len(), "{policy:?}");
        assert_eq!(spans.unbalanced_opt_events(), 0, "{policy:?}");
        // Retry backoffs appear as explicit segments.
        let backoffs: usize = spans
            .spans()
            .iter()
            .flat_map(|s| &s.segments)
            .filter(|seg| matches!(seg, autotune::telemetry::SpanSegment::Backoff { .. }))
            .count();
        assert_eq!(backoffs, report.n_retried, "{policy:?}");
        if report.n_quarantined_machines > 0 {
            assert!(spans.machine_marks().iter().any(|m| m.quarantined));
        }
        // Under a batch barrier, early finishers wait for the wave: some
        // span must carry an observe-wait segment.
        if matches!(policy, SchedulePolicy::SyncBatch { k: 3 }) {
            assert!(
                spans.spans().iter().any(|s| s.observed_at > s.finished_at),
                "barrier should delay observation"
            );
        }
    }
}

/// Golden test: the Chrome trace export of a small deterministic campaign
/// is byte-stable. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p autotune-tests --test telemetry`.
#[test]
fn chrome_trace_export_matches_golden() {
    let target = redis_target().with_faults(FaultPlan::aggressive(5));
    let mut opt = RandomSearch::new(target.space().clone());
    let source = OptimizerSource::new(&mut opt, 6);
    let mut spans = SpanRecorder::new();
    Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 5)
        .with_middleware(Box::new(RetryMw::new(3, 5.0)))
        .with_subscriber(Box::new(&mut spans))
        .run();
    spans.validate_all().expect("well-formed");
    let trace = spans.to_chrome_trace();
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\":\"X\""));

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/telemetry_trace.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &trace).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        trace, golden,
        "trace drifted from golden — intentional changes: UPDATE_GOLDEN=1"
    );
}

/// The session-level binding: `run_observed` feeds subscribers and the
/// summary carries the merged metrics snapshot.
#[test]
fn session_run_observed_carries_metrics() {
    use autotune::{SessionConfig, TuningSession};
    let target = redis_target();
    let opt = BayesianOptimizer::gp(target.space().clone());
    let mut session = TuningSession::new(target, Box::new(opt), SessionConfig::default());
    let mut progress = ProgressReporter::new(Vec::new(), 100.0).with_budget(15);
    let summary = session
        .run_observed(15, 23, &mut [&mut progress])
        .expect("successful trials");
    assert_eq!(summary.metrics.n_suggested, 15);
    assert_eq!(summary.metrics.n_finished + summary.metrics.n_crashed, 15);
    assert!(summary.metrics.trial_latency_s.count() == 15);
    assert!(summary.metrics.wall_clock_s > 0.0);
    let out = String::from_utf8(progress.into_sink()).unwrap();
    assert!(out.contains("campaign complete"), "{out}");
    // A second run merges (wall clocks add).
    let wall1 = summary.metrics.wall_clock_s;
    let summary2 = session.run(15, 24).expect("successful trials");
    assert_eq!(summary2.metrics.n_suggested, 30);
    assert!(summary2.metrics.wall_clock_s > wall1);
}

/// The online tuner exposes the same observability path.
#[test]
fn online_tuner_runs_with_subscribers() {
    use autotune::{OnlineTuner, OnlineTunerConfig};
    use autotune_sim::WorkloadSchedule;
    let target = redis_target();
    let space = target.space().clone();
    let candidates: Vec<_> = (0..4)
        .map(|i| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i);
            space.sample(&mut rng)
        })
        .collect();
    let mut tuner = OnlineTuner::new(candidates, OnlineTunerConfig::default());
    let schedule = WorkloadSchedule::new(vec![(25, autotune_sim::Workload::kv_cache(20_000.0))]);
    let mut spans = SpanRecorder::new();
    let steps = tuner
        .run_with_subscribers(&target, &schedule, 25, 3, &mut [&mut spans])
        .len();
    assert_eq!(steps, 25);
    spans.validate_all().expect("well-formed");
    assert_eq!(spans.spans().len(), 25);
}
