//! Cross-crate integration: the telemetry subsystem against the real
//! executor — subscriber purity (byte-identical campaigns with any
//! subscriber combination, in any order), span well-formedness under
//! every schedule policy with the full fault/resilience stack, the
//! campaign's accounting re-derived from its history, and a golden
//! Chrome-trace export.
//!
//! `campaign_is_byte_identical_with_all_subscribers_attached` is the
//! release-mode CI gate for the ISSUE 3 acceptance criterion.

use autotune::executor::{
    Campaign, CampaignEvent, CrashPenaltyMw, EarlyAbortMw, MachineAssignMw, OptimizerSource,
    QuarantineMw, RetryMw, RungSource, SchedulePolicy, TimeoutMw, TrialSource,
};
use autotune::telemetry::{
    MetricsCollector, MetricsSnapshot, ProgressReporter, SpanRecorder, Subscriber,
};
use autotune::{FidelityLevel, Objective, Target, TrialStatus, TrialStorage};
use autotune_optimizer::{BayesianOptimizer, RandomSearch};
use autotune_sim::{CloudNoise, DbmsSim, Environment, FaultPlan, NoiseConfig, Workload};
use autotune_tests::redis_target;
use std::collections::BTreeMap;

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

/// A campaign over `source` with the full resilience stack.
fn resilient<'a>(
    target: &'a Target,
    source: Box<dyn TrialSource + 'a>,
    policy: SchedulePolicy,
    seed: u64,
) -> Campaign<'a> {
    Campaign::over(target, source, policy, seed)
        .with_middleware(Box::new(MachineAssignMw::round_robin(N_MACHINES)))
        .with_middleware(Box::new(QuarantineMw::new(N_MACHINES)))
        .with_middleware(Box::new(RetryMw::new(3, 5.0)))
        .with_middleware(Box::new(TimeoutMw::new(150.0)))
        .with_middleware(Box::new(CrashPenaltyMw::new()))
}

/// Runs a resilient BO campaign with the given subscribers attached.
fn run_observed(
    seed: u64,
    policy: SchedulePolicy,
    budget: usize,
    subscribers: &mut [&mut dyn Subscriber],
) -> (TrialStorage, MetricsSnapshot) {
    let target = faulty_target(seed);
    let mut opt = BayesianOptimizer::gp(target.space().clone());
    let source = OptimizerSource::new(&mut opt, budget);
    let mut campaign = resilient(&target, Box::new(source), policy, seed);
    for sub in subscribers.iter_mut() {
        campaign = campaign.with_subscriber(Box::new(&mut **sub));
    }
    let metrics = campaign.run();
    (campaign.into_storage(), metrics)
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
/// an externally attached collector agrees with the campaign's internal
/// one (the snapshot `Campaign::run` returns).
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
    // The external collector and the campaign's internal one match.
    assert_eq!(format!("{m_ab}"), format!("{r_ab}"));
    assert_eq!(m_ab.saved_s.to_bits(), r_ab.saved_s.to_bits());
    assert_eq!(m_ab.quarantined_machines, r_ab.quarantined_machines);
    assert_eq!(m_ab.n_suggested, 18);
}

/// The counters of `m` re-derived from the trial history.
fn assert_counts_match_history(history: &TrialStorage, m: &MetricsSnapshot, ctx: &str) {
    let n_with = |status| {
        history
            .trials()
            .iter()
            .filter(|t| t.status == status)
            .count() as u64
    };
    assert_eq!(m.n_trials(), history.len() as u64, "{ctx}");
    assert_eq!(m.n_finished, n_with(TrialStatus::Complete), "{ctx}");
    assert_eq!(m.n_crashed, history.n_crashed() as u64, "{ctx}");
    assert_eq!(m.n_aborted, n_with(TrialStatus::Aborted), "{ctx}");
    assert_eq!(
        m.n_transient,
        history.n_transient_failures() as u64,
        "{ctx}"
    );
    assert_eq!(m.n_retries, history.n_retried() as u64, "{ctx}");
}

/// The virtual wall clock re-derived from the event log: a trial starts
/// at the clock of its suggestion, and each outcome, in log order,
/// advances the clock to that trial's finish time.
fn wall_clock_from_log(log: &[CampaignEvent]) -> f64 {
    let mut clock = 0.0_f64;
    let mut started = BTreeMap::new();
    for event in log {
        match event {
            CampaignEvent::Suggested { id, .. } => {
                started.insert(*id, clock);
            }
            CampaignEvent::Outcome { outcome } => {
                clock = clock.max(started[&outcome.id] + outcome.elapsed_s);
            }
            _ => {}
        }
    }
    clock
}

/// A campaign's accounting has one home, `Campaign::metrics()`, and it
/// carries no information the history lacks: statuses, retries and
/// machine-seconds re-derive from the trial storage and the wall clock
/// from the event log, bit for bit, under every schedule policy with the
/// fault plan and the resilience stack in play, and under early abort on
/// a target that crashes and loses trials.
#[test]
fn metrics_agree_with_the_history_under_every_policy() {
    let target = faulty_target(3);
    let levels = [5_000.0, 20_000.0].map(|ops| FidelityLevel {
        label: format!("{ops} ops/s"),
        workload: Workload::kv_cache(ops),
    });
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let pool: Vec<_> = (0..18).map(|_| target.space().sample(&mut rng)).collect();
    let mut seen = MetricsSnapshot::default();
    for policy in [
        SchedulePolicy::Sequential,
        SchedulePolicy::SyncBatch { k: 3 },
        SchedulePolicy::AsyncSlots { k: 3 },
        SchedulePolicy::Rungs { k: 3 },
    ] {
        let ctx = policy.label();
        let mut opt = RandomSearch::new(target.space().clone());
        let source: Box<dyn TrialSource> = match policy {
            SchedulePolicy::Rungs { .. } => Box::new(RungSource::new(&levels, 3, pool.clone())),
            _ => Box::new(OptimizerSource::new(&mut opt, 30)),
        };
        let mut campaign = resilient(&target, source, policy, 3);
        let m = campaign.run();
        assert_counts_match_history(campaign.storage(), &m, &ctx);
        assert_eq!(
            m.machine_seconds().to_bits(),
            campaign.storage().total_elapsed_s().to_bits(),
            "{ctx}"
        );
        let log = campaign.log().expect("log is on by default");
        assert_eq!(
            m.wall_clock_s.to_bits(),
            wall_clock_from_log(log).to_bits(),
            "{ctx}"
        );
        seen.merge(&m);
    }
    // The comparisons above were not all 0 == 0.
    assert!(seen.n_retries > 0 && seen.n_aborted > 0);

    // A DBMS on a small VM (OOM crashes) with an elapsed-time objective
    // (early aborts) and a fault plan without retries (transient losses).
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpch(10.0),
        Environment::small(),
        Objective::MinimizeElapsed,
    )
    .with_faults(FaultPlan::aggressive(17));
    let mut opt = RandomSearch::new(target.space().clone());
    let source = OptimizerSource::new(&mut opt, 40);
    let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 17)
        .with_middleware(Box::new(EarlyAbortMw::new(1.3)));
    let m = campaign.run();
    assert_counts_match_history(campaign.storage(), &m, "early abort");
    assert!(m.n_crashed > 0 && m.n_transient > 0 && m.n_aborted > 0 && m.saved_s > 0.0);
    // A sequential run's wall clock is its machine-seconds.
    let total_s = campaign.storage().total_elapsed_s();
    assert_eq!(m.machine_seconds().to_bits(), total_s.to_bits());
    assert_eq!(m.wall_clock_s.to_bits(), total_s.to_bits());
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
        let (storage, metrics) = run_observed(3, policy, 30, &mut [&mut spans]);
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
        assert_eq!(backoffs as u64, metrics.n_retries, "{policy:?}");
        if !metrics.quarantined_machines.is_empty() {
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
