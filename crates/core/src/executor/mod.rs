//! The one true trial loop: an event-driven executor behind every
//! execution path in the framework (tutorial slides 33, 57, 65-66).
//!
//! A campaign is a [`TrialSource`] (where configurations come from), a
//! [`SchedulePolicy`] (how many run at once and where the barriers sit),
//! and a [`Middleware`] chain (cross-cutting machinery: early abort,
//! crash penalties, machine assignment). [`Campaign`] — the only engine —
//! drives them with a virtual-clock slot pool: a wave of trials is
//! measured the moment it is dispatched ([`measure_wave`]), but the
//! *results* are sealed until the virtual clock reaches each trial's
//! finish time, so observation order matches what a real cluster would
//! deliver — including out-of-order completion under asynchronous
//! policies.
//!
//! Determinism contract: the suggestion stream (`StdRng` from the
//! campaign seed) is consumed only by the source and `before_dispatch`
//! middleware; every trial's measurement draws from its own stream
//! derived from `(seed, trial_id)`; and one campaign's wave is measured
//! in wave order on one thread, so the target's drift clock is never
//! advanced by two threads. `Sequential`, `SyncBatch{k:1}` and
//! `AsyncSlots{k:1}` therefore produce byte-identical trial histories,
//! and any campaign's history is the same standalone, ticked, or
//! interleaved with others by a registry.

mod campaign;
mod event;
mod middleware;
mod policy;
mod source;

pub use campaign::{
    same_encoding, Campaign, CampaignError, CampaignEvent, CampaignSnapshot, WorkItem,
    SNAPSHOT_VERSION,
};
pub use event::{Measurement, TrialEvent, TrialOutcome, TrialRequest};
pub use middleware::{
    CrashPenaltyMw, EarlyAbortMw, MachineAssignMw, Middleware, QuarantineMw, RetryMw, TimeoutMw,
};
pub use policy::SchedulePolicy;
pub use source::{OptimizerSource, RungSource, SourceStep, TrialSource};

use crate::telemetry::{MetricsCollector, OptEvent, Subscriber};
use crate::{NoiseStrategy, Target};
use autotune_sim::{FailureKind, Fault};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Derives a trial's private evaluation seed from the campaign seed and
/// the trial id (SplitMix64-style finalizer: adjacent ids land far apart).
fn trial_seed(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fans every event out to the internal metrics collector and the
/// attached subscribers, in attachment order, on the driver thread.
struct FanOut<'a> {
    collector: MetricsCollector,
    subs: Vec<Box<dyn Subscriber + 'a>>,
}

impl FanOut<'_> {
    fn trial(&mut self, at_s: f64, ev: &TrialEvent) {
        self.collector.on_trial_event(at_s, ev);
        for s in &mut self.subs {
            s.on_trial_event(at_s, ev);
        }
    }

    fn opt(&mut self, at_s: f64, ev: &OptEvent) {
        self.collector.on_opt_event(at_s, ev);
        for s in &mut self.subs {
            s.on_opt_event(at_s, ev);
        }
    }

    fn outcome(&mut self, at_s: f64, outcome: &TrialOutcome) {
        self.collector.on_outcome(at_s, outcome);
        for s in &mut self.subs {
            s.on_outcome(at_s, outcome);
        }
    }

    fn end(&mut self, at_s: f64) {
        self.collector.on_campaign_end(at_s);
        for s in &mut self.subs {
            s.on_campaign_end(at_s);
        }
    }
}

/// Applies an injected fault to a raw measurement. The transient kinds
/// (machine death, outage, hang) lose the measurement — cost NaN,
/// telemetry dropped — while stragglers and corruptions keep a degraded
/// one. Severity semantics are documented on [`Fault`].
fn apply_fault(f: &Fault, m: &mut Measurement, cost_is_elapsed: bool) {
    m.fault = Some(f.kind);
    match f.kind {
        FailureKind::Transient | FailureKind::Outage => {
            // Died `severity` of the way through the run.
            m.cost = f64::NAN;
            m.elapsed_s *= f.severity;
            m.telemetry.clear();
        }
        FailureKind::Hang => {
            // Wedged: never reports a cost; only a timeout frees the slot.
            m.cost = f64::NAN;
            m.elapsed_s *= f.severity;
            m.telemetry.clear();
        }
        FailureKind::Straggler => {
            // Slow but complete. When the objective *is* elapsed time the
            // slowdown contaminates the cost too.
            m.elapsed_s *= f.severity;
            if cost_is_elapsed {
                m.cost *= f.severity;
            }
        }
        FailureKind::Corruption => {
            m.cost *= f.severity;
        }
        FailureKind::ConfigCrash => {
            m.cost = f64::NAN;
        }
    }
}

/// Measures one request with its private RNG stream (the worker-side
/// half of the campaign tick: pure, reentrant, callable from any
/// thread). Workload overrides and machine pins evaluate directly
/// (keeping telemetry); everything else goes through the campaign's
/// noise strategy.
pub fn measure_request(
    target: &Target,
    strategy: &NoiseStrategy,
    req: &TrialRequest,
    eval_seed: u64,
) -> Measurement {
    let mut rng = StdRng::seed_from_u64(eval_seed);
    let rng: &mut dyn RngCore = &mut rng;
    let mut m = if let Some(w) = &req.workload {
        Measurement::from_eval(target.evaluate_at(&req.config, Some(w), rng))
    } else if let Some(m) = req.machine_id {
        Measurement::from_eval(target.evaluate_on_machine(&req.config, m, rng))
    } else if matches!(strategy, NoiseStrategy::Single) {
        Measurement::from_eval(target.evaluate(&req.config, rng))
    } else {
        let baseline = target.space().default_config();
        let (cost, elapsed_s) = strategy.measure(target, &req.config, &baseline, rng);
        Measurement {
            cost,
            elapsed_s,
            machine_id: None,
            telemetry: Vec::new(),
            aborted: false,
            saved_s: 0.0,
            fault: None,
            clock: 0,
        }
    };
    // Stamp the post-evaluation drift-clock position so a recorded
    // measurement carries everything partial-log replay needs to hand
    // the target back at the right point in its drift trajectory.
    m.clock = target.noise_clock();
    m
}

/// Measures one campaign's wave: [`measure_request`] per item, in wave
/// order, on the calling thread. The one way a wave is measured —
/// [`Campaign::tick`] and the serve registry's round both call it. A
/// noisy target's drift clock advances per evaluation, so splitting a
/// wave across threads would make the clock stamps scheduling-dependent;
/// only *different* campaigns (disjoint targets) may ever be measured
/// concurrently. The serve registry measures every wave on its caller;
/// what it runs side by side is suggest and absorb, so only a retry's
/// re-measurement (inside [`Campaign::complete_wave`]) happens on the
/// one thread absorbing that campaign.
pub fn measure_wave<'w>(
    target: &Target,
    strategy: &NoiseStrategy,
    wave: impl IntoIterator<Item = &'w WorkItem>,
) -> Vec<Measurement> {
    wave.into_iter()
        .map(|w| measure_request(target, strategy, &w.req, w.eval_seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricsSnapshot;
    use crate::test_fixtures::redis_target;
    use crate::{Objective, TrialStatus, TrialStorage};
    use autotune_optimizer::{BayesianOptimizer, Optimizer, RandomSearch};
    use autotune_space::Config;

    fn run_policy(
        policy: SchedulePolicy,
        budget: usize,
        seed: u64,
    ) -> (TrialStorage, MetricsSnapshot) {
        let target = redis_target();
        let mut opt = RandomSearch::new(target.space().clone());
        let source = OptimizerSource::new(&mut opt, budget);
        let mut campaign = Campaign::over(&target, Box::new(source), policy, seed);
        let report = campaign.run();
        (campaign.into_storage(), report)
    }

    #[test]
    fn single_slot_policies_are_byte_identical() {
        // Same seed: the sequential loop, a 1-wide synchronous batch and a
        // 1-slot asynchronous pool must produce the *same campaign*.
        let (seq_s, seq_r) = run_policy(SchedulePolicy::Sequential, 12, 42);
        let (sync_s, sync_r) = run_policy(SchedulePolicy::SyncBatch { k: 1 }, 12, 42);
        let (async_s, async_r) = run_policy(SchedulePolicy::AsyncSlots { k: 1 }, 12, 42);
        assert_eq!(seq_s.to_json(), sync_s.to_json());
        assert_eq!(seq_s.to_json(), async_s.to_json());
        // With one slot there is no parallelism to exploit: wall clock
        // equals machine seconds, bit-for-bit.
        for r in [&seq_r, &sync_r, &async_r] {
            assert_eq!(r.wall_clock_s.to_bits(), r.machine_seconds().to_bits());
        }
        assert_eq!(seq_r.wall_clock_s.to_bits(), async_r.wall_clock_s.to_bits());
        assert_eq!(seq_r.wall_clock_s.to_bits(), sync_r.wall_clock_s.to_bits());
    }

    #[test]
    fn event_stream_covers_every_trial() {
        let (storage, m) = run_policy(SchedulePolicy::AsyncSlots { k: 3 }, 9, 7);
        assert_eq!(storage.len(), 9);
        assert_eq!(m.n_trials(), 9);
        let terminal = m.n_finished + m.n_crashed + m.n_aborted;
        assert_eq!((m.n_suggested, m.n_started, terminal), (9, 9, 9));
    }

    #[test]
    fn async_keeps_slots_busier_than_sync() {
        let run = |policy| {
            let target = crate::test_fixtures::spark_target();
            let mut opt = RandomSearch::new(target.space().clone());
            let source = OptimizerSource::new(&mut opt, 24);
            let report = Campaign::over(&target, Box::new(source), policy, 19).run();
            report
        };
        let sync = run(SchedulePolicy::SyncBatch { k: 4 });
        let asyn = run(SchedulePolicy::AsyncSlots { k: 4 });
        // Identical per-trial seeds => identical machine seconds; the
        // barrier only changes how much wall clock that work spans.
        assert!((sync.machine_seconds() - asyn.machine_seconds()).abs() < 1e-9);
        assert!(
            asyn.wall_clock_s < sync.wall_clock_s,
            "async wall {} should beat sync {}",
            asyn.wall_clock_s,
            sync.wall_clock_s
        );
    }

    /// `n_batches` synchronous batches of `k` GP-BO trials on the Redis
    /// target.
    fn run_bo_batches(n_batches: usize, k: usize, seed: u64) -> (TrialStorage, MetricsSnapshot) {
        let target = redis_target();
        let mut opt = BayesianOptimizer::gp(target.space().clone());
        let source = OptimizerSource::new(&mut opt, n_batches * k);
        let mut campaign = Campaign::over(
            &target,
            Box::new(source),
            SchedulePolicy::SyncBatch { k },
            seed,
        );
        let report = campaign.run();
        (campaign.into_storage(), report)
    }

    #[test]
    fn parallel_campaign_finds_good_config() {
        let (storage, report) = run_bo_batches(8, 4, 3);
        assert_eq!(storage.len(), 32);
        assert!(storage.best().expect("a finite trial").cost.is_finite());
        // Machine seconds = sum; wall clock = sum of per-batch maxima, so
        // parallelism must buy roughly batch_size x wall-clock reduction.
        assert!(
            report.wall_clock_s < report.machine_seconds() / 3.0,
            "wall {} vs machine {}",
            report.wall_clock_s,
            report.machine_seconds()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_bo_batches(4, 4, 9);
        let (b, _) = run_bo_batches(4, 4, 9);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn larger_batches_reach_quality_in_less_wall_clock() {
        // Same total trial count; batch=4 should use ~1/3 the wall clock
        // of batch=1 while finding a comparable optimum.
        let (serial_s, serial_r) = run_bo_batches(24, 1, 13);
        let (par_s, par_r) = run_bo_batches(6, 4, 13);
        assert!(par_r.wall_clock_s < serial_r.wall_clock_s * 0.5);
        assert!(
            par_s.best().expect("a finite trial").cost
                < serial_s.best().expect("a finite trial").cost * 2.0,
            "parallel quality collapsed"
        );
    }

    #[test]
    fn async_never_suggests_a_duplicate_of_an_in_flight_config() {
        // With a model-based optimizer past its init phase, every
        // suggestion gets constant-liar treatment while in flight, so an
        // asynchronous pool must never pile two slots onto one config.
        let target = redis_target();
        let mut opt = BayesianOptimizer::gp(target.space().clone());
        let budget = 28;
        let source = OptimizerSource::new(&mut opt, budget);
        let mut campaign = Campaign::over(
            &target,
            Box::new(source),
            SchedulePolicy::AsyncSlots { k: 4 },
            31,
        );
        campaign.run();
        let mut in_flight: Vec<(u64, Config)> = Vec::new();
        for event in campaign.log().expect("log is on by default") {
            match event {
                CampaignEvent::Suggested { id, request } => {
                    for (other, c) in &in_flight {
                        assert_ne!(
                            c.render(),
                            request.config.render(),
                            "trial {id} duplicates in-flight trial {other}"
                        );
                    }
                    in_flight.push((*id, request.config.clone()));
                }
                CampaignEvent::Outcome { outcome } => {
                    in_flight.retain(|(other, _)| *other != outcome.id);
                }
                _ => {}
            }
        }
        assert_eq!(campaign.storage().len(), budget);
    }

    #[test]
    fn bo_campaign_tunes_the_redis_example() {
        // The tutorial's running example end to end: minimize Redis P95 by
        // tuning the scheduler knob.
        let target = redis_target();
        let default_cfg = target.space().default_config();
        let mut probe_rng = rand::rngs::StdRng::seed_from_u64(99);
        let default_cost: f64 = (0..5)
            .map(|_| target.evaluate(&default_cfg, &mut probe_rng).cost)
            .sum::<f64>()
            / 5.0;
        let mut opt = BayesianOptimizer::gp(target.space().clone());
        let source = OptimizerSource::new(&mut opt, 40);
        let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 7);
        campaign.run();
        let best = campaign.storage().best().expect("a finite trial");
        assert!(
            best.cost < default_cost * 0.6,
            "tuned {} should cut >40% off default {default_cost}",
            best.cost
        );
        // The convergence curve is monotone non-increasing once finite.
        let curve = campaign.storage().convergence_curve();
        let finite: Vec<f64> = curve.into_iter().filter(|c| c.is_finite()).collect();
        for w in finite.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn crashes_are_recorded_and_survived() {
        // DBMS with tight RAM: random search will hit the OOM region.
        use autotune_sim::{DbmsSim, Environment, Workload};
        let target = Target::simulated(
            Box::new(DbmsSim::new()),
            Workload::tpcc(2_000.0),
            Environment::small(),
            Objective::MinimizeLatencyAvg,
        );
        let mut opt = RandomSearch::new(target.space().clone());
        let source = OptimizerSource::new(&mut opt, 60);
        let mut campaign =
            Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 11);
        let report = campaign.run();
        assert!(
            report.n_crashed > 0,
            "expected some OOM crashes on a small VM"
        );
        let best = campaign.storage().best().expect("some trials survive");
        assert!(best.cost.is_finite());
    }

    #[test]
    fn an_all_crash_campaign_has_no_best_and_does_not_panic() {
        // The Environment::small() OOM regime taken to its limit, modeled
        // as a black-box target whose every configuration crashes.
        use autotune_space::{Param, Space};
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let target = Target::black_box(space, Objective::MinimizeLatencyAvg, |_| f64::NAN);
        let mut opt = RandomSearch::new(target.space().clone());
        let source = OptimizerSource::new(&mut opt, 10);
        let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 3);
        let report = campaign.run();
        assert_eq!(report.n_crashed, 10);
        assert!(campaign.storage().best().is_none());
        assert_eq!(campaign.storage().n_crashed(), 10);
    }

    /// Runs the same random-search campaign on the Spark fixture with and
    /// without `EarlyAbortMw` and checks that aborting saves time without
    /// changing the winner.
    fn assert_early_abort_censors_and_saves(budget: usize, seed: u64) {
        let target = crate::test_fixtures::spark_target();
        let run = |abort: bool| {
            let mut opt = RandomSearch::new(target.space().clone());
            let source = OptimizerSource::new(&mut opt, budget);
            let mut campaign =
                Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, seed);
            if abort {
                campaign = campaign.with_middleware(Box::new(EarlyAbortMw::new(1.3)));
            }
            let report = campaign.run();
            (campaign.into_storage(), report)
        };
        let (plain_s, plain_r) = run(false);
        let (abort_s, abort_r) = run(true);
        assert!(
            abort_r.n_aborted > 5,
            "expected aborted trials, got {}",
            abort_r.n_aborted
        );
        assert!(abort_r.saved_s > 0.0);
        assert!(abort_r.machine_seconds() < plain_r.machine_seconds());
        assert!(
            abort_s.total_elapsed_s() < plain_s.total_elapsed_s() * 0.9,
            "abort should save >10% time: {} vs {}",
            abort_s.total_elapsed_s(),
            plain_s.total_elapsed_s()
        );
        // Censoring never changes the winner: the best trial is below
        // the threshold by construction.
        let (plain_best, abort_best) = (plain_s.best().unwrap(), abort_s.best().unwrap());
        assert_eq!(plain_best.config.render(), abort_best.config.render());
        assert_eq!(plain_best.cost.to_bits(), abort_best.cost.to_bits());
    }

    #[test]
    fn early_abort_middleware_censors_and_saves() {
        assert_early_abort_censors_and_saves(30, 5);
    }

    #[test]
    fn early_abort_saves_time_without_changing_winner() {
        assert_early_abort_censors_and_saves(40, 13);
    }

    #[test]
    fn repeat_strategy_charges_more_time() {
        use crate::NoiseStrategy;
        use autotune_sim::{Environment, RedisSim, Workload};
        let target = Target::simulated(
            Box::new(RedisSim::new()),
            Workload::kv_cache(10_000.0),
            Environment::medium(),
            Objective::MinimizeLatencyP95,
        );
        let run = |strategy: NoiseStrategy| {
            let mut opt = RandomSearch::new(target.space().clone());
            let source = OptimizerSource::new(&mut opt, 10);
            let mut campaign =
                Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 17)
                    .with_noise_strategy(strategy);
            campaign.run();
            campaign.storage().total_elapsed_s()
        };
        let single = run(NoiseStrategy::Single);
        let repeat = run(NoiseStrategy::Repeat {
            n: 3,
            median: false,
        });
        assert!(
            repeat > 2.5 * single,
            "3x repeats should cost ~3x time: {repeat} vs {single}"
        );
    }

    #[test]
    fn machine_assignment_middleware_pins_trials() {
        use autotune_sim::{CloudNoise, NoiseConfig};
        let target = redis_target().with_noise(CloudNoise::new_fleet(4, NoiseConfig::default(), 3));
        let mut opt = RandomSearch::new(target.space().clone());
        let source = OptimizerSource::new(&mut opt, 8);
        let mut campaign =
            Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 11)
                .with_middleware(Box::new(MachineAssignMw::round_robin(4)));
        campaign.run();
        let machines: Vec<usize> = campaign
            .storage()
            .trials()
            .iter()
            .map(|t| t.machine_id.expect("assigned"))
            .collect();
        assert_eq!(machines, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn crash_penalty_rewrites_learn_cost_only() {
        use autotune_space::{Param, Space};
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let target = Target::black_box(space.clone(), Objective::MinimizeLatencyAvg, |c| {
            if c.get_f64("x").unwrap() < 0.5 {
                f64::NAN
            } else {
                1.0
            }
        });
        struct Probe {
            opt: RandomSearch,
            learned: Vec<f64>,
        }
        impl TrialSource for Probe {
            fn next(&mut self, rng: &mut dyn RngCore) -> SourceStep {
                if self.learned.len() + 1 > 10 {
                    return SourceStep::Exhausted;
                }
                SourceStep::Dispatch(TrialRequest::new(self.opt.suggest(rng)))
            }
            fn report(&mut self, outcome: &TrialOutcome) {
                self.learned.push(outcome.learn_cost);
            }
        }
        let mut source = Probe {
            opt: RandomSearch::new(space),
            learned: Vec::new(),
        };
        let mut campaign = Campaign::over(
            &target,
            Box::new(&mut source),
            SchedulePolicy::Sequential,
            13,
        )
        .with_middleware(Box::new(CrashPenaltyMw::new()));
        campaign.run();
        let storage = campaign.into_storage();
        assert!(storage.n_crashed() > 0, "expected some crashes");
        // Every learner-visible cost is finite; crashed trials stay NaN in
        // storage.
        assert!(source.learned.iter().all(|c| c.is_finite()));
        assert!(source.learned.iter().filter(|c| **c == 1e9).count() > 0);
        assert!(storage
            .trials()
            .iter()
            .any(|t| t.status == TrialStatus::Crashed && t.cost.is_nan()));
    }

    fn faulty_target(seed: u64) -> Target {
        use autotune_sim::{CloudNoise, FaultPlan, NoiseConfig};
        redis_target()
            .with_noise(CloudNoise::new_fleet(4, NoiseConfig::default(), seed))
            .with_faults(FaultPlan::aggressive(seed))
    }

    fn resilient<'a>(
        target: &'a Target,
        source: Box<dyn TrialSource + 'a>,
        policy: SchedulePolicy,
        seed: u64,
    ) -> Campaign<'a> {
        Campaign::over(target, source, policy, seed)
            .with_middleware(Box::new(MachineAssignMw::round_robin(4)))
            .with_middleware(Box::new(QuarantineMw::new(4)))
            .with_middleware(Box::new(RetryMw::new(3, 5.0)))
            .with_middleware(Box::new(TimeoutMw::new(600.0)))
            .with_middleware(Box::new(CrashPenaltyMw::new()))
    }

    #[test]
    fn single_slot_policies_stay_identical_under_faults() {
        // The PR 1 determinism contract must survive the full resilience
        // stack: faults, retries, timeouts and quarantine are all driven
        // by (seed, trial, attempt), never by wall-clock or thread timing.
        let run = |policy| {
            let target = faulty_target(5);
            let mut opt = RandomSearch::new(target.space().clone());
            let source = OptimizerSource::new(&mut opt, 16);
            let mut campaign = resilient(&target, Box::new(source), policy, 5);
            let report = campaign.run();
            (campaign.storage().to_json(), report)
        };
        let (seq_j, seq_r) = run(SchedulePolicy::Sequential);
        let (sync_j, _) = run(SchedulePolicy::SyncBatch { k: 1 });
        let (async_j, async_r) = run(SchedulePolicy::AsyncSlots { k: 1 });
        assert_eq!(seq_j, sync_j);
        assert_eq!(seq_j, async_j);
        assert_eq!(seq_r.wall_clock_s.to_bits(), async_r.wall_clock_s.to_bits());
        assert_eq!(seq_r.n_retries, async_r.n_retries);
    }

    #[test]
    fn retries_recover_transient_failures() {
        let run = |retry: bool| {
            let target = faulty_target(21);
            let mut opt = RandomSearch::new(target.space().clone());
            let source = OptimizerSource::new(&mut opt, 40);
            let mut campaign =
                Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 21);
            if retry {
                campaign = campaign.with_middleware(Box::new(RetryMw::new(3, 5.0)));
            }
            let report = campaign.run();
            (campaign.into_storage(), report)
        };
        let (naive_s, naive_r) = run(false);
        let (retry_s, retry_r) = run(true);
        assert_eq!(naive_r.n_retries, 0);
        assert!(
            retry_r.n_retries > 0,
            "aggressive plan should trigger retries"
        );
        // Retrying transient losses converts most of them back into
        // completed measurements.
        assert!(
            retry_s.n_transient_failures() < naive_s.n_transient_failures(),
            "retries should recover trials: {} vs {}",
            retry_s.n_transient_failures(),
            naive_s.n_transient_failures()
        );
        // Retried trials carry their attempt count into storage.
        assert!(retry_s.trials().iter().any(|t| t.retries > 0));
    }

    #[test]
    fn timeout_converts_hangs_into_aborts() {
        use autotune_sim::FaultPlan;
        let mut plan = FaultPlan::new(9);
        plan.hang_prob = 0.3; // force plenty of hangs
        let target = redis_target().with_faults(plan);
        let budget_s = 400.0;
        let run = |timeout: bool| {
            let mut opt = RandomSearch::new(target.space().clone());
            let source = OptimizerSource::new(&mut opt, 30);
            let mut campaign =
                Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 9);
            if timeout {
                campaign = campaign.with_middleware(Box::new(TimeoutMw::new(budget_s)));
            }
            let report = campaign.run();
            (campaign.into_storage(), report)
        };
        let (hang_s, hang_r) = run(false);
        let (cut_s, cut_r) = run(true);
        assert!(cut_r.n_aborted > 0, "hangs should be timed out");
        assert!(cut_s
            .trials()
            .iter()
            .all(|t| t.elapsed_s <= budget_s + 1e-9));
        // Without the timeout the hangs burn their full inflated runtime.
        assert!(hang_s.trials().iter().any(|t| t.elapsed_s > budget_s));
        assert!(cut_r.machine_seconds() < hang_r.machine_seconds());
        // A timed-out hang is an abort, not a crash: the learner is not
        // told the configuration was bad.
        assert_eq!(hang_r.n_aborted, 0);
        assert!(cut_s
            .trials()
            .iter()
            .any(|t| t.status == TrialStatus::Aborted));
    }

    #[test]
    fn quarantine_steers_trials_off_a_sick_machine() {
        use autotune_sim::{CloudNoise, FaultPlan, NoiseConfig};
        let target = redis_target()
            .with_noise(CloudNoise::new_fleet(4, NoiseConfig::default(), 7))
            .with_faults(FaultPlan::new(7).with_sick_machine(0, 20.0));
        let mut opt = RandomSearch::new(target.space().clone());
        let source = OptimizerSource::new(&mut opt, 60);
        let mut campaign = Campaign::over(&target, Box::new(source), SchedulePolicy::Sequential, 7)
            .with_middleware(Box::new(MachineAssignMw::round_robin(4)))
            .with_middleware(Box::new(QuarantineMw::new(4)));
        let report = campaign.run();
        let storage = campaign.storage();
        assert!(
            report.quarantined_machines.contains(&0),
            "the sick machine should get quarantined"
        );
        // While quarantined, machine 0 receives no trials: round-robin
        // would land every 4th trial there, so it must see fewer.
        let on_sick = storage
            .trials()
            .iter()
            .filter(|t| t.machine_id == Some(0))
            .count();
        assert!(
            on_sick < storage.len() / 4,
            "quarantine should deflect trials: {on_sick}/{}",
            storage.len()
        );
    }

    #[test]
    fn transient_failures_bypass_the_learner() {
        use autotune_sim::FaultPlan;
        struct Probe {
            opt: RandomSearch,
            n: usize,
            learned: Vec<f64>,
        }
        impl TrialSource for Probe {
            fn next(&mut self, rng: &mut dyn RngCore) -> SourceStep {
                if self.n >= 40 {
                    return SourceStep::Exhausted;
                }
                self.n += 1;
                SourceStep::Dispatch(TrialRequest::new(self.opt.suggest(rng)))
            }
            fn report(&mut self, outcome: &TrialOutcome) {
                if outcome.status == TrialStatus::TransientFailure {
                    self.learned.push(outcome.learn_cost);
                }
            }
        }
        let target = redis_target().with_faults(FaultPlan::aggressive(13));
        let run = |naive: bool| {
            let mut source = Probe {
                opt: RandomSearch::new(target.space().clone()),
                n: 0,
                learned: Vec::new(),
            };
            let mw: Box<dyn Middleware> = if naive {
                Box::new(CrashPenaltyMw::naive())
            } else {
                Box::new(CrashPenaltyMw::new())
            };
            Campaign::over(
                &target,
                Box::new(&mut source),
                SchedulePolicy::Sequential,
                13,
            )
            .with_middleware(mw)
            .run();
            source.learned
        };
        let strict = run(false);
        let naive = run(true);
        assert!(!strict.is_empty(), "aggressive plan should lose trials");
        // Status-gated penalty leaves transient losses NaN (the source
        // drops them); the naive variant feeds them in as crash penalties.
        assert!(strict.iter().all(|c| c.is_nan()));
        assert!(naive.iter().all(|c| *c == 1e9));
    }
}
