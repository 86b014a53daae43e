//! Fault-tolerant tuning on an unreliable fleet (systems challenges).
//!
//! A tuning campaign on real cloud machines loses trials to transient
//! machine failures, hangs, stragglers and outages. This example runs the
//! same Bayesian-optimization campaign three ways against a deterministic
//! `FaultPlan`:
//! 1. **fault-free** — the ideal, for reference;
//! 2. **naive** — every lost trial is fed to the learner as a crash
//!    penalty (the anti-pattern the tutorial warns mis-trains the
//!    surrogate);
//! 3. **resilient** — transient losses are retried with backoff, hangs
//!    are timed out, and sick machines are quarantined.
//!
//! Run with:
//! ```text
//! cargo run -p autotune-examples --bin fault_tolerance --release
//! ```

use autotune::executor::{
    Campaign, CrashPenaltyMw, MachineAssignMw, OptimizerSource, QuarantineMw, RetryMw,
    SchedulePolicy, TimeoutMw,
};
use autotune::telemetry::SpanRecorder;
use autotune::{Objective, Target};
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::{CloudNoise, Environment, FaultPlan, NoiseConfig, RedisSim, Workload};

const N_MACHINES: usize = 6;
const BUDGET: usize = 40;
const SEED: u64 = 11;

fn target(faults: bool) -> Target {
    let t = Target::simulated(
        Box::new(RedisSim::new()),
        Workload::kv_cache(20_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyP95,
    )
    .with_noise(CloudNoise::new_fleet(
        N_MACHINES,
        NoiseConfig::default(),
        SEED,
    ));
    if faults {
        // Machine 1 is sick (6x fault rates), machine 4 is down for the
        // first 1500 virtual seconds.
        t.with_faults(
            FaultPlan::aggressive(SEED)
                .with_sick_machine(1, 6.0)
                .with_outage(4, 0.0, 1_500.0),
        )
    } else {
        t
    }
}

fn main() {
    println!("== Fault-tolerant tuning on an unreliable fleet ==\n");

    for (label, faults, resilient, naive_penalty) in [
        ("fault-free (reference)", false, false, false),
        ("naive crash-penalty", true, false, true),
        ("retry+timeout+quarantine", true, true, false),
    ] {
        let target = target(faults);
        let mut opt = BayesianOptimizer::gp(target.space().clone());
        let source = OptimizerSource::new(&mut opt, BUDGET);
        let policy = SchedulePolicy::AsyncSlots { k: 3 };
        let mut spans = SpanRecorder::new();
        let mut campaign = Campaign::over(&target, Box::new(source), policy, SEED)
            .with_subscriber(Box::new(&mut spans))
            .with_middleware(Box::new(MachineAssignMw::round_robin(N_MACHINES)));
        if resilient {
            campaign = campaign
                .with_middleware(Box::new(QuarantineMw::with_defaults(N_MACHINES)))
                .with_middleware(Box::new(RetryMw::new(3, 5.0)))
                .with_middleware(Box::new(TimeoutMw::new(150.0)));
        }
        let penalty = if naive_penalty {
            CrashPenaltyMw::naive(1e9)
        } else {
            CrashPenaltyMw::new(1e9)
        };
        let mut campaign = campaign.with_middleware(Box::new(penalty));
        let metrics = campaign.run();
        let storage = campaign.into_storage();

        println!("-- {label} --");
        println!(
            "   best P95 {:.2} ms | {} trials, {} transient losses, {} retries, {} aborted",
            storage.best().map_or(f64::NAN, |t| t.cost),
            storage.len(),
            storage.n_transient_failures(),
            metrics.n_retries,
            metrics.n_aborted,
        );
        for mark in spans.machine_marks() {
            if mark.quarantined {
                println!("   quarantined machine {}", mark.machine_id);
            } else {
                println!("   released machine {} on probation", mark.machine_id);
            }
        }
        println!(
            "   wall clock {:.0} s, machine seconds {:.0}\n",
            metrics.wall_clock_s,
            metrics.machine_seconds()
        );
    }

    println!("The naive run feeds every transient loss to the learner as a crash,");
    println!("steering the surrogate away from perfectly good regions; the resilient");
    println!("run recovers the lost measurements and routes around sick machines.");
}
