//! Snapshot round-trip coverage for the resumable [`Campaign`] state
//! machine: a property test that `resume(snapshot(k))`, through the
//! protocol's frames, equals running straight through, for arbitrary k
//! across every schedule policy (Sequential, SyncBatch, AsyncSlots,
//! Rungs), and the refusal of a snapshot of the earlier format.

use autotune::{
    Campaign, CampaignSnapshot, FidelityLevel, Objective, OptimizerSource, RetryMw, RungSource,
    SchedulePolicy, Target,
};
use autotune_optimizer::RandomSearch;
use autotune_serve::{read_frame, write_frame};
use autotune_sim::{CloudNoise, Environment, FaultPlan, NoiseConfig, RedisSim, Workload};
use autotune_space::Config;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn redis_target(hostile: bool) -> Target {
    let mut t = Target::simulated(
        Box::new(RedisSim::new()),
        Workload::kv_cache(20_000.0),
        Environment::small(),
        Objective::MinimizeLatencyP95,
    );
    if hostile {
        t = t
            .with_noise(CloudNoise::new_fleet(3, NoiseConfig::default(), 77))
            .with_faults(FaultPlan::aggressive(5));
    }
    t
}

/// An owned campaign over random search; hostile targets get a retry
/// middleware so transient faults exercise the attempt>0 log records.
fn opt_campaign(
    policy: SchedulePolicy,
    seed: u64,
    budget: usize,
    hostile: bool,
) -> Campaign<'static> {
    let target = redis_target(hostile);
    let opt = RandomSearch::new(target.space().clone());
    let source = OptimizerSource::new(Box::new(opt), budget);
    let mut c = Campaign::new(target, Box::new(source), policy, seed);
    if hostile {
        c = c.with_middleware(Box::new(RetryMw::new(2, 5.0)));
    }
    c
}

fn tpch_levels() -> Vec<FidelityLevel> {
    vec![
        FidelityLevel {
            label: "SF-2".into(),
            workload: Workload::tpch(2.0),
        },
        FidelityLevel {
            label: "SF-8".into(),
            workload: Workload::tpch(8.0),
        },
    ]
}

fn rung_pool(target: &Target, n: usize, seed: u64) -> Vec<Config> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| target.space().sample(&mut rng)).collect()
}

/// A campaign over a successive-halving rung ladder (borrowed source).
fn rung_campaign<'a>(levels: &'a [FidelityLevel], seed: u64, slots: usize) -> Campaign<'a> {
    let target = redis_target(false);
    let pool = rung_pool(&target, 6, seed ^ 0x5eed);
    let source = RungSource::new(levels, 2, pool);
    Campaign::new(
        target,
        Box::new(source),
        SchedulePolicy::Rungs { k: slots },
        seed,
    )
}

/// Drives to completion; returns (storage JSON, event-log JSON).
fn finish(c: &mut Campaign<'_>) -> (String, String) {
    c.run();
    let log = serde_json::to_string(c.log().expect("log enabled")).unwrap();
    (c.storage().to_json(), log)
}

/// Ticks `k` times (stopping early if done), snapshots, resumes the
/// snapshot into `fresh`, finishes both, and asserts byte-identity.
fn assert_resume_matches(mut half: Campaign<'_>, fresh: Campaign<'_>, k: usize) {
    for _ in 0..k {
        if half.tick() {
            break;
        }
    }
    let snap = half.snapshot().expect("snapshot at tick boundary");
    // Round-trip the snapshot through a frame: resume must work from the
    // decoded form, exactly as a client restoring a served one would.
    let mut frame = Vec::new();
    write_frame(&mut frame, &snap).expect("snapshot encodes");
    let parsed: CampaignSnapshot = read_frame(&mut &frame[..])
        .expect("snapshot decodes")
        .expect("one frame");
    let mut resumed = Campaign::resume(&parsed, fresh).expect("resume accepts fresh twin");
    let (resumed_storage, resumed_log) = finish(&mut resumed);
    let (straight_storage, straight_log) = finish(&mut half);
    assert_eq!(
        resumed_storage, straight_storage,
        "trial histories diverged"
    );
    assert_eq!(resumed_log, straight_log, "event logs diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `resume(snapshot(k))` == straight run, for arbitrary k, every
    /// schedule policy, benign and hostile (noise + faults + retries)
    /// targets.
    #[test]
    fn resume_equals_straight_run(seed in 0u64..300, k in 0usize..14, scenario in 0usize..7) {
        let (policy, hostile) = match scenario {
            0 => (SchedulePolicy::Sequential, false),
            1 => (SchedulePolicy::Sequential, true),
            2 => (SchedulePolicy::SyncBatch { k: 3 }, false),
            3 => (SchedulePolicy::SyncBatch { k: 2 }, true),
            4 => (SchedulePolicy::AsyncSlots { k: 3 }, false),
            _ => (SchedulePolicy::AsyncSlots { k: 2 }, true),
        };
        if scenario < 6 {
            let half = opt_campaign(policy, seed, 10, hostile);
            let fresh = opt_campaign(policy, seed, 10, hostile);
            assert_resume_matches(half, fresh, k);
        } else {
            let levels = tpch_levels();
            let half = rung_campaign(&levels, seed, 2);
            let fresh = rung_campaign(&levels, seed, 2);
            assert_resume_matches(half, fresh, k);
        }
    }
}

/// `tests/golden/campaign_snapshot.json` is a snapshot of the earlier
/// format (a hostile AsyncSlots campaign, 4 ticks in): a format
/// version, a boundary drift clock and the full events, each outcome
/// with its config and series. It is kept as it is and must be refused:
/// a snapshot is now its log in the one form a write-ahead log holds,
/// and no reader of the old format is kept.
#[test]
fn a_snapshot_of_the_earlier_format_is_refused() {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/campaign_snapshot.json");
    let golden = std::fs::read_to_string(&golden_path).expect("the old golden is kept");
    assert!(
        golden.starts_with(r#"{"version":1,"seed":7,"#) && golden.contains(r#""target_clock":"#),
        "not the earlier format"
    );
    let refused = serde_json::from_str::<CampaignSnapshot>(&golden);
    assert!(refused.is_err(), "an old snapshot was read");
}
