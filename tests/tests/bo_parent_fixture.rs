//! Pins the dense-GP Bayesian-optimisation histories to files an earlier
//! build wrote, not to the current build run twice.
//!
//! Every other BO check compares the code with itself (standalone vs
//! served vs reopened), which a change that moves every history at once
//! passes. Here two campaigns shaped like the benchmark's `tune_bo` (GP
//! BO over Redis, `SyncBatch { k: 2 }`, seed 1, campaigns 0 and 1) run at
//! budget 48, and each `storage().to_json()` must equal byte for byte the
//! fixture in `tests/fixtures/`: run alone, served side by side by one
//! `CampaignRegistry`, and served by a `DurableRegistry` that is then
//! dropped and reopened from its log. The fixtures were written by the
//! binary of commit c5296fb, before the GP's chained kernels and before
//! the registry ran model campaigns side by side, and are never
//! regenerated: a change that means to move these histories must say so
//! and replace them by hand.

use autotune::SchedulePolicy;
use autotune_serve::{
    CampaignRegistry, CampaignSpec, DurableRegistry, MemStorage, OptimizerKind, SystemKind,
    WalConfig,
};

/// The benchmark's `tune_spec` for `tune_bo` at seed 1, at budget 48.
fn spec(index: usize) -> CampaignSpec {
    let optimizer = OptimizerKind::BoGp;
    let mut s = CampaignSpec::minimal(
        format!("{}-{index}", optimizer.label()),
        SystemKind::Redis,
        48,
        1u64.wrapping_mul(1_000_003).wrapping_add(index as u64),
    );
    s.optimizer = optimizer;
    s.policy = SchedulePolicy::SyncBatch { k: 2 };
    s
}

/// Asserts that campaign `index`'s history is its committed fixture.
fn assert_is_fixture(how: &str, index: usize, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("fixtures/bo_gp_sync2_budget48_{index}.json"));
    let want = std::fs::read_to_string(&path).expect("committed fixture");
    assert!(
        got == want,
        "campaign {index} ({how}): history differs from {} ({} vs {} bytes)",
        path.display(),
        got.len(),
        want.len()
    );
}

#[test]
fn bo_histories_match_the_parent_fixtures() {
    for index in 0..2 {
        let mut campaign = spec(index).build();
        campaign.run();
        assert_is_fixture("alone", index, &campaign.storage().to_json());
    }
}

#[test]
fn served_bo_histories_match_the_parent_fixtures() {
    let mut registry = CampaignRegistry::new(2);
    let ids: Vec<u64> = (0..2).map(|i| registry.register_spec(&spec(i))).collect();
    registry.run_all().unwrap();
    for (index, id) in ids.into_iter().enumerate() {
        let history = registry.campaign(id).unwrap().storage().to_json();
        assert_is_fixture("served", index, &history);
    }
}

#[test]
fn durable_and_reopened_bo_histories_match_the_parent_fixtures() {
    let wal = MemStorage::default();
    let mut durable = DurableRegistry::create_in(&wal, 2, WalConfig::default()).unwrap();
    let ids: Vec<u64> = (0..2)
        .map(|i| durable.register_spec(&spec(i)).unwrap())
        .collect();
    durable.run_all().unwrap();
    let history = |r: &DurableRegistry, id| r.registry().campaign(id).unwrap().storage().to_json();
    for (index, &id) in ids.iter().enumerate() {
        assert_is_fixture("durable", index, &history(&durable, id));
    }
    drop(durable);
    let (reopened, _) = DurableRegistry::open_in(&wal, 2, WalConfig::default()).unwrap();
    for (index, &id) in ids.iter().enumerate() {
        assert_is_fixture("reopened", index, &history(&reopened, id));
    }
}
