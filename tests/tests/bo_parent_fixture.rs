//! Pins the dense-GP Bayesian-optimisation histories to files an earlier
//! build wrote, not to the current build run twice.
//!
//! Every other BO check compares the code with itself (standalone vs
//! served vs reopened), which a change that moves every history at once
//! passes. Here two campaigns shaped like the benchmark's `tune_bo` (GP
//! BO over Redis, `SyncBatch { k: 2 }`, seed 1, campaigns 0 and 1) run at
//! budget 48, and each `storage().to_json()` must equal byte for byte the
//! fixture in `tests/fixtures/`. The fixtures were written by the binary
//! of commit c5296fb, before the GP's chained kernels, and are never
//! regenerated: a change that means to move these histories must say so
//! and replace them by hand.

use autotune::SchedulePolicy;
use autotune_serve::{CampaignSpec, OptimizerKind, SystemKind};

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

#[test]
fn bo_histories_match_the_parent_fixtures() {
    for index in 0..2 {
        let mut campaign = spec(index).build();
        campaign.run();
        let got = campaign.storage().to_json();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("fixtures/bo_gp_sync2_budget48_{index}.json"));
        let want = std::fs::read_to_string(&path).expect("committed fixture");
        assert!(
            got == want,
            "campaign {index}: history differs from {} ({} vs {} bytes)",
            path.display(),
            got.len(),
            want.len()
        );
    }
}
