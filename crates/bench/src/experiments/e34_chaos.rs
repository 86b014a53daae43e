//! E34 (ROADMAP item 1, crash-safe serving): the durable serving layer
//! survives process crashes at any byte of its log, worker panics, and
//! torn WAL tails without changing any campaign's outcome, and sheds
//! overload without perturbing accepted campaigns.
//!
//! Four claims, matching the durability layer's contract:
//!
//! * **Crash recovery** — a 128-campaign mixed fleet driven through a
//!   [`DurableRegistry`] is repeatedly killed wherever a seeded byte
//!   offset falls in its log, and reopened from what a killed process
//!   leaves there ([`MemStorage::crash_after`]); every campaign's final
//!   history is byte-identical to its standalone run.
//! * **Torn tails** — a kill inside a record leaves it half-written;
//!   recovery truncates it (counted in bytes) instead of failing.
//! * **Worker panics** — panics injected inside the measurement pool
//!   are caught at the `step_round` boundary and recovered by rebuild
//!   from the WAL, again byte-identically.
//! * **Overload** — with admission control bounding the fleet, excess
//!   registrations are shed with a typed `Overloaded` answer while
//!   every accepted campaign still matches its standalone history.

use crate::experiments::e33_serve::{fleet_specs, standalone_histories};
use crate::report::Report;
use autotune_serve::{
    AdmissionConfig, CampaignRegistry, CampaignSpec, ChaosPlan, DurableRegistry, MemStorage,
    ServeError, WalConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fleet size for the chaos-recovery arm.
const CHAOS_N: usize = 128;

/// The mean distance in log bytes between crashes.
const MEAN_GAP: u64 = 250_000;

/// Outcome of one chaotic drive-to-completion.
struct ChaosOutcome {
    /// Final per-campaign histories, in spec order.
    histories: Vec<String>,
    /// Process crashes: the log cut and reopened.
    crashes: u64,
    /// Worker-panic recoveries caught at the pool boundary.
    panic_recoveries: u64,
    /// Torn-tail bytes truncated across all reopens.
    torn_bytes: u64,
    /// Total WAL appends acknowledged.
    wal_appends: u64,
}

/// Drives `specs` through a durable registry one call at a time until
/// every campaign completes. Once the log passes the next crash offset,
/// drawn 1 to `2 * mean_gap` bytes past where the last reopen left it,
/// the process is killed there: the handle is dropped, the log cut as a
/// kill at that byte leaves it ([`MemStorage::crash_after`]) and the
/// fleet reopened from it, the registrations it lost retried. Worker panics roll from a plan
/// re-seeded each incarnation (the same plan would re-roll the same
/// panics — a real restart is a new process).
fn chaos_drive(specs: &[CampaignSpec], seed: u64, mean_gap: u64, p_panic: f64) -> ChaosOutcome {
    let wal = MemStorage::default();
    let config = WalConfig::default();
    let plan =
        |incarnation| ChaosPlan::new(seed.wrapping_add(incarnation)).with_worker_panics(p_panic);
    let mut durable = DurableRegistry::create_in(&wal, 8, config).expect("create durable registry");
    durable.set_chaos(plan(0));
    let mut gaps = StdRng::seed_from_u64(seed);
    let mut kill_at = gaps.gen_range(1..=2 * mean_gap);
    // Bytes appended that the log no longer holds.
    let mut lost = 0;
    let (mut crashes, mut panic_recoveries, mut torn_bytes) = (0, 0, 0);
    loop {
        let len = wal.appended_bytes() - lost;
        if len > kill_at {
            drop(durable);
            wal.crash_after(kill_at);
            crashes += 1;
            assert!(crashes < 10_000, "chaos drive failed to converge");
            let (reopened, report) =
                DurableRegistry::open_in(&wal, 8, config).expect("reopen after crash");
            durable = reopened;
            durable.set_chaos(plan(crashes));
            torn_bytes += report.truncated_bytes;
            lost += len - kill_at + report.truncated_bytes;
            kill_at = kill_at - report.truncated_bytes + gaps.gen_range(1..=2 * mean_gap);
        }
        // Spec `i` registers as id `i`, so the registry's length is the
        // next spec to register.
        if let Some(s) = specs.get(durable.registry().len()) {
            durable.register_spec(s).expect("register");
            continue;
        }
        if !durable.registry().has_runnable() {
            break;
        }
        if durable.step_round().expect("round") {
            panic_recoveries += 1;
        }
    }
    let registry = durable.registry();
    let history = |id| {
        registry
            .campaign(id)
            .expect("registered id")
            .storage()
            .to_json()
    };
    ChaosOutcome {
        histories: (0..specs.len() as u64).map(history).collect(),
        crashes,
        panic_recoveries,
        torn_bytes,
        wal_appends: registry.fleet_stats().wal_appends,
    }
}

/// Outcome of the overload arm.
struct OverloadOutcome {
    /// Registrations offered.
    offered: usize,
    /// Registrations accepted (ran to completion).
    accepted: usize,
    /// Registrations shed with `Overloaded`.
    shed: usize,
    /// Accepted campaigns whose history matches standalone.
    identical: usize,
}

/// Offers `specs` to a registry bounded by `admission`; sheds the
/// excess and verifies the accepted campaigns stay byte-deterministic.
fn overload_drive(
    specs: &[CampaignSpec],
    want: &[String],
    admission: AdmissionConfig,
) -> OverloadOutcome {
    let mut reg = CampaignRegistry::new(8);
    reg.set_admission(admission);
    let mut accepted_ids = Vec::new();
    let mut shed = 0usize;
    for (i, s) in specs.iter().enumerate() {
        match reg.admit_spec(s, Some(i as u64)) {
            Ok(id) => accepted_ids.push((i, id)),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    reg.run_all().expect("overloaded fleet drive failed");
    let identical = accepted_ids
        .iter()
        .filter(|(i, id)| {
            reg.campaign(*id)
                .map(|c| c.storage().to_json() == want[*i])
                .unwrap_or(false)
        })
        .count();
    OverloadOutcome {
        offered: specs.len(),
        accepted: accepted_ids.len(),
        shed,
        identical,
    }
}

/// Runs the experiment.
pub fn run() -> Report {
    let specs = fleet_specs(CHAOS_N);
    let want = standalone_histories(&specs);

    // Two chaos seeds: crashes + panics at rates that fire repeatedly
    // over a ~850-append drive.
    let a = chaos_drive(&specs, 0xE34, MEAN_GAP, 0.004);
    let b = chaos_drive(&specs, 0x5EED, MEAN_GAP, 0.004);
    let identical = |got: &[String]| got.iter().zip(&want).filter(|(g, w)| g == w).count();
    let identical_a = identical(&a.histories);
    let identical_b = identical(&b.histories);

    let overload = overload_drive(
        &specs,
        &want,
        AdmissionConfig {
            max_active: 24,
            max_pending: 40,
        },
    );

    let rows = vec![
        vec![
            "chaos drive A (seed 0xE34)".into(),
            format!("{identical_a}/{CHAOS_N} identical"),
            format!(
                "{} crashes, {} panic recoveries, {} torn bytes truncated",
                a.crashes, a.panic_recoveries, a.torn_bytes
            ),
        ],
        vec![
            "chaos drive B (seed 0x5EED)".into(),
            format!("{identical_b}/{CHAOS_N} identical"),
            format!(
                "{} crashes, {} panic recoveries, {} torn bytes truncated",
                b.crashes, b.panic_recoveries, b.torn_bytes
            ),
        ],
        vec![
            "WAL appends".into(),
            format!("{} (drive A)", a.wal_appends),
            format!("{} (drive B)", b.wal_appends),
        ],
        vec![
            "overload: 24 active / 40 pending".into(),
            format!(
                "{} accepted, {} shed of {}",
                overload.accepted, overload.shed, overload.offered
            ),
            format!(
                "{}/{} accepted histories identical",
                overload.identical, overload.accepted
            ),
        ],
    ];
    let chaos_fired = a.crashes + b.crashes > 0
        && a.panic_recoveries + b.panic_recoveries > 0
        && a.torn_bytes + b.torn_bytes > 0;
    let shape_holds = identical_a == CHAOS_N
        && identical_b == CHAOS_N
        && chaos_fired
        && overload.shed > 0
        && overload.identical == overload.accepted;
    Report {
        id: "E34",
        title: "Crash-safe serving under chaos (ROADMAP: robust tuning-as-a-service)",
        headers: vec!["check", "result", "detail"],
        rows,
        paper_claim: "a production tuning service must survive crashes and overload without corrupting campaign state",
        measured: format!(
            "{identical_a}+{identical_b}/{} recovered histories byte-identical across {} crashes ({} torn bytes), {} shed under overload with {}/{} accepted identical",
            2 * CHAOS_N,
            a.crashes + b.crashes,
            a.torn_bytes + b.torn_bytes,
            overload.shed,
            overload.identical,
            overload.accepted
        ),
        shape_holds,
    }
}
