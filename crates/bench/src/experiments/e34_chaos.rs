//! E34 (ROADMAP item 1, crash-safe serving): the durable serving layer
//! survives chaos-injected process crashes, worker panics, and torn WAL
//! tails without changing any campaign's outcome, and sheds overload
//! without perturbing accepted campaigns.
//!
//! Four claims, matching the durability layer's contract:
//!
//! * **Crash recovery** — a 128-campaign mixed fleet driven through a
//!   [`DurableRegistry`] with seeded chaos crashes (pre-append,
//!   mid-append/torn-write, post-append-pre-ack) is repeatedly killed
//!   and reopened from the WAL; every campaign's final history is
//!   byte-identical to its standalone run.
//! * **Torn tails** — mid-append crashes leave half-written records;
//!   recovery truncates them (counted in bytes) instead of failing.
//! * **Worker panics** — panics injected inside the measurement pool
//!   are caught at the `step_round` boundary and recovered by rebuild
//!   from the WAL, again byte-identically.
//! * **Overload** — with admission control bounding the fleet, excess
//!   registrations are shed with a typed `Overloaded` answer while
//!   every accepted campaign still matches its standalone history.

use crate::experiments::e33_serve::{fleet_specs, standalone_histories};
use crate::report::Report;
use autotune_serve::{
    AdmissionConfig, CampaignRegistry, CampaignSpec, ChaosPlan, DurableRegistry, ServeError,
    WalConfig,
};

/// Fleet size for the chaos-recovery arm.
const CHAOS_N: usize = 128;

fn find_by_name(durable: &DurableRegistry, name: &str) -> Option<u64> {
    durable.registry().ids().into_iter().find(|id| {
        durable
            .registry()
            .stats(*id)
            .map(|st| st.name == name)
            .unwrap_or(false)
    })
}

/// Outcome of one chaotic drive-to-completion.
struct ChaosOutcome {
    /// Final per-campaign histories, in spec order.
    histories: Vec<String>,
    /// Simulated process crashes that fired.
    crashes: u64,
    /// Worker-panic recoveries caught at the pool boundary.
    panic_recoveries: u64,
    /// Torn-tail bytes truncated across all reopens.
    torn_bytes: u64,
    /// Total WAL appends acknowledged.
    wal_appends: u64,
}

/// Drives `specs` through a durable registry under chaos until every
/// campaign completes; each simulated crash is followed by recovery
/// from the WAL with a re-derived chaos seed (same plan would re-roll
/// the same crash — a real restart is a new process).
fn chaos_drive(specs: &[CampaignSpec], seed: u64, p_crash: f64, p_panic: f64) -> ChaosOutcome {
    let dir = super::scratch_dir(&format!("e34-chaos-{seed}"));
    let config = WalConfig::default();
    let mut durable = DurableRegistry::create(&dir, 8, config).expect("create durable registry");
    let mut incarnation = 0u64;
    let arm = |d: &mut DurableRegistry, inc: u64| {
        d.set_chaos(
            ChaosPlan::new(seed.wrapping_add(inc))
                .with_crashes(p_crash)
                .with_worker_panics(p_panic),
        );
    };
    arm(&mut durable, incarnation);
    let mut crashes = 0u64;
    let mut panic_recoveries = 0u64;
    let mut torn_bytes = 0u64;
    let mut next_spec = 0usize;
    loop {
        if durable.crashed().is_some() {
            crashes += 1;
            incarnation += 1;
            assert!(
                incarnation < 10_000,
                "chaos drive failed to converge (p_crash too high?)"
            );
            let (reopened, report) =
                DurableRegistry::open(&dir, 8, config).expect("reopen after crash");
            durable = reopened;
            torn_bytes += report.truncated_bytes;
            arm(&mut durable, incarnation);
        }
        if next_spec < specs.len() {
            match durable.register_spec(&specs[next_spec]) {
                Ok(_) => next_spec += 1,
                Err(ServeError::Storage(_)) => continue, // crashed mid-register
                Err(e) => panic!("unexpected registration error: {e}"),
            }
            continue;
        }
        // A crash during registration may have lost in-flight specs;
        // re-register anything not yet durable.
        for s in specs {
            if find_by_name(&durable, &s.name).is_none() && durable.register_spec(s).is_err() {
                break;
            }
        }
        if durable.crashed().is_some() {
            continue;
        }
        if !durable.registry().has_runnable() {
            break;
        }
        match durable.step_round() {
            Ok(true) => panic_recoveries += 1,
            Ok(false) => {}
            Err(_) => {} // crashed; handled at loop top
        }
    }
    let histories = specs
        .iter()
        .map(|s| {
            let id = find_by_name(&durable, &s.name).expect("campaign survived chaos");
            durable
                .registry()
                .campaign(id)
                .expect("registered id")
                .storage()
                .to_json()
        })
        .collect();
    let wal_appends = durable.registry().fleet_stats().wal_appends;
    let _ = std::fs::remove_dir_all(&dir);
    ChaosOutcome {
        histories,
        crashes,
        panic_recoveries,
        torn_bytes,
        wal_appends,
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
    // over a ~3k-append drive.
    let a = chaos_drive(&specs, 0xE34, 0.002, 0.004);
    let b = chaos_drive(&specs, 0x5EED, 0.002, 0.004);
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
