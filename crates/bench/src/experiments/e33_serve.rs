//! E33 (ROADMAP item 1, tuning-as-a-service): one process serves a fleet
//! of campaigns concurrently without perturbing any of them.
//!
//! Three claims, matching the serving layer's contract:
//!
//! * **Isolation** — N = 256 campaigns (mixed systems, workloads,
//!   schedules, optimizers, noise fleets and fault plans) interleaved
//!   through a [`CampaignRegistry`] produce trial histories byte-identical
//!   to running each campaign alone.
//! * **Durability** — snapshotting any campaign mid-flight (at an
//!   arbitrary scheduling round k) and replaying the snapshot into a
//!   fresh build continues to exactly the standalone history.
//! * **Throughput** — the registry's deterministic virtual-pool model
//!   shows ≥ 3× serving speedup from 1 → 8 workers on this fleet (the
//!   host's real core count is irrelevant: the model assigns measured
//!   benchmark seconds to virtual workers greedily, so the number is
//!   reproducible anywhere).

use crate::report::{f, Report};
use autotune::{Campaign, Objective, SchedulePolicy};
use autotune_serve::{CampaignRegistry, CampaignSpec, NoiseSpec, OptimizerKind, SystemKind};
use autotune_sim::{Environment, FaultPlan, NoiseConfig, Workload};

/// Fleet size for the headline experiment.
const FLEET_N: usize = 256;

/// A deterministic mixed fleet: four simulated systems, three schedule
/// policies, random + BO optimizers, and a third of the campaigns on
/// noisy machine fleets with fault injection.
pub(crate) fn fleet_specs(n: usize) -> Vec<CampaignSpec> {
    (0..n)
        .map(|i| {
            let mut s = CampaignSpec::minimal(
                format!("tenant-{i}"),
                match i % 4 {
                    0 => SystemKind::Redis,
                    1 => SystemKind::Dbms,
                    2 => SystemKind::Spark,
                    _ => SystemKind::Nginx,
                },
                5 + i % 4,
                10_000 + i as u64,
            );
            s.workload = match i % 4 {
                0 => Workload::kv_cache(60_000.0),
                1 => Workload::tpcc(1_500.0),
                2 => Workload::tpch(8.0),
                _ => Workload::ycsb_b(40_000.0),
            };
            s.environment = Environment::small();
            s.objective = if i % 2 == 0 {
                Objective::MinimizeLatencyAvg
            } else {
                Objective::MinimizeLatencyP99
            };
            s.policy = match i % 3 {
                0 => SchedulePolicy::Sequential,
                1 => SchedulePolicy::SyncBatch { k: 3 },
                _ => SchedulePolicy::AsyncSlots { k: 2 },
            };
            s.optimizer = if i % 16 == 0 {
                OptimizerKind::BoGp
            } else {
                OptimizerKind::Random
            };
            if i % 3 == 2 {
                s.noise = Some(NoiseSpec {
                    n_machines: 3,
                    config: NoiseConfig::default(),
                    seed: 900 + i as u64,
                });
                s.faults = Some(FaultPlan::new(4_000 + i as u64));
            }
            s
        })
        .collect()
}

fn standalone_histories(specs: &[CampaignSpec]) -> Vec<String> {
    specs
        .iter()
        .map(|s| {
            let mut c = s.build();
            c.run();
            c.storage().to_json()
        })
        .collect()
}

/// Drives a fresh fleet to completion on `workers` virtual workers;
/// returns (per-campaign histories, serial seconds, makespan seconds).
fn drive_fleet(specs: &[CampaignSpec], workers: usize) -> (Vec<String>, f64, f64) {
    let mut reg = CampaignRegistry::new(workers);
    let ids: Vec<u64> = specs.iter().map(|s| reg.register_spec(s)).collect();
    reg.run_all().expect("fleet drive failed");
    let histories = ids
        .iter()
        .map(|id| {
            reg.campaign(*id)
                .expect("registered id")
                .storage()
                .to_json()
        })
        .collect();
    let fs = reg.fleet_stats();
    (histories, fs.virtual_serial_s, fs.virtual_makespan_s)
}

/// Snapshot every sampled campaign after `k` rounds, resume each into a
/// fresh build, run to completion, and count byte-identical histories.
fn resume_matches(
    specs: &[CampaignSpec],
    want: &[String],
    k: usize,
    sample_stride: usize,
) -> (usize, usize) {
    let mut reg = CampaignRegistry::new(4);
    let ids: Vec<u64> = specs.iter().map(|s| reg.register_spec(s)).collect();
    for _ in 0..k {
        if reg.n_active() == 0 {
            break;
        }
        reg.step_round().expect("round failed");
    }
    let mut checked = 0;
    let mut matched = 0;
    for (i, id) in ids.iter().enumerate().step_by(sample_stride) {
        let snap = reg.snapshot(*id).expect("snapshot at round boundary");
        let mut resumed =
            Campaign::resume(&snap, specs[i].build()).expect("resume into fresh build");
        resumed.run();
        checked += 1;
        if resumed.storage().to_json() == want[i] {
            matched += 1;
        }
    }
    (checked, matched)
}

/// Runs the experiment.
pub fn run() -> Report {
    let specs = fleet_specs(FLEET_N);
    let want = standalone_histories(&specs);

    let (served, _, makespan_8) = drive_fleet(&specs, 8);
    let identical = served.iter().zip(&want).filter(|(a, b)| a == b).count();

    let (_, serial_1, makespan_1) = drive_fleet(&specs, 1);
    let speedup = makespan_1 / makespan_8.max(1e-9);

    let (checked_a, matched_a) = resume_matches(&specs, &want, 2, 17);
    let (checked_b, matched_b) = resume_matches(&specs, &want, 6, 29);
    let checked = checked_a + checked_b;
    let matched = matched_a + matched_b;

    let rows = vec![
        vec![
            "interleaved == standalone".into(),
            format!("{identical}/{}", FLEET_N),
            "byte-identical trial histories".into(),
        ],
        vec![
            "snapshot/resume at k=2,6 rounds".into(),
            format!("{matched}/{checked}"),
            "resumed == straight-through".into(),
        ],
        vec![
            "virtual makespan, 1 worker".into(),
            format!("{} s", f(makespan_1, 0)),
            format!("serial work {} s", f(serial_1, 0)),
        ],
        vec![
            "virtual makespan, 8 workers".into(),
            format!("{} s", f(makespan_8, 0)),
            format!("{speedup:.2}x speedup"),
        ],
        vec![
            "serving rate at 8 workers".into(),
            format!(
                "{:.2} campaigns/ks",
                FLEET_N as f64 * 1_000.0 / makespan_8.max(1e-9)
            ),
            String::new(),
        ],
    ];
    let shape_holds = identical == FLEET_N && matched == checked && speedup >= 3.0;
    Report {
        id: "E33",
        title: "Serving a campaign fleet (ROADMAP: tuning-as-a-service)",
        headers: vec!["check", "result", "detail"],
        rows,
        paper_claim: "a tuning service multiplexes many campaigns without changing any campaign's outcome",
        measured: format!(
            "{identical}/{} interleaved histories byte-identical, {matched}/{checked} resumes exact, {speedup:.2}x virtual speedup 1→8 workers",
            FLEET_N
        ),
        shape_holds,
    }
}
