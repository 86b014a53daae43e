//! E26 (slide 92): synthetic benchmark generation — match a production
//! workload's telemetry with a mixture of base benchmarks (Stitcher
//! style), tune offline against the synthetic mixture, and check the tuned
//! config transfers back to "production".

use crate::experiments::run_bo_policy;
use crate::report::{f, Report};
use autotune::executor::SchedulePolicy;
use autotune::{Objective, Target};
use autotune_sim::{DbmsSim, Environment, SimSystem, Workload};
use autotune_wid::{synthesize_mixture, Fingerprint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Average fingerprint of a workload over several runs.
fn fingerprint_of(sim: &DbmsSim, w: &Workload, env: &Environment, rng: &mut StdRng) -> Fingerprint {
    let prints: Vec<Fingerprint> = (0..6)
        .map(|_| {
            let r = sim.run_trial(&sim.space().default_config(), w, env, rng);
            Fingerprint::from_telemetry(&r.telemetry)
        })
        .collect();
    Fingerprint::mean_of(&prints).expect("non-empty")
}

/// Runs the experiment.
pub fn run() -> Report {
    let env = Environment::medium();
    let sim = DbmsSim::new();
    let mut rng = StdRng::seed_from_u64(1);

    // "Production": a 60/40 blend of read-only and update-heavy traffic
    // (we can observe its telemetry but must not replay it).
    let production = Workload {
        read_fraction: 0.8, // between ycsb-c (1.0) and ycsb-a (0.5)
        ..Workload::ycsb_a(2_000.0)
    };
    let prod_fp = fingerprint_of(&sim, &production, &env, &mut rng);

    // Base benchmark dictionary.
    let basis_workloads = [
        Workload::ycsb_c(2_000.0),
        Workload::ycsb_a(2_000.0),
        Workload::tpch(2.0),
    ];
    let basis_fps: Vec<Fingerprint> = basis_workloads
        .iter()
        .map(|w| fingerprint_of(&sim, w, &env, &mut rng))
        .collect();

    let (weights, residual) = synthesize_mixture(&basis_fps, &prod_fp).expect("basis non-empty");

    // Tune against the synthetic mixture: evaluate a config as the
    // weights-blend of per-benchmark latencies.
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        production.clone(),
        env.clone(),
        Objective::MinimizeLatencyAvg,
    );
    let space = target.space().clone();
    let sim2 = DbmsSim::new();
    let env2 = env.clone();
    let weights2 = weights.clone();
    let basis2 = basis_workloads.clone();
    let synth_target =
        Target::black_box(space.clone(), Objective::MinimizeLatencyAvg, move |cfg| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut total = 0.0;
            for (w, bw) in weights2.iter().zip(&basis2) {
                if *w < 1e-3 {
                    continue;
                }
                let r = sim2.run_trial(cfg, bw, &env2, &mut rng);
                if r.crashed {
                    return f64::NAN;
                }
                total += w * r.latency_avg_ms;
            }
            total
        });
    let (_, synth_best) = run_bo_policy(&synth_target, SchedulePolicy::Sequential, 30, 3);

    // Deploy the synthetic-tuned config on real production traffic.
    let mut rng2 = StdRng::seed_from_u64(9);
    let deployed = (0..8)
        .map(|_| target.evaluate(&synth_best.config, &mut rng2).cost)
        .sum::<f64>()
        / 8.0;
    let default_cost = (0..8)
        .map(|_| target.evaluate(&space.default_config(), &mut rng2).cost)
        .sum::<f64>()
        / 8.0;
    // Oracle: tune directly on production (privacy-violating upper bound).
    let oracle_target = Target::simulated(
        Box::new(DbmsSim::new()),
        production,
        env,
        Objective::MinimizeLatencyAvg,
    );
    let (_, oracle_best) = run_bo_policy(&oracle_target, SchedulePolicy::Sequential, 30, 3);

    let rows = vec![
        vec![
            "mixture weights".into(),
            format!(
                "ycsb-c {:.2} / ycsb-a {:.2} / tpc-h {:.2}",
                weights[0], weights[1], weights[2]
            ),
        ],
        vec!["fit residual".into(), f(residual, 3)],
        vec![
            "default on production".into(),
            format!("{} ms", f(default_cost, 4)),
        ],
        vec![
            "synthetic-tuned on production".into(),
            format!("{} ms", f(deployed, 4)),
        ],
        vec![
            "oracle (tuned on production)".into(),
            format!("{} ms", f(oracle_best.cost, 4)),
        ],
    ];
    // The mixture should be dominated by the two YCSB components, and the
    // synthetic-tuned config should recover most of the oracle's win.
    let ycsb_mass = weights[0] + weights[1];
    let win_recovered = (default_cost - deployed) / (default_cost - oracle_best.cost).max(1e-9);
    let shape_holds = ycsb_mass > 0.7 && residual < 1.0 && win_recovered > 0.6;
    Report {
        id: "E26",
        title: "Synthetic benchmark generation (slide 92)",
        headers: vec!["quantity", "value"],
        rows,
        paper_claim:
            "a telemetry-matched benchmark mixture lets offline tuning transfer to production",
        measured: format!(
            "YCSB mass {:.2}, residual {}, {:.0}% of oracle win recovered",
            ycsb_mass,
            f(residual, 3),
            100.0 * win_recovered
        ),
        shape_holds,
    }
}
