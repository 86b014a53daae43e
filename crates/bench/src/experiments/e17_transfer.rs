//! E17 (slide 67): knowledge transfer — warm-start a campaign from a
//! similar workload's history, and import crash knowledge everywhere
//! ("if it crashes the system, probably always does").

use crate::experiments::{best_of, run_campaign, run_on_target};
use crate::report::{f, Report};
use autotune::{transfer_observations, Objective, Target, TransferPolicy, Trial};
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::{DbmsSim, Environment, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn target_with(workload: Workload) -> Target {
    Target::simulated(
        Box::new(DbmsSim::new()),
        workload,
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    )
}

/// Runs the experiment.
pub fn run() -> Report {
    // Donor: TPC-C at 2k tps. Recipient: TPC-C at 3k tps (similar).
    let donor_target = target_with(Workload::tpcc(2_000.0));
    let mut donor_trials = Vec::new();
    {
        let mut opt = BayesianOptimizer::gp(donor_target.space().clone());
        let mut rng = StdRng::seed_from_u64(1);
        run_campaign(&mut opt, 50, &mut rng, |cfg, rng| {
            let e = donor_target.evaluate(cfg, rng);
            donor_trials.push(if e.cost.is_nan() {
                Trial::crashed(cfg.clone(), e.result.elapsed_s)
            } else {
                Trial::complete(cfg.clone(), e.cost, e.result.elapsed_s)
            });
            e.cost
        });
    }
    let n_donor_crashes = donor_trials
        .iter()
        .filter(|t| t.status == autotune::TrialStatus::Crashed)
        .count();

    // Recipient campaigns, warm vs cold, averaged over seeds.
    let budget = 12;
    let policy = TransferPolicy {
        good_fraction: 1.0,
        ..Default::default()
    };
    let run = |warm: bool, seed: u64| -> (f64, usize) {
        let target = target_with(Workload::tpcc(3_000.0));
        let mut opt = BayesianOptimizer::gp(target.space().clone());
        if warm {
            opt.warm_start(&transfer_observations(&donor_trials, &policy, true));
        }
        let costs = run_on_target(&mut opt, &target, budget, seed);
        let crashes = costs.iter().filter(|c| !c.is_finite()).count();
        (best_of(&costs), crashes)
    };
    let n_seeds = 6;
    let mut warm_best = Vec::new();
    let mut cold_best = Vec::new();
    let mut warm_crashes = 0;
    let mut cold_crashes = 0;
    for seed in 0..n_seeds {
        let (wb, wc) = run(true, 300 + seed);
        let (cb, cc) = run(false, 300 + seed);
        warm_best.push(wb);
        cold_best.push(cb);
        warm_crashes += wc;
        cold_crashes += cc;
    }
    let warm_mean = autotune_linalg::stats::mean(&warm_best);
    let cold_mean = autotune_linalg::stats::mean(&cold_best);

    let rows = vec![
        vec![
            "cold start".into(),
            format!("{} ms", f(cold_mean, 4)),
            cold_crashes.to_string(),
        ],
        vec![
            "warm start".into(),
            format!("{} ms", f(warm_mean, 4)),
            warm_crashes.to_string(),
        ],
        vec![
            "donor history".into(),
            format!("50 trials"),
            format!("{n_donor_crashes} crashes"),
        ],
    ];
    let shape_holds = warm_mean <= cold_mean && warm_crashes <= cold_crashes;
    Report {
        id: "E17",
        title: "Knowledge transfer & crash penalties (slide 67)",
        headers: vec!["campaign", format!("best @{budget} (mean over {n_seeds} seeds)").leak(), "crashes"],
        rows,
        paper_claim: "warm start cuts trials-to-quality; imported crash scores keep the tuner out of the OOM region",
        measured: format!(
            "warm {} vs cold {} ms; crashes {} vs {}",
            f(warm_mean, 4),
            f(cold_mean, 4),
            warm_crashes,
            cold_crashes
        ),
        shape_holds,
    }
}
