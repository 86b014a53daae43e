//! Ablation studies of the framework's own design choices — the
//! engineering decisions `DESIGN.md` calls out, each isolated and
//! measured. These are not tutorial claims; they justify defaults.

use crate::experiments::{mean_curve, redis_target, run_campaign, run_on_target};
use crate::report::{f, Report};
use autotune::{transfer_observations, TransferPolicy, Trial};
use autotune_optimizer::{BayesianOptimizer, BoConfig, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A1: BO random-initialization budget. Too few random points starve the
/// surrogate; too many waste model-driven trials.
fn a01_bo_init() -> Report {
    let budget = 24;
    let seeds = 0..12u64;
    let mut rows = Vec::new();
    let mut finals = Vec::new();
    for &n_init in &[2usize, 8, 16] {
        let curve = mean_curve(
            || {
                Box::new(BayesianOptimizer::new(
                    redis_target().space().clone(),
                    BoConfig {
                        n_init,
                        ..Default::default()
                    },
                ))
            },
            redis_target,
            budget,
            seeds.clone(),
        );
        rows.push(vec![
            format!("n_init = {n_init}"),
            format!("{} ms", f(curve[11], 3)),
            format!("{} ms", f(curve[budget - 1], 3)),
        ]);
        finals.push(curve[budget - 1]);
    }
    // The default (8) should be at least as good as both extremes.
    let shape_holds = finals[1] <= finals[0] * 1.05 && finals[1] <= finals[2] * 1.05;
    Report {
        id: "A1",
        title: "Ablation: BO initial random design size",
        headers: vec!["setting", "best@12", "best@24"],
        rows,
        paper_claim:
            "a moderate random init (default 8) balances surrogate quality vs model-driven budget",
        measured: format!(
            "final P95 at n_init 2/8/16: {} / {} / {} ms",
            f(finals[0], 3),
            f(finals[1], 3),
            f(finals[2], 3)
        ),
        shape_holds,
    }
}

/// A2: constant liar vs naive batch suggestion — does the liar actually
/// buy batch diversity?
fn a02_constant_liar() -> Report {
    let target = redis_target();
    let min_batch_distance = |use_liar: bool, seed: u64| -> f64 {
        let mut opt = BayesianOptimizer::gp(target.space().clone());
        let mut rng = StdRng::seed_from_u64(seed);
        run_campaign(&mut opt, 12, &mut rng, |c, rng| {
            target.evaluate(c, rng).cost
        });
        let batch = if use_liar {
            opt.suggest_batch(6, &mut rng)
        } else {
            // Naive: ask for 6 suggestions without telling the model
            // they are in flight (the model state never changes).
            (0..6).map(|_| opt.suggest(&mut rng)).collect::<Vec<_>>()
        };
        let mut min_d = f64::INFINITY;
        for i in 0..batch.len() {
            for j in (i + 1)..batch.len() {
                let a = target.space().encode_unit(&batch[i]).expect("encodes");
                let b = target.space().encode_unit(&batch[j]).expect("encodes");
                min_d = min_d.min(autotune_linalg::squared_distance(&a, &b).sqrt());
            }
        }
        min_d
    };
    let n_seeds = 6;
    let liar: f64 = (0..n_seeds)
        .map(|s| min_batch_distance(true, 900 + s))
        .sum::<f64>()
        / n_seeds as f64;
    let naive: f64 = (0..n_seeds)
        .map(|s| min_batch_distance(false, 900 + s))
        .sum::<f64>()
        / n_seeds as f64;
    let rows = vec![
        vec!["constant liar".into(), f(liar, 4)],
        vec!["naive repeat-suggest".into(), f(naive, 4)],
    ];
    let shape_holds = liar > naive * 1.5;
    Report {
        id: "A2",
        title: "Ablation: constant-liar batch diversity",
        headers: vec!["batch strategy", "mean min pairwise distance (k=6)"],
        rows,
        paper_claim:
            "pinning pseudo-observations at in-flight points prevents duplicate batch members",
        measured: format!(
            "min distance {} (liar) vs {} (naive)",
            f(liar, 4),
            f(naive, 4)
        ),
        shape_holds,
    }
}

/// A3: crash-penalty transfer on/off — does importing crash knowledge
/// actually keep the recipient out of the OOM region?
fn a03_crash_transfer() -> Report {
    use autotune::{Objective, Target};
    use autotune_sim::{DbmsSim, Environment, Workload};
    let make_target = || {
        Target::simulated(
            Box::new(DbmsSim::new()),
            Workload::tpcc(500.0),
            Environment::medium(),
            Objective::MinimizeLatencyAvg,
        )
    };
    // Donor history with crashes.
    let donor = make_target();
    let mut donor_trials = Vec::new();
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..50 {
        let cfg = donor.space().sample(&mut rng);
        let e = donor.evaluate(&cfg, &mut rng);
        donor_trials.push(if e.cost.is_nan() {
            Trial::crashed(cfg, e.result.elapsed_s)
        } else {
            Trial::complete(cfg, e.cost, e.result.elapsed_s)
        });
    }
    let run = |transfer_crashes: bool, seed: u64| -> usize {
        let policy = TransferPolicy {
            good_fraction: 0.3,
            always_transfer_crashes: transfer_crashes,
        };
        let target = make_target();
        let mut opt = BayesianOptimizer::gp(target.space().clone());
        if transfer_crashes {
            opt.warm_start(&transfer_observations(&donor_trials, &policy, false));
        }
        let costs = run_on_target(&mut opt, &target, 25, seed);
        costs.iter().filter(|c| c.is_nan()).count()
    };
    let n_seeds = 6;
    let with: usize = (0..n_seeds).map(|s| run(true, 910 + s)).sum();
    let without: usize = (0..n_seeds).map(|s| run(false, 910 + s)).sum();
    let rows = vec![
        vec![
            "crash transfer on".into(),
            format!("{with} crashes / {n_seeds} campaigns"),
        ],
        vec![
            "crash transfer off".into(),
            format!("{without} crashes / {n_seeds} campaigns"),
        ],
    ];
    let shape_holds = with <= without;
    Report {
        id: "A3",
        title: "Ablation: crash-penalty knowledge transfer",
        headers: vec!["policy", "recipient crashes"],
        rows,
        paper_claim: "imported crash scores steer the recipient away from the OOM region",
        measured: format!("{with} vs {without} crashes across {n_seeds} campaigns"),
        shape_holds,
    }
}

/// A4: GP hyperparameter refitting cadence — is the marginal-likelihood
/// refit worth its cost?
fn a04_gp_refit() -> Report {
    let budget = 24;
    let seeds = 0..12u64;
    let mut rows = Vec::new();
    let mut finals = Vec::new();
    for &refit in &[0usize, 5] {
        let curve = mean_curve(
            || {
                Box::new(BayesianOptimizer::new(
                    redis_target().space().clone(),
                    BoConfig {
                        refit_every: refit,
                        ..Default::default()
                    },
                ))
            },
            redis_target,
            budget,
            seeds.clone(),
        );
        rows.push(vec![
            if refit == 0 {
                "no refit".into()
            } else {
                format!("refit every {refit}")
            },
            format!("{} ms", f(curve[budget - 1], 3)),
        ]);
        finals.push(curve[budget - 1]);
    }
    let shape_holds = finals[1] <= finals[0] * 1.05;
    Report {
        id: "A4",
        title: "Ablation: GP hyperparameter refitting",
        headers: vec!["setting", "best@24"],
        rows,
        paper_claim: "LML-based lengthscale refitting should not hurt and usually helps",
        measured: format!(
            "final P95 {} (refit) vs {} (fixed kernel)",
            f(finals[1], 3),
            f(finals[0], 3)
        ),
        shape_holds,
    }
}

/// Runs every ablation and merges them into one report for the CLI.
pub fn run() -> Report {
    let reports = [
        a01_bo_init(),
        a02_constant_liar(),
        a03_crash_transfer(),
        a04_gp_refit(),
    ];
    let mut rows = Vec::new();
    let mut all_hold = true;
    for r in &reports {
        rows.push(vec![
            r.id.to_string(),
            r.title.trim_start_matches("Ablation: ").to_string(),
            if r.shape_holds {
                "HOLDS".into()
            } else {
                "FAILS".into()
            },
            r.measured.clone(),
        ]);
        all_hold &= r.shape_holds;
    }
    Report {
        id: "A1-A4",
        title: "Ablations of framework design choices",
        headers: vec!["id", "choice", "verdict", "measured"],
        rows,
        paper_claim: "each default is justified by an isolated measurement",
        measured: format!(
            "{}/{} ablations support their default",
            reports.iter().filter(|r| r.shape_holds).count(),
            reports.len()
        ),
        shape_holds: all_hold,
    }
}
