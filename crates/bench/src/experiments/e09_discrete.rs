//! E9 (slide 51): discrete/hybrid optimization — the `innodb_flush_method`
//! categorical. Compares one-hot GP-BO, SMAC's forest, and a pure
//! multi-armed bandit over the six flush methods (all other knobs fixed at
//! a tuned base).

use crate::experiments::run_campaign;
use crate::report::{f, Report};
use autotune::{Objective, Target};
use autotune_optimizer::bandit::{Bandit, BanditPolicy};
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use autotune_sim::{DbmsSim, Environment, Workload};
use autotune_space::{Param, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;

const METHODS: [&str; 6] = [
    "fsync",
    "O_DSYNC",
    "O_DIRECT",
    "O_DIRECT_NO_FSYNC",
    "littlesync",
    "nosync",
];

/// Write-heavy target exposing only the flush knob + one continuous knob.
fn flush_target() -> Target {
    Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::ycsb_a(2_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    )
}

/// Scores one flush method with everything else fixed.
fn eval_method(target: &Target, method: &str, rng: &mut StdRng) -> f64 {
    let cfg = target
        .space()
        .default_config()
        .with("buffer_pool_gb", 8.0)
        .with("flush_method", method);
    target.evaluate(&cfg, rng).cost
}

/// Runs the experiment.
pub fn run() -> Report {
    let target = flush_target();
    let mut rng = StdRng::seed_from_u64(0);
    // Ground truth ranking by brute force (20 repeats each).
    let mut truth: Vec<(&str, f64)> = METHODS
        .iter()
        .map(|m| {
            let mean = (0..20)
                .map(|_| eval_method(&target, m, &mut rng))
                .sum::<f64>()
                / 20.0;
            (*m, mean)
        })
        .collect();
    truth.sort_by(|a, b| a.1.total_cmp(&b.1));
    // "nosync" is unsafe-but-fastest; the *durable* optimum is the best
    // of the safe methods. We let optimizers find the global optimum.
    let true_best = truth[0].0;

    // Bandit over the categorical.
    let budget = 36;
    let mut bandit = Bandit::new(METHODS.len(), BanditPolicy::Ucb { c: 1.0 });
    let mut rng_b = StdRng::seed_from_u64(1);
    for _ in 0..budget {
        let arm = bandit.select(&mut rng_b);
        let cost = eval_method(&target, METHODS[arm], &mut rng_b);
        bandit.update(arm, cost);
    }
    let bandit_pick = METHODS[bandit.greedy_arm()];

    // One-hot GP and SMAC over a 2-knob hybrid space.
    let space = Space::builder()
        .add(Param::float("buffer_pool_gb", 4.0, 12.0))
        .add(Param::categorical("flush_method", &METHODS))
        .build()
        .expect("valid space");
    let run_opt = |mut opt: Box<dyn Optimizer>, seed: u64| -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        run_campaign(opt.as_mut(), budget, &mut rng, |c, rng| {
            let full = target
                .space()
                .default_config()
                .with(
                    "buffer_pool_gb",
                    c.get_f64("buffer_pool_gb").expect("knob present"),
                )
                .with(
                    "flush_method",
                    c.get_str("flush_method").expect("knob present"),
                );
            target.evaluate(&full, rng).cost
        });
        opt.best()
            .expect("budget > 0")
            .config
            .get_str("flush_method")
            .expect("categorical present")
            .to_string()
    };
    let gp_pick = run_opt(Box::new(BayesianOptimizer::gp(space.clone())), 2);
    let smac_pick = run_opt(Box::new(BayesianOptimizer::smac(space)), 3);

    let rows: Vec<Vec<String>> = truth
        .iter()
        .map(|(m, cost)| vec![m.to_string(), format!("{} ms", f(*cost, 4))])
        .chain([
            vec!["bandit picked".into(), bandit_pick.to_string()],
            vec!["gp_onehot picked".into(), gp_pick.clone()],
            vec!["smac picked".into(), smac_pick.clone()],
        ])
        .collect();

    // Accept the true best or the runner-up (they are close).
    let acceptable = [truth[0].0, truth[1].0];
    let ok = |pick: &str| acceptable.contains(&pick);
    let shape_holds = ok(bandit_pick) && ok(&gp_pick) && ok(&smac_pick);
    Report {
        id: "E9",
        title: "Discrete/hybrid optimization: innodb_flush_method (slide 51)",
        headers: vec!["method / optimizer", "mean latency / pick"],
        rows,
        paper_claim: "bandits and alternative surrogates both handle categorical knobs",
        measured: format!(
            "true best '{true_best}'; picks: bandit '{bandit_pick}', GP '{gp_pick}', SMAC '{smac_pick}'"
        ),
        shape_holds,
    }
}
