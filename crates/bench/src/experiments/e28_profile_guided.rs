//! E28 (slide 68, the tutorial's flagged opportunity): PGO/FDO-style
//! profile-guided knob prioritization — "run workload, capture stack
//! traces, identify hotspots, prioritize tuning the surrounding knobs".
//!
//! One profiled run of the *default* configuration ranks the knobs; tuning
//! only the profile-guided top-3 is compared against a deliberately
//! unrelated knob subset and against tuning everything, at equal budget.
//! Unlike Lasso/SHAP importance (E18), this needs zero tuning history.

use crate::experiments::{dbms_target, run_campaign};
use crate::report::{f, Report};
use autotune::KnobComponentMap;
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::{DbmsSim, Environment, SimSystem, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment.
pub fn run() -> Report {
    let target = dbms_target();
    let space = target.space().clone();
    let map = KnobComponentMap::dbms();

    // One profiled run of the default config = the entire "history".
    let sim = DbmsSim::new();
    let mut rng = StdRng::seed_from_u64(1);
    let profiled = sim.run_trial(
        &space.default_config(),
        &Workload::tpcc(500.0),
        &Environment::medium(),
        &mut rng,
    );
    let ranking = map.rank_knobs(&profiled.profile);
    let pgo_knobs = map.top_knobs(&profiled.profile, 3);
    let anti_knobs: Vec<String> = ranking
        .iter()
        .rev()
        .take(3)
        .map(|(n, _)| n.clone())
        .collect();

    let budget = 20;
    let tune_subset = |knobs: Option<&[String]>, seed: u64| -> f64 {
        let sub = match knobs {
            Some(knobs) => {
                let mut b = autotune_space::Space::builder();
                for p in space.params() {
                    if knobs.contains(&p.name) {
                        b = b.add(p.clone());
                    }
                }
                b.build().expect("subset valid")
            }
            None => space.clone(),
        };
        let mut opt = BayesianOptimizer::gp(sub);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best = f64::INFINITY;
        run_campaign(&mut opt, budget, &mut rng, |c, rng| {
            let mut full = space.default_config();
            for (name, value) in c.iter() {
                full.set(name.clone(), value.clone());
            }
            let e = target.evaluate(&full, rng);
            if e.cost.is_finite() {
                best = best.min(e.cost);
                e.cost.ln()
            } else {
                f64::NAN
            }
        });
        best
    };
    let n_seeds = 8;
    let avg = |knobs: Option<&[String]>| -> f64 {
        let runs: Vec<f64> = (0..n_seeds).map(|s| tune_subset(knobs, 700 + s)).collect();
        autotune_linalg::stats::median(&runs)
    };
    let pgo = avg(Some(&pgo_knobs));
    let anti = avg(Some(&anti_knobs));
    let all = avg(None);

    let mut rows: Vec<Vec<String>> = ranking
        .iter()
        .take(5)
        .map(|(n, s)| vec![n.clone(), format!("profile score {}", f(*s, 3))])
        .collect();
    rows.push(vec![
        format!("tune PGO top-3 {pgo_knobs:?}"),
        format!("{} ms", f(pgo, 4)),
    ]);
    rows.push(vec![
        format!("tune bottom-3 {anti_knobs:?}"),
        format!("{} ms", f(anti, 4)),
    ]);
    rows.push(vec!["tune all 12".into(), format!("{} ms", f(all, 4))]);

    let shape_holds = pgo < anti * 0.8 && pgo <= all * 1.5;
    Report {
        id: "E28",
        title: "Profile-guided knob prioritization (slide 68 opportunity)",
        headers: vec!["knob / subset", "value"],
        rows,
        paper_claim:
            "stack-profile hotspots identify the knobs worth tuning — with zero tuning history",
        measured: format!(
            "PGO top-3 {} vs bottom-3 {} vs all-knobs {} ms at {budget} trials",
            f(pgo, 4),
            f(anti, 4),
            f(all, 4)
        ),
        shape_holds,
    }
}
