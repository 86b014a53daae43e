//! E18 (slide 68): knob importance — Lasso (OtterTune) and permutation
//! importance (SHAP-era) over a DBMS campaign history; tuning only the
//! top-3 knobs recovers most of the benefit of tuning all 12.

use crate::experiments::dbms_target;
use crate::report::{f, Report};
use autotune::{lasso_path, permutation_importance};
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use autotune_space::Space;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment.
pub fn run() -> Report {
    let target = dbms_target();
    let space = target.space().clone();

    // Collect a 120-trial random history (diverse coverage for the fits).
    let mut rng = StdRng::seed_from_u64(1);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..120 {
        let cfg = space.sample(&mut rng);
        let e = target.evaluate(&cfg, &mut rng);
        if e.cost.is_finite() {
            xs.push(space.encode_unit(&cfg).expect("encodes"));
            ys.push(e.cost.ln()); // log-latency stabilizes the linear fit
        }
    }
    let lasso = lasso_path(&space, &xs, &ys);
    let perm = permutation_importance(&space, &xs, &ys, &mut rng);

    // Tune only the top-3 (by permutation) vs all knobs, same budget.
    let top3: Vec<String> = perm.top(3).iter().map(|s| s.to_string()).collect();
    let sub_space = {
        let mut b = Space::builder();
        for p in space.params() {
            if top3.contains(&p.name) {
                b = b.add(p.clone());
            }
        }
        b.build().expect("subset space valid")
    };
    let budget = 30;
    let run_campaign = |sub: Option<&Space>, seed: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best = f64::INFINITY;
        let mut opt: Box<dyn Optimizer> = match sub {
            Some(s) => Box::new(BayesianOptimizer::smac(s.clone())),
            None => Box::new(BayesianOptimizer::smac(space.clone())),
        };
        super::run_campaign(opt.as_mut(), budget, &mut rng, |c, rng| {
            // Fill non-tuned knobs with defaults.
            let mut full = space.default_config();
            for (name, value) in c.iter() {
                full.set(name.clone(), value.clone());
            }
            let e = target.evaluate(&full, rng);
            // Observe log-cost: latencies span orders of magnitude and a
            // raw-scale surrogate is dominated by the overload region.
            if e.cost.is_finite() {
                best = best.min(e.cost);
                e.cost.ln()
            } else {
                f64::NAN
            }
        });
        best
    };
    // The contrast subset: the three LEAST important knobs.
    let bottom3: Vec<String> = perm
        .ranking
        .iter()
        .rev()
        .take(3)
        .map(|(n, _)| n.clone())
        .collect();
    let bottom_space = {
        let mut b = Space::builder();
        for p in space.params() {
            if bottom3.contains(&p.name) {
                b = b.add(p.clone());
            }
        }
        b.build().expect("subset space valid")
    };
    let mut top3_best = Vec::new();
    let mut all_best = Vec::new();
    let mut bottom_best = Vec::new();
    for seed in 0..8 {
        top3_best.push(run_campaign(Some(&sub_space), 400 + seed));
        all_best.push(run_campaign(None, 400 + seed));
        bottom_best.push(run_campaign(Some(&bottom_space), 400 + seed));
    }
    let t3 = autotune_linalg::stats::median(&top3_best);
    let all = autotune_linalg::stats::median(&all_best);
    let rnd = autotune_linalg::stats::median(&bottom_best);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for i in 0..5 {
        rows.push(vec![
            format!("#{}", i + 1),
            lasso.ranking[i].0.clone(),
            perm.ranking[i].0.clone(),
            f(perm.ranking[i].1, 4),
        ]);
    }
    rows.push(vec![
        "tune top-3 only".into(),
        String::new(),
        format!("{} ms", f(t3, 4)),
        String::new(),
    ]);
    rows.push(vec![
        "tune all 12".into(),
        String::new(),
        format!("{} ms", f(all, 4)),
        String::new(),
    ]);
    rows.push(vec![
        "tune bottom-3 only".into(),
        String::new(),
        format!("{} ms", f(rnd, 4)),
        String::new(),
    ]);

    // The big structural knobs must surface; buffer pool is the known #1.
    let perm_top: Vec<&str> = perm.top(4);
    let bp_found = perm_top.contains(&"buffer_pool_gb");
    let shape_holds = bp_found && t3 <= all * 1.5 && t3 < rnd * 0.8;
    Report {
        id: "E18",
        title: "Knob importance: Lasso path & permutation (slide 68)",
        headers: vec!["rank", "lasso", "permutation", "perm score"],
        rows,
        paper_claim: "a few knobs dominate; tuning only those recovers most of the win",
        measured: format!(
            "top-3-only best {} vs all-knobs {} vs bottom-3 {} ms; buffer_pool ranked top-4: {bp_found}",
            f(t3, 4),
            f(all, 4),
            f(rnd, 4)
        ),
        shape_holds,
    }
}
