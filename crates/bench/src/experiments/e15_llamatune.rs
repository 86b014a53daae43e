//! E15 (slide 62): LlamaTune — random-projection dimensionality reduction
//! plus bucketization. Paper: "Reduces PG configuration evaluations by up
//! to 11x; up to 21% higher throughput." We measure trials-to-target and
//! equal-budget quality on a 40-knob DBMS-like space with few influential
//! knobs, averaged over seeds.

use crate::experiments::{best_of, best_so_far, run_campaign, trials_to_reach};
use crate::report::{f, Report};
use autotune::{LlamaTune, LlamaTuneConfig};
use autotune_optimizer::{BayesianOptimizer, Optimizer};
use autotune_space::{Config, Param, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 60-knob space — the regime the paper targets, where fitting a
/// surrogate over the full dimensionality is itself the bottleneck.
fn wide_space() -> Space {
    let mut b = Space::builder();
    for i in 0..60 {
        b = b.add(Param::float(format!("knob{i:02}"), 0.0, 1.0));
    }
    b.build().expect("valid space")
}

/// Four strong knobs (two redundantly correlated) plus twenty weak ones:
/// real DBMS response surfaces have a heavy head and a long tail of
/// slightly-relevant knobs.
fn objective(c: &Config) -> f64 {
    let g = |i: usize| c.get_f64(&format!("knob{i:02}")).expect("knob present");
    let combined = 0.5 * (g(0) + g(1));
    let mut cost =
        2.0 * (combined - 0.6).powi(2) + (g(7) - 0.3).powi(2) + 0.5 * (g(13) - 0.8).powi(2);
    for i in 20..40 {
        cost += 0.01 * (g(i) - 0.5).powi(2);
    }
    cost
}

/// Runs the experiment.
pub fn run() -> Report {
    let budget = 30;
    let target_cost = 0.08;
    let n_seeds = 8u64;

    let run = |mut opt: Box<dyn Optimizer>, seed: u64| -> (Option<usize>, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let costs = run_campaign(opt.as_mut(), budget, &mut rng, |c, _| objective(c));
        (
            trials_to_reach(&best_so_far(&costs), target_cost),
            best_of(&costs),
        )
    };

    let mut lt_trials = Vec::new();
    let mut full_trials = Vec::new();
    let mut lt_final = Vec::new();
    let mut full_final = Vec::new();
    for seed in 0..n_seeds {
        let (lt_r, lt_b) = run(
            Box::new(LlamaTune::new(
                wide_space(),
                LlamaTuneConfig {
                    low_dim: 12,
                    buckets: 20,
                    projection_seed: seed,
                },
            )),
            200 + seed,
        );
        let (fu_r, fu_b) = run(Box::new(BayesianOptimizer::gp(wide_space())), 200 + seed);
        lt_trials.push(lt_r.unwrap_or(budget + 1) as f64);
        full_trials.push(fu_r.unwrap_or(budget + 1) as f64);
        lt_final.push(lt_b);
        full_final.push(fu_b);
    }
    let lt_tt = autotune_linalg::stats::median(&lt_trials);
    let full_tt = autotune_linalg::stats::median(&full_trials);
    let lt_q = autotune_linalg::stats::mean(&lt_final);
    let full_q = autotune_linalg::stats::mean(&full_final);
    let speedup = full_tt / lt_tt.max(1.0);

    let rows = vec![
        vec!["llamatune (12-d proj)".into(), f(lt_tt, 1), f(lt_q, 4)],
        vec!["full-space BO (60-d)".into(), f(full_tt, 1), f(full_q, 4)],
        vec![
            "speedup (trials-to-target)".into(),
            format!("{speedup:.1}x"),
            String::new(),
        ],
    ];
    let shape_holds = lt_tt <= full_tt && lt_q <= full_q * 1.25;
    Report {
        id: "E15",
        title: "LlamaTune: random projection + bucketization (slide 62)",
        headers: vec!["method", "median trials to 0.08", "mean best @30"],
        rows,
        paper_claim: "up to 11x fewer evaluations; up to 21% better final config",
        measured: format!(
            "{speedup:.1}x fewer trials to target; equal-budget quality {} vs {}",
            f(lt_q, 4),
            f(full_q, 4)
        ),
        shape_holds,
    }
}
