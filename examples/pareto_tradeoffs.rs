//! Multi-objective tuning: the latency/cost Pareto frontier (slide 58).
//!
//! No single configuration minimizes both latency and spend — a bigger
//! buffer pool is faster but rents more memory. This example recovers the
//! trade-off curve with two methods (ParEGO scalarized BO and NSGA-II) and
//! prints the frontier an operator would choose from.
//!
//! Run with:
//! ```text
//! cargo run -p autotune-examples --bin pareto_tradeoffs --release
//! ```

use autotune::{Objective, Target};
use autotune_optimizer::moo::ParEgo;
use autotune_optimizer::NsgaII;
use autotune_sim::{DbmsSim, Environment, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn objectives(target: &Target, cfg: &autotune_space::Config, rng: &mut StdRng) -> Option<[f64; 2]> {
    let e = target.evaluate(cfg, rng);
    if !e.cost.is_finite() {
        return None;
    }
    // Cost axis: VM bill plus memory rent for the buffer pool.
    let pool = cfg.get_f64("buffer_pool_gb").unwrap_or(0.125);
    Some([e.cost, e.result.cost_units * 1000.0 + pool * 0.05])
}

fn main() {
    let budget = 60;
    println!("== Latency vs cost: Pareto frontier of the DBMS sim ==\n");
    let target = Target::simulated(
        Box::new(DbmsSim::new()),
        Workload::tpcc(500.0),
        Environment::medium(),
        Objective::MinimizeLatencyAvg,
    );

    // ParEGO.
    let mut pe = ParEgo::new(target.space().clone(), 2);
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..budget {
        let cfg = pe.suggest(&mut rng);
        match objectives(&target, &cfg, &mut rng) {
            Some(obj) => pe.observe(&cfg, &obj),
            None => pe.observe(&cfg, &[1e6, 1e6]),
        }
    }

    // NSGA-II.
    let mut nsga = NsgaII::new(target.space().clone(), 2);
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..budget {
        let cfg = nsga.suggest(&mut rng);
        match objectives(&target, &cfg, &mut rng) {
            Some(obj) => nsga.observe(&cfg, &obj),
            None => nsga.observe(&cfg, &[f64::NAN, f64::NAN]),
        }
    }

    for (name, front) in [("ParEGO", pe.front()), ("NSGA-II", nsga.front())] {
        println!("{name} frontier ({} trials):", budget);
        let mut members: Vec<_> = front.members().to_vec();
        members.sort_by(|a, b| {
            a.objectives[0]
                .partial_cmp(&b.objectives[0])
                .expect("objectives are finite")
        });
        println!("  {:>12} {:>12}  config highlight", "latency", "cost($m)");
        for m in members.iter().take(8) {
            let bp = m.config.get_f64("buffer_pool_gb").unwrap_or(0.0);
            let flush = m.config.get_str("flush_method").unwrap_or("?");
            println!(
                "  {:>10.3}ms {:>12.4}  bp={bp:.2}G flush={flush}",
                m.objectives[0], m.objectives[1]
            );
        }
        // Reference point: beyond the worst member on each axis.
        let ref_lat = 1.5
            * members
                .iter()
                .map(|m| m.objectives[0])
                .fold(1.0_f64, f64::max);
        let ref_cost = 1.5
            * members
                .iter()
                .map(|m| m.objectives[1])
                .fold(1.0_f64, f64::max);
        let hv = front.hypervolume_2d((ref_lat, ref_cost));
        println!("  hypervolume vs ({ref_lat:.0}ms, ${ref_cost:.2}m): {hv:.1}\n");
    }
    println!("Pick a point: the left end serves latency SLOs, the right end the budget.");
}
