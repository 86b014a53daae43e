//! E20 (slides 70-71): tuning under cloud noise — naive single
//! measurements vs N-repeats vs duet benchmarking vs TUNA-style trimmed
//! replication. Two questions: how stable is each measurement policy
//! (coefficient of variation), and what does that stability buy the tuner
//! (final regret at equal *trial* budget)?

use crate::report::{f, Report};
use autotune::executor::{Campaign, OptimizerSource, SchedulePolicy};
use autotune::{NoiseStrategy, Objective, Target};
use autotune_optimizer::BayesianOptimizer;
use autotune_sim::{CloudNoise, Environment, NoiseConfig, RedisSim, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn noisy_target(seed: u64) -> Target {
    Target::simulated(
        Box::new(RedisSim::new()),
        Workload::kv_cache(20_000.0),
        Environment::medium(),
        Objective::MinimizeLatencyP95,
    )
    .with_noise(CloudNoise::new_fleet(
        16,
        NoiseConfig {
            machine_sigma: 0.25,
            drift_amplitude: 0.08,
            spike_probability: 0.10,
            spike_scale: 1.0,
        },
        seed,
    ))
}

/// Runs the experiment.
pub fn run() -> Report {
    let strategies: Vec<(&str, NoiseStrategy)> = vec![
        ("single", NoiseStrategy::Single),
        (
            "repeat x5",
            NoiseStrategy::Repeat {
                n: 5,
                median: false,
            },
        ),
        ("duet", NoiseStrategy::Duet),
        (
            "tuna x5",
            NoiseStrategy::Tuna {
                replicas: 5,
                outlier_sigmas: 2.0,
            },
        ),
    ];

    // Measurement stability: CV of repeated measurements of one config.
    let mut rows = Vec::new();
    let mut cvs = Vec::new();
    let mut finals = Vec::new();
    for (name, strat) in &strategies {
        let target = noisy_target(1);
        let cfg = target.space().default_config();
        let baseline = target.space().default_config();
        let mut rng = StdRng::seed_from_u64(2);
        let scores: Vec<f64> = (0..25)
            .map(|_| strat.measure(&target, &cfg, &baseline, &mut rng).0)
            .filter(|c| c.is_finite())
            .collect();
        let cv =
            autotune_linalg::stats::std_dev(&scores) / autotune_linalg::stats::mean(&scores).abs();
        cvs.push((name.to_string(), cv));

        // Tuning outcome at equal logical-trial budget, mean over seeds.
        let mut bests = Vec::new();
        let mut time = 0.0;
        for seed in 0..4 {
            let target = noisy_target(10 + seed);
            let mut opt = BayesianOptimizer::gp(target.space().clone());
            let source = OptimizerSource::new(&mut opt, 25);
            let mut campaign = Campaign::over(
                &target,
                Box::new(source),
                SchedulePolicy::Sequential,
                20 + seed,
            )
            .with_noise_strategy(strat.clone())
            .with_event_log(false);
            campaign.run();
            let storage = campaign.into_storage();
            let best = storage.best().expect("tuning campaign succeeds");
            // Score the chosen config under *noise-free* conditions: the
            // deployable quality, not the lucky measurement.
            let clean = Target::simulated(
                Box::new(RedisSim::new()),
                Workload::kv_cache(20_000.0),
                Environment::medium(),
                Objective::MinimizeLatencyP95,
            );
            let mut rng = StdRng::seed_from_u64(30 + seed);
            let deploy = (0..6)
                .map(|_| clean.evaluate(&best.config, &mut rng).cost)
                .sum::<f64>()
                / 6.0;
            bests.push(deploy);
            time += storage.total_elapsed_s() / 4.0;
        }
        let deploy_mean = autotune_linalg::stats::mean(&bests);
        finals.push((name.to_string(), deploy_mean));
        rows.push(vec![
            name.to_string(),
            f(cv, 3),
            format!("{} ms", f(deploy_mean, 3)),
            format!("{time:.0} s"),
        ]);
    }
    let get_cv = |n: &str| cvs.iter().find(|(m, _)| m == n).expect("ran").1;
    let get_fin = |n: &str| finals.iter().find(|(m, _)| m == n).expect("ran").1;
    let shape_holds = get_cv("duet") < get_cv("single") * 0.6
        && get_cv("tuna x5") < get_cv("single")
        && get_fin("duet") <= get_fin("single") * 1.05
        && get_fin("tuna x5") <= get_fin("single") * 1.05;
    Report {
        id: "E20",
        title: "Noise mitigation: duet & TUNA (slides 70-71)",
        headers: vec!["strategy", "measurement CV", "deployed P95", "bench time"],
        rows,
        paper_claim: "duet cancels shared noise; TUNA's replicated/trimmed scores learn faster and deploy more robust configs",
        measured: format!(
            "CV: single {} / duet {} / tuna {}; deployed: single {} / duet {} / tuna {} ms",
            f(get_cv("single"), 3),
            f(get_cv("duet"), 3),
            f(get_cv("tuna x5"), 3),
            f(get_fin("single"), 3),
            f(get_fin("duet"), 3),
            f(get_fin("tuna x5"), 3)
        ),
        shape_holds,
    }
}
