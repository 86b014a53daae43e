//! E25 (slides 88-92): workload identification — fingerprint, embed,
//! cluster, reuse configs on similar workloads, detect shift. Reported:
//! clustering purity, reuse quality (vs per-workload tuning and vs
//! defaults), and shift-detection lag.

use crate::experiments::run_bo_policy;
use crate::report::{f, Report};
use autotune::executor::SchedulePolicy;
use autotune::{Objective, Target};
use autotune_sim::{DbmsSim, Environment, SimSystem, Workload};
use autotune_wid::{
    purity, ConfigStore, Embedder, EmbedderKind, Fingerprint, KMeans, ShiftDetector, StoredConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn families() -> Vec<(&'static str, Workload)> {
    vec![
        ("ycsb-c", Workload::ycsb_c(2_000.0)),
        ("ycsb-a", Workload::ycsb_a(2_000.0)),
        ("tpc-c", Workload::tpcc(2_000.0)),
        ("tpc-h", Workload::tpch(2.0)),
    ]
}

/// Runs the experiment.
pub fn run() -> Report {
    let env = Environment::medium();
    let sim = DbmsSim::new();
    let mut rng = StdRng::seed_from_u64(1);
    let fams = families();

    // 1. Fingerprint 15 noisy instances per family; cluster.
    let mut prints = Vec::new();
    let mut labels = Vec::new();
    for (idx, (_, w)) in fams.iter().enumerate() {
        for _ in 0..15 {
            let r = sim.run_trial(&sim.space().default_config(), w, &env, &mut rng);
            prints.push(Fingerprint::from_telemetry(&r.telemetry));
            labels.push(idx);
        }
    }
    let embedder = Embedder::fit(&prints, 4, EmbedderKind::Pca).expect("corpus large enough");
    let points = embedder.embed_all(&prints).expect("all embed");
    let km = KMeans::fit(&points, fams.len(), 11).expect("enough points");
    let pur = purity(km.assignments(), &labels);

    // 2. Tune one representative per family; store by centroid.
    let mut store = ConfigStore::new();
    let mut tuned_costs = Vec::new();
    for (idx, (name, w)) in fams.iter().enumerate() {
        let target = Target::simulated(
            Box::new(DbmsSim::new()),
            w.clone(),
            env.clone(),
            Objective::MinimizeLatencyAvg,
        );
        let (_, best) = run_bo_policy(&target, SchedulePolicy::Sequential, 25, 50 + idx as u64);
        tuned_costs.push(best.cost);
        let members: Vec<&Vec<f64>> = points
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == idx)
            .map(|(p, _)| p)
            .collect();
        let mut centroid = vec![0.0; 4];
        for m in &members {
            autotune_linalg::axpy(1.0, m, &mut centroid);
        }
        centroid.iter_mut().for_each(|c| *c /= members.len() as f64);
        store.insert(StoredConfig {
            label: name.to_string(),
            embedding: centroid,
            config: best.config,
            score: best.cost,
        });
    }

    // 3. Reuse on fresh instances: match accuracy + cost vs tuned/default.
    let mut matches = 0;
    let mut reuse_ratio = Vec::new();
    let n_fresh = 20;
    for i in 0..n_fresh {
        let fam = i % fams.len();
        let w = &fams[fam].1;
        let r = sim.run_trial(&sim.space().default_config(), w, &env, &mut rng);
        let emb = embedder
            .embed(&Fingerprint::from_telemetry(&r.telemetry))
            .expect("fingerprint embeds");
        let rec = store.nearest(&emb).expect("store non-empty").0;
        if rec.label == fams[fam].0 {
            matches += 1;
        }
        let reused = sim.run_trial(&rec.config, w, &env, &mut rng).latency_avg_ms;
        reuse_ratio.push(reused / tuned_costs[fam]);
    }
    let reuse_mean = autotune_linalg::stats::mean(&reuse_ratio);

    // 4. Shift detection lag on a fingerprint stream.
    let mut det = ShiftDetector::new();
    let mut lag = None;
    for t in 0..80 {
        let w = if t < 40 { &fams[0].1 } else { &fams[3].1 };
        let r = sim.run_trial(&sim.space().default_config(), w, &env, &mut rng);
        let fp = Fingerprint::from_telemetry(&r.telemetry);
        if det.observe(fp.features()) && t >= 40 && lag.is_none() {
            lag = Some(t - 40);
        }
    }

    let rows = vec![
        vec!["clustering purity".into(), f(pur, 2)],
        vec![
            "reuse match accuracy".into(),
            format!("{matches}/{n_fresh}"),
        ],
        vec![
            "reused / per-workload-tuned cost".into(),
            format!("{}x", f(reuse_mean, 2)),
        ],
        vec![
            "shift detection lag".into(),
            lag.map_or("not detected".into(), |l| format!("{l} windows")),
        ],
    ];
    let shape_holds = pur >= 0.9
        && matches >= (n_fresh * 9) / 10
        && reuse_mean <= 1.2
        && lag.is_some_and(|l| l <= 5);
    Report {
        id: "E25",
        title: "Workload identification: cluster, reuse, detect (slides 88-92)",
        headers: vec!["metric", "value"],
        rows,
        paper_claim:
            "similar workloads cluster cleanly; their configs transfer; shifts surface fast",
        measured: format!(
            "purity {}, accuracy {matches}/{n_fresh}, reuse ratio {}x, lag {:?}",
            f(pur, 2),
            f(reuse_mean, 2),
            lag
        ),
        shape_holds,
    }
}
