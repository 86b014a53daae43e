//! Cross-crate integration: workload identification over simulator
//! telemetry (sim -> fingerprints -> embeddings -> clusters -> config
//! store -> shift detection -> synthetic mixtures).

use autotune_sim::{DbmsSim, Environment, SimSystem, Workload};
use autotune_wid::{
    purity, synthesize_mixture, ConfigStore, Embedder, EmbedderKind, Fingerprint, KMeans,
    ShiftDetector, StoredConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fingerprint(sim: &DbmsSim, w: &Workload, env: &Environment, rng: &mut StdRng) -> Fingerprint {
    let r = sim.run_trial(&sim.space().default_config(), w, env, rng);
    Fingerprint::from_telemetry(&r.telemetry)
}

#[test]
fn telemetry_clusters_by_workload_family() {
    let sim = DbmsSim::new();
    let env = Environment::medium();
    let mut rng = StdRng::seed_from_u64(1);
    let families = [
        Workload::ycsb_c(2_000.0),
        Workload::ycsb_a(2_000.0),
        Workload::tpch(2.0),
    ];
    let mut prints = Vec::new();
    let mut labels = Vec::new();
    for (i, w) in families.iter().enumerate() {
        for _ in 0..12 {
            prints.push(fingerprint(&sim, w, &env, &mut rng));
            labels.push(i);
        }
    }
    for kind in [
        EmbedderKind::Pca,
        EmbedderKind::RandomProjection { seed: 3 },
    ] {
        let emb = Embedder::fit(&prints, 4, kind).expect("corpus is big enough");
        let points = emb.embed_all(&prints).expect("all embed");
        let km = KMeans::fit(&points, 3, 8).expect("enough points");
        let p = purity(km.assignments(), &labels);
        assert!(p >= 0.9, "{kind:?}: purity {p} too low");
    }
}

#[test]
fn config_store_recommends_by_embedding() {
    let sim = DbmsSim::new();
    let env = Environment::medium();
    let mut rng = StdRng::seed_from_u64(2);
    let read = Workload::ycsb_c(2_000.0);
    let scan = Workload::tpch(2.0);
    let corpus: Vec<Fingerprint> = (0..10)
        .map(|i| {
            let w = if i % 2 == 0 { &read } else { &scan };
            fingerprint(&sim, w, &env, &mut rng)
        })
        .collect();
    let emb = Embedder::fit(&corpus, 3, EmbedderKind::Pca).expect("fits");
    let mut store = ConfigStore::new();
    for (label, w) in [("read", &read), ("scan", &scan)] {
        let fp = fingerprint(&sim, w, &env, &mut rng);
        store.insert(StoredConfig {
            label: label.into(),
            embedding: emb.embed(&fp).expect("embeds"),
            config: sim.space().default_config(),
            score: 1.0,
        });
    }
    // Fresh instances match their family.
    for (label, w) in [("read", &read), ("scan", &scan)] {
        let fp = fingerprint(&sim, w, &env, &mut rng);
        let got = store
            .nearest(&emb.embed(&fp).expect("embeds"))
            .expect("store non-empty")
            .0;
        assert_eq!(got.label, label);
    }
}

#[test]
fn shift_detector_fires_on_family_change_only() {
    let sim = DbmsSim::new();
    let env = Environment::medium();
    let mut rng = StdRng::seed_from_u64(3);
    let mut det = ShiftDetector::new();
    // 50 stationary windows, then a family change.
    for _ in 0..50 {
        let fp = fingerprint(&sim, &Workload::ycsb_c(2_000.0), &env, &mut rng);
        det.observe(fp.features());
    }
    assert!(
        det.shifts().is_empty(),
        "false alarm during stationary phase"
    );
    let mut fired_at = None;
    for t in 0..15 {
        let fp = fingerprint(&sim, &Workload::tpch(2.0), &env, &mut rng);
        if det.observe(fp.features()) {
            fired_at = Some(t);
            break;
        }
    }
    assert!(
        fired_at.is_some_and(|t| t <= 5),
        "shift not detected promptly: {fired_at:?}"
    );
}

#[test]
fn mixture_matches_blended_telemetry() {
    let sim = DbmsSim::new();
    let env = Environment::medium();
    let mut rng = StdRng::seed_from_u64(4);
    let mean_fp = |w: &Workload, rng: &mut StdRng| {
        let fps: Vec<Fingerprint> = (0..5)
            .map(|_| fingerprint(&sim, w, env_ref(&env), rng))
            .collect();
        Fingerprint::mean_of(&fps).expect("non-empty")
    };
    fn env_ref(e: &Environment) -> &Environment {
        e
    }
    let basis = vec![
        mean_fp(&Workload::ycsb_c(2_000.0), &mut rng),
        mean_fp(&Workload::ycsb_a(2_000.0), &mut rng),
    ];
    // Target: a read-mostly blend.
    let target_w = Workload {
        read_fraction: 0.85,
        ..Workload::ycsb_a(2_000.0)
    };
    let target = mean_fp(&target_w, &mut rng);
    let (w, res) = synthesize_mixture(&basis, &target).expect("basis non-empty");
    assert!(res < 1.0, "residual {res} too large");
    // Read-mostly target => the read-only component dominates.
    assert!(
        w[0] > w[1],
        "weights {w:?} should favour the read-only basis"
    );
}
