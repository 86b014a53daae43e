//! Seeded input generation and the process-level helpers every workload
//! shares. `--seed` feeds only what is in this file (fleet seed, request
//! RNG, campaign seeds); the program under test sees generated inputs.

use autotune::{Objective, SchedulePolicy};
use autotune_serve::{
    CampaignSpec, OptimizerKind, Request, RouterConfig, SystemKind, TenantRouter, WalConfig,
};
use autotune_sim::{Environment, Workload};
use autotune_wid::{Tenant, TenantFleet, TenantFleetConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Registry worker pool of every router and registry the benchmark makes.
pub const WORKERS: usize = 2;

/// The fleet shape of E35 (12 families, 300 Zipf tenants), seeded.
pub fn fleet_config(seed: u64) -> TenantFleetConfig {
    TenantFleetConfig {
        n_families: 12,
        n_tenants: 300,
        dim: 12,
        zipf_exponent: 1.1,
        separation: 10.0,
        jitter: 0.25,
        rate_spread: 0.03,
        seed,
    }
}

pub fn fleet(cfg: &TenantFleetConfig) -> TenantFleet {
    TenantFleet::generate(cfg).expect("fleet shape is valid by construction")
}

/// The campaign a missing tenant enqueues, as E35's `tenant_spec`: tune
/// the tenant's own Redis workload with random search.
pub fn tenant_spec(t: &Tenant, budget: usize) -> CampaignSpec {
    let mut s = CampaignSpec::minimal(
        format!("tenant-{}", t.id),
        SystemKind::Redis,
        budget,
        35_000 + t.family as u64,
    );
    s.workload = Workload::kv_cache(50_000.0 * t.rate_scale);
    s.environment = Environment::small();
    s.objective = Objective::MinimizeLatencyAvg;
    s
}

/// A `Register`ed campaign of the tuning workloads.
pub fn tune_spec(optimizer: OptimizerKind, index: usize, budget: usize, seed: u64) -> CampaignSpec {
    let mut s = CampaignSpec::minimal(
        format!("{}-{index}", optimizer.label()),
        SystemKind::Redis,
        budget,
        seed.wrapping_mul(1_000_003).wrapping_add(index as u64),
    );
    s.optimizer = optimizer;
    if optimizer == OptimizerKind::BoGp {
        s.policy = SchedulePolicy::SyncBatch { k: 2 };
    }
    s
}

/// Router shape for a fleet: spawn threshold from the fleet's geometry,
/// everything else default (`journal_hits: true`).
pub fn router_config(cfg: &TenantFleetConfig) -> RouterConfig {
    let mut rc = RouterConfig::default();
    rc.cache.threshold = TenantFleet::recommended_threshold(cfg);
    rc
}

pub fn create_router(dir: &Path, config: RouterConfig) -> TenantRouter {
    TenantRouter::create(dir, WORKERS, WalConfig::default(), config).expect("create router")
}

pub fn open_router(dir: &Path) -> TenantRouter {
    TenantRouter::open(dir, WORKERS, WalConfig::default())
        .expect("reopen router")
        .0
}

/// The Zipf request stream of one fleet: request `i` is a pure function
/// of `(fleet, seed, i)`.
pub struct LookupGen<'a> {
    fleet: &'a TenantFleet,
    rng: StdRng,
    budget: usize,
    /// Tenants that ask first, last one first, before the Zipf draws.
    first: Vec<&'a Tenant>,
}

impl<'a> LookupGen<'a> {
    pub fn new(fleet: &'a TenantFleet, seed: u64, budget: usize) -> Self {
        LookupGen {
            fleet,
            rng: StdRng::seed_from_u64(seed),
            budget,
            first: Vec::new(),
        }
    }

    /// Lets one tenant of every family ask before the Zipf draws start, so
    /// that every family is admitted at once and the stream is as many
    /// rounds long for every seed.
    pub fn every_family_first(mut self) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        self.first = self
            .fleet
            .tenants()
            .iter()
            .filter(|t| seen.insert(t.family))
            .collect();
        self.first.reverse();
        self
    }

    /// Draws the next tenant and the `Lookup` it sends.
    pub fn next(&mut self) -> (&'a Tenant, Request) {
        let t = match self.first.pop() {
            Some(t) => t,
            None => self.fleet.sample(&mut self.rng),
        };
        let req = Request::Lookup {
            features: t.fingerprint.features().to_vec(),
            spec: tenant_spec(t, self.budget),
        };
        (t, req)
    }
}

/// The directory everything the benchmark writes lives under:
/// `benchmark/out/`, inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory for WAL segments, removed when dropped — also on
/// a failed check or a panic, since unwinding runs the destructor.
pub struct Scratch(PathBuf);

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir()
            .join("wal")
            .join(format!("{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn proc_field(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn bytes_written() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_serve::write_frame;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let cfg = fleet_config(seed);
        let fleet = fleet(&cfg);
        let mut gen = LookupGen::new(&fleet, seed, 32);
        let mut bytes = Vec::new();
        for _ in 0..200 {
            write_frame(&mut bytes, &gen.next().1).expect("encode");
        }
        bytes
    }

    #[test]
    fn same_seed_gives_identical_request_bytes() {
        assert_eq!(stream_bytes(11), stream_bytes(11));
        assert_ne!(stream_bytes(11), stream_bytes(12));
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let path = {
            let s = Scratch::new("unit");
            std::fs::write(s.path().join("x"), b"y").expect("write");
            s.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
