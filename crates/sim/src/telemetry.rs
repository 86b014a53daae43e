//! Telemetry time-series emission (tutorial slide 90: "Data to Embed").
//!
//! Each trial emits a short multi-channel time series — CPU, memory, disk
//! and network utilization plus operation-mix counters — of the kind cloud
//! providers can collect without touching customer data. The
//! workload-identification crate builds embeddings from these.

use crate::Workload;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One telemetry sample (one scrape interval).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySample {
    /// CPU utilization, 0-1.
    pub cpu: f64,
    /// Memory utilization, 0-1.
    pub mem: f64,
    /// Disk I/O utilization, 0-1.
    pub disk_io: f64,
    /// Network utilization, 0-1.
    pub net_io: f64,
    /// Operations per second served in this interval.
    pub ops: f64,
    /// Read share of the interval's operations, 0-1.
    pub read_share: f64,
    /// Scan share of the interval's operations, 0-1.
    pub scan_share: f64,
}

/// Number of samples emitted per trial.
pub(crate) const SAMPLES_PER_TRIAL: usize = 32;

/// Emits a telemetry series consistent with the workload's character and
/// the trial's utilization level, collected into its one allocation (the
/// sample count is known up front).
pub(crate) fn emit(
    workload: &Workload,
    utilization: f64,
    throughput_ops: f64,
    rng: &mut dyn RngCore,
) -> Arc<[TelemetrySample]> {
    let mut rng = rng;
    let util = utilization.clamp(0.0, 1.0);
    // Channel baselines follow the workload family: scans hammer disk,
    // writes add I/O, hot caches barely touch the network, etc.
    let disk_base =
        (0.15 + 0.7 * workload.scan_fraction + 0.4 * workload.write_fraction()).min(1.0) * util;
    let net_base = (0.2 + 0.5 * (1.0 - workload.scan_fraction)) * util;
    let mem_base = 0.3 + 0.5 * (workload.skew * 0.3 + util * 0.7);
    (0..SAMPLES_PER_TRIAL)
        .map(|i| {
            let t = i as f64 / SAMPLES_PER_TRIAL as f64;
            // Mild periodic structure plus noise, so embeddings see both a
            // level and a shape per channel.
            let wave = 0.05 * (2.0 * std::f64::consts::PI * 3.0 * t).sin();
            let n = |rng: &mut dyn RngCore, scale: f64| scale * (rng.gen::<f64>() - 0.5);
            TelemetrySample {
                cpu: (util + wave + n(&mut rng, 0.06)).clamp(0.0, 1.0),
                mem: (mem_base + 0.1 * t + n(&mut rng, 0.04)).clamp(0.0, 1.0),
                disk_io: (disk_base + wave + n(&mut rng, 0.08)).clamp(0.0, 1.0),
                net_io: (net_base + n(&mut rng, 0.05)).clamp(0.0, 1.0),
                ops: (throughput_ops * (1.0 + wave + n(&mut rng, 0.05))).max(0.0),
                read_share: (workload.read_fraction + n(&mut rng, 0.04)).clamp(0.0, 1.0),
                scan_share: (workload.scan_fraction + n(&mut rng, 0.03)).clamp(0.0, 1.0),
            }
        })
        .collect()
}

/// Flattens a telemetry series into a fixed-length feature vector: per
/// channel, the mean and standard deviation. This is the "hand-rolled"
/// featurization that `autotune-wid` embeds further.
pub fn telemetry_features(series: &[TelemetrySample]) -> Vec<f64> {
    let channels: [&dyn Fn(&TelemetrySample) -> f64; 7] = [
        &|s| s.cpu,
        &|s| s.mem,
        &|s| s.disk_io,
        &|s| s.net_io,
        &|s| s.ops,
        &|s| s.read_share,
        &|s| s.scan_share,
    ];
    let mut features = Vec::with_capacity(channels.len() * 2);
    for ch in channels {
        let values: Vec<f64> = series.iter().map(ch).collect();
        features.push(autotune_linalg::stats::mean(&values));
        features.push(autotune_linalg::stats::std_dev(&values));
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn emit_produces_full_series_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Workload::ycsb_a(1000.0);
        let series = emit(&w, 0.6, 950.0, &mut rng);
        assert_eq!(series.len(), SAMPLES_PER_TRIAL);
        for s in series.iter() {
            for v in [
                s.cpu,
                s.mem,
                s.disk_io,
                s.net_io,
                s.read_share,
                s.scan_share,
            ] {
                assert!((0.0..=1.0).contains(&v), "channel out of bounds: {v}");
            }
            assert!(s.ops >= 0.0);
        }
    }

    #[test]
    fn scan_heavy_workloads_show_more_disk() {
        let mut rng = StdRng::seed_from_u64(2);
        let scan = emit(&Workload::tpch(1.0), 0.6, 10.0, &mut rng);
        let point = emit(&Workload::ycsb_c(1000.0), 0.6, 950.0, &mut rng);
        let disk_mean = |s: &[TelemetrySample]| {
            autotune_linalg::stats::mean(&s.iter().map(|x| x.disk_io).collect::<Vec<_>>())
        };
        assert!(
            disk_mean(&scan) > disk_mean(&point) + 0.1,
            "TPC-H should be visibly more disk-bound"
        );
    }

    #[test]
    fn features_have_fixed_length_and_track_means() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Workload::ycsb_b(500.0);
        let series = emit(&w, 0.5, 480.0, &mut rng);
        let f = telemetry_features(&series);
        assert_eq!(f.len(), 14);
        // read_share mean (index 10) should be near the workload's 0.95.
        assert!((f[10] - 0.95).abs() < 0.05, "read_share mean {}", f[10]);
    }

    #[test]
    fn utilization_drives_cpu_channel() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Workload::ycsb_a(1000.0);
        let lo = emit(&w, 0.2, 500.0, &mut rng);
        let hi = emit(&w, 0.9, 500.0, &mut rng);
        let cpu_mean = |s: &[TelemetrySample]| {
            autotune_linalg::stats::mean(&s.iter().map(|x| x.cpu).collect::<Vec<_>>())
        };
        assert!(cpu_mean(&hi) > cpu_mean(&lo) + 0.4);
    }
}
