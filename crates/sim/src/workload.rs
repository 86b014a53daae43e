//! Workload descriptions and schedules (tutorial slides 8, 16, 66).
//!
//! A [`Workload`] captures the properties that drive the simulators'
//! response surfaces: operation mix, access skew, working-set size, offered
//! load, and a scale factor for multi-fidelity experiments (TPC-H SF-1 vs
//! SF-100: "everything fits in memory, don't need to explore I/O
//! settings"). A [`WorkloadSchedule`] sequences workloads over time for the
//! online-tuning and shift-detection experiments.

use serde::{Deserialize, Serialize};

/// Canonical benchmark families the tutorial references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// YCSB workload A: 50/50 read/update, Zipfian.
    YcsbA,
    /// YCSB workload B: 95/5 read/update, Zipfian.
    YcsbB,
    /// YCSB workload C: read-only, Zipfian.
    YcsbC,
    /// TPC-C-like OLTP: short read-write transactions, moderate skew.
    Tpcc,
    /// TPC-H-like analytics: large scans and aggregations.
    Tpch,
    /// Key-value cache traffic (the Redis running example).
    KeyValueCache,
}

impl WorkloadKind {
    /// All kinds, for sweep experiments.
    pub fn all() -> &'static [WorkloadKind] {
        &[
            WorkloadKind::YcsbA,
            WorkloadKind::YcsbB,
            WorkloadKind::YcsbC,
            WorkloadKind::Tpcc,
            WorkloadKind::Tpch,
            WorkloadKind::KeyValueCache,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::YcsbA => "ycsb-a",
            WorkloadKind::YcsbB => "ycsb-b",
            WorkloadKind::YcsbC => "ycsb-c",
            WorkloadKind::Tpcc => "tpc-c",
            WorkloadKind::Tpch => "tpc-h",
            WorkloadKind::KeyValueCache => "kv-cache",
        }
    }
}

/// A fully-specified workload instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Benchmark family.
    pub kind: WorkloadKind,
    /// Fraction of operations that are reads (vs writes).
    pub read_fraction: f64,
    /// Fraction of operations that are large scans (vs point accesses).
    pub scan_fraction: f64,
    /// Zipfian skew θ ∈ [0, 1): 0 = uniform, →1 = extremely hot-key.
    pub skew: f64,
    /// Hot working-set size, GiB, at scale factor 1.
    pub working_set_gb: f64,
    /// Offered load, operations per second.
    pub offered_ops: f64,
    /// Scale factor: multiplies the working set and benchmark duration
    /// (multi-fidelity: SF-1 is cheap, SF-10 expensive and I/O-bound).
    pub scale_factor: f64,
    /// Benchmark duration at scale factor 1, seconds.
    pub base_duration_s: f64,
}

impl Workload {
    /// YCSB-A (update-heavy) at the given offered load.
    pub fn ycsb_a(offered_ops: f64) -> Self {
        Workload {
            kind: WorkloadKind::YcsbA,
            read_fraction: 0.5,
            scan_fraction: 0.0,
            skew: 0.8,
            working_set_gb: 4.0,
            offered_ops,
            scale_factor: 1.0,
            base_duration_s: 60.0,
        }
    }

    /// YCSB-B (read-mostly).
    pub fn ycsb_b(offered_ops: f64) -> Self {
        Workload {
            read_fraction: 0.95,
            ..Workload::ycsb_a(offered_ops)
        }
        .with_kind(WorkloadKind::YcsbB)
    }

    /// YCSB-C (read-only).
    pub fn ycsb_c(offered_ops: f64) -> Self {
        Workload {
            read_fraction: 1.0,
            ..Workload::ycsb_a(offered_ops)
        }
        .with_kind(WorkloadKind::YcsbC)
    }

    /// TPC-C-like OLTP at the given transaction rate.
    pub fn tpcc(offered_ops: f64) -> Self {
        Workload {
            kind: WorkloadKind::Tpcc,
            read_fraction: 0.65,
            scan_fraction: 0.04,
            skew: 0.5,
            working_set_gb: 10.0,
            offered_ops,
            scale_factor: 1.0,
            base_duration_s: 120.0,
        }
    }

    /// TPC-H-like analytics at a scale factor (SF-1 ≈ 1 GiB of data).
    pub fn tpch(scale_factor: f64) -> Self {
        Workload {
            kind: WorkloadKind::Tpch,
            read_fraction: 1.0,
            scan_fraction: 0.9,
            skew: 0.1,
            working_set_gb: 1.0,
            offered_ops: 8.0,
            scale_factor,
            base_duration_s: 30.0,
        }
    }

    /// Cache traffic for the Redis example.
    pub fn kv_cache(offered_ops: f64) -> Self {
        Workload {
            kind: WorkloadKind::KeyValueCache,
            read_fraction: 0.9,
            scan_fraction: 0.0,
            skew: 0.9,
            working_set_gb: 2.0,
            offered_ops,
            scale_factor: 1.0,
            base_duration_s: 30.0,
        }
    }

    fn with_kind(mut self, kind: WorkloadKind) -> Self {
        self.kind = kind;
        self
    }

    /// Builder-style scale-factor override.
    pub fn at_scale(mut self, scale_factor: f64) -> Self {
        self.scale_factor = scale_factor;
        self
    }

    /// Effective working-set size after scaling, GiB.
    pub fn effective_working_set_gb(&self) -> f64 {
        self.working_set_gb * self.scale_factor
    }

    /// Benchmark wall-clock, seconds (scales sublinearly: bigger runs
    /// amortize setup).
    pub fn duration_s(&self) -> f64 {
        self.base_duration_s * self.scale_factor.max(0.1).powf(0.8)
    }

    /// Write fraction.
    pub fn write_fraction(&self) -> f64 {
        1.0 - self.read_fraction
    }
}

/// A sequence of `(duration_steps, workload)` phases for online-tuning
/// experiments: the tutorial's "workload shifting" challenge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSchedule {
    phases: Vec<(usize, Workload)>,
}

impl WorkloadSchedule {
    /// Creates a schedule from phases.
    pub fn new(phases: Vec<(usize, Workload)>) -> Self {
        assert!(!phases.is_empty(), "schedule needs at least one phase");
        assert!(
            phases.iter().all(|(n, _)| *n > 0),
            "phases must last at least one step"
        );
        WorkloadSchedule { phases }
    }

    /// The workload active at time step `t` (the final phase persists
    /// beyond the schedule's end).
    pub fn at(&self, t: usize) -> &Workload {
        let mut acc = 0;
        for (n, w) in &self.phases {
            acc += n;
            if t < acc {
                return w;
            }
        }
        &self.phases.last().expect("non-empty").1 // lint: allow(D5) constructor asserts at least one phase
    }

    /// Total scheduled steps.
    pub fn len(&self) -> usize {
        self.phases.iter().map(|(n, _)| n).sum()
    }

    /// Whether the schedule is empty (never true: constructor enforces it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_mixes() {
        assert_eq!(Workload::ycsb_c(1000.0).read_fraction, 1.0);
        assert!(Workload::ycsb_a(1000.0).write_fraction() > 0.4);
        assert!(Workload::tpch(1.0).scan_fraction > 0.5);
        assert!(Workload::tpcc(500.0).write_fraction() > 0.3);
    }

    #[test]
    fn scale_factor_grows_working_set_and_duration() {
        let sf1 = Workload::tpch(1.0);
        let sf10 = Workload::tpch(10.0);
        assert!(sf10.effective_working_set_gb() > 9.0 * sf1.effective_working_set_gb());
        assert!(sf10.duration_s() > 3.0 * sf1.duration_s());
        assert!(
            sf10.duration_s() < 10.0 * sf1.duration_s(),
            "duration should scale sublinearly"
        );
    }

    #[test]
    fn schedule_phases_and_shift_points() {
        let s = WorkloadSchedule::new(vec![
            (10, Workload::ycsb_c(1000.0)),
            (5, Workload::ycsb_a(1000.0)),
            (5, Workload::tpch(1.0)),
        ]);
        assert_eq!(s.len(), 20);
        assert_eq!(s.at(0).kind, WorkloadKind::YcsbC);
        assert_eq!(s.at(9).kind, WorkloadKind::YcsbC);
        assert_eq!(s.at(10).kind, WorkloadKind::YcsbA);
        assert_eq!(s.at(14).kind, WorkloadKind::YcsbA);
        assert_eq!(s.at(15).kind, WorkloadKind::Tpch);
        // Past the end: final phase persists.
        assert_eq!(s.at(999).kind, WorkloadKind::Tpch);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_rejected() {
        let _ = WorkloadSchedule::new(vec![]);
    }

    #[test]
    fn kind_names_unique() {
        let names: std::collections::BTreeSet<&str> =
            WorkloadKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), WorkloadKind::all().len());
    }

    #[test]
    fn serde_roundtrip() {
        let w = Workload::tpcc(900.0).at_scale(3.0);
        let json = serde_json::to_string(&w).unwrap();
        let back: Workload = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }
}
