//! Counters and log-bucketed histograms over the campaign event stream.

use super::{OptEvent, Subscriber};
use crate::executor::{TrialEvent, TrialOutcome};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Number of power-of-two buckets a [`LogHistogram`] keeps.
const N_BUCKETS: usize = 96;
/// Bucket index of 2^0: exponents from -48 to +47 are representable,
/// covering nanoseconds-as-ns and campaign-days-as-seconds alike.
const EXP_OFFSET: i32 = 48;

/// A histogram with power-of-two ("log-bucketed") buckets, the classic
/// cheap shape for latency-like quantities spanning many decades. Bucket
/// `i` holds values in `[2^(i-48), 2^(i-47))`; zero and negative values
/// land in the bottom bucket. Exact `min`/`max`/`sum` ride alongside, so
/// means are exact and only quantiles are bucket-resolution approximate.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; N_BUCKETS],
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl LogHistogram {
    /// Bucket index for a value.
    fn bucket(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        (v.log2().floor() as i32 + EXP_OFFSET).clamp(0, N_BUCKETS as i32 - 1) as usize
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the geometric midpoint of the
    /// bucket containing the rank, clamped to the exact min/max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = f64::powi(2.0, i as i32 - EXP_OFFSET);
                return (lo * 1.5).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The rolled-up measurement of one (or several merged) campaign runs:
/// a campaign's whole accounting. Produced by
/// [`MetricsCollector::snapshot`]; returned by
/// [`Campaign::run`](crate::executor::Campaign::run) and carried on
/// [`SessionSummary`](crate::SessionSummary).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Trials suggested (dispatched).
    pub n_suggested: u64,
    /// Trials that began executing.
    pub n_started: u64,
    /// Trials finished cleanly.
    pub n_finished: u64,
    /// Trials that crashed the system under test.
    pub n_crashed: u64,
    /// Trials cut short by censoring middleware.
    pub n_aborted: u64,
    /// Trials lost to infrastructure with retries exhausted.
    pub n_transient: u64,
    /// Retry attempts across all trials.
    pub n_retries: u64,
    /// Machine quarantine entries.
    pub n_quarantines: u64,
    /// Machine probation releases.
    pub n_releases: u64,
    /// Rung promotions.
    pub n_promotions: u64,
    /// Surrogate hyperparameter refits.
    pub n_refits: u64,
    /// In-place O(n²) surrogate updates (incremental alternative to refits).
    pub n_model_updates: u64,
    /// Source polls that returned `Wait` (slot idle on a barrier).
    pub n_wait_polls: u64,
    /// Per-trial charged benchmark seconds.
    pub trial_latency_s: LogHistogram,
    /// Virtual seconds between suggestion and execution start.
    pub queue_wait_s: LogHistogram,
    /// Real nanoseconds per dispatched suggestion (0s without a timer).
    pub suggest_ns: LogHistogram,
    /// Real nanoseconds per outcome observation (0s without a timer).
    pub observe_ns: LogHistogram,
    /// Total real tuner nanoseconds, including `Wait` polls.
    pub tuner_wall_ns: u64,
    /// Busy benchmark seconds per machine id (fleet campaigns).
    pub machine_busy_s: BTreeMap<usize, f64>,
    /// Virtual wall clock covered by this snapshot, seconds.
    pub wall_clock_s: f64,
    /// Benchmark seconds saved by censoring middleware.
    pub saved_s: f64,
    /// Distinct machines quarantined at least once.
    pub quarantined_machines: BTreeSet<usize>,
}

impl MetricsSnapshot {
    /// Trials finalized (one latency sample each).
    pub fn n_trials(&self) -> u64 {
        self.trial_latency_s.count()
    }

    /// Total machine-seconds consumed (the bill).
    pub fn machine_seconds(&self) -> f64 {
        self.trial_latency_s.sum()
    }

    /// Busy fraction of one machine over the campaign's wall clock.
    fn machine_utilization(&self, machine_id: usize) -> f64 {
        if self.wall_clock_s <= 0.0 {
            return 0.0;
        }
        self.machine_busy_s.get(&machine_id).copied().unwrap_or(0.0) / self.wall_clock_s
    }

    /// Mean busy fraction across all machines that ran at least one trial.
    fn fleet_utilization(&self) -> f64 {
        if self.machine_busy_s.is_empty() || self.wall_clock_s <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.machine_busy_s.values().sum();
        busy / (self.wall_clock_s * self.machine_busy_s.len() as f64)
    }

    /// Folds another snapshot into this one (wall clocks add: the merged
    /// snapshot covers the concatenation of both campaigns).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.n_suggested += other.n_suggested;
        self.n_started += other.n_started;
        self.n_finished += other.n_finished;
        self.n_crashed += other.n_crashed;
        self.n_aborted += other.n_aborted;
        self.n_transient += other.n_transient;
        self.n_retries += other.n_retries;
        self.n_quarantines += other.n_quarantines;
        self.n_releases += other.n_releases;
        self.n_promotions += other.n_promotions;
        self.n_refits += other.n_refits;
        self.n_model_updates += other.n_model_updates;
        self.n_wait_polls += other.n_wait_polls;
        self.trial_latency_s.merge(&other.trial_latency_s);
        self.queue_wait_s.merge(&other.queue_wait_s);
        self.suggest_ns.merge(&other.suggest_ns);
        self.observe_ns.merge(&other.observe_ns);
        self.tuner_wall_ns += other.tuner_wall_ns;
        for (m, s) in &other.machine_busy_s {
            *self.machine_busy_s.entry(*m).or_insert(0.0) += s;
        }
        self.wall_clock_s += other.wall_clock_s;
        self.saved_s += other.saved_s;
        self.quarantined_machines
            .extend(&other.quarantined_machines);
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trials: {} suggested, {} finished, {} crashed, {} aborted, {} transient",
            self.n_suggested, self.n_finished, self.n_crashed, self.n_aborted, self.n_transient
        )?;
        writeln!(
            f,
            "resilience: {} retries, {} quarantines, {} releases",
            self.n_retries, self.n_quarantines, self.n_releases
        )?;
        writeln!(
            f,
            "trial latency s: mean {:.2} p50 {:.2} p95 {:.2} max {:.2}",
            self.trial_latency_s.mean(),
            self.trial_latency_s.quantile(0.5),
            self.trial_latency_s.quantile(0.95),
            self.trial_latency_s.max()
        )?;
        writeln!(
            f,
            "tuner overhead: suggest mean {:.3} ms (p95 {:.3}), observe mean {:.3} ms, \
             {} refits, {} incremental updates, {:.1} ms total",
            self.suggest_ns.mean() / 1e6,
            self.suggest_ns.quantile(0.95) / 1e6,
            self.observe_ns.mean() / 1e6,
            self.n_refits,
            self.n_model_updates,
            self.tuner_wall_ns as f64 / 1e6
        )?;
        if !self.machine_busy_s.is_empty() {
            let util: Vec<String> = self
                .machine_busy_s
                .keys()
                .map(|m| format!("m{m} {:.0}%", 100.0 * self.machine_utilization(*m)))
                .collect();
            writeln!(
                f,
                "fleet: {} (mean {:.0}%)",
                util.join(" "),
                100.0 * self.fleet_utilization()
            )?;
        }
        write!(
            f,
            "wall clock {:.0} s, queue wait mean {:.2} s",
            self.wall_clock_s,
            self.queue_wait_s.mean()
        )
    }
}

/// A [`Subscriber`] rolling the event stream up into a
/// [`MetricsSnapshot`]. One instance is always attached inside the
/// campaign ([`Campaign::metrics`](crate::executor::Campaign::metrics)
/// reads it); attach your own to aggregate across runs or to inspect
/// metrics mid-campaign.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    snap: MetricsSnapshot,
    /// Suggestion time per in-flight trial id, for queue-wait stamping.
    suggested_at: BTreeMap<u64, f64>,
    last_refits: u64,
    last_updates: u64,
}

impl MetricsCollector {
    /// A fresh collector.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// The rolled-up metrics so far. `wall_clock_s` reflects the last
    /// event's virtual time until the campaign ends.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snap.clone()
    }
}

impl Subscriber for MetricsCollector {
    fn name(&self) -> &str {
        "metrics"
    }

    fn on_trial_event(&mut self, at_s: f64, event: &TrialEvent) {
        self.snap.wall_clock_s = self.snap.wall_clock_s.max(at_s);
        match event {
            TrialEvent::Suggested { id, .. } => {
                self.snap.n_suggested += 1;
                self.suggested_at.insert(*id, at_s);
            }
            TrialEvent::Started {
                id, at_s: start, ..
            } => {
                self.snap.n_started += 1;
                if let Some(sug) = self.suggested_at.remove(id) {
                    self.snap.queue_wait_s.record(start - sug);
                }
            }
            TrialEvent::Finished { .. } => self.snap.n_finished += 1,
            TrialEvent::Crashed { .. } => self.snap.n_crashed += 1,
            TrialEvent::Aborted { saved_s, .. } => {
                self.snap.n_aborted += 1;
                self.snap.saved_s += saved_s;
            }
            TrialEvent::FailedTransient { .. } => self.snap.n_transient += 1,
            TrialEvent::Retried { .. } => self.snap.n_retries += 1,
            TrialEvent::Quarantined { machine_id } => {
                self.snap.n_quarantines += 1;
                self.snap.quarantined_machines.insert(*machine_id);
            }
            TrialEvent::Released { .. } => self.snap.n_releases += 1,
            TrialEvent::Promoted { .. } => self.snap.n_promotions += 1,
        }
    }

    fn on_opt_event(&mut self, _at_s: f64, event: &OptEvent) {
        match event {
            OptEvent::SuggestEnd {
                wall_ns,
                dispatched,
                ..
            } => {
                self.snap.tuner_wall_ns += wall_ns;
                if *dispatched {
                    self.snap.suggest_ns.record(*wall_ns as f64);
                } else {
                    self.snap.n_wait_polls += 1;
                }
            }
            OptEvent::ObserveEnd { wall_ns, .. } => {
                self.snap.tuner_wall_ns += wall_ns;
                self.snap.observe_ns.record(*wall_ns as f64);
            }
            OptEvent::SurrogateRefit { n_refits, .. } => {
                let n = *n_refits as u64;
                self.snap.n_refits += n.saturating_sub(self.last_refits);
                self.last_refits = n;
            }
            OptEvent::ModelUpdate { n_updates, .. } => {
                let n = *n_updates as u64;
                self.snap.n_model_updates += n.saturating_sub(self.last_updates);
                self.last_updates = n;
            }
            OptEvent::SuggestBegin { .. } | OptEvent::ObserveBegin { .. } => {}
        }
    }

    fn on_outcome(&mut self, at_s: f64, outcome: &TrialOutcome) {
        self.snap.wall_clock_s = self.snap.wall_clock_s.max(at_s);
        self.snap.trial_latency_s.record(outcome.elapsed_s);
        if let Some(m) = outcome.machine_id {
            *self.snap.machine_busy_s.entry(m).or_insert(0.0) += outcome.elapsed_s;
        }
    }

    fn on_campaign_end(&mut self, at_s: f64) {
        self.snap.wall_clock_s = self.snap.wall_clock_s.max(at_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max_exact() {
        let mut h = LogHistogram::default();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 3.75).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8.0);
    }

    #[test]
    fn histogram_quantiles_bucket_resolution() {
        let mut h = LogHistogram::default();
        for _ in 0..99 {
            h.record(1.0);
        }
        h.record(1000.0);
        // p50 lands in the 1.0 bucket, p100 in the tail bucket.
        assert!(h.quantile(0.5) < 2.0);
        assert!(h.quantile(1.0) > 500.0);
        // Quantiles never escape the observed range.
        assert!(h.quantile(0.0) >= 1.0);
        assert!(h.quantile(1.0) <= 1000.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 100.0);
        assert!((a.sum() - 101.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_handles_zero_and_nonfinite() {
        let mut h = LogHistogram::default();
        h.record(0.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 2);
        // Both land in the bottom bucket without panicking.
        assert!(h.quantile(0.5).is_finite() || h.quantile(0.5).is_infinite());
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = LogHistogram::default();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "empty histogram quantile({q})");
        }
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample() {
        let mut h = LogHistogram::default();
        h.record(7.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 7.0, "single-sample quantile({q})");
        }
    }

    #[test]
    fn utilization_is_zero_when_wall_clock_is_zero() {
        // A campaign observed only under NullTimer and zero virtual time
        // (e.g. snapshot taken before any event) must report 0 utilization,
        // never NaN from busy/0.
        let mut snap = MetricsSnapshot::default();
        snap.machine_busy_s.insert(0, 5.0);
        assert_eq!(snap.wall_clock_s, 0.0);
        assert_eq!(snap.machine_utilization(0), 0.0);
        assert_eq!(snap.fleet_utilization(), 0.0);
        assert!(!format!("{snap}").contains("NaN"));
    }

    #[test]
    fn model_update_events_count_deltas() {
        let mut c = MetricsCollector::new();
        c.on_opt_event(
            0.0,
            &OptEvent::ModelUpdate {
                id: 0,
                n_updates: 1,
            },
        );
        c.on_opt_event(
            0.0,
            &OptEvent::ModelUpdate {
                id: 1,
                n_updates: 4,
            },
        );
        // Replays of the same cumulative counter add nothing.
        c.on_opt_event(
            0.0,
            &OptEvent::ModelUpdate {
                id: 2,
                n_updates: 4,
            },
        );
        assert_eq!(c.snapshot().n_model_updates, 4);
        let other = MetricsSnapshot {
            n_model_updates: 3,
            ..Default::default()
        };
        let mut snap = c.snapshot();
        snap.merge(&other);
        assert_eq!(snap.n_model_updates, 7);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let mut a = MetricsSnapshot {
            n_suggested: 3,
            wall_clock_s: 10.0,
            ..Default::default()
        };
        a.machine_busy_s.insert(0, 5.0);
        let mut b = MetricsSnapshot {
            n_suggested: 2,
            wall_clock_s: 10.0,
            ..Default::default()
        };
        b.machine_busy_s.insert(0, 15.0);
        a.merge(&b);
        assert_eq!(a.n_suggested, 5);
        assert_eq!(a.wall_clock_s, 20.0);
        assert!((a.machine_utilization(0) - 1.0).abs() < 1e-12);
    }
}
