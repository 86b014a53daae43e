//! Machine-speed calibration.
//!
//! The boxes this benchmark runs on are shared: the same single-threaded
//! code runs up to half as fast again from one ten-second window to the
//! next, and CPU time follows wall time, so no amount of repetition inside
//! a run steadies a raw timing (README, "Noise floor"). Every timed
//! interval is therefore bracketed by two runs of a fixed *calibration
//! kernel*, and its time is scaled by how much slower or faster than
//! [`NOMINAL_S`] the kernel ran around it. A reported time reads "seconds
//! on a machine where the kernel takes `NOMINAL_S`".
//!
//! The kernel lives here, not in the program under test, so a change to
//! the program cannot move it. Its mix follows the serving and bookkeeping
//! code: number formatting and parsing, small allocations, ordered-map
//! inserts. It runs on one thread for every workload, also for the tuning
//! workloads with their two registry workers: two 20 ms kernel threads
//! started together take 22 ms or 40 ms with where the host puts the two
//! vCPUs, for minutes at a time, while the raw rate of those workloads does
//! not move (README, "Noise floor"). A kernel with the surrogate's dense
//! arithmetic steadied no workload better.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// What one kernel run takes on the reference machine, in seconds.
pub const NOMINAL_S: f64 = 0.020;

const ITEMS: usize = 70_000;

/// The fixed work. Returns a value that depends on all of it.
fn kernel() -> u64 {
    let mut acc = 0u64;
    let mut map: BTreeMap<String, f64> = BTreeMap::new();
    let mut buf = String::new();
    for i in 0..ITEMS {
        let x = ((i as f64) * 0.37 + 1.5).sin() * 1e3;
        buf.clear();
        write!(buf, "{{\"k{}\":{x}}}", i % 512).expect("writing to a String");
        let colon = buf.find(':').expect("the colon written above");
        let v: f64 = buf[colon + 1..buf.len() - 1]
            .parse()
            .expect("the number written above");
        map.insert(buf[2..colon - 1].to_string(), v);
        let features: Vec<f64> = (0..12).map(|j| v + j as f64).collect();
        acc ^= features.iter().fold(0, |a, f| a ^ f.to_bits());
    }
    acc ^ map.len() as u64
}

/// Seconds one kernel run takes right now.
fn slice_s() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// How fast the machine ran around an interval: the factor that scales a
/// time measured in it to the reference machine.
#[derive(Debug, Clone, Copy)]
pub struct Speed(pub f64);

impl Speed {
    /// A time measured in the interval, on the reference machine.
    pub fn time(&self, measured: f64) -> f64 {
        self.0 * measured
    }

    /// A rate measured in the interval, on the reference machine.
    pub fn rate(&self, measured: f64) -> f64 {
        measured / self.0
    }
}

/// Brackets timed intervals with kernel runs. Consecutive intervals share
/// the run between them.
pub struct Pace {
    last_s: Cell<f64>,
}

impl Pace {
    pub fn new() -> Self {
        // The first run also pages the kernel's memory in.
        slice_s();
        Pace {
            last_s: Cell::new(slice_s()),
        }
    }

    /// Runs `f` and returns its result with the speed of the machine
    /// around it.
    pub fn around<T>(&self, f: impl FnOnce() -> T) -> (T, Speed) {
        let before = self.last_s.get();
        let out = f();
        (out, self.speed_since(before))
    }

    /// Opens an interval with a fresh kernel run, for a caller that cannot
    /// hand its work over as a closure; close it with
    /// [`Pace::speed_since`].
    pub fn mark(&self) -> f64 {
        let now = slice_s();
        self.last_s.set(now);
        now
    }

    /// The speed over the interval that began with the kernel run `before`.
    pub fn speed_since(&self, before: f64) -> Speed {
        let after = slice_s();
        self.last_s.set(after);
        Speed(NOMINAL_S / ((before + after) / 2.0))
    }
}

/// The `q`-quantile, in nanoseconds on the reference machine, of the
/// latencies of consecutive intervals, each scaled by its own speed: one
/// value per *batch*, a batch being as many intervals as it takes for the
/// pool to support the percentile. Intervals left over at the end join no
/// batch; no value at all means the run was too short for the percentile.
pub fn batched_percentile<T>(
    items: &[T],
    latencies: impl Fn(&T) -> (&[u64], Speed),
    q: f64,
) -> Vec<f64> {
    let mut values = Vec::new();
    let mut pool: Vec<u64> = Vec::new();
    for item in items {
        let (ns, speed) = latencies(item);
        pool.extend(ns.iter().map(|&ns| speed.time(ns as f64) as u64));
        if let Some(ns) = crate::stats::percentile(&mut pool, q) {
            values.push(ns as f64);
            pool.clear();
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_the_speed_is_usable() {
        assert_eq!(kernel(), kernel());
        let pace = Pace::new();
        let ((), speed) = pace.around(|| ());
        assert!(speed.0.is_finite() && speed.0 > 0.0);
        assert_eq!(speed.rate(speed.time(3.0)), 3.0);
    }

    #[test]
    fn batches_grow_until_they_support_the_percentile() {
        let items = [
            (vec![10u64; 600], Speed(1.0)),
            (vec![10u64; 600], Speed(3.0)),
            (vec![10u64; 600], Speed(1.0)),
        ];
        let p = |q| batched_percentile(&items, |(ns, speed)| (ns, *speed), q);
        // One interval supports its median: three batches, each scaled.
        assert_eq!(p(0.5), [10.0, 30.0, 10.0]);
        // p99 needs 1 000 samples: the first two intervals make a batch,
        // the third is left over.
        assert_eq!(p(0.99), [30.0]);
        assert!(p(0.999).is_empty());
    }
}
