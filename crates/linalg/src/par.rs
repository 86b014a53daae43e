//! Deterministic wave-parallel map over a slice.
//!
//! The autotuning hot paths (acquisition candidate scoring, marginal-
//! likelihood restarts) share the same shape: a batch of independent,
//! pure computations whose *results* must not depend on thread count or
//! interleaving. [`par_map`] encodes
//! that contract once: items are split into contiguous chunks, the caller
//! works the first chunk while one scoped thread works each of the others,
//! and outputs are concatenated in chunk order, so the returned vector is
//! always exactly `items.iter().map(f)` regardless of scheduling. Callers
//! that need a reduction (e.g. argmax) fold the returned vector
//! sequentially in index order.

use std::panic::resume_unwind;

/// Maps `f` over `items` on the calling thread and scoped threads,
/// returning outputs in input order.
///
/// `f` is called with `(index, &item)` exactly once per item. The items
/// are cut into one contiguous chunk per hardware thread; the caller maps
/// the first chunk itself and a scoped thread maps each other one. Falls
/// back to a plain sequential map when there are fewer than
/// `min_parallel` items or the host reports a single hardware thread, so
/// tiny batches don't pay thread spawn costs.
///
/// # Determinism
/// `f` must be pure with respect to ordering: it may not mutate shared
/// state or consume an RNG stream whose draw order matters. Under that
/// contract the output is bitwise identical to the sequential map for any
/// thread count.
///
/// # Panics
/// Propagates a panic from any chunk, the caller's included.
pub fn par_map<T, R, F>(items: &[T], min_parallel: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_map_threads(items, min_parallel, threads, f)
}

/// [`par_map`] with an explicit thread count instead of the host's
/// reported parallelism, so the tests can hold the output bitwise
/// identical for every `threads` value, including 1. A worker's panic is
/// re-raised with its original payload (the first panicking chunk in
/// chunk order).
fn par_map_threads<T, R, F>(items: &[T], min_parallel: usize, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads < 2 || items.len() < min_parallel.max(2) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    let run = |ci: usize, slice: &[T]| -> Vec<R> {
        slice
            .iter()
            .enumerate()
            .map(|(j, t)| f(ci * chunk + j, t))
            .collect()
    };
    std::thread::scope(|scope| {
        let run = &run;
        let (first, rest) = items.split_at(chunk);
        let handles: Vec<_> = rest
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| scope.spawn(move || run(ci + 1, slice)))
            .collect();
        // The caller works the first chunk instead of idling in `join`; a
        // panic here leaves the scope after it has joined the others, so
        // the first panicking chunk in chunk order is still the one raised.
        let mut out = run(0, first);
        for h in handles {
            out.extend(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        out
    })
}

/// Sums floats strictly left-to-right in index order.
///
/// Float addition is not associative, so a reduction whose grouping
/// depends on chunking or thread count is not byte-stable. This helper
/// (and [`ordered_mean`]) is the blessed way to reduce [`par_map`]
/// output — the lint's D11 rule rejects ad-hoc `.sum()`/captured `+=`
/// accumulation inside `par_map*` closures. The map stays parallel; the
/// fold is sequential and O(n), which is never the hot part.
pub fn ordered_sum(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Arithmetic mean via [`ordered_sum`]; `0.0` for an empty slice.
pub fn ordered_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    ordered_sum(xs) / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_sum_is_left_to_right() {
        // A sequence engineered so grouping changes the rounding: the
        // left-to-right fold must match the manual sequential fold
        // bit-for-bit.
        let xs: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1e16 } else { 1.0 })
            .collect();
        let mut want = 0.0;
        for &x in &xs {
            want += x;
        }
        assert_eq!(ordered_sum(&xs).to_bits(), want.to_bits());
    }

    #[test]
    fn ordered_mean_handles_empty() {
        assert_eq!(ordered_mean(&[]), 0.0);
        assert_eq!(ordered_mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn ordered_sum_of_par_map_output_is_thread_invariant() {
        let items: Vec<f64> = (0..513).map(|i| (i as f64).sin() * 1e8).collect();
        let base = ordered_sum(&par_map_threads(&items, 2, 1, |_, x| x * 1.000001));
        for threads in [2, 3, 8] {
            let got = ordered_sum(&par_map_threads(&items, 2, threads, |_, x| x * 1.000001));
            assert_eq!(got.to_bits(), base.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn matches_sequential_map_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        let par = par_map(&items, 2, |i, x| x * 3 + i as u64);
        assert_eq!(par, seq);
    }

    #[test]
    fn small_batches_stay_sequential_and_identical() {
        for n in 0..8usize {
            let items: Vec<usize> = (0..n).collect();
            let got = par_map(&items, 64, |i, x| (i, *x));
            let want: Vec<(usize, usize)> =
                items.iter().enumerate().map(|(i, x)| (i, *x)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let idx = par_map(&items, 2, |i, _| i);
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn thread_cap_never_changes_output() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x.wrapping_mul(31) ^ i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_threads(&items, 2, threads, |i, x| x.wrapping_mul(31) ^ i as u64);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn the_caller_maps_the_first_chunk() {
        let items: Vec<u32> = (0..10).collect();
        let ids = par_map_threads(&items, 2, 3, |_, _| std::thread::current().id());
        let me = std::thread::current().id();
        // Chunks of 4, 4 and 2: the caller's, then two scoped threads'.
        assert!(ids[..4].iter().all(|id| *id == me));
        assert!(ids[4..].iter().all(|id| *id != me));
        assert_ne!(ids[4], ids[8]);
    }

    #[test]
    #[should_panic(expected = "first")]
    fn a_panic_in_the_callers_chunk_wins() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map_threads(&items, 2, 4, |_, x| {
            assert!(*x != 0, "first");
            assert!(*x != 63, "last");
            *x
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, 2, |_, x| {
            assert!(*x < 63, "boom");
            *x
        });
    }
}
