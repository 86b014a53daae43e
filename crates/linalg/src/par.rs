//! Deterministic wave-parallel map over a slice.
//!
//! The autotuning hot paths (acquisition candidate scoring, marginal-
//! likelihood restarts, the serve registry's model-based campaigns)
//! share the same shape: a batch of independent computations whose
//! *results* must not depend on thread count or interleaving.
//! [`par_map`] and [`par_map_mut`] encode that contract once, through one
//! chunk driver: items are split into contiguous chunks, the caller
//! works the first chunk while one scoped thread works each of the
//! others, and outputs are concatenated in chunk order, so the returned
//! vector is always exactly the sequential map regardless of scheduling.
//! Callers that need a reduction (e.g. argmax) fold the returned vector
//! sequentially in index order.
//!
//! **One thread budget.** The host's thread count is read once per
//! process. While a thread works a chunk of any `par_map*` (the caller's
//! own chunk included), every `par_map*` nested inside it runs
//! sequentially on that thread, so a GP suggest inside a registry's
//! campaign task does not put a third thread on two cores. A drop guard
//! clears the mark when the chunk ends, unwinding included.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::OnceLock;

thread_local! {
    /// Whether this thread is working a `par_map*` chunk right now.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// Marks this thread as working a chunk until dropped, restoring what
/// it found (a panic unwinding out of the chunk included).
struct ChunkMark(bool);

impl ChunkMark {
    fn enter() -> Self {
        ChunkMark(IN_CHUNK.with(|c| c.replace(true)))
    }
}

impl Drop for ChunkMark {
    fn drop(&mut self) {
        IN_CHUNK.with(|c| c.set(self.0));
    }
}

/// The host's hardware threads, asked of the OS once per process (the
/// answer comes from cgroup files, about 12 µs a read).
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on the calling thread and scoped threads,
/// returning outputs in input order.
///
/// `f` is called with `(index, &item)` exactly once per item. The items
/// are cut into one contiguous chunk per hardware thread; the caller maps
/// the first chunk itself and a scoped thread maps each other one. Falls
/// back to a plain sequential map when there are fewer than
/// `min_parallel` items, the host reports a single hardware thread, or
/// the call is nested inside another `par_map*` chunk, so tiny batches
/// don't pay thread spawn costs and nested ones don't oversubscribe.
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
    par_map_threads(items, min_parallel, host_threads, f)
}

/// [`par_map`] over `&mut` items: `f` gets `(index, &mut item)` exactly
/// once per item, and may change its own item and nothing else. Same
/// chunking, same caller-works-the-first-chunk, same sequential fallbacks
/// and the same panic contract as [`par_map`].
pub fn par_map_mut<T, R, F>(items: &mut [T], min_parallel: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map_mut_threads(items, min_parallel, host_threads, f)
}

/// [`par_map`] with the thread count asked of `threads` instead of the
/// host, so the tests can hold the output bitwise identical for every
/// value, including 1.
fn par_map_threads<T, R, F>(
    items: &[T],
    min_parallel: usize,
    threads: impl FnOnce() -> usize,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    drive(items, min_parallel, threads, <[T]>::chunks, |at, slice| {
        slice
            .iter()
            .enumerate()
            .map(|(j, t)| f(at + j, t))
            .collect()
    })
}

/// [`par_map_mut`] with the thread count asked of `threads`.
fn par_map_mut_threads<T, R, F>(
    items: &mut [T],
    min_parallel: usize,
    threads: impl FnOnce() -> usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    drive(
        items,
        min_parallel,
        threads,
        <[T]>::chunks_mut,
        |at, slice| {
            slice
                .iter_mut()
                .enumerate()
                .map(|(j, t)| f(at + j, t))
                .collect()
        },
    )
}

/// The one chunk driver. `map(at, chunk)` maps a chunk whose first item
/// has index `at`. It decides from the item count first, then the chunk
/// mark, and asks `threads` only when both allow a split. The caller
/// maps the first chunk and a scoped thread each other one; a worker's
/// panic is re-raised with its original payload (the first panicking
/// chunk in chunk order).
fn drive<'s, T: 's, S, C, R>(
    items: S,
    min_parallel: usize,
    threads: impl FnOnce() -> usize,
    split: impl FnOnce(S, usize) -> C,
    map: impl Fn(usize, S) -> Vec<R> + Sync,
) -> Vec<R>
where
    S: std::ops::Deref<Target = [T]> + Send,
    C: Iterator<Item = S>,
    R: Send,
{
    let n = items.len();
    if n < min_parallel.max(2) || IN_CHUNK.with(Cell::get) {
        return map(0, items);
    }
    let threads = threads();
    if threads < 2 {
        return map(0, items);
    }
    let chunk = n.div_ceil(threads.min(n));
    let work = |ci: usize, slice: S| {
        let _mark = ChunkMark::enter();
        map(ci * chunk, slice)
    };
    std::thread::scope(|scope| {
        let work = &work;
        let mut chunks = split(items, chunk);
        let first = chunks.next();
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(ci, slice)| scope.spawn(move || work(ci + 1, slice)))
            .collect();
        // The caller works the first chunk instead of idling in `join`; a
        // panic here leaves the scope after it has joined the others, so
        // the first panicking chunk in chunk order is still the one raised.
        let mut out = first.map_or_else(Vec::new, |slice| work(0, slice));
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
        let base = ordered_sum(&par_map_threads(&items, 2, || 1, |_, x| x * 1.000001));
        for threads in [2, 3, 8] {
            let got = ordered_sum(&par_map_threads(&items, 2, || threads, |_, x| x * 1.000001));
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
            let got = par_map_threads(&items, 2, || threads, |i, x| x.wrapping_mul(31) ^ i as u64);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn the_caller_maps_the_first_chunk() {
        let items: Vec<u32> = (0..10).collect();
        let ids = par_map_threads(&items, 2, || 3, |_, _| std::thread::current().id());
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
        let _ = par_map_threads(
            &items,
            2,
            || 4,
            |_, x| {
                assert!(*x != 0, "first");
                assert!(*x != 63, "last");
                *x
            },
        );
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

    #[test]
    fn the_thread_count_is_asked_only_for_a_split() {
        let asked = Cell::new(0);
        let count = || {
            asked.set(asked.get() + 1);
            2
        };
        let _ = par_map_threads(&[1, 2, 3], 4, count, |_, x| *x);
        assert_eq!(asked.get(), 0, "too few items to split");
        let _ = par_map_threads(&[1, 2, 3], 2, count, |_, x| *x);
        assert_eq!(asked.get(), 1);
    }

    #[test]
    fn par_map_mut_matches_the_sequential_map_for_every_thread_count() {
        let base: Vec<u64> = (0..257).collect();
        let mut want = base.clone();
        let want_out: Vec<u64> = want
            .iter_mut()
            .enumerate()
            .map(|(i, x)| {
                *x = x.wrapping_mul(31) ^ i as u64;
                *x + 1
            })
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let mut got = base.clone();
            let out = par_map_mut_threads(
                &mut got,
                2,
                || threads,
                |i, x| {
                    *x = x.wrapping_mul(31) ^ i as u64;
                    *x + 1
                },
            );
            assert_eq!(got, want, "items, threads={threads}");
            assert_eq!(out, want_out, "outputs, threads={threads}");
        }
    }

    #[test]
    fn par_map_mut_works_the_first_chunk_on_the_caller() {
        let mut items: Vec<Option<std::thread::ThreadId>> = vec![None; 10];
        let _ = par_map_mut_threads(
            &mut items,
            2,
            || 3,
            |_, slot| {
                *slot = Some(std::thread::current().id());
            },
        );
        let me = Some(std::thread::current().id());
        // Chunks of 4, 4 and 2: the caller's, then two scoped threads'.
        assert!(items[..4].iter().all(|id| *id == me));
        assert!(items[4..].iter().all(|id| *id != me));
        assert_ne!(items[4], items[8]);
    }

    #[test]
    #[should_panic(expected = "second chunk")]
    fn par_map_mut_raises_the_first_panicking_chunk() {
        let mut items: Vec<u32> = (0..64).collect();
        let _ = par_map_mut_threads(
            &mut items,
            2,
            || 4,
            |_, x| {
                assert!(!(16..32).contains(x), "second chunk");
                assert!(*x < 48, "fourth chunk");
                *x += 1;
            },
        );
    }

    #[test]
    fn a_nested_par_map_runs_on_its_chunks_thread_with_the_same_output() {
        let outer: Vec<u64> = (0..6).collect();
        let inner: Vec<u64> = (0..40).collect();
        let want: Vec<u64> = inner.iter().map(|x| x * 7).collect();
        let seen = par_map_threads(
            &outer,
            2,
            || 3,
            |_, _| {
                let me = std::thread::current().id();
                let ids = par_map_threads(&inner, 2, || 4, |_, _| std::thread::current().id());
                let out = par_map(&inner, 2, |_, x| x * 7);
                (ids.iter().all(|id| *id == me), out)
            },
        );
        for (on_chunk_thread, out) in seen {
            assert!(on_chunk_thread, "a nested par_map left its chunk's thread");
            assert_eq!(out, want);
        }
        // Outside any chunk the mark is clear again.
        let ids = par_map_threads(&inner, 2, || 2, |_, _| std::thread::current().id());
        assert_ne!(ids[0], ids[39]);
    }

    #[test]
    fn a_panic_in_the_callers_chunk_clears_the_mark() {
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_threads(
                &items,
                2,
                || 2,
                |_, x| {
                    assert!(*x != 0, "caller's chunk");
                    *x
                },
            )
        });
        assert!(caught.is_err());
        let ids = par_map_threads(&items, 2, || 2, |_, _| std::thread::current().id());
        assert_ne!(ids[0], ids[7], "the next par_map ran on one thread");
    }
}
