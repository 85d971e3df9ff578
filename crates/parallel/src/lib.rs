//! Std-only deterministic scoped parallelism.
//!
//! Every structure in this workspace promises *bit-for-bit identical output
//! at any thread count*: the engine's `run_batch` established the discipline
//! for queries, and the build path follows it here. The helpers in this
//! crate make that easy to uphold, because they only ever parallelize work
//! whose result is a pure function of the input partition:
//!
//! * [`map_slices`] splits a slice into **contiguous chunks in order**,
//!   runs one scoped worker per chunk (`std::thread::scope`), and
//!   concatenates the results **in chunk order**; [`map_indexed`] deals an
//!   index range out to the workers round-robin and puts the results back
//!   **in index order** — so the output is exactly the serial output
//!   regardless of how the OS schedules the workers;
//! * nested calls run serially (a thread spawned by one helper never spawns
//!   more), so fan-out is bounded by one level and builders can compose
//!   freely — a helper called inside another runs inline on its worker.
//!
//! How many workers the helpers use is controlled by the process-wide
//! [`set_build_threads`] knob (default: [`available_parallelism`]). The
//! knob only moves chunk boundaries, never results, so it is safe to flip
//! at any time — benches sweep it to measure build scaling.
//!
//! The crate also owns [`ThreadPool`], the fixed worker pool the serving
//! engine dispatches query batches on (hoisted here so the build and serve
//! layers share one threading substrate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::ThreadPool;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Per-chunk wall time of the fork/join helpers. Each worker times its own
/// chunk, so the histogram shows the balance of the split (a wide spread
/// means chunk sizes or per-item costs are skewed). Recording is atomic and
/// commutative, so totals are identical at any thread count.
static CHUNK_NS: fairnn_obs::LazyHistogram = fairnn_obs::LazyHistogram::new(
    "parallel_chunk_ns",
    "per-chunk wall time of the fork/join build helpers in nanoseconds",
);

/// Process-wide build-parallelism knob; 0 means "auto" (use
/// [`available_parallelism`]).
static BUILD_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on worker threads spawned by the helpers below, so nested calls
    /// run serially instead of oversubscribing the machine.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Number of hardware threads (1 when the query fails).
#[expect(clippy::disallowed_methods, reason = "the core-count knob")]
pub fn available_parallelism() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the number of worker threads construction helpers may use.
/// `0` restores the default (one per hardware thread). Because every helper
/// is deterministic, changing this never changes any build output — only
/// how fast it is produced.
pub fn set_build_threads(threads: usize) {
    BUILD_THREADS.store(threads, Ordering::Relaxed);
}

/// The resolved build-parallelism level (the knob, or the hardware thread
/// count when the knob is unset).
pub fn build_threads() -> usize {
    match BUILD_THREADS.load(Ordering::Relaxed) {
        0 => available_parallelism(),
        n => n,
    }
}

/// Whether the current thread is already a helper worker (nested calls run
/// serially).
fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

/// Balanced contiguous chunk boundaries: `len` items over at most
/// `build_threads()` chunks of at least `min_per_chunk` items each.
/// Returns `(start, end)` pairs covering `0..len` in order.
fn chunk_bounds(len: usize, min_per_chunk: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let max_chunks = len / min_per_chunk.max(1);
    let chunks = build_threads().min(max_chunks).max(1);
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let end = start + base + usize::from(i < extra);
        bounds.push((start, end));
        start = end;
    }
    bounds
}

/// Runs `f` over balanced contiguous sub-ranges of `0..len` — in parallel
/// when more than one chunk is warranted — and returns the per-chunk
/// results **in range order**. With `f` a pure function of its range, the
/// concatenated output is identical at every thread count.
///
/// `min_per_chunk` bounds the split so tiny inputs are not smeared across
/// threads (spawn latency would dominate).
#[expect(clippy::disallowed_methods, reason = "the thread substrate")]
pub fn map_ranges<R, F>(len: usize, min_per_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let bounds = chunk_bounds(len, min_per_chunk);
    if bounds.len() <= 1 || in_parallel_region() {
        return bounds
            .into_iter()
            .map(|(start, end)| {
                let _timer = fairnn_obs::Timer::start(&CHUNK_NS);
                f(start..end)
            })
            .collect();
    }
    thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|(start, end)| {
                scope.spawn(move || {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    let _timer = fairnn_obs::Timer::start(&CHUNK_NS);
                    f(start..end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel build worker panicked"))
            .collect()
    })
}

/// The slice form of [`map_ranges`]: runs `f(start, &items[start..end])`
/// over balanced contiguous chunks of `items` and returns the per-chunk
/// results in chunk order.
pub fn map_slices<T, R, F>(items: &[T], min_per_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    map_ranges(items.len(), min_per_chunk, |range| {
        f(range.start, &items[range])
    })
}

/// Maps `f` over `0..len` on parallel workers, returning the results in
/// index order. This is the per-item form of [`map_ranges`] for work keyed
/// by an index (one LSH table, one snapshot section). Of `k` workers,
/// worker `w` takes the items `w, w + k, w + 2k, …`, so a run of costly
/// items next to a run of cheap ones (the sections of a large part next to
/// those of a small one) still spreads over every worker.
pub fn map_indexed<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = chunk_bounds(len, 1).len().max(1);
    let lanes = map_ranges(workers, 1, |lanes| {
        lanes
            .map(|lane| (lane..len).step_by(workers).map(&f).collect::<Vec<R>>())
            .collect::<Vec<_>>()
    });
    let mut lanes: Vec<_> = lanes.into_iter().flatten().map(Vec::into_iter).collect();
    (0..len)
        .map(|i| {
            lanes[i % workers]
                .next()
                .expect("lane `i % workers` holds item `i`")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The knob is process-global; tests that sweep it take this lock so
    /// they do not observe each other's settings.
    static KNOB: Mutex<()> = Mutex::new(());

    #[test]
    fn knob_roundtrips_and_zero_means_auto() {
        let _guard = KNOB.lock().unwrap();
        set_build_threads(3);
        assert_eq!(build_threads(), 3);
        set_build_threads(0);
        assert_eq!(build_threads(), available_parallelism());
    }

    #[test]
    fn chunk_bounds_cover_the_range_in_order() {
        let _guard = KNOB.lock().unwrap();
        set_build_threads(4);
        let bounds = chunk_bounds(10, 1);
        assert!(bounds.len() <= 4);
        assert_eq!(bounds.first().map(|b| b.0), Some(0));
        assert_eq!(bounds.last().map(|b| b.1), Some(10));
        for pair in bounds.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "chunks must be contiguous");
        }
        assert!(chunk_bounds(0, 1).is_empty());
        // A large minimum collapses to one chunk.
        assert_eq!(chunk_bounds(10, 100), vec![(0, 10)]);
        set_build_threads(0);
    }

    #[test]
    fn map_slices_is_order_preserving_at_every_thread_count() {
        let _guard = KNOB.lock().unwrap();
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<Vec<u64>> = vec![items.iter().map(|x| x * 3).collect()];
        let serial: Vec<u64> = serial.into_iter().flatten().collect();
        for threads in [1, 2, 5, 8] {
            set_build_threads(threads);
            let mapped: Vec<u64> = map_slices(&items, 1, |_, chunk| {
                chunk.iter().map(|x| x * 3).collect::<Vec<u64>>()
            })
            .into_iter()
            .flatten()
            .collect();
            assert_eq!(mapped, serial, "threads = {threads}");
        }
        set_build_threads(0);
    }

    #[test]
    fn map_indexed_preserves_index_order() {
        let _guard = KNOB.lock().unwrap();
        for threads in [1, 3, 8] {
            set_build_threads(threads);
            let out = map_indexed(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        set_build_threads(0);
        assert!(map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn nested_calls_run_serially_and_stay_correct() {
        let _guard = KNOB.lock().unwrap();
        set_build_threads(4);
        let outer: Vec<Vec<usize>> = map_indexed(6, |i| map_indexed(5, move |j| i * 10 + j));
        for (i, inner) in outer.iter().enumerate() {
            assert_eq!(inner, &(0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
        set_build_threads(0);
    }
}
