//! Deterministic scoped-thread fan-out for the encoder hot paths.
//!
//! The perceptual encoder processes a frame as an ordered list of
//! independent tiles, so its parallel path is one primitive: split the
//! work-list into contiguous chunks, process the chunks on scoped worker
//! threads, and stitch the results back together *in order*. Because every item is processed by a pure function and the
//! output order is the input order, the parallel result is bit-identical
//! to the sequential one — the property the round-trip tests pin down.
//!
//! The implementation uses [`std::thread::scope`], so it needs no external
//! runtime (the environment cannot fetch `rayon`; this module is the
//! drop-in stand-in and the single place to swap a work-stealing pool in
//! later).
//!
//! # Examples
//!
//! ```
//! let squares = pvc_parallel::parallel_chunk_map_init(&[1u64, 2, 3, 4], 2, || (), |(), chunk| {
//!     chunk.iter().map(|&x| x * x).collect()
//! });
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Smallest number of items per worker for which spawning threads can pay
/// off; below `threads * MIN_ITEMS_PER_THREAD` items the map runs inline.
pub const MIN_ITEMS_PER_THREAD: usize = 2;

/// Maps `f` over contiguous chunks of `items` on up to `threads` scoped
/// worker threads, concatenating the per-chunk outputs in input order.
/// Each worker thread first builds private state with `init` and reuses
/// it across every chunk it processes.
///
/// With `threads <= 1`, or when the work-list is too small to amortise
/// thread spawns, `f` runs once over all of `items` on the calling thread.
/// The output is identical in both paths whenever `f` maps each item
/// independently of how the list was chunked.
///
/// This is the scratch-buffer fan-out: per-tile adjustment wants one
/// `AdjustScratch`-style set of reusable buffers *per thread*, not per
/// tile. `init` runs once per worker (once total on the sequential path),
/// so the number of state constructions is bounded by `threads`, never by
/// `items.len()`.
///
/// # Panics
///
/// Propagates a panic from `init` or `f` (the scope joins all workers
/// first).
pub fn parallel_chunk_map_init<T, U, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[T]) -> Vec<U> + Sync,
{
    if threads <= 1 || items.len() < threads * MIN_ITEMS_PER_THREAD {
        return f(&mut init(), items);
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut results: Vec<Vec<U>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let init = &init;
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || f(&mut init(), chunk)))
            .collect();
        for handle in handles {
            results.push(handle.join().expect("parallel worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// The number of worker threads that saturates the current machine, for
/// callers that want a good default for the `threads` knob.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(x: &u32) -> u32 {
        x.wrapping_mul(2654435761)
    }

    /// Maps `f` item by item through the chunk primitive, the way a
    /// per-tile loop uses it.
    fn parallel_map_init<T: Sync, U: Send, S>(
        items: &[T],
        threads: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, &T) -> U + Sync,
    ) -> Vec<U> {
        parallel_chunk_map_init(items, threads, init, |state, chunk| {
            chunk.iter().map(|item| f(state, item)).collect()
        })
    }

    #[test]
    fn chunk_map_preserves_order_with_stateful_chunks() {
        let items: Vec<usize> = (0..777).collect();
        let out = parallel_chunk_map_init(
            &items,
            4,
            || (),
            |(), chunk| {
                let mut acc = Vec::with_capacity(chunk.len());
                for &x in chunk {
                    acc.push(x + 1);
                }
                acc
            },
        );
        assert_eq!(out, (1..=777).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_builds_state_once_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..500).collect();
        let inits = AtomicUsize::new(0);
        let out = parallel_map_init(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |scratch, &x| {
                // The scratch is genuinely reused: grow it once, then reuse
                // the capacity for every later item of the chunk.
                scratch.clear();
                scratch.extend_from_slice(&[x, x + 1]);
                scratch.iter().sum::<u64>()
            },
        );
        assert_eq!(out, (0..500).map(|x| 2 * x + 1).collect::<Vec<_>>());
        let constructed = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&constructed),
            "one state per worker, got {constructed}"
        );
    }

    #[test]
    fn map_init_matches_a_serial_map_for_every_thread_count() {
        let items: Vec<u32> = (0..1000).collect();
        let expected: Vec<u32> = items.iter().map(hash).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = parallel_map_init(&items, threads, || 0u32, |_, x| hash(x));
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn map_init_runs_inline_with_one_thread() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let items: Vec<u8> = (0..100).collect();
        let out = parallel_map_init(
            &items,
            1,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, &x| x,
        );
        assert_eq!(out, items);
        assert_eq!(inits.load(Ordering::Relaxed), 1, "sequential: one state");
    }

    #[test]
    fn small_inputs_run_inline() {
        let items = [1, 2, 3];
        assert_eq!(
            parallel_map_init(&items, 8, || (), |(), &x| x * 10),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u8; 0] = [];
        assert!(parallel_map_init(&items, 4, || (), |(), &x| x).is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items: Vec<u32> = (0..5).collect();
        assert_eq!(parallel_map_init(&items, 64, || (), |(), &x| x), items);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = parallel_map_init(
            &items,
            4,
            || (),
            |(), &x| {
                assert!(x < 60, "boom");
                x
            },
        );
    }
}
