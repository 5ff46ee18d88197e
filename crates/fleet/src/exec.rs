//! Multi-threaded work scheduling over device slices.
//!
//! The fleet's workloads are embarrassingly parallel (per-device
//! attestation, per-device simulation slices), so a scoped-thread
//! chunked map is all the scheduler we need — no async runtime, no work
//! stealing. Results come back in input order.

use std::{panic, thread};

/// Maps `f` over `items` on up to `threads` worker threads, preserving
/// input order in the result.
///
/// With `threads <= 1` (or a single item) the map runs inline on the
/// caller's thread, which keeps single-core environments and tests
/// deterministic and profiler-friendly. A panicking item's payload is
/// re-raised on the caller's thread once every worker has finished.
pub fn parallel_map_mut<I, T, F>(items: &mut [I], threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(&mut I) -> T + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    if threads == 1 {
        return items.iter_mut().map(&f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk_size)
            .map(|chunk| scope.spawn(|| chunk.iter_mut().map(&f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_mutates() {
        let mut items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map_mut(&mut items, 4, |x| {
            *x *= 2;
            *x
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
        assert_eq!(items[99], 198);
    }

    #[test]
    fn handles_empty_and_single_thread() {
        let mut empty: Vec<u8> = vec![];
        assert!(parallel_map_mut(&mut empty, 4, |x| *x).is_empty());
        let mut one = vec![5u8];
        assert_eq!(parallel_map_mut(&mut one, 0, |x| *x + 1), vec![6]);
    }

    #[test]
    fn one_thread_runs_inline_and_a_worker_panic_keeps_its_message() {
        let caller = thread::current().id();
        let mut items = vec![1u8, 2, 3];
        let on_caller = parallel_map_mut(&mut items, 1, |_| thread::current().id() == caller);
        assert_eq!(on_caller, [true; 3]);

        let payload = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            parallel_map_mut(&mut items, 2, |x| {
                assert_ne!(thread::current().id(), caller);
                if *x == 3 {
                    panic!("item three failed");
                }
                *x
            })
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item three failed"));
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let mut items = vec![1u8, 2, 3];
        assert_eq!(parallel_map_mut(&mut items, 64, |x| *x), vec![1, 2, 3]);
    }
}
