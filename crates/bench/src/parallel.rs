//! Deterministic scenario fan-out over std scoped threads.
//!
//! Every simulation in this repo is an independent deterministic machine,
//! so a sweep over N scenarios parallelizes trivially — *provided the
//! harness cannot reorder results*. This runner guarantees that: work
//! items are pulled from a shared queue by worker threads (as many as
//! the host offers, capped by the item count), and each result is
//! written back into the slot of its item's original index. The returned
//! `Vec` is therefore byte-identical to what a serial `map` over the
//! items would produce, for any worker count, including 1.
//!
//! The workspace builds hermetically (no rayon/crossbeam); `std::thread::scope`
//! plus a `Mutex<VecDeque>` work queue is all that is needed.

use std::collections::VecDeque;

/// Number of workers for `len` items: one per item up to the host's
/// available parallelism (minimum 1).
fn worker_count(len: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.min(len).max(1)
}

/// Map `worker` over `items` on a pool of scoped threads, returning the
/// results **in input order** (slot `i` holds `worker(&items[i])`).
///
/// `worker` must be deterministic per item for the output to be
/// reproducible — which is exactly the property every simulation here
/// has (seeds are derived from the item, never from wall clock or
/// thread identity).
///
/// # Panics
///
/// Propagates a panic from any worker thread (the first one observed).
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a lock and threads outside sim::par, order-safe: each result lands in its item's slot"
)]
pub fn run_indexed<T, R, F>(items: Vec<T>, worker: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::Mutex;

    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = worker_count(n);
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let item = queue.lock().expect("work queue poisoned").pop_front();
                    let Some((idx, item)) = item else { return };
                    let r = worker(&item);
                    results.lock().expect("result store poisoned")[idx] = Some(r);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("scenario worker panicked");
        }
    });
    results
        .into_inner()
        .expect("result store poisoned")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        // Skew the per-item runtimes so late items finish first on a
        // multi-core host; order must still be the input order.
        let items: Vec<u64> = (0..64).collect();
        let out = run_indexed(items, |&i| {
            let mut acc = i;
            for _ in 0..(64 - i) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        let serial: Vec<(u64, u64)> = (0..64u64)
            .map(|i| {
                let mut acc = i;
                for _ in 0..(64 - i) * 1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i, acc)
            })
            .collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_indexed(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline_shape() {
        let out = run_indexed(vec![41], |&x| x + 1);
        assert_eq!(out, vec![42]);
    }
}
