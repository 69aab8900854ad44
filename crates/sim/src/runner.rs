//! The parallel experiment engine: deterministic fan-out of simulation
//! cells across OS threads.
//!
//! The paper's evaluation is a large grid — benchmark suites × dozens of
//! prophet/critic configurations (Figure 6 alone sweeps 78 combinations) —
//! and every cell is an independent simulation: own program walker, own
//! hybrid, own BTB. That makes the grid embarrassingly parallel, and this
//! module exploits it with plain scoped threads (the container builds
//! offline, so no rayon):
//!
//! * [`try_par_map`] — the fault-isolating primitive: applies a closure to
//!   every item of a slice over a bounded worker pool, wrapping **each
//!   cell** in [`std::panic::catch_unwind`] so one panicking simulation
//!   becomes a recorded [`CellFailure`] (label, worker, panic payload)
//!   while every other cell still completes. Results come back **in input
//!   order** regardless of which thread finished when.
//! * [`par_map`] — the all-or-nothing wrapper: same engine, but any failed
//!   cell aborts the grid with a panic *naming the cell that died* instead
//!   of the old anonymous `expect("experiment worker panicked")`.
//! * [`default_threads`] — the worker count used when the caller does not
//!   pin one (`--threads` on the `experiments` binary, `THREADS` in the
//!   environment).
//!
//! Simulations are deterministic, so the surviving results are
//! bit-identical to a sequential run for any thread count — including
//! under injected faults (the set of failed cells depends only on the
//! fault plan, never on scheduling).
//!
//! The higher-level grid entry points
//! ([`run_matrix`](crate::experiments::common::run_matrix),
//! [`run_grid`](crate::experiments::common::run_grid),
//! [`cycle_grid`](crate::experiments::common::cycle_grid))
//! live in [`experiments::common`](crate::experiments::common), next to
//! the sequential reference
//! ([`pooled_accuracy_seq`](crate::experiments::common::pooled_accuracy_seq))
//! they must match bit-for-bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads to use when none are requested explicitly: the `THREADS`
/// environment variable if set, otherwise every available core.
#[must_use]
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One grid cell that panicked instead of producing a result.
///
/// `index` and `label` are deterministic for a given grid + fault plan;
/// `worker` is whichever thread happened to pick the cell up, so reports
/// that must be bit-identical across `--threads` settings include the
/// label but not the worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// Input-order index of the failed cell.
    pub index: usize,
    /// Human-readable cell label (e.g. `"16KB perceptron × gcc"`).
    pub label: String,
    /// Worker thread that ran the cell (0 for the inline path).
    pub worker: usize,
    /// The panic payload, downcast to a string where possible.
    pub reason: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell #{} '{}' (worker {}) panicked: {}",
            self.index, self.label, self.worker, self.reason
        )
    }
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    payload.downcast_ref::<&str>().map_or_else(
        || {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".to_string())
        },
        |s| (*s).to_string(),
    )
}

/// Applies `f` to every item of `items` on up to `threads` worker threads,
/// isolating per-cell panics: each call runs under
/// [`catch_unwind`], a panicking cell yields `None` in the result vector
/// plus a [`CellFailure`] naming it (via `label`), and every other cell
/// still runs to completion.
///
/// Results are in input order; failures are sorted by cell index. With a
/// deterministic `f`, both vectors are identical for any thread count
/// (failure `worker` fields aside).
///
/// `threads <= 1` (or a single item) runs inline with no thread overhead —
/// still under `catch_unwind`, so fault semantics don't change with the
/// thread count.
///
/// # Examples
///
/// ```
/// use sim::try_par_map;
///
/// let items: Vec<u64> = (0..10).collect();
/// let (results, failures) = try_par_map(
///     &items,
///     4,
///     |_, x| format!("cell {x}"),
///     |_, x| if *x == 3 { panic!("boom") } else { x * x },
/// );
/// assert_eq!(results[2], Some(4));
/// assert_eq!(results[3], None);
/// assert_eq!(failures.len(), 1);
/// assert_eq!(failures[0].label, "cell 3");
/// assert_eq!(failures[0].reason, "boom");
/// ```
pub fn try_par_map<T, R, L, F>(
    items: &[T],
    threads: usize,
    label: L,
    f: F,
) -> (Vec<Option<R>>, Vec<CellFailure>)
where
    T: Sync,
    R: Send,
    L: Fn(usize, &T) -> String + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let run_cell = |worker: usize, i: usize, item: &T| -> Result<R, CellFailure> {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| CellFailure {
            index: i,
            label: label(i, item),
            worker,
            reason: panic_reason(payload.as_ref()),
        })
    };

    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        let mut results = Vec::with_capacity(items.len());
        let mut failures = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match run_cell(0, i, item) {
                Ok(r) => results.push(Some(r)),
                Err(fail) => {
                    results.push(None);
                    failures.push(fail);
                }
            }
        }
        return (results, failures);
    }

    let cursor = AtomicUsize::new(0);
    let worker = |worker_id: usize| {
        let mut local: Vec<(usize, Result<R, CellFailure>)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            local.push((i, run_cell(worker_id, i, item)));
        }
        local
    };

    let per_worker: Vec<Vec<(usize, Result<R, CellFailure>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Cells can no longer unwind out of a worker; a join error
                // here would be a bug in the runner itself.
                h.join().expect("runner worker thread died outside a cell")
            })
            .collect()
    });

    let mut indexed: Vec<(usize, Result<R, CellFailure>)> =
        per_worker.into_iter().flatten().collect();
    indexed.sort_unstable_by_key(|(i, _)| *i);
    let mut results = Vec::with_capacity(items.len());
    let mut failures = Vec::new();
    for (_, outcome) in indexed {
        match outcome {
            Ok(r) => results.push(Some(r)),
            Err(fail) => {
                results.push(None);
                failures.push(fail);
            }
        }
    }
    (results, failures)
}

/// Applies `f` to every item of `items` on up to `threads` worker threads
/// and returns the results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so long cells —
/// e.g. a 32 KB perceptron on a server benchmark — don't serialize behind
/// a static partition. Result order is by input index, never by completion
/// time: with a deterministic `f`, the output is identical for any thread
/// count, which the determinism tests pin down.
///
/// `threads <= 1` (or a single item) runs inline with no thread overhead.
///
/// # Examples
///
/// ```
/// use sim::par_map;
///
/// let items: Vec<u64> = (0..100).collect();
/// let squares = par_map(&items, 4, |_, x| x * x);
/// // Input order is preserved regardless of which worker ran what …
/// assert_eq!(squares[10], 100);
/// // … so any thread count produces the identical result vector.
/// assert_eq!(squares, par_map(&items, 1, |_, x| x * x));
/// ```
///
/// # Panics
///
/// A panic in any cell aborts the whole map with a message naming the
/// failed cell (input index, worker thread, panic payload). Callers that
/// need to survive failed cells use [`try_par_map`] with real labels.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let (results, failures) = try_par_map(items, threads, |i, _| format!("index {i}"), f);
    if let Some(first) = failures.first() {
        panic!(
            "{} of {} experiment cells failed; first failure: {first}",
            failures.len(),
            results.len()
        );
    }
    results.into_iter().map(Option::unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..200).collect();
        let doubled = par_map(&items, 8, |_, x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_thread_count_agrees() {
        let items: Vec<u64> = (0..57).collect();
        // A mildly uneven workload: later items spin longer.
        let work = |i: usize, x: &u64| -> u64 {
            let mut acc = *x;
            for k in 0..(i as u64 % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let reference = par_map(&items, 1, work);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                par_map(&items, threads, work),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, x| *x).is_empty());
        assert_eq!(par_map(&[41u32], 4, |_, x| x + 1), vec![42]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items = ["a", "b", "c"];
        let idx = par_map(&items, 2, |i, _| i);
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn failed_cells_are_isolated_and_labeled() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 3, 8] {
            let (results, failures) = try_par_map(
                &items,
                threads,
                |_, x| format!("spec × bench{x}"),
                |_, x| {
                    assert!(x % 13 != 5, "unlucky cell {x}");
                    x * 10
                },
            );
            assert_eq!(results.len(), items.len());
            // Cells 5, 18, 31 fail; all others survive with real values.
            let failed: Vec<usize> = failures.iter().map(|f| f.index).collect();
            assert_eq!(failed, vec![5, 18, 31], "threads={threads}");
            for (i, r) in results.iter().enumerate() {
                if failed.contains(&i) {
                    assert!(r.is_none());
                } else {
                    assert_eq!(*r, Some(items[i] * 10));
                }
            }
            assert_eq!(failures[0].label, "spec × bench5");
            assert!(
                failures[0].reason.contains("unlucky cell 5"),
                "payload text"
            );
        }
    }

    #[test]
    fn par_map_panic_names_the_cell() {
        let items: Vec<u32> = (0..10).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |_, x| {
                assert!(*x != 7, "cell exploded");
                *x
            })
        }))
        .unwrap_err();
        let msg = panic_reason(err.as_ref());
        assert!(msg.contains("index 7"), "{msg}");
        assert!(msg.contains("cell exploded"), "{msg}");
    }

    #[test]
    fn all_cells_failing_still_returns() {
        let items = [1u8, 2, 3];
        let (results, failures) = try_par_map(
            &items,
            2,
            |i, _| format!("c{i}"),
            |_, _| -> u8 { panic!("nope") },
        );
        assert!(results.iter().all(Option::is_none));
        assert_eq!(failures.len(), 3);
    }
}
