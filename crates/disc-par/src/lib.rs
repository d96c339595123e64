//! Deterministic parallel map for the experiment layer.
//!
//! The stochastic evaluation grinds through hundreds of independent
//! simulator runs (seeds × table cells × sweep points). Each run is a
//! pure function of its configuration, so they parallelise trivially —
//! but the build environment carries no external crates, so this is a
//! minimal [`std::thread::scope`]-based work pool instead of rayon.
//!
//! Guarantees:
//!
//! * **Deterministic output.** Results are written into an index-keyed
//!   slot table, so the returned `Vec` is in input order no matter how
//!   the OS schedules the workers. Printing happens only after the map
//!   completes, never from worker threads.
//! * **No nested oversubscription.** A `par_map` issued from inside a
//!   worker thread (e.g. `simulate_seeds` called from a parallel table
//!   cell) runs serially on that worker.
//! * **Tunable.** `DISC_JOBS=n` caps the worker count; `DISC_JOBS=1`
//!   forces fully serial execution (useful when bisecting).
//!
//! [`WorkerPool`] is the long-lived counterpart for servers: named
//! worker threads draining one FIFO job queue under one lock.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod pool;

pub use pool::WorkerPool;

thread_local! {
    static IN_PAR: Cell<bool> = const { Cell::new(false) };
}

/// Parses a `DISC_JOBS` value: a positive integer, or an explanation of
/// why it is not one.
fn parse_jobs(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        Ok(_) => Err(format!(
            "DISC_JOBS={raw:?} must be at least 1 (use DISC_JOBS=1 for serial execution)"
        )),
        Err(_) => Err(format!("DISC_JOBS={raw:?} is not a positive integer")),
    }
}

/// Number of worker threads a top-level [`par_map`] may use: the
/// `DISC_JOBS` environment variable when set, otherwise the machine's
/// available parallelism.
///
/// # Panics
///
/// Panics when `DISC_JOBS` is set but is not a positive integer. A
/// mistyped cap used to fall back silently to full parallelism, which
/// defeats the point of setting it (e.g. when bisecting with
/// `DISC_JOBS=1`), so it is now a hard error.
pub fn max_jobs() -> usize {
    if let Ok(v) = std::env::var("DISC_JOBS") {
        match parse_jobs(&v) {
            Ok(n) => return n,
            Err(msg) => panic!("{msg}"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to [`max_jobs`] scoped threads, returning
/// results in input order.
///
/// Work is handed out through a shared atomic cursor, so long and short
/// items balance across workers. Falls back to a plain serial map when
/// there is at most one job, at most one item, or the caller is itself a
/// `par_map` worker (nested maps stay serial by design).
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have finished.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let jobs = max_jobs().min(n);
    if jobs <= 1 || IN_PAR.with(|c| c.get()) {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                IN_PAR.with(|c| c.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let r = f(item);
                    *out[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped an item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = par_map((0..1000).collect(), |i: u64| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn nested_maps_run_and_stay_ordered() {
        let out = par_map((0u64..16).collect(), |i| {
            // Inner map runs serially on this worker but must still be
            // correct and ordered.
            par_map((0u64..8).collect(), move |j| i * 100 + j)
        });
        for (i, inner) in out.iter().enumerate() {
            let want: Vec<u64> = (0..8).map(|j| i as u64 * 100 + j).collect();
            assert_eq!(inner, &want);
        }
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still land in the right slots.
        let out = par_map((0u64..64).collect(), |i| {
            let spins = if i % 7 == 0 { 200_000 } else { 10 };
            let mut acc = i;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (i, (orig, _)) in out.iter().enumerate() {
            assert_eq!(*orig, i as u64);
        }
    }

    #[test]
    fn max_jobs_is_positive() {
        assert!(max_jobs() >= 1);
    }

    #[test]
    fn jobs_values_parse_or_explain() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs(" 2 "), Ok(2));
        assert!(parse_jobs("0").unwrap_err().contains("at least 1"));
        assert!(parse_jobs("many")
            .unwrap_err()
            .contains("not a positive integer"));
        assert!(parse_jobs("-3").is_err());
    }
}
