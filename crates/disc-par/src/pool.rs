//! Long-lived worker pool for session serving.
//!
//! [`crate::par_map`] is the right shape for batch campaigns — a closed
//! set of items, scoped threads, join at the end. A server is the
//! opposite shape: jobs arrive continuously for the lifetime of the
//! process and nobody ever joins the whole set. [`WorkerPool`] covers
//! that: a fixed crew of named OS threads draining one shared FIFO
//! queue.
//!
//! One mutex guards the queue and its counters, and two condvars wake
//! workers (`work_ready`) and quiescence waiters (`all_idle`). A job in
//! `disc-serve` is one chunk of simulation, milliseconds of work, while
//! the lock is held only to push or pop one job.
//!
//! * **Quiescence barrier.** [`WorkerPool::wait_idle`] blocks until the
//!   queue is empty and every worker is idle.
//! * **Drop-drain.** Dropping the pool lets already-queued jobs run to
//!   completion, then joins the workers.
//! * **Panic isolation.** A job that panics is caught: it still counts
//!   as finished, and its worker goes on serving the queue.
//!
//! Jobs communicate results by capturing `Arc`s to whatever state they
//! update (the server's session table), which keeps the pool free of
//! any knowledge of what a "session" is.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    /// Queued *plus* executing. Decremented only after a job has
    /// returned, so a job that re-enqueues itself bumps the count before
    /// its own decrement and the barrier never observes a spurious zero.
    outstanding: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<State>,
    work_ready: Condvar,
    all_idle: Condvar,
}

impl PoolShared {
    /// Jobs run with the lock released, so a panicking job cannot poison
    /// it; a poisoned lock means the pool's own bookkeeping panicked.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pool state poisoned")
    }
}

/// A fixed-size pool of worker threads sharing one FIFO job queue.
///
/// Dropping the pool shuts it down gracefully: already-queued jobs run
/// to completion, then the workers exit and are joined.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1), named
    /// `disc-worker-N` for debuggability.
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                outstanding: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            all_idle: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("disc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job at the back of the queue.
    ///
    /// # Panics
    ///
    /// Panics if called after shutdown began (only possible from a job
    /// submitting during `Drop`, which is a bug in the caller).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.shared.lock();
        if state.shutdown {
            drop(state); // panic without poisoning the pool's lock
            panic!("submit on a shutting-down pool");
        }
        state.queue.push_back(Box::new(job));
        state.outstanding += 1;
        drop(state);
        self.shared.work_ready.notify_one();
    }

    /// Blocks until the queue is empty and every worker is idle.
    ///
    /// A quiescence barrier, not a termination join: jobs submitted by
    /// other threads *after* this returns will still run. Jobs that
    /// re-enqueue themselves will naturally hold the barrier open.
    pub fn wait_idle(&self) {
        let state = self.shared.lock();
        let _idle = self
            .shared
            .all_idle
            .wait_while(state, |s| s.outstanding > 0)
            .expect("pool state poisoned");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.lock();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return; // drained: shutdown and the queue empty
                }
                state = shared.work_ready.wait(state).expect("pool state poisoned");
            }
        };
        // The panic hook has already reported a panicking job; catching
        // it keeps this worker serving and the job counted as finished,
        // so one bad job cannot stall every later job or `wait_idle`.
        let _ = catch_unwind(AssertUnwindSafe(job));
        let mut state = shared.lock();
        state.outstanding -= 1;
        if state.outstanding == 0 {
            shared.all_idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_all_submitted_jobs() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let count = Arc::clone(&count);
            pool.submit(move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..50 {
                let count = Arc::clone(&count);
                pool.submit(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins after the queue drains
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn jobs_can_resubmit_from_workers_via_handle() {
        // The self-re-enqueue pattern disc-serve uses: a job holds an Arc
        // to a submit-capable handle. The pool itself can't be captured
        // (jobs outlive no lifetime), so the server wraps it in an Arc.
        let pool = Arc::new(WorkerPool::new(2));
        let count = Arc::new(AtomicUsize::new(0));
        fn step(pool: &Arc<WorkerPool>, count: &Arc<AtomicUsize>) {
            if count.fetch_add(1, Ordering::Relaxed) + 1 < 20 {
                let p = Arc::clone(pool);
                let c = Arc::clone(count);
                pool.submit(move || step(&p, &c));
            }
        }
        step(&pool, &count);
        while count.load(Ordering::Relaxed) < 20 {
            std::thread::yield_now();
        }
        pool.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn clamps_to_one_thread() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn wait_idle_sees_through_reenqueues() {
        let pool = Arc::new(WorkerPool::new(3));
        let count = Arc::new(AtomicUsize::new(0));
        // A chain of self-resubmitting jobs: the barrier must stay open
        // across the re-enqueue gaps.
        fn step(pool: &Arc<WorkerPool>, count: &Arc<AtomicUsize>) {
            if count.fetch_add(1, Ordering::Relaxed) + 1 < 50 {
                let p = Arc::clone(pool);
                let c = Arc::clone(count);
                pool.submit(move || step(&p, &c));
            }
        }
        step(&pool, &count);
        pool.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn concurrent_submitters_never_corrupt_the_queue_counter() {
        // Several threads submitting at once must neither lose a job nor
        // leave `outstanding` off zero (which would hang `wait_idle`).
        let pool = Arc::new(WorkerPool::new(2));
        let count = Arc::new(AtomicUsize::new(0));
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let count = Arc::clone(&count);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let c = Arc::clone(&count);
                        pool.submit(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for t in submitters {
            t.join().unwrap();
        }
        pool.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn a_panicking_job_does_not_stop_the_pool() {
        // One worker, so the job after the panicking one can only run if
        // that worker survived. `wait_idle` runs on a helper thread so a
        // dead worker fails this test by timeout instead of hanging it.
        let pool = Arc::new(WorkerPool::new(1));
        let ran = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("job panics on purpose"));
        let r = Arc::clone(&ran);
        pool.submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&pool);
        std::thread::spawn(move || {
            waiter.wait_idle();
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "wait_idle did not return after a panicking job"
        );
        assert_eq!(ran.load(Ordering::Relaxed), 1, "the later job never ran");
    }
}
