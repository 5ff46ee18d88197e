//! Persistent worker pool with shard-affine dispatch.
//!
//! PR 2 made attestation sweeps cheap enough (~270 k devices/s) that the
//! dominant multi-thread cost at fleet scale became *thread spawning*:
//! every `Verifier::sweep` paid a `thread::scope` spawn/join cycle per
//! shard. This pool replaces that with long-lived workers:
//!
//! * **Persistent threads** — workers are spawned once and reused across
//!   sweeps, so the per-sweep cost is a channel send per shard batch,
//!   not a spawn.
//! * **Shard-affine dispatch** — work is submitted *to a shard*, and a
//!   shard always maps to the same worker queue for a given worker
//!   count. Jobs for one shard execute in submission order, which is
//!   what lets callers hand exclusive `&mut` shard state to one job at
//!   a time without locks.
//! * **Inline single worker** — a one-worker pool runs a batch on the
//!   caller's thread: no channel hops, deterministic and
//!   profiler-friendly.
//!
//! The scoped API ([`WorkerPool::scope`]) is what lets the *persistent*
//! threads run jobs that borrow from the caller's stack (the sweep's
//! `&mut SimDevice` batches): job closures are lifetime-erased before
//! being queued, and a receive-side guard guarantees — even on unwind —
//! that `scope` does not return while any erased job is still live.
//! That invariant is exactly the one `std::thread::scope` enforces by
//! joining, and it is what makes the single `unsafe` block below sound.

// The lifetime-erasure transmute in `scope` is the one place the fleet
// crate needs unsafe code; it is documented and encapsulated here.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;
use std::{fmt, mem, thread};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Worker {
    sender: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// Long-lived, shard-affine worker pool. See the module docs.
pub struct WorkerPool {
    workers: Vec<Worker>,
    shard_count: usize,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("shard_count", &self.shard_count)
            .finish()
    }
}

fn spawn_workers(count: usize) -> Vec<Worker> {
    (0..count)
        .map(|index| {
            // Unbounded: `scope` blocks until its whole batch has run,
            // so a queue never holds more than one batch.
            let (sender, receiver): (Sender<Job>, Receiver<Job>) = mpsc::channel();
            let handle = thread::Builder::new()
                .name(format!("eilid-pool-{index}"))
                .spawn(move || {
                    // Drain until every sender is gone. Scoped jobs catch
                    // their own panics and forward the payload to the
                    // caller; catching here too keeps the worker alive.
                    while let Ok(job) = receiver.recv() {
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                })
                .expect("spawning a pool worker thread");
            Worker {
                sender,
                handle: Some(handle),
            }
        })
        .collect()
}

impl WorkerPool {
    /// Creates a pool of `workers` persistent threads serving
    /// `shard_count` shards. Both are clamped to at least 1.
    pub fn new(workers: usize, shard_count: usize) -> Self {
        WorkerPool {
            workers: spawn_workers(workers.max(1)),
            shard_count: shard_count.max(1),
        }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The fixed shard count.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The worker index serving `shard` under the current worker count.
    pub fn worker_of(&self, shard: usize) -> usize {
        shard % self.workers.len()
    }

    /// Runs a batch of borrowing jobs on the persistent workers and
    /// returns their results in submission order, blocking until every
    /// job has finished.
    ///
    /// Each entry is `(shard, job)`; jobs for one shard run on one
    /// worker in submission order, so a caller that submits **at most
    /// one job per shard** may freely move `&mut` shard state into that
    /// job. A one-worker pool runs the batch inline on the calling
    /// thread, in submission order. A panicking job does not poison the
    /// pool: the panic is re-raised on the calling thread after the
    /// whole batch has drained.
    ///
    /// This is the persistent-pool replacement for `thread::scope`: the
    /// receive-side guard below gives the same "nothing borrowed
    /// outlives the call" guarantee that scope's implicit join does.
    pub fn scope<'env, R: Send + 'env>(
        &self,
        jobs: Vec<(usize, Box<dyn FnOnce() -> R + Send + 'env>)>,
    ) -> Vec<R> {
        let outcomes: Vec<thread::Result<R>> = if self.workers.len() == 1 {
            jobs.into_iter()
                .map(|(_, job)| catch_unwind(AssertUnwindSafe(job)))
                .collect()
        } else {
            self.run_on_workers(jobs)
        };
        outcomes
            .into_iter()
            .map(|outcome| outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }

    /// Queues every job on its shard's worker and collects the
    /// outcomes in submission order.
    fn run_on_workers<'env, R: Send + 'env>(
        &self,
        jobs: Vec<(usize, Box<dyn FnOnce() -> R + Send + 'env>)>,
    ) -> Vec<thread::Result<R>> {
        let total = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, thread::Result<R>)>();
        // The guard's Drop blocks until `total` completions arrived —
        // even if this function unwinds — so no erased job can still be
        // running (or queued) once the borrowed environment dies.
        let mut guard = ScopeGuard {
            rx,
            outstanding: total,
        };

        for (index, (shard, job)) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(job));
                // The receiver only disappears if the caller's thread is
                // tearing down in a panic storm; dropping the result is
                // then the right thing.
                let _ = tx.send((index, result));
            });
            // SAFETY: `wrapped` borrows data living for `'env`. The only
            // way it reaches a worker is through this queue, and the
            // `guard` above does not let this stack frame die — by
            // return *or* unwind — until the worker has executed the
            // job and sent its completion. Everything `wrapped` still
            // touches after that send (its own drop glue: a channel
            // sender clone) is `'static`-safe. Hence the erased closure
            // never outlives the borrows it captures, which is the same
            // contract `std::thread::scope` enforces by joining.
            let erased: Job = unsafe {
                mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                    wrapped,
                )
            };
            self.workers[self.worker_of(shard)]
                .sender
                .send(erased)
                .unwrap_or_else(|_| unreachable!("pool worker exited while pool live"));
        }
        drop(tx);

        let mut outcomes: Vec<Option<thread::Result<R>>> = (0..total).map(|_| None).collect();
        for _ in 0..total {
            let (index, result) = guard.recv();
            outcomes[index] = Some(result);
        }
        debug_assert_eq!(guard.outstanding, 0);
        outcomes
            .into_iter()
            .map(|slot| slot.expect("every completed job reported a result"))
            .collect()
    }
}

/// Receive-side completion guard for [`WorkerPool::scope`]: tracks how
/// many submitted jobs have not yet reported completion and, on drop,
/// blocks until they all have. This is what makes the lifetime erasure
/// sound even when the scope body unwinds.
struct ScopeGuard<R> {
    rx: Receiver<(usize, thread::Result<R>)>,
    outstanding: usize,
}

impl<R> ScopeGuard<R> {
    fn recv(&mut self) -> (usize, thread::Result<R>) {
        let message = self
            .rx
            .recv()
            .expect("pool worker vanished with jobs outstanding");
        self.outstanding -= 1;
        message
    }
}

impl<R> Drop for ScopeGuard<R> {
    fn drop(&mut self) {
        while self.outstanding > 0 {
            // Block until the stragglers finish; bail out only if the
            // workers are provably gone (at which point nothing can be
            // executing borrowed jobs anymore either).
            match self.rx.recv_timeout(Duration::from_secs(60)) {
                Ok(_) => self.outstanding -= 1,
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => continue,
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Closing the channel lets the worker drain and exit.
            let (closed, _) = mpsc::channel();
            let sender = mem::replace(&mut worker.sender, closed);
            drop(sender);
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn scope_runs_borrowing_jobs_and_preserves_order() {
        let pool = WorkerPool::new(4, 16);
        let mut data: Vec<u64> = (0..16).collect();
        let jobs: Vec<(usize, Box<dyn FnOnce() -> u64 + Send + '_>)> = data
            .iter_mut()
            .enumerate()
            .map(|(shard, value)| {
                let job: Box<dyn FnOnce() -> u64 + Send + '_> = Box::new(move || {
                    *value *= 2;
                    *value
                });
                (shard, job)
            })
            .collect();
        let results = pool.scope(jobs);
        assert_eq!(results, (0..16).map(|v| v * 2).collect::<Vec<u64>>());
        assert_eq!(data[15], 30);
    }

    #[test]
    fn scope_reuses_the_same_threads_across_batches() {
        let pool = WorkerPool::new(2, 4);
        let mut first: Vec<std::thread::ThreadId> = Vec::new();
        for round in 0..3 {
            let ids = pool.scope(
                (0..4)
                    .map(|shard| {
                        let job: Box<dyn FnOnce() -> std::thread::ThreadId + Send> =
                            Box::new(|| std::thread::current().id());
                        (shard, job)
                    })
                    .collect(),
            );
            if round == 0 {
                first = ids;
            } else {
                assert_eq!(ids, first, "workers must persist across batches");
            }
        }
    }

    #[test]
    fn panicking_job_propagates_after_the_batch_drains() {
        let pool = WorkerPool::new(2, 4);
        let completed = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<(usize, Box<dyn FnOnce() + Send>)> = (0..4)
            .map(|shard| {
                let completed = Arc::clone(&completed);
                let job: Box<dyn FnOnce() + Send> = Box::new(move || {
                    if shard == 1 {
                        panic!("job 1 exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                });
                (shard, job)
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| pool.scope(jobs)));
        assert!(result.is_err(), "the panic must reach the caller");
        assert_eq!(completed.load(Ordering::SeqCst), 3);

        // The pool survives and keeps working.
        let sum: usize = pool
            .scope(
                (0..4)
                    .map(|shard| {
                        let job: Box<dyn FnOnce() -> usize + Send> = Box::new(move || shard);
                        (shard, job)
                    })
                    .collect(),
            )
            .into_iter()
            .sum();
        assert_eq!(sum, 6);
    }

    #[test]
    fn one_worker_runs_the_batch_inline_and_still_drains_before_a_panic() {
        let pool = WorkerPool::new(1, 4);
        let caller = std::thread::current().id();
        let ids = pool.scope(
            (0..4)
                .map(|shard| {
                    let job: Box<dyn FnOnce() -> std::thread::ThreadId + Send> =
                        Box::new(|| std::thread::current().id());
                    (shard, job)
                })
                .collect(),
        );
        assert!(ids.iter().all(|id| *id == caller), "one worker runs inline");

        let completed = AtomicUsize::new(0);
        let jobs: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = (0..4)
            .map(|shard| {
                let completed = &completed;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    if shard == 0 {
                        panic!("job 0 exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                });
                (shard, job)
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| pool.scope(jobs)));
        assert!(result.is_err(), "the panic must reach the caller");
        assert_eq!(completed.load(Ordering::SeqCst), 3, "later jobs still ran");
    }

    #[test]
    fn shard_routing_is_deterministic() {
        let pool = WorkerPool::new(3, 16);
        for shard in 0..16 {
            assert_eq!(pool.worker_of(shard), shard % 3);
        }
    }
}
