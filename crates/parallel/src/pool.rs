//! A minimal fixed-size thread pool (std-only; the workspace has no
//! dependency budget for an executor).
//!
//! Every layer shares one threading substrate: the network server runs its
//! connection workers on a [`ThreadPool`], the build path uses the scoped
//! fork/join helpers of the crate root. Jobs are executed in submission
//! order per worker but with no cross-worker ordering guarantee — callers
//! that need deterministic output must tag jobs and reorder the results.

use std::sync::{mpsc, Arc, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Jobs submitted but not yet started: the serving pool's backlog. A
/// persistently positive depth means batches arrive faster than the
/// workers drain them.
static QUEUE_DEPTH: fairnn_obs::LazyGauge = fairnn_obs::LazyGauge::new(
    "parallel_pool_queue_depth",
    "jobs submitted to the serving thread pool and not yet started",
);

/// A fixed set of worker threads consuming jobs from one shared queue.
/// Dropping the pool closes the queue and joins every worker.
#[derive(Debug)]
pub struct ThreadPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads >= 1` workers.
    #[expect(clippy::disallowed_methods, reason = "the thread substrate")]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                thread::spawn(move || loop {
                    let job = receiver.lock().expect("pool receiver poisoned").recv();
                    match job {
                        Ok(job) => {
                            QUEUE_DEPTH.add(-1);
                            job()
                        }
                        Err(_) => break, // pool dropped
                    }
                })
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Enqueues one job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        QUEUE_DEPTH.add(1);
        self.sender
            .as_ref()
            .expect("pool is live")
            .send(Box::new(job))
            .expect("workers alive while pool is live");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_job_and_joins_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins the workers
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }
}
