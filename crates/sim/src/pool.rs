//! A tiny shared-queue job pool for fan-out over real OS threads.
//!
//! [`run_jobs`] puts a fixed batch of independent jobs behind one
//! mutex-guarded queue and spawns `min(workers, jobs)` scoped threads
//! that each take the next job until the queue is empty. Results come
//! back **in job order**, regardless of which worker ran which job or in
//! what order they finished — the worker count affects scheduling only,
//! never results.
//!
//! This is the multi-core driver for fleet provisioning: each job builds
//! and drives its own deterministic [`crate::Sim`] shard to completion,
//! and the caller merges shard outputs in shard-index order, so a run is
//! byte-identical whether it used 1 worker or 64. A job is a whole shard,
//! so one lock taken per job costs nothing.
//!
//! The pool is deliberately minimal: jobs cannot spawn jobs, so an empty
//! queue is a complete termination condition and no condition-variable
//! parking is needed. Locking uses the workspace [`lock`] helper
//! (poison-recovering, panic-free); a panicking job's panic resumes in
//! the caller. Every worker thread is joined, i.e. has fully exited,
//! before [`run_jobs`] returns, so back-to-back calls reuse the same
//! allocator arenas and thread stacks instead of racing the previous
//! call's thread exits for them.

use std::sync::{Mutex, PoisonError};

use crate::executor::lock;

/// Number of hardware threads, used as the default worker count for
/// "all cores" runs. Falls back to 1 where the platform cannot say.
pub fn max_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `jobs` across `workers` OS threads and returns their outputs in
/// job order. `workers` is clamped to at least 1; no more threads than
/// jobs are started.
pub fn run_jobs<T, F>(workers: usize, jobs: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let total = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(total));
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers.max(1).min(total))
            .map(|_| {
                scope.spawn(|| loop {
                    // Bound first so the queue guard drops before the job runs.
                    let next = lock(&queue).next();
                    let Some((idx, job)) = next else { break };
                    let out = job();
                    lock(&results).push((idx, out));
                })
            })
            .collect();
        // Join rather than let the scope wait: the scope returns once each
        // closure is done, while its thread may still be exiting, so the
        // next call's threads would find its malloc arena and stack still
        // taken and map fresh ones. A joined thread has fully exited.
        for thread in threads {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let mut indexed = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    indexed.sort_by_key(|(idx, _)| *idx);
    indexed.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        // Make early jobs slow so later ones finish first.
        let jobs: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    if i < 4 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    i * 10
                }
            })
            .collect();
        let out = run_jobs(4, jobs);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_never_changes_results() {
        let make = || (0..100).map(|i| move || i * i).collect::<Vec<_>>();
        let one = run_jobs(1, make());
        let four = run_jobs(4, make());
        let many = run_jobs(64, make());
        assert_eq!(one, four);
        assert_eq!(one, many);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let out = run_jobs(0, vec![|| 7, || 8]);
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let out: Vec<u32> = run_jobs(8, Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn idle_workers_steal_from_a_loaded_deque() {
        // Two workers drain one shared queue: every job runs exactly
        // once and the outputs still come back in job order.
        let ran = Arc::new(AtomicUsize::new(0));
        let r0 = Arc::clone(&ran);
        let r1 = Arc::clone(&ran);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(move || {
                r0.fetch_add(1, Ordering::SeqCst);
                0
            }),
            Box::new(move || {
                r1.fetch_add(1, Ordering::SeqCst);
                1
            }),
        ];
        let out = run_jobs(2, jobs);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_jobs(16, vec![|| 1, || 2, || 3]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn workers_have_exited_when_run_jobs_returns() {
        // A thread-local destructor runs as its thread exits, after the
        // job's closure has returned; the sleep holds that exit open, so
        // only a pool that joins its threads sees every destructor done.
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static ON_EXIT: OnExit = const { OnExit });
        let jobs: Vec<_> = (0..2)
            .map(|i| {
                move || {
                    ON_EXIT.with(|_| ());
                    // Hold the first worker until the second has a job.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    i
                }
            })
            .collect();
        assert_eq!(run_jobs(2, jobs), vec![0, 1]);
        assert_eq!(EXITED.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("job failed"))];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(2, jobs)));
        let panic = caught.expect_err("the job's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"job failed"));
    }
}
