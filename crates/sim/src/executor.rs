//! A deterministic discrete-event executor over virtual time.
//!
//! Simulated processes are ordinary Rust `async` functions. Awaiting
//! [`Sim::sleep`] advances *virtual* time only: the executor polls every
//! runnable task, and when none remain it jumps the clock to the earliest
//! pending timer. Events at equal timestamps run in FIFO spawn/wake order,
//! so the whole simulation is exactly reproducible.
//!
//! The handle (and every task it runs) is `Send + Sync`: a simulation can
//! be built on one thread, driven on another, and its results shipped
//! back — the substrate for sharded multi-core fleet runs (see
//! [`crate::pool`]). Determinism is per-`Sim`: one instance is still
//! driven by one [`Sim::run`] call at a time, and all interior state is
//! behind locks/atomics so nothing about that contract depends on which
//! thread drives it.
//!
//! # Examples
//!
//! ```
//! use bolted_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let out = sim.block_on({
//!     let sim = sim.clone();
//!     async move {
//!         sim.sleep(SimDuration::from_secs(40)).await; // POST
//!         sim.now().as_secs_f64()
//!     }
//! });
//! assert_eq!(out, 40.0);
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDuration, SimTime};

type TaskId = u64;
/// Task futures must be `Send`: this bound is what forces the whole
/// control plane off `Rc<RefCell<…>>` and onto `Arc<Mutex<…>>`, and is
/// checked at every [`Sim::spawn`] call site by the compiler.
type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// Locks a mutex, recovering the data if a panicking thread poisoned it.
/// Workspace-wide convention for all converted `Rc<RefCell<…>>` state:
/// every protected value is coherent on its own (no invariant spans a
/// lock acquisition), so poisoning adds nothing but a panic-free unwrap.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Queue of tasks made runnable by wakers. Shared with every task's
/// `Waker`, which may fire from any thread.
#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

impl ReadyQueue {
    fn push(&self, id: TaskId) {
        lock(&self.queue).push_back(id);
    }

    fn pop(&self) -> Option<TaskId> {
        lock(&self.queue).pop_front()
    }
}

struct TaskWaker {
    ready: Arc<ReadyQueue>,
    id: TaskId,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// A timer registration: wake `waker` once the clock reaches `deadline`.
struct TimerEntry {
    deadline: SimTime,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // deadline (FIFO by registration sequence within a timestamp).
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct SimInner {
    /// Virtual clock, in nanoseconds. Only [`Sim::run`] writes it; tasks
    /// read it freely from any thread.
    now_nanos: AtomicU64,
    next_task_id: AtomicU64,
    next_seq: AtomicU64,
    tasks: Mutex<BTreeMap<TaskId, TaskFuture>>,
    timers: Mutex<BinaryHeap<TimerEntry>>,
    ready: Arc<ReadyQueue>,
    events_processed: AtomicU64,
}

/// Handle to a deterministic virtual-time simulation.
///
/// Cheap to clone; all clones share the same clock, task set, and timer
/// queue. `Send + Sync`: the handle can cross threads (a shard worker can
/// build, drive, and report on a whole simulation), but determinism
/// still requires that a single thread call [`Sim::run`] at a time.
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a new simulation with the clock at zero.
    pub fn new() -> Self {
        Sim {
            inner: Arc::new(SimInner {
                now_nanos: AtomicU64::new(0),
                next_task_id: AtomicU64::new(0),
                next_seq: AtomicU64::new(0),
                tasks: Mutex::new(BTreeMap::new()),
                timers: Mutex::new(BinaryHeap::new()),
                ready: Arc::new(ReadyQueue::default()),
                events_processed: AtomicU64::new(0),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now_nanos.load(AtomicOrdering::SeqCst))
    }

    /// Total number of task polls performed so far (an engine metric).
    pub fn events_processed(&self) -> u64 {
        self.inner.events_processed.load(AtomicOrdering::Relaxed)
    }

    /// Spawns a task onto the simulation and returns a handle that can be
    /// awaited for its output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let state = Arc::new(Mutex::new(JoinState::<F::Output> {
            result: None,
            waiters: Vec::new(),
        }));
        let state2 = Arc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut st = lock(&state2);
            st.result = Some(out);
            for w in st.waiters.drain(..) {
                w.wake();
            }
        };
        let id = self.inner.next_task_id.fetch_add(1, AtomicOrdering::SeqCst);
        lock(&self.inner.tasks).insert(id, Box::pin(wrapped));
        self.inner.ready.push(id);
        JoinHandle { state }
    }

    /// Sleeps for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Sleeps until the absolute virtual instant `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
        }
    }

    /// Registers `waker` to fire at `deadline`. Used by [`Sleep`] and by
    /// the synchronisation primitives in [`crate::sync`].
    pub(crate) fn register_timer(&self, deadline: SimTime, waker: Waker) {
        let seq = self.inner.next_seq.fetch_add(1, AtomicOrdering::SeqCst);
        lock(&self.inner.timers).push(TimerEntry {
            deadline,
            seq,
            waker,
        });
    }

    /// Runs the simulation until no task is runnable and no timer is
    /// pending. Returns the number of tasks that are still alive but
    /// blocked forever (0 means everything completed).
    pub fn run(&self) -> usize {
        loop {
            // Drain every currently runnable task. The future is removed
            // from the table before polling so no lock is held across the
            // poll (tasks may spawn, register timers, or wake others).
            while let Some(id) = self.inner.ready.pop() {
                let fut = lock(&self.inner.tasks).remove(&id);
                let Some(mut fut) = fut else {
                    // Task already completed; stale wake.
                    continue;
                };
                self.inner
                    .events_processed
                    .fetch_add(1, AtomicOrdering::Relaxed);
                let waker = Waker::from(Arc::new(TaskWaker {
                    ready: Arc::clone(&self.inner.ready),
                    id,
                }));
                let mut cx = Context::from_waker(&waker);
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(()) => {}
                    Poll::Pending => {
                        lock(&self.inner.tasks).insert(id, fut);
                    }
                }
            }
            // Nothing runnable: advance the clock to the earliest timer.
            let next = lock(&self.inner.timers).pop();
            match next {
                Some(entry) => {
                    debug_assert!(entry.deadline >= self.now(), "time went backwards");
                    self.inner
                        .now_nanos
                        .store(entry.deadline.as_nanos(), AtomicOrdering::SeqCst);
                    entry.waker.wake();
                    // Also release every other timer at the same instant so
                    // simultaneous events interleave in registration order.
                    loop {
                        let mut timers = lock(&self.inner.timers);
                        if timers.peek().is_some_and(|e| e.deadline == entry.deadline) {
                            // lint: allow(L1-panic: pop follows a successful peek under the same lock)
                            let e = timers.pop().expect("peeked entry");
                            drop(timers);
                            e.waker.wake();
                        } else {
                            break;
                        }
                    }
                }
                None => break,
            }
        }
        lock(&self.inner.tasks).len()
    }

    /// Spawns `fut`, runs the simulation to quiescence, and returns the
    /// future's output.
    ///
    /// # Panics
    ///
    /// Panics if the future deadlocks (blocks forever on something no other
    /// task will ever signal).
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let handle = self.spawn(fut);
        self.run();
        // lint: allow(L1-panic: documented deadlock panic — the contract of block_on)
        handle
            .try_take()
            .expect("block_on: root future deadlocked (no runnable tasks, no timers)")
    }
}

struct JoinState<T> {
    result: Option<T>,
    waiters: Vec<Waker>,
}

/// Handle returned by [`Sim::spawn`]; awaiting it yields the task output.
pub struct JoinHandle<T> {
    state: Arc<Mutex<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Returns the output if the task has completed, consuming it.
    pub fn try_take(&self) -> Option<T> {
        lock(&self.state).result.take()
    }

    /// True if the task has finished (output may already have been taken).
    pub fn is_finished(&self) -> bool {
        lock(&self.state).result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = lock(&self.state);
        if let Some(v) = st.result.take() {
            Poll::Ready(v)
        } else {
            st.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            Poll::Ready(())
        } else {
            self.sim.register_timer(self.deadline, cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Awaits every handle in `handles`, returning their outputs in order.
pub async fn join_all<T>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sim_and_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Sim>();
        assert_send::<JoinHandle<u64>>();
        assert_send::<Sleep>();
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let sim = Sim::new();
        let t = sim.block_on({
            let sim = sim.clone();
            async move {
                sim.sleep(SimDuration::from_secs(240)).await;
                sim.now()
            }
        });
        assert_eq!(t, SimTime::from_nanos(240_000_000_000));
    }

    #[test]
    fn concurrent_tasks_interleave_by_time() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("b", 20u64), ("a", 10), ("c", 30)] {
            let sim2 = sim.clone();
            let log2 = Arc::clone(&log);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_secs(delay)).await;
                lock(&log2).push(name);
            });
        }
        assert_eq!(sim.run(), 0);
        assert_eq!(*lock(&log), vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_run_in_spawn_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let sim2 = sim.clone();
            let log2 = Arc::clone(&log);
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_secs(1)).await;
                lock(&log2).push(i);
            });
        }
        sim.run();
        assert_eq!(*lock(&log), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_handle_returns_output() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            let h = sim2.spawn(async { 21 * 2 });
            h.await
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn join_all_collects_in_order() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let s = sim2.clone();
                    sim2.spawn(async move {
                        // Later-indexed tasks sleep less: outputs must still
                        // come back in spawn order.
                        s.sleep(SimDuration::from_secs(10 - i)).await;
                        i
                    })
                })
                .collect();
            join_all(handles).await
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_spawn_works() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.block_on(async move {
            let s = sim2.clone();
            let h = sim2.spawn(async move {
                let s2 = s.clone();
                let inner = s.spawn(async move {
                    s2.sleep(SimDuration::from_millis(5)).await;
                    7
                });
                inner.await + 1
            });
            h.await
        });
        assert_eq!(out, 8);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn block_on_detects_deadlock() {
        let sim = Sim::new();
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn run_reports_stuck_tasks() {
        let sim = Sim::new();
        sim.spawn(std::future::pending::<()>());
        assert_eq!(sim.run(), 1);
    }

    #[test]
    fn zero_duration_sleep_completes() {
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                sim.sleep(SimDuration::ZERO).await;
            }
        });
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<(u64, u64)> {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..10u64 {
                let sim2 = sim.clone();
                let log2 = Arc::clone(&log);
                sim.spawn(async move {
                    let mut rng = crate::rng::Rng::seed_from_u64(i);
                    for _ in 0..5 {
                        sim2.sleep(SimDuration::from_nanos(rng.gen_range(1000) + 1))
                            .await;
                        lock(&log2).push((i, sim2.now().as_nanos()));
                    }
                });
            }
            sim.run();
            let log = Arc::try_unwrap(log)
                .map_err(|_| "sole owner")
                .expect("sole owner");
            log.into_inner().expect("unpoisoned")
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn a_sim_built_here_can_be_driven_on_another_thread() {
        let sim = Sim::new();
        let handle = sim.spawn({
            let sim = sim.clone();
            async move {
                sim.sleep(SimDuration::from_secs(3)).await;
                sim.now().as_nanos()
            }
        });
        let sim2 = sim.clone();
        let nanos = std::thread::spawn(move || {
            sim2.run();
            handle.try_take().expect("task completed")
        })
        .join()
        .expect("worker thread");
        assert_eq!(nanos, 3_000_000_000);
        assert_eq!(sim.now().as_nanos(), 3_000_000_000);
    }

    #[test]
    fn events_processed_counts_polls() {
        let sim = Sim::new();
        sim.block_on({
            let sim = sim.clone();
            async move {
                sim.sleep(SimDuration::from_secs(1)).await;
            }
        });
        assert!(sim.events_processed() >= 2);
    }
}
