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
//! A task owns its future and one [`Waker`], both made at spawn. While
//! [`Sim::run`] runs, it owns the slab that holds every live task, so
//! polling one takes no lock; a finished task frees its slot for the
//! next spawn. Wakers and `spawn` push onto one shared ready queue, which
//! the run loop takes whole under one lock when its own batch runs dry,
//! and a timer that wakes the task which set it goes straight into that
//! batch. See DESIGN §16 for the locks each event takes.
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

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, RawWakerVTable, Wake, Waker};

use crate::time::{SimDuration, SimTime};

/// Never reused: a wake that outlives its task is told apart from a
/// wake for the later task that took over its slot.
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

/// A live task: its future and the one waker made for it at spawn.
struct Task {
    id: TaskId,
    future: TaskFuture,
    waker: Waker,
}

/// One entry of the ready queue.
enum Ready {
    /// A task that has not been polled yet. The entry carries the task
    /// itself; the run loop moves it into `slot` when it picks it.
    Spawned { slot: usize, task: Task },
    /// A wake for task `id` in `slot`. Stale once that task finished.
    Woken { slot: usize, id: TaskId },
}

/// What [`Sim::spawn`] and every task's waker share with the run loop.
/// Wakers may fire from any thread.
#[derive(Default)]
struct ReadyQueue {
    state: Mutex<ReadyState>,
    /// Set by every push and cleared when the run loop takes the queue,
    /// both under the `state` lock, so the run loop can see an empty
    /// queue without taking the lock. It publishes nothing itself (the
    /// queue is read only under the lock), so `Relaxed` suffices: a push
    /// from another thread that the run loop has not seen yet is taken
    /// at a later check, as if it had come a moment later.
    queued: AtomicBool,
}

impl ReadyQueue {
    fn push(&self, entry: Ready) {
        let mut state = lock(&self.state);
        state.queue.push_back(entry);
        self.queued.store(true, AtomicOrdering::Relaxed);
    }
}

/// The ready queue behind the run loop's batch, and the slab slots
/// `spawn` hands out.
#[derive(Default)]
struct ReadyState {
    /// Runnable tasks in FIFO order.
    queue: VecDeque<Ready>,
    /// Slab slots of finished tasks, for `spawn` to hand out again.
    free: Vec<usize>,
    /// Slab slots handed out so far.
    slots: usize,
    next_id: TaskId,
}

struct TaskWaker {
    ready: Arc<ReadyQueue>,
    slot: usize,
    id: TaskId,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(Ready::Woken {
            slot: self.slot,
            id: self.id,
        });
    }
}

/// The task a thread is polling inside [`Sim::run`].
#[derive(Clone, Copy)]
struct Polling {
    sim: *const SimInner,
    waker_data: *const (),
    waker_vtable: *const RawWakerVTable,
    slot: usize,
    id: TaskId,
}

thread_local! {
    /// Set by the run loop around each poll, so a timer registered with
    /// the polled task's own waker can be stored as the task's slot and
    /// id, with no waker to clone and no lock to take when it fires.
    static POLLING: Cell<Option<Polling>> = const { Cell::new(None) };
}

/// Marks a task as polled on this thread until dropped, also when the
/// poll panics, and then restores what an enclosing run was polling.
struct PollingGuard(Option<Polling>);

impl PollingGuard {
    fn enter(polling: Polling) -> PollingGuard {
        PollingGuard(POLLING.replace(Some(polling)))
    }
}

impl Drop for PollingGuard {
    fn drop(&mut self) {
        POLLING.set(self.0);
    }
}

/// What a timer wakes: a task of the same simulation by its slot, or
/// any other waker.
enum TimerTarget {
    Task { slot: usize, id: TaskId },
    Waker(Waker),
}

/// A timer registration: wake `target` once the clock reaches `deadline`.
struct TimerEntry {
    deadline: SimTime,
    seq: u64,
    target: TimerTarget,
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

/// Pending timers, and the registration counter that orders timers due
/// at the same instant.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<TimerEntry>,
    next_seq: u64,
}

/// The run loop's own state. It rests in [`SimInner`] between runs and
/// is moved out for the length of each [`Sim::run`], so the loop reads
/// and writes it without a lock.
#[derive(Default)]
struct Runner {
    /// The task slab: slot `i` holds the live task spawned into it, and
    /// `None` once that task finished.
    tasks: Vec<Option<Task>>,
    /// The front of the ready queue, moved out of [`ReadyState`] under
    /// one lock and used up before the next.
    batch: VecDeque<Ready>,
    /// Slots freed since the last refill of `batch`.
    freed: Vec<usize>,
    /// Targets of the timers due at the instant being released.
    due: Vec<TimerTarget>,
}

struct SimInner {
    /// Virtual clock, in nanoseconds. Only [`Sim::run`] writes it; tasks
    /// read it freely from any thread.
    now_nanos: AtomicU64,
    ready: Arc<ReadyQueue>,
    timers: Mutex<Timers>,
    runner: Mutex<Runner>,
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
                ready: Arc::default(),
                timers: Mutex::default(),
                runner: Mutex::default(),
                events_processed: AtomicU64::new(0),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now_nanos.load(AtomicOrdering::SeqCst))
    }

    /// Total number of task polls performed so far (an engine metric),
    /// brought up to date each time [`Sim::run`] returns.
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
            let waiters = std::mem::take(&mut st.waiters);
            drop(st);
            waiters.into_iter().for_each(Waker::wake);
        };
        let ready = &self.inner.ready;
        let mut st = lock(&ready.state);
        let slot = st.free.pop().unwrap_or(st.slots);
        st.slots = st.slots.max(slot + 1);
        let id = st.next_id;
        st.next_id += 1;
        let waker = Waker::from(Arc::new(TaskWaker {
            ready: Arc::clone(ready),
            slot,
            id,
        }));
        let future = Box::pin(wrapped);
        st.queue.push_back(Ready::Spawned {
            slot,
            task: Task { id, future, waker },
        });
        ready.queued.store(true, AtomicOrdering::Relaxed);
        JoinHandle { state }
    }

    /// Sleeps for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep<'_> {
        self.sleep_until(self.now() + d)
    }

    /// Sleeps until the absolute virtual instant `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep<'_> {
        Sleep {
            sim: self,
            deadline,
        }
    }

    /// Registers `waker` to fire at `deadline`. Used by [`Sleep`]. When
    /// `waker` is the one of the task this thread is polling for this
    /// simulation, the timer keeps the task's slot and id instead of a
    /// clone of the waker.
    fn register_timer(&self, deadline: SimTime, waker: &Waker) {
        let target = match POLLING.get() {
            Some(p)
                if std::ptr::eq(p.sim, Arc::as_ptr(&self.inner))
                    && std::ptr::eq(p.waker_data, waker.data())
                    && std::ptr::eq(p.waker_vtable, waker.vtable()) =>
            {
                TimerTarget::Task {
                    slot: p.slot,
                    id: p.id,
                }
            }
            _ => TimerTarget::Waker(waker.clone()),
        };
        let mut timers = lock(&self.inner.timers);
        let seq = timers.next_seq;
        timers.next_seq += 1;
        timers.heap.push(TimerEntry {
            deadline,
            seq,
            target,
        });
    }

    /// Runs the simulation until no task is runnable and no timer is
    /// pending. Returns the number of tasks that are still alive but
    /// blocked forever (0 means everything completed).
    ///
    /// One run at a time: the run owns the task slab until it returns,
    /// so a second, concurrent or nested, `run` of the same simulation
    /// finds no tasks to poll.
    pub fn run(&self) -> usize {
        let mut run = std::mem::take(&mut *lock(&self.inner.runner));
        let mut polls = 0u64;
        loop {
            // Poll every runnable task. The task stays in its slot while
            // it is polled, and no lock is held across the poll (tasks
            // may spawn, register timers, or wake others).
            while let Some(entry) = self.pick(&mut run) {
                let (slot, id) = match entry {
                    Ready::Spawned { slot, task } => {
                        let id = task.id;
                        if run.tasks.len() <= slot {
                            run.tasks.resize_with(slot + 1, || None);
                        }
                        if let Some(cell) = run.tasks.get_mut(slot) {
                            *cell = Some(task);
                        }
                        (slot, id)
                    }
                    Ready::Woken { slot, id } => (slot, id),
                };
                // A wake for a finished task is stale: its slot is empty
                // or holds a later task.
                let Some(cell) = run.tasks.get_mut(slot) else {
                    continue;
                };
                let Some(task) = cell.as_mut().filter(|task| task.id == id) else {
                    continue;
                };
                polls += 1;
                let polling = PollingGuard::enter(Polling {
                    sim: Arc::as_ptr(&self.inner),
                    waker_data: task.waker.data(),
                    waker_vtable: task.waker.vtable(),
                    slot,
                    id,
                });
                let mut cx = Context::from_waker(&task.waker);
                let done = task.future.as_mut().poll(&mut cx).is_ready();
                drop(polling);
                if done {
                    *cell = None;
                    run.freed.push(slot);
                }
            }
            // Nothing runnable: advance the clock to the earliest timer.
            if !self.release_next_instant(&mut run) {
                break;
            }
        }
        lock(&self.inner.ready.state).free.append(&mut run.freed);
        self.inner
            .events_processed
            .fetch_add(polls, AtomicOrdering::Relaxed);
        let stuck = run.tasks.iter().flatten().count();
        *lock(&self.inner.runner) = run;
        stuck
    }

    /// Chooses the next ready entry: the front of the ready queue, so
    /// tasks run in FIFO wake order. Every ready-queue pop goes through
    /// here. The lock is taken only when the run loop's batch is empty
    /// and the shared queue is not: then the whole shared queue moves
    /// into the batch (and the slots freed since the last refill go back
    /// to `spawn`), so n queued entries cost one lock, not n. Entries
    /// pushed meanwhile queue behind the batch, which keeps the order
    /// FIFO.
    fn pick(&self, run: &mut Runner) -> Option<Ready> {
        let ready = &self.inner.ready;
        if run.batch.is_empty() && ready.queued.load(AtomicOrdering::Relaxed) {
            let mut state = lock(&ready.state);
            state.free.append(&mut run.freed);
            std::mem::swap(&mut state.queue, &mut run.batch);
            ready.queued.store(false, AtomicOrdering::Relaxed);
        }
        run.batch.pop_front()
    }

    /// Advances the clock to the earliest pending timer and wakes every
    /// timer due at that instant, in registration order, so simultaneous
    /// events interleave in that order. Returns false when no timer is
    /// pending. All of them are popped under one lock and woken after it
    /// is released, since a foreign waker may take a lock of its own.
    /// Tasks go straight into the run loop's batch, which `pick` found
    /// empty; from the first foreign waker on, every wake goes through
    /// the shared queue instead, behind that waker's.
    fn release_next_instant(&self, run: &mut Runner) -> bool {
        {
            let mut timers = lock(&self.inner.timers);
            let Some(first) = timers.heap.pop() else {
                return false;
            };
            debug_assert!(first.deadline >= self.now(), "time went backwards");
            self.inner
                .now_nanos
                .store(first.deadline.as_nanos(), AtomicOrdering::SeqCst);
            let deadline = first.deadline;
            run.due.push(first.target);
            while let Some(next) = timers.heap.peek_mut() {
                if next.deadline != deadline {
                    break;
                }
                run.due.push(PeekMut::pop(next).target);
            }
        }
        let mut local = true;
        for target in run.due.drain(..) {
            match target {
                TimerTarget::Task { slot, id } if local => {
                    run.batch.push_back(Ready::Woken { slot, id });
                }
                TimerTarget::Task { slot, id } => self.inner.ready.push(Ready::Woken { slot, id }),
                TimerTarget::Waker(waker) => {
                    local = false;
                    waker.wake();
                }
            }
        }
        true
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
pub struct Sleep<'a> {
    sim: &'a Sim,
    deadline: SimTime,
}

impl Future for Sleep<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            Poll::Ready(())
        } else {
            self.sim.register_timer(self.deadline, cx.waker());
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
        assert_send::<Sleep<'static>>();
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

    /// A future that is pending on its first poll, after `first` ran
    /// with the poll's context, and ready on the next.
    fn pending_once<F: FnMut(&mut Context<'_>) + Send + 'static>(
        mut first: F,
    ) -> impl Future<Output = ()> + Send {
        let mut polled = false;
        std::future::poll_fn(move |cx| {
            if std::mem::replace(&mut polled, true) {
                Poll::Ready(())
            } else {
                first(cx);
                Poll::Pending
            }
        })
    }

    #[test]
    fn a_wake_during_a_poll_runs_after_the_tasks_already_queued() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, by_ref) in [("0", true), ("1", false)] {
            let (log1, log2) = (Arc::clone(&log), Arc::clone(&log));
            sim.spawn(async move {
                pending_once(move |cx| {
                    lock(&log1).push(format!("{name} wakes itself"));
                    if by_ref {
                        cx.waker().wake_by_ref();
                    } else {
                        // By value: the wake consumes its own waker.
                        let waker = cx.waker().clone();
                        waker.wake();
                    }
                })
                .await;
                lock(&log2).push(format!("{name} again"));
            });
        }
        let log2 = Arc::clone(&log);
        sim.spawn(async move { lock(&log2).push("2".to_string()) });
        assert_eq!(sim.run(), 0);
        assert_eq!(
            *lock(&log),
            [
                "0 wakes itself",
                "1 wakes itself",
                "2",
                "0 again",
                "1 again"
            ]
        );
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn a_stale_wake_after_completion_is_neither_polled_nor_counted() {
        let sim = Sim::new();
        let stash: Arc<Mutex<Option<Waker>>> = Arc::default();
        let sim2 = sim.clone();
        sim.spawn(async move {
            // The child finishes on its first poll and leaves its waker.
            let stash2 = Arc::clone(&stash);
            sim2.spawn(std::future::poll_fn(move |cx| {
                *lock(&stash2) = Some(cx.waker().clone());
                Poll::Ready(())
            }))
            .await;
            // The next task takes over the child's slot; the child's
            // waker must not poll it.
            let sim3 = sim2.clone();
            let next = sim2.spawn(async move { sim3.sleep(SimDuration::from_secs(1)).await });
            let stale = lock(&stash).take().expect("stashed");
            stale.wake_by_ref();
            stale.wake();
            next.await;
        });
        assert_eq!(sim.run(), 0);
        // Three polls of the parent, one of the child, two of the next
        // task (spawn, timer): none for the two stale wakes.
        assert_eq!(sim.events_processed(), 6);
        assert_eq!(
            lock(&sim.inner.runner).tasks.len(),
            2,
            "the next task reused the finished child's slot"
        );
    }

    #[test]
    fn finished_tasks_free_their_slots() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.block_on(async move {
            for i in 0..1000u64 {
                let s = sim2.clone();
                sim2.spawn(async move { s.sleep(SimDuration::from_nanos(i)).await })
                    .await;
            }
        });
        assert_eq!(sim.run(), 0);
        let slots = lock(&sim.inner.runner).tasks.len();
        assert!(slots <= 3, "1000 tasks in sequence took {slots} slots");
    }

    #[test]
    fn a_waker_fired_from_another_thread_during_run_is_honoured() {
        let sim = Sim::new();
        let (tx, rx) = std::sync::mpsc::channel::<Waker>();
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let parked = sim.spawn(pending_once(move |cx| {
            tx.send(cx.waker().clone()).expect("receiver alive");
        }));
        // Keep the run going in virtual time until the other thread has
        // fired the waker (bounded in host time, so a lost wake fails
        // the test instead of hanging it).
        let (sim2, fired2) = (sim.clone(), Arc::clone(&fired));
        sim.spawn(async move {
            let start = std::time::Instant::now();
            while !fired2.load(AtomicOrdering::Acquire) && start.elapsed().as_secs() < 10 {
                sim2.sleep(SimDuration::from_nanos(1)).await;
            }
        });
        let waker_thread = std::thread::spawn(move || {
            rx.recv().expect("the parked task sends its waker").wake();
            fired.store(true, AtomicOrdering::Release);
        });
        assert_eq!(sim.run(), 0, "the parked task was woken and finished");
        assert!(parked.is_finished());
        waker_thread.join().expect("waker thread");
    }

    #[test]
    fn a_task_no_waker_can_reach_counts_in_runs_return_value() {
        let sim = Sim::new();
        sim.spawn(std::future::pending::<()>());
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_secs(1)).await;
            // It drops the waker of its one poll: nothing can wake it.
            sim2.spawn(pending_once(|_| {}));
        });
        assert_eq!(sim.run(), 2, "two tasks blocked forever, one finished");
        assert_eq!(sim.run(), 2, "a second run counts them again, once");
        sim.spawn(async {});
        assert_eq!(sim.run(), 2, "a finished task never counts");
    }

    #[test]
    fn same_instant_timers_from_different_tasks_release_in_registration_order() {
        /// Polls `inner` under a waker of its own that forwards to the
        /// task's, so its timer holds a waker the executor did not make.
        struct Forwarded<F>(Pin<Box<F>>);
        struct Forward(Waker);
        impl Wake for Forward {
            fn wake(self: Arc<Self>) {
                self.0.wake_by_ref();
            }
        }
        impl<F: Future> Future for Forwarded<F> {
            type Output = F::Output;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
                let waker = Waker::from(Arc::new(Forward(cx.waker().clone())));
                self.0.as_mut().poll(&mut Context::from_waker(&waker))
            }
        }

        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let at = SimTime::from_nanos(10_000_000_000);
        let task = |name: &'static str, first: Option<SimDuration>, forwarded: bool| {
            let (sim2, log2) = (sim.clone(), Arc::clone(&log));
            sim.spawn(async move {
                if let Some(d) = first {
                    sim2.sleep(d).await;
                }
                if forwarded {
                    Forwarded(Box::pin(sim2.sleep_until(at))).await;
                } else {
                    sim2.sleep_until(at).await;
                }
                lock(&log2).push((name, sim2.now()));
            });
        };
        // Registration order at 10 s: a, w (through a foreign waker), c,
        // then b, which registers its 10 s timer only at 5 s.
        task("a", None, false);
        task("b", Some(SimDuration::from_secs(5)), false);
        task("w", None, true);
        task("c", None, false);
        assert_eq!(sim.run(), 0);
        assert_eq!(*lock(&log), [("a", at), ("w", at), ("c", at), ("b", at)]);
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
