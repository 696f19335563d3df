//! Synchronisation primitives for simulated processes.
//!
//! * [`Resource`] — a FIFO semaphore modelling a capacity-limited server
//!   (disk spindles, an airlock, an iSCSI gateway, ...). Holding a
//!   [`Permit`] means occupying one unit of capacity; dropping it releases
//!   the unit and admits the next waiter in arrival order.
//! * [`channel`] — an unbounded FIFO message queue between processes.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;

use std::task::{Context, Poll, Waker};

use std::sync::{Arc, Mutex};

use crate::executor::lock;
use crate::executor::Sim;
use crate::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------------
// Resource (FIFO semaphore)
// ---------------------------------------------------------------------------

struct Waiter {
    ticket: u64,
    waker: Option<Waker>,
}

struct ResInner {
    capacity: usize,
    in_use: usize,
    waiters: VecDeque<Waiter>,
    next_ticket: u64,
    // Aggregate queueing statistics.
    acquires: u64,
    total_wait: SimDuration,
    max_queue_len: usize,
}

impl ResInner {
    /// The front waiter's waker when a unit is free, for the caller to
    /// fire once it has released the lock: a waker takes the executor's
    /// ready-queue lock, and no lock is taken while another is held.
    fn waker_to_admit(&mut self) -> Option<Waker> {
        if self.in_use < self.capacity {
            self.waiters.front_mut()?.waker.take()
        } else {
            None
        }
    }
}

/// A capacity-limited resource with strict FIFO admission.
///
/// # Examples
///
/// ```
/// use bolted_sim::{Sim, SimDuration, Resource};
///
/// let sim = Sim::new();
/// let disk = Resource::new(&sim, 1);
/// for _ in 0..3 {
///     let (sim2, disk2) = (sim.clone(), disk.clone());
///     sim.spawn(async move {
///         let _permit = disk2.acquire().await;
///         sim2.sleep(SimDuration::from_secs(1)).await; // service time
///     });
/// }
/// sim.run();
/// assert_eq!(sim.now().as_secs_f64(), 3.0); // serialized by capacity 1
/// ```
#[derive(Clone)]
pub struct Resource {
    sim: Sim,
    inner: Arc<Mutex<ResInner>>,
}

impl Resource {
    /// Creates a resource with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(sim: &Sim, capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be positive");
        Resource {
            sim: sim.clone(),
            inner: Arc::new(Mutex::new(ResInner {
                capacity,
                in_use: 0,
                waiters: VecDeque::new(),
                next_ticket: 0,
                acquires: 0,
                total_wait: SimDuration::ZERO,
                max_queue_len: 0,
            })),
        }
    }

    /// Waits (FIFO) for one unit of capacity.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            res: self.clone(),
            ticket: None,
            enqueued_at: self.sim.now(),
        }
    }

    /// Acquires, holds for `service`, then releases — the common pattern
    /// for a timed visit to a queueing station.
    pub async fn visit(&self, service: SimDuration) {
        let _permit = self.acquire().await;
        self.sim.sleep(service).await;
    }

    /// Units currently in use.
    pub fn in_use(&self) -> usize {
        lock(&self.inner).in_use
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        lock(&self.inner).capacity
    }

    /// Mean time spent waiting in the queue, over all acquisitions so far.
    pub fn mean_wait(&self) -> SimDuration {
        let inner = lock(&self.inner);
        if inner.acquires == 0 {
            SimDuration::ZERO
        } else {
            inner.total_wait / inner.acquires
        }
    }

    /// Longest queue observed.
    pub fn max_queue_len(&self) -> usize {
        lock(&self.inner).max_queue_len
    }

    fn release_one(&self) {
        let mut inner = lock(&self.inner);
        debug_assert!(inner.in_use > 0, "release without acquire");
        inner.in_use -= 1;
        let admit = inner.waker_to_admit();
        drop(inner);
        if let Some(w) = admit {
            w.wake();
        }
    }
}

/// RAII guard for one unit of a [`Resource`]'s capacity.
pub struct Permit {
    res: Resource,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.res.release_one();
    }
}

/// Future returned by [`Resource::acquire`].
pub struct Acquire {
    res: Resource,
    ticket: Option<u64>,
    enqueued_at: SimTime,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let this = &mut *self;
        let mut inner = lock(&this.res.inner);
        match this.ticket {
            None => {
                if inner.waiters.is_empty() && inner.in_use < inner.capacity {
                    inner.in_use += 1;
                    inner.acquires += 1;
                    drop(inner);
                    return Poll::Ready(Permit {
                        res: this.res.clone(),
                    });
                }
                let ticket = inner.next_ticket;
                inner.next_ticket += 1;
                inner.waiters.push_back(Waiter {
                    ticket,
                    waker: Some(cx.waker().clone()),
                });
                let qlen = inner.waiters.len();
                inner.max_queue_len = inner.max_queue_len.max(qlen);
                this.ticket = Some(ticket);
                Poll::Pending
            }
            Some(ticket) => {
                let at_front = inner.waiters.front().is_some_and(|w| w.ticket == ticket);
                if at_front && inner.in_use < inner.capacity {
                    inner.waiters.pop_front();
                    inner.in_use += 1;
                    inner.acquires += 1;
                    let waited = this.res.sim.now().since(this.enqueued_at);
                    inner.total_wait += waited;
                    // Cascade: if capacity remains, let the next waiter run
                    // too (e.g. after a multi-release burst).
                    let admit = inner.waker_to_admit();
                    drop(inner);
                    if let Some(w) = admit {
                        w.wake();
                    }
                    this.ticket = None; // mark granted so Drop won't dequeue
                    Poll::Ready(Permit {
                        res: this.res.clone(),
                    })
                } else {
                    if let Some(me) = inner.waiters.iter_mut().find(|w| w.ticket == ticket) {
                        me.waker = Some(cx.waker().clone());
                    }
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        // Cancel-safety: if we were still queued, leave the queue and make
        // sure the (possibly new) front waiter gets woken.
        if let Some(ticket) = self.ticket {
            let mut inner = lock(&self.res.inner);
            inner.waiters.retain(|w| w.ticket != ticket);
            let admit = inner.waker_to_admit();
            drop(inner);
            if let Some(w) = admit {
                w.wake();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Channel (unbounded FIFO)
// ---------------------------------------------------------------------------

struct ChanInner<T> {
    queue: VecDeque<T>,
    recv_wakers: Vec<Waker>,
    senders: usize,
}

/// Sending half of an unbounded channel; clonable.
pub struct Sender<T> {
    inner: Arc<Mutex<ChanInner<T>>>,
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    inner: Arc<Mutex<ChanInner<T>>>,
}

/// Creates an unbounded FIFO channel between simulated processes.
///
/// `recv` resolves to `None` once every sender has been dropped and the
/// queue is drained.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Mutex::new(ChanInner {
        queue: VecDeque::new(),
        recv_wakers: Vec::new(),
        senders: 1,
    }));
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.inner).senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.inner);
        inner.senders -= 1;
        if inner.senders == 0 {
            let wakers = std::mem::take(&mut inner.recv_wakers);
            drop(inner);
            wakers.into_iter().for_each(Waker::wake);
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues a message, waking the receiver if it is blocked.
    pub fn send(&self, value: T) {
        let mut inner = lock(&self.inner);
        inner.queue.push_back(value);
        let wakers = std::mem::take(&mut inner.recv_wakers);
        drop(inner);
        wakers.into_iter().for_each(Waker::wake);
    }
}

impl<T> Receiver<T> {
    /// Waits for the next message; `None` when all senders are gone and the
    /// queue is empty.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Non-blocking pop.
    pub fn try_recv(&self) -> Option<T> {
        lock(&self.inner).queue.pop_front()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        lock(&self.inner).queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = lock(&self.rx.inner);
        if let Some(v) = inner.queue.pop_front() {
            Poll::Ready(Some(v))
        } else if inner.senders == 0 {
            Poll::Ready(None)
        } else {
            inner.recv_wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn resource_serializes_by_capacity() {
        let sim = Sim::new();
        let res = Resource::new(&sim, 2);
        let done = Arc::new(Mutex::new(Vec::new()));
        for i in 0..6u32 {
            let (sim2, res2, done2) = (sim.clone(), res.clone(), Arc::clone(&done));
            sim.spawn(async move {
                res2.visit(SimDuration::from_secs(10)).await;
                lock(&done2).push((i, sim2.now().as_secs_f64()));
            });
        }
        sim.run();
        // Capacity 2, 6 jobs of 10s each => 3 waves finishing at 10/20/30.
        let d = lock(&done);
        assert_eq!(d.len(), 6);
        assert_eq!(d[0].1, 10.0);
        assert_eq!(d[1].1, 10.0);
        assert_eq!(d[2].1, 20.0);
        assert_eq!(d[5].1, 30.0);
    }

    #[test]
    fn resource_is_fifo() {
        let sim = Sim::new();
        let res = Resource::new(&sim, 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5u32 {
            let (sim2, res2, order2) = (sim.clone(), res.clone(), Arc::clone(&order));
            sim.spawn(async move {
                // Arrive staggered so arrival order is unambiguous.
                sim2.sleep(SimDuration::from_millis(u64::from(i))).await;
                let _p = res2.acquire().await;
                lock(&order2).push(i);
                sim2.sleep(SimDuration::from_secs(1)).await;
            });
        }
        sim.run();
        assert_eq!(*lock(&order), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn resource_tracks_wait_stats() {
        let sim = Sim::new();
        let res = Resource::new(&sim, 1);
        for _ in 0..3 {
            let res2 = res.clone();
            sim.spawn(async move {
                res2.visit(SimDuration::from_secs(10)).await;
            });
        }
        sim.run();
        // Waits: 0, 10, 20 => mean 10.
        assert_eq!(res.mean_wait(), SimDuration::from_secs(10));
        assert_eq!(res.max_queue_len(), 2);
    }

    #[test]
    fn permit_released_on_drop_mid_task() {
        let sim = Sim::new();
        let res = Resource::new(&sim, 1);
        let (sim2, res2) = (sim.clone(), res.clone());
        sim.spawn(async move {
            let p = res2.acquire().await;
            sim2.sleep(SimDuration::from_secs(1)).await;
            drop(p);
            sim2.sleep(SimDuration::from_secs(100)).await;
        });
        let res3 = res.clone();
        let h = sim.spawn(async move {
            let _p = res3.acquire().await;
        });
        sim.run();
        assert!(h.is_finished());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let sim = Sim::new();
        let _ = Resource::new(&sim, 0);
    }

    #[test]
    fn channel_delivers_in_order() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let sim2 = sim.clone();
        sim.spawn(async move {
            for i in 0..5 {
                sim2.sleep(SimDuration::from_secs(1)).await;
                tx.send(i);
            }
        });
        let got = sim.block_on(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn channel_recv_none_when_senders_dropped() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        drop(tx);
        let got = sim.block_on(async move { rx.recv().await });
        assert_eq!(got, None);
    }

    #[test]
    fn channel_clone_senders_counted() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9);
        drop(tx2);
        let got = sim.block_on(async move {
            let a = rx.recv().await;
            let b = rx.recv().await;
            (a, b)
        });
        assert_eq!(got, (Some(9), None));
    }

    #[test]
    fn acquire_cancellation_wakes_next_waiter() {
        let sim = Sim::new();
        let res = Resource::new(&sim, 1);
        // Task A holds the resource for 10s.
        let (sim_a, res_a) = (sim.clone(), res.clone());
        sim.spawn(async move {
            let _p = res_a.acquire().await;
            sim_a.sleep(SimDuration::from_secs(10)).await;
        });
        // Task B queues but gives up at t=5 (drops its Acquire).
        let (sim_b, res_b) = (sim.clone(), res.clone());
        sim.spawn(async move {
            let acq = res_b.acquire();
            let timeout = sim_b.sleep(SimDuration::from_secs(5));
            // Simple select: race the two futures by polling via a helper.
            futures_race(acq, timeout).await;
        });
        // Task C queues behind B and must still eventually run.
        let res_c = res.clone();
        let h = sim.spawn(async move {
            let _p = res_c.acquire().await;
        });
        assert_eq!(sim.run(), 0);
        assert!(h.is_finished());
        assert_eq!(sim.now().as_secs_f64(), 10.0);
    }

    /// Polls two futures until either completes (a minimal `select`).
    async fn futures_race<A: Future, B: Future>(a: A, b: B) {
        let mut a = Box::pin(a);
        let mut b = Box::pin(b);
        std::future::poll_fn(move |cx| {
            if a.as_mut().poll(cx).is_ready() || b.as_mut().poll(cx).is_ready() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await
    }
}
