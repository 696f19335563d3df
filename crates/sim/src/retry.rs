//! Bounded retry with exponential backoff, jitter, and timeouts —
//! all in virtual time.
//!
//! The provisioning pipeline talks to BMCs, switches, storage gateways
//! and attestation services, any of which can transiently fail under a
//! [`crate::fault::FaultPlan`]. This module gives every caller the same
//! disciplined recovery loop: bounded attempts, exponential backoff with
//! seeded jitter, optional per-operation timeouts raced on `sim.sleep`,
//! and a structured [`RetryError`] distinguishing "gave up" from "this
//! error is not retryable".
//!
//! [`retry_if_observed`] is the one loop; service calls reach it through
//! [`crate::CallEnv::call`].
//!
//! Determinism: on the happy path (first attempt succeeds) the loop
//! performs no sleeps and draws nothing from the RNG, so wrapping an
//! operation in it does not shift virtual time or RNG streams in a
//! fault-free simulation.

use std::future::Future;
use std::pin::Pin;
use std::task::Poll;

use crate::executor::Sim;
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::time::SimDuration;

/// Tunables for one class of retried operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Per-attempt deadline, raced against the operation via
    /// `sim.sleep`. `None` (the default) imposes no deadline — and also
    /// creates no timer, which matters because `sim.run()` drains stray
    /// timers and would otherwise advance the clock past the last event.
    pub timeout: Option<SimDuration>,
    /// Coefficient of variation for backoff jitter; `0.0` disables the
    /// jitter draw entirely.
    pub jitter_cv: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(200),
            max_backoff: SimDuration::from_secs(10),
            timeout: None,
            jitter_cv: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `n + 2` (0-based index of completed
    /// failures), before jitter: `base * 2^n`, capped at `max_backoff`.
    fn backoff_for(&self, failures: u32) -> SimDuration {
        let shift = failures.min(32);
        let ns = self
            .base_backoff
            .as_nanos()
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX));
        SimDuration::from_nanos(ns).min(self.max_backoff)
    }
}

/// Why a retried operation ultimately did not return `Ok`.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryError<E> {
    /// Every attempt failed with a transient error; `last` is the final one.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The error from the last attempt.
        last: E,
    },
    /// An attempt failed with a non-retryable error; no further attempts
    /// were made.
    Fatal {
        /// Attempts made (including the fatal one).
        attempts: u32,
        /// The non-retryable error.
        error: E,
    },
    /// The final attempt's per-op timeout elapsed before it completed.
    TimedOut {
        /// Attempts made.
        attempts: u32,
    },
}

impl<E> RetryError<E> {
    /// Attempts made before giving up.
    pub fn attempts(&self) -> u32 {
        match self {
            RetryError::Exhausted { attempts, .. }
            | RetryError::Fatal { attempts, .. }
            | RetryError::TimedOut { attempts } => *attempts,
        }
    }

    /// The underlying error, when one exists (not for timeouts).
    pub fn into_inner(self) -> Option<E> {
        match self {
            RetryError::Exhausted { last, .. } => Some(last),
            RetryError::Fatal { error, .. } => Some(error),
            RetryError::TimedOut { .. } => None,
        }
    }
}

impl<E: std::fmt::Display> std::fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            RetryError::Fatal { error, .. } => write!(f, "{error}"),
            RetryError::TimedOut { attempts } => {
                write!(f, "operation timed out ({attempts} attempts)")
            }
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for RetryError<E> {}

/// Races `fut` against a virtual-time deadline. Returns `None` when the
/// deadline fires first. The losing future is dropped, which cancels it
/// (simulated work is all cooperative).
async fn with_timeout<T>(sim: &Sim, limit: SimDuration, fut: impl Future<Output = T>) -> Option<T> {
    let mut fut = Box::pin(fut);
    let mut deadline = Box::pin(sim.sleep(limit));
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = fut.as_mut().poll(cx) {
            return Poll::Ready(Some(v));
        }
        match Pin::new(&mut deadline).as_mut().poll(cx) {
            Poll::Ready(()) => Poll::Ready(None),
            Poll::Pending => Poll::Pending,
        }
    })
    .await
}

/// Retries `op` up to `policy.max_attempts` times, backing off between
/// attempts, as long as `is_transient` says the error is worth retrying.
///
/// `op` is called once per attempt and must return a fresh future each
/// time (clone your handles into an `async move` block). Jitter is drawn
/// from `rng` only when a backoff actually happens, so the fault-free
/// path costs zero draws and zero sleeps.
///
/// Each re-attempt is counted into `metrics` as
/// `retry_attempts{op=.., target=..}` — one increment per attempt
/// *beyond the first*, stamped when the loop decides to go around again
/// (so a happy first try leaves the counter untouched). Pass
/// [`Metrics::disabled`] to count nowhere.
#[allow(clippy::too_many_arguments)]
pub async fn retry_if_observed<T, E, F, Fut, P>(
    sim: &Sim,
    policy: &RetryPolicy,
    rng: &mut Rng,
    metrics: &Metrics,
    op_name: &str,
    target: &str,
    mut op: F,
    mut is_transient: P,
) -> Result<T, RetryError<E>>
where
    F: FnMut() -> Fut,
    Fut: Future<Output = Result<T, E>>,
    P: FnMut(&E) -> bool,
{
    let max = policy.max_attempts.max(1);
    let mut failures = 0u32;
    loop {
        let attempt_no = failures + 1;
        let outcome = match policy.timeout {
            Some(limit) => with_timeout(sim, limit, op()).await,
            None => Some(op().await),
        };
        match outcome {
            Some(Ok(v)) => return Ok(v),
            Some(Err(e)) if !is_transient(&e) => {
                return Err(RetryError::Fatal {
                    attempts: attempt_no,
                    error: e,
                });
            }
            Some(Err(e)) => {
                if attempt_no >= max {
                    return Err(RetryError::Exhausted {
                        attempts: attempt_no,
                        last: e,
                    });
                }
            }
            None => {
                if attempt_no >= max {
                    return Err(RetryError::TimedOut {
                        attempts: attempt_no,
                    });
                }
            }
        }
        metrics.inc("retry_attempts", &[("op", op_name), ("target", target)]);
        let mut backoff = policy.backoff_for(failures);
        if policy.jitter_cv > 0.0 {
            backoff = backoff.mul_f64(rng.jitter(policy.jitter_cv));
        }
        if !backoff.is_zero() {
            sim.sleep(backoff).await;
        }
        failures += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// The loop with every error transient, counting nowhere.
    async fn retry_all<T, E, F, Fut>(
        sim: &Sim,
        policy: &RetryPolicy,
        rng: &mut Rng,
        op: F,
    ) -> Result<T, RetryError<E>>
    where
        F: FnMut() -> Fut,
        Fut: Future<Output = Result<T, E>>,
    {
        let metrics = Metrics::disabled();
        retry_if_observed(sim, policy, rng, &metrics, "op", "t", op, |_| true).await
    }

    fn flaky_op(
        sim: &Sim,
        calls: &Arc<AtomicU32>,
        fail_first: u32,
        cost: SimDuration,
    ) -> impl FnMut() -> Pin<Box<dyn Future<Output = Result<u32, &'static str>> + Send>> {
        let sim = sim.clone();
        let calls = calls.clone();
        move || {
            let sim = sim.clone();
            let calls = calls.clone();
            Box::pin(async move {
                sim.sleep(cost).await;
                let n = calls.fetch_add(1, Ordering::Relaxed) + 1;
                if n <= fail_first {
                    Err("transient")
                } else {
                    Ok(n)
                }
            })
        }
    }

    #[test]
    fn first_attempt_success_costs_no_time_or_rng_draws() {
        let sim = Sim::new();
        let calls = Arc::new(AtomicU32::new(0));
        let rng = Rng::seed_from_u64(1);
        let before = rng.clone();
        let op = flaky_op(&sim, &calls, 0, SimDuration::ZERO);
        let got = sim.block_on({
            let sim2 = sim.clone();
            let mut rng2 = rng.clone();
            async move { retry_all(&sim2, &RetryPolicy::default(), &mut rng2, op).await }
        });
        assert_eq!(got, Ok(1));
        assert_eq!(sim.now().as_nanos(), 0, "no backoff, no timers");
        // The rng we passed was a clone; verify the original would have
        // produced the same stream, i.e. nothing was drawn.
        let mut a = before;
        let mut b = Rng::seed_from_u64(1);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_millis(350),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(0), SimDuration::from_millis(100));
        assert_eq!(p.backoff_for(1), SimDuration::from_millis(200));
        assert_eq!(p.backoff_for(2), SimDuration::from_millis(350));
        assert_eq!(p.backoff_for(40), SimDuration::from_millis(350));
    }

    #[test]
    fn retries_until_success_with_backoff_time() {
        let sim = Sim::new();
        let calls = Arc::new(AtomicU32::new(0));
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_secs(10),
            timeout: None,
            jitter_cv: 0.0, // exact timing check
        };
        let op = flaky_op(&sim, &calls, 2, SimDuration::ZERO);
        let got = sim.block_on({
            let sim2 = sim.clone();
            async move {
                let mut rng = Rng::seed_from_u64(1);
                retry_all(&sim2, &policy, &mut rng, op).await
            }
        });
        assert_eq!(got, Ok(3));
        // Two failures -> backoffs of 100ms and 200ms.
        assert_eq!(
            sim.now().as_nanos(),
            SimDuration::from_millis(300).as_nanos()
        );
    }

    #[test]
    fn exhaustion_reports_attempts_and_last_error() {
        let sim = Sim::new();
        let calls = Arc::new(AtomicU32::new(0));
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let op = flaky_op(&sim, &calls, 99, SimDuration::ZERO);
        let got = sim.block_on({
            let sim2 = sim.clone();
            async move {
                let mut rng = Rng::seed_from_u64(1);
                retry_all(&sim2, &policy, &mut rng, op).await
            }
        });
        match got {
            Err(RetryError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert_eq!(last, "transient");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fatal_errors_bypass_remaining_attempts() {
        let sim = Sim::new();
        let calls = Arc::new(AtomicU32::new(0));
        let got = sim.block_on({
            let sim2 = sim.clone();
            let calls2 = calls.clone();
            async move {
                let mut rng = Rng::seed_from_u64(1);
                retry_if_observed(
                    &sim2,
                    &RetryPolicy::default(),
                    &mut rng,
                    &Metrics::disabled(),
                    "op",
                    "t",
                    move || {
                        let calls3 = calls2.clone();
                        async move {
                            calls3.fetch_add(1, Ordering::Relaxed);
                            Err::<(), _>("fatal")
                        }
                    },
                    |e| *e != "fatal",
                )
                .await
            }
        });
        match got {
            Err(RetryError::Fatal { attempts, error }) => {
                assert_eq!(attempts, 1);
                assert_eq!(error, "fatal");
            }
            other => panic!("expected fatal, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(
            got.unwrap_err().to_string(),
            "fatal",
            "fatal errors display as themselves"
        );
    }

    #[test]
    fn per_attempt_timeout_fires_and_reports() {
        let sim = Sim::new();
        let calls = Arc::new(AtomicU32::new(0));
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_secs(1),
            timeout: Some(SimDuration::from_secs(1)),
            jitter_cv: 0.0,
        };
        // Operation takes 5s, timeout is 1s: both attempts time out.
        let op = flaky_op(&sim, &calls, 0, SimDuration::from_secs(5));
        let (got, done_at) = sim.block_on({
            let sim2 = sim.clone();
            async move {
                let mut rng = Rng::seed_from_u64(1);
                let r = retry_all(&sim2, &policy, &mut rng, op).await;
                (r, sim2.now())
            }
        });
        match got {
            Err(RetryError::TimedOut { attempts }) => assert_eq!(attempts, 2),
            other => panic!("expected timeout, got {other:?}"),
        }
        // 1s timeout + 10ms backoff + 1s timeout. (Measured inside the
        // task: block_on's final drain still pops the cancelled ops' 5s
        // sleep timers, advancing sim.now() past this — the stray-timer
        // effect documented on `RetryPolicy::timeout`.)
        assert_eq!(
            done_at.as_nanos(),
            SimDuration::from_millis(2010).as_nanos()
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0, "slow op never completed");
    }

    #[test]
    fn with_timeout_returns_value_when_fast_enough() {
        let sim = Sim::new();
        let got = sim.block_on({
            let sim2 = sim.clone();
            async move {
                let fast = async {
                    sim2.sleep(SimDuration::from_millis(10)).await;
                    7u32
                };
                with_timeout(&sim2, SimDuration::from_secs(1), fast).await
            }
        });
        assert_eq!(got, Some(7));
    }

    #[test]
    fn observed_retries_count_reattempts_only() {
        let sim = Sim::new();
        let metrics = Metrics::new();
        let labels: &[(&str, &str)] = &[("op", "bmc.power"), ("target", "n1")];
        // Two failures then success: exactly 2 re-attempts recorded.
        let calls = Arc::new(AtomicU32::new(0));
        let op = flaky_op(&sim, &calls, 2, SimDuration::ZERO);
        let got = sim.block_on({
            let sim2 = sim.clone();
            let m2 = metrics.clone();
            async move {
                let mut rng = Rng::seed_from_u64(1);
                retry_if_observed(
                    &sim2,
                    &RetryPolicy::default(),
                    &mut rng,
                    &m2,
                    "bmc.power",
                    "n1",
                    op,
                    |_| true,
                )
                .await
            }
        });
        assert_eq!(got, Ok(3));
        assert_eq!(metrics.counter("retry_attempts", labels), 2);

        // First-try success leaves the counter untouched.
        let calls = Arc::new(AtomicU32::new(0));
        let op = flaky_op(&sim, &calls, 0, SimDuration::ZERO);
        let got = sim.block_on({
            let sim2 = sim.clone();
            let m2 = metrics.clone();
            async move {
                let mut rng = Rng::seed_from_u64(1);
                retry_if_observed(
                    &sim2,
                    &RetryPolicy::default(),
                    &mut rng,
                    &m2,
                    "bmc.power",
                    "n2",
                    op,
                    |_| true,
                )
                .await
            }
        });
        assert_eq!(got, Ok(1));
        assert_eq!(
            metrics.counter("retry_attempts", &[("op", "bmc.power"), ("target", "n2")]),
            0
        );
        assert_eq!(metrics.counter("retry_attempts", labels), 2, "n1 unchanged");
    }

    #[test]
    fn error_display_formats() {
        let e: RetryError<&str> = RetryError::Exhausted {
            attempts: 4,
            last: "boom",
        };
        assert_eq!(e.to_string(), "retries exhausted after 4 attempts: boom");
        assert_eq!(e.attempts(), 4);
        assert_eq!(e.into_inner(), Some("boom"));
        let t: RetryError<&str> = RetryError::TimedOut { attempts: 2 };
        assert_eq!(t.to_string(), "operation timed out (2 attempts)");
        assert_eq!(t.into_inner(), None);
    }
}
