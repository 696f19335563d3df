//! The retry discipline, in virtual time: four attempts, exponential
//! backoff from 200 ms capped at 10 s, and 10% seeded jitter.
//!
//! The provisioning pipeline talks to BMCs, switches, storage gateways
//! and attestation services, any of which can transiently fail under a
//! [`crate::fault::FaultPlan`]. Every retried call gets the same
//! recovery: bounded attempts, backoff with seeded jitter, and a
//! structured [`RetryError`] distinguishing "gave up" from "this error
//! is not retryable". The constants here are the whole policy; the one
//! loop that applies them is [`crate::CallEnv::call`].
//!
//! Determinism: on the happy path (first attempt succeeds) the loop
//! performs no sleeps and draws nothing from the RNG, so wrapping an
//! operation in it does not shift virtual time or RNG streams in a
//! fault-free simulation.

use crate::time::SimDuration;

/// Total attempts per retried call, including the first.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the second attempt; doubles per further attempt.
pub const BASE_BACKOFF: SimDuration = SimDuration::from_millis(200);
/// Backoff ceiling.
pub const MAX_BACKOFF: SimDuration = SimDuration::from_secs(10);
/// Coefficient of variation of the backoff jitter.
pub const JITTER_CV: f64 = 0.1;

/// Backoff after `failures` failed attempts, before jitter:
/// `BASE_BACKOFF * 2^failures`, capped at [`MAX_BACKOFF`].
pub(crate) fn backoff(failures: u32) -> SimDuration {
    let ns = BASE_BACKOFF
        .as_nanos()
        .saturating_mul(1u64 << failures.min(63));
    SimDuration::from_nanos(ns).min(MAX_BACKOFF)
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
}

impl<E> RetryError<E> {
    /// Attempts made before giving up.
    pub fn attempts(&self) -> u32 {
        match self {
            RetryError::Exhausted { attempts, .. } | RetryError::Fatal { attempts, .. } => {
                *attempts
            }
        }
    }

    /// The underlying error.
    pub fn into_inner(self) -> E {
        match self {
            RetryError::Exhausted { last, .. } => last,
            RetryError::Fatal { error, .. } => error,
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
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for RetryError<E> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::CallEnv;
    use crate::executor::Sim;
    use crate::fault::Faults;
    use crate::metrics::Metrics;
    use crate::rng::Rng;
    use crate::span::Spans;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn env(sim: &Sim, metrics: &Metrics) -> CallEnv {
        CallEnv::new(sim, &Faults::disabled(), &Spans::disabled(), metrics)
    }

    /// Runs `env.call` as `bmc.power` against `target` on an op that
    /// fails transiently `fail_first` times, then succeeds with its
    /// attempt number. Returns the result, the attempts made and the
    /// jitter stream (seeded with 1) as the loop left it.
    fn run_flaky(
        env: &CallEnv,
        target: &'static str,
        fail_first: u32,
    ) -> (Result<u32, RetryError<&'static str>>, u32, Rng) {
        let calls = AtomicU32::new(0);
        let env2 = env.clone();
        let (got, rng, calls) = env.sim().block_on(async move {
            let mut rng = Rng::seed_from_u64(1);
            let calls_ref = &calls;
            let op = move || async move {
                let n = calls_ref.fetch_add(1, Ordering::Relaxed) + 1;
                if n <= fail_first {
                    Err("transient")
                } else {
                    Ok(n)
                }
            };
            let got = env2.call(&mut rng, "bmc.power", target, op, |_| true).await;
            (got, rng, calls.into_inner())
        });
        (got, calls, rng)
    }

    #[test]
    fn first_attempt_success_costs_no_time_or_rng_draws() {
        let sim = Sim::new();
        let (got, _, mut rng) = run_flaky(&env(&sim, &Metrics::disabled()), "t", 0);
        assert_eq!(got, Ok(1));
        assert_eq!(sim.now().as_nanos(), 0, "no backoff, no timers");
        // Nothing was drawn: the stream continues where a fresh one starts.
        assert_eq!(rng.next_u64(), Rng::seed_from_u64(1).next_u64());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), SimDuration::from_millis(200));
        assert_eq!(backoff(1), SimDuration::from_millis(400));
        assert_eq!(backoff(5), SimDuration::from_millis(6400));
        assert_eq!(backoff(6), MAX_BACKOFF);
        assert_eq!(backoff(40), MAX_BACKOFF);
    }

    #[test]
    fn retries_until_success_with_backoff_time() {
        let sim = Sim::new();
        let (got, calls, _) = run_flaky(&env(&sim, &Metrics::disabled()), "t", 2);
        assert_eq!(got, Ok(3));
        assert_eq!(calls, 3);
        // Two failures: the 200 ms and 400 ms backoffs, each jittered by
        // one draw from the same seeded stream.
        let mut expect = Rng::seed_from_u64(1);
        let slept = backoff(0).mul_f64(expect.jitter(JITTER_CV))
            + backoff(1).mul_f64(expect.jitter(JITTER_CV));
        assert_eq!(sim.now().as_nanos(), slept.as_nanos());
    }

    #[test]
    fn exhaustion_reports_attempts_and_last_error() {
        let sim = Sim::new();
        let (got, calls, _) = run_flaky(&env(&sim, &Metrics::disabled()), "t", 99);
        assert_eq!(
            got,
            Err(RetryError::Exhausted {
                attempts: MAX_ATTEMPTS,
                last: "transient",
            })
        );
        assert_eq!(calls, MAX_ATTEMPTS);
    }

    #[test]
    fn fatal_errors_bypass_remaining_attempts() {
        let sim = Sim::new();
        let env = env(&sim, &Metrics::disabled());
        let (got, calls) = sim.block_on(async move {
            let calls = AtomicU32::new(0);
            let calls_ref = &calls;
            let op = move || async move {
                calls_ref.fetch_add(1, Ordering::Relaxed);
                Err::<(), _>("fatal")
            };
            let mut rng = Rng::seed_from_u64(1);
            let got = env.call(&mut rng, "op", "t", op, |e| *e != "fatal").await;
            (got, calls.into_inner())
        });
        assert_eq!(
            got,
            Err(RetryError::Fatal {
                attempts: 1,
                error: "fatal",
            })
        );
        assert_eq!(calls, 1);
        assert_eq!(
            got.unwrap_err().to_string(),
            "fatal",
            "fatal errors display as themselves"
        );
    }

    #[test]
    fn observed_retries_count_reattempts_only() {
        let sim = Sim::new();
        let metrics = Metrics::new();
        let env = env(&sim, &metrics);
        let labels: &[(&str, &str)] = &[("op", "bmc.power"), ("target", "n1")];
        // Two failures then success: exactly 2 re-attempts recorded.
        assert_eq!(run_flaky(&env, "n1", 2).0, Ok(3));
        assert_eq!(metrics.counter("retry_attempts", labels), 2);
        // First-try success leaves the counter untouched.
        assert_eq!(run_flaky(&env, "n2", 0).0, Ok(1));
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
        assert_eq!(e.into_inner(), "boom");
        let f: RetryError<&str> = RetryError::Fatal {
            attempts: 1,
            error: "nope",
        };
        assert_eq!(f.to_string(), "nope");
        assert_eq!(f.into_inner(), "nope");
    }
}
