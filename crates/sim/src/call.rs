//! The single instrumented call path shared by every service boundary.
//!
//! Fault injection, op counters, retry accounting and span windows reach
//! every call site through two small handles:
//!
//! * [`OpGate`] sits on the *service* side of a boundary. It holds the
//!   fault + metrics handles and applies the canonical per-attempt
//!   discipline: count the attempt, then consult the fault plan.
//! * [`CallEnv`] sits on the *orchestration* side (a tenant script, the
//!   verifier). It bundles the clock with fault/span/metrics handles.
//!   [`CallEnv::call`] is the one retry loop: every retried service call
//!   gets [`crate::MAX_ATTEMPTS`] attempts with the same jittered
//!   backoff and the same counters, and phase spans open and close in
//!   one place.
//!
//! Both are plain bundles of shared handles (`Faults`, `Metrics` and
//! `Spans` each sit behind one `Arc`) that a component takes when it is
//! built. A plan swapped at run time through [`Faults::install`] reaches
//! every holder. With nothing enabled, both are free: no RNG draws, no
//! allocation, no timers.

use std::future::Future;

use crate::executor::Sim;
use crate::fault::{FaultDecision, FaultInjected, Faults};
use crate::metrics::Metrics;
use crate::retry::{backoff, RetryError, JITTER_CV, MAX_ATTEMPTS};
use crate::rng::Rng;
use crate::span::{SpanId, Spans};
use crate::time::SimTime;

/// The service-side half of the instrumented call path: one handle per
/// gated component, replacing its hand-rolled fault + metrics pair.
///
/// `OpGate` is sim-free so components that must not depend on virtual
/// time (HIL, the minimal TCB) can still count through it. An async site
/// whose injected spikes stretch virtual time takes the decision from
/// [`OpGate::faults`] and sleeps it out on its own clock.
#[derive(Clone)]
pub struct OpGate {
    faults: Faults,
    metrics: Metrics,
}

impl OpGate {
    /// A gate that counts nowhere and injects nothing.
    pub fn disabled() -> Self {
        Self::new(&Faults::disabled(), &Metrics::disabled())
    }

    /// A gate consulting `faults` and counting into `metrics`.
    pub fn new(faults: &Faults, metrics: &Metrics) -> Self {
        OpGate {
            faults: faults.clone(),
            metrics: metrics.clone(),
        }
    }

    /// The metrics registry this gate counts into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The fault handle this gate consults.
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// One attempt of a synchronous operation: bumps `counter{labels}`,
    /// then consults the fault plan for `op` against `target`. `Delay`
    /// degrades to `Allow` — a synchronous request/response cannot
    /// stretch virtual time — so only `Fail` is observable.
    pub fn tap(
        &self,
        counter: &str,
        labels: &[(&str, &str)],
        op: &str,
        target: &str,
    ) -> Result<(), FaultInjected> {
        self.metrics.inc(counter, labels);
        if self.faults.enabled() && self.faults.decide(op, target) == FaultDecision::Fail {
            return Err(FaultInjected {
                op: op.to_string(),
                target: target.to_string(),
            });
        }
        Ok(())
    }
}

/// An open phase window: the span plus its start time, returned by
/// [`CallEnv::open_phase`] and consumed by [`CallEnv::close_phase`].
///
/// Dropping the handle without closing it leaves the span open — which
/// is the *intended* error-path behaviour: the enclosing root span's
/// close pops it, recording exactly where the run stopped.
#[derive(Debug, Clone, Copy)]
pub struct PhaseHandle {
    /// The open span.
    pub span: SpanId,
    /// When the phase started.
    pub started: SimTime,
}

/// The orchestration-side half of the instrumented call path: the clock
/// plus the fault/span/metrics handles it was built with.
#[derive(Clone)]
pub struct CallEnv {
    sim: Sim,
    faults: Faults,
    spans: Spans,
    metrics: Metrics,
}

impl CallEnv {
    /// An environment on `sim` consulting `faults` and recording into
    /// `spans` and `metrics` (pass the `disabled()` handles for none).
    pub fn new(sim: &Sim, faults: &Faults, spans: &Spans, metrics: &Metrics) -> Self {
        CallEnv {
            sim: sim.clone(),
            faults: faults.clone(),
            spans: spans.clone(),
            metrics: metrics.clone(),
        }
    }

    /// The simulation this environment runs on.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The fault handle.
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The span recorder.
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Runs `op` up to [`MAX_ATTEMPTS`] times, backing off between
    /// attempts, as long as `is_transient` accepts the error. This is
    /// the uniform envelope for retried service calls: same backoff,
    /// same jitter, same counters, whichever service sits behind `op`.
    ///
    /// `op` is called once per attempt and returns a fresh future each
    /// time. Jitter is drawn from `rng` only when a backoff happens, so
    /// the fault-free path costs zero draws and zero sleeps. Each
    /// re-attempt is counted as `retry_attempts{op,target}` when the
    /// loop decides to go around again, so a happy first try leaves the
    /// counter untouched.
    pub async fn call<T, E, F, Fut, P>(
        &self,
        rng: &mut Rng,
        op_name: &str,
        target: &str,
        mut op: F,
        is_transient: P,
    ) -> Result<T, RetryError<E>>
    where
        F: FnMut() -> Fut,
        Fut: Future<Output = Result<T, E>>,
        P: Fn(&E) -> bool,
    {
        let mut failures = 0u32;
        loop {
            let attempts = failures + 1;
            match op().await {
                Ok(v) => return Ok(v),
                Err(error) if !is_transient(&error) => {
                    return Err(RetryError::Fatal { attempts, error });
                }
                Err(last) if attempts >= MAX_ATTEMPTS => {
                    return Err(RetryError::Exhausted { attempts, last });
                }
                Err(_) => {}
            }
            self.metrics
                .inc("retry_attempts", &[("op", op_name), ("target", target)]);
            self.sim
                .sleep(backoff(failures).mul_f64(rng.jitter(JITTER_CV)))
                .await;
            failures = attempts;
        }
    }

    /// Opens a phase span under `category` and records its start time.
    pub fn open_phase(
        &self,
        category: &'static str,
        name: &'static str,
        target: &str,
    ) -> PhaseHandle {
        let started = self.sim.now();
        let span = self.spans.begin(&self.sim, category, name, target);
        PhaseHandle { span, started }
    }

    /// Closes a phase span and feeds `histogram{phase=<name>}` with its
    /// duration. Call only on success — error paths drop the handle so
    /// the open span marks where the run stopped.
    pub fn close_phase(&self, handle: PhaseHandle, histogram: &str, name: &str) {
        self.spans.end(&self.sim, handle.span);
        self.metrics.observe_duration(
            histogram,
            &[("phase", name)],
            self.sim.now().since(handle.started),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::lock;
    use crate::fault::{ops, FaultPlan, FaultSpec};
    use std::sync::{Arc, Mutex};

    #[test]
    fn disabled_gate_counts_nothing_and_allows_everything() {
        let gate = OpGate::disabled();
        assert!(gate
            .tap("ops", &[("target", "m1")], ops::BMC_POWER, "m1")
            .is_ok());
    }

    #[test]
    fn tap_counts_before_the_fault_decision() {
        let metrics = Metrics::new();
        let faults = Faults::new(
            FaultPlan::seeded(1).with_target(ops::BMC_POWER, "m1", FaultSpec::permanent()),
            &Metrics::disabled(),
        );
        let gate = OpGate::new(&faults, &metrics);
        let err = gate
            .tap("bmc_power_ops", &[("target", "m1")], ops::BMC_POWER, "m1")
            .unwrap_err();
        assert_eq!(err.op, ops::BMC_POWER);
        // The attempt was counted even though it failed.
        assert_eq!(metrics.counter("bmc_power_ops", &[("target", "m1")]), 1);
    }

    #[test]
    fn env_call_retries_through_the_uniform_envelope() {
        let sim = Sim::new();
        let metrics = Metrics::new();
        let env = CallEnv::new(&sim, &Faults::disabled(), &Spans::disabled(), &metrics);
        let result: Result<u32, RetryError<&str>> = sim.block_on({
            let env = env.clone();
            async move {
                let mut rng = Rng::seed_from_u64(1);
                let attempts = Arc::new(Mutex::new(0u32));
                env.call(
                    &mut rng,
                    "svc.op",
                    "t1",
                    || {
                        let attempts = attempts.clone();
                        async move {
                            let mut n = lock(&attempts);
                            *n += 1;
                            if *n < 3 {
                                Err("transient")
                            } else {
                                Ok(*n)
                            }
                        }
                    },
                    |_| true,
                )
                .await
            }
        });
        assert_eq!(result.unwrap(), 3);
        assert_eq!(
            metrics.counter("retry_attempts", &[("op", "svc.op"), ("target", "t1")]),
            2
        );
    }

    #[test]
    fn phase_window_records_span_and_histogram_on_close() {
        let sim = Sim::new();
        let spans = Spans::new();
        let metrics = Metrics::new();
        let env = CallEnv::new(&sim, &Faults::disabled(), &spans, &metrics);
        let handle = env.open_phase("tenant", "firmware", "m1");
        env.close_phase(handle, "provision_phase_seconds", "firmware");
        let record = spans.find("firmware", "m1").expect("span recorded");
        assert!(record.end.is_some());
        assert_eq!(
            metrics
                .histogram("provision_phase_seconds", &[("phase", "firmware")])
                .map(|h| h.stats.count()),
            Some(1)
        );
    }
}
