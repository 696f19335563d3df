//! `bolted-sim` — deterministic discrete-event simulation substrate.
//!
//! Everything in the Bolted reproduction that involves *time* — POST,
//! network transfers, Ceph reads, attestation round-trips — runs on this
//! engine. Simulated processes are plain `async` functions executed on a
//! virtual-time executor ([`Sim`]); contention is expressed with FIFO
//! [`Resource`]s; randomness comes from a seeded, reproducible [`Rng`].
//!
//! Design goals, in order: determinism (bit-identical runs for a given
//! seed), fidelity of queueing behaviour (FIFO stations, capacity limits),
//! and speed (a simulated event costs about 0.1–0.15 µs of host time;
//! a 16-node attested provisioning run polls about 20,000 of them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod call;
mod executor;
pub mod fault;
pub mod metrics;
pub mod pool;
mod retry;
mod rng;
pub mod scenario;
pub mod span;
mod stats;
mod sync;
mod time;

pub use call::{CallEnv, OpGate, PhaseHandle};
pub use executor::{join_all, lock, JoinHandle, Sim, Sleep};
pub use fault::{FaultDecision, FaultInjected, FaultPlan, FaultSpec, Faults};
pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use pool::{max_workers, run_jobs};
pub use retry::{RetryError, MAX_ATTEMPTS};
pub use rng::{Rng, SplitMix64};
pub use scenario::{
    run_scenarios, Bound, CheckOutcome, Scenario, ScenarioOutcome, ScenarioRunReport, WorldFn,
    WorldReport,
};
pub use span::{SpanGuard, SpanId, SpanRecord, Spans};
pub use stats::{OnlineStats, Samples};
pub use sync::{channel, Acquire, Permit, Receiver, Recv, Resource, Sender};
pub use time::{SimDuration, SimTime};
