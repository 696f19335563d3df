//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes which operations against "hardware" — BMC
//! power commands, switch VLAN programming, iSCSI/Ceph reads, Keylime
//! registrar/verifier round-trips — may fail, spike in latency, or flap
//! and recover. A [`Faults`] handle evaluates the plan at each call
//! site. Everything is keyed off the seeded simulation RNG so that a
//! given `(plan seed, operation, target)` triple always produces the
//! same decision sequence, regardless of how many *other* operations ran
//! in between: each `(op, target)` pair gets its own forked PRNG stream,
//! seeded from a hash of the pair and the plan seed.
//!
//! Determinism guarantees:
//!
//! * **Empty plan is free.** With no matching rule, [`Faults::decide`]
//!   returns [`FaultDecision::Allow`] without drawing from any RNG,
//!   allocating a stream, or advancing virtual time — so a cloud built
//!   with [`FaultPlan::none`] is byte-identical to one built before this
//!   module existed.
//! * **Per-key streams.** Decisions for one target never perturb
//!   another's, so adding a node to a chaos experiment does not reshuffle
//!   the faults the existing nodes see.
//! * **Attempt counters.** Flap schedules (`fail_first`) count attempts
//!   per `(op, target)` pair, so "fail twice then recover" is exact, not
//!   probabilistic.

use std::collections::BTreeMap;

use std::sync::{Arc, Mutex};

use crate::executor::lock;
use crate::executor::Sim;
use crate::metrics::Metrics;
use crate::rng::{Rng, SplitMix64};
use crate::time::SimDuration;

/// Canonical operation names used by the Bolted layers. Plans and call
/// sites must agree on these strings; using the constants keeps them in
/// one place.
pub mod ops {
    /// BMC power on/off/cycle (target: node name).
    pub const BMC_POWER: &str = "bmc.power";
    /// Switch port↔VLAN programming (target: attached host name).
    pub const SWITCH_SET_VLAN: &str = "switch.set_vlan";
    /// iSCSI/Ceph read path (target: image name).
    pub const STORAGE_READ: &str = "storage.read";
    /// Registrar registration round-trip (target: agent id).
    pub const REGISTRAR_REGISTER: &str = "registrar.register";
    /// Verifier quote round-trip (target: node id).
    pub const VERIFIER_QUOTE: &str = "verifier.quote";
    /// BMI image clone for one server (target: server name).
    pub const BMI_CLONE: &str = "bmi.clone_for_server";
    /// BMI boot-info extraction from an image manifest (target: image).
    pub const BMI_BOOT_INFO: &str = "bmi.extract_boot_info";
    /// BMI root-volume release on deprovision (target: image).
    pub const BMI_RELEASE: &str = "bmi.release";
}

/// What can go wrong with one class of operation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-attempt probability of a transient failure.
    pub fail_prob: f64,
    /// Per-attempt probability of a latency spike (evaluated only when
    /// the attempt does not fail).
    pub spike_prob: f64,
    /// Added latency when a spike fires. Only applied at asynchronous
    /// call sites (storage reads, attestation RPCs); synchronous control
    /// operations cannot stretch virtual time and skip spikes.
    pub spike: SimDuration,
    /// Flap-then-recover: deterministically fail the first N attempts of
    /// each `(op, target)` pair, then behave normally.
    pub fail_first: u32,
    /// Never succeed (a dead BMC, an unplugged switch).
    pub permanent: bool,
}

impl FaultSpec {
    /// A spec that never injects anything.
    pub fn none() -> Self {
        FaultSpec {
            fail_prob: 0.0,
            spike_prob: 0.0,
            spike: SimDuration::ZERO,
            fail_first: 0,
            permanent: false,
        }
    }

    /// Transient failures with probability `p` per attempt.
    pub fn transient(p: f64) -> Self {
        FaultSpec {
            fail_prob: p.clamp(0.0, 1.0),
            ..Self::none()
        }
    }

    /// Flap-then-recover: fail the first `n` attempts, then succeed.
    pub fn flaky(n: u32) -> Self {
        FaultSpec {
            fail_first: n,
            ..Self::none()
        }
    }

    /// A permanent (never-recovering) fault.
    pub fn permanent() -> Self {
        FaultSpec {
            permanent: true,
            ..Self::none()
        }
    }

    /// Adds a latency spike: probability `prob`, added delay `spike`.
    pub fn with_spike(mut self, prob: f64, spike: SimDuration) -> Self {
        self.spike_prob = prob.clamp(0.0, 1.0);
        self.spike = spike;
        self
    }
}

/// A declarative schedule of injectable faults, keyed off a seed.
///
/// Rules are matched by operation name; a rule may additionally name a
/// specific target (a node, an image, an agent id). Target-specific
/// rules take precedence over blanket rules for the same operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(String, Option<String>, FaultSpec)>,
}

impl FaultPlan {
    /// The empty plan: nothing ever fails, nothing is ever sampled.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying a seed for the per-key fault streams.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a blanket rule for every target of `op`.
    pub fn with(mut self, op: &str, spec: FaultSpec) -> Self {
        self.rules.push((op.to_string(), None, spec));
        self
    }

    /// Adds a rule for one specific `(op, target)` pair.
    pub fn with_target(mut self, op: &str, target: &str, spec: FaultSpec) -> Self {
        self.rules
            .push((op.to_string(), Some(target.to_string()), spec));
        self
    }

    /// True when the plan has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn lookup(&self, op: &str, target: &str) -> Option<&FaultSpec> {
        self.rules
            .iter()
            .find(|(o, t, _)| o == op && t.as_deref() == Some(target))
            .or_else(|| self.rules.iter().find(|(o, t, _)| o == op && t.is_none()))
            .map(|(_, _, s)| s)
    }
}

/// The verdict for one operation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    Allow,
    /// Proceed, but only after the given extra latency (async sites).
    Delay(SimDuration),
    /// The operation fails this attempt.
    Fail,
}

/// An injected fault, as an error value for `Result`-returning gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjected {
    /// Operation that failed.
    pub op: String,
    /// Target it failed against.
    pub target: String,
}

impl std::fmt::Display for FaultInjected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault: {} on {}", self.op, self.target)
    }
}

impl std::error::Error for FaultInjected {}

/// Derives a deterministic stream seed from a base seed and a list of
/// string parts (FNV-1a over the parts, finalized through SplitMix64).
/// Exposed so call sites can seed auxiliary per-target RNGs (retry
/// jitter streams) consistently with the fault streams.
pub fn mix_seed(base: u64, parts: &[&str]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separator so ("ab","c") != ("a","bc").
        h ^= 0xFF;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::new(base ^ h).next_u64()
}

#[derive(Default)]
struct FaultsInner {
    plan: FaultPlan,
    streams: BTreeMap<(String, String), Rng>,
    attempts: BTreeMap<(String, String), u64>,
    /// Registry receiving `faults_injected{op,target}` counts.
    metrics: Metrics,
}

/// A shared handle that evaluates a [`FaultPlan`] at call sites.
///
/// Cheap to clone (one `Arc` inside); every clone shares the same plan,
/// streams and counters, so a plan installed on the cloud is visible to
/// every layer it was threaded through.
#[derive(Clone, Default)]
pub struct Faults {
    inner: Arc<Mutex<FaultsInner>>,
}

impl Faults {
    /// A handle with no plan: every decision is `Allow`, for free.
    pub fn disabled() -> Self {
        Faults::default()
    }

    /// A handle evaluating `plan`. Every injected failure is counted
    /// into `metrics` as `faults_injected{op=.., target=..}`, the one
    /// count of injected faults.
    pub fn new(plan: FaultPlan, metrics: &Metrics) -> Self {
        Faults {
            inner: Arc::new(Mutex::new(FaultsInner {
                plan,
                metrics: metrics.clone(),
                ..FaultsInner::default()
            })),
        }
    }

    /// Replaces the plan in place (all clones see it) and resets the
    /// per-key streams and attempt counters. The metrics registry, and
    /// the `faults_injected` counts in it, survive the reset.
    pub fn install(&self, plan: FaultPlan) {
        let mut inner = lock(&self.inner);
        let metrics = inner.metrics.clone();
        *inner = FaultsInner {
            plan,
            metrics,
            ..FaultsInner::default()
        };
    }

    /// True when any rule is installed (fast path check for sync sites
    /// that would otherwise build target strings per call).
    pub fn enabled(&self) -> bool {
        !lock(&self.inner).plan.is_empty()
    }

    /// Decides the fate of one attempt of `op` against `target`.
    pub fn decide(&self, op: &str, target: &str) -> FaultDecision {
        let mut inner = lock(&self.inner);
        let Some(spec) = inner.plan.lookup(op, target).cloned() else {
            return FaultDecision::Allow;
        };
        let key = (op.to_string(), target.to_string());
        let attempt = {
            let c = inner.attempts.entry(key.clone()).or_insert(0);
            *c += 1;
            *c
        };
        if spec.permanent || attempt <= spec.fail_first as u64 {
            inner
                .metrics
                .inc("faults_injected", &[("op", op), ("target", target)]);
            return FaultDecision::Fail;
        }
        if spec.fail_prob > 0.0 || spec.spike_prob > 0.0 {
            let seed = mix_seed(inner.plan.seed, &[op, target]);
            let rng = inner
                .streams
                .entry(key)
                .or_insert_with(|| Rng::seed_from_u64(seed));
            let roll = rng.next_f64();
            if roll < spec.fail_prob {
                inner
                    .metrics
                    .inc("faults_injected", &[("op", op), ("target", target)]);
                return FaultDecision::Fail;
            }
            if spec.spike_prob > 0.0 && rng.next_f64() < spec.spike_prob {
                return FaultDecision::Delay(spec.spike);
            }
        }
        FaultDecision::Allow
    }

    /// Async gate: sleeps through latency spikes, errors on failures.
    /// The no-fault path awaits nothing and draws nothing.
    pub async fn gate(&self, sim: &Sim, op: &str, target: &str) -> Result<(), FaultInjected> {
        match self.decide(op, target) {
            FaultDecision::Allow => Ok(()),
            FaultDecision::Delay(d) => {
                sim.sleep(d).await;
                Ok(())
            }
            FaultDecision::Fail => Err(FaultInjected {
                op: op.to_string(),
                target: target.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handle evaluating `plan` that counts into no registry.
    fn faults(plan: FaultPlan) -> Faults {
        Faults::new(plan, &Metrics::disabled())
    }

    #[test]
    fn empty_plan_always_allows_and_samples_nothing() {
        let f = Faults::disabled();
        for _ in 0..100 {
            assert_eq!(f.decide(ops::BMC_POWER, "n1"), FaultDecision::Allow);
        }
        assert!(!f.enabled());
        // No streams or counters materialised.
        assert!(lock(&f.inner).streams.is_empty());
        assert!(lock(&f.inner).attempts.is_empty());
    }

    #[test]
    fn flap_fails_first_n_then_recovers() {
        let m = Metrics::new();
        let f = Faults::new(
            FaultPlan::seeded(1).with(ops::BMC_POWER, FaultSpec::flaky(2)),
            &m,
        );
        assert_eq!(f.decide(ops::BMC_POWER, "n1"), FaultDecision::Fail);
        assert_eq!(f.decide(ops::BMC_POWER, "n1"), FaultDecision::Fail);
        assert_eq!(f.decide(ops::BMC_POWER, "n1"), FaultDecision::Allow);
        // Each target flaps independently.
        assert_eq!(f.decide(ops::BMC_POWER, "n2"), FaultDecision::Fail);
        assert_eq!(m.counter_total("faults_injected"), 3);
    }

    #[test]
    fn permanent_never_recovers() {
        let f = faults(FaultPlan::seeded(1).with_target(
            ops::SWITCH_SET_VLAN,
            "n3",
            FaultSpec::permanent(),
        ));
        for _ in 0..50 {
            assert_eq!(f.decide(ops::SWITCH_SET_VLAN, "n3"), FaultDecision::Fail);
        }
        // Other targets are untouched by the targeted rule.
        assert_eq!(f.decide(ops::SWITCH_SET_VLAN, "n4"), FaultDecision::Allow);
    }

    #[test]
    fn target_rule_overrides_blanket_rule() {
        let f = faults(
            FaultPlan::seeded(1)
                .with(ops::STORAGE_READ, FaultSpec::none())
                .with_target(ops::STORAGE_READ, "img", FaultSpec::permanent()),
        );
        assert_eq!(f.decide(ops::STORAGE_READ, "img"), FaultDecision::Fail);
        assert_eq!(f.decide(ops::STORAGE_READ, "other"), FaultDecision::Allow);
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_key() {
        let run = |seed: u64| -> Vec<FaultDecision> {
            let f = faults(FaultPlan::seeded(seed).with(
                ops::STORAGE_READ,
                FaultSpec::transient(0.3).with_spike(0.2, SimDuration::from_millis(50)),
            ));
            (0..64)
                .map(|_| f.decide(ops::STORAGE_READ, "imgA"))
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn interleaving_other_targets_does_not_perturb_a_stream() {
        let plan = FaultPlan::seeded(9).with(ops::STORAGE_READ, FaultSpec::transient(0.5));
        let solo = faults(plan.clone());
        let solo_seq: Vec<_> = (0..32)
            .map(|_| solo.decide(ops::STORAGE_READ, "a"))
            .collect();
        let mixed = faults(plan);
        let mixed_seq: Vec<_> = (0..32)
            .map(|_| {
                // Noise on a different target between every draw.
                let _ = mixed.decide(ops::STORAGE_READ, "b");
                mixed.decide(ops::STORAGE_READ, "a")
            })
            .collect();
        assert_eq!(solo_seq, mixed_seq);
    }

    #[test]
    fn spikes_are_delays_not_failures() {
        let m = Metrics::new();
        let f = Faults::new(
            FaultPlan::seeded(3).with(
                ops::VERIFIER_QUOTE,
                FaultSpec::none().with_spike(1.0, SimDuration::from_secs(2)),
            ),
            &m,
        );
        assert_eq!(
            f.decide(ops::VERIFIER_QUOTE, "n1"),
            FaultDecision::Delay(SimDuration::from_secs(2))
        );
        assert_eq!(m.counter_total("faults_injected"), 0);
    }

    #[test]
    fn gate_sleeps_through_spikes_and_errors_on_failures() {
        let sim = Sim::new();
        let f = faults(
            FaultPlan::seeded(3)
                .with(
                    ops::VERIFIER_QUOTE,
                    FaultSpec::none().with_spike(1.0, SimDuration::from_secs(2)),
                )
                .with(ops::BMC_POWER, FaultSpec::permanent()),
        );
        let got = sim.block_on({
            let (sim2, f) = (sim.clone(), f.clone());
            async move {
                let spiked = f.gate(&sim2, ops::VERIFIER_QUOTE, "n1").await;
                let failed = f.gate(&sim2, ops::BMC_POWER, "n1").await;
                (spiked, failed)
            }
        });
        assert!(got.0.is_ok());
        assert_eq!(sim.now().as_secs_f64(), 2.0, "spike advanced virtual time");
        let err = got.1.unwrap_err();
        assert_eq!(err.op, ops::BMC_POWER);
        assert!(err.to_string().contains("injected fault"));
    }

    #[test]
    fn install_resets_counters() {
        let f = faults(FaultPlan::seeded(1).with(ops::BMC_POWER, FaultSpec::flaky(1)));
        assert_eq!(f.decide(ops::BMC_POWER, "n1"), FaultDecision::Fail);
        f.install(FaultPlan::none());
        assert!(!f.enabled());
        assert!(lock(&f.inner).attempts.is_empty());
        assert_eq!(f.decide(ops::BMC_POWER, "n1"), FaultDecision::Allow);
    }

    #[test]
    fn attached_metrics_count_per_op_and_target() {
        let m = Metrics::new();
        let f = Faults::new(
            FaultPlan::seeded(1).with(ops::BMC_POWER, FaultSpec::flaky(2)),
            &m,
        );
        for _ in 0..3 {
            let _ = f.decide(ops::BMC_POWER, "n1");
        }
        let _ = f.decide(ops::BMC_POWER, "n2");
        assert_eq!(
            m.counter(
                "faults_injected",
                &[("op", ops::BMC_POWER), ("target", "n1")]
            ),
            2
        );
        assert_eq!(
            m.counter(
                "faults_injected",
                &[("op", ops::BMC_POWER), ("target", "n2")]
            ),
            1
        );
        // install() resets fault state but keeps the registry.
        f.install(FaultPlan::seeded(2).with(ops::BMC_POWER, FaultSpec::flaky(1)));
        let _ = f.decide(ops::BMC_POWER, "n1");
        assert_eq!(
            m.counter(
                "faults_injected",
                &[("op", ops::BMC_POWER), ("target", "n1")]
            ),
            3
        );
    }

    #[test]
    fn mix_seed_separates_parts() {
        assert_ne!(mix_seed(1, &["ab", "c"]), mix_seed(1, &["a", "bc"]));
        assert_ne!(mix_seed(1, &["x"]), mix_seed(2, &["x"]));
        assert_eq!(mix_seed(5, &["op", "t"]), mix_seed(5, &["op", "t"]));
    }
}
