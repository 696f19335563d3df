//! The Keylime Cloud Verifier (CV).
//!
//! "The Cloud Verifier maintains the whitelist of trusted code and
//! checks server integrity" (§5). It polls agents for quotes against
//! fresh nonces, replays their boot and IMA logs, matches every
//! measurement against tenant whitelists, releases the V key share on
//! first success, and on any failure broadcasts a revocation so the rest
//! of the enclave can cryptographically ban the node (§7.4: detection in
//! under a second, full revocation in about three).
//!
//! As Keylime's verifier does, it keeps a verified prefix of each
//! node's logs: how many boot events and IMA entries it has verified,
//! and the PCR values they replay to. A round asks the agent only for
//! the entries past that prefix, extends the stored values with them
//! and whitelist-checks only them, so a round costs time in the new
//! evidence, not in the node's uptime.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use bolted_sim::lock;

use bolted_crypto::sha256::Digest;
use bolted_firmware::PowerState;
use bolted_sim::fault::{mix_seed, ops};
use bolted_sim::{channel, JoinHandle, Receiver, Resource, Rng, Sender, Sim, SimDuration, SimTime};
use bolted_sim::{CallEnv, RetryError};
#[cfg(test)]
use bolted_sim::{Faults, Metrics, Spans};
use bolted_tpm::{extend_bank, index, TpmError, NUM_PCRS};

use crate::agent::{Agent, AttestationEvidence, LogOffsets};
use crate::ima::{extend_pcr, ImaWhitelist};
use crate::payload::KeyShare;
use crate::registrar::Registrar;

/// Network round-trip between verifier and agent.
pub const RTT: SimDuration = SimDuration::from_millis(5);

/// Bandwidth for delivering the sealed payload — kernel + initrd over the
/// paper's unoptimised HTTP path ("obvious opportunities include better
/// download protocols than HTTP", §7.3 fn 8), bytes/s. Every management
/// network download runs at this rate.
pub const PAYLOAD_BPS: f64 = 6e6;

/// PCRs quoted during boot attestation.
pub const BOOT_SELECTION: [usize; 3] = [index::FIRMWARE, index::BOOT_CODE, index::BOOT_CONFIG];

/// PCRs quoted during continuous attestation (adds IMA's PCR 10).
pub const CONTINUOUS_SELECTION: [usize; 4] = [
    index::FIRMWARE,
    index::BOOT_CODE,
    index::BOOT_CONFIG,
    index::IMA,
];

/// Timing configuration for a verifier. The quote round-trip retries
/// dropped RPCs through [`CallEnv::call`]; agent rejections are not
/// retried.
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// Continuous-attestation polling period.
    pub poll_interval: SimDuration,
    /// CPU time to verify one quote + replay logs (paper: "Keylime can
    /// detect policy violations ... in under one second").
    pub verify_cost: SimDuration,
    /// Verification capacity: how many quote verifications the verifier
    /// can run concurrently (FIFO beyond that). `None` models unbounded
    /// capacity — every round charges `verify_cost` with no queueing —
    /// which is byte-identical to the pre-capacity behaviour. A small
    /// `Some(n)` makes the verifier a saturable shared service, the
    /// surface a quote-storm DoS attacks.
    pub verify_slots: Option<usize>,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            poll_interval: SimDuration::from_secs(2),
            verify_cost: SimDuration::from_millis(150),
            verify_slots: None,
        }
    }
}

/// Result of one attestation round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestOutcome {
    /// Everything matched the whitelists.
    Trusted,
    /// Verification failed: the node is revoked and its enrolment ends.
    /// A round on a node that is not enrolled fails as `unknown node`.
    Failed(String),
    /// The quote round-trip never completed: injected RPC drops, or a
    /// machine that is not powered on, outlived the retry budget.
    /// Infrastructure gave out — the node is *not* revoked or
    /// quarantined; the caller decides whether to release it.
    Unreachable {
        /// Quote attempts made before giving up.
        attempts: u32,
    },
}

/// A revocation broadcast to enclave members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationEvent {
    /// Node that failed attestation.
    pub node_id: String,
    /// Why.
    pub reason: String,
    /// When the verifier detected it.
    pub detected_at: SimTime,
}

/// What a verifier has verified of one node's logs: the offsets it
/// asks the agent for next, and the PCR values the verified entries
/// replay to. It holds only for the boot and AIK named in its offsets.
#[derive(Debug, Clone)]
struct VerifiedPrefix {
    offsets: LogOffsets,
    /// The PCR bank replayed from the first `offsets.boot` boot events
    /// and, into PCR 10, the first `offsets.ima` IMA entries.
    pcrs: [Digest; NUM_PCRS],
}

impl VerifiedPrefix {
    /// Nothing verified.
    const START: VerifiedPrefix = VerifiedPrefix {
        offsets: LogOffsets::START,
        pcrs: [Digest::ZERO; NUM_PCRS],
    };
}

/// What one `add_node` call fixes for a node. An enrolment lasts from
/// `add_node` until [`Verifier::stop`] or a failed verdict reached under
/// it, and a round reads and writes only the enrolment it started under.
struct Enrolment {
    agent: Agent,
    boot_whitelist: HashSet<Digest>,
    ima_whitelist: ImaWhitelist,
    /// Extra bytes (kernel + initrd) shipped alongside the sealed blob,
    /// for delivery timing.
    payload_wire_bytes: u64,
}

struct NodeState {
    enrolment: Arc<Enrolment>,
    prefix: VerifiedPrefix,
    /// The V share and the payload sealed under the node's key. Both
    /// are taken when the first trusted round releases them, and
    /// dropped when the enrolment ends, so they leave the verifier once
    /// at most and never outlive the tenancy.
    v_share: Option<KeyShare>,
    sealed_payload: Vec<u8>,
}

struct VerifierInner {
    nodes: BTreeMap<String, NodeState>,
    subscribers: Vec<Sender<RevocationEvent>>,
    nonce_counter: u64,
}

impl VerifierInner {
    /// The node's entry, if it is still `enrolment`.
    fn entry(&mut self, node_id: &str, enrolment: &Arc<Enrolment>) -> Option<&mut NodeState> {
        self.nodes
            .get_mut(node_id)
            .filter(|n| Arc::ptr_eq(&n.enrolment, enrolment))
    }
}

/// The Cloud Verifier service (tenant-deployable).
#[derive(Clone)]
pub struct Verifier {
    registrar: Registrar,
    config: VerifierConfig,
    /// The shared instrumented call path: clock, fault handle, span
    /// recorder and metrics registry. Each attestation round records a
    /// `keylime/quote-verify` span that closes when the verdict lands —
    /// *before* any key material moves — plus quote retry/verdict
    /// counters; quote round-trips consult the fault plan.
    env: CallEnv,
    inner: Arc<Mutex<VerifierInner>>,
    /// FIFO verification slots when [`VerifierConfig::verify_slots`] is
    /// bounded; `None` means infinite capacity (no queue, no contention).
    verify_slots: Option<Resource>,
}

impl Verifier {
    /// Creates a verifier bound to a registrar, running on `env`'s clock,
    /// fault plan, spans and metrics.
    pub fn new(env: &CallEnv, registrar: &Registrar, config: VerifierConfig) -> Self {
        Verifier {
            registrar: registrar.clone(),
            verify_slots: config
                .verify_slots
                .map(|n| Resource::new(env.sim(), n.max(1))),
            config,
            env: env.clone(),
            inner: Arc::new(Mutex::new(VerifierInner {
                nodes: BTreeMap::new(),
                subscribers: Vec::new(),
                nonce_counter: 0,
            })),
        }
    }

    fn sim(&self) -> &Sim {
        self.env.sim()
    }

    /// The active configuration.
    pub fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// Registers a node for verification with its whitelists and (for
    /// security-sensitive tenants) the V share + sealed payload to
    /// release on first success. Each call starts a new enrolment and
    /// ends any earlier one: whatever of the node's logs was verified is
    /// dropped, so its next round replays them whole, and a round still
    /// running under the old enrolment takes nothing of the new one.
    pub fn add_node(
        &self,
        agent: &Agent,
        boot_whitelist: HashSet<Digest>,
        ima_whitelist: ImaWhitelist,
        v_share: Option<KeyShare>,
        sealed_payload: Vec<u8>,
        payload_wire_bytes: u64,
    ) {
        let enrolment = Arc::new(Enrolment {
            agent: agent.clone(),
            boot_whitelist,
            ima_whitelist,
            payload_wire_bytes,
        });
        lock(&self.inner).nodes.insert(
            agent.id().to_string(),
            NodeState {
                enrolment,
                prefix: VerifiedPrefix::START,
                v_share,
                sealed_payload,
            },
        );
    }

    /// Subscribes to revocation broadcasts.
    pub fn subscribe_revocations(&self) -> Receiver<RevocationEvent> {
        let (tx, rx) = channel();
        lock(&self.inner).subscribers.push(tx);
        rx
    }

    /// True while the verifier holds a V share or a sealed payload for
    /// the node: from enrolment until the first trusted round releases
    /// them or the enrolment ends.
    pub fn holds_key_material(&self, node_id: &str) -> bool {
        lock(&self.inner)
            .nodes
            .get(node_id)
            .is_some_and(|n| n.v_share.is_some() || !n.sealed_payload.is_empty())
    }

    /// How much of the node's logs is verified: the offsets its next
    /// round asks the agent for ([`LogOffsets::START`] until a trusted
    /// round), or `None` while the node is not enrolled.
    pub fn log_offsets(&self, node_id: &str) -> Option<LogOffsets> {
        Some(lock(&self.inner).nodes.get(node_id)?.prefix.offsets)
    }

    fn fresh_nonce(&self) -> [u8; 32] {
        let mut inner = lock(&self.inner);
        inner.nonce_counter += 1;
        let d = bolted_crypto::sha256_concat(&[
            b"cv-nonce",
            &inner.nonce_counter.to_le_bytes(),
            &self.sim().now().as_nanos().to_le_bytes(),
        ]);
        *d.as_bytes()
    }

    /// Verifies evidence against `enrolment`'s whitelists, starting from
    /// `prefix`, and returns the verified prefix the evidence extends it
    /// to. The prefix counts only if the quote comes from the boot and
    /// AIK it was verified under; otherwise the evidence must carry both
    /// logs whole.
    fn verify_from(
        &self,
        enrolment: &Enrolment,
        prefix: &VerifiedPrefix,
        nonce: &[u8; 32],
        selection: &[usize],
        evidence: &AttestationEvidence,
    ) -> Result<VerifiedPrefix, String> {
        // 1. The AIK must be certified by the registrar, the one place
        //    that holds it: a node that re-registered is read afresh.
        let aik = self
            .registrar
            .certified_aik(enrolment.agent.id())
            .ok_or("AIK not certified by registrar")?;
        // 2. Signature and freshness.
        let quote = &evidence.quote;
        if !quote.verify(&aik) {
            return Err("quote signature invalid".into());
        }
        if &quote.nonce != nonce {
            return Err("stale nonce (replay?)".into());
        }
        if quote.selection != selection {
            return Err("quote covers wrong PCR selection".into());
        }
        // 3. The evidence must start where the verified prefix ends. A
        //    platform reset or a new AIK voids the prefix; without one, a
        //    list that starts earlier was cut short.
        let base = if prefix.offsets.aik == quote.aik_fingerprint
            && prefix.offsets.reset_count == quote.reset_count
        {
            prefix
        } else {
            &VerifiedPrefix::START
        };
        let from = (evidence.boot_from, evidence.ima_from);
        let verified = (base.offsets.boot, base.offsets.ima);
        if from.0 < verified.0 || from.1 < verified.1 {
            return Err("log shorter than its verified prefix".into());
        }
        if from != verified {
            return Err("evidence skips unverified log entries".into());
        }
        // 4. The new entries must extend the prefix to the quoted PCRs.
        //    PCR 10's only log is the IMA list, so a boot event that
        //    names it is forged.
        if let Some(ev) = evidence
            .boot_events
            .iter()
            .find(|e| e.pcr_index == index::IMA)
        {
            return Err(format!("boot event on the IMA PCR: {}", ev.description));
        }
        let mut next = base.clone();
        next.offsets.aik = quote.aik_fingerprint;
        next.offsets.reset_count = quote.reset_count;
        next.offsets.boot += evidence.boot_events.len();
        extend_bank(&mut next.pcrs, &evidence.boot_events);
        let quotes_ima = selection.contains(&index::IMA);
        if quotes_ima {
            next.offsets.ima += evidence.ima_entries.len();
            if let Some(pcr) = next.pcrs.get_mut(index::IMA) {
                *pcr = extend_pcr(*pcr, &evidence.ima_entries);
            }
        }
        for (&i, quoted) in quote.selection.iter().zip(&quote.pcr_values) {
            if next.pcrs.get(i) != Some(quoted) {
                return Err("event log does not replay to quoted PCRs".into());
            }
        }
        // 5. Every new boot measurement must be whitelisted.
        for ev in &evidence.boot_events {
            if !enrolment.boot_whitelist.contains(&ev.digest) {
                return Err(format!("unapproved boot measurement: {}", ev.description));
            }
        }
        // 6. Every new IMA entry must be whitelisted (continuous only).
        if quotes_ima {
            if let Err(v) = enrolment.ima_whitelist.check(&evidence.ima_entries) {
                return Err(format!("IMA violation: {} ({})", v.path, v.digest));
            }
        }
        Ok(next)
    }

    async fn broadcast_revocation(&self, node_id: &str, reason: &str) {
        let event = RevocationEvent {
            node_id: node_id.to_string(),
            reason: reason.to_string(),
            detected_at: self.sim().now(),
        };
        // One notification RTT to reach subscribers (sent in parallel).
        self.sim().sleep(RTT).await;
        let subs: Vec<Sender<RevocationEvent>> = lock(&self.inner).subscribers.to_vec();
        for tx in subs {
            tx.send(event.clone());
        }
    }

    /// Ends the node's enrolment if it is still `enrolment`, dropping
    /// whatever key material the verifier holds for it.
    fn end(&self, node_id: &str, enrolment: &Arc<Enrolment>) {
        let mut inner = lock(&self.inner);
        if inner.entry(node_id, enrolment).is_some() {
            inner.nodes.remove(node_id);
        }
    }

    /// Runs one attestation round against a node, charging quote,
    /// network and verification time. `continuous` selects the PCR set.
    /// The round reads and writes only the enrolment it started under: a
    /// failed verdict ends that enrolment, and a trusted one stores its
    /// prefix and releases its V share only while it lasts.
    pub async fn attest_once(&self, node_id: &str, continuous: bool) -> AttestOutcome {
        let (enrolment, prefix) = {
            let inner = lock(&self.inner);
            let Some(node) = inner.nodes.get(node_id) else {
                return AttestOutcome::Failed("unknown node".into());
            };
            (node.enrolment.clone(), node.prefix.clone())
        };
        let selection: &[usize] = if continuous {
            &CONTINUOUS_SELECTION
        } else {
            &BOOT_SELECTION
        };
        let nonce = self.fresh_nonce();
        let spans = self.env.spans();
        // The round's quote-verify span stays open until the verdict
        // below, so key-material release is provably ordered after its
        // close.
        let span = spans.begin(self.sim(), "keylime", "quote-verify", node_id);
        // The quote round-trip [rtt → RPC → rtt] can be dropped by the
        // fault plan, and a machine that is not powered on answers no
        // quote; either way the round retries with backoff. Agent
        // *errors* (the TPM refused to quote) are protocol outcomes, not
        // network noise: they abort immediately and revoke, exactly as
        // before.
        // On the fault-free path the retry wrapper adds zero sleeps and
        // zero RNG draws, and the per-node jitter stream is seeded
        // locally, so timing is byte-identical to the pre-retry code.
        enum RoundError {
            Dropped,
            Agent(TpmError),
        }
        let (sim, faults, agent, since) = (
            self.sim(),
            self.env.faults(),
            &enrolment.agent,
            &prefix.offsets,
        );
        let mut retry_rng = Rng::seed_from_u64(mix_seed(0x5EC0_11D5, &[node_id]));
        let op = move || async move {
            sim.sleep(RTT).await;
            faults
                .gate(sim, ops::VERIFIER_QUOTE, node_id)
                .await
                .map_err(|_| RoundError::Dropped)?;
            if agent.machine().power() != PowerState::On {
                return Err(RoundError::Dropped);
            }
            let ev = agent
                .attest(sim, nonce, selection, since)
                .await
                .map_err(RoundError::Agent)?;
            sim.sleep(RTT).await;
            Ok(ev)
        };
        let evidence = match self
            .env
            .call(&mut retry_rng, "verifier.quote", node_id, op, |e| {
                matches!(e, RoundError::Dropped)
            })
            .await
        {
            Ok(ev) => ev,
            Err(RetryError::Fatal {
                error: RoundError::Agent(e),
                ..
            }) => {
                let reason = format!("agent error: {e}");
                spans.attr(span, "outcome", "agent-error");
                spans.end(self.sim(), span);
                self.end(node_id, &enrolment);
                self.broadcast_revocation(node_id, &reason).await;
                return AttestOutcome::Failed(reason);
            }
            Err(e) => {
                // Exhausted on drops or a powered-off machine:
                // infrastructure failure, not evidence of compromise. The
                // enrolment lasts and no revocation is broadcast — the
                // caller decides what to do with an unreachable node.
                spans.attr(span, "outcome", "rpc-fault");
                spans.end(self.sim(), span);
                return AttestOutcome::Unreachable {
                    attempts: e.attempts(),
                };
            }
        };
        // Verification CPU budget. Under bounded capacity the round
        // queues FIFO for a slot and holds it for the whole budget — a
        // saturated verifier is how a quote storm steals victim latency;
        // with unbounded capacity this is exactly the old plain sleep.
        match &self.verify_slots {
            Some(slots) => slots.visit(self.config.verify_cost).await,
            None => self.sim().sleep(self.config.verify_cost).await,
        }
        let metrics = self.env.metrics();
        match self.verify_from(&enrolment, &prefix, &nonce, selection, &evidence) {
            Ok(verified) => {
                // Close the span at the verdict — strictly before any key
                // material moves, so span ordering proves the invariant.
                spans.attr(span, "outcome", "trusted");
                spans.end(self.sim(), span);
                metrics.inc(
                    "quote_verdicts",
                    &[("target", node_id), ("outcome", "trusted")],
                );
                // A round whose enrolment ended meanwhile (a concurrent
                // failure, `stop`, a re-enrolment) touches nothing.
                let deliver = lock(&self.inner)
                    .entry(node_id, &enrolment)
                    .and_then(|node| {
                        node.prefix = verified;
                        let v = node.v_share.take()?;
                        Some((v, std::mem::take(&mut node.sealed_payload)))
                    });
                if let Some((v, sealed)) = deliver {
                    // Payload download (kernel + initrd dominate).
                    let approx = sealed.len() as u64 + enrolment.payload_wire_bytes;
                    let t = SimDuration::from_secs_f64(approx as f64 / PAYLOAD_BPS);
                    self.sim().sleep(t + RTT).await;
                    // The guarded key-material event: V leaves the
                    // verifier only here, after the span above closed.
                    spans.event(self.sim(), "key", "v-release", node_id);
                    metrics.inc("key_releases", &[("target", node_id)]);
                    agent.deliver_v_and_payload(v, &sealed);
                }
                AttestOutcome::Trusted
            }
            Err(reason) => {
                spans.attr(span, "outcome", "failed");
                spans.attr(span, "reason", reason.clone());
                spans.end(self.sim(), span);
                metrics.inc(
                    "quote_verdicts",
                    &[("target", node_id), ("outcome", "failed")],
                );
                self.end(node_id, &enrolment);
                self.broadcast_revocation(node_id, &reason).await;
                AttestOutcome::Failed(reason)
            }
        }
    }

    /// Spawns the continuous-attestation loop for the node's current
    /// enrolment; it polls every `poll_interval` until a round is not
    /// trusted or that enrolment ends. Returns the number of successful
    /// rounds.
    pub fn spawn_continuous(&self, node_id: &str) -> JoinHandle<u64> {
        let this = self.clone();
        let node_id = node_id.to_string();
        let enrolment = lock(&self.inner)
            .nodes
            .get(&node_id)
            .map(|n| n.enrolment.clone());
        self.sim().spawn(async move {
            let Some(enrolment) = enrolment else {
                return 0;
            };
            let mut rounds = 0u64;
            loop {
                this.sim().sleep(this.config.poll_interval).await;
                if lock(&this.inner).entry(&node_id, &enrolment).is_none() {
                    break;
                }
                match this.attest_once(&node_id, true).await {
                    AttestOutcome::Trusted => rounds += 1,
                    AttestOutcome::Failed(_) | AttestOutcome::Unreachable { .. } => break,
                }
            }
            rounds
        })
    }

    /// Ends the node's enrolment: its continuous loop stops, the V share
    /// and sealed payload the verifier still holds for it are dropped,
    /// and a later round on it is a round on an unknown node.
    pub fn stop(&self, node_id: &str) {
        lock(&self.inner).nodes.remove(node_id);
    }
}

/// Trusted verdicts `verifier` has recorded for `node_id`, read from
/// its metrics registry (zero when the registry is disabled).
#[cfg(test)]
fn trusted_verdicts(verifier: &Verifier, node_id: &str) -> u64 {
    verifier.env.metrics().counter(
        "quote_verdicts",
        &[("target", node_id), ("outcome", "trusted")],
    )
}

/// The node's current enrolment in `verifier`, for calling
/// `verify_from` directly.
#[cfg(test)]
fn enrolment(verifier: &Verifier, node_id: &str) -> Arc<Enrolment> {
    lock(&verifier.inner).nodes[node_id].enrolment.clone()
}

/// A call envelope on `sim` that injects nothing and records no spans;
/// its metrics registry is enabled so tests can read the counts.
#[cfg(test)]
fn quiet_env(sim: &Sim) -> CallEnv {
    CallEnv::new(
        sim,
        &Faults::disabled(),
        &Spans::disabled(),
        &Metrics::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::agent_binary_digest;
    use crate::payload::{split_key, TenantPayload};
    use bolted_crypto::chacha20::Key;
    use bolted_crypto::prime::XorShiftSource;
    use bolted_crypto::secret::Secret;
    use bolted_firmware::{FirmwareKind, FirmwareSource, KernelImage, Machine};

    struct Rig {
        sim: Sim,
        machine: Machine,
        registrar: Registrar,
        verifier: Verifier,
        boot_whitelist: HashSet<Digest>,
    }

    fn rig() -> Rig {
        rig_faulted(&Faults::disabled())
    }

    fn rig_faulted(faults: &Faults) -> Rig {
        let sim = Sim::new();
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "heads-1.0", b"src").build();
        let machine = Machine::new("node-1", fw.clone(), 7);
        machine.power_on();
        let registrar = Registrar::new(&Faults::disabled());
        let env = CallEnv::new(&sim, faults, &Spans::disabled(), &Metrics::new());
        let verifier = Verifier::new(&env, &registrar, VerifierConfig::default());
        let mut boot_whitelist = HashSet::new();
        boot_whitelist.insert(fw.build_id);
        boot_whitelist.insert(agent_binary_digest());
        Rig {
            sim,
            machine,
            registrar,
            verifier,
            boot_whitelist,
        }
    }

    async fn boot_and_register(r: &Rig) -> Agent {
        r.machine.run_firmware(&r.sim).await.expect("boots");
        r.machine
            .measure_download("keylime-agent", agent_binary_digest())
            .expect("measures");
        let agent = Agent::start(&r.sim, "node-1", &r.machine).await;
        let mut rng = XorShiftSource::new(11);
        agent
            .register(&r.sim, &r.registrar, &mut rng)
            .await
            .expect("registers");
        agent
    }

    #[test]
    fn clean_boot_attests_trusted() {
        let r = rig();
        let outcome = r.sim.block_on({
            let (r2, v) = (r.machine.clone(), r.verifier.clone());
            let sim = r.sim.clone();
            let reg = r.registrar.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: r2,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                v.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                v.attest_once("node-1", false).await
            }
        });
        assert_eq!(outcome, AttestOutcome::Trusted);
        assert_eq!(trusted_verdicts(&r.verifier, "node-1"), 1);
        assert_ne!(r.verifier.log_offsets("node-1"), Some(LogOffsets::START));
    }

    #[test]
    fn tampered_firmware_rejected() {
        let sim = Sim::new();
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "heads-1.0", b"src").build();
        let evil_fw = fw.tampered(b"bootkit");
        let machine = Machine::new("node-1", evil_fw, 7);
        machine.power_on();
        let registrar = Registrar::new(&Faults::disabled());
        let verifier = Verifier::new(&quiet_env(&sim), &registrar, VerifierConfig::default());
        let mut wl = HashSet::new();
        wl.insert(fw.build_id); // tenant approves only the clean build
        wl.insert(agent_binary_digest());
        let (outcome, revocation) = sim.block_on({
            let (sim2, m, reg, v) = (
                sim.clone(),
                machine.clone(),
                registrar.clone(),
                verifier.clone(),
            );
            async move {
                m.run_firmware(&sim2).await.expect("boots");
                m.measure_download("keylime-agent", agent_binary_digest())
                    .expect("measures");
                let agent = Agent::start(&sim2, "node-1", &m).await;
                let mut rng = XorShiftSource::new(11);
                agent
                    .register(&sim2, &reg, &mut rng)
                    .await
                    .expect("registers");
                v.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                let rx = v.subscribe_revocations();
                let outcome = v.attest_once("node-1", false).await;
                (outcome, rx.try_recv())
            }
        });
        assert!(matches!(outcome, AttestOutcome::Failed(ref r) if r.contains("unapproved")));
        let ev = revocation.expect("revocation broadcast");
        assert!(ev.reason.contains("unapproved"), "{}", ev.reason);
        // The failed verdict ends the enrolment.
        assert_eq!(verifier.log_offsets("node-1"), None);
    }

    #[test]
    fn uncertified_aik_rejected() {
        let r = rig();
        let outcome = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                m.run_firmware(&sim).await.expect("boots");
                let agent = Agent::start(&sim, "node-1", &m).await;
                // Skip registration entirely.
                v.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                v.attest_once("node-1", false).await
            }
        });
        assert!(matches!(outcome, AttestOutcome::Failed(ref e) if e.contains("not certified")));
    }

    #[test]
    fn successful_attestation_releases_payload() {
        let r = rig();
        let kernel = KernelImage::from_bytes("fedora", b"vmlinuz");
        let k = Key([4u8; 32]);
        let mut rng = XorShiftSource::new(2);
        let (u, v_share) = split_key(&k, &mut rng);
        let payload = TenantPayload {
            kernel_name: kernel.name.clone(),
            kernel_digest: kernel.digest,
            kernel_size: 1 << 20,
            cmdline: "quiet".into(),
            luks_passphrase: Secret::named("luks_passphrase", b"pw".to_vec()),
            ipsec_psk: b"psk".to_vec(),
            script: "kexec".into(),
        };
        let sealed = payload.seal(&k);
        let got = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                agent.deliver_u(u);
                v.add_node(
                    &agent,
                    wl,
                    ImaWhitelist::new(),
                    Some(v_share),
                    sealed,
                    1 << 20,
                );
                let outcome = v.attest_once("node-1", false).await;
                (outcome, agent.payload())
            }
        });
        assert_eq!(got.0, AttestOutcome::Trusted);
        let p = got.1.expect("payload delivered after attestation");
        assert_eq!(p.luks_passphrase.expose(), b"pw");
        assert_eq!(p.ipsec_psk, b"psk");
    }

    #[test]
    fn continuous_attestation_detects_ima_violation() {
        let r = rig();
        let (rounds, enrolled, revocation) = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                let mut ima_wl = ImaWhitelist::new();
                ima_wl.allow_content("/usr/bin/make", b"make");
                v.add_node(&agent, wl, ima_wl, None, Vec::new(), 0);
                let rx = v.subscribe_revocations();
                let handle = v.spawn_continuous("node-1");
                // Bound the run: a verifier that misses the file stops
                // polling after twenty rounds instead of never.
                let poll = v.config().poll_interval;
                let (sim3, v3) = (sim.clone(), v.clone());
                sim.spawn(async move {
                    sim3.sleep(poll * 20).await;
                    v3.stop("node-1");
                });
                // Behave for a while, then run malware.
                let sim2 = sim.clone();
                let agent2 = agent.clone();
                sim.spawn(async move {
                    sim2.sleep(SimDuration::from_secs(10)).await;
                    agent2.ima_measure("/usr/bin/make", b"make"); // fine
                    sim2.sleep(SimDuration::from_secs(10)).await;
                    agent2.ima_measure("/tmp/cryptominer", b"evil"); // not fine
                });
                let rounds = handle.await;
                let enrolled = v.log_offsets("node-1").is_some();
                let ev = rx.recv().await;
                (rounds, enrolled, ev)
            }
        });
        assert!(rounds >= 3, "some clean rounds first, got {rounds}");
        assert!(!enrolled, "the violation ends the enrolment");
        let ev = revocation.expect("revocation broadcast");
        assert_eq!(ev.node_id, "node-1");
        assert!(ev.reason.contains("cryptominer"));
    }

    #[test]
    fn a_stopped_node_keeps_no_key_material_and_releases_none() {
        let r = rig();
        let k = Key([5u8; 32]);
        let mut rng = XorShiftSource::new(3);
        let (u, v_share) = split_key(&k, &mut rng);
        let payload = TenantPayload {
            kernel_name: "fedora".into(),
            kernel_digest: KernelImage::from_bytes("fedora", b"vmlinuz").digest,
            kernel_size: 1 << 20,
            cmdline: "quiet".into(),
            luks_passphrase: Secret::named("luks_passphrase", b"pw".to_vec()),
            ipsec_psk: b"psk".to_vec(),
            script: "kexec".into(),
        };
        let sealed = payload.seal(&k);
        let (enrolled, stopped, outcome, delivered) = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                agent.deliver_u(u);
                v.add_node(
                    &agent,
                    wl,
                    ImaWhitelist::new(),
                    Some(v_share),
                    sealed,
                    1 << 20,
                );
                let enrolled = v.holds_key_material("node-1");
                v.stop("node-1");
                let stopped = v.holds_key_material("node-1");
                let outcome = v.attest_once("node-1", false).await;
                (enrolled, stopped, outcome, agent.payload().is_some())
            }
        });
        assert!(enrolled, "enrolment hands the verifier its V share");
        assert!(!stopped, "stop drops the V share and the sealed payload");
        assert_eq!(outcome, AttestOutcome::Failed("unknown node".into()));
        assert!(!delivered, "a round after stop releases no key");
        assert!(!r.verifier.holds_key_material("node-1"));
    }

    #[test]
    fn stopped_loop_ends_cleanly() {
        let r = rig();
        let rounds = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                v.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                let handle = v.spawn_continuous("node-1");
                let sim2 = sim.clone();
                let v2 = v.clone();
                sim.spawn(async move {
                    sim2.sleep(SimDuration::from_secs(9)).await;
                    v2.stop("node-1");
                });
                handle.await
            }
        });
        assert!(rounds >= 1);
        assert_eq!(trusted_verdicts(&r.verifier, "node-1"), rounds);
        assert_eq!(
            r.verifier.log_offsets("node-1"),
            None,
            "stop ends the enrolment"
        );
    }

    /// A round reads and writes only the enrolment it started under: one
    /// whose node is stopped and enrolled again while its quote is in
    /// flight reaches its verdict, but takes nothing of the new
    /// enrolment.
    #[test]
    fn a_round_from_an_ended_enrolment_takes_no_key() {
        let r = rig();
        let mut rng = XorShiftSource::new(4);
        let sealed = |k: &Key| {
            TenantPayload {
                kernel_name: "fedora".into(),
                kernel_digest: KernelImage::from_bytes("fedora", b"vmlinuz").digest,
                kernel_size: 1 << 20,
                cmdline: "quiet".into(),
                luks_passphrase: Secret::named("luks_passphrase", b"pw".to_vec()),
                ipsec_psk: b"psk".to_vec(),
                script: "kexec".into(),
            }
            .seal(k)
        };
        let (k1, k2) = (Key([6u8; 32]), Key([7u8; 32]));
        let ((u1, v1), (_, v2)) = (split_key(&k1, &mut rng), split_key(&k2, &mut rng));
        let (sealed1, sealed2) = (sealed(&k1), sealed(&k2));
        let (outcome, delivered, held) = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                agent.deliver_u(u1);
                let enrol = |v_share, sealed| {
                    v.add_node(
                        &agent,
                        wl.clone(),
                        ImaWhitelist::new(),
                        Some(v_share),
                        sealed,
                        0,
                    );
                };
                enrol(v1, sealed1);
                let round = {
                    let v = v.clone();
                    sim.spawn(async move { v.attest_once("node-1", false).await })
                };
                // The quote is in flight: the first RTT has passed, the
                // verdict is a quote and a verification budget away.
                sim.sleep(RTT * 2).await;
                v.stop("node-1");
                enrol(v2, sealed2);
                let outcome = round.await;
                (
                    outcome,
                    agent.payload().is_some(),
                    v.holds_key_material("node-1"),
                )
            }
        });
        assert_eq!(
            outcome,
            AttestOutcome::Trusted,
            "the verdict is the round's own"
        );
        assert!(!delivered, "the stale round delivered a key");
        assert!(held, "the new enrolment keeps its V share");
        assert_eq!(
            r.verifier
                .env
                .metrics()
                .counter("key_releases", &[("target", "node-1")]),
            0
        );
    }

    /// A continuous loop attests one enrolment: once its node is stopped
    /// and enrolled again, the old loop ends at its next wake and only
    /// the new enrolment's loop runs rounds.
    #[test]
    fn a_continuous_loop_ends_with_its_enrolment() {
        let r = rig();
        let (first, second) = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                let enrol = || {
                    v.add_node(&agent, wl.clone(), ImaWhitelist::new(), None, Vec::new(), 0);
                };
                enrol();
                let poll = v.config().poll_interval;
                let first = v.spawn_continuous("node-1");
                sim.sleep(poll / 2).await;
                v.stop("node-1");
                enrol();
                let second = v.spawn_continuous("node-1");
                // Bound the run: the second loop ends with its own
                // enrolment after four polls.
                let (sim2, v2) = (sim.clone(), v.clone());
                sim.spawn(async move {
                    sim2.sleep(poll * 4).await;
                    v2.stop("node-1");
                });
                (first.await, second.await)
            }
        });
        assert_eq!(first, 0, "the first enrolment ended before its first poll");
        assert!(second >= 3, "the second loop attests, got {second}");
        assert_eq!(trusted_verdicts(&r.verifier, "node-1"), second);
    }

    #[test]
    fn replayed_quote_rejected() {
        let r = rig();
        let err = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                v.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                // Capture evidence for an old nonce, then present it
                // against a new nonce.
                let sel = BOOT_SELECTION;
                let old = agent
                    .attest(&sim, [1; 32], &sel, &LogOffsets::START)
                    .await
                    .expect("attests");
                v.verify_from(
                    &enrolment(&v, "node-1"),
                    &VerifiedPrefix::START,
                    &[2; 32],
                    &sel,
                    &old,
                )
                .unwrap_err()
            }
        });
        assert!(err.contains("stale nonce"), "got: {err}");
    }

    #[test]
    fn forged_ima_log_rejected() {
        // An attacker who strips entries from the IMA list cannot match
        // the quoted PCR 10.
        let r = rig();
        let err = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                let mut ima_wl = ImaWhitelist::new();
                ima_wl.allow_content("/usr/bin/ls", b"ls");
                v.add_node(&agent, wl, ima_wl, None, Vec::new(), 0);
                agent.ima_measure("/usr/bin/ls", b"ls");
                agent.ima_measure("/tmp/evil", b"malware");
                let sel = CONTINUOUS_SELECTION;
                let nonce = [3u8; 32];
                let mut ev = agent
                    .attest(&sim, nonce, &sel, &LogOffsets::START)
                    .await
                    .expect("attests");
                // Strip the incriminating entry.
                ev.ima_entries.retain(|e| e.path != "/tmp/evil");
                v.verify_from(
                    &enrolment(&v, "node-1"),
                    &VerifiedPrefix::START,
                    &nonce,
                    &sel,
                    &ev,
                )
                .unwrap_err()
            }
        });
        assert!(err.contains("does not replay"), "got: {err}");
    }

    #[test]
    fn transient_quote_drops_retried_to_trusted() {
        use bolted_sim::fault::{FaultPlan, FaultSpec};
        let metrics = Metrics::new();
        let faults = Faults::new(
            FaultPlan::seeded(7).with_target(ops::VERIFIER_QUOTE, "node-1", FaultSpec::flaky(2)),
            &metrics,
        );
        let r = rig_faulted(&faults);
        let outcome = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                v.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                v.attest_once("node-1", false).await
            }
        });
        // Two dropped round-trips, then success on the third attempt.
        assert_eq!(outcome, AttestOutcome::Trusted);
        assert_eq!(
            metrics.counter(
                "faults_injected",
                &[("op", ops::VERIFIER_QUOTE), ("target", "node-1")]
            ),
            2
        );
        assert_eq!(trusted_verdicts(&r.verifier, "node-1"), 1);
    }

    #[test]
    fn exhausted_quote_rpc_fails_without_revocation() {
        use bolted_sim::fault::{FaultPlan, FaultSpec};
        let faults = Faults::new(
            FaultPlan::seeded(7).with_target(ops::VERIFIER_QUOTE, "node-1", FaultSpec::permanent()),
            &Metrics::disabled(),
        );
        let r = rig_faulted(&faults);
        let (outcome, revocation) = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m,
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                v.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                let rx = v.subscribe_revocations();
                let outcome = v.attest_once("node-1", false).await;
                (outcome, rx.try_recv())
            }
        });
        // An unreachable verifier RPC is an infrastructure failure, not
        // evidence of compromise: the typed outcome carries the attempt
        // count, and the node is neither revoked nor unenrolled.
        match outcome {
            AttestOutcome::Unreachable { attempts } => {
                assert_eq!(attempts, bolted_sim::MAX_ATTEMPTS)
            }
            other => panic!("expected infra failure, got {other:?}"),
        }
        assert!(revocation.is_none(), "no revocation for infra faults");
        assert_eq!(r.verifier.log_offsets("node-1"), Some(LogOffsets::START));
    }

    /// A machine that is off answers no quote: the round is an
    /// infrastructure failure, like an exhausted RPC, and the node is
    /// neither revoked nor unenrolled, and trusted no more than before.
    #[test]
    fn a_powered_off_machine_is_unreachable() {
        let r = rig();
        let (outcome, revocation) = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m.clone(),
                    registrar: reg,
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                v.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                let rx = v.subscribe_revocations();
                m.power_off();
                let outcome = v.attest_once("node-1", false).await;
                (outcome, rx.try_recv())
            }
        });
        assert_eq!(
            outcome,
            AttestOutcome::Unreachable {
                attempts: bolted_sim::MAX_ATTEMPTS
            }
        );
        assert!(
            revocation.is_none(),
            "no revocation for a machine that is off"
        );
        assert_eq!(r.verifier.log_offsets("node-1"), Some(LogOffsets::START));
        assert_eq!(trusted_verdicts(&r.verifier, "node-1"), 0);
    }

    /// A remediation reboot creates a fresh AIK under the same EK and
    /// re-registers it. Every round reads the AIK from the registrar, so
    /// the round after the reboot verifies the quote against the new key
    /// rather than declaring the signature forged.
    #[test]
    fn a_reregistered_aik_is_read_from_the_registrar() {
        let r = rig();
        let (first, second, quotes) = r.sim.block_on({
            let sim = r.sim.clone();
            let m = r.machine.clone();
            let reg = r.registrar.clone();
            let v = r.verifier.clone();
            let wl = r.boot_whitelist.clone();
            async move {
                let rig_ref = Rig {
                    sim: sim.clone(),
                    machine: m.clone(),
                    registrar: reg.clone(),
                    verifier: v.clone(),
                    boot_whitelist: wl.clone(),
                };
                let agent = boot_and_register(&rig_ref).await;
                v.add_node(&agent, wl.clone(), ImaWhitelist::new(), None, Vec::new(), 0);
                let first = v.attest_once("node-1", false).await;
                // Reboot: fresh AIK on the same TPM (same EK), re-register,
                // re-add. The AIK the first round verified is stale.
                m.power_cycle();
                let agent2 = boot_and_register(&rig_ref).await;
                v.add_node(&agent2, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                let second = v.attest_once("node-1", false).await;
                (first, second, trusted_verdicts(&v, "node-1"))
            }
        });
        assert_eq!(first, AttestOutcome::Trusted);
        assert_eq!(second, AttestOutcome::Trusted);
        // Both rounds reached a trusted verdict — proof the post-reboot
        // quote went through verification against the re-registered AIK.
        assert_eq!(quotes, 2);
    }
}

#[cfg(test)]
mod delivery_tests {
    use super::*;
    use crate::agent::{agent_binary_digest, Agent};
    use crate::payload::{split_key, TenantPayload};
    use bolted_crypto::chacha20::Key;
    use bolted_crypto::prime::XorShiftSource;
    use bolted_crypto::secret::Secret;
    use bolted_crypto::sha256::sha256;
    use bolted_firmware::{FirmwareKind, FirmwareSource, Machine};

    /// The V share and payload must be released exactly once, even across
    /// repeated successful attestations (re-delivery would let a later
    /// compromise re-fetch keys).
    #[test]
    fn payload_delivered_exactly_once() {
        let sim = Sim::new();
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "v", b"src").build();
        let machine = Machine::new("node-1", fw.clone(), 7);
        machine.power_on();
        let registrar = Registrar::new(&Faults::disabled());
        let verifier = Verifier::new(&quiet_env(&sim), &registrar, VerifierConfig::default());
        let mut wl = HashSet::new();
        wl.insert(fw.build_id);
        wl.insert(agent_binary_digest());
        let outcomes = sim.block_on({
            let (sim2, m, reg, v) = (
                sim.clone(),
                machine.clone(),
                registrar.clone(),
                verifier.clone(),
            );
            async move {
                m.run_firmware(&sim2).await.expect("boots");
                m.measure_download("keylime-agent", agent_binary_digest())
                    .expect("measures");
                let agent = Agent::start(&sim2, "node-1", &m).await;
                let mut rng = XorShiftSource::new(11);
                agent
                    .register(&sim2, &reg, &mut rng)
                    .await
                    .expect("registers");
                let k = Key([9u8; 32]);
                let (u, v_share) = split_key(&k, &mut rng);
                let payload = TenantPayload {
                    kernel_name: "k".into(),
                    kernel_digest: sha256(b"k"),
                    kernel_size: 1,
                    cmdline: String::new(),
                    luks_passphrase: Secret::named("luks_passphrase", b"pw".to_vec()),
                    ipsec_psk: Vec::new(),
                    script: String::new(),
                };
                agent.deliver_u(u);
                v.add_node(
                    &agent,
                    wl,
                    ImaWhitelist::new(),
                    Some(v_share),
                    payload.seal(&k),
                    0,
                );
                let first = v.attest_once("node-1", false).await;
                let t_first = sim2.now();
                let second = v.attest_once("node-1", false).await;
                let t_second_elapsed = sim2.now().since(t_first);
                (first, second, t_second_elapsed, agent.payload().is_some())
            }
        });
        assert_eq!(outcomes.0, AttestOutcome::Trusted);
        assert_eq!(outcomes.1, AttestOutcome::Trusted);
        assert!(outcomes.3, "payload delivered on the first pass");
        // Second round must not re-pay the payload delivery time: it is
        // just quote + rtt + verify (well under 2 seconds).
        assert!(
            outcomes.2.as_secs_f64() < 2.0,
            "second attestation re-delivered the payload: {}",
            outcomes.2
        );
        assert_eq!(trusted_verdicts(&verifier, "node-1"), 2);
    }
}

#[cfg(test)]
mod fleet_tests {
    use super::*;
    use crate::agent::agent_binary_digest;
    use bolted_crypto::prime::XorShiftSource;
    use bolted_firmware::{FirmwareKind, FirmwareSource, Machine};
    use bolted_sim::join_all;

    /// An id the verifier never registered fails before any quote is
    /// requested: no `quote-verify` span opens and no verdict is counted.
    #[test]
    fn unknown_nodes_fail_without_a_verdict() {
        let sim = Sim::new();
        let registrar = Registrar::new(&Faults::disabled());
        let spans = Spans::new();
        let metrics = Metrics::new();
        let env = CallEnv::new(&sim, &Faults::disabled(), &spans, &metrics);
        let verifier = Verifier::new(&env, &registrar, VerifierConfig::default());
        let outcomes = sim.block_on(async move {
            vec![
                verifier.attest_once("ghost-1", false).await,
                verifier.attest_once("ghost-2", false).await,
            ]
        });
        assert_eq!(
            outcomes,
            vec![
                AttestOutcome::Failed("unknown node".into()),
                AttestOutcome::Failed("unknown node".into())
            ]
        );
        assert!(spans.records().iter().all(|r| r.name != "quote-verify"));
        assert!(!metrics.to_json().contains("quote_verdicts"));
    }

    /// Hammer one node with concurrent attest_once rounds. The accounting
    /// (trusted verdicts, the stored prefix) must survive arbitrary
    /// interleaving at await points.
    #[test]
    fn concurrent_rounds_on_one_node_account_correctly() {
        const ROUNDS: usize = 10;
        let sim = Sim::new();
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "heads-1.0", b"src").build();
        let machine = Machine::new("node-0", fw.clone(), 7);
        machine.power_on();
        let registrar = Registrar::new(&Faults::disabled());
        let verifier = Verifier::new(&quiet_env(&sim), &registrar, VerifierConfig::default());
        let mut wl = HashSet::new();
        wl.insert(fw.build_id);
        wl.insert(agent_binary_digest());
        let outcomes = sim.block_on({
            let sim = sim.clone();
            let registrar = registrar.clone();
            let verifier = verifier.clone();
            let machine = machine.clone();
            async move {
                machine.run_firmware(&sim).await.expect("boots");
                machine
                    .measure_download("keylime-agent", agent_binary_digest())
                    .expect("measures");
                let agent = Agent::start(&sim, "node-0", &machine).await;
                let mut rng = XorShiftSource::new(11);
                agent
                    .register(&sim, &registrar, &mut rng)
                    .await
                    .expect("registers");
                verifier.add_node(&agent, wl, ImaWhitelist::new(), None, Vec::new(), 0);
                let handles: Vec<_> = (0..ROUNDS)
                    .map(|_| {
                        let v = verifier.clone();
                        sim.spawn(async move { v.attest_once("node-0", false).await })
                    })
                    .collect();
                join_all(handles).await
            }
        });
        assert_eq!(outcomes.len(), ROUNDS);
        assert!(outcomes.iter().all(|o| o == &AttestOutcome::Trusted));
        assert_eq!(trusted_verdicts(&verifier, "node-0"), ROUNDS as u64);
        assert_ne!(verifier.log_offsets("node-0"), Some(LogOffsets::START));
    }
}

/// The verified prefix: each round checks only the evidence past what
/// earlier trusted rounds verified, and every way the prefix can go
/// stale sends the node back to a full replay.
#[cfg(test)]
mod prefix_tests {
    use super::*;
    use crate::agent::agent_binary_digest;
    use bolted_crypto::prime::XorShiftSource;
    use bolted_firmware::{FirmwareKind, FirmwareSource, Machine};
    use bolted_tpm::MeasuredEvent;

    const NODE: &str = "node-1";

    #[derive(Clone)]
    struct Rig {
        sim: Sim,
        machine: Machine,
        registrar: Registrar,
        verifier: Verifier,
        boot_whitelist: HashSet<Digest>,
    }

    fn rig() -> Rig {
        let sim = Sim::new();
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "heads-1.0", b"src").build();
        let machine = Machine::new(NODE, fw.clone(), 7);
        machine.power_on();
        let registrar = Registrar::new(&Faults::disabled());
        let verifier = Verifier::new(&quiet_env(&sim), &registrar, VerifierConfig::default());
        let boot_whitelist = HashSet::from([fw.build_id, agent_binary_digest()]);
        Rig {
            sim,
            machine,
            registrar,
            verifier,
            boot_whitelist,
        }
    }

    /// Boots the machine's firmware and the agent binary.
    async fn boot(r: &Rig) {
        r.machine.run_firmware(&r.sim).await.expect("boots");
        r.machine
            .measure_download("keylime-agent", agent_binary_digest())
            .expect("measures");
    }

    /// Boots, starts and registers an agent and enrols it with `r`'s
    /// verifier; only `/usr/bin/ok` is on its IMA whitelist.
    fn enrolled(r: &Rig) -> Agent {
        let agent = r.sim.block_on({
            let r = r.clone();
            async move {
                boot(&r).await;
                let agent = Agent::start(&r.sim, NODE, &r.machine).await;
                let mut rng = XorShiftSource::new(11);
                agent
                    .register(&r.sim, &r.registrar, &mut rng)
                    .await
                    .expect("registers");
                agent
            }
        });
        enrol(&r.verifier, r, &agent);
        agent
    }

    fn enrol(verifier: &Verifier, r: &Rig, agent: &Agent) {
        let mut ima = ImaWhitelist::new();
        ima.allow_content("/usr/bin/ok", b"ok");
        verifier.add_node(agent, r.boot_whitelist.clone(), ima, None, Vec::new(), 0);
    }

    fn round(r: &Rig, verifier: &Verifier) -> AttestOutcome {
        let v = verifier.clone();
        r.sim
            .block_on(async move { v.attest_once(NODE, true).await })
    }

    fn evidence(r: &Rig, agent: &Agent, since: LogOffsets) -> AttestationEvidence {
        let (sim, agent) = (r.sim.clone(), agent.clone());
        r.sim.block_on(async move {
            agent
                .attest(&sim, [7; 32], &CONTINUOUS_SELECTION, &since)
                .await
                .expect("attests")
        })
    }

    fn stored(verifier: &Verifier) -> VerifiedPrefix {
        lock(&verifier.inner).nodes[NODE].prefix.clone()
    }

    fn check(
        verifier: &Verifier,
        prefix: &VerifiedPrefix,
        ev: &AttestationEvidence,
    ) -> Result<VerifiedPrefix, String> {
        let enrolment = enrolment(verifier, NODE);
        verifier.verify_from(&enrolment, prefix, &[7; 32], &CONTINUOUS_SELECTION, ev)
    }

    fn boot_log_len(r: &Rig) -> usize {
        r.machine.with_tpm(|t| t.event_log().len())
    }

    #[test]
    fn rounds_verify_only_the_new_evidence() {
        let r = rig();
        let agent = enrolled(&r);
        assert_eq!(r.verifier.log_offsets(NODE), Some(LogOffsets::START));
        agent.ima_measure("/usr/bin/ok", b"ok");
        assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        let first = stored(&r.verifier);
        assert_eq!(first.offsets.ima, 1);
        assert_eq!(first.offsets.boot, boot_log_len(&r));
        // The next round's evidence is what was measured since.
        agent.ima_measure("/usr/bin/ok", b"ok");
        let ev = evidence(&r, &agent, first.offsets);
        assert_eq!((ev.boot_from, ev.ima_from), (first.offsets.boot, 1));
        assert_eq!(ev.ima_entries.len(), 1);
        // Only PCR 10 changed in between, and its only log is the IMA
        // list: no new boot event.
        assert!(ev.boot_events.is_empty());
        let next = check(&r.verifier, &first, &ev).expect("trusted");
        assert_eq!(next.offsets.ima, 2);
        // The stored values equal a replay of the whole logs from zero.
        let whole = evidence(&r, &agent, LogOffsets::START);
        let replayed = check(&r.verifier, &VerifiedPrefix::START, &whole).expect("trusted");
        assert_eq!(replayed.offsets, next.offsets);
        assert_eq!(replayed.pcrs, next.pcrs);
    }

    #[test]
    fn a_boot_event_on_the_ima_pcr_is_rejected() {
        let r = rig();
        let agent = enrolled(&r);
        agent.ima_measure("/usr/bin/ok", b"ok");
        assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        let prefix = stored(&r.verifier);
        agent.ima_measure("/usr/bin/ok", b"ok");
        // PCR 10's only log is the IMA list, so a boot event that names
        // it is forged, even one whose digest is on the boot whitelist.
        let forge = |ev: &mut AttestationEvidence| {
            ev.boot_events.push(MeasuredEvent {
                pcr_index: index::IMA,
                digest: agent_binary_digest(),
                description: "ima:/usr/bin/ok".into(),
            })
        };
        // In a full replay and past a verified prefix alike...
        for (from, since) in [
            (&VerifiedPrefix::START, LogOffsets::START),
            (&prefix, prefix.offsets),
        ] {
            let mut ev = evidence(&r, &agent, since);
            check(&r.verifier, from, &ev).expect("the honest evidence is trusted");
            forge(&mut ev);
            let err = check(&r.verifier, from, &ev).unwrap_err();
            assert!(err.contains("IMA PCR"), "{err}");
        }
        // ...and in a boot-selection round, whose quote leaves PCR 10 out.
        let (sim, a) = (r.sim.clone(), agent.clone());
        let mut ev = r.sim.block_on(async move {
            a.attest(&sim, [7; 32], &BOOT_SELECTION, &LogOffsets::START)
                .await
                .expect("attests")
        });
        forge(&mut ev);
        let err = r
            .verifier
            .verify_from(
                &enrolment(&r.verifier, NODE),
                &VerifiedPrefix::START,
                &[7; 32],
                &BOOT_SELECTION,
                &ev,
            )
            .unwrap_err();
        assert!(err.contains("IMA PCR"), "{err}");
    }

    #[test]
    fn boot_rounds_leave_the_ima_prefix_alone() {
        let r = rig();
        let agent = enrolled(&r);
        agent.ima_measure("/tmp/unlisted", b"x");
        let v = r.verifier.clone();
        let boot = r
            .sim
            .block_on(async move { v.attest_once(NODE, false).await });
        assert_eq!(boot, AttestOutcome::Trusted, "PCR 10 is not quoted");
        assert_eq!(stored(&r.verifier).offsets.ima, 0);
        match round(&r, &r.verifier) {
            AttestOutcome::Failed(reason) => assert!(reason.contains("/tmp/unlisted"), "{reason}"),
            other => panic!("the unchecked entry must be checked now, got {other:?}"),
        }
    }

    #[test]
    fn truncated_ima_list_rejected() {
        let r = rig();
        let agent = enrolled(&r);
        agent.ima_measure("/usr/bin/ok", b"ok");
        agent.ima_measure("/usr/bin/ok", b"ok");
        assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        let prefix = stored(&r.verifier);
        assert_eq!(prefix.offsets.ima, 2);
        // A node whose list was cut to one entry cannot answer from
        // offset 2, and answers from the start with what is left. The
        // quote is of the same boot and AIK, so that is a truncation.
        let mut ev = evidence(&r, &agent, prefix.offsets);
        assert_eq!(ev.ima_from, 2);
        let mut whole = evidence(&r, &agent, LogOffsets::START);
        whole.ima_entries.truncate(1);
        ev.ima_from = 0;
        ev.ima_entries = whole.ima_entries;
        let err = check(&r.verifier, &prefix, &ev).unwrap_err();
        assert!(err.contains("shorter than its verified prefix"), "{err}");
    }

    #[test]
    fn stripped_or_forged_new_entry_rejected() {
        let r = rig();
        let agent = enrolled(&r);
        agent.ima_measure("/usr/bin/ok", b"ok");
        assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        let prefix = stored(&r.verifier);
        agent.ima_measure("/usr/bin/ok", b"ok");
        agent.ima_measure("/tmp/evil", b"malware");
        let honest = evidence(&r, &agent, prefix.offsets);
        assert_eq!(honest.ima_entries.len(), 2);
        let err = check(&r.verifier, &prefix, &honest).unwrap_err();
        assert!(err.contains("/tmp/evil"), "{err}");
        // Strip the incriminating new entry...
        let mut stripped = honest.clone();
        stripped.ima_entries.retain(|e| e.path != "/tmp/evil");
        let err = check(&r.verifier, &prefix, &stripped).unwrap_err();
        assert!(err.contains("does not replay"), "{err}");
        // ...or forge it into an approved one.
        let mut forged = honest;
        forged.ima_entries[1] = forged.ima_entries[0].clone();
        let err = check(&r.verifier, &prefix, &forged).unwrap_err();
        assert!(err.contains("does not replay"), "{err}");
    }

    #[test]
    fn violation_after_a_verified_prefix_detected_within_one_poll() {
        let r = rig();
        let agent = enrolled(&r);
        let poll = r.verifier.config().poll_interval;
        let (malware_at, offsets_before, revocation) = r.sim.block_on({
            let (sim, v, agent) = (r.sim.clone(), r.verifier.clone(), agent.clone());
            async move {
                let rx = v.subscribe_revocations();
                let handle = v.spawn_continuous(NODE);
                for _ in 0..50 {
                    agent.ima_measure("/usr/bin/ok", b"ok");
                }
                sim.sleep(poll * 5).await;
                let before = v.log_offsets(NODE).expect("enrolled");
                let at = sim.now();
                agent.ima_measure("/tmp/cryptominer", b"evil");
                // Bound the run: a verifier that misses the file stops
                // polling after five more rounds instead of never.
                let (sim2, v2) = (sim.clone(), v.clone());
                sim.spawn(async move {
                    sim2.sleep(poll * 5).await;
                    v2.stop(NODE);
                });
                handle.await;
                (at, before, rx.try_recv())
            }
        });
        assert_eq!(offsets_before.ima, 50, "the clean entries were verified");
        let revocation = revocation.expect("detected");
        assert!(
            revocation.reason.contains("cryptominer"),
            "{}",
            revocation.reason
        );
        let detected = revocation.detected_at;
        let round = RTT
            + RTT
            + SimDuration::from_nanos(r.machine.with_tpm(|t| t.timings().quote_ns))
            + r.verifier.config().verify_cost;
        assert!(
            detected.since(malware_at) <= poll + round,
            "detected {} after the violation",
            detected.since(malware_at)
        );
        assert_eq!(
            r.verifier.log_offsets(NODE),
            None,
            "the failure ends the enrolment"
        );
    }

    #[test]
    fn a_changed_reset_count_forces_a_full_replay() {
        let r = rig();
        let agent = enrolled(&r);
        agent.ima_measure("/usr/bin/ok", b"ok");
        assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        let before = stored(&r.verifier);
        // Reboot the same machine: the TPM keeps its AIK, so the agent
        // needs no new registration, but every log starts over.
        r.machine.power_cycle();
        r.sim.block_on({
            let r = r.clone();
            async move { boot(&r).await }
        });
        let rebooted = boot_log_len(&r);
        assert_eq!(rebooted, before.offsets.boot, "the same boot chain");
        // Evidence of the new boot that starts past its first entries
        // is refused: nothing of this boot was verified.
        let stale = evidence(
            &r,
            &agent,
            LogOffsets {
                reset_count: before.offsets.reset_count + 1,
                boot: rebooted,
                ima: 0,
                ..before.offsets
            },
        );
        assert_eq!(stale.boot_from, rebooted);
        let err = check(&r.verifier, &before, &stale).unwrap_err();
        assert!(err.contains("skips unverified"), "{err}");
        // The round itself replays both logs from zero.
        assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        let after = stored(&r.verifier).offsets;
        assert_eq!(after.reset_count, before.offsets.reset_count + 1);
        assert_eq!((after.boot, after.ima), (boot_log_len(&r), 0));
    }

    #[test]
    fn an_aik_change_drops_the_prefix() {
        let r = rig();
        let agent = enrolled(&r);
        assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        let before = stored(&r.verifier).offsets;
        // A new AIK on the same boot, registered but never re-enrolled.
        r.sim.block_on({
            let r = r.clone();
            async move {
                let fresh = Agent::start(&r.sim, NODE, &r.machine).await;
                let mut rng = XorShiftSource::new(12);
                fresh
                    .register(&r.sim, &r.registrar, &mut rng)
                    .await
                    .expect("registers");
            }
        });
        assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        let after = stored(&r.verifier).offsets;
        assert_ne!(after.aik, before.aik);
        assert_eq!(after.reset_count, before.reset_count);
        assert_eq!(after.boot, boot_log_len(&r));
        drop(agent);
    }

    #[test]
    fn a_fresh_verifier_replays_from_zero_and_trusts_no_stale_prefix() {
        let r = rig();
        let agent = enrolled(&r);
        for _ in 0..3 {
            agent.ima_measure("/usr/bin/ok", b"ok");
            assert_eq!(round(&r, &r.verifier), AttestOutcome::Trusted);
        }
        let old = stored(&r.verifier);
        assert_eq!(old.offsets.ima, 3);
        let fresh = Verifier::new(&quiet_env(&r.sim), &r.registrar, VerifierConfig::default());
        enrol(&fresh, &r, &agent);
        assert_eq!(fresh.log_offsets(NODE), Some(LogOffsets::START));
        // Evidence cut at the old verifier's offsets means nothing to it.
        let tail = evidence(&r, &agent, old.offsets);
        let err = check(&fresh, &stored(&fresh), &tail).unwrap_err();
        assert!(err.contains("skips unverified"), "{err}");
        assert_eq!(round(&r, &fresh), AttestOutcome::Trusted);
        let replayed = stored(&fresh);
        assert_eq!(replayed.offsets, old.offsets);
        assert_eq!(replayed.pcrs, old.pcrs);
        // Re-enrolment drops the prefix the same way.
        enrol(&r.verifier, &r, &agent);
        assert_eq!(r.verifier.log_offsets(NODE), Some(LogOffsets::START));
    }
}
