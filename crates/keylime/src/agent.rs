//! The Keylime Agent — runs on the attested node.
//!
//! "The Agent is downloaded and measured by the server (firmware or
//! previously measured software) and then passes quotes from the
//! server's TPM to the verifier" (§5). After a successful attestation it
//! receives the V key share from the verifier, combines it with the U
//! share it got from the tenant, decrypts the payload, and executes the
//! tenant script (join network, unlock disk, kexec).

use bolted_crypto::chacha20::Key;
use bolted_crypto::sha256::{sha256, Digest};
use bolted_firmware::Machine;
use bolted_sim::lock;
use bolted_sim::{Sim, SimDuration};
use bolted_tpm::{CredentialBlob, MeasuredEvent, Quote, SealedBlob, TpmError};
use std::sync::{Arc, Mutex};

use crate::ima::{ImaEntry, ImaLog};
use crate::payload::{combine_key, KeyShare, TenantPayload};
use crate::registrar::{Registrar, RegistrarError};

/// The canonical agent binary (what gets downloaded and measured). In
/// the real system this is the Python agent; here it is a stand-in byte
/// string whose digest goes on boot whitelists.
pub const AGENT_BINARY: &[u8] = b"keylime-agent v6 (rust rewrite, as the paper suggests)";

/// Digest of [`AGENT_BINARY`].
pub fn agent_binary_digest() -> Digest {
    sha256(AGENT_BINARY)
}

/// Why an agent failed to register with the registrar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The node's TPM failed the credential-activation protocol.
    Tpm(TpmError),
    /// The registrar rejected (or never received) the request.
    Registrar(RegistrarError),
}

impl RegisterError {
    /// True when the failure is worth retrying (the service was
    /// unreachable, as opposed to a protocol rejection).
    pub fn is_transient(&self) -> bool {
        matches!(self, RegisterError::Registrar(RegistrarError::Unavailable))
    }
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::Tpm(e) => write!(f, "TPM error: {e:?}"),
            RegisterError::Registrar(e) => write!(f, "registrar error: {e}"),
        }
    }
}

impl std::error::Error for RegisterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegisterError::Tpm(e) => Some(e),
            RegisterError::Registrar(e) => Some(e),
        }
    }
}

impl From<TpmError> for RegisterError {
    fn from(e: TpmError) -> Self {
        RegisterError::Tpm(e)
    }
}

impl From<RegistrarError> for RegisterError {
    fn from(e: RegistrarError) -> Self {
        RegisterError::Registrar(e)
    }
}

/// How much of a node's two logs a verifier has verified, and under
/// which boot and AIK. The verifier sends it with every nonce, and the
/// agent answers with the entries past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogOffsets {
    /// Fingerprint of the AIK whose quotes verified the prefix.
    pub aik: Digest,
    /// TPM reset count of the boot the prefix belongs to.
    pub reset_count: u64,
    /// Boot events verified.
    pub boot: usize,
    /// IMA entries verified.
    pub ima: usize,
}

impl LogOffsets {
    /// Nothing verified: the agent answers with both logs whole.
    pub const START: LogOffsets = LogOffsets {
        aik: Digest::ZERO,
        reset_count: 0,
        boot: 0,
        ima: 0,
    };
}

/// Everything a verifier receives in response to an attestation request.
#[derive(Debug, Clone)]
pub struct AttestationEvidence {
    /// The signed quote.
    pub quote: Quote,
    /// Position in the boot event log of `boot_events[0]`.
    pub boot_from: usize,
    /// The boot event log from `boot_from` on.
    pub boot_events: Vec<MeasuredEvent>,
    /// Position in the IMA measurement list of `ima_entries[0]`.
    pub ima_from: usize,
    /// The IMA measurement list from `ima_from` on.
    pub ima_entries: Vec<ImaEntry>,
}

struct AgentInner {
    u_share: Option<KeyShare>,
    v_share: Option<KeyShare>,
    payload: Option<TenantPayload>,
    revoked: bool,
}

/// An agent instance bound to one machine.
#[derive(Clone)]
pub struct Agent {
    id: String,
    machine: Machine,
    ima: Arc<Mutex<ImaLog>>,
    inner: Arc<Mutex<AgentInner>>,
}

impl Agent {
    /// Starts the agent on a machine: creates an AIK in the TPM
    /// (charging its creation latency) and measures nothing by itself —
    /// the *firmware* must already have measured the agent binary before
    /// running it for the chain of trust to hold.
    pub async fn start(sim: &Sim, id: impl Into<String>, machine: &Machine) -> Agent {
        let create_ns = machine.with_tpm(|t| t.timings().create_aik_ns);
        sim.sleep(SimDuration::from_nanos(create_ns)).await;
        machine.with_tpm(|t| t.create_aik());
        Agent {
            id: id.into(),
            machine: machine.clone(),
            ima: Arc::new(Mutex::new(ImaLog::new())),
            inner: Arc::new(Mutex::new(AgentInner {
                u_share: None,
                v_share: None,
                payload: None,
                revoked: false,
            })),
        }
    }

    /// Agent id (node name).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The machine this agent runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Registers with a registrar and activates the credential challenge,
    /// charging the TPM activation latency. A
    /// [`RegistrarError::Unavailable`] rejection
    /// ([`RegisterError::is_transient`]) is safe to retry.
    pub async fn register(
        &self,
        sim: &Sim,
        registrar: &Registrar,
        rng: &mut dyn bolted_crypto::prime::RandomSource,
    ) -> Result<(), RegisterError> {
        let (ek, aik) = self.machine.with_tpm(|t| {
            (
                t.ek_pub().clone(),
                // lint: allow(L1-panic: start() unconditionally creates the
                // AIK before an Agent value exists; absence is a
                // constructor bug, not a runtime condition)
                t.aik_pub().expect("AIK created in start()").clone(),
            )
        });
        let blob: CredentialBlob = registrar.register(&self.id, ek, aik, rng)?;
        let activate_ns = self.machine.with_tpm(|t| t.timings().activate_ns);
        sim.sleep(SimDuration::from_nanos(activate_ns)).await;
        let secret = self.machine.with_tpm(|t| t.activate_credential(&blob))?;
        let proof = Registrar::proof_for(&self.id, &secret);
        registrar.activate(&self.id, &proof)?;
        Ok(())
    }

    /// Produces attestation evidence for the verifier's nonce, charging
    /// the TPM quote latency. The evidence carries the boot events and
    /// IMA entries past `since`, or both logs whole when `since` was
    /// verified under another boot or AIK or lies past a log's end.
    pub async fn attest(
        &self,
        sim: &Sim,
        nonce: [u8; 32],
        selection: &[usize],
        since: &LogOffsets,
    ) -> Result<AttestationEvidence, TpmError> {
        let quote_ns = self.machine.with_tpm(|t| t.timings().quote_ns);
        sim.sleep(SimDuration::from_nanos(quote_ns)).await;
        let mut ima = lock(&self.ima);
        self.machine.with_tpm(|t| {
            ima.follow_boot(t.reset_count());
            let quote = t.quote(selection, nonce)?;
            let boot = t.event_log().events();
            let continues = since.aik == quote.aik_fingerprint
                && since.reset_count == quote.reset_count
                && since.boot <= boot.len()
                && since.ima <= ima.len();
            let (boot_from, ima_from) = if continues {
                (since.boot, since.ima)
            } else {
                (0, 0)
            };
            Ok(AttestationEvidence {
                boot_from,
                boot_events: boot.get(boot_from..).unwrap_or_default().to_vec(),
                ima_from,
                ima_entries: ima.entries().get(ima_from..).unwrap_or_default().to_vec(),
                quote,
            })
        })
    }

    /// The node's kernel reports an IMA-measurable file access.
    pub fn ima_measure(&self, path: &str, content: &[u8]) {
        let mut log = lock(&self.ima);
        self.machine.with_tpm(|t| log.measure(t, path, content));
    }

    /// Tenant-side delivery of the U key share (over the tenant's own
    /// secure channel, before the node is trusted).
    pub fn deliver_u(&self, u: KeyShare) {
        lock(&self.inner).u_share = Some(u);
    }

    /// Verifier-side delivery of the V key share + sealed payload — only
    /// happens after attestation success.
    pub fn deliver_v_and_payload(&self, v: KeyShare, sealed_payload: &[u8]) -> bool {
        let mut inner = lock(&self.inner);
        inner.v_share = Some(v);
        let (Some(u), Some(vv)) = (&inner.u_share, &inner.v_share) else {
            return false;
        };
        let k: Key = combine_key(u, vv);
        match TenantPayload::open(sealed_payload, &k) {
            Ok(p) => {
                inner.payload = Some(p);
                true
            }
            Err(_) => false,
        }
    }

    /// The decrypted payload, once both shares have arrived.
    pub fn payload(&self) -> Option<TenantPayload> {
        lock(&self.inner).payload.clone()
    }

    /// NVRAM index where the sealed bootstrap key lives.
    const BOOTSTRAP_NV_INDEX: u32 = 0x1500;

    /// Seals the combined bootstrap key to the current measured-boot
    /// state (PCRs 0 and 4) and persists it in TPM NVRAM, so an
    /// *identical* reboot can recover it without a fresh U/V bootstrap —
    /// the trick real Keylime uses across the kexec boundary.
    ///
    /// Returns `false` when no complete key is held yet.
    pub fn seal_bootstrap(&self) -> bool {
        let key = {
            let inner = lock(&self.inner);
            match (&inner.u_share, &inner.v_share) {
                (Some(u), Some(v)) => combine_key(u, v),
                _ => return false,
            }
        };
        let blob = self.machine.with_tpm(|t| {
            let blob = t.seal(
                &[bolted_tpm::index::FIRMWARE, bolted_tpm::index::BOOT_CODE],
                &key.0,
            );
            t.nv_write(Self::BOOTSTRAP_NV_INDEX, blob.to_bytes());
            blob
        });
        drop(blob);
        true
    }

    /// Attempts to recover a previously sealed bootstrap key. Succeeds
    /// only on the same TPM after an identical measured boot.
    pub fn recover_bootstrap(&self) -> Result<Key, TpmError> {
        self.machine.with_tpm(|t| {
            let bytes = t.nv_read(Self::BOOTSTRAP_NV_INDEX)?.to_vec();
            let blob = SealedBlob::from_bytes(&bytes).ok_or(TpmError::PolicyMismatch)?;
            let raw = t.unseal(&blob)?;
            if raw.len() != 32 {
                return Err(TpmError::PolicyMismatch);
            }
            Ok(Key::from_slice(&raw))
        })
    }

    /// Marks the agent revoked (keys destroyed, node cryptographically
    /// banned). Clears all key material.
    pub fn revoke(&self) {
        let mut inner = lock(&self.inner);
        inner.revoked = true;
        inner.u_share = None;
        inner.v_share = None;
        inner.payload = None;
    }

    /// True once revoked.
    pub fn is_revoked(&self) -> bool {
        lock(&self.inner).revoked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_crypto::prime::XorShiftSource;
    use bolted_crypto::secret::Secret;
    use bolted_crypto::sha256::sha256;
    use bolted_firmware::{FirmwareKind, FirmwareSource};
    use bolted_sim::Faults;
    use bolted_tpm::index;

    fn machine() -> Machine {
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "heads-1.0", b"src").build();
        let m = Machine::new("node-1", fw, 7);
        m.power_on();
        m
    }

    async fn booted_agent(sim: &Sim, m: &Machine) -> Agent {
        m.run_firmware(sim).await.expect("boots");
        m.measure_download("keylime-agent", agent_binary_digest())
            .expect("measured");
        Agent::start(sim, "node-1", m).await
    }

    #[test]
    fn agent_start_charges_aik_time() {
        let sim = Sim::new();
        let m = machine();
        sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move {
                let _agent = booted_agent(&sim2, &m).await;
            }
        });
        // POST (40s) + scrub + AIK creation (12s).
        assert!(sim.now().as_secs_f64() > 50.0);
    }

    #[test]
    fn attest_produces_verifiable_evidence() {
        let sim = Sim::new();
        let m = machine();
        let ev = sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move {
                let agent = booted_agent(&sim2, &m).await;
                agent
                    .attest(
                        &sim2,
                        [9; 32],
                        &[index::FIRMWARE, index::BOOT_CODE],
                        &LogOffsets::START,
                    )
                    .await
                    .expect("attests")
            }
        });
        let aik = m.with_tpm(|t| t.aik_pub().expect("aik").clone());
        assert!(ev.quote.verify(&aik));
        let log = m.with_tpm(|t| t.event_log().clone());
        assert_eq!(ev.boot_from, 0);
        assert_eq!(ev.boot_events, log.events(), "the whole boot log");
        let replayed = log.replay();
        assert_eq!(
            ev.quote.pcr_values,
            vec![replayed[index::FIRMWARE], replayed[index::BOOT_CODE]],
            "event log replays to the quoted values"
        );
    }

    #[test]
    fn registration_against_registrar() {
        let sim = Sim::new();
        let m = machine();
        let registrar = Registrar::new(&Faults::disabled());
        let ok = sim.block_on({
            let (sim2, m, reg) = (sim.clone(), m.clone(), registrar.clone());
            async move {
                let agent = booted_agent(&sim2, &m).await;
                let mut rng = XorShiftSource::new(3);
                agent.register(&sim2, &reg, &mut rng).await.is_ok()
            }
        });
        assert!(ok);
        assert!(registrar.certified_aik("node-1").is_some());
    }

    #[test]
    fn ima_measurements_land_in_pcr10() {
        let sim = Sim::new();
        let m = machine();
        sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move {
                let agent = booted_agent(&sim2, &m).await;
                agent.ima_measure("/usr/bin/top", b"top binary");
                let ev = agent
                    .attest(&sim2, [1; 32], &[index::IMA], &LogOffsets::START)
                    .await
                    .expect("attests");
                assert_eq!(ev.ima_entries.len(), 1);
                assert_eq!(
                    crate::ima::extend_pcr(Digest::ZERO, &ev.ima_entries),
                    ev.quote.pcr_values[0]
                );
            }
        });
    }

    #[test]
    fn evidence_starts_at_offsets_of_the_same_boot_and_aik_only() {
        let sim = Sim::new();
        let m = machine();
        let agent = sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move { booted_agent(&sim2, &m).await }
        });
        for path in ["/usr/bin/a", "/usr/bin/b", "/usr/bin/c"] {
            agent.ima_measure(path, path.as_bytes());
        }
        let attest = |since: LogOffsets| {
            sim.block_on({
                let (sim2, agent) = (sim.clone(), agent.clone());
                async move {
                    agent
                        .attest(&sim2, [2; 32], &[index::IMA], &since)
                        .await
                        .expect("attests")
                }
            })
        };
        let whole = attest(LogOffsets::START);
        let boot_len = whole.boot_events.len();
        assert_eq!((whole.boot_from, whole.ima_from), (0, 0));
        assert_eq!(whole.ima_entries.len(), 3);
        let since = LogOffsets {
            aik: whole.quote.aik_fingerprint,
            reset_count: whole.quote.reset_count,
            boot: boot_len - 1,
            ima: 2,
        };
        let tail = attest(since);
        assert_eq!((tail.boot_from, tail.ima_from), (boot_len - 1, 2));
        assert_eq!(
            tail.boot_events.as_slice(),
            &whole.boot_events[boot_len - 1..]
        );
        assert_eq!(tail.ima_entries.as_slice(), &whole.ima_entries[2..]);
        // Another boot, another AIK, or an offset past the end: whole logs.
        for other in [
            LogOffsets {
                reset_count: since.reset_count + 1,
                ..since
            },
            LogOffsets {
                aik: Digest::ZERO,
                ..since
            },
            LogOffsets { ima: 4, ..since },
        ] {
            let ev = attest(other);
            assert_eq!((ev.boot_from, ev.ima_from), (0, 0), "{other:?}");
            assert_eq!(ev.ima_entries.len(), 3);
        }
    }

    #[test]
    fn a_reboot_starts_a_fresh_ima_list() {
        let sim = Sim::new();
        let m = machine();
        let agent = sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move { booted_agent(&sim2, &m).await }
        });
        agent.ima_measure("/usr/bin/top", b"top binary");
        m.power_cycle();
        let ev = sim.block_on({
            let (sim2, m, agent) = (sim.clone(), m.clone(), agent.clone());
            async move {
                m.run_firmware(&sim2).await.expect("boots");
                agent
                    .attest(&sim2, [3; 32], &[index::IMA], &LogOffsets::START)
                    .await
                    .expect("attests")
            }
        });
        assert!(ev.ima_entries.is_empty(), "the old boot's list is gone");
        assert_eq!(ev.quote.pcr_values[0], Digest::ZERO);
    }

    #[test]
    fn payload_requires_both_shares() {
        let sim = Sim::new();
        let m = machine();
        sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move {
                let agent = booted_agent(&sim2, &m).await;
                let k = Key([5u8; 32]);
                let mut rng = XorShiftSource::new(9);
                let (u, v) = crate::payload::split_key(&k, &mut rng);
                let payload = TenantPayload {
                    kernel_name: "k".into(),
                    kernel_digest: sha256(b"k"),
                    kernel_size: 1,
                    cmdline: String::new(),
                    luks_passphrase: Secret::named("luks_passphrase", b"pw".to_vec()),
                    ipsec_psk: b"psk".to_vec(),
                    script: String::new(),
                };
                let sealed = payload.seal(&k);
                // V alone: cannot decrypt.
                assert!(!agent.deliver_v_and_payload(v.clone(), &sealed));
                assert!(agent.payload().is_none());
                // With U first, V completes the key.
                agent.deliver_u(u);
                assert!(agent.deliver_v_and_payload(v, &sealed));
                assert_eq!(
                    agent.payload().expect("payload").luks_passphrase.expose(),
                    b"pw"
                );
            }
        });
    }

    #[test]
    fn revocation_clears_key_material() {
        let sim = Sim::new();
        let m = machine();
        sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move {
                let agent = booted_agent(&sim2, &m).await;
                agent.deliver_u(KeyShare::new([1; 32]));
                agent.revoke();
                assert!(agent.is_revoked());
                assert!(agent.payload().is_none());
            }
        });
    }
}

#[cfg(test)]
mod seal_tests {
    use super::*;
    use crate::payload::split_key;
    use bolted_crypto::prime::XorShiftSource;
    use bolted_firmware::{FirmwareKind, FirmwareSource};

    fn machine() -> Machine {
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "heads-1.0", b"src").build();
        let m = Machine::new("node-1", fw, 7);
        m.power_on();
        m
    }

    async fn boot(sim: &Sim, m: &Machine) -> Agent {
        m.run_firmware(sim).await.expect("boots");
        m.measure_download("keylime-agent", agent_binary_digest())
            .expect("measured");
        Agent::start(sim, "node-1", m).await
    }

    fn delivered_agent(sim: &Sim, m: &Machine) -> (Agent, Key) {
        let agent = sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move { boot(&sim2, &m).await }
        });
        let k = Key([0x21u8; 32]);
        let mut rng = XorShiftSource::new(4);
        let (u, v) = split_key(&k, &mut rng);
        agent.deliver_u(u);
        lock(&agent.inner).v_share = Some(v);
        (agent, k)
    }

    #[test]
    fn seal_requires_complete_key() {
        let sim = Sim::new();
        let m = machine();
        let agent = sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move { boot(&sim2, &m).await }
        });
        assert!(!agent.seal_bootstrap(), "no key yet");
        agent.deliver_u(KeyShare::new([1; 32]));
        assert!(!agent.seal_bootstrap(), "still missing V");
    }

    #[test]
    fn bootstrap_survives_identical_reboot() {
        let sim = Sim::new();
        let m = machine();
        let (agent, k) = delivered_agent(&sim, &m);
        assert!(agent.seal_bootstrap());
        // Reboot through the same measured chain.
        m.power_cycle();
        let agent2 = sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move { boot(&sim2, &m).await }
        });
        let recovered = agent2.recover_bootstrap().expect("recovers");
        assert_eq!(recovered.0, k.0);
    }

    #[test]
    fn bootstrap_unrecoverable_after_firmware_tamper() {
        let sim = Sim::new();
        let m = machine();
        let (agent, _k) = delivered_agent(&sim, &m);
        assert!(agent.seal_bootstrap());
        // Attacker reflashes between occupancies.
        m.reflash(m.flash().tampered(b"implant"));
        m.power_cycle();
        let agent2 = sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move { boot(&sim2, &m).await }
        });
        assert_eq!(
            agent2.recover_bootstrap().unwrap_err(),
            TpmError::PolicyMismatch
        );
    }

    #[test]
    fn recover_without_seal_errors() {
        let sim = Sim::new();
        let m = machine();
        let agent = sim.block_on({
            let (sim2, m) = (sim.clone(), m.clone());
            async move { boot(&sim2, &m).await }
        });
        assert_eq!(
            agent.recover_bootstrap().unwrap_err(),
            TpmError::NvUndefined
        );
    }
}
