//! The Keylime Registrar.
//!
//! "The registrar stores and certifies the public Attestation Identity
//! Keys (AIKs) of the TPMs used by a tenant; it is only a trust root and
//! does not store any tenant secrets" (§5). Certification uses the
//! TPM's credential-activation protocol: the registrar encrypts a
//! challenge to the node's EK, bound to the claimed AIK; only a TPM
//! holding both keys can return the matching proof.

use bolted_sim::fault::ops;
use bolted_sim::{lock, FaultDecision, Faults};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bolted_crypto::hmac::hmac_sha256;
use bolted_crypto::prime::RandomSource;
use bolted_crypto::rsa::PublicKey;
use bolted_crypto::sha256::Digest;
use bolted_tpm::{make_credential, CredentialBlob};

/// Errors from registrar operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistrarError {
    /// Unknown agent id.
    Unknown,
    /// Agent already registered and activated.
    AlreadyActive,
    /// Activation proof did not match the challenge.
    BadProof,
    /// The registrar service did not answer (transient; injected by the
    /// fault plan). Retry the round-trip.
    Unavailable,
}

impl std::fmt::Display for RegistrarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistrarError::Unknown => write!(f, "unknown agent"),
            RegistrarError::AlreadyActive => write!(f, "agent already activated"),
            RegistrarError::BadProof => write!(f, "credential activation proof mismatch"),
            RegistrarError::Unavailable => write!(f, "registrar unavailable"),
        }
    }
}

impl std::error::Error for RegistrarError {}

struct Entry {
    ek: PublicKey,
    aik: PublicKey,
    expected_proof: Digest,
    activated: bool,
}

/// The registrar service (tenant-deployable).
#[derive(Clone)]
pub struct Registrar {
    inner: Arc<Mutex<BTreeMap<String, Entry>>>,
    /// Consulted on every registration round-trip.
    faults: Faults,
}

impl Registrar {
    /// Creates an empty registrar whose registration round-trips
    /// consult `faults`.
    pub fn new(faults: &Faults) -> Self {
        Registrar {
            inner: Arc::default(),
            faults: faults.clone(),
        }
    }

    /// Computes the activation proof for a recovered challenge secret.
    /// (Shared between registrar and agent so both sides derive it the
    /// same way.)
    pub fn proof_for(agent_id: &str, secret: &[u8]) -> Digest {
        hmac_sha256(secret, agent_id.as_bytes())
    }

    /// Begins registration: records (EK, AIK) and returns the encrypted
    /// credential challenge the agent must activate.
    ///
    /// An agent may re-register (e.g. after a reboot creates a fresh
    /// AIK) only with the same EK it originally registered.
    pub fn register(
        &self,
        agent_id: &str,
        ek: PublicKey,
        aik: PublicKey,
        rng: &mut dyn RandomSource,
    ) -> Result<CredentialBlob, RegistrarError> {
        // Model a dropped registration round-trip. Safe to retry: the
        // request never reached the registrar, so no state changed.
        if self.faults.enabled()
            && self.faults.decide(ops::REGISTRAR_REGISTER, agent_id) == FaultDecision::Fail
        {
            return Err(RegistrarError::Unavailable);
        }
        let mut inner = lock(&self.inner);
        // Re-registration after a reboot is normal (fresh AIK, same EK).
        // What must never succeed is a *different* machine taking over an
        // activated identity.
        if let Some(existing) = inner.get(agent_id) {
            if existing.activated && existing.ek.fingerprint() != ek.fingerprint() {
                return Err(RegistrarError::AlreadyActive);
            }
        }
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        let blob = make_credential(&ek, &aik.fingerprint(), &secret, rng);
        inner.insert(
            agent_id.to_string(),
            Entry {
                ek,
                aik,
                expected_proof: Self::proof_for(agent_id, &secret),
                activated: false,
            },
        );
        Ok(blob)
    }

    /// Completes registration with the agent's activation proof.
    pub fn activate(&self, agent_id: &str, proof: &Digest) -> Result<(), RegistrarError> {
        let mut inner = lock(&self.inner);
        let e = inner.get_mut(agent_id).ok_or(RegistrarError::Unknown)?;
        if !bolted_crypto::ct::ct_eq(e.expected_proof.as_bytes(), proof.as_bytes()) {
            return Err(RegistrarError::BadProof);
        }
        e.activated = true;
        Ok(())
    }

    /// Returns the certified AIK for an agent — only once activated.
    pub fn certified_aik(&self, agent_id: &str) -> Option<PublicKey> {
        let inner = lock(&self.inner);
        inner
            .get(agent_id)
            .filter(|e| e.activated)
            .map(|e| e.aik.clone())
    }

    /// Returns the EK the agent registered with (for cross-checking
    /// against HIL's published node metadata).
    pub fn registered_ek(&self, agent_id: &str) -> Option<PublicKey> {
        lock(&self.inner).get(agent_id).map(|e| e.ek.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_crypto::prime::XorShiftSource;
    use bolted_tpm::Tpm;

    fn tpm_with_aik(seed: u64) -> (Tpm, PublicKey) {
        let mut t = Tpm::new(seed, 512);
        let aik = t.create_aik();
        (t, aik)
    }

    #[test]
    fn full_registration_flow() {
        let (t, aik) = tpm_with_aik(1);
        let reg = Registrar::new(&Faults::disabled());
        let mut rng = XorShiftSource::new(5);
        let blob = reg
            .register("node-1", t.ek_pub().clone(), aik.clone(), &mut rng)
            .expect("registers");
        // Not certified until activation.
        assert!(reg.certified_aik("node-1").is_none());
        let secret = t.activate_credential(&blob).expect("activates");
        let proof = Registrar::proof_for("node-1", &secret);
        reg.activate("node-1", &proof).expect("proof accepted");
        assert_eq!(
            reg.certified_aik("node-1")
                .expect("certified")
                .fingerprint(),
            aik.fingerprint()
        );
    }

    #[test]
    fn wrong_tpm_cannot_activate() {
        let (t1, aik1) = tpm_with_aik(1);
        let (t2, _aik2) = tpm_with_aik(2);
        let reg = Registrar::new(&Faults::disabled());
        let mut rng = XorShiftSource::new(5);
        let blob = reg
            .register("node-1", t1.ek_pub().clone(), aik1, &mut rng)
            .expect("registers");
        // A different TPM cannot decrypt the challenge at all.
        assert!(t2.activate_credential(&blob).is_err());
    }

    #[test]
    fn forged_proof_rejected() {
        let (t, aik) = tpm_with_aik(1);
        let reg = Registrar::new(&Faults::disabled());
        let mut rng = XorShiftSource::new(5);
        reg.register("node-1", t.ek_pub().clone(), aik, &mut rng)
            .expect("registers");
        let bogus = bolted_crypto::sha256(b"guess");
        assert_eq!(
            reg.activate("node-1", &bogus),
            Err(RegistrarError::BadProof)
        );
        assert!(reg.certified_aik("node-1").is_none());
    }

    #[test]
    fn claimed_aik_must_match_tpm_aik() {
        // An attacker registers someone else's EK with their own AIK; the
        // victim TPM refuses to activate a credential bound to a foreign
        // AIK, so certification can never complete.
        let (victim, _victim_aik) = tpm_with_aik(1);
        let (_attacker, attacker_aik) = tpm_with_aik(2);
        let reg = Registrar::new(&Faults::disabled());
        let mut rng = XorShiftSource::new(5);
        let blob = reg
            .register("node-1", victim.ek_pub().clone(), attacker_aik, &mut rng)
            .expect("registers");
        assert!(victim.activate_credential(&blob).is_err());
    }

    #[test]
    fn unknown_agent_errors() {
        let reg = Registrar::new(&Faults::disabled());
        assert_eq!(
            reg.activate("ghost", &bolted_crypto::sha256(b"x")),
            Err(RegistrarError::Unknown)
        );
        assert!(reg.certified_aik("ghost").is_none());
        assert!(reg.registered_ek("ghost").is_none());
    }

    #[test]
    fn reregistration_blocked_once_active() {
        let (t, aik) = tpm_with_aik(1);
        let reg = Registrar::new(&Faults::disabled());
        let mut rng = XorShiftSource::new(5);
        let blob = reg
            .register("node-1", t.ek_pub().clone(), aik.clone(), &mut rng)
            .expect("registers");
        let secret = t.activate_credential(&blob).expect("activates");
        reg.activate("node-1", &Registrar::proof_for("node-1", &secret))
            .expect("activates");
        // A hijacker cannot silently replace the binding.
        let (t2, aik2) = tpm_with_aik(9);
        assert!(matches!(
            reg.register("node-1", t2.ek_pub().clone(), aik2, &mut rng),
            Err(RegistrarError::AlreadyActive)
        ));
    }
}
