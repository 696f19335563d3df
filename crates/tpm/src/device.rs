//! The TPM device: keys, quotes, NVRAM, and timing model.
//!
//! Mirrors what Bolted actually relied on: an Endorsement Key burned in
//! at manufacture, Attestation Identity Keys certified via credential
//! activation, PCR quotes over a verifier-chosen nonce, and a monotonic
//! clock. The paper itself ran IBM's *software* TPM on the M620 cluster
//! with emulated access latency — this implementation does exactly the
//! same, with the latency constants exposed in [`TpmTimings`].

use std::collections::BTreeMap;

use bolted_crypto::rsa::{keypair_from_seed, KeyPair, PublicKey};
use bolted_crypto::sha256::Digest;

use crate::eventlog::EventLog;
use crate::pcr::PcrBank;

/// Access-latency model for TPM commands, in nanoseconds.
///
/// Calibrated from the paper's R630 measurements (§7.1: the M620s lacked
/// hardware TPMs, so latency was emulated "based on numbers collected
/// from our R630 system"). Quotes on discrete TPMs are slow — most of a
/// second — which is why attestation has visible cost in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpmTimings {
    /// `TPM2_PCR_Extend`.
    pub extend_ns: u64,
    /// `TPM2_Quote` (hash + RSA sign inside the device).
    pub quote_ns: u64,
    /// AIK creation (`TPM2_CreateLoaded` with an RSA key).
    pub create_aik_ns: u64,
    /// Credential activation.
    pub activate_ns: u64,
}

impl Default for TpmTimings {
    fn default() -> Self {
        TpmTimings {
            extend_ns: 10_000_000,         // 10 ms
            quote_ns: 750_000_000,         // 750 ms
            create_aik_ns: 12_000_000_000, // 12 s
            activate_ns: 500_000_000,      // 500 ms
        }
    }
}

/// Errors returned by TPM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpmError {
    /// No AIK has been created yet.
    NoAik,
    /// Credential blob could not be decrypted or is bound to another AIK.
    BadCredential,
    /// NVRAM index not found.
    NvUndefined,
    /// Sealed-blob policy does not match current PCR state (or wrong TPM).
    PolicyMismatch,
}

impl std::fmt::Display for TpmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TpmError::NoAik => write!(f, "no AIK loaded"),
            TpmError::BadCredential => write!(f, "credential activation failed"),
            TpmError::NvUndefined => write!(f, "NV index undefined"),
            TpmError::PolicyMismatch => write!(f, "sealing policy mismatch"),
        }
    }
}

impl std::error::Error for TpmError {}

/// A signed attestation of PCR state.
#[derive(Debug, Clone)]
pub struct Quote {
    /// PCR indices covered by this quote, in order.
    pub selection: Vec<usize>,
    /// The quoted PCR values at signing time.
    pub pcr_values: Vec<Digest>,
    /// Verifier-supplied anti-replay nonce.
    pub nonce: [u8; 32],
    /// TPM monotonic clock at signing time.
    pub clock: u64,
    /// Platform resets the TPM has seen (TPM2 `clockInfo.resetCount`):
    /// quotes with equal counts come from the same boot, so a verifier
    /// can keep what it verified of that boot's logs.
    pub reset_count: u64,
    /// Fingerprint of the signing AIK.
    pub aik_fingerprint: Digest,
    /// RSA signature over the canonical serialisation.
    pub signature: Vec<u8>,
}

impl Quote {
    fn message(
        selection: &[usize],
        pcr_values: &[Digest],
        nonce: &[u8; 32],
        clock: u64,
        reset_count: u64,
    ) -> Vec<u8> {
        let mut msg = Vec::with_capacity(72 + selection.len() * 36);
        msg.extend_from_slice(b"BOLTED_TPM_QUOTE_V2");
        msg.extend_from_slice(&(selection.len() as u32).to_be_bytes());
        for (&idx, val) in selection.iter().zip(pcr_values.iter()) {
            msg.extend_from_slice(&(idx as u32).to_be_bytes());
            msg.extend_from_slice(val.as_bytes());
        }
        msg.extend_from_slice(nonce);
        msg.extend_from_slice(&clock.to_be_bytes());
        msg.extend_from_slice(&reset_count.to_be_bytes());
        msg
    }

    /// Verifies the signature against the given AIK public key.
    pub fn verify(&self, aik: &PublicKey) -> bool {
        if self.selection.len() != self.pcr_values.len() {
            return false;
        }
        if aik.fingerprint() != self.aik_fingerprint {
            return false;
        }
        let msg = Self::message(
            &self.selection,
            &self.pcr_values,
            &self.nonce,
            self.clock,
            self.reset_count,
        );
        aik.verify(&msg, &self.signature)
    }
}

/// An encrypted credential bound to (EK, AIK) — the registrar's challenge.
#[derive(Debug, Clone)]
pub struct CredentialBlob {
    /// RSA-encrypted KDF seed (only the EK holder recovers it).
    enc_seed: Vec<u8>,
    /// Secret sealed under a key derived from (seed, AIK name) — exactly
    /// the structure of TPM2_MakeCredential, so the blob only opens on a
    /// TPM that holds *both* the EK and the named AIK.
    sealed_secret: Vec<u8>,
}

/// Builds a credential only the TPM holding `ek` can recover, and only if
/// it also holds the AIK with `aik_fingerprint` (TPM2_MakeCredential).
pub fn make_credential(
    ek: &PublicKey,
    aik_fingerprint: &Digest,
    secret: &[u8],
    rng: &mut dyn bolted_crypto::prime::RandomSource,
) -> CredentialBlob {
    use bolted_crypto::aead::Aead;
    use bolted_crypto::chacha20::Key;
    use bolted_crypto::hmac::hkdf;
    let mut seed = [0u8; 16];
    rng.fill_bytes(&mut seed);
    let enc_seed = ek
        .encrypt(&seed, rng)
        .expect("16-byte seed fits any supported modulus");
    let k = hkdf(
        b"tpm-make-credential",
        &seed,
        aik_fingerprint.as_bytes(),
        32,
    );
    let aead = Aead::new(&Key::from_slice(&k));
    let sealed_secret = aead.seal(&[0u8; 12], aik_fingerprint.as_bytes(), secret);
    CredentialBlob {
        enc_seed,
        sealed_secret,
    }
}

/// A software TPM instance, one per simulated machine.
pub struct Tpm {
    ek: KeyPair,
    aik: Option<KeyPair>,
    aik_seed: u64,
    pcrs: PcrBank,
    event_log: EventLog,
    nvram: BTreeMap<u32, Vec<u8>>,
    timings: TpmTimings,
    clock: u64,
    reset_count: u64,
}

impl Tpm {
    /// Manufactures a TPM with a deterministic EK derived from `seed`.
    /// `key_bits` controls RSA size (the simulated cloud defaults to 512
    /// for speed; the protocol is identical at 2048).
    pub fn new(seed: u64, key_bits: usize) -> Self {
        Tpm {
            ek: keypair_from_seed(key_bits, seed),
            aik: None,
            aik_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            pcrs: PcrBank::new(),
            event_log: EventLog::new(),
            nvram: BTreeMap::new(),
            timings: TpmTimings::default(),
            clock: 0,
            reset_count: 0,
        }
    }

    /// The public Endorsement Key — the provider exports this through HIL
    /// node metadata so tenants can verify which physical machine they got.
    pub fn ek_pub(&self) -> &PublicKey {
        &self.ek.public
    }

    /// Access the timing model.
    pub fn timings(&self) -> TpmTimings {
        self.timings
    }

    /// Override the timing model (tests, ablations).
    pub fn set_timings(&mut self, t: TpmTimings) {
        self.timings = t;
    }

    /// Creates (or re-creates) an AIK and returns its public half.
    pub fn create_aik(&mut self) -> PublicKey {
        let bits = self.ek.public.modulus_len() * 8;
        let aik = keypair_from_seed(bits, self.aik_seed);
        self.aik_seed = self.aik_seed.wrapping_add(1);
        let public = aik.public.clone();
        self.aik = Some(aik);
        public
    }

    /// The current AIK public key, if one exists.
    pub fn aik_pub(&self) -> Option<&PublicKey> {
        self.aik.as_ref().map(|k| &k.public)
    }

    /// Records the event in the boot log, then extends its PCR.
    pub fn extend_measured(&mut self, pcr: usize, digest: Digest, description: impl Into<String>) {
        self.event_log.append(pcr, digest, description);
        self.extend(pcr, digest);
    }

    /// Extends a PCR and writes no boot-log event (`TPM2_PCR_Extend`):
    /// for a PCR whose log another component keeps, as IMA keeps PCR 10's.
    pub fn extend(&mut self, pcr: usize, digest: Digest) {
        self.pcrs.extend(pcr, &digest);
        self.clock += 1;
    }

    /// Reads a PCR value.
    pub fn pcr_read(&self, idx: usize) -> Digest {
        self.pcrs.read(idx)
    }

    /// The boot event log (shipped to the verifier alongside quotes).
    pub fn event_log(&self) -> &EventLog {
        &self.event_log
    }

    /// Produces a signed quote over `selection` with the verifier's nonce.
    pub fn quote(&mut self, selection: &[usize], nonce: [u8; 32]) -> Result<Quote, TpmError> {
        let aik = self.aik.as_ref().ok_or(TpmError::NoAik)?;
        self.clock += 1;
        let pcr_values: Vec<Digest> = selection.iter().map(|&i| self.pcrs.read(i)).collect();
        let msg = Quote::message(selection, &pcr_values, &nonce, self.clock, self.reset_count);
        let signature = aik.private.sign(&msg);
        Ok(Quote {
            selection: selection.to_vec(),
            pcr_values,
            nonce,
            clock: self.clock,
            reset_count: self.reset_count,
            aik_fingerprint: aik.public.fingerprint(),
            signature,
        })
    }

    /// Recovers the secret from a registrar credential, proving this TPM
    /// holds both the EK and the named AIK (TPM2_ActivateCredential).
    pub fn activate_credential(&self, blob: &CredentialBlob) -> Result<Vec<u8>, TpmError> {
        use bolted_crypto::aead::Aead;
        use bolted_crypto::chacha20::Key;
        use bolted_crypto::hmac::hkdf;
        let aik = self.aik.as_ref().ok_or(TpmError::NoAik)?;
        let seed = self
            .ek
            .private
            .decrypt(&blob.enc_seed)
            .map_err(|_| TpmError::BadCredential)?;
        let fp = aik.public.fingerprint();
        let k = hkdf(b"tpm-make-credential", &seed, fp.as_bytes(), 32);
        let aead = Aead::new(&Key::from_slice(&k));
        aead.open(&[0u8; 12], fp.as_bytes(), &blob.sealed_secret)
            .map_err(|_| TpmError::BadCredential)
    }

    /// Writes an NVRAM index.
    pub fn nv_write(&mut self, index: u32, data: Vec<u8>) {
        self.nvram.insert(index, data);
    }

    /// Reads an NVRAM index.
    pub fn nv_read(&self, index: u32) -> Result<&[u8], TpmError> {
        self.nvram
            .get(&index)
            .map(Vec::as_slice)
            .ok_or(TpmError::NvUndefined)
    }

    /// Platform reset: PCRs and event log clear and the reset count
    /// goes up; keys and NVRAM persist.
    pub fn platform_reset(&mut self) {
        self.pcrs.reset();
        self.event_log.clear();
        self.reset_count += 1;
    }

    /// Platform resets since manufacture (TPM2 `clockInfo.resetCount`).
    pub fn reset_count(&self) -> u64 {
        self.reset_count
    }

    /// The TPM's internal storage seed — never exported; used only by the
    /// sealing KDF ([`crate::seal`]). Derived deterministically from the
    /// EK so each manufactured TPM has a unique one.
    pub(crate) fn storage_seed(&self) -> [u8; 32] {
        let fp = self.ek.public.fingerprint();
        *bolted_crypto::sha256_concat(&[b"storage-seed", fp.as_bytes()]).as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_crypto::prime::XorShiftSource;
    use bolted_crypto::sha256::sha256;

    fn tpm() -> Tpm {
        Tpm::new(42, 512)
    }

    #[test]
    fn quote_requires_aik() {
        let mut t = tpm();
        assert_eq!(t.quote(&[0], [0; 32]).unwrap_err(), TpmError::NoAik);
    }

    #[test]
    fn quote_verifies_against_aik() {
        let mut t = tpm();
        let aik = t.create_aik();
        t.extend_measured(0, sha256(b"firmware"), "fw");
        let q = t.quote(&[0, 4], [7; 32]).expect("quotes");
        assert!(q.verify(&aik));
        assert_eq!(q.pcr_values[0], t.pcr_read(0));
    }

    #[test]
    fn quote_rejects_wrong_aik() {
        let mut t1 = tpm();
        let mut t2 = Tpm::new(43, 512);
        t1.create_aik();
        let aik2 = t2.create_aik();
        let q = t1.quote(&[0], [0; 32]).expect("quotes");
        assert!(!q.verify(&aik2));
    }

    #[test]
    fn quote_tamper_detected() {
        let mut t = tpm();
        let aik = t.create_aik();
        t.extend_measured(0, sha256(b"good"), "fw");
        let mut q = t.quote(&[0], [1; 32]).expect("quotes");
        q.pcr_values[0] = sha256(b"forged");
        assert!(!q.verify(&aik));
        let mut q2 = t.quote(&[0], [1; 32]).expect("quotes");
        q2.nonce = [9; 32];
        assert!(!q2.verify(&aik), "nonce is signed");
        let mut q3 = t.quote(&[0], [1; 32]).expect("quotes");
        q3.clock += 1;
        assert!(!q3.verify(&aik), "clock is signed");
        let mut q4 = t.quote(&[0], [1; 32]).expect("quotes");
        q4.reset_count += 1;
        assert!(!q4.verify(&aik), "reset count is signed");
    }

    #[test]
    fn quote_values_match_bank() {
        let mut t = tpm();
        t.create_aik();
        t.extend_measured(0, sha256(b"fw"), "fw");
        t.extend_measured(4, sha256(b"ipxe"), "ipxe");
        let q = t.quote(&[0, 4], [0; 32]).expect("quotes");
        let mut bank = PcrBank::new();
        bank.extend(0, &sha256(b"fw"));
        bank.extend(4, &sha256(b"ipxe"));
        assert_eq!(q.pcr_values, vec![bank.read(0), bank.read(4)]);
    }

    #[test]
    fn event_log_replays_to_quote() {
        let mut t = tpm();
        t.create_aik();
        t.extend_measured(0, sha256(b"fw"), "fw");
        t.extend_measured(4, sha256(b"heads"), "heads");
        let q = t.quote(&[0, 4], [0; 32]).expect("quotes");
        let replayed = t.event_log().replay();
        assert_eq!(q.pcr_values, vec![replayed[0], replayed[4]]);
    }

    #[test]
    fn a_plain_extend_writes_no_log_event() {
        let mut t = tpm();
        t.extend_measured(0, sha256(b"fw"), "fw");
        t.extend(10, sha256(b"ima entry"));
        assert_eq!(t.event_log().len(), 1, "only the measured event");
        assert_eq!(
            t.pcr_read(10),
            PcrBank::extend_value(&Digest::ZERO, &sha256(b"ima entry"))
        );
        assert_eq!(t.event_log().replay()[10], Digest::ZERO);
    }

    #[test]
    fn credential_activation_round_trip() {
        let mut t = tpm();
        let aik = t.create_aik();
        let mut rng = XorShiftSource::new(7);
        let blob = make_credential(
            t.ek_pub(),
            &aik.fingerprint(),
            b"challenge-secret",
            &mut rng,
        );
        let secret = t.activate_credential(&blob).expect("activates");
        assert_eq!(secret, b"challenge-secret");
    }

    #[test]
    fn credential_bound_to_aik() {
        let mut t = tpm();
        t.create_aik();
        let other_aik_fp = sha256(b"some other aik");
        let mut rng = XorShiftSource::new(7);
        let blob = make_credential(t.ek_pub(), &other_aik_fp, b"secret", &mut rng);
        assert_eq!(
            t.activate_credential(&blob).unwrap_err(),
            TpmError::BadCredential
        );
    }

    #[test]
    fn credential_bound_to_ek() {
        let mut t1 = tpm();
        let mut t2 = Tpm::new(99, 512);
        let aik1 = t1.create_aik();
        t2.create_aik();
        let mut rng = XorShiftSource::new(7);
        let blob = make_credential(t1.ek_pub(), &aik1.fingerprint(), b"secret", &mut rng);
        assert!(t2.activate_credential(&blob).is_err());
    }

    #[test]
    fn platform_reset_clears_pcrs_keeps_keys() {
        let mut t = tpm();
        let aik = t.create_aik();
        let ek_fp = t.ek_pub().fingerprint();
        t.extend_measured(0, sha256(b"fw"), "fw");
        t.nv_write(1, vec![1, 2, 3]);
        let before = t.quote(&[0], [0; 32]).expect("quotes");
        t.platform_reset();
        let after = t.quote(&[0], [0; 32]).expect("quotes");
        assert_eq!(after.reset_count, before.reset_count + 1);
        assert_eq!(t.reset_count(), after.reset_count);
        assert_eq!(t.pcr_read(0), Digest::ZERO);
        assert!(t.event_log().is_empty());
        assert_eq!(t.ek_pub().fingerprint(), ek_fp);
        assert_eq!(
            t.aik_pub().expect("aik persists").fingerprint(),
            aik.fingerprint()
        );
        assert_eq!(t.nv_read(1).expect("nvram persists"), &[1, 2, 3]);
    }

    #[test]
    fn nvram_undefined_read_errors() {
        let t = tpm();
        assert_eq!(t.nv_read(5).unwrap_err(), TpmError::NvUndefined);
    }

    #[test]
    fn clock_increases_across_quotes() {
        let mut t = tpm();
        t.create_aik();
        let q1 = t.quote(&[0], [0; 32]).expect("quotes");
        let q2 = t.quote(&[0], [0; 32]).expect("quotes");
        assert!(q2.clock > q1.clock, "monotonic clock prevents replay");
    }

    #[test]
    fn eks_are_unique_per_seed() {
        let a = Tpm::new(1, 512);
        let b = Tpm::new(2, 512);
        assert_ne!(a.ek_pub().fingerprint(), b.ek_pub().fingerprint());
        let a2 = Tpm::new(1, 512);
        assert_eq!(a.ek_pub().fingerprint(), a2.ek_pub().fingerprint());
    }

    #[test]
    fn default_timings_are_sensible() {
        let t = TpmTimings::default();
        assert!(t.quote_ns > t.extend_ns);
        assert!(t.create_aik_ns > t.quote_ns);
    }
}

#[cfg(test)]
mod quote_edge_tests {
    use super::*;
    use bolted_crypto::sha256::sha256;

    #[test]
    fn empty_selection_quote_verifies() {
        let mut t = Tpm::new(4, 512);
        let aik = t.create_aik();
        let q = t.quote(&[], [5; 32]).expect("quotes");
        assert!(q.verify(&aik));
        assert!(q.pcr_values.is_empty());
    }

    #[test]
    fn duplicate_selection_indices_are_consistent() {
        let mut t = Tpm::new(4, 512);
        let aik = t.create_aik();
        t.extend_measured(0, sha256(b"fw"), "fw");
        let q = t.quote(&[0, 0], [1; 32]).expect("quotes");
        assert!(q.verify(&aik));
        assert_eq!(q.pcr_values[0], q.pcr_values[1]);
        // The selection is signed, so a quote over [0,0] cannot pass as
        // one over [0].
        let mut single = q.clone();
        single.selection.pop();
        single.pcr_values.pop();
        assert!(!single.verify(&aik));
    }

    #[test]
    fn selection_order_is_signed() {
        let mut t = Tpm::new(4, 512);
        let aik = t.create_aik();
        t.extend_measured(0, sha256(b"a"), "a");
        t.extend_measured(4, sha256(b"b"), "b");
        let q = t.quote(&[0, 4], [1; 32]).expect("quotes");
        let mut swapped = q.clone();
        swapped.selection.reverse();
        swapped.pcr_values.reverse();
        assert!(q.verify(&aik));
        assert!(!swapped.verify(&aik));
    }

    #[test]
    fn recreating_aik_invalidates_old_quotes_binding() {
        let mut t = Tpm::new(4, 512);
        let aik1 = t.create_aik();
        let q = t.quote(&[0], [1; 32]).expect("quotes");
        let aik2 = t.create_aik();
        assert_ne!(aik1.fingerprint(), aik2.fingerprint());
        assert!(q.verify(&aik1), "old quote verifies against old AIK");
        assert!(!q.verify(&aik2), "but not against the new one");
    }
}
