//! Linux IMA (Integrity Measurement Architecture) modelling.
//!
//! IMA "continuously maintains a hash chain rooted in the TPM of all
//! programs, libraries, and critical configuration files that have been
//! executed or read by the system" (§5). Every measured file appends an
//! entry to the measurement list and extends PCR 10; the Cloud Verifier
//! extends its verified PCR-10 aggregate with the entries it has not
//! seen yet, compares the result with the quoted PCR and checks those
//! entries against a tenant whitelist.

use std::collections::{BTreeMap, HashSet};

use bolted_crypto::sha256::{sha256, Digest};
use bolted_tpm::{index, PcrBank, Tpm};

/// One IMA measurement-list entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImaEntry {
    /// File path measured.
    pub path: String,
    /// Content digest.
    pub digest: Digest,
}

impl ImaEntry {
    /// The digest extended into PCR 10 for this entry (binds path+content).
    pub fn template_digest(&self) -> Digest {
        bolted_crypto::sha256_concat(&[
            b"ima-ng|",
            self.path.as_bytes(),
            b"|",
            self.digest.as_bytes(),
        ])
    }
}

/// The kernel-maintained measurement list for one node's current boot.
///
/// The kernel keeps the list in memory, so every boot starts an empty
/// one, just as the platform reset zeroes PCR 10. The list remembers
/// the TPM reset count of its boot and starts afresh when it sees
/// another.
#[derive(Debug, Clone, Default)]
pub struct ImaLog {
    /// TPM reset count of the boot these entries belong to.
    boot: u64,
    entries: Vec<ImaEntry>,
}

impl ImaLog {
    /// Creates an empty list.
    pub fn new() -> Self {
        ImaLog::default()
    }

    /// Measures a file access: appends to the list and extends PCR 10.
    /// Called by the (modelled) kernel whenever a binary is executed or a
    /// root-read file is opened.
    pub fn measure(&mut self, tpm: &mut Tpm, path: &str, content: &[u8]) {
        self.measure_digest(tpm, path, sha256(content));
    }

    /// Measures a file access by a known content digest. The list is PCR
    /// 10's only log: the extend writes no TPM boot-log event.
    pub fn measure_digest(&mut self, tpm: &mut Tpm, path: &str, digest: Digest) {
        self.follow_boot(tpm.reset_count());
        let entry = ImaEntry {
            path: path.to_string(),
            digest,
        };
        tpm.extend(index::IMA, entry.template_digest());
        self.entries.push(entry);
    }

    /// Empties the list when the TPM has been reset since its boot
    /// (`reset_count` is the TPM's current count).
    pub fn follow_boot(&mut self, reset_count: u64) {
        if self.boot != reset_count {
            self.boot = reset_count;
            self.entries.clear();
        }
    }

    /// All entries in measurement order.
    pub fn entries(&self) -> &[ImaEntry] {
        &self.entries
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays the list to the expected PCR-10 value.
    pub fn replay_pcr(&self) -> Digest {
        extend_pcr(Digest::ZERO, &self.entries)
    }
}

/// PCR 10 after `entries` are extended into `pcr`, in order: a list's
/// aggregate is its verified prefix's aggregate extended by the rest.
pub fn extend_pcr(pcr: Digest, entries: &[ImaEntry]) -> Digest {
    entries.iter().fold(pcr, |pcr, e| {
        PcrBank::extend_value(&pcr, &e.template_digest())
    })
}

/// A whitelist violation found by [`ImaWhitelist::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImaViolation {
    /// Offending path.
    pub path: String,
    /// Digest observed.
    pub digest: Digest,
    /// Whether the path was known at all (false) or known with different
    /// content (true).
    pub known_path: bool,
}

/// The tenant-generated whitelist of approved file measurements.
///
/// Continuous attestation "is fundamentally more challenging in a
/// provider-deployed attestation service, as the runtime whitelist must
/// be tenant-generated" (§4.1) — which is why this lives with the
/// tenant's verifier, not with the provider.
#[derive(Debug, Clone, Default)]
pub struct ImaWhitelist {
    approved: BTreeMap<String, HashSet<Digest>>,
}

impl ImaWhitelist {
    /// Creates an empty whitelist.
    pub fn new() -> Self {
        ImaWhitelist::default()
    }

    /// Approves `digest` for `path`.
    pub fn allow(&mut self, path: &str, digest: Digest) {
        self.approved
            .entry(path.to_string())
            .or_default()
            .insert(digest);
    }

    /// Approves a file by content.
    pub fn allow_content(&mut self, path: &str, content: &[u8]) {
        self.allow(path, sha256(content));
    }

    /// Number of approved paths.
    pub fn len(&self) -> usize {
        self.approved.len()
    }

    /// True if nothing is whitelisted.
    pub fn is_empty(&self) -> bool {
        self.approved.is_empty()
    }

    /// Checks every entry; returns the first violation, if any.
    pub fn check(&self, entries: &[ImaEntry]) -> Result<(), ImaViolation> {
        for e in entries {
            match self.approved.get(&e.path) {
                Some(digests) if digests.contains(&e.digest) => {}
                Some(_) => {
                    return Err(ImaViolation {
                        path: e.path.clone(),
                        digest: e.digest,
                        known_path: true,
                    })
                }
                None => {
                    return Err(ImaViolation {
                        path: e.path.clone(),
                        digest: e.digest,
                        known_path: false,
                    })
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpm() -> Tpm {
        Tpm::new(3, 512)
    }

    #[test]
    fn measurements_extend_pcr10_and_log() {
        let mut t = tpm();
        let mut log = ImaLog::new();
        log.measure(&mut t, "/usr/bin/bash", b"bash binary");
        log.measure(&mut t, "/etc/passwd", b"root:x:0:0");
        assert_eq!(log.len(), 2);
        assert_eq!(t.pcr_read(index::IMA), log.replay_pcr());
    }

    #[test]
    fn replay_detects_log_tampering() {
        let mut t = tpm();
        let mut log = ImaLog::new();
        log.measure(&mut t, "/usr/bin/bash", b"bash");
        log.measure(&mut t, "/usr/bin/evil", b"malware");
        // Attacker strips the incriminating entry from the list...
        let mut forged = ImaLog::new();
        let mut scratch = tpm();
        forged.measure(&mut scratch, "/usr/bin/bash", b"bash");
        // ...but the TPM's PCR no longer matches the forged list.
        assert_ne!(t.pcr_read(index::IMA), forged.replay_pcr());
    }

    #[test]
    fn whitelist_passes_approved_content() {
        let mut t = tpm();
        let mut log = ImaLog::new();
        let mut wl = ImaWhitelist::new();
        wl.allow_content("/usr/bin/bash", b"bash");
        wl.allow_content("/usr/bin/python", b"python");
        log.measure(&mut t, "/usr/bin/bash", b"bash");
        assert_eq!(wl.check(log.entries()), Ok(()));
    }

    #[test]
    fn whitelist_flags_unknown_binary() {
        let mut t = tpm();
        let mut log = ImaLog::new();
        let wl = ImaWhitelist::new();
        log.measure(&mut t, "/tmp/dropper", b"malware");
        let v = wl.check(log.entries()).unwrap_err();
        assert_eq!(v.path, "/tmp/dropper");
        assert!(!v.known_path);
    }

    #[test]
    fn whitelist_flags_modified_binary() {
        let mut t = tpm();
        let mut log = ImaLog::new();
        let mut wl = ImaWhitelist::new();
        wl.allow_content("/usr/bin/sshd", b"good sshd");
        log.measure(&mut t, "/usr/bin/sshd", b"trojaned sshd");
        let v = wl.check(log.entries()).unwrap_err();
        assert!(v.known_path, "path known, content wrong");
    }

    #[test]
    fn multiple_versions_can_be_whitelisted() {
        let mut wl = ImaWhitelist::new();
        wl.allow_content("/usr/bin/bash", b"bash-5.0");
        wl.allow_content("/usr/bin/bash", b"bash-5.1");
        let mut t = tpm();
        let mut log = ImaLog::new();
        log.measure(&mut t, "/usr/bin/bash", b"bash-5.1");
        assert_eq!(wl.check(log.entries()), Ok(()));
    }

    #[test]
    fn a_platform_reset_starts_a_fresh_list() {
        let mut t = tpm();
        let mut log = ImaLog::new();
        log.measure(&mut t, "/usr/bin/top", b"top");
        t.platform_reset();
        log.follow_boot(t.reset_count());
        assert!(log.is_empty(), "the list of the old boot is gone");
        log.measure(&mut t, "/usr/bin/ps", b"ps");
        assert_eq!(log.len(), 1);
        assert_eq!(t.pcr_read(index::IMA), log.replay_pcr());
    }

    #[test]
    fn aggregate_extends_from_a_verified_prefix() {
        let mut t = tpm();
        let mut log = ImaLog::new();
        for i in 0..5u8 {
            log.measure(&mut t, "/usr/bin/f", &[i]);
        }
        let (head, tail) = log.entries().split_at(2);
        assert_eq!(
            extend_pcr(extend_pcr(Digest::ZERO, head), tail),
            log.replay_pcr()
        );
    }

    #[test]
    fn template_digest_binds_path() {
        // Same content at a different path must measure differently,
        // otherwise an attacker could alias approved content.
        let a = ImaEntry {
            path: "/usr/bin/ls".into(),
            digest: sha256(b"x"),
        };
        let b = ImaEntry {
            path: "/tmp/ls".into(),
            digest: sha256(b"x"),
        };
        assert_ne!(a.template_digest(), b.template_digest());
    }
}
