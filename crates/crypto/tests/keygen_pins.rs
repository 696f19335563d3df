//! Byte-identity pins for RSA key generation.
//!
//! Every TPM identity in the simulation (EKs, AIKs) comes out of
//! `keypair_from_seed`, so the fleet, reconcile and scenario digests all
//! depend on the exact primes the prime search returns. These pins hash
//! the public-key fingerprints of a run of seeds; a change to the
//! primality kernel, the candidate search or the RNG consumption of the
//! random Miller–Rabin bases shows up here first.

use bolted_crypto::{keypair_from_seed, sha256};

/// SHA-256 over the concatenated fingerprints of the keys for `seeds`.
fn fingerprint_digest(bits: usize, seeds: std::ops::RangeInclusive<u64>) -> String {
    let mut all = Vec::new();
    for seed in seeds {
        all.extend_from_slice(
            keypair_from_seed(bits, seed)
                .public
                .fingerprint()
                .as_bytes(),
        );
    }
    sha256(&all).to_hex()
}

#[test]
fn keygen_512_fingerprints_are_pinned() {
    assert_eq!(
        fingerprint_digest(512, 1..=64),
        "bd5f6be8a6099b9f962ad44cd25395c5d1de837eb2d1bd1dd237efe88ff13e54"
    );
}

#[test]
fn keygen_1024_fingerprints_are_pinned() {
    assert_eq!(
        fingerprint_digest(1024, 1..=8),
        "3e3ae28a52236804bc64296d706413f0c622018d139c9ca78c2581f1feeacdaf"
    );
}
