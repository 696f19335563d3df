//! Byte-identity pins for RSA key generation.
//!
//! Every TPM identity in the simulation (EKs, AIKs) comes out of
//! `keypair_from_seed`. The fleet, reconcile and scenario digests hash
//! spans, metrics and outcomes, never key bytes, so these pins are what
//! fix the exact primes the prime search returns. They hash the
//! public-key fingerprints of a run of seeds; a change to the primality
//! kernel, the candidate range or search, or the RNG consumption of the
//! random Miller–Rabin bases shows up here.

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
        "3f6e41198eebc564e9e126fa6cae1dd48c6943e0d9e56073b52d26ee19dca714"
    );
}

#[test]
fn keygen_1024_fingerprints_are_pinned() {
    assert_eq!(
        fingerprint_digest(1024, 1..=8),
        "48b2639fea1a32dc28faa0a42845b03746188828d2120408984083322310a881"
    );
}
