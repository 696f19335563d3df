//! Byte-identity pins for RSA key generation.
//!
//! Every TPM identity in the simulation (EKs, AIKs) comes out of
//! `keypair_from_seed`. The fleet, reconcile and scenario digests hash
//! spans, metrics and outcomes, never key bytes, so these pins are what
//! fix the exact primes the prime search returns. They hash the
//! public-key fingerprints of a run of seeds. Pinned inputs include the
//! candidate range, the candidate search order (one random start per
//! walk, odd offsets stepped upward, a redraw at `2^bits`), the sieve
//! table that decides which candidates reach Miller–Rabin, the rounds
//! per prime size, and the RNG consumption of the random bases: a change
//! to any of them, or to the primality kernel, shows up here.

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
        "ff9bd9f121ce77237a3c1aba6bbd3e64d11f97d5fba28c9ee5fc050ed03e1639"
    );
}

#[test]
fn keygen_1024_fingerprints_are_pinned() {
    assert_eq!(
        fingerprint_digest(1024, 1..=8),
        "bd854c84fadcfb87aa290807b077ce35c7c3a5945f05a7d71a4de9406fbdea17"
    );
}
