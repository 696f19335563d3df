//! Byte-identity pins for RSA private-key operations.
//!
//! RSA with CRT is deterministic: every TPM quote, credential
//! activation and run digest depends on the exact bytes `sign` and
//! `decrypt` return. These pins hash the outputs of a run of seeded
//! keys at each supported key size; a change to the private
//! exponentiation kernel, the CRT recombination or the PKCS#1 encoding
//! shows up here first.

use bolted_crypto::{keypair_from_seed, sha256, XorShiftSource};

/// SHA-256 over the concatenated signatures of four quote-shaped
/// messages per seeded key.
fn signature_digest(bits: usize, seeds: std::ops::RangeInclusive<u64>) -> String {
    let mut all = Vec::new();
    for s in seeds {
        let kp = keypair_from_seed(bits, s);
        for i in 0..4 {
            all.extend_from_slice(&kp.private.sign(format!("quote {s} {i}").as_bytes()));
        }
    }
    sha256(&all).to_hex()
}

#[test]
fn sign_512_is_pinned() {
    assert_eq!(
        signature_digest(512, 1..=64),
        "6d4d32bf82fd0d467805225ae52ec2417d3ff0d27f30392598705ce1d0ec9bc3"
    );
}

#[test]
fn sign_1024_is_pinned() {
    assert_eq!(
        signature_digest(1024, 1..=8),
        "f175baa4d4b13744d021c9e3ca05e857f9f636fa2c9151578a75dd13a6c433f9"
    );
}

#[test]
fn sign_2048_is_pinned() {
    assert_eq!(
        signature_digest(2048, 1..=2),
        "586b0d47d71db78f81002a71cdd522ee9177f8aed110c73294359d80f6e197f1"
    );
}

#[test]
fn decrypt_512_is_pinned() {
    let mut all = Vec::new();
    for s in 1..=16u64 {
        let kp = keypair_from_seed(512, s);
        let msg = format!("cred {s}");
        let ct = kp
            .public
            .encrypt(msg.as_bytes(), &mut XorShiftSource::new(s))
            .expect("message fits");
        let pt = kp.private.decrypt(&ct).expect("decrypts");
        assert_eq!(pt, msg.as_bytes());
        all.extend_from_slice(&ct);
        all.extend_from_slice(&pt);
    }
    assert_eq!(
        sha256(&all).to_hex(),
        "92268b213a79f2bc824330e63532ad11559a6facb712216778a2c5f99a7ee8ff"
    );
}
