//! Byte-identity pins for RSA private-key operations.
//!
//! RSA with CRT is deterministic: every TPM quote and credential
//! activation carries the exact bytes `sign` and `decrypt` return. Run
//! digests hash spans, metrics and outcomes, not these bytes, so only
//! these pins fix them. They hash the outputs of a run of seeded keys at
//! each supported key size; a change to the keys, the private
//! exponentiation kernel, the CRT recombination or the PKCS#1 encoding
//! shows up here.

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
        "c4b15ac5d685ef1eef749f0f67845fa8b1d6df2714fca004319f62770d47ffa2"
    );
}

#[test]
fn sign_1024_is_pinned() {
    assert_eq!(
        signature_digest(1024, 1..=8),
        "17e59eb3d47b97534f9fdb9c37f2fa6bddc2b0e53dc3b0352807ab5e0ca0f1a2"
    );
}

#[test]
fn sign_2048_is_pinned() {
    assert_eq!(
        signature_digest(2048, 1..=2),
        "0447f995ed8fba1ac2aa46bcd58263db9679d70d82c68cd84d709fa6a1ed42e8"
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
        "4b0c5cd7e8d5bb323cc5b4639b2b1458481cbf2d4aed1865e628282a6958b0a3"
    );
}
