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
        "d0ca9edd23c611986d196405ccab72e3df4c1e60fd66e26b122a86fac85b0ac9"
    );
}

#[test]
fn sign_1024_is_pinned() {
    assert_eq!(
        signature_digest(1024, 1..=8),
        "5fd041cf687f92e021beefb59928c2df42e0556d75adbeabcce986885edeb748"
    );
}

#[test]
fn sign_2048_is_pinned() {
    assert_eq!(
        signature_digest(2048, 1..=2),
        "691a30a1b2ce2cd5137547a3a5f502351b4a6f57d3dcdfa0af3c3f7f8d329685"
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
        "21c305f188b397fe96d21a12d4f221e814d0f22e0e91cfb44a9367eb00f46fc0"
    );
}
