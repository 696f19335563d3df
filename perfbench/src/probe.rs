//! Timings of the public crypto calls behind the TPM model: RSA key
//! generation, and quote signing and verification at the AIK key size.

use std::hint::black_box;
use std::time::Instant;

use bolted_crypto::rsa::keypair_from_seed;
use bolted_crypto::sha256::sha256;
use bolted_tpm::Tpm;

use crate::stats::median;

/// The RSA modulus size of every simulated TPM (`CloudConfig` default).
pub const KEY_BITS: usize = 512;

/// Median host times of the crypto calls.
#[derive(Debug, Clone, Copy)]
pub struct CryptoTimes {
    /// One `keypair_from_seed(KEY_BITS)`, ms.
    pub keygen_ms: f64,
    /// One TPM quote (RSA sign) over the continuous-attestation PCRs, µs.
    pub quote_sign_us: f64,
    /// One quote verification (AIK fingerprint + RSA verify), µs.
    pub quote_verify_us: f64,
}

/// Times `keys` key generations and `quotes` quote sign/verify pairs.
pub fn crypto_times(seed: u64, keys: usize, quotes: usize) -> CryptoTimes {
    let mut keygen = Vec::with_capacity(keys);
    for i in 0..keys as u64 {
        let t = Instant::now();
        black_box(keypair_from_seed(KEY_BITS, black_box(seed ^ (i << 32))));
        keygen.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let mut tpm = Tpm::new(seed, KEY_BITS);
    let aik = tpm.create_aik();
    for (pcr, what) in [
        (0, "firmware"),
        (4, "boot-code"),
        (5, "boot-config"),
        (10, "ima"),
    ] {
        tpm.extend_measured(pcr, sha256(what.as_bytes()), what);
    }
    let selection = [0usize, 4, 5, 10];
    let mut sign = Vec::with_capacity(quotes);
    let mut verify = Vec::with_capacity(quotes);
    for i in 0..quotes as u64 {
        let mut nonce = [0u8; 32];
        nonce[..8].copy_from_slice(&(seed ^ i).to_le_bytes());
        let t = Instant::now();
        let quote = tpm.quote(black_box(&selection), nonce);
        sign.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok(quote) = quote else { continue };
        let t = Instant::now();
        let ok = black_box(&quote).verify(&aik);
        verify.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(ok, "a fresh quote must verify under its own AIK");
    }
    CryptoTimes {
        keygen_ms: median(&keygen),
        quote_sign_us: median(&sign),
        quote_verify_us: median(&verify),
    }
}
