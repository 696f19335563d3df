//! ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! Serves as the workhorse symmetric cipher for the reproduction's LUKS
//! and IPsec data paths. (The paper used AES-256-XTS and AES-256-GCM; we
//! use ChaCha20 with equivalent structure — sector-tweaked keystream for
//! disk, per-packet nonce + MAC for network — so the *code paths* match
//! while staying dependency-free. Throughput *models* for AES-NI vs
//! software AES live in [`crate::cost`].)

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// A 256-bit symmetric key.
#[derive(Clone, PartialEq, Eq)]
pub struct Key(pub [u8; KEY_LEN]);

impl Key {
    /// Builds a key from a byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly 32 bytes.
    pub fn from_slice(bytes: &[u8]) -> Key {
        let mut k = [0u8; KEY_LEN];
        k.copy_from_slice(bytes);
        Key(k)
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Key(****)")
    }
}

/// A ChaCha20 instance with the key schedule parsed once.
///
/// The free functions below re-parse the 32 key bytes into state words on
/// every 64-byte block; for bulk callers (LUKS encrypts 8 blocks per
/// sector) this instance amortizes the key and nonce setup across the
/// whole keystream run.
#[derive(Clone)]
pub struct ChaCha20 {
    key_words: [u32; 8],
}

impl ChaCha20 {
    /// Parses `key` into state words.
    pub fn new(key: &Key) -> ChaCha20 {
        let mut key_words = [0u32; 8];
        for (i, w) in key_words.iter_mut().enumerate() {
            *w = u32::from_le_bytes([
                key.0[4 * i],
                key.0[4 * i + 1],
                key.0[4 * i + 2],
                key.0[4 * i + 3],
            ]);
        }
        ChaCha20 { key_words }
    }

    /// Assembles the RFC 8439 base state (counter word left at zero).
    fn base_state(&self, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[0] = 0x61707865;
        state[1] = 0x3320646e;
        state[2] = 0x79622d32;
        state[3] = 0x6b206574;
        state[4..12].copy_from_slice(&self.key_words);
        let n = nonce_words(nonce);
        state[13..16].copy_from_slice(&n);
        state
    }

    /// Encrypts or decrypts `data` in place (XOR keystream; symmetric).
    ///
    /// One [`keystream_block`] per 64-byte block, counters ascending from
    /// `initial_counter`; a ragged tail consumes the prefix of its block.
    ///
    /// # Counter overflow
    ///
    /// RFC 8439 leaves the behaviour past 2³² blocks (256 GiB) undefined;
    /// wrapping the 32-bit counter word would silently replay keystream
    /// from block 0. This implementation instead carries the overflow
    /// into the first nonce word — treating state words 12–13 as djb's
    /// original 64-bit block counter (word 13 offset by the caller's
    /// nonce word). Streams shorter than 2³² blocks are byte-identical to
    /// the plain RFC layout; longer streams keep drawing fresh keystream.
    /// Callers that derive one nonce per 2³²-block stream (every caller
    /// in this workspace) never observe the carry.
    pub fn xor(&self, nonce: &[u8; NONCE_LEN], initial_counter: u32, data: &mut [u8]) {
        let mut state = self.base_state(nonce);
        let nonce0 = state[13];
        for (counter, chunk) in (u64::from(initial_counter)..).zip(data.chunks_mut(64)) {
            state[12] = counter as u32;
            state[13] = nonce0.wrapping_add((counter >> 32) as u32);
            let ks = keystream_block(&state);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

/// Parses the 12-byte nonce into its three little-endian state words.
fn nonce_words(nonce: &[u8; NONCE_LEN]) -> [u32; 3] {
    let mut n = [0u32; 3];
    for (i, w) in n.iter_mut().enumerate() {
        *w = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    n
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The ChaCha20 block function: 10 double-rounds over `state` plus the
/// feed-forward add, serialized little-endian. The single shared
/// keystream core — the instance path, the one-shot block
/// function and the AEAD all call through here.
fn keystream_block(state: &[u32; 16]) -> [u8; 64] {
    let mut working = *state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Computes one 64-byte ChaCha20 block for (key, counter, nonce).
pub fn chacha20_block(key: &Key, counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut state = ChaCha20::new(key).base_state(nonce);
    state[12] = counter;
    keystream_block(&state)
}

/// Encrypts or decrypts `data` in place (XOR keystream; symmetric).
///
/// `initial_counter` is the block counter for the first 64-byte block,
/// per RFC 8439 §2.4.
pub fn chacha20_xor(key: &Key, nonce: &[u8; NONCE_LEN], initial_counter: u32, data: &mut [u8]) {
    ChaCha20::new(key).xor(nonce, initial_counter, data);
}

/// Convenience: returns an encrypted copy of `data`.
pub fn chacha20_encrypt(key: &Key, nonce: &[u8; NONCE_LEN], counter: u32, data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    chacha20_xor(key, nonce, counter, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn key_from_hexish() -> Key {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        Key(k)
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key = key_from_hexish();
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt_vector() {
        let key = key_from_hexish();
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = chacha20_encrypt(&key, &nonce, 1, plaintext);
        assert_eq!(
            hex(&ct[..64]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        );
        assert_eq!(
            hex(&ct[64..]),
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn round_trip() {
        let key = key_from_hexish();
        let nonce = [7u8; 12];
        let msg = b"attack at dawn".to_vec();
        let ct = chacha20_encrypt(&key, &nonce, 0, &msg);
        assert_ne!(ct, msg);
        let pt = chacha20_encrypt(&key, &nonce, 0, &ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn different_nonce_different_keystream() {
        let key = key_from_hexish();
        let a = chacha20_encrypt(&key, &[1u8; 12], 0, &[0u8; 64]);
        let b = chacha20_encrypt(&key, &[2u8; 12], 0, &[0u8; 64]);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_continuation_matches_streaming() {
        // Encrypting 128 bytes at counter 0 equals two 64-byte calls at
        // counters 0 and 1.
        let key = key_from_hexish();
        let nonce = [3u8; 12];
        let data = [0x5A; 128];
        let whole = chacha20_encrypt(&key, &nonce, 0, &data);
        let first = chacha20_encrypt(&key, &nonce, 0, &data[..64]);
        let second = chacha20_encrypt(&key, &nonce, 1, &data[64..]);
        assert_eq!(&whole[..64], &first[..]);
        assert_eq!(&whole[64..], &second[..]);
    }

    #[test]
    fn instance_matches_per_block_path() {
        // The multi-block instance path must produce byte-identical
        // keystream to composing chacha20_block calls.
        let key = key_from_hexish();
        let cipher = ChaCha20::new(&key);
        let nonce = [9u8; 12];
        for len in [0usize, 1, 63, 64, 65, 512, 1000] {
            let mut data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut expect = data.clone();
            for (idx, chunk) in expect.chunks_mut(64).enumerate() {
                let ks = chacha20_block(&key, 5u32.wrapping_add(idx as u32), &nonce);
                for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                    *b ^= k;
                }
            }
            cipher.xor(&nonce, 5, &mut data);
            assert_eq!(data, expect, "len={len}");
        }
    }

    #[test]
    fn wide_matches_per_block_over_random_sector_counts() {
        // Seeded random whole-sector runs with ragged tails at random
        // counters: the instance path must still match composing
        // chacha20_block calls block by block.
        let key = key_from_hexish();
        let cipher = ChaCha20::new(&key);
        let nonce = [0xa5u8; 12];
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..40 {
            let sectors = (rng() % 9) as usize;
            let ragged = (rng() % 192) as usize;
            let len = sectors * 512 + ragged;
            let counter = (rng() % 1000) as u32;
            let mut data: Vec<u8> = (0..len).map(|_| rng() as u8).collect();
            let mut expect = data.clone();
            for (idx, chunk) in expect.chunks_mut(64).enumerate() {
                let ks = chacha20_block(&key, counter.wrapping_add(idx as u32), &nonce);
                for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                    *b ^= k;
                }
            }
            cipher.xor(&nonce, counter, &mut data);
            assert_eq!(data, expect, "trial={trial} len={len} counter={counter}");
        }
    }

    /// Reference for the carry scheme: one block at effective 64-bit
    /// counter `c64`, computed through the independent single-block path
    /// by folding the counter overflow into the first nonce word.
    fn carry_block(key: &Key, nonce: &[u8; NONCE_LEN], c64: u64) -> [u8; 64] {
        let mut n = *nonce;
        let w0 = u32::from_le_bytes([n[0], n[1], n[2], n[3]]).wrapping_add((c64 >> 32) as u32);
        n[..4].copy_from_slice(&w0.to_le_bytes());
        chacha20_block(key, c64 as u32, &n)
    }

    #[test]
    fn counter_carry_matches_reference_through_every_tier() {
        // Streams of several lengths straddling the 2^32-block boundary
        // at several offsets. Every block must match the carried-counter
        // reference built from the independent single-block function.
        let key = key_from_hexish();
        let cipher = ChaCha20::new(&key);
        let nonce = [3u8; 12];
        for (back, len) in [(3u32, 1024usize), (20, 2048), (9, 832), (5, 448), (1, 128)] {
            let start = u32::MAX - back;
            let mut data = vec![0u8; len];
            let mut expect = data.clone();
            for (idx, chunk) in expect.chunks_mut(64).enumerate() {
                let ks = carry_block(&key, &nonce, u64::from(start) + idx as u64);
                for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                    *b ^= k;
                }
            }
            cipher.xor(&nonce, start, &mut data);
            assert_eq!(data, expect, "back={back} len={len}");
        }
    }

    #[test]
    fn keystream_is_not_reused_past_the_counter_wrap() {
        // Regression: the old code advanced the 32-bit counter with
        // wrapping_add, so the block after 2^32 - 1 replayed block 0's
        // keystream. Post-wrap blocks must now be fresh.
        let key = key_from_hexish();
        let cipher = ChaCha20::new(&key);
        let nonce = [7u8; 12];
        // Two blocks straddling the boundary.
        let mut two = [0u8; 128];
        cipher.xor(&nonce, u32::MAX, &mut two);
        assert_eq!(&two[..64], &chacha20_block(&key, u32::MAX, &nonce)[..]);
        assert_ne!(
            &two[64..],
            &chacha20_block(&key, 0, &nonce)[..],
            "post-wrap block replayed block 0 keystream"
        );
        // A 16-block run straddling the boundary. Old code made block 4
        // of this run (the first post-wrap block) equal block 0 of the
        // counter-0 stream.
        let mut run = [0u8; 1024];
        cipher.xor(&nonce, u32::MAX - 3, &mut run);
        let mut from_zero = [0u8; 1024];
        cipher.xor(&nonce, 0, &mut from_zero);
        assert_ne!(
            &run[4 * 64..5 * 64],
            &from_zero[..64],
            "post-wrap block replayed block 0 keystream"
        );
    }

    #[test]
    fn key_debug_never_leaks() {
        let k = key_from_hexish();
        assert_eq!(format!("{k:?}"), "Key(****)");
    }

    #[test]
    fn empty_input_is_noop() {
        let key = key_from_hexish();
        let mut empty: [u8; 0] = [];
        chacha20_xor(&key, &[0u8; 12], 0, &mut empty);
    }
}
