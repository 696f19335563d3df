//! RSA keypairs, PKCS#1 v1.5 signatures and encryption, from scratch.
//!
//! This backs the TPM's Endorsement Key (EK) and Attestation Identity Key
//! (AIK): quotes are RSA signatures over a PCR composite and nonce, and
//! the registrar's credential-activation challenge is RSA-encrypted to
//! the EK. Key sizes are configurable up to 2048 bits; every simulated
//! machine uses 512-bit keys (`TPM_KEY_BITS` in `bolted-firmware`) to keep
//! runs fast — the protocol logic is identical at 2048.
//!
//! Every exponentiation runs on the stack-only fixed-width Montgomery
//! kernel (`montgomery::FixedMont`), with a context built per call:
//! public-key operations over `n`, private-key operations as two CRT
//! halves over `p` and `q`.

use crate::bignum::BigUint;
use crate::montgomery::{
    fixed_modpow, fixed_width, limbs, limbs_of, sub_wrapping, FixedMont, MAX_FIXED_LIMBS,
};
use crate::prime::{gen_prime, RandomSource};
use crate::sha256::{sha256, Digest};

/// DER prefix of `DigestInfo` for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Errors from RSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsaError {
    /// Message too long for the key modulus.
    MessageTooLong,
    /// Ciphertext or signature is malformed for this key.
    Malformed,
    /// Decryption padding check failed.
    BadPadding,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            RsaError::Malformed => write!(f, "malformed RSA input"),
            RsaError::BadPadding => write!(f, "RSA padding check failed"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key `(n, e)`.
///
/// No Montgomery context is kept with it: each verification or
/// encryption builds one on the stack, which costs less than the
/// exponentiation by 65537 it serves. Its fingerprint is kept: every
/// quote is signed and checked against it, so it is hashed once, when
/// the key is built. Equality follows `(n, e)` alone.
#[derive(Debug, Clone)]
pub struct PublicKey {
    n: BigUint,
    e: BigUint,
    /// Modulus length in bytes.
    k: usize,
    /// SHA-256 over `n || e`.
    fingerprint: Digest,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &PublicKey) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for PublicKey {}

/// CRT parameters (RFC 8017 §3.2, second representation): the private
/// key's only exponent, and the only source of the per-call fixed-width
/// Montgomery contexts of [`PrivateKey::sign`] and
/// [`PrivateKey::decrypt`]. No context is cached next to them: building
/// both on the stack costs about as much as reading a cached one.
#[derive(Clone)]
struct CrtParams {
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl CrtParams {
    /// `m^d mod pq` for `m < pq`, with both primes at the wider one's
    /// limb count: a 257-bit key's 128-bit `p` is zero-padded to the
    /// three limbs of its 129-bit `q`.
    fn private_exp(&self, m: &BigUint) -> BigUint {
        let limbs = self.p.bits().max(self.q.bits()).div_ceil(64);
        fixed_width!(limbs, crt_exp_fixed(self, m))
    }
}

/// One CRT private exponentiation with primes of at most `N` limbs,
/// entirely on the stack: `m` (below `pq`, so at most `2N` limbs) enters
/// each half's Montgomery domain by multiplication alone, and Garner's
/// `h` is formed inside `p`'s.
fn crt_exp_fixed<const N: usize>(crt: &CrtParams, m: &BigUint) -> BigUint {
    let p = FixedMont::new(limbs::<N>(&crt.p));
    let q = FixedMont::new(limbs::<N>(&crt.q));
    let wide = m.to_u64_limbs(2 * N);
    let lo: [u64; N] = limbs_of(&wide[..N]);
    let hi: [u64; N] = limbs_of(&wide[N..]);
    // m1 stays in p's domain (as m1·R mod p); m2 leaves q's.
    let m1_mont = p.pow(&p.to_mont_wide(&lo, &hi), &limbs(&crt.dp));
    let m2 = q.from_mont(&q.pow(&q.to_mont_wide(&lo, &hi), &limbs(&crt.dq)));
    // h = (m1 - m2)·qinv mod p: m2 (below q, which may exceed p) enters
    // p's domain, and multiplying the difference's form by qinv leaves it.
    let h = p.mul(&p.sub(&m1_mont, &p.to_mont(&m2)), &limbs(&crt.qinv));
    // s = m2 + q·h < q + q·(p - 1) = n, so 2N limbs hold it.
    let mut s = [0u64; 2 * MAX_FIXED_LIMBS];
    mul_add_wide(q.modulus(), &h, &m2, &mut s[..2 * N]);
    BigUint::from_u64_limbs(&s[..2 * N])
}

/// `out = a·b + c` by schoolbook multiplication into `2N` limbs, which
/// always hold it: `(R - 1)^2 + (R - 1) < R^2`.
fn mul_add_wide<const N: usize>(a: &[u64; N], b: &[u64; N], c: &[u64; N], out: &mut [u64]) {
    out[..N].copy_from_slice(c);
    out[N..].fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let s = u128::from(out[i + j]) + u128::from(ai) * u128::from(bj) + carry;
            out[i + j] = s as u64;
            carry = s >> 64;
        }
        // Rows before this one reached limb i + N - 1 at most.
        out[i + N] = carry as u64;
    }
}

/// `q^{-1} mod p` for a prime `p`, by Fermat's little theorem: `(q mod
/// p)^{p−2}` on the fixed-width kernel at `p`'s limb count. `None` when
/// the result fails the check `q·qinv ≡ 1 (mod p)`, which a composite
/// `p` almost always makes it do.
fn crt_inverse(q: &BigUint, p: &BigUint) -> Option<BigUint> {
    fixed_width!(p.bits().div_ceil(64), crt_inverse_fixed(q, p))
}

/// [`crt_inverse`] for a `p` of `N` limbs. `q` may be one limb wider
/// than `p` (a 257-bit key's 129-bit `q` over its 128-bit `p`), so it
/// enters `p`'s Montgomery domain as a `2N`-limb value, which reduces it
/// modulo `p` on the way in.
fn crt_inverse_fixed<const N: usize>(q: &BigUint, p: &BigUint) -> Option<BigUint> {
    let ctx = FixedMont::new(limbs::<N>(p));
    let wide = q.to_u64_limbs(2 * N);
    let q_mont = ctx.to_mont_wide(&limbs_of(&wide[..N]), &limbs_of(&wide[N..]));
    let mut exp = *ctx.modulus();
    let mut two = [0u64; N];
    two[0] = 2;
    sub_wrapping(&mut exp, &two);
    let inv_mont = ctx.pow(&q_mont, &exp);
    (&ctx.mul(&q_mont, &inv_mont) == ctx.one())
        .then(|| BigUint::from_u64_limbs(&ctx.from_mont(&inv_mont)))
}

/// An RSA private key: its public half and its CRT parameters, which
/// replace the private exponent `d` (two half-size exponentiations run
/// ~3-4x faster than one full-size).
#[derive(Clone)]
pub struct PrivateKey {
    public: PublicKey,
    crt: CrtParams,
}

// `PrivateKey` (and therefore `KeyPair`) deliberately implements neither
// `Debug` nor `Display`: the private exponent must not be formattable,
// even redacted — see lint rule L2 and the secrets.toml manifest.

/// A keypair.
#[derive(Clone)]
pub struct KeyPair {
    /// The public half.
    pub public: PublicKey,
    /// The private half.
    pub private: PrivateKey,
}

/// Widest RSA modulus, in bits, that [`generate_keypair`] accepts (2048):
/// the widest the fixed-width kernel is instantiated for.
const MAX_KEY_BITS: usize = 64 * MAX_FIXED_LIMBS;

/// Generates an RSA keypair with a modulus of `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 128` (too small even for tests) or
/// `bits > 2048` (wider than the fixed-width kernel is built for).
pub fn generate_keypair(bits: usize, rng: &mut dyn RandomSource) -> KeyPair {
    assert!(bits >= 128, "RSA modulus too small");
    assert!(bits <= MAX_KEY_BITS, "RSA modulus too large");
    let e = BigUint::from_u64(65537);
    loop {
        let p = gen_prime(bits / 2, rng);
        let q = gen_prime(bits - bits / 2, rng);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        // Unreachable guard: `gen_prime` sets both top bits of each
        // prime, so `p·q ≥ 1.125·2^(bits−1)` always has `bits` bits.
        if n.bits() != bits {
            continue;
        }
        let one = BigUint::one();
        let phi = p.sub(&one).mul(&q.sub(&one));
        let Some(d) = e.modinv(&phi) else {
            continue;
        };
        let Some(qinv) = crt_inverse(&q, &p) else {
            continue;
        };
        let crt = CrtParams {
            dp: d.rem(&p.sub(&one)),
            dq: d.rem(&q.sub(&one)),
            p,
            q,
            qinv,
        };
        let public = PublicKey::new(n, e, bits.div_ceil(8));
        return KeyPair {
            private: PrivateKey {
                public: public.clone(),
                crt,
            },
            public,
        };
    }
}

impl PublicKey {
    /// The key `(n, e)` with a `k`-byte modulus, fingerprinted.
    fn new(n: BigUint, e: BigUint, k: usize) -> PublicKey {
        let mut data = n.to_bytes_be();
        data.extend_from_slice(&e.to_bytes_be());
        let fingerprint = sha256(&data);
        PublicKey {
            n,
            e,
            k,
            fingerprint,
        }
    }

    /// Modulus size in bytes.
    pub fn modulus_len(&self) -> usize {
        self.k
    }

    /// Public exponentiation `m^e mod n` for `m < n`.
    fn public_exp(&self, m: &BigUint) -> BigUint {
        fixed_modpow(m, &self.e, &self.n)
    }

    /// A stable fingerprint of the key (SHA-256 over `n || e`).
    pub fn fingerprint(&self) -> Digest {
        self.fingerprint
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        if signature.len() != self.k {
            return false;
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return false;
        }
        let em = self.public_exp(&s).to_bytes_be_padded(self.k);
        let expect = match emsa_pkcs1_v15(message, self.k) {
            Ok(em) => em,
            Err(_) => return false,
        };
        // Full re-encode comparison: immune to BER-laxity forgeries.
        crate::ct::ct_eq(&em, &expect)
    }

    /// Encrypts `message` with PKCS#1 v1.5 padding (type 2).
    pub fn encrypt(&self, message: &[u8], rng: &mut dyn RandomSource) -> Result<Vec<u8>, RsaError> {
        if message.len() + 11 > self.k {
            return Err(RsaError::MessageTooLong);
        }
        let mut em = Vec::with_capacity(self.k);
        em.push(0x00);
        em.push(0x02);
        // Non-zero random padding bytes.
        let ps_len = self.k - 3 - message.len();
        for _ in 0..ps_len {
            loop {
                let b = (rng.next_u64() & 0xFF) as u8;
                if b != 0 {
                    em.push(b);
                    break;
                }
            }
        }
        em.push(0x00);
        em.extend_from_slice(message);
        let m = BigUint::from_bytes_be(&em);
        Ok(self.public_exp(&m).to_bytes_be_padded(self.k))
    }
}

impl PrivateKey {
    /// The corresponding public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Private exponentiation `m^d mod n` for `m < n`: Garner's CRT on
    /// the stack-only fixed-width kernel, with no `BigUint` division and
    /// no context kept between calls. The result is the unique
    /// representative below `n`.
    fn private_exp(&self, m: &BigUint) -> BigUint {
        self.crt.private_exp(m)
    }

    /// Signs `message` with PKCS#1 v1.5 / SHA-256.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let em = emsa_pkcs1_v15(message, self.public.k)
            .expect("modulus always large enough for SHA-256 EMSA");
        let m = BigUint::from_bytes_be(&em);
        self.private_exp(&m).to_bytes_be_padded(self.public.k)
    }

    /// Decrypts a PKCS#1 v1.5 type-2 ciphertext.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        if ciphertext.len() != self.public.k {
            return Err(RsaError::Malformed);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(RsaError::Malformed);
        }
        let em = self.private_exp(&c).to_bytes_be_padded(self.public.k);
        if em.len() < 11 || em[0] != 0x00 || em[1] != 0x02 {
            return Err(RsaError::BadPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(RsaError::BadPadding)?;
        if sep < 8 {
            // PS must be at least eight bytes.
            return Err(RsaError::BadPadding);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into `k` bytes.
fn emsa_pkcs1_v15(message: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    let hash = sha256(message);
    let t_len = SHA256_DIGEST_INFO.len() + hash.as_bytes().len();
    if k < t_len + 11 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xFF);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(hash.as_bytes());
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

/// Convenience: generates a keypair from a plain `u64` seed using the
/// built-in xorshift source. Deterministic.
pub fn keypair_from_seed(bits: usize, seed: u64) -> KeyPair {
    let mut rng = crate::prime::XorShiftSource::new(seed);
    generate_keypair(bits, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{random_below, XorShiftSource};

    fn small_keypair() -> KeyPair {
        keypair_from_seed(512, 0xA11CE)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = small_keypair();
        let msg = b"pcr composite || nonce";
        let sig = kp.private.sign(msg);
        assert_eq!(sig.len(), kp.public.modulus_len());
        assert!(kp.public.verify(msg, &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = small_keypair();
        let sig = kp.private.sign(b"message A");
        assert!(!kp.public.verify(b"message B", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = small_keypair();
        let mut sig = kp.private.sign(b"message");
        sig[10] ^= 1;
        assert!(!kp.public.verify(b"message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp = small_keypair();
        let other = keypair_from_seed(512, 0xB0B);
        let sig = kp.private.sign(b"message");
        assert!(!other.public.verify(b"message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_length_sig() {
        let kp = small_keypair();
        assert!(!kp.public.verify(b"m", &[0u8; 7]));
        assert!(!kp.public.verify(b"m", &[]));
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(99);
        let msg = b"activation credential";
        let ct = kp.public.encrypt(msg, &mut rng).expect("encrypts");
        assert_eq!(ct.len(), kp.public.modulus_len());
        assert_ne!(&ct[..], &msg[..]);
        let pt = kp.private.decrypt(&ct).expect("decrypts");
        assert_eq!(pt, msg);
    }

    #[test]
    fn decrypt_rejects_tampering() {
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(99);
        let mut ct = kp.public.encrypt(b"secret", &mut rng).expect("encrypts");
        ct[20] ^= 0xFF;
        assert!(kp.private.decrypt(&ct).is_err());
    }

    #[test]
    fn encrypt_rejects_oversize_message() {
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(99);
        let big = vec![0u8; kp.public.modulus_len()];
        assert_eq!(
            kp.public.encrypt(&big, &mut rng),
            Err(RsaError::MessageTooLong)
        );
    }

    #[test]
    fn encryption_is_randomised() {
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(99);
        let a = kp.public.encrypt(b"m", &mut rng).expect("encrypts");
        let b = kp.public.encrypt(b"m", &mut rng).expect("encrypts");
        assert_ne!(a, b, "PKCS#1 v1.5 type 2 padding is randomised");
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let a = keypair_from_seed(512, 1);
        let b = keypair_from_seed(512, 1);
        assert_eq!(a.public, b.public);
        let c = keypair_from_seed(512, 2);
        assert_ne!(a.public, c.public);
    }

    #[test]
    fn fingerprint_distinguishes_keys() {
        let a = keypair_from_seed(512, 1);
        let b = keypair_from_seed(512, 2);
        assert_ne!(a.public.fingerprint(), b.public.fingerprint());
        assert_eq!(a.public.fingerprint(), a.public.fingerprint());
    }

    #[test]
    fn emsa_layout() {
        let em = emsa_pkcs1_v15(b"x", 64).expect("fits");
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert_eq!(em[em.len() - 32 - 20], 0x00);
        assert!(em[2..em.len() - 52].iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn random_below_used_in_padding_never_zero() {
        // Encrypt many times; decryption must always succeed (PS bytes all
        // non-zero by construction).
        let kp = small_keypair();
        let mut rng = XorShiftSource::new(7);
        for i in 0..20u8 {
            let ct = kp.public.encrypt(&[i], &mut rng).expect("encrypts");
            assert_eq!(kp.private.decrypt(&ct).expect("decrypts"), vec![i]);
        }
    }

    #[test]
    fn random_below_is_uniform_enough() {
        // Smoke check on the helper exposed from prime.rs via public API.
        let mut rng = XorShiftSource::new(3);
        let bound = BigUint::from_u64(7);
        let mut counts = [0u32; 7];
        for _ in 0..7000 {
            let v = random_below(&bound, &mut rng);
            counts[v.to_bytes_be().first().copied().unwrap_or(0) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 700, "bucket {i} had {c}");
        }
    }
}

#[cfg(test)]
mod crt_tests {
    use super::*;
    use crate::prime::{random_below, XorShiftSource};

    /// The schoolbook reference for `m^d mod n`: `d` recomputed from `e`,
    /// `p` and `q`, and `BigUint::modpow`, which shares no code with the
    /// fixed-width kernel.
    fn schoolbook_exp(kp: &KeyPair, m: &BigUint) -> BigUint {
        let (crt, one) = (&kp.private.crt, BigUint::one());
        let phi = crt.p.sub(&one).mul(&crt.q.sub(&one));
        let d = kp.public.e.modinv(&phi).expect("e is a unit mod phi");
        m.modpow(&d, &kp.public.n)
    }

    /// A PKCS#1 v1.5 / SHA-256 signature made by [`schoolbook_exp`].
    fn schoolbook_sign(kp: &KeyPair, msg: &[u8]) -> Vec<u8> {
        let em = emsa_pkcs1_v15(msg, kp.public.k).expect("key holds an EMSA encoding");
        schoolbook_exp(kp, &BigUint::from_bytes_be(&em)).to_bytes_be_padded(kp.public.k)
    }

    #[test]
    fn crt_and_plain_signatures_agree() {
        let kp = keypair_from_seed(512, 0xC47);
        for msg in [b"a".as_slice(), b"quote over pcrs", &[0u8; 100]] {
            assert_eq!(kp.private.sign(msg), schoolbook_sign(&kp, msg));
        }
    }

    #[test]
    fn crt_and_plain_decryption_agree() {
        let kp = keypair_from_seed(512, 0xC48);
        let mut rng = XorShiftSource::new(3);
        let ct = kp.public.encrypt(b"payload", &mut rng).expect("encrypts");
        let c = BigUint::from_bytes_be(&ct);
        assert_eq!(kp.private.private_exp(&c), schoolbook_exp(&kp, &c));
        assert_eq!(kp.private.decrypt(&ct).expect("crt"), b"payload");
    }

    /// `0, 1, 2, p, q, n - 1` and `random` values below `n`.
    fn edge_and_random_inputs(kp: &KeyPair, seed: u64, random: usize) -> Vec<BigUint> {
        let crt = &kp.private.crt;
        let n = &kp.public.n;
        let mut out = vec![
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(2),
            crt.p.clone(),
            crt.q.clone(),
            n.sub(&BigUint::one()),
        ];
        let mut rng = XorShiftSource::new(seed);
        out.extend((0..random).map(|_| random_below(n, &mut rng)));
        out
    }

    /// The CRT path must agree with the schoolbook reference on
    /// signatures and raw private exponentiation, and its signatures and
    /// decryptions must round-trip through the public key. Keys above
    /// 1024 bits compare fewer random inputs: each schoolbook
    /// exponentiation there costs tens of milliseconds in the test
    /// profile.
    fn assert_crt_matches_plain(kp: &KeyPair, seed: u64) {
        let wide = kp.public.n.bits() > 1024;
        // Keys below 496 bits cannot hold a SHA-256 EMSA encoding.
        if emsa_pkcs1_v15(b"", kp.public.k).is_ok() {
            let msgs = [b"".as_slice(), b"quote over pcrs", &[0xA5; 200]];
            for msg in &msgs[..if wide { 1 } else { 3 }] {
                let sig = kp.private.sign(msg);
                assert_eq!(sig, schoolbook_sign(kp, msg), "sign, seed {seed}");
                assert!(kp.public.verify(msg, &sig), "verify, seed {seed}");
            }
        }
        let mut rng = XorShiftSource::new(seed);
        let ct = kp.public.encrypt(b"cred", &mut rng).expect("fits");
        assert_eq!(kp.private.decrypt(&ct).expect("decrypts"), b"cred");
        for c in edge_and_random_inputs(kp, seed, if wide { 1 } else { 4 }) {
            assert_eq!(
                kp.private.private_exp(&c),
                schoolbook_exp(kp, &c),
                "{} bits, seed {seed}",
                kp.public.n.bits()
            );
        }
    }

    #[test]
    fn fixed_crt_matches_plain_at_every_prime_width() {
        for limbs in 1..=MAX_KEY_BITS / 128 {
            let kp = keypair_from_seed(128 * limbs, limbs as u64);
            assert_crt_matches_plain(&kp, limbs as u64);
        }
    }

    #[test]
    fn fixed_crt_matches_plain_when_primes_leave_top_limb_short() {
        for bits in [200, 520, 1000] {
            let kp = keypair_from_seed(bits, bits as u64);
            assert_crt_matches_plain(&kp, bits as u64);
        }
    }

    #[test]
    fn primes_of_different_widths_take_the_padded_path() {
        // 257 bits: a 128-bit (2-limb) p, zero-padded to the three limbs
        // of a 129-bit q.
        let kp = keypair_from_seed(257, 257);
        let crt = &kp.private.crt;
        assert_eq!((crt.p.bits(), crt.q.bits()), (128, 129));
        assert_crt_matches_plain(&kp, 257);
    }

    #[test]
    fn first_prime_pair_is_always_accepted() {
        for bits in [512, 1024, 2048, 520, 1000] {
            for seed in 1..=2 {
                let mut rng = XorShiftSource::new(seed);
                let mut probe = rng.clone();
                let p = gen_prime(bits / 2, &mut probe);
                let q = gen_prime(bits - bits / 2, &mut probe);
                let kp = generate_keypair(bits, &mut rng);
                let crt = &kp.private.crt;
                assert_eq!((&crt.p, &crt.q), (&p, &q), "{bits} bits, seed {seed}");
                assert_eq!(kp.public.n.bits(), bits);
                // Both primes lie in [3·2^(k−2), 2^k).
                for (prime, k) in [(&p, bits / 2), (&q, bits - bits / 2)] {
                    assert_eq!(prime.bits(), k, "{bits} bits");
                    assert_eq!(prime.shr(k - 2), BigUint::from_u64(3), "{bits} bits");
                }
            }
        }
    }

    #[test]
    fn crt_inverse_matches_extended_euclid() {
        // Seeded prime pairs at the key sizes in use, and the 257-bit
        // key's 129-bit q over its 128-bit p.
        let mut pairs: Vec<(BigUint, BigUint)> = (1..=64u64)
            .map(|seed| {
                let mut rng = XorShiftSource::new(seed);
                (gen_prime(256, &mut rng), gen_prime(256, &mut rng))
            })
            .collect();
        for (bits, seed) in [(257, 257), (1024, 1), (2048, 1)] {
            let crt = keypair_from_seed(bits, seed).private.crt;
            pairs.push((crt.p, crt.q));
        }
        for (p, q) in &pairs {
            let want = q.modinv(p).expect("distinct primes are coprime");
            assert_eq!(crt_inverse(q, p), Some(want), "{} bits", p.bits());
            if q.bits() == p.bits() {
                assert_eq!(crt_inverse(p, q), p.modinv(q), "{} bits", q.bits());
            }
        }
        // A composite modulus fails the check.
        let (p, q) = &pairs[0];
        assert_eq!(crt_inverse(&BigUint::from_u64(3), &p.mul(q)), None);
    }

    #[test]
    fn crt_signature_still_verifies() {
        let kp = keypair_from_seed(1024, 0xC49);
        let sig = kp.private.sign(b"message");
        assert!(kp.public.verify(b"message", &sig));
    }

    #[test]
    #[should_panic(expected = "RSA modulus too large")]
    fn keygen_rejects_keys_above_2048_bits() {
        keypair_from_seed(2049, 1);
    }
}

#[cfg(test)]
mod public_exp_tests {
    use super::*;
    use crate::prime::{random_below, RandomSource, XorShiftSource};

    /// A random odd value of exactly `bits` bits.
    fn random_odd(bits: usize, rng: &mut XorShiftSource) -> BigUint {
        let mut buf = vec![0u8; bits.div_ceil(8)];
        rng.fill_bytes(&mut buf);
        let top = (bits - 1) % 8;
        buf[0] &= ((1u16 << (top + 1)) - 1) as u8;
        buf[0] |= 1 << top;
        let last = buf.len() - 1;
        buf[last] |= 1;
        BigUint::from_bytes_be(&buf)
    }

    /// Public exponentiation at every modulus width the kernel covers,
    /// with the top limb full and short, against schoolbook `modpow`.
    /// Exponents of 64 bits or fewer take the square-and-multiply branch;
    /// a longer one (where the width allows) takes the window branch.
    #[test]
    fn public_exp_matches_schoolbook_at_every_width() {
        let mut rng = XorShiftSource::new(0x9B11C);
        for limbs in 1..=MAX_FIXED_LIMBS {
            for bits in [64 * limbs, 64 * limbs - 7] {
                let n = random_odd(bits, &mut rng);
                let mut exps = [1, 3, 65537, u64::MAX].map(BigUint::from_u64).to_vec();
                if limbs > 1 {
                    exps.push(random_odd(bits.min(131), &mut rng));
                }
                let bases = [
                    BigUint::zero(),
                    BigUint::one(),
                    n.sub(&BigUint::one()),
                    random_below(&n, &mut rng),
                ];
                for e in exps {
                    let key = PublicKey::new(n.clone(), e.clone(), bits.div_ceil(8));
                    for m in &bases {
                        assert_eq!(
                            key.public_exp(m),
                            m.modpow(&e, &n),
                            "{bits}-bit modulus, {}-bit exponent",
                            e.bits()
                        );
                    }
                }
            }
        }
    }
}
