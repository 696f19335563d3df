//! Probabilistic primality testing and prime generation.
//!
//! Miller–Rabin with the deterministic base set for 64-bit inputs and
//! seeded random bases above that, plus small-prime trial division for
//! speed. Prime generation is deterministic given the caller's RNG, which
//! keeps TPM identities reproducible across simulation runs.
//!
//! Every candidate up to 1024 bits runs on the const-generic, stack-only
//! Montgomery kernel (`montgomery::FixedMont`) sized to its limb count:
//! no `BigUint` division or allocation per candidate or per round. It
//! draws the same random bases with the same RNG consumption as the
//! generic [`Montgomery`] path that wider candidates take, so it returns
//! the same primes.

use crate::bignum::BigUint;
use crate::montgomery::{
    fixed_width, less_than, sub_wrapping, FixedMont, Montgomery, MAX_FIXED_LIMBS,
};

/// A deterministic RNG source for prime generation; implemented by
/// `bolted_sim::Rng` in practice, duplicated here as a tiny trait so this
/// crate stays dependency-free.
pub trait RandomSource: Send {
    /// Returns 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills a buffer with random bytes.
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// A minimal xorshift-based random source for when callers do not bring
/// their own (used by tests and key generation defaults).
#[derive(Debug, Clone)]
pub struct XorShiftSource {
    state: u64,
}

impl XorShiftSource {
    /// Creates a source from a non-zero seed (zero is mapped to a fixed
    /// constant).
    pub fn new(seed: u64) -> Self {
        XorShiftSource {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }
}

impl RandomSource for XorShiftSource {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// `SMALL_PRIMES` above 2, in runs whose products stay below 2^32.
const ODD_PRIME_RUNS: [&[u64]; 12] = [
    &[3, 5, 7, 11, 13, 17, 19, 23, 29],
    &[31, 37, 41, 43, 47],
    &[53, 59, 61, 67, 71],
    &[73, 79, 83, 89, 97],
    &[101, 103, 107, 109],
    &[113, 127, 131, 137],
    &[139, 149, 151, 157],
    &[163, 167, 173, 179],
    &[181, 191, 193, 197],
    &[199, 211, 223, 227],
    &[229, 233, 239, 241],
    &[251],
];

/// Deterministic Miller–Rabin bases valid for all `n < 3.3 * 10^24`.
const DETERMINISTIC_BASES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Number of random Miller–Rabin rounds for large candidates
/// (error probability < 4^-24).
const RANDOM_ROUNDS: usize = 24;

/// Candidates up to 81 bits take the deterministic base set.
const DETERMINISTIC_MAX_BITS: usize = 81;

/// Tests `n` for primality.
pub fn is_prime(n: &BigUint, rng: &mut dyn RandomSource) -> bool {
    if n.is_zero() || n == &BigUint::one() {
        return false;
    }
    let limbs = n.to_u64_limbs(n.bits().div_ceil(64));
    if let Some(verdict) = trial_division(&limbs) {
        return verdict;
    }
    // n > 251 and odd from here on.
    probable_prime(n, &limbs, rng)
}

/// Miller–Rabin for odd `n > 251` (with `limbs` its minimal `u64`
/// limbs): the fixed-width kernel for every width up to
/// `MAX_FIXED_LIMBS`, the generic path above that.
fn probable_prime(n: &BigUint, limbs: &[u64], rng: &mut dyn RandomSource) -> bool {
    fixed_width!(
        limbs.len(),
        probable_prime_fixed(limbs, rng),
        probable_prime_generic(n, rng)
    )
}

/// Small-prime trial division over little-endian `u64` limbs: `Some`
/// verdict when it settles `n` (a small prime, or a multiple of one),
/// `None` when `n` is odd, above 251 and needs Miller–Rabin.
fn trial_division(n: &[u64]) -> Option<bool> {
    if n.len() == 1 && n[0] <= 251 {
        return Some(SMALL_PRIMES.contains(&n[0]));
    }
    if n[0] & 1 == 0 {
        return Some(false);
    }
    for run in &ODD_PRIME_RUNS {
        // One fold of `n` modulo the run's product (below 2^32), over
        // 32-bit halves from the top so every step is a u64 division;
        // the run's primes then divide the small remainder.
        let m: u64 = run.iter().product();
        let rem = n.iter().rev().fold(0, |r, &limb| {
            let r = ((r << 32) | (limb >> 32)) % m;
            ((r << 32) | (limb & 0xFFFF_FFFF)) % m
        });
        if run.iter().any(|&p| rem % p == 0) {
            return Some(false);
        }
    }
    None
}

/// Miller–Rabin on the fixed-width kernel for an `N`-limb candidate,
/// with the same bases, in the same order and drawn with the same RNG
/// consumption as [`probable_prime_generic`]. Requires odd `n > 251`.
fn probable_prime_fixed<const N: usize>(limbs: &[u64], rng: &mut dyn RandomSource) -> bool {
    let mut n = [0u64; N];
    n.copy_from_slice(limbs);
    let ctx = FixedMont::new(n);
    // n - 1 = d·2^r, split once for every base.
    let mut d = n;
    d[0] &= !1;
    let zero_limbs = d.iter().take_while(|&&l| l == 0).count();
    let r = 64 * zero_limbs + d[zero_limbs].trailing_zeros() as usize;
    shr_in_place(&mut d, r);
    // n - (R mod n): the Montgomery form of n - 1.
    let mut minus_one = n;
    sub_wrapping(&mut minus_one, ctx.one());
    let sprp = |a: &[u64; N]| sprp_fixed(&ctx, &minus_one, a, &d, r);
    let bits = 64 * N - n[N - 1].leading_zeros() as usize;
    if bits <= DETERMINISTIC_MAX_BITS {
        return DETERMINISTIC_BASES.iter().all(|&b| {
            let mut a = [0u64; N];
            a[0] = b;
            sprp(&a)
        });
    }
    // Random bases in [2, n-2]: a uniform draw below n - 3, plus 2.
    let mut bound = n;
    let mut three = [0u64; N];
    three[0] = 3;
    sub_wrapping(&mut bound, &three);
    let bound_bits = 64 * N - bound[N - 1].leading_zeros() as usize;
    (0..RANDOM_ROUNDS).all(|_| {
        let mut a = random_limbs_below(&bound, bound_bits, rng);
        add_small(&mut a, 2);
        sprp(&a)
    })
}

/// One strong-probable-prime round to base `a` (`1 < a < n - 1`), with
/// `n - 1 = d·2^r` and `minus_one` the Montgomery form of `n - 1`. Both
/// comparisons run in Montgomery form.
fn sprp_fixed<const N: usize>(
    ctx: &FixedMont<N>,
    minus_one: &[u64; N],
    a: &[u64; N],
    d: &[u64; N],
    r: usize,
) -> bool {
    let mut x = ctx.pow(&ctx.to_mont(a), d);
    if &x == ctx.one() || &x == minus_one {
        return true;
    }
    for _ in 1..r {
        x = ctx.mul(&x, &x);
        if &x == minus_one {
            return true;
        }
    }
    false
}

/// Miller–Rabin for odd `n > 251`, sharing one [`Montgomery`] context
/// across bases: the path for candidates wider than the fixed-width
/// kernel, and its reference. Bases and RNG consumption match the
/// kernel's exactly.
fn probable_prime_generic(n: &BigUint, rng: &mut dyn RandomSource) -> bool {
    let ctx = Montgomery::new(n).expect("candidate is odd and > 1");
    if n.bits() <= DETERMINISTIC_MAX_BITS {
        // Deterministic for anything that fits well under 3.3e24.
        return DETERMINISTIC_BASES
            .iter()
            .all(|&b| sprp(n, &BigUint::from_u64(b), &ctx));
    }
    // Random bases in [2, n-2].
    let n_minus_3 = n.sub(&BigUint::from_u64(3));
    (0..RANDOM_ROUNDS).all(|_| {
        let a = random_below(&n_minus_3, rng).add(&BigUint::from_u64(2));
        sprp(n, &a, &ctx)
    })
}

/// Miller–Rabin strong-probable-prime test to base `a`, using a shared
/// Montgomery context for `n` (candidates are always odd here).
/// Requires odd `n > 2` and `1 < a < n - 1`.
fn sprp(n: &BigUint, a: &BigUint, ctx: &Montgomery) -> bool {
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    // Write n-1 = d * 2^r.
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while !d.is_odd() {
        d = d.shr(1);
        r += 1;
    }
    let mut x = ctx.pow(a, &d);
    if x == one || x == n_minus_1 {
        return true;
    }
    for _ in 0..r - 1 {
        x = ctx.mul_mod(&x, &x);
        if x == n_minus_1 {
            return true;
        }
    }
    false
}

/// A uniform value below `bound` (`bound_bits` bits long), drawn with
/// exactly the RNG consumption of [`random_below`]: the same byte
/// length, top-byte mask and rejection loop.
fn random_limbs_below<const N: usize>(
    bound: &[u64; N],
    bound_bits: usize,
    rng: &mut dyn RandomSource,
) -> [u64; N] {
    let mut bytes = [0u8; 8 * MAX_FIXED_LIMBS];
    let buf = &mut bytes[..bound_bits.div_ceil(8)];
    let top_bits = bound_bits % 8;
    loop {
        rng.fill_bytes(buf);
        if top_bits != 0 {
            buf[0] &= (1u8 << top_bits) - 1;
        }
        let mut candidate = [0u64; N];
        for (i, &b) in buf.iter().rev().enumerate() {
            candidate[i / 8] |= u64::from(b) << (8 * (i % 8));
        }
        if less_than(&candidate, bound) {
            return candidate;
        }
    }
}

/// `a += v`, which must not overflow the limbs.
fn add_small(a: &mut [u64], v: u64) {
    let mut carry = v;
    for limb in a.iter_mut() {
        let (s, o) = limb.overflowing_add(carry);
        *limb = s;
        carry = u64::from(o);
        if carry == 0 {
            break;
        }
    }
}

/// `a >>= shift` for `shift < 64·len`.
fn shr_in_place(a: &mut [u64], shift: usize) {
    let (limbs, bits) = (shift / 64, shift % 64);
    let len = a.len();
    for i in 0..len {
        let lo = a.get(i + limbs).copied().unwrap_or(0);
        let hi = a.get(i + limbs + 1).copied().unwrap_or(0);
        a[i] = if bits == 0 {
            lo
        } else {
            (lo >> bits) | (hi << (64 - bits))
        };
    }
}

/// Returns a uniform value in `[0, bound)` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub fn random_below(bound: &BigUint, rng: &mut dyn RandomSource) -> BigUint {
    assert!(!bound.is_zero(), "random_below bound must be positive");
    let byte_len = bound.to_bytes_be().len();
    let top_bits = bound.bits() % 8;
    loop {
        let mut buf = vec![0u8; byte_len];
        rng.fill_bytes(&mut buf);
        if top_bits != 0 {
            buf[0] &= (1u8 << top_bits) - 1;
        }
        let candidate = BigUint::from_bytes_be(&buf);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Generates a random prime of exactly `bits` bits with its top two
/// bits set, so it lies in `[3·2^(bits−2), 2^bits)`.
///
/// Each candidate is drawn with its two top bits and its low bit forced
/// (OpenSSL's `BN_RAND_TOP_TWO` odd draw). The range's floor of
/// `1.5·2^(bits−1)` clears FIPS 186-5's `p, q ≥ √2·2^(bits−1)`, and it
/// makes the product of any two such primes at least `2.25·2^(a+b−2)`,
/// a full `a + b` bits: an RSA key's first prime pair always yields a
/// modulus of the requested length, and no prime search is discarded.
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn gen_prime(bits: usize, rng: &mut dyn RandomSource) -> BigUint {
    assert!(bits >= 8, "prime size too small");
    let mut buf = vec![0u8; bits.div_ceil(8)];
    loop {
        rng.fill_bytes(&mut buf);
        // Clear the bits above `bits`, then set bits `bits − 1` and
        // `bits − 2` and the low bit. When `bits ≡ 1 (mod 8)` the
        // second bit is the top bit of `buf[1]`.
        let top_bit = (bits - 1) % 8;
        buf[0] &= ((1u16 << (top_bit + 1)) - 1) as u8;
        buf[0] |= 1 << top_bit;
        if top_bit == 0 {
            buf[1] |= 0x80;
        } else {
            buf[0] |= 1 << (top_bit - 1);
        }
        let last = buf.len() - 1;
        buf[last] |= 1;
        let candidate = BigUint::from_bytes_be(&buf);
        if is_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShiftSource {
        XorShiftSource::new(0xB01DED)
    }

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_primes_accepted() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 251, 257, 65537, 1_000_000_007] {
            assert!(is_prime(&n(p), &mut r), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 9, 15, 255, 1001, 65535, 1_000_000_005] {
            assert!(!is_prime(&n(c), &mut r), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Classic Fermat pseudoprimes that fool weak tests.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&n(c), &mut r), "Carmichael {c}");
        }
    }

    #[test]
    fn strong_pseudoprimes_to_base_2_rejected() {
        let mut r = rng();
        for c in [2047u64, 3277, 4033, 4681, 8321] {
            assert!(!is_prime(&n(c), &mut r), "2-SPRP {c}");
        }
    }

    #[test]
    fn known_large_prime_accepted() {
        // 2^89 - 1 is a Mersenne prime (exceeds the 81-bit deterministic
        // path, exercising the random-base branch).
        let mut r = rng();
        let p = BigUint::one().shl(89).sub(&BigUint::one());
        assert!(is_prime(&p, &mut r));
        // 2^83 - 1 is composite (167 divides it).
        let c = BigUint::one().shl(83).sub(&BigUint::one());
        assert!(!is_prime(&c, &mut r));
    }

    #[test]
    fn gen_prime_has_exact_bits_and_is_prime() {
        // Every size from 8 bits, including those of the form 8k + 1,
        // where the second bit is the top bit of the second byte.
        let mut r = rng();
        for bits in 8usize..=130 {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bits(), bits, "requested {bits} bits");
            assert_eq!(p.shr(bits - 2), n(3), "top two bits of {bits}-bit prime");
            assert!(p.is_odd());
            assert!(is_prime(&p, &mut r));
        }
    }

    #[test]
    fn gen_prime_deterministic_per_seed() {
        let a = gen_prime(64, &mut XorShiftSource::new(7));
        let b = gen_prime(64, &mut XorShiftSource::new(7));
        let c = gen_prime(64, &mut XorShiftSource::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// A random odd value of exactly `bits` bits.
    fn random_odd(bits: usize, r: &mut XorShiftSource) -> BigUint {
        let mut buf = vec![0u8; bits.div_ceil(8)];
        r.fill_bytes(&mut buf);
        let top = (bits - 1) % 8;
        buf[0] &= ((1u16 << (top + 1)) - 1) as u8;
        buf[0] |= 1 << top;
        let last = buf.len() - 1;
        buf[last] |= 1;
        BigUint::from_bytes_be(&buf)
    }

    /// Runs Miller–Rabin for odd `n > 251` on the fixed-width kernel and
    /// on the generic path, from clones of one RNG: verdicts and the
    /// RNG state afterwards must match. Returns the verdict.
    fn assert_kernel_matches_generic(n: &BigUint, seed: u64) -> bool {
        let limbs = n.to_u64_limbs(n.bits().div_ceil(64));
        assert!(limbs.len() <= MAX_FIXED_LIMBS, "{} bits", n.bits());
        let mut fixed_rng = XorShiftSource::new(seed);
        let mut generic_rng = fixed_rng.clone();
        let fixed = probable_prime(n, &limbs, &mut fixed_rng);
        let generic = probable_prime_generic(n, &mut generic_rng);
        assert_eq!(fixed, generic, "verdicts differ for {n:?}");
        assert_eq!(
            fixed_rng.next_u64(),
            generic_rng.next_u64(),
            "RNG consumption differs for {n:?}"
        );
        fixed
    }

    /// A prime of exactly `bits` bits found by the generic path alone,
    /// so a broken kernel fails a comparison instead of stalling a
    /// `gen_prime` search.
    fn generic_prime(bits: usize, r: &mut XorShiftSource) -> BigUint {
        loop {
            let c = random_odd(bits, r);
            let limbs = c.to_u64_limbs(c.bits().div_ceil(64));
            if trial_division(&limbs).is_none() && probable_prime_generic(&c, r) {
                return c;
            }
        }
    }

    #[test]
    fn fixed_width_kernel_matches_generic_at_every_width() {
        let mut r = XorShiftSource::new(0xF1CED);
        for limbs in 1..=MAX_FIXED_LIMBS {
            // Top bit set (R mod n = R - n) and clear (R mod n by
            // doubling); one width-2 size takes the deterministic bases.
            let mut sizes = vec![64 * limbs, 64 * limbs - 7];
            if limbs == 2 {
                sizes.push(75);
            }
            for bits in sizes {
                let mut tested = 0;
                while tested < 6 {
                    let c = random_odd(bits, &mut r);
                    let c_limbs = c.to_u64_limbs(limbs);
                    if trial_division(&c_limbs).is_none() {
                        assert_kernel_matches_generic(&c, r.next_u64());
                        tested += 1;
                    }
                }
                // A prime runs every round; a product of two primes
                // passes trial division and must still be caught.
                let p = generic_prime(bits, &mut r);
                assert!(assert_kernel_matches_generic(&p, r.next_u64()));
                let q =
                    generic_prime(bits / 2, &mut r).mul(&generic_prime(bits - bits / 2, &mut r));
                if q.bits() == bits {
                    assert!(!assert_kernel_matches_generic(&q, r.next_u64()));
                }
            }
        }
    }

    #[test]
    fn fixed_width_kernel_matches_generic_on_pseudoprimes() {
        let carmichael = [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265];
        let strong_base_2 = [2047u64, 3277, 4033, 4681, 8321];
        for c in carmichael.into_iter().chain(strong_base_2) {
            assert!(!assert_kernel_matches_generic(&n(c), c));
        }
        let mersenne = |e: usize| BigUint::one().shl(e).sub(&BigUint::one());
        assert!(assert_kernel_matches_generic(&mersenne(89), 89));
        assert!(!assert_kernel_matches_generic(&mersenne(83), 83));
    }

    #[test]
    fn trial_division_matches_biguint_remainders() {
        let reference = |v: &BigUint| -> Option<bool> {
            for p in SMALL_PRIMES {
                let pb = n(p);
                if v == &pb {
                    return Some(true);
                }
                if v.rem(&pb).is_zero() {
                    return Some(false);
                }
            }
            None
        };
        let mut r = rng();
        let values = (2..4096u64)
            .map(n)
            .chain((0..512).map(|i| random_odd(8 + i % 300, &mut r)));
        for v in values {
            let limbs = v.to_u64_limbs(v.bits().div_ceil(64));
            assert_eq!(trial_division(&limbs), reference(&v), "{v:?}");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = n(1000);
        for _ in 0..1000 {
            assert!(random_below(&bound, &mut r) < bound);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn random_below_zero_panics() {
        random_below(&BigUint::zero(), &mut rng());
    }
}
