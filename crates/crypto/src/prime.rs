//! Probabilistic primality testing and prime generation.
//!
//! Prime search is incremental: one random start, its residues modulo
//! the odd primes below `SIEVE_BOUND` computed once, then odd offsets
//! stepped by adding to the residues. Each candidate the sieve passes
//! runs Miller–Rabin: the deterministic base set up to 81 bits, and
//! above that seeded random bases, as many as a table of rounds per
//! prime size gives (`RANDOM_ROUNDS`). Prime generation is
//! deterministic given the caller's RNG, which keeps TPM identities
//! reproducible across simulation runs.
//!
//! The search lives on the stack: the limbs, the residues and the
//! `const` prime table. Every candidate runs on the const-generic
//! Montgomery kernel (`montgomery::FixedMont`) sized to its limb count:
//! no `BigUint` division or allocation per candidate or per round.
//! Primes are capped at 1024 bits, half the widest RSA key. The tests
//! check the kernel against a schoolbook `BigUint::modpow` Miller–Rabin
//! that draws the same random bases with the same RNG consumption, and
//! the sieve against `BigUint` remainders.

use crate::bignum::BigUint;
use crate::montgomery::{
    bit_len, fixed_width, less_than, sub_wrapping, FixedMont, MAX_FIXED_LIMBS,
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

/// The sieve covers every odd prime below this bound (308 primes).
/// Measured per 256-bit prime (release, 2-vCPU Xeon VM, ~11 µs a
/// Miller–Rabin round), with bounds of 2^8, 2^10, 2^11, 2^12, 2^14 and
/// 2^16: 28.5, 25.2, 23.9, 22.9, 21.2 and 19.9 rounds, against about 5,
/// 8, 11, 19, 60 and 210 µs of sieving. A larger table sends fewer
/// composites to Miller–Rabin, but every step of the walk updates every
/// residue. 2^11 and 2^12 tie within 2%; 2^11 is the smaller table.
const SIEVE_BOUND: usize = 1 << 11;

/// The number of odd primes below `SIEVE_BOUND`: building
/// `SIEVE_PRIMES` fails to compile if it is wrong.
const SIEVE_LEN: usize = 308;

/// The odd primes below `SIEVE_BOUND`, ascending.
const SIEVE_PRIMES: [u16; SIEVE_LEN] = odd_primes_below_bound();

const fn odd_primes_below_bound() -> [u16; SIEVE_LEN] {
    let mut out = [0u16; SIEVE_LEN];
    let (mut n, mut i) = (3, 0);
    while n < SIEVE_BOUND {
        let mut d = 3;
        while d * d <= n && !n.is_multiple_of(d) {
            d += 2;
        }
        if d * d > n {
            out[i] = n as u16;
            i += 1;
        }
        n += 2;
    }
    assert!(
        i == SIEVE_LEN,
        "SIEVE_LEN must count the odd primes below SIEVE_BOUND"
    );
    out
}

/// A candidate's residues modulo the sieve primes, kept current as the
/// candidate steps through odd offsets: each step adds 2 to every
/// residue, so no candidate after the first costs a division.
///
/// The residues are derived from a secret RSA prime (or a candidate for
/// one), so the type deliberately implements neither `Debug` nor
/// `Display`.
struct Sieve {
    residues: [u16; SIEVE_LEN],
    /// How many of `SIEVE_PRIMES`, from the smallest, are checked and
    /// kept current.
    primes: usize,
}

impl Sieve {
    /// The residues of the little-endian `n` modulo the first `primes`
    /// sieve primes. The primes go in runs whose products `m` stay below
    /// 2^32: one fold of `n` modulo `m` (over 32-bit halves from the top,
    /// so every step is a `u64` division), then each prime of the run
    /// divides the small remainder.
    fn new(n: &[u64], primes: usize) -> Sieve {
        let mut residues = [0u16; SIEVE_LEN];
        let mut start = 0;
        while start < primes {
            let (mut end, mut m) = (start, 1u64);
            while end < primes && m * u64::from(SIEVE_PRIMES[end]) < 1 << 32 {
                m *= u64::from(SIEVE_PRIMES[end]);
                end += 1;
            }
            let rem = n.iter().rev().fold(0, |r, &limb| {
                let r = ((r << 32) | (limb >> 32)) % m;
                ((r << 32) | (limb & 0xFFFF_FFFF)) % m
            });
            for (r, &p) in residues[start..end]
                .iter_mut()
                .zip(&SIEVE_PRIMES[start..end])
            {
                *r = (rem % u64::from(p)) as u16;
            }
            start = end;
        }
        Sieve { residues, primes }
    }

    /// Whether a checked sieve prime divides the candidate.
    fn has_factor(&self) -> bool {
        self.residues[..self.primes].contains(&0)
    }

    /// Moves to the next odd candidate: `n + 2`.
    fn advance(&mut self) {
        for (r, &p) in self.residues[..self.primes].iter_mut().zip(&SIEVE_PRIMES) {
            let next = *r + 2;
            *r = if next >= p { next - p } else { next };
        }
    }
}

/// How many sieve primes lie below `3·2^(bits−2)`, the floor of a
/// `bits`-bit search. No candidate can equal one of them, so any that
/// divides a candidate proves it composite; the larger ones (from 8 to
/// 11 bits) may be the prime the search returns.
fn sieve_primes_below_floor(bits: usize) -> usize {
    SIEVE_PRIMES.partition_point(|&p| u64::from(p).checked_shr(bits as u32 - 2).unwrap_or(0) < 3)
}

/// Deterministic Miller–Rabin bases valid for all `n < 3.3 * 10^24`.
const DETERMINISTIC_BASES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Candidates up to 81 bits take the deterministic base set.
const DETERMINISTIC_MAX_BITS: usize = 81;

/// Random-base Miller–Rabin rounds by prime size, widest row first, as
/// `(minimum bits, rounds)`. Sizes below the last row take
/// `SMALL_PRIME_ROUNDS`.
///
/// The rounds are sized for the error of *generating* a prime from
/// random candidates, not for testing a given number. Rabin's bound (a
/// composite passes one random-base round with probability at most 1/4)
/// is a worst case over all composites: the 24 rounds every size used to
/// run guaranteed 4^−24 = 2^−48 per candidate. For a random odd `k`-bit
/// candidate, Damgård, Landrock and Pomerance (Math. Comp. 61, 1993,
/// Theorem 2) bound the probability that one accepted after `t` rounds
/// is composite: `p(k, t) < k^{3/2}·2^t·t^{−1/2}·4^{2−√(tk)}` for
/// `3 ≤ t ≤ k/9`. Each row puts that bound at or below 2^−81 at its
/// smallest size, and it only falls as `k` grows: 2^−84.6 at
/// (256, 12), 2^−88.6 at (512, 6). Candidates come from the top half of
/// the `k`-bit range (top two bits set), which can at most double the
/// share of accepted composites, so the one bit of margin keeps every
/// generated prime at or below 2^−80. The documented guarantee thus
/// moves from a worst case of 2^−48 per candidate to an average case of
/// at most 2^−80 per generated prime, which is the quantity that matters
/// for random candidates.
///
/// The walk steps odd offsets from one random start instead of drawing
/// each candidate afresh. That is the incremental search Brandt and
/// Damgård analyse (CRYPTO '92), showing its error is bounded in the
/// same terms as for independent candidates; FIPS 186-4 C.9 also steps
/// its candidates.
///
/// 1024-bit primes (2048-bit moduli) are the one size here that FIPS
/// 186-5 Table B.1 covers. Its Miller–Rabin-only minimum there is more
/// than the 3 rounds the bound alone asks for (2^−89.6), so that row
/// runs 5, for which the bound gives 2^−120.3, below the 2^−112 the
/// table targets at that size.
const RANDOM_ROUNDS: [(usize, usize); 3] = [(1024, 5), (512, 6), (256, 12)];

/// Random-base rounds for candidates from 82 to 255 bits, which only
/// tests generate: Rabin's worst case, 4^−24 per candidate.
const SMALL_PRIME_ROUNDS: usize = 24;

/// Widest prime, in bits, that [`gen_prime`] searches for: one factor of
/// a 2048-bit key, the widest `generate_keypair` accepts.
const MAX_PRIME_BITS: usize = 1024;

/// The number of random-base rounds for a `bits`-bit candidate.
fn random_rounds(bits: usize) -> usize {
    RANDOM_ROUNDS
        .iter()
        .find(|&&(min_bits, _)| bits >= min_bits)
        .map_or(SMALL_PRIME_ROUNDS, |&(_, rounds)| rounds)
}

/// Miller–Rabin on the fixed-width kernel for an `N`-limb candidate:
/// deterministic bases up to `DETERMINISTIC_MAX_BITS`, and above that
/// [`random_rounds`] random bases drawn as `random_below(n - 3) + 2`.
/// Requires odd `n > 41`, above every deterministic base.
fn probable_prime_fixed<const N: usize>(n: &[u64; N], rng: &mut dyn RandomSource) -> bool {
    let n = *n;
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
    let bits = bit_len(&n);
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
    let bound_bits = bit_len(&bound);
    (0..random_rounds(bits)).all(|_| {
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
        let candidate = limbs_from_be(buf);
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
/// The search is incremental: it draws one odd start with its two top
/// bits forced (OpenSSL's `BN_RAND_TOP_TWO` odd draw) and walks odd
/// offsets up from it, redrawing if the walk reaches `2^bits`. The
/// range's floor of `1.5·2^(bits−1)` clears FIPS 186-5's
/// `p, q ≥ √2·2^(bits−1)`, and it makes the product of any two such
/// primes at least `2.25·2^(a+b−2)`, a full `a + b` bits: an RSA key's
/// first prime pair always yields a modulus of the requested length, and
/// no prime search is discarded.
///
/// # Panics
///
/// Panics if `bits < 8` or `bits > 1024` (a factor of a 2048-bit key,
/// the widest `generate_keypair` accepts).
pub fn gen_prime(bits: usize, rng: &mut dyn RandomSource) -> BigUint {
    assert!(bits >= 8, "prime size too small");
    assert!(bits <= MAX_PRIME_BITS, "prime size too large");
    fixed_width!(bits.div_ceil(64), prime_search(bits, rng))
}

/// [`gen_prime`] for a `bits`-bit prime held in `N` limbs.
fn prime_search<const N: usize>(bits: usize, rng: &mut dyn RandomSource) -> BigUint {
    let primes = sieve_primes_below_floor(bits);
    let mut bytes = [0u8; MAX_PRIME_BITS / 8];
    let buf = &mut bytes[..bits.div_ceil(8)];
    loop {
        rng.fill_bytes(buf);
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
        if let Some(p) = walk(&limbs_from_be::<N>(buf), bits, primes, rng) {
            return BigUint::from_u64_limbs(&p);
        }
    }
}

/// Tests `start`, `start + 2`, `start + 4`, … for odd `start < 2^bits`,
/// and returns the first candidate that no sieve prime among the first
/// `primes` divides and Miller–Rabin accepts; `None` when the next step
/// would reach `2^bits`.
fn walk<const N: usize>(
    start: &[u64; N],
    bits: usize,
    primes: usize,
    rng: &mut dyn RandomSource,
) -> Option<[u64; N]> {
    // The widest offset that stays below 2^bits is 2^bits − 1 − start:
    // the complement of `start` within `bits` bits, capped at u64::MAX.
    let mut room = start.map(|l| !l);
    room[N - 1] &= u64::MAX >> (64 * N - bits);
    let max_offset = if room[1..].iter().any(|&l| l != 0) {
        u64::MAX
    } else {
        room[0]
    };
    let mut sieve = Sieve::new(start, primes);
    let mut offset = 0;
    loop {
        if !sieve.has_factor() {
            let mut candidate = *start;
            add_small(&mut candidate, offset);
            if probable_prime_fixed(&candidate, rng) {
                return Some(candidate);
            }
        }
        if max_offset - offset < 2 {
            return None;
        }
        offset += 2;
        sieve.advance();
    }
}

/// Big-endian bytes (at most `8·N`) as `N` little-endian limbs.
fn limbs_from_be<const N: usize>(buf: &[u8]) -> [u64; N] {
    let mut limbs = [0u64; N];
    for (i, &b) in buf.iter().rev().enumerate() {
        limbs[i / 8] |= u64::from(b) << (8 * (i % 8));
    }
    limbs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montgomery::limbs_of;

    fn rng() -> XorShiftSource {
        XorShiftSource::new(0xB01DED)
    }

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// Tests a given `n` for primality on the search's own routines: a
    /// table lookup below `SIEVE_BOUND`, and above it the sieve residues
    /// of `n` against every sieve prime, then Miller–Rabin.
    fn is_prime(n: &BigUint, rng: &mut dyn RandomSource) -> bool {
        let limbs = n.to_u64_limbs(n.bits().div_ceil(64).max(1));
        if limbs.len() == 1 && limbs[0] < SIEVE_BOUND as u64 {
            return limbs[0] == 2 || SIEVE_PRIMES.contains(&(limbs[0] as u16));
        }
        if limbs[0] & 1 == 0 || Sieve::new(&limbs, SIEVE_LEN).has_factor() {
            return false;
        }
        fixed_width!(limbs.len(), probable_prime_fixed(&limbs_of(&limbs), rng))
    }

    /// Primality by trial division up to `√v`.
    fn naive_is_prime(v: u64) -> bool {
        v >= 2
            && (2..v)
                .take_while(|d| d * d <= v)
                .all(|d| !v.is_multiple_of(d))
    }

    /// Whether a sieve prime divides `limbs`.
    fn has_sieve_factor(limbs: &[u64]) -> bool {
        Sieve::new(limbs, SIEVE_LEN).has_factor()
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

    /// Miller–Rabin for odd `n > 251` on schoolbook `BigUint` arithmetic
    /// (`modpow`, `mul_mod`): the kernel's reference, with the same bases
    /// in the same order, drawn with the same RNG consumption.
    fn probable_prime_schoolbook(n: &BigUint, rng: &mut dyn RandomSource) -> bool {
        let one = BigUint::one();
        let n_minus_1 = n.sub(&one);
        // n - 1 = d·2^r.
        let mut d = n_minus_1.clone();
        let mut r = 0usize;
        while !d.is_odd() {
            d = d.shr(1);
            r += 1;
        }
        let sprp = |a: &BigUint| {
            let mut x = a.modpow(&d, n);
            if x == one || x == n_minus_1 {
                return true;
            }
            for _ in 1..r {
                x = x.mul_mod(&x, n);
                if x == n_minus_1 {
                    return true;
                }
            }
            false
        };
        if n.bits() <= DETERMINISTIC_MAX_BITS {
            return DETERMINISTIC_BASES
                .iter()
                .all(|&b| sprp(&BigUint::from_u64(b)));
        }
        // Random bases in [2, n-2].
        let n_minus_3 = n.sub(&BigUint::from_u64(3));
        (0..random_rounds(n.bits()))
            .all(|_| sprp(&random_below(&n_minus_3, rng).add(&BigUint::from_u64(2))))
    }

    /// Runs Miller–Rabin for odd `n > 251` on the fixed-width kernel and
    /// on the schoolbook reference, from clones of one RNG: verdicts and
    /// the RNG state afterwards must match. Returns the verdict.
    fn assert_kernel_matches_generic(n: &BigUint, seed: u64) -> bool {
        let limbs = n.to_u64_limbs(n.bits().div_ceil(64));
        let mut fixed_rng = XorShiftSource::new(seed);
        let mut generic_rng = fixed_rng.clone();
        let fixed = fixed_width!(
            limbs.len(),
            probable_prime_fixed(&limbs_of(&limbs), &mut fixed_rng)
        );
        let generic = probable_prime_schoolbook(n, &mut generic_rng);
        assert_eq!(fixed, generic, "verdicts differ for {n:?}");
        assert_eq!(
            fixed_rng.next_u64(),
            generic_rng.next_u64(),
            "RNG consumption differs for {n:?}"
        );
        fixed
    }

    /// A prime of exactly `bits` bits found by the schoolbook reference
    /// alone, so a broken kernel fails a comparison instead of stalling a
    /// `gen_prime` search.
    fn generic_prime(bits: usize, r: &mut XorShiftSource) -> BigUint {
        loop {
            let c = random_odd(bits, r);
            let limbs = c.to_u64_limbs(c.bits().div_ceil(64));
            if !has_sieve_factor(&limbs) && probable_prime_schoolbook(&c, r) {
                return c;
            }
        }
    }

    #[test]
    fn fixed_width_kernel_matches_generic_at_every_width() {
        let mut r = XorShiftSource::new(0xF1CED);
        for limbs in 1..=MAX_PRIME_BITS / 64 {
            // Top bit set (R mod n = R - n) and clear (R mod n by
            // doubling); one width-2 size takes the deterministic bases. A
            // schoolbook round costs ~13 ms at 1024 bits in the test
            // profile, so widths above 8 limbs check one size each, two
            // random candidates, and a full-width prime only at 16 limbs
            // (the primes of a 2048-bit key).
            let narrow = limbs <= 8;
            let mut sizes = match (narrow, limbs % 2) {
                (true, _) => vec![64 * limbs, 64 * limbs - 7],
                (false, 0) => vec![64 * limbs],
                (false, _) => vec![64 * limbs - 7],
            };
            if limbs == 2 {
                sizes.push(75);
            }
            for bits in sizes {
                let mut tested = 0;
                while tested < if narrow { 6 } else { 2 } {
                    let c = random_odd(bits, &mut r);
                    let c_limbs = c.to_u64_limbs(limbs);
                    if !has_sieve_factor(&c_limbs) {
                        assert_kernel_matches_generic(&c, r.next_u64());
                        tested += 1;
                    }
                }
                // A prime runs every round; a product of two primes
                // passes trial division and must still be caught.
                if narrow || limbs == 16 {
                    let p = generic_prime(bits, &mut r);
                    assert!(assert_kernel_matches_generic(&p, r.next_u64()));
                }
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
    fn sieve_matches_biguint_remainders() {
        // Walk odd offsets from random starts, including sizes where the
        // floor cuts the table: a candidate has a sieve factor exactly
        // when a checked table prime leaves a zero `BigUint` remainder.
        let mut r = rng();
        for bits in [8, 9, 10, 11, 12, 64, 65, 130, 256, 521, 1024] {
            let primes = sieve_primes_below_floor(bits);
            let checked: Vec<BigUint> = SIEVE_PRIMES[..primes]
                .iter()
                .map(|&p| n(p.into()))
                .collect();
            for _ in 0..2 {
                let start = random_odd(bits, &mut r);
                let mut sieve = Sieve::new(&start.to_u64_limbs(bits.div_ceil(64)), primes);
                for offset in (0..600).step_by(2) {
                    let c = start.add(&n(offset));
                    let divisible = checked.iter().any(|p| c.rem(p).is_zero());
                    assert_eq!(sieve.has_factor(), divisible, "{c:?}, {bits} bits");
                    sieve.advance();
                }
            }
        }
        // The table lookup and the sieve also settle every small value.
        for v in 0..4096u64 {
            assert_eq!(is_prime(&n(v), &mut r), naive_is_prime(v), "{v}");
        }
    }

    #[test]
    fn small_gen_prime_returns_table_primes_above_the_floor() {
        // From 8 to 11 bits the range holds table primes: the sieve must
        // skip those at or above the floor, or it would reject them.
        let mut seen = std::collections::BTreeSet::new();
        for bits in 8..=11usize {
            let floor = 3u16 << (bits - 2);
            for seed in 1..=64 {
                let p = gen_prime(bits, &mut XorShiftSource::new(seed));
                let v = u16::try_from(p.to_u64_limbs(1)[0]).expect("below 2^11");
                assert!(v >= floor && SIEVE_PRIMES.contains(&v), "{v}, {bits} bits");
                seen.insert(v);
            }
        }
        assert!(seen.contains(&193), "the smallest 8-bit prime in range");
    }

    /// A source that returns all-one words for its first `ones` draws.
    struct OnesFirst {
        ones: usize,
        inner: XorShiftSource,
    }

    impl RandomSource for OnesFirst {
        fn next_u64(&mut self) -> u64 {
            if self.ones > 0 {
                self.ones -= 1;
                return u64::MAX;
            }
            self.inner.next_u64()
        }
    }

    #[test]
    fn walk_stops_below_two_to_the_bits() {
        let mut r = rng();
        // 2^64 − 59 is the largest 64-bit prime; from 2^64 − 57 the walk
        // meets only composites before it would leave 64 bits.
        assert_eq!(
            walk(&[u64::MAX - 58], 64, SIEVE_LEN, &mut r),
            Some([u64::MAX - 58])
        );
        assert_eq!(walk(&[u64::MAX - 56], 64, SIEVE_LEN, &mut r), None);
        assert_eq!(walk(&[u64::MAX], 64, SIEVE_LEN, &mut r), None);
        assert_eq!(walk(&[u64::MAX, 1], 65, SIEVE_LEN, &mut r), None);
        assert_eq!(walk(&[255], 8, sieve_primes_below_floor(8), &mut r), None);
        // A start of 2^bits − 1 (every drawn bit set) redraws.
        for bits in [8usize, 64, 65, 100, 128] {
            let mut source = OnesFirst {
                ones: bits.div_ceil(64),
                inner: rng(),
            };
            let p = gen_prime(bits, &mut source);
            assert_eq!(p.bits(), bits);
            assert_eq!(p.shr(bits - 2), n(3), "{bits} bits");
            assert!(is_prime(&p, &mut r), "{bits} bits");
        }
    }

    #[test]
    fn rounds_table_meets_the_error_target() {
        // Damgård–Landrock–Pomerance Theorem 2, in log2: at or below
        // 2^−81 for every size each row covers, and within the
        // theorem's range 3 ≤ t ≤ k/9.
        let log2_bound = |k: usize, t: usize| {
            let (k, t) = (k as f64, t as f64);
            1.5 * k.log2() + t - 0.5 * t.log2() + 2.0 * (2.0 - (t * k).sqrt())
        };
        let mut top = MAX_PRIME_BITS;
        for &(min_bits, t) in &RANDOM_ROUNDS {
            assert!(min_bits <= top, "rows are widest first");
            for k in min_bits..=top {
                assert!(3 <= t && t <= k / 9, "({k}, {t}) outside Theorem 2");
                let b = log2_bound(k, t);
                assert!(b <= -81.0, "({k}, {t}): 2^{b:.1}");
                assert_eq!(random_rounds(k), t);
            }
            top = min_bits - 1;
        }
        assert!((log2_bound(256, 12) + 84.6).abs() < 0.05);
        assert!((log2_bound(512, 6) + 88.6).abs() < 0.05);
        assert!((log2_bound(1024, 5) + 120.3).abs() < 0.05);
        assert_eq!(random_rounds(255), SMALL_PRIME_ROUNDS);
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
    #[should_panic(expected = "prime size too large")]
    fn gen_prime_rejects_primes_above_1024_bits() {
        gen_prime(1025, &mut rng());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn random_below_zero_panics() {
        random_below(&BigUint::zero(), &mut rng());
    }
}
