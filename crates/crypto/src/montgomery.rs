//! Montgomery-form modular arithmetic for odd moduli: `FixedMont<N>`,
//! the crate's one modular-exponentiation kernel.
//!
//! `FixedMont<N>` is const-generic over the limb count and lives on the
//! stack. Every modular multiply is one fused CIOS (coarsely integrated
//! operand scanning) pass over `u64` limbs with `u128` accumulators, and
//! a context costs no `BigUint` division and no allocation, so it is
//! cheap enough to build per call. It runs every Miller–Rabin round of
//! RSA prime search, both halves of every CRT private-key operation
//! (quote signing, credential activation) and every public-key operation
//! (quote verification, credential encryption), for moduli up to
//! `MAX_FIXED_LIMBS` limbs: a 2048-bit RSA modulus, the key-size cap.
//!
//! Exponentiation uses a fixed 4-bit window (16-entry table) for long
//! exponents. For RSA-2048 private exponents that trades 15 precomputed
//! multiplies for ~3/8 of the per-bit multiplies of square-and-multiply.
//! The window size is a sweet spot: 5 bits doubles the table for <4%
//! fewer multiplies at RSA sizes, 3 bits gives up ~8%. Exponents of 64
//! bits or fewer — the public exponent 65537 above all — skip the table
//! and use plain square-and-multiply, which is cheaper below ~15 set
//! bits.

use crate::bignum::BigUint;

/// Widest modulus, in `u64` limbs, that [`FixedMont`] is instantiated
/// for: a 2048-bit RSA modulus, the cap of `generate_keypair`.
pub(crate) const MAX_FIXED_LIMBS: usize = 32;

/// Evaluates `$f::<N>($args)` with the const `N` equal to `$limbs`, for
/// every width in `1..=MAX_FIXED_LIMBS`.
///
/// # Panics
///
/// Panics on any other width: the key-size caps of `generate_keypair`
/// and `gen_prime` keep every modulus within it.
macro_rules! fixed_width {
    ($limbs:expr, $f:ident($($arg:expr),*)) => {
        match $limbs {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            9 => $f::<9>($($arg),*),
            10 => $f::<10>($($arg),*),
            11 => $f::<11>($($arg),*),
            12 => $f::<12>($($arg),*),
            13 => $f::<13>($($arg),*),
            14 => $f::<14>($($arg),*),
            15 => $f::<15>($($arg),*),
            16 => $f::<16>($($arg),*),
            17 => $f::<17>($($arg),*),
            18 => $f::<18>($($arg),*),
            19 => $f::<19>($($arg),*),
            20 => $f::<20>($($arg),*),
            21 => $f::<21>($($arg),*),
            22 => $f::<22>($($arg),*),
            23 => $f::<23>($($arg),*),
            24 => $f::<24>($($arg),*),
            25 => $f::<25>($($arg),*),
            26 => $f::<26>($($arg),*),
            27 => $f::<27>($($arg),*),
            28 => $f::<28>($($arg),*),
            29 => $f::<29>($($arg),*),
            30 => $f::<30>($($arg),*),
            31 => $f::<31>($($arg),*),
            32 => $f::<32>($($arg),*),
            limbs => unreachable!("{limbs}-limb modulus exceeds the key-size cap"),
        }
    };
}
pub(crate) use fixed_width;

/// Stack-only Montgomery arithmetic modulo an odd `n > 1` held in `N`
/// limbs (`R = 2^{64N}`), built without any `BigUint` division.
///
/// Its modulus may be an RSA prime factor or a candidate for one, so it
/// deliberately implements neither `Debug` nor `Display`.
pub(crate) struct FixedMont<const N: usize> {
    /// The modulus, little-endian.
    n: [u64; N],
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R mod n`: the Montgomery form of 1.
    one: [u64; N],
    /// `R^2 mod n`, for entering the Montgomery domain.
    r2: [u64; N],
}

impl<const N: usize> FixedMont<N> {
    /// Builds the context for odd `n > 1`, whose top limbs may be zero
    /// (a CRT prime padded to its partner's width).
    pub(crate) fn new(n: [u64; N]) -> Self {
        // Newton–Hensel lifting: each step doubles the valid low bits of
        // inv ≡ n^{-1} mod 2^64; five steps from the 2-bit seed cover 64.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let bits = bit_len(&n);
        let mut one = [0u64; N];
        if bits == 64 * N {
            // n > R/2, so R mod n = R - n: the two's-complement negation.
            sub_wrapping(&mut one, &n);
        } else {
            // Double the highest power of two below n up to R.
            one[(bits - 1) / 64] = 1 << ((bits - 1) % 64);
            for _ in bits - 1..64 * N {
                one = add_mod(&one, &one, &n);
            }
        }
        let mut ctx = FixedMont {
            n,
            n0inv: inv.wrapping_neg(),
            one,
            r2: [0; N],
        };
        // 2R mod n is the Montgomery form of 2; raising it to the power
        // 64N in the domain gives the form of 2^{64N} = R, i.e. R^2 mod n.
        let two = add_mod(&ctx.one, &ctx.one, &n);
        let mut exp = [0u64; N];
        exp[0] = 64 * N as u64;
        ctx.r2 = ctx.pow(&two, &exp);
        ctx
    }

    /// The modulus, little-endian.
    pub(crate) fn modulus(&self) -> &[u64; N] {
        &self.n
    }

    /// `R mod n`: the Montgomery form of 1.
    pub(crate) fn one(&self) -> &[u64; N] {
        &self.one
    }

    /// Fused CIOS Montgomery multiplication, `a * b * R^{-1} mod n`: the
    /// multiply-by-`a_i` and reduce-by-`m·n` passes share one sweep over
    /// `t` per limb of `a`.
    ///
    /// Needs only `b < n`; `a` may be any `N`-limb value. The running sum
    /// stays below `2n` after every outer step, because
    /// `(t + a_i·b + m·n) / 2^64 < (2n + 2·(2^64 − 1)·n) / 2^64 = 2n`, so
    /// the one conditional subtract at the end returns a value below `n`.
    /// Entering the domain from a value up to `R` relies on this.
    // Forced inline: with several callers per width, LLVM stopped
    // inlining it into `pow`'s loop on its own, and 512-bit prime search
    // measured ~7% slower than with the hint.
    #[inline(always)]
    pub(crate) fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let n = &self.n;
        let mut t = [0u64; N];
        // The running sum's limb N; the sum stays below 2n < 2R, so no
        // limb N + 1 is needed.
        let mut top = 0u64;
        for &ai in a {
            let s = u128::from(t[0]) + u128::from(ai) * u128::from(b[0]);
            let m = (s as u64).wrapping_mul(self.n0inv);
            let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[0]);
            debug_assert_eq!(s2 as u64, 0);
            let mut carry_a = s >> 64;
            let mut carry_m = s2 >> 64;
            for j in 1..N {
                let s = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry_a;
                carry_a = s >> 64;
                let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + carry_m;
                carry_m = s2 >> 64;
                t[j - 1] = s2 as u64;
            }
            let s = u128::from(top) + carry_a + carry_m;
            t[N - 1] = s as u64;
            top = (s >> 64) as u64;
        }
        // t + top·R < 2n: one conditional subtract, whose borrow
        // consumes `top`.
        if top != 0 || !less_than(&t, n) {
            sub_wrapping(&mut t, n);
        }
        t
    }

    /// Montgomery form `a·R mod n` of any `N`-limb `a` (which may exceed
    /// `n`; see [`Self::mul`]).
    pub(crate) fn to_mont(&self, a: &[u64; N]) -> [u64; N] {
        self.mul(a, &self.r2)
    }

    /// Montgomery form of the `2N`-limb value `hi·R + lo`, reduced modulo
    /// `n` with no division: `(hi·R + lo)·R = hi·R^2 + lo·R`, where
    /// `hi·R^2` is `hi` taken into the domain twice.
    pub(crate) fn to_mont_wide(&self, lo: &[u64; N], hi: &[u64; N]) -> [u64; N] {
        let hi_r2 = self.mul(&self.to_mont(hi), &self.r2);
        add_mod(&hi_r2, &self.to_mont(lo), &self.n)
    }

    /// Leaves the domain: `a·R^{-1} mod n`.
    #[allow(clippy::wrong_self_convention)]
    pub(crate) fn from_mont(&self, a: &[u64; N]) -> [u64; N] {
        let mut unit = [0u64; N];
        unit[0] = 1;
        self.mul(a, &unit)
    }

    /// `a - b mod n` for `a, b < n`.
    pub(crate) fn sub(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut out = *a;
        if sub_wrapping(&mut out, b) {
            // a < b: adding n undoes the wrap.
            add_wrapping(&mut out, &self.n);
        }
        out
    }

    /// Exponentiation in the domain: `base^exp`, with `base < n`. A zero
    /// exponent gives the form of 1.
    pub(crate) fn pow(&self, base: &[u64; N], exp: &[u64; N]) -> [u64; N] {
        let bits = bit_len(exp);
        if bits == 0 {
            return self.one;
        }
        // Short exponents (the RSA public exponent 65537 above all) don't
        // amortize the 14-multiply window table; plain left-to-right
        // square-and-multiply needs only popcount(exp) - 1 extra multiplies.
        if bits <= 64 {
            let mut acc = *base;
            for i in (0..bits - 1).rev() {
                acc = self.mul(&acc, &acc);
                if (exp[0] >> i) & 1 == 1 {
                    acc = self.mul(&acc, base);
                }
            }
            return acc;
        }
        // Fixed 4-bit window: table[d] = base^d, with table[0] the form of 1.
        let mut table = [self.one; 16];
        table[1] = *base;
        for d in 2..16 {
            table[d] = self.mul(&table[d - 1], base);
        }
        // A window never straddles limbs: 4 divides 64.
        let digit = |w: usize| ((exp[w / 16] >> (4 * (w % 16))) & 15) as usize;
        let windows = bits.div_ceil(4);
        let mut acc = table[digit(windows - 1)];
        for w in (0..windows - 1).rev() {
            for _ in 0..4 {
                acc = self.mul(&acc, &acc);
            }
            acc = self.mul(&acc, &table[digit(w)]);
        }
        acc
    }
}

/// `base^exp mod m` for odd `m > 1`, on a [`FixedMont`] built for the
/// call at `m`'s limb count. `base` and `exp` must fit that many limbs;
/// `base` may exceed `m`.
pub(crate) fn fixed_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    fixed_width!(m.bits().div_ceil(64), modpow_in(base, exp, m))
}

/// [`fixed_modpow`] at width `N`.
fn modpow_in<const N: usize>(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let ctx = FixedMont::<N>::new(limbs(m));
    let x = ctx.pow(&ctx.to_mont(&limbs(base)), &limbs(exp));
    BigUint::from_u64_limbs(&ctx.from_mont(&x))
}

/// `x` (which must fit `N` limbs) as an `N`-limb array.
pub(crate) fn limbs<const N: usize>(x: &BigUint) -> [u64; N] {
    limbs_of(&x.to_u64_limbs(N))
}

/// An `N`-limb slice as an array.
pub(crate) fn limbs_of<const N: usize>(s: &[u64]) -> [u64; N] {
    let mut out = [0u64; N];
    out.copy_from_slice(s);
    out
}

/// Bit length of a little-endian limb value (0 for zero).
pub(crate) fn bit_len(a: &[u64]) -> usize {
    a.iter()
        .rposition(|&l| l != 0)
        .map_or(0, |top| 64 * top + 64 - a[top].leading_zeros() as usize)
}

/// `a + b mod n` for `a, b < n`.
fn add_mod<const N: usize>(a: &[u64; N], b: &[u64; N], n: &[u64; N]) -> [u64; N] {
    let mut out = *a;
    let carry = add_wrapping(&mut out, b);
    if carry || !less_than(&out, n) {
        sub_wrapping(&mut out, n);
    }
    out
}

/// `a < b` over equal-length little-endian limbs.
pub(crate) fn less_than(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a -= b` modulo `2^{64·len}` over equal-length little-endian limbs;
/// returns the borrow out (`a < b`).
pub(crate) fn sub_wrapping(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, o1) = x.overflowing_sub(y);
        let (d2, o2) = d1.overflowing_sub(u64::from(borrow));
        *x = d2;
        borrow = o1 || o2;
    }
    borrow
}

/// `a += b` modulo `2^{64·len}` over equal-length little-endian limbs;
/// returns the carry out.
fn add_wrapping(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s1, o1) = x.overflowing_add(y);
        let (s2, o2) = s1.overflowing_add(u64::from(carry));
        *x = s2;
        carry = o1 || o2;
    }
    carry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{RandomSource, XorShiftSource};

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    fn random_biguint(bytes: usize, rng: &mut XorShiftSource) -> BigUint {
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        BigUint::from_bytes_be(&buf)
    }

    /// A random odd modulus of exactly `bits` bits.
    fn random_odd_modulus(bits: usize, rng: &mut XorShiftSource) -> BigUint {
        let mut buf = vec![0u8; bits.div_ceil(8)];
        rng.fill_bytes(&mut buf);
        let top = (bits - 1) % 8;
        buf[0] &= ((1u16 << (top + 1)) - 1) as u8;
        buf[0] |= 1 << top;
        let last = buf.len() - 1;
        buf[last] |= 1;
        BigUint::from_bytes_be(&buf)
    }

    #[test]
    fn pow_small_numbers_match_legacy() {
        let cases = [
            (4u64, 13u64, 497u64),
            (2, 10, 1001),
            (7, 0, 13),
            (0, 5, 7),
            (0, 0, 7),
            (12345, 678, 99991),
        ];
        for (b, e, m) in cases {
            assert_eq!(
                fixed_modpow(&n(b), &n(e), &n(m)),
                n(b).modpow(&n(e), &n(m)),
                "{b}^{e} mod {m}"
            );
        }
    }

    #[test]
    fn cross_check_random_odd_moduli() {
        let mut rng = XorShiftSource::new(0x4D07);
        for bits in [64usize, 128, 256, 521, 1024] {
            for _ in 0..8 {
                let m = random_odd_modulus(bits, &mut rng);
                // A full-width base, often above m.
                let base = random_biguint(8 * bits.div_ceil(64), &mut rng);
                let exp = random_biguint(bits / 16 + 1, &mut rng);
                assert_eq!(
                    fixed_modpow(&base, &exp, &m),
                    base.modpow(&exp, &m),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn cross_check_rsa_shaped_2048_bit_modulus() {
        // RSA-shaped: product of two random 1024-bit odd numbers (primality
        // is irrelevant for the arithmetic identity).
        let mut rng = XorShiftSource::new(0x2048);
        let p = random_odd_modulus(1024, &mut rng);
        let q = random_odd_modulus(1024, &mut rng);
        let m = p.mul(&q);
        assert!(m.is_odd());
        let e = n(65537);
        for _ in 0..3 {
            let base = random_biguint(256, &mut rng);
            assert_eq!(fixed_modpow(&base, &e, &m), base.modpow(&e, &m));
        }
        // One big random exponent to cover the dense-window path.
        let d = random_biguint(256, &mut rng);
        let base = random_biguint(256, &mut rng);
        assert_eq!(fixed_modpow(&base, &d, &m), base.modpow(&d, &m));
    }

    #[test]
    fn base_larger_than_modulus_is_reduced() {
        let m = n(1_000_003);
        let big = n(1_000_003 * 7 + 12345);
        assert_eq!(fixed_modpow(&big, &n(3), &m), n(12345).modpow(&n(3), &m));
    }

    /// `FixedMont::mul` must fully reduce whenever `b < n`, for any
    /// `N`-limb `a` (including `a >= n` and `a = R - 1`), and the 2N-limb
    /// domain entry must match a `BigUint` remainder.
    fn check_fixed_mul_fully_reduces<const N: usize>(rng: &mut XorShiftSource) {
        for bits in [64 * N, 64 * N - 9] {
            let m = random_odd_modulus(bits, rng);
            let ctx = FixedMont::<N>::new(limbs(&m));
            let r = BigUint::one().shl(64 * N);
            let r_inv = r.rem(&m).modinv(&m).expect("R is a unit mod odd n");
            let mut operands = vec![r.sub(&BigUint::one()), m.clone(), BigUint::zero()];
            operands.extend((0..6).map(|_| random_biguint(8 * N, rng)));
            for a in &operands {
                for b in [m.sub(&BigUint::one()), random_biguint(8 * N, rng).rem(&m)] {
                    let got = ctx.mul(&limbs(a), &limbs(&b));
                    let want = a.mul(&b).mul(&r_inv).rem(&m);
                    assert_eq!(BigUint::from_u64_limbs(&got), want, "{bits} bits");
                }
                let hi = random_biguint(8 * N, rng);
                let wide = ctx.from_mont(&ctx.to_mont_wide(&limbs(a), &limbs(&hi)));
                let want = hi.shl(64 * N).add(a).rem(&m);
                assert_eq!(BigUint::from_u64_limbs(&wide), want, "{bits} bits");
            }
        }
    }

    #[test]
    fn fixed_mul_fully_reduces_any_a_below_r() {
        let mut rng = XorShiftSource::new(0xF1DE);
        check_fixed_mul_fully_reduces::<1>(&mut rng);
        check_fixed_mul_fully_reduces::<2>(&mut rng);
        check_fixed_mul_fully_reduces::<4>(&mut rng);
        check_fixed_mul_fully_reduces::<5>(&mut rng);
        check_fixed_mul_fully_reduces::<16>(&mut rng);
    }

    /// A context over a modulus whose top limbs are zero (a CRT prime
    /// padded to its partner's width) must hold `R mod n` and `R^2 mod n`
    /// for the padded `R`, and exponentiate on both branches.
    fn check_zero_padded_modulus<const N: usize>(rng: &mut XorShiftSource) {
        for bits in [64 * N - 64, 64 * N - 71, 64 * N - 127] {
            let m = random_odd_modulus(bits.max(3), rng);
            let ctx = FixedMont::<N>::new(limbs(&m));
            let r = BigUint::one().shl(64 * N);
            assert_eq!(BigUint::from_u64_limbs(ctx.one()), r.rem(&m), "{bits} bits");
            assert_eq!(
                BigUint::from_u64_limbs(&ctx.r2),
                r.mul(&r).rem(&m),
                "{bits} bits"
            );
            let base = random_biguint(8 * N, rng);
            let long = random_biguint(8 * N, rng);
            for exp in [n(65537), long] {
                let got = ctx.from_mont(&ctx.pow(&ctx.to_mont(&limbs(&base)), &limbs(&exp)));
                assert_eq!(BigUint::from_u64_limbs(&got), base.modpow(&exp, &m));
            }
        }
    }

    #[test]
    fn fixed_new_takes_r_from_the_true_bit_length() {
        let mut rng = XorShiftSource::new(0x9ADD);
        check_zero_padded_modulus::<2>(&mut rng);
        check_zero_padded_modulus::<3>(&mut rng);
        check_zero_padded_modulus::<9>(&mut rng);
        check_zero_padded_modulus::<17>(&mut rng);
    }

    #[test]
    fn fermat_little_theorem_holds() {
        let p = n(1_000_000_007);
        for a in [2u64, 3, 10, 123_456_789] {
            assert_eq!(
                fixed_modpow(&n(a), &p.sub(&BigUint::one()), &p),
                BigUint::one()
            );
        }
    }
}
