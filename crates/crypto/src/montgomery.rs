//! Montgomery-form modular arithmetic for odd moduli.
//!
//! Two kernels share the fused CIOS (coarsely integrated operand
//! scanning) multiply: every modular multiply is a single pass over
//! `u64` limbs with `u128` accumulators, no division.
//!
//! - [`Montgomery`] holds runtime-width `Vec` limbs and is built once per
//!   modulus with two `BigUint` divisions (`R mod n`, `R^2 mod n`, with
//!   `R = 2^{64k}` for a `k`-limb modulus). It backs public-key
//!   operations, where [`crate::PublicKey`] caches one context per key
//!   and quote verification pays the setup once.
//! - `FixedMont<N>` is const-generic over the limb count and lives on the
//!   stack: its context costs no division and no allocation, so it is
//!   cheap enough to build per call. It runs every Miller–Rabin round of
//!   RSA prime search and both halves of every CRT private-key operation
//!   (quote signing, credential activation) for moduli up to
//!   `MAX_FIXED_LIMBS` limbs. On an e-vTPM signing is the largest host
//!   cost of continuous attestation, so this is the private-key hot path.
//!
//! Exponentiation uses a fixed 4-bit window (16-entry table) for long
//! exponents. For RSA-2048 private exponents that trades 15 precomputed
//! multiplies for ~3/8 of the per-bit multiplies of square-and-multiply.
//! The window size is a sweet spot: 5 bits doubles the table for <4%
//! fewer multiplies at RSA sizes, 3 bits gives up ~8%. Exponents of 64
//! bits or fewer — the public exponent 65537 above all — skip the table
//! in [`Montgomery::pow`] and use plain square-and-multiply, which is
//! cheaper below ~15 set bits.

use crate::bignum::BigUint;

/// Precomputed Montgomery context for a fixed odd modulus.
///
/// The context is immutable after construction and safe to share across
/// threads (it is plain limb data), which is what lets quote verification
/// fan out on a thread pool.
#[derive(Debug, Clone)]
pub struct Montgomery {
    /// Modulus as little-endian `u64` limbs, padded to `k` entries.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` in limb form, for converting into Montgomery domain.
    r2: Vec<u64>,
    /// `R mod n` in limb form: the Montgomery representation of 1.
    one: Vec<u64>,
    /// Limb count.
    k: usize,
}

impl Montgomery {
    /// Builds a context for modulus `m`. Returns `None` unless `m` is odd
    /// and greater than 1 (Montgomery reduction requires `gcd(m, 2) = 1`).
    pub fn new(m: &BigUint) -> Option<Montgomery> {
        if !m.is_odd() || m == &BigUint::one() {
            return None;
        }
        let k = m.bits().div_ceil(64);
        let n = m.to_u64_limbs(k);
        // Newton–Hensel lifting: each step doubles the valid low bits of
        // inv ≡ n^{-1} mod 2^64; five steps from the 2-bit seed cover 64.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();
        // R^2 mod n via one divrem at setup; every later reduction is
        // division-free.
        let r2 = BigUint::one().shl(2 * 64 * k).rem(m).to_u64_limbs(k);
        let one = BigUint::one().shl(64 * k).rem(m).to_u64_limbs(k);
        Some(Montgomery {
            n,
            n0inv,
            r2,
            one,
            k,
        })
    }

    /// The limb count of the modulus.
    pub fn limbs(&self) -> usize {
        self.k
    }

    /// CIOS Montgomery multiplication: returns `a * b * R^{-1} mod n`.
    ///
    /// Inputs must be `k`-limb values below `n`.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut t = vec![0u64; self.k + 2];
        let mut out = vec![0u64; self.k];
        self.mont_mul_into(a, b, &mut t, &mut out);
        out
    }

    /// Allocation-free [`Self::mont_mul`]: `t` is a `k + 2`-limb scratch
    /// buffer, the product lands in `out`. Exponentiation calls this in
    /// its inner loop so a 2048-bit `pow` does zero heap allocation past
    /// setup.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        debug_assert_eq!(out.len(), k);
        // t holds k+1 limbs of running sum plus one carry limb. The
        // multiply-by-`ai` and reduce-by-`m·n` passes are fused (finely
        // integrated operand scanning), so each outer iteration reads and
        // writes `t` once instead of twice; both u128 sums stay below
        // 2^128 because (2^64-1) + (2^64-1)^2 + (2^64-1) = 2^128 - 1.
        debug_assert!(t.len() >= k + 2);
        // Fixed-length reslices so the indexed loops compile without
        // bounds checks (the crate forbids unsafe, so this is the lever).
        let t = &mut t[..k + 2];
        let b = &b[..k];
        let n = &self.n[..k];
        // First outer iteration specialised: t is conceptually zero, so
        // it initialises every limb instead of reading + zero-filling.
        {
            let ai = a[0];
            let s = u128::from(ai) * u128::from(b[0]);
            let m = (s as u64).wrapping_mul(self.n0inv);
            let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[0]);
            debug_assert_eq!(s2 as u64, 0);
            let mut carry_a = s >> 64;
            let mut carry_m = s2 >> 64;
            for j in 1..k {
                let s = u128::from(ai) * u128::from(b[j]) + carry_a;
                carry_a = s >> 64;
                let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + carry_m;
                carry_m = s2 >> 64;
                t[j - 1] = s2 as u64;
            }
            let s = carry_a + carry_m;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
            t[k + 1] = 0;
        }
        for &ai in a[1..].iter() {
            let s = u128::from(t[0]) + u128::from(ai) * u128::from(b[0]);
            // The reduction limb that zeroes the window's low limb.
            let m = (s as u64).wrapping_mul(self.n0inv);
            let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[0]);
            debug_assert_eq!(s2 as u64, 0);
            let mut carry_a = s >> 64;
            let mut carry_m = s2 >> 64;
            for j in 1..k {
                let s = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry_a;
                carry_a = s >> 64;
                let s2 = u128::from(s as u64) + u128::from(m) * u128::from(n[j]) + carry_m;
                carry_m = s2 >> 64;
                t[j - 1] = s2 as u64;
            }
            let s = u128::from(t[k]) + carry_a + carry_m;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
            t[k + 1] = 0;
        }
        // Result is in t[0..=k] and is < 2n; one conditional subtract.
        if t[k] != 0 || !less_than(&t[..k], &self.n) {
            sub_wrapping(&mut t[..k], &self.n);
        }
        out.copy_from_slice(&t[..k]);
    }

    /// Allocation-free Montgomery squaring: `a * a * R^{-1} mod n`.
    ///
    /// Squaring computes each cross product `a[i]·a[j]` once and doubles
    /// (SOS: separate square and reduce passes), spending ~1.5k² MACs
    /// where [`Self::mont_mul_into`] spends 2k² — and squarings are ~half
    /// the multiplies of an exponentiation. `t` needs `2k + 2` limbs.
    fn mont_sqr_into(&self, a: &[u64], t: &mut [u64], out: &mut [u64]) {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(out.len(), k);
        debug_assert!(t.len() >= 2 * k);
        let t = &mut t[..2 * k];
        let a = &a[..k];
        let n = &self.n[..k];
        t.fill(0);
        // Cross products above the diagonal; position i+k is untouched
        // when row i's carry lands there, so a direct store is safe.
        for i in 0..k {
            let mut carry: u128 = 0;
            for j in (i + 1)..k {
                let s = u128::from(t[i + j]) + u128::from(a[i]) * u128::from(a[j]) + carry;
                t[i + j] = s as u64;
                carry = s >> 64;
            }
            t[i + k] = carry as u64;
        }
        // Double the cross products and add the diagonals in one pass
        // (the full square is 2·cross + diagonals and fits 2k limbs,
        // being at most n² < 2^{128k}).
        let mut high_bit = 0u64;
        let mut carry: u128 = 0;
        for i in 0..k {
            let next = t[2 * i] >> 63;
            let doubled = (t[2 * i] << 1) | high_bit;
            high_bit = next;
            let s = u128::from(doubled) + u128::from(a[i]) * u128::from(a[i]) + carry;
            t[2 * i] = s as u64;
            let next = t[2 * i + 1] >> 63;
            let doubled = (t[2 * i + 1] << 1) | high_bit;
            high_bit = next;
            let s2 = u128::from(doubled) + (s >> 64);
            t[2 * i + 1] = s2 as u64;
            carry = s2 >> 64;
        }
        debug_assert_eq!(high_bit, 0);
        debug_assert_eq!(carry, 0);
        // Montgomery reduction, one limb at a time; `extra` is the 2k-th
        // limb the deferred carries can spill into.
        let mut extra = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0inv);
            let mut carry: u128 = 0;
            for j in 0..k {
                let s = u128::from(t[i + j]) + u128::from(m) * u128::from(n[j]) + carry;
                t[i + j] = s as u64;
                carry = s >> 64;
            }
            let mut pos = i + k;
            let mut c = carry as u64;
            while c != 0 {
                if pos < 2 * k {
                    let (nv, overflow) = t[pos].overflowing_add(c);
                    t[pos] = nv;
                    c = u64::from(overflow);
                    pos += 1;
                } else {
                    extra += c;
                    c = 0;
                }
            }
        }
        // Result is t[k..2k] (+ extra·2^{64k}) and is < 2n; one
        // conditional subtract, whose borrow must consume `extra`.
        if extra != 0 || !less_than(&t[k..], &self.n) {
            let mut borrow = 0u64;
            for j in 0..k {
                let (d1, o1) = t[k + j].overflowing_sub(self.n[j]);
                let (d2, o2) = d1.overflowing_sub(borrow);
                t[k + j] = d2;
                borrow = u64::from(o1) + u64::from(o2);
            }
            debug_assert_eq!(borrow, extra);
        }
        out.copy_from_slice(&t[k..]);
    }

    /// Converts `x` into the Montgomery domain (`x * R mod n`).
    fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        // Fast path: `x` already fits k limbs and is below n — no
        // division, no BigUint round trip.
        if x.bits() <= 64 * self.k {
            let limbs = x.to_u64_limbs(self.k);
            if less_than(&limbs, &self.n) {
                return self.mont_mul(&limbs, &self.r2);
            }
        }
        let reduced = x.rem(&self.modulus());
        self.mont_mul(&reduced.to_u64_limbs(self.k), &self.r2)
    }

    /// Converts out of the Montgomery domain (`a * R^{-1} mod n`).
    ///
    /// Pure REDC — k reduction rounds, no multiplicand — so it costs
    /// half a [`Self::mont_mul`].
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, a: &[u64]) -> BigUint {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        let n = &self.n[..k];
        let mut t = vec![0u64; k + 2];
        t[..k].copy_from_slice(a);
        for _ in 0..k {
            let m = t[0].wrapping_mul(self.n0inv);
            let s = u128::from(t[0]) + u128::from(m) * u128::from(n[0]);
            debug_assert_eq!(s as u64, 0);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = u128::from(t[k]) + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + (s >> 64) as u64;
            t[k + 1] = 0;
        }
        if t[k] != 0 || !less_than(&t[..k], &self.n) {
            sub_wrapping(&mut t[..k], &self.n);
        }
        BigUint::from_u64_limbs(&t[..k])
    }

    /// The modulus as a `BigUint`.
    pub fn modulus(&self) -> BigUint {
        BigUint::from_u64_limbs(&self.n)
    }

    /// Fixed 4-bit-window exponentiation: `base^exp mod n`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus());
        }
        let base_m = self.to_mont(base);
        let nbits = exp.bits();
        // Ping-pong buffers: every multiply below writes `tmp` and swaps,
        // so the whole exponentiation allocates nothing past this point.
        let mut scratch = vec![0u64; 2 * self.k + 2];
        let mut tmp = vec![0u64; self.k];
        // Short exponents (the RSA public exponent 65537 above all) don't
        // amortize the 14-multiply window table; plain left-to-right
        // square-and-multiply needs only popcount(exp)-1 extra multiplies.
        if nbits <= 64 {
            let mut acc = base_m.clone();
            for i in (0..nbits - 1).rev() {
                self.mont_sqr_into(&acc, &mut scratch, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
                if exp.bit(i) {
                    self.mont_mul_into(&acc, &base_m, &mut scratch, &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            return self.from_mont(&acc);
        }
        // table[d] = base^d in Montgomery form; table[0] is 1 (i.e. R mod n),
        // so the window multiply below is unconditional.
        let mut table = Vec::with_capacity(16);
        table.push(self.one.clone());
        table.push(base_m.clone());
        for d in 2..16 {
            table.push(self.mont_mul(&table[d - 1], &base_m));
        }
        let windows = nbits.div_ceil(4);
        let mut acc: Option<Vec<u64>> = None;
        for w in (0..windows).rev() {
            let mut digit = 0usize;
            for b in 0..4 {
                let i = w * 4 + b;
                if i < nbits && exp.bit(i) {
                    digit |= 1 << b;
                }
            }
            acc = Some(match acc {
                None => table[digit].clone(),
                Some(mut a) => {
                    for _ in 0..4 {
                        self.mont_sqr_into(&a, &mut scratch, &mut tmp);
                        std::mem::swap(&mut a, &mut tmp);
                    }
                    self.mont_mul_into(&a, &table[digit], &mut scratch, &mut tmp);
                    std::mem::swap(&mut a, &mut tmp);
                    a
                }
            });
        }
        self.from_mont(&acc.expect("nonzero exponent has at least one window"))
    }

    /// Montgomery-accelerated modular multiply: `a * b mod n`.
    ///
    /// Worth it only when the context already exists — the two domain
    /// conversions cost two extra `mont_mul`s.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        // (aR)(bR)R^{-1} = abR; one more reduction strips the final R.
        let prod = self.mont_mul(&am, &bm);
        self.from_mont(&prod)
    }
}

/// Widest modulus, in `u64` limbs, that [`FixedMont`] is instantiated
/// for: 2048-bit RSA keys have 1024-bit primes. Wider moduli take the
/// generic [`Montgomery`] path.
pub(crate) const MAX_FIXED_LIMBS: usize = 16;

/// Evaluates `$f::<N>($args)` with the const `N` equal to `$limbs`, for
/// every width in `1..=MAX_FIXED_LIMBS`, and `$wider` for any other.
macro_rules! fixed_width {
    ($limbs:expr, $f:ident($($arg:expr),*), $wider:expr) => {
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
            _ => $wider,
        }
    };
}
pub(crate) use fixed_width;

/// Stack-only Montgomery arithmetic modulo an odd `n > 1` of exactly `N`
/// limbs (`R = 2^{64N}`), built without any `BigUint` division.
///
/// Its modulus is an RSA prime factor or a candidate for one, so it
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
    /// Builds the context for odd `n > 1` whose top limb is non-zero.
    pub(crate) fn new(n: [u64; N]) -> Self {
        // Newton–Hensel lifting, as in `Montgomery::new`.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let one = if n[N - 1] >> 63 == 1 {
            // n > R/2, so R mod n = R - n: the two's-complement negation.
            let mut r = [0u64; N];
            sub_wrapping(&mut r, &n);
            r
        } else {
            // Double the highest power of two below n up to R.
            let top = 64 * N - n[N - 1].leading_zeros() as usize - 1;
            let mut r = [0u64; N];
            r[top / 64] = 1 << (top % 64);
            for _ in top..64 * N {
                r = add_mod(&r, &r, &n);
            }
            r
        };
        let mut ctx = FixedMont {
            n,
            n0inv: inv.wrapping_neg(),
            one,
            r2: [0; N],
        };
        // 2R mod n is the Montgomery form of 2; raising it to the power
        // 64N in the domain gives the form of 2^{64N} = R, i.e. R^2 mod n.
        let two = add_mod(&ctx.one, &ctx.one, &n);
        let exp = 64 * N;
        let mut acc = two;
        for i in (0..exp.ilog2()).rev() {
            acc = ctx.mul(&acc, &acc);
            if (exp >> i) & 1 == 1 {
                acc = ctx.mul(&acc, &two);
            }
        }
        ctx.r2 = acc;
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
    /// loop of `Montgomery::mont_mul_into` over fixed-size arrays.
    ///
    /// Needs only `b < n`; `a` may be any `N`-limb value. The running sum
    /// stays below `2n` after every outer step, because
    /// `(t + a_i·b + m·n) / 2^64 < (2n + 2·(2^64 − 1)·n) / 2^64 = 2n`, so
    /// the one conditional subtract at the end returns a value below `n`.
    /// Entering the domain from a value up to `R` relies on this.
    // Forced inline: with Miller–Rabin and CRT both calling it, LLVM
    // stopped inlining it into `pow`'s loop on its own, and 512-bit
    // prime search measured ~7% slower than with the hint.
    #[inline(always)]
    pub(crate) fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let n = &self.n;
        let mut t = [0u64; N];
        // The running sum's limb N; limb N + 1 of the slice version is
        // always zero between iterations, so it needs no storage here.
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

    /// Fixed 4-bit-window exponentiation in the domain: `base^exp`, with
    /// `base < n`. A zero exponent gives the form of 1.
    pub(crate) fn pow(&self, base: &[u64; N], exp: &[u64; N]) -> [u64; N] {
        let Some(top_limb) = exp.iter().rposition(|&l| l != 0) else {
            return self.one;
        };
        let mut table = [self.one; 16];
        table[1] = *base;
        for d in 2..16 {
            table[d] = self.mul(&table[d - 1], base);
        }
        let bits = 64 * top_limb + 64 - exp[top_limb].leading_zeros() as usize;
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
    fn rejects_even_and_unit_moduli() {
        assert!(Montgomery::new(&n(10)).is_none());
        assert!(Montgomery::new(&BigUint::one()).is_none());
        assert!(Montgomery::new(&n(3)).is_some());
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
            let ctx = Montgomery::new(&n(m)).expect("odd modulus");
            assert_eq!(
                ctx.pow(&n(b), &n(e)),
                n(b).modpow(&n(e), &n(m)),
                "{b}^{e} mod {m}"
            );
        }
    }

    #[test]
    fn modpow_montgomery_falls_back_for_even_moduli() {
        assert_eq!(n(3).modpow_montgomery(&n(4), &n(16)), n(81 % 16));
        assert_eq!(n(7).modpow_montgomery(&n(5), &BigUint::one()), n(0));
    }

    #[test]
    fn cross_check_random_odd_moduli() {
        let mut rng = XorShiftSource::new(0x4D07);
        for bits in [64usize, 128, 256, 521, 1024] {
            for _ in 0..8 {
                let m = random_odd_modulus(bits, &mut rng);
                let base = random_biguint(bits / 8 + 3, &mut rng);
                let exp = random_biguint(bits / 16 + 1, &mut rng);
                assert_eq!(
                    base.modpow_montgomery(&exp, &m),
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
            assert_eq!(base.modpow_montgomery(&e, &m), base.modpow(&e, &m));
        }
        // One big random exponent to cover the dense-window path.
        let d = random_biguint(256, &mut rng);
        let base = random_biguint(256, &mut rng);
        assert_eq!(base.modpow_montgomery(&d, &m), base.modpow(&d, &m));
    }

    #[test]
    fn mul_mod_matches_legacy() {
        let mut rng = XorShiftSource::new(0x3141);
        let m = random_odd_modulus(192, &mut rng);
        let ctx = Montgomery::new(&m).unwrap();
        for _ in 0..32 {
            let a = random_biguint(30, &mut rng);
            let b = random_biguint(30, &mut rng);
            assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
        }
    }

    #[test]
    fn base_larger_than_modulus_is_reduced() {
        let m = n(1_000_003);
        let ctx = Montgomery::new(&m).unwrap();
        let big = n(1_000_003 * 7 + 12345);
        assert_eq!(ctx.pow(&big, &n(3)), n(12345).modpow(&n(3), &m));
    }

    /// `FixedMont::mul` must fully reduce whenever `b < n`, for any
    /// `N`-limb `a` (including `a >= n` and `a = R - 1`), and the 2N-limb
    /// domain entry must match a `BigUint` remainder.
    fn check_fixed_mul_fully_reduces<const N: usize>(rng: &mut XorShiftSource) {
        for bits in [64 * N, 64 * N - 9] {
            let m = random_odd_modulus(bits, rng);
            let ctx = FixedMont::<N>::new(m.to_u64_limbs(N).try_into().unwrap());
            let r = BigUint::one().shl(64 * N);
            let r_inv = r.rem(&m).modinv(&m).expect("R is a unit mod odd n");
            let limbs = |x: &BigUint| -> [u64; N] { x.to_u64_limbs(N).try_into().unwrap() };
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

    #[test]
    fn fermat_little_theorem_holds() {
        let p = n(1_000_000_007);
        let ctx = Montgomery::new(&p).unwrap();
        for a in [2u64, 3, 10, 123_456_789] {
            assert_eq!(ctx.pow(&n(a), &p.sub(&BigUint::one())), BigUint::one());
        }
    }
}
