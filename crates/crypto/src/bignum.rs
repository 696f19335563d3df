//! Arbitrary-precision unsigned integers, from scratch.
//!
//! Just enough bignum for RSA: base-2^32 limbs, schoolbook multiply,
//! Knuth Algorithm D division, square-and-multiply modular exponentiation
//! and an extended-Euclid modular inverse. Little-endian limb order.

use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    /// Little-endian base-2^32 limbs with no trailing zeros
    /// (the canonical representation of zero is an empty vector).
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates a value from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = BigUint {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        n.normalize();
        n
    }

    /// Parses big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut chunk_val: u32 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            chunk_val |= u32::from(b) << shift;
            shift += 8;
            if shift == 32 {
                limbs.push(chunk_val);
                chunk_val = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(chunk_val);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialises to big-endian bytes with no leading zeros (zero is `[]`).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Serialises to exactly `len` big-endian bytes (left-padded).
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let off = i % 32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, rhs: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= rhs.limbs.len() {
            (&self.limbs, &rhs.limbs)
        } else {
            (&rhs.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in longer.iter().enumerate() {
            let sum = u64::from(limb) + u64::from(shorter.get(i).copied().unwrap_or(0)) + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self` (values are unsigned).
    pub fn sub(&self, rhs: &BigUint) -> BigUint {
        assert!(self >= rhs, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let diff = i64::from(self.limbs[i])
                - i64::from(rhs.limbs.get(i).copied().unwrap_or(0))
                - borrow;
            if diff < 0 {
                out.push((diff + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(diff as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Multiplication (schoolbook).
    pub fn mul(&self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = u64::from(out[i + j]) + u64::from(a) * u64::from(b) + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + rhs.limbs.len();
            while carry > 0 {
                let cur = u64::from(out[k]) + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (32 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder: returns `(self / rhs, self % rhs)`.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn divrem(&self, rhs: &BigUint) -> (BigUint, BigUint) {
        assert!(!rhs.is_zero(), "BigUint division by zero");
        match self.cmp(rhs) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        // Single-limb fast path.
        if rhs.limbs.len() == 1 {
            let d = u64::from(rhs.limbs[0]);
            let mut q = vec![0u32; self.limbs.len()];
            let mut rem = 0u64;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | u64::from(self.limbs[i]);
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from_u64(rem));
        }
        // Knuth Algorithm D. Normalise so the divisor's top limb has its
        // high bit set.
        let shift = rhs.limbs.last().expect("nonzero").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = rhs.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 digits
        let vn = &v.limbs;
        let mut q = vec![0u32; m + 1];
        let b = 1u64 << 32;
        for j in (0..=m).rev() {
            // Estimate q_hat.
            let top = (u64::from(un[j + n]) << 32) | u64::from(un[j + n - 1]);
            let mut q_hat = top / u64::from(vn[n - 1]);
            let mut r_hat = top % u64::from(vn[n - 1]);
            while q_hat >= b
                || q_hat * u64::from(vn[n - 2]) > ((r_hat << 32) | u64::from(un[j + n - 2]))
            {
                q_hat -= 1;
                r_hat += u64::from(vn[n - 1]);
                if r_hat >= b {
                    break;
                }
            }
            // Multiply and subtract: un[j..j+n+1] -= q_hat * vn.
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = q_hat * u64::from(vn[i]) + carry;
                carry = p >> 32;
                let t = i64::from(un[i + j]) - borrow - i64::from(p as u32);
                un[i + j] = t as u32; // wraps correctly mod 2^32
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = i64::from(un[j + n])
                - borrow
                - i64::from(carry as u32)
                - i64::from((carry >> 32) as u32) * (1i64 << 32);
            un[j + n] = t as u32;
            if t < 0 {
                // q_hat was one too large: add back.
                q_hat -= 1;
                let mut carry2 = 0u64;
                for i in 0..n {
                    let s = u64::from(un[i + j]) + u64::from(vn[i]) + carry2;
                    un[i + j] = s as u32;
                    carry2 = s >> 32;
                }
                un[j + n] = un[j + n].wrapping_add(carry2 as u32);
            }
            q[j] = q_hat as u32;
        }
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self mod m`.
    ///
    /// Values already below the modulus are returned directly without
    /// running the full division (the common case inside modular loops).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "BigUint division by zero");
        if self < m {
            return self.clone();
        }
        self.divrem(m).1
    }

    /// `self * rhs mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mul_mod(&self, rhs: &BigUint, m: &BigUint) -> BigUint {
        self.mul(rhs).rem(m)
    }

    /// Modular exponentiation `self^exp mod m` (square-and-multiply).
    ///
    /// The schoolbook reference, with a full division after every
    /// multiply: tests and the `hotpath` bench compare the fixed-width
    /// Montgomery kernel against it, and no production path calls it.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow modulus is zero");
        if m == &BigUint::one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem(m);
        let nbits = exp.bits();
        for i in 0..nbits {
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
            if i + 1 < nbits {
                base = base.mul_mod(&base, m);
            }
        }
        result
    }

    /// Little-endian `u64` limbs padded with zeros to exactly `k` entries.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `k` limbs.
    pub(crate) fn to_u64_limbs(&self, k: usize) -> Vec<u64> {
        assert!(self.limbs.len() <= 2 * k, "value does not fit in {k} limbs");
        let mut out = vec![0u64; k];
        for (i, &limb) in self.limbs.iter().enumerate() {
            out[i / 2] |= u64::from(limb) << (32 * (i % 2));
        }
        out
    }

    /// Builds a value from little-endian `u64` limbs.
    pub(crate) fn from_u64_limbs(limbs: &[u64]) -> BigUint {
        let mut out = Vec::with_capacity(limbs.len() * 2);
        for &l in limbs {
            out.push(l as u32);
            out.push((l >> 32) as u32);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: returns `x` with `self * x ≡ 1 (mod m)`, or `None`
    /// if `gcd(self, m) != 1`.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        // Extended Euclid with explicit signs on the Bézout coefficients.
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        // (sign, magnitude) pairs for s coefficients.
        let mut old_s = (false, BigUint::one());
        let mut s = (false, BigUint::zero());
        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q*s
            let qs = q.mul(&s.1);
            let new_s = signed_sub(old_s.clone(), (s.0, qs));
            old_s = std::mem::replace(&mut s, new_s);
        }
        if old_r != BigUint::one() {
            return None;
        }
        // Reduce old_s into [0, m).
        let (neg, mag) = old_s;
        let mag = mag.rem(m);
        if neg && !mag.is_zero() {
            Some(m.sub(&mag))
        } else {
            Some(mag)
        }
    }
}

/// Subtracts signed magnitudes: `a - b` where each is `(negative, |value|)`.
fn signed_sub(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative.
        (false, false) => {
            if a.1 >= b.1 {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        // a - (-b) = a + b.
        (false, true) => (false, a.1.add(&b.1)),
        // -a - b = -(a + b).
        (true, false) => (true, a.1.add(&b.1)),
        // -a - (-b) = b - a.
        (true, true) => {
            if b.1 >= a.1 {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0x0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:08x}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn from_u64_round_trips() {
        assert!(n(0).is_zero());
        assert_eq!(n(1), BigUint::one());
        assert_eq!(n(u64::MAX).to_bytes_be(), vec![0xFF; 8]);
    }

    #[test]
    fn byte_round_trip() {
        let bytes = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        let v = BigUint::from_bytes_be(&bytes);
        assert_eq!(v.to_bytes_be(), bytes);
        // Leading zeros are dropped.
        let v2 = BigUint::from_bytes_be(&[0, 0, 0x12, 0x34]);
        assert_eq!(v2.to_bytes_be(), vec![0x12, 0x34]);
    }

    #[test]
    fn padded_serialisation() {
        let v = n(0x1234);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_too_small_panics() {
        n(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(n(2).add(&n(3)), n(5));
        assert_eq!(n(5).sub(&n(3)), n(2));
        assert_eq!(n(5).sub(&n(5)), n(0));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = n(u64::MAX);
        let b = a.add(&BigUint::one());
        assert_eq!(b.bits(), 65);
        assert_eq!(b.sub(&BigUint::one()), a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        n(1).sub(&n(2));
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [
            (0u64, 12345u64),
            (1, 1),
            (0xFFFF_FFFF, 0xFFFF_FFFF),
            (u64::MAX, 2),
            (0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321),
        ];
        for (a, b) in cases {
            let expect = u128::from(a) * u128::from(b);
            let got = n(a).mul(&n(b));
            let mut expect_bytes = expect.to_be_bytes().to_vec();
            while expect_bytes.first() == Some(&0) {
                expect_bytes.remove(0);
            }
            assert_eq!(got.to_bytes_be(), expect_bytes, "{a} * {b}");
        }
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl(40).shr(40), n(1));
        assert_eq!(n(0b1011).shl(2), n(0b101100));
        assert_eq!(n(0b1011).shr(2), n(0b10));
        assert_eq!(n(7).shr(100), n(0));
        assert_eq!(n(1).shl(32).bits(), 33);
    }

    #[test]
    fn divrem_small() {
        let (q, r) = n(17).divrem(&n(5));
        assert_eq!((q, r), (n(3), n(2)));
        let (q, r) = n(4).divrem(&n(5));
        assert_eq!((q, r), (n(0), n(4)));
        let (q, r) = n(5).divrem(&n(5));
        assert_eq!((q, r), (n(1), n(0)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        n(1).divrem(&n(0));
    }

    #[test]
    fn divrem_multi_limb_identity() {
        // Check a*q + r == dividend over many pseudo-random multi-limb cases.
        let mut state = 0x12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..200 {
            let a_bytes: Vec<u8> = (0..20).map(|_| next() as u8).collect();
            let b_bytes: Vec<u8> = (0..9).map(|_| next() as u8).collect();
            let a = BigUint::from_bytes_be(&a_bytes);
            let mut b = BigUint::from_bytes_be(&b_bytes);
            if b.is_zero() {
                b = BigUint::one();
            }
            let (q, r) = a.divrem(&b);
            assert!(r < b, "remainder must be < divisor");
            assert_eq!(q.mul(&b).add(&r), a);
        }
    }

    #[test]
    fn divrem_knuth_addback_case() {
        // A case constructed to exercise the rare "add back" branch:
        // dividend = B^2/2, divisor = B/2 + 1 (B = 2^32), via limbs.
        let a = BigUint {
            limbs: vec![0, 0, 0x8000_0000],
        };
        let b = BigUint {
            limbs: vec![1, 0x8000_0000],
        };
        let (q, r) = a.divrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn modpow_small_numbers() {
        assert_eq!(n(4).modpow(&n(13), &n(497)), n(445));
        assert_eq!(n(2).modpow(&n(10), &n(1000)), n(24));
        assert_eq!(n(7).modpow(&n(0), &n(13)), n(1));
        assert_eq!(n(7).modpow(&n(5), &BigUint::one()), n(0));
    }

    #[test]
    fn modpow_fermat_little() {
        // a^(p-1) ≡ 1 mod p for prime p not dividing a.
        let p = n(1_000_000_007);
        for a in [2u64, 3, 10, 123456789] {
            assert_eq!(n(a).modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(31)), n(1));
        assert_eq!(n(0).gcd(&n(5)), n(5));
        assert_eq!(n(5).gcd(&n(0)), n(5));
    }

    #[test]
    fn modinv_small() {
        let inv = n(3).modinv(&n(11)).expect("3 invertible mod 11");
        assert_eq!(inv, n(4)); // 3*4 = 12 ≡ 1
        assert_eq!(n(4).modinv(&n(8)), None); // gcd 4
        let inv = n(17).modinv(&n(3120)).expect("RSA textbook example");
        assert_eq!(inv, n(2753));
    }

    #[test]
    fn modinv_verifies_for_many_values() {
        let m = n(1_000_000_007);
        for a in [2u64, 3, 999, 123456, 1_000_000_006] {
            let inv = n(a).modinv(&m).expect("prime modulus");
            assert_eq!(n(a).mul(&inv).rem(&m), BigUint::one(), "a={a}");
        }
    }

    #[test]
    fn rem_early_return_when_below_modulus() {
        let m = n(1000);
        assert_eq!(n(999).rem(&m), n(999));
        assert_eq!(BigUint::zero().rem(&m), BigUint::zero());
        assert_eq!(n(1000).rem(&m), BigUint::zero());
        assert_eq!(n(1001).rem(&m), n(1));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn rem_by_zero_panics() {
        n(5).rem(&n(0));
    }

    #[test]
    fn mul_mod_matches_mul_then_rem() {
        let m = n(97);
        for (a, b) in [(0u64, 5u64), (13, 17), (96, 96), (1 << 40, 3)] {
            assert_eq!(n(a).mul_mod(&n(b), &m), n(a).mul(&n(b)).divrem(&m).1);
        }
    }

    #[test]
    fn u64_limbs_round_trip() {
        for bytes in [&[0x12u8, 0x34, 0x56][..], &[0xFF; 20][..], &[][..]] {
            let v = BigUint::from_bytes_be(bytes);
            let k = (v.bits().div_ceil(64)).max(1);
            assert_eq!(BigUint::from_u64_limbs(&v.to_u64_limbs(k)), v);
            // Extra padding limbs must not change the value.
            assert_eq!(BigUint::from_u64_limbs(&v.to_u64_limbs(k + 3)), v);
        }
    }

    #[test]
    fn ordering() {
        assert!(n(5) > n(4));
        assert!(n(5) >= n(5));
        assert!(BigUint::from_bytes_be(&[1, 0, 0, 0, 0]) > n(u64::from(u32::MAX)));
    }

    #[test]
    fn bits_and_bit() {
        let v = n(0b101_0000);
        assert_eq!(v.bits(), 7);
        assert!(v.bit(4));
        assert!(!v.bit(5));
        assert!(v.bit(6));
        assert!(!v.bit(400));
        assert_eq!(BigUint::zero().bits(), 0);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn modinv_degenerate_inputs() {
        // 0 has no inverse anywhere.
        assert_eq!(BigUint::zero().modinv(&n(7)), None);
        // Everything is congruent mod 1; the canonical inverse is 0.
        assert_eq!(n(5).modinv(&BigUint::one()), Some(BigUint::zero()));
        // Self-inverse of 1.
        assert_eq!(BigUint::one().modinv(&n(100)), Some(BigUint::one()));
    }

    #[test]
    fn modpow_with_even_modulus() {
        // Square-and-multiply must not assume odd moduli.
        assert_eq!(n(3).modpow(&n(4), &n(16)), n(81 % 16));
        assert_eq!(n(2).modpow(&n(100), &n(1024)), BigUint::zero());
    }

    #[test]
    fn zero_base_and_zero_exponent() {
        assert_eq!(BigUint::zero().modpow(&n(5), &n(7)), BigUint::zero());
        // 0^0 == 1 by the usual modpow convention.
        assert_eq!(
            BigUint::zero().modpow(&BigUint::zero(), &n(7)),
            BigUint::one()
        );
    }

    #[test]
    fn large_shift_boundaries() {
        let v = BigUint::from_bytes_be(&[0xFF; 12]);
        assert_eq!(v.shl(0), v);
        assert_eq!(v.shr(0), v);
        assert_eq!(v.shl(32).shr(32), v);
        assert_eq!(v.shl(31).shr(31), v);
        assert_eq!(v.shl(33).shr(33), v);
    }

    #[test]
    fn gcd_is_commutative_and_scales() {
        let a = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9A]);
        let b = BigUint::from_bytes_be(&[0x0F, 0xED, 0xCB]);
        assert_eq!(a.gcd(&b), b.gcd(&a));
        let k = n(12);
        assert_eq!(a.mul(&k).gcd(&b.mul(&k)), a.gcd(&b).mul(&k));
    }

    #[test]
    fn debug_format_is_hex() {
        assert_eq!(format!("{:?}", n(0)), "BigUint(0x0)");
        assert_eq!(format!("{:?}", n(0xDEADBEEF)), "BigUint(0xdeadbeef)");
        let two_limb = BigUint::one().shl(32).add(&n(5));
        assert_eq!(format!("{two_limb:?}"), "BigUint(0x100000005)");
    }
}
