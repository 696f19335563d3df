//! Dependency-free micro-benchmarks for the attestation hot path.
//!
//! Measures the optimised kernels — modular exponentiation,
//! RSA-verify-shaped modpow, SHA-256 compression, multi-buffer SHA-256,
//! LUKS sector encryption, RSA key generation and RSA CRT signing — each
//! against an in-repo "before" reference (the legacy `BigUint::modpow`,
//! a rolled SHA-256 compression loop, single-stream hashing, the
//! single-stream ChaCha20 sector path, the generic-`Montgomery`
//! Miller–Rabin, the generic-`Montgomery` CRT exponentiation), so the
//! speedup is recorded next to the code that earned it. Plain
//! `std::time::Instant`, JSON-lines output, no external crates: it runs
//! in the offline build where criterion cannot.

use std::time::Instant;

use bolted_crypto::chacha20::{chacha20_block, Key, NONCE_LEN};
use bolted_crypto::prime::{gen_prime, random_below};
use bolted_crypto::{
    keypair_from_seed, sha256_many, BigUint, Montgomery, RandomSource, SectorCipher,
    XorShiftSource, SECTOR_SIZE,
};

/// How much wall clock to spend: `Full` for recorded figures, `Quick`
/// for `cargo test`, `Smoke` for the pre-commit verify gate (seconds,
/// sanity only — ratios still hold but with wide error bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Recorded-figure precision (the numbers in `BENCH_hotpath.json`).
    Full,
    /// Fits inside `cargo test`.
    Quick,
    /// Fastest possible end-to-end pass for the verify gate.
    Smoke,
}

impl Effort {
    fn pick<T>(self, full: T, quick: T, smoke: T) -> T {
        match self {
            Effort::Full => full,
            Effort::Quick => quick,
            Effort::Smoke => smoke,
        }
    }
}

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Record {
    /// Benchmark name, e.g. `rsa_verify_2048`.
    pub bench: String,
    /// Variant, baseline first: `legacy`/`montgomery`, `rolled`/`unrolled`, …
    pub variant: String,
    /// Iterations timed (after one warm-up iteration).
    pub iters: u32,
    /// Mean wall-clock nanoseconds per operation.
    pub ns_per_op: f64,
    /// Bytes processed per operation, when throughput is meaningful.
    pub bytes_per_op: Option<u64>,
}

impl Record {
    /// Throughput in MiB/s, when `bytes_per_op` is known.
    pub fn mib_per_s(&self) -> Option<f64> {
        self.bytes_per_op
            .map(|b| b as f64 / (1 << 20) as f64 / (self.ns_per_op * 1e-9))
    }

    /// The record as one JSON object (hand-rolled; no serde offline).
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"bench\":\"{}\",\"variant\":\"{}\",\"iters\":{},\"ns_per_op\":{:.1}",
            self.bench, self.variant, self.iters, self.ns_per_op
        );
        if let Some(t) = self.mib_per_s() {
            s.push_str(&format!(",\"mib_per_s\":{t:.1}"));
        }
        s.push('}');
        s
    }
}

/// Baseline-over-optimised ratio for `bench`: how many times faster the
/// second-listed variant is than the first. `None` unless exactly the
/// expected two variants were recorded.
pub fn speedup(records: &[Record], bench: &str) -> Option<f64> {
    let mut pair = records.iter().filter(|r| r.bench == bench);
    let baseline = pair.next()?;
    let optimised = pair.next()?;
    Some(baseline.ns_per_op / optimised.ns_per_op)
}

/// All records as JSON lines, with one trailing summary line per bench.
pub fn to_json_lines(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.json());
        out.push('\n');
    }
    let mut seen = Vec::new();
    for r in records {
        if !seen.contains(&r.bench) {
            seen.push(r.bench.clone());
        }
    }
    for bench in seen {
        if let Some(s) = speedup(records, &bench) {
            out.push_str(&format!("{{\"bench\":\"{bench}\",\"speedup\":{s:.2}}}\n"));
        }
    }
    out
}

/// Times a baseline/optimised pair in interleaved rounds: each round
/// runs a batch of `op_a` then a batch of `op_b`, so slow drift in
/// machine load lands on both variants and cancels in their ratio.
/// Returns mean nanoseconds per op as `(a, b)` after one warm-up each.
fn time_pair<A: FnMut(), B: FnMut()>(
    rounds: u32,
    iters_a: u32,
    iters_b: u32,
    mut op_a: A,
    mut op_b: B,
) -> (f64, f64) {
    op_a(); // warm-up: page in code, fill allocator caches
    op_b();
    let (mut ns_a, mut ns_b) = (0u128, 0u128);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters_a {
            op_a();
        }
        ns_a += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        for _ in 0..iters_b {
            op_b();
        }
        ns_b += t0.elapsed().as_nanos();
    }
    (
        ns_a as f64 / f64::from(rounds * iters_a),
        ns_b as f64 / f64::from(rounds * iters_b),
    )
}

/// Builds the two [`Record`]s of one benchmark from a paired measurement.
#[allow(clippy::too_many_arguments)]
fn record_pair(
    records: &mut Vec<Record>,
    bench: &str,
    variants: (&str, &str),
    iters: (u32, u32),
    ns: (f64, f64),
    bytes_per_op: Option<u64>,
) {
    records.push(Record {
        bench: bench.into(),
        variant: variants.0.into(),
        iters: iters.0,
        ns_per_op: ns.0,
        bytes_per_op,
    });
    records.push(Record {
        bench: bench.into(),
        variant: variants.1.into(),
        iters: iters.1,
        ns_per_op: ns.1,
        bytes_per_op,
    });
}

fn random_biguint(bytes: usize, rng: &mut XorShiftSource) -> BigUint {
    let mut buf = vec![0u8; bytes];
    rng.fill_bytes(&mut buf);
    BigUint::from_bytes_be(&buf)
}

/// An RSA-shaped 2048-bit modulus: the product of two random odd
/// 1024-bit numbers (primality is irrelevant for arithmetic cost).
fn rsa_shaped_modulus(rng: &mut XorShiftSource) -> BigUint {
    let odd_1024 = |rng: &mut XorShiftSource| {
        let mut buf = vec![0u8; 128];
        rng.fill_bytes(&mut buf);
        buf[0] |= 0x80;
        buf[127] |= 1;
        BigUint::from_bytes_be(&buf)
    };
    odd_1024(rng).mul(&odd_1024(rng))
}

// ---------------------------------------------------------------------
// "Before" references, kept here so the comparison survives in-repo.
// ---------------------------------------------------------------------

/// The pre-unroll SHA-256: same schedule, rolled 64-iteration
/// compression loop. Cross-checked against the real implementation at
/// the start of every run.
fn sha256_rolled(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64) * 8;
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let (mut a, mut b, mut c, mut d) = (h[0], h[1], h[2], h[3]);
        let (mut e, mut f, mut g, mut hh) = (h[4], h[5], h[6], h[7]);
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The single-stream LUKS keystream path (the data plane before the
/// wide rework), copied here as the sector baseline: every 64-byte
/// block of a sector gets its own full scalar 20-round ChaCha20 core —
/// correct and allocation-free, but strictly serial. The 20 rounds
/// dominate; state setup per block is noise.
fn sector_xor_streamed(key: &Key, nonce: &[u8; NONCE_LEN], buf: &mut [u8]) {
    for (idx, chunk) in buf.chunks_mut(64).enumerate() {
        let ks = chacha20_block(key, idx as u32, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// The prime search before the fixed-width Miller–Rabin kernel, copied
/// here as the keygen baseline: `BigUint` trial division, then a
/// generic [`Montgomery`] context per candidate, with `n-1 = d·2^r`
/// re-split and `x` leaving the Montgomery domain on every round. It
/// draws the same candidates (top two bits and low bit set) and bases,
/// so it returns the same primes.
fn gen_prime_generic(bits: usize, rng: &mut dyn RandomSource) -> BigUint {
    const SMALL_PRIMES: [u64; 54] = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
        191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
    ];
    fn sprp(n: &BigUint, a: &BigUint, ctx: &Montgomery) -> bool {
        let one = BigUint::one();
        let n_minus_1 = n.sub(&one);
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
    // Only the random-base branch: key primes are far above 81 bits.
    fn is_prime(n: &BigUint, rng: &mut dyn RandomSource) -> bool {
        for p in SMALL_PRIMES {
            let pb = BigUint::from_u64(p);
            if n == &pb {
                return true;
            }
            if n.rem(&pb).is_zero() {
                return false;
            }
        }
        let ctx = Montgomery::new(n).expect("candidate is odd and > 1");
        let n_minus_3 = n.sub(&BigUint::from_u64(3));
        (0..24).all(|_| {
            let a = random_below(&n_minus_3, rng).add(&BigUint::from_u64(2));
            sprp(n, &a, &ctx)
        })
    }
    loop {
        let mut buf = vec![0u8; bits.div_ceil(8)];
        rng.fill_bytes(&mut buf);
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

/// A 512-bit RSA private key as the generic CRT signer sees it, rebuilt
/// from a seed. Holds the CRT factors, so it implements no `Debug`.
struct GenericCrtKey {
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Modulus length in bytes.
    k: usize,
}

impl GenericCrtKey {
    /// The key `keypair_from_seed(512, seed)` returns, found with the
    /// given prime search: the same prime draws, retry conditions, `modinv`
    /// calls and CRT parameters as `generate_keypair`.
    fn from_seed(seed: u64, search: fn(usize, &mut dyn RandomSource) -> BigUint) -> GenericCrtKey {
        let mut rng = XorShiftSource::new(seed);
        let one = BigUint::one();
        let e = BigUint::from_u64(65537);
        loop {
            let p = search(256, &mut rng);
            let q = search(256, &mut rng);
            if p == q || p.mul(&q).bits() != 512 {
                continue;
            }
            let phi = p.sub(&one).mul(&q.sub(&one));
            let (Some(d), Some(qinv)) = (e.modinv(&phi), q.modinv(&p)) else {
                continue;
            };
            return GenericCrtKey {
                dp: d.rem(&p.sub(&one)),
                dq: d.rem(&q.sub(&one)),
                p,
                q,
                qinv,
                k: 64,
            };
        }
    }

    /// PKCS#1 v1.5 / SHA-256 signing with the CRT exponentiation before
    /// the fixed-width kernel: a generic [`Montgomery`] context per half
    /// and `BigUint` arithmetic for Garner's recombination.
    fn sign(&self, message: &[u8]) -> Vec<u8> {
        const SHA256_DIGEST_INFO: [u8; 19] = [
            0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
            0x01, 0x05, 0x00, 0x04, 0x20,
        ];
        let hash = bolted_crypto::sha256(message);
        let mut em = vec![0x00, 0x01];
        em.resize(self.k - SHA256_DIGEST_INFO.len() - 32 - 1, 0xFF);
        em.push(0x00);
        em.extend_from_slice(&SHA256_DIGEST_INFO);
        em.extend_from_slice(hash.as_bytes());
        let m = BigUint::from_bytes_be(&em);
        let m1 = m.modpow_montgomery(&self.dp, &self.p);
        let m2 = m.modpow_montgomery(&self.dq, &self.q);
        let m2_mod_p = m2.rem(&self.p);
        let diff = if m1 >= m2_mod_p {
            m1.sub(&m2_mod_p)
        } else {
            m1.add(&self.p).sub(&m2_mod_p)
        };
        let h = self.qinv.mul_mod(&diff, &self.p);
        m2.add(&self.q.mul(&h)).to_bytes_be_padded(self.k)
    }
}

/// Runs every hot-path benchmark at the given [`Effort`].
pub fn run(effort: Effort) -> Vec<Record> {
    let mut rng = XorShiftSource::new(0xB017ED);
    let mut records = Vec::new();

    // --- modular exponentiation, RSA-2048 shapes --------------------
    let m = rsa_shaped_modulus(&mut rng);
    let base = random_biguint(192, &mut rng);
    let e = BigUint::from_u64(65537);
    let d = random_biguint(256, &mut rng); // full-size private-shaped exponent
    let ctx = Montgomery::new(&m).expect("odd modulus");
    assert_eq!(
        ctx.pow(&base, &e),
        base.modpow(&e, &m),
        "verify cross-check"
    );

    // The optimised side gets more iterations per round so both batches
    // cover a similar stretch of wall clock within each round.
    let (rounds, it_l, it_m) = effort.pick((16, 4, 16), (4, 2, 8), (2, 1, 4));
    let ns = time_pair(
        rounds,
        it_l,
        it_m,
        || {
            std::hint::black_box(base.modpow(&e, &m));
        },
        || {
            std::hint::black_box(ctx.pow(&base, &e));
        },
    );
    record_pair(
        &mut records,
        "rsa_verify_2048",
        ("legacy", "montgomery"),
        (rounds * it_l, rounds * it_m),
        ns,
        None,
    );

    let (rounds, it_l, it_m) = effort.pick((4, 1, 6), (2, 1, 4), (1, 1, 2));
    let ns = time_pair(
        rounds,
        it_l,
        it_m,
        || {
            std::hint::black_box(base.modpow(&d, &m));
        },
        || {
            std::hint::black_box(ctx.pow(&base, &d));
        },
    );
    record_pair(
        &mut records,
        "modpow_2048_full_exp",
        ("legacy", "montgomery"),
        (rounds * it_l, rounds * it_m),
        ns,
        None,
    );

    // --- SHA-256 -----------------------------------------------------
    let buf_len = effort.pick(1 << 20, 64 << 10, 16 << 10);
    let mut buf = vec![0u8; buf_len];
    rng.fill_bytes(&mut buf);
    assert_eq!(
        sha256_rolled(&buf),
        bolted_crypto::sha256(&buf).0,
        "rolled reference cross-check"
    );
    let (rounds, iters) = effort.pick((8, 2), (2, 2), (1, 1));
    let ns = time_pair(
        rounds,
        iters,
        iters,
        || {
            std::hint::black_box(sha256_rolled(&buf));
        },
        || {
            std::hint::black_box(bolted_crypto::sha256(&buf));
        },
    );
    record_pair(
        &mut records,
        "sha256",
        ("rolled", "unrolled"),
        (rounds * iters, rounds * iters),
        ns,
        Some(buf_len as u64),
    );

    // --- multi-buffer SHA-256 ---------------------------------------
    // 16 independent messages (an IMA measurement burst): single-stream
    // hashing walks them one by one; the multi-buffer kernel interleaves
    // all 16 through one SoA compression sweep.
    let msg_len = effort.pick(64 << 10, 8 << 10, 2 << 10);
    let msgs: Vec<Vec<u8>> = (0..16)
        .map(|_| {
            let mut m = vec![0u8; msg_len];
            rng.fill_bytes(&mut m);
            m
        })
        .collect();
    let views: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    {
        let serial: Vec<_> = views.iter().map(|m| bolted_crypto::sha256(m)).collect();
        assert_eq!(serial, sha256_many(&views), "multi-buffer cross-check");
    }
    // Many short interleaved rounds: on a shared vCPU a noise burst then
    // lands on a sliver of both variants instead of one whole batch.
    let (rounds, iters) = effort.pick((64, 2), (2, 2), (1, 1));
    let ns = time_pair(
        rounds,
        iters,
        iters,
        || {
            for m in &views {
                std::hint::black_box(bolted_crypto::sha256(m));
            }
        },
        || {
            std::hint::black_box(sha256_many(&views));
        },
    );
    record_pair(
        &mut records,
        "sha256_mb",
        ("single_stream", "multibuffer_x16"),
        (rounds * iters, rounds * iters),
        ns,
        Some((16 * msg_len) as u64),
    );

    // --- LUKS sector encryption --------------------------------------
    let mut key_bytes = [0u8; 32];
    rng.fill_bytes(&mut key_bytes);
    let key = Key(key_bytes);
    let scipher = SectorCipher::new(&key);
    let sectors = effort.pick(1024usize, 64, 16);
    let mut disk = vec![0u8; sectors * SECTOR_SIZE];
    rng.fill_bytes(&mut disk);
    {
        // Cross-check: per-sector streamed keystream == wide batched
        // keystream (same per-sector nonce construction).
        let mut a = disk.clone();
        for (s, chunk) in a.chunks_mut(SECTOR_SIZE).enumerate() {
            let mut nonce = [0u8; NONCE_LEN];
            nonce[..8].copy_from_slice(&(s as u64).to_le_bytes());
            sector_xor_streamed(&key, &nonce, chunk);
        }
        let mut b = disk.clone();
        scipher.xor_sectors(0, &mut b);
        assert_eq!(a, b, "sector keystream cross-check");
    }
    // Same fine-grained interleave as sha256_mb, for the same reason.
    let (rounds, iters) = effort.pick((64, 2), (2, 2), (1, 1));
    // Each closure owns its copy of the disk so both can borrow mutably.
    let mut disk_a = disk.clone();
    let mut disk_b = disk.clone();
    let ns = time_pair(
        rounds,
        iters,
        iters,
        || {
            for (s, chunk) in disk_a.chunks_mut(SECTOR_SIZE).enumerate() {
                let mut nonce = [0u8; NONCE_LEN];
                nonce[..8].copy_from_slice(&(s as u64).to_le_bytes());
                sector_xor_streamed(&key, &nonce, chunk);
            }
        },
        || {
            scipher.xor_sectors(0, &mut disk_b);
        },
    );
    record_pair(
        &mut records,
        "sector_encrypt",
        ("streamed", "wide"),
        (rounds * iters, rounds * iters),
        ns,
        Some(disk.len() as u64),
    );

    // --- RSA key generation: one whole 512-bit key ------------------
    // Per-key cost varies several-fold with how far the search walks,
    // so every batch covers the same seeds for both variants. Each key
    // is the whole `generate_keypair` loop: primes, length check,
    // `modinv` and CRT parameters.
    let quote = b"pcr composite || nonce";
    let keys = effort.pick(16u64, 8, 4);
    for seed in 1..=keys {
        assert_eq!(
            GenericCrtKey::from_seed(seed, gen_prime_generic).sign(quote),
            keypair_from_seed(512, seed).private.sign(quote),
            "key generation cross-check, seed {seed}"
        );
    }
    let rounds = effort.pick(8, 2, 1);
    let (ns_generic, ns_fixed) = time_pair(
        rounds,
        1,
        1,
        || {
            for seed in 1..=keys {
                std::hint::black_box(GenericCrtKey::from_seed(seed, gen_prime_generic));
            }
        },
        || {
            for seed in 1..=keys {
                std::hint::black_box(keypair_from_seed(512, seed));
            }
        },
    );
    let per_key = keys as f64;
    let iters = rounds * keys as u32;
    record_pair(
        &mut records,
        "keygen_512",
        ("generic", "fixed_width"),
        (iters, iters),
        (ns_generic / per_key, ns_fixed / per_key),
        None,
    );

    // --- RSA signing: one 512-bit quote signature -------------------
    let seeds = 1..=4u64;
    let generic_keys: Vec<GenericCrtKey> = seeds
        .clone()
        .map(|s| GenericCrtKey::from_seed(s, gen_prime))
        .collect();
    let fixed_keys: Vec<_> = seeds.map(|s| keypair_from_seed(512, s).private).collect();
    for (g, f) in generic_keys.iter().zip(&fixed_keys) {
        assert_eq!(g.sign(quote), f.sign(quote), "CRT signing cross-check");
    }
    let (rounds, iters) = effort.pick((16, 64), (4, 16), (1, 4));
    let ns = time_pair(
        rounds,
        iters,
        iters,
        || {
            for key in &generic_keys {
                std::hint::black_box(key.sign(quote));
            }
        },
        || {
            for key in &fixed_keys {
                std::hint::black_box(key.sign(quote));
            }
        },
    );
    let per_sig = generic_keys.len() as f64;
    let sigs = rounds * iters * generic_keys.len() as u32;
    record_pair(
        &mut records,
        "rsa_sign_512",
        ("generic_crt", "fixed_width_crt"),
        (sigs, sigs),
        (ns.0 / per_sig, ns.1 / per_sig),
        None,
    );

    records
}
