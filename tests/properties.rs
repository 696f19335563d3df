//! Randomized property tests on the core data structures and the security
//! invariants DESIGN.md calls out.
//!
//! These were originally written with proptest; the offline build cannot
//! reach a registry, so they now run as deterministic randomized loops over
//! a seeded xorshift source. Each property keeps the same invariant and a
//! comparable number of cases (64 per property unless noted).

use bolted::crypto::bignum::BigUint;
use bolted::crypto::chacha20::{chacha20_encrypt, Key};
use bolted::crypto::luks::{BlockDevice, LuksDevice, RamDisk, SECTOR_SIZE};
use bolted::crypto::prime::{RandomSource, XorShiftSource};
use bolted::crypto::sha256::{sha256, Sha256};
use bolted::crypto::Aead;
use bolted::keylime::{combine_key, split_key, ImaLog, TenantPayload};
use bolted::sim::{Resource, Rng, Sim, SimDuration};
use bolted::tpm::{PcrBank, Tpm};

const CASES: usize = 64;

/// Deterministic generator wrapping the crypto crate's xorshift source.
struct Gen(XorShiftSource);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(XorShiftSource::new(seed))
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform-enough value in `[0, bound)` for test-case shaping.
    fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        (self.u64() % bound as u64) as usize
    }

    /// Random byte vector with length in `[min, max)`.
    fn bytes(&mut self, min: usize, max: usize) -> Vec<u8> {
        let len = min + self.below((max - min).max(1));
        let mut buf = vec![0u8; len];
        self.0.fill_bytes(&mut buf);
        buf
    }

    fn array32(&mut self) -> [u8; 32] {
        let mut buf = [0u8; 32];
        self.0.fill_bytes(&mut buf);
        buf
    }

    fn array12(&mut self) -> [u8; 12] {
        let mut buf = [0u8; 12];
        self.0.fill_bytes(&mut buf);
        buf
    }

    /// ASCII string drawn from `alphabet` with length in `[min, max)`.
    fn string(&mut self, alphabet: &[u8], min: usize, max: usize) -> String {
        let len = min + self.below((max - min).max(1));
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len())] as char)
            .collect()
    }
}

// -- hashing ---------------------------------------------------------------

#[test]
fn sha256_incremental_equals_oneshot() {
    let mut g = Gen::new(0x5A11);
    for _ in 0..CASES {
        let data = g.bytes(0, 4096);
        let split = g.below(4096).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), sha256(&data));
    }
}

#[test]
fn sha256_injective_in_practice() {
    let mut g = Gen::new(0x5A12);
    for _ in 0..CASES {
        let a = g.bytes(0, 256);
        let b = g.bytes(0, 256);
        if a != b {
            assert_ne!(sha256(&a), sha256(&b));
        }
    }
}

// -- bignum ----------------------------------------------------------------

#[test]
fn bignum_add_sub_round_trip() {
    let mut g = Gen::new(0xB1601);
    for _ in 0..CASES {
        let x = BigUint::from_bytes_be(&g.bytes(0, 24));
        let y = BigUint::from_bytes_be(&g.bytes(0, 24));
        assert_eq!(x.add(&y).sub(&y), x);
    }
}

#[test]
fn bignum_mul_matches_u128() {
    let mut g = Gen::new(0xB1602);
    for _ in 0..CASES {
        let a = g.u64();
        let b = g.u64();
        let expect = u128::from(a) * u128::from(b);
        let got = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        let mut bytes = expect.to_be_bytes().to_vec();
        while bytes.first() == Some(&0) {
            bytes.remove(0);
        }
        assert_eq!(got.to_bytes_be(), bytes);
    }
}

#[test]
fn bignum_divrem_identity() {
    let mut g = Gen::new(0xB1603);
    for _ in 0..CASES {
        let x = BigUint::from_bytes_be(&g.bytes(1, 28));
        let mut y = BigUint::from_bytes_be(&g.bytes(1, 14));
        if y.is_zero() {
            y = BigUint::one();
        }
        let (q, r) = x.divrem(&y);
        assert!(r < y);
        assert_eq!(q.mul(&y).add(&r), x);
    }
}

#[test]
fn bignum_byte_round_trip() {
    let mut g = Gen::new(0xB1604);
    for _ in 0..CASES {
        // No leading zero byte, so the round trip is exact.
        let mut a = g.bytes(0, 32);
        for b in &mut a {
            if *b == 0 {
                *b = 1;
            }
        }
        let x = BigUint::from_bytes_be(&a);
        assert_eq!(x.to_bytes_be(), a);
    }
}

#[test]
fn bignum_shifts_invert() {
    let mut g = Gen::new(0xB1605);
    for _ in 0..CASES {
        let x = BigUint::from_bytes_be(&g.bytes(0, 16));
        let s = g.below(100);
        assert_eq!(x.shl(s).shr(s), x);
    }
}

// -- ciphers ---------------------------------------------------------------

#[test]
fn chacha20_round_trips() {
    let mut g = Gen::new(0xC4A01);
    for _ in 0..CASES {
        let k = Key(g.array32());
        let nonce = g.array12();
        let data = g.bytes(0, 2048);
        let ct = chacha20_encrypt(&k, &nonce, 1, &data);
        assert_eq!(chacha20_encrypt(&k, &nonce, 1, &ct), data);
    }
}

#[test]
fn aead_round_trips_and_rejects_tamper() {
    let mut g = Gen::new(0xC4A02);
    for _ in 0..CASES {
        let aead = Aead::new(&Key(g.array32()));
        let nonce = g.array12();
        let aad = g.bytes(0, 64);
        let data = g.bytes(0, 512);
        let sealed = aead.seal(&nonce, &aad, &data);
        assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), data);
        // Any single-byte change (with a non-zero xor) must fail.
        let pos = g.below(1 << 16);
        let mask = (g.u64() & 0xFF) as u8;
        if mask != 0 && !sealed.is_empty() {
            let mut bad = sealed.clone();
            let i = pos % bad.len();
            bad[i] ^= mask;
            assert!(aead.open(&nonce, &aad, &bad).is_err());
        }
    }
}

// -- LUKS ------------------------------------------------------------------

#[test]
fn luks_round_trips_any_sector() {
    let mut g = Gen::new(0x1045);
    // Fewer cases: each formats a device (passphrase KDF dominates).
    for _ in 0..16 {
        let pass = g.bytes(1, 32);
        let sector = g.u64() % 50;
        let data = g.bytes(SECTOR_SIZE, SECTOR_SIZE + 1);
        let mut rng = XorShiftSource::new(7);
        let mut luks = LuksDevice::format(RamDisk::new(64), &pass, &mut rng).unwrap();
        luks.write_sector(sector, &data).unwrap();
        let mut buf = [0u8; SECTOR_SIZE];
        luks.read_sector(sector, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..]);
        // Ciphertext at rest differs from plaintext (unless astronomically unlucky).
        let raw = luks.into_inner();
        let mut on_disk = [0u8; SECTOR_SIZE];
        raw.read_sector(sector + bolted::crypto::luks::HEADER_SECTORS, &mut on_disk)
            .unwrap();
        assert_ne!(&on_disk[..], &data[..]);
    }
}

// -- key split -------------------------------------------------------------

#[test]
fn uv_split_always_recombines() {
    let mut g = Gen::new(0x0521);
    for _ in 0..CASES {
        let key = g.array32();
        let mut rng = XorShiftSource::new(g.u64());
        let k = Key(key);
        let (u, v) = split_key(&k, &mut rng);
        assert_eq!(combine_key(&u, &v).0, key);
        // Neither share equals the key (w.h.p. — the share is random).
        assert!(*u.expose() != key || *v.expose() == [0u8; 32]);
    }
}

#[test]
fn payload_codec_round_trips() {
    let mut g = Gen::new(0x0522);
    for _ in 0..CASES {
        let name = g.string(b"abcdefghijklmnopqrstuvwxyz0123456789.-", 1, 32);
        let printable: Vec<u8> = (b' '..=b'~').collect();
        let cmdline = g.string(&printable, 0, 64);
        let p = TenantPayload {
            kernel_name: name,
            kernel_digest: sha256(b"k"),
            kernel_size: g.u64(),
            cmdline,
            luks_passphrase: bolted_crypto::secret::Secret::named(
                "luks_passphrase",
                g.bytes(0, 64),
            ),
            ipsec_psk: g.bytes(0, 64),
            script: "kexec".into(),
        };
        let k = Key(g.array32());
        assert_eq!(TenantPayload::open(&p.seal(&k), &k).unwrap(), p);
    }
}

// -- TPM / IMA -------------------------------------------------------------

#[test]
fn pcr_extends_never_collide_with_reorder() {
    let mut g = Gen::new(0x7B301);
    for _ in 0..CASES {
        // Extending a permuted sequence yields a different PCR value
        // unless the permutation is the identity.
        let count = 2 + g.below(4);
        let ms: Vec<Vec<u8>> = (0..count).map(|_| g.bytes(1, 16)).collect();
        let mut fwd = PcrBank::new();
        for m in &ms {
            fwd.extend(0, &sha256(m));
        }
        let mut rev = PcrBank::new();
        for m in ms.iter().rev() {
            rev.extend(0, &sha256(m));
        }
        let palindrome = ms.iter().eq(ms.iter().rev());
        if !palindrome {
            assert_ne!(fwd.read(0), rev.read(0));
        }
    }
}

#[test]
fn ima_log_replay_always_matches_live_pcr() {
    let mut g = Gen::new(0x7B302);
    for _ in 0..CASES {
        let count = g.below(20);
        let files: Vec<(String, Vec<u8>)> = (0..count)
            .map(|_| {
                (
                    g.string(b"abcdefghijklmnopqrstuvwxyz/", 1, 20),
                    g.bytes(0, 64),
                )
            })
            .collect();
        let mut tpm = Tpm::new(5, 512);
        let mut log = ImaLog::new();
        for (path, content) in &files {
            log.measure(&mut tpm, path, content);
        }
        assert_eq!(log.replay_pcr(), tpm.pcr_read(bolted::tpm::index::IMA));
        // The list is PCR 10's only log: no measurement reaches the
        // TPM's boot log.
        assert!(
            tpm.event_log().is_empty(),
            "{} boot events",
            tpm.event_log().len()
        );
    }
}

// -- simulator -------------------------------------------------------------

#[test]
fn sim_resource_conserves_work() {
    let mut g = Gen::new(0x51_01);
    for _ in 0..CASES {
        // Total busy time on a FIFO resource equals the sum of service
        // times when all jobs arrive at t=0 (work conservation): the
        // makespan is bounded by ceil-scheduling bounds.
        let count = 1 + g.below(39);
        let jobs: Vec<u64> = (0..count).map(|_| 1 + g.u64() % 199).collect();
        let capacity = 1 + g.below(7);
        let sim = Sim::new();
        let res = Resource::new(&sim, capacity);
        let total: u64 = jobs.iter().sum();
        let max = *jobs.iter().max().unwrap();
        for ms in jobs.clone() {
            let r = res.clone();
            sim.spawn(async move { r.visit(SimDuration::from_millis(ms)).await });
        }
        assert_eq!(sim.run(), 0);
        let makespan = sim.now().as_nanos() / 1_000_000;
        let lower = (total.div_ceil(capacity as u64)).max(max);
        assert!(
            makespan >= lower,
            "makespan {makespan} < lower bound {lower}"
        );
        assert!(
            makespan <= total,
            "makespan {makespan} > serial time {total}"
        );
    }
}

#[test]
fn sim_rng_reproducible() {
    let mut g = Gen::new(0x51_02);
    for _ in 0..CASES {
        let seed = g.u64();
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

#[test]
fn sim_rng_range_bounds() {
    let mut g = Gen::new(0x51_03);
    for _ in 0..CASES {
        let bound = 1 + g.u64() % 999_999;
        let mut r = Rng::seed_from_u64(g.u64());
        for _ in 0..32 {
            assert!(r.gen_range(bound) < bound);
        }
    }
}
