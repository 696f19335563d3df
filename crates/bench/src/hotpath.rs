//! Dependency-free micro-benchmarks for the attestation hot path.
//!
//! Measures the optimised kernels — RSA verification, SHA-256
//! compression, RSA key generation and RSA CRT signing — each against
//! an in-repo "before" reference (a rolled SHA-256 compression loop,
//! and for every RSA row the schoolbook `BigUint::modpow`, the one
//! reference the fixed-width Montgomery kernel is checked against), so
//! the speedup is recorded next to the code that earned it. The
//! `attest_round` rows time a whole continuous-attestation round at 0,
//! 1k and 10k IMA entries against a copy of the clone-and-replay
//! verification, and how the round grows from 0 to 10k entries. The
//! `sim_event` row times one poll of a sleeping task on the executor
//! against a copy of the loop it replaced. Plain
//! `std::time::Instant`, JSON-lines output, no external crates: it runs
//! in the offline build where criterion cannot.

use std::cell::Cell;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

use bolted_crypto::prime::{gen_prime, random_below};
use bolted_crypto::rsa::PublicKey;
use bolted_crypto::sha256::Digest;
use bolted_crypto::{keypair_from_seed, BigUint, RandomSource, XorShiftSource};
use bolted_firmware::{FirmwareKind, FirmwareSource, Machine};
use bolted_keylime::verifier::CONTINUOUS_SELECTION;
use bolted_keylime::{
    agent_binary_digest, Agent, AttestOutcome, AttestationEvidence, ImaWhitelist, LogOffsets,
    Registrar, Verifier, VerifierConfig,
};
use bolted_sim::{lock, CallEnv, Faults, Metrics, Sim, SimDuration, SimTime, Spans};
use bolted_tpm::{index, PcrBank, NUM_PCRS};

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
    /// Variant, baseline first: `schoolbook`/`fixed_width`,
    /// `rolled`/`unrolled`, …
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

/// The prime search on schoolbook arithmetic, kept here as the keygen
/// baseline and as a second path to the production keys. It walks the
/// same candidates as `gen_prime`: one random start with its top two
/// bits and low bit set, then `start + 2`, `start + 4`, … below
/// `2^bits`, redrawing past it. Each candidate is sieved by a `BigUint`
/// remainder per odd prime below 2^11 (those below the range floor),
/// and Miller–Rabin runs on `BigUint::modpow` and `mul_mod`, with
/// `n-1 = d·2^r` re-split on every round and the production rounds per
/// size. It draws the same starts and bases, so it returns the same
/// primes.
fn gen_prime_generic(bits: usize, rng: &mut dyn RandomSource) -> BigUint {
    fn sprp(n: &BigUint, a: &BigUint) -> bool {
        let one = BigUint::one();
        let n_minus_1 = n.sub(&one);
        let mut d = n_minus_1.clone();
        let mut r = 0usize;
        while !d.is_odd() {
            d = d.shr(1);
            r += 1;
        }
        let mut x = a.modpow(&d, n);
        if x == one || x == n_minus_1 {
            return true;
        }
        for _ in 0..r - 1 {
            x = x.mul_mod(&x, n);
            if x == n_minus_1 {
                return true;
            }
        }
        false
    }
    // Only the random-base branch: key primes are far above 81 bits.
    fn probable_prime(n: &BigUint, rounds: usize, rng: &mut dyn RandomSource) -> bool {
        let n_minus_3 = n.sub(&BigUint::from_u64(3));
        (0..rounds).all(|_| {
            let a = random_below(&n_minus_3, rng).add(&BigUint::from_u64(2));
            sprp(n, &a)
        })
    }
    let rounds = match bits {
        1024.. => 5,
        512.. => 6,
        256.. => 12,
        _ => 24,
    };
    let floor = BigUint::from_u64(3).shl(bits - 2);
    let sieve: Vec<BigUint> = (3..2048u64)
        .step_by(2)
        .filter(|&p| {
            (3..p)
                .step_by(2)
                .take_while(|d| d * d <= p)
                .all(|d| !p.is_multiple_of(d))
        })
        .map(BigUint::from_u64)
        .filter(|p| p < &floor)
        .collect();
    let top = BigUint::one().shl(bits);
    let two = BigUint::from_u64(2);
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
        let mut candidate = BigUint::from_bytes_be(&buf);
        while candidate < top {
            if sieve.iter().all(|p| !candidate.rem(p).is_zero())
                && probable_prime(&candidate, rounds, rng)
            {
                return candidate;
            }
            candidate = candidate.add(&two);
        }
    }
}

/// An RSA key as the schoolbook signer and verifier see it, rebuilt
/// from a seed. Holds the CRT factors, so it implements no `Debug`.
struct GenericCrtKey {
    n: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Modulus length in bytes.
    k: usize,
}

impl GenericCrtKey {
    /// The key `keypair_from_seed(bits, seed)` returns, found with the
    /// given prime search: the same prime draws, retry conditions and
    /// CRT parameters as `generate_keypair`, with `d` and `qinv` both
    /// from the extended-Euclid `modinv` (`generate_keypair` takes
    /// `qinv` by Fermat on the fixed-width kernel).
    fn from_seed(
        bits: usize,
        seed: u64,
        search: fn(usize, &mut dyn RandomSource) -> BigUint,
    ) -> GenericCrtKey {
        let mut rng = XorShiftSource::new(seed);
        let one = BigUint::one();
        let e = BigUint::from_u64(65537);
        loop {
            let p = search(bits / 2, &mut rng);
            let q = search(bits - bits / 2, &mut rng);
            let n = p.mul(&q);
            if p == q || n.bits() != bits {
                continue;
            }
            let phi = p.sub(&one).mul(&q.sub(&one));
            let (Some(d), Some(qinv)) = (e.modinv(&phi), q.modinv(&p)) else {
                continue;
            };
            return GenericCrtKey {
                n,
                dp: d.rem(&p.sub(&one)),
                dq: d.rem(&q.sub(&one)),
                p,
                q,
                qinv,
                k: bits.div_ceil(8),
            };
        }
    }

    /// The PKCS#1 v1.5 / SHA-256 encoding of `message`.
    fn emsa(&self, message: &[u8]) -> Vec<u8> {
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
        em
    }

    /// PKCS#1 v1.5 / SHA-256 signing by schoolbook CRT: each half on
    /// `BigUint::modpow`, Garner's recombination in `BigUint` arithmetic.
    fn sign(&self, message: &[u8]) -> Vec<u8> {
        let m = BigUint::from_bytes_be(&self.emsa(message));
        let m1 = m.modpow(&self.dp, &self.p);
        let m2 = m.modpow(&self.dq, &self.q);
        let m2_mod_p = m2.rem(&self.p);
        let diff = if m1 >= m2_mod_p {
            m1.sub(&m2_mod_p)
        } else {
            m1.add(&self.p).sub(&m2_mod_p)
        };
        let h = self.qinv.mul_mod(&diff, &self.p);
        m2.add(&self.q.mul(&h)).to_bytes_be_padded(self.k)
    }

    /// PKCS#1 v1.5 / SHA-256 verification with `s^65537 mod n` on
    /// `BigUint::modpow`.
    fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        let s = BigUint::from_bytes_be(signature);
        s < self.n
            && s.modpow(&BigUint::from_u64(65537), &self.n)
                .to_bytes_be_padded(self.k)
                == self.emsa(message)
    }
}

/// One node enrolled with a continuous verifier, its IMA list holding
/// `entries` whitelisted measurements that a first, full round has
/// already verified.
struct AttestRig {
    sim: Sim,
    agent: Agent,
    verifier: Verifier,
    aik: PublicKey,
    boot_whitelist: HashSet<Digest>,
    ima_whitelist: ImaWhitelist,
    nonces: Cell<u64>,
}

impl AttestRig {
    const NODE: &'static str = "node-0";

    fn new(entries: usize) -> AttestRig {
        let sim = Sim::new();
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "heads-1.0", b"src").build();
        let machine = Machine::new(Self::NODE, fw.clone(), 7);
        machine.power_on();
        let registrar = Registrar::new(&Faults::disabled());
        let env = CallEnv::new(
            &sim,
            &Faults::disabled(),
            &Spans::disabled(),
            &Metrics::disabled(),
        );
        let verifier = Verifier::new(&env, &registrar, VerifierConfig::default());
        let agent = sim.block_on({
            let (sim, machine, registrar) = (sim.clone(), machine.clone(), registrar.clone());
            async move {
                machine.run_firmware(&sim).await.expect("boots");
                machine
                    .measure_download("keylime-agent", agent_binary_digest())
                    .expect("measures");
                let agent = Agent::start(&sim, Self::NODE, &machine).await;
                let mut rng = XorShiftSource::new(11);
                agent
                    .register(&sim, &registrar, &mut rng)
                    .await
                    .expect("registers");
                agent
            }
        });
        let boot_whitelist = HashSet::from([fw.build_id, agent_binary_digest()]);
        let mut ima_whitelist = ImaWhitelist::new();
        for i in 0..entries {
            let (path, content) = (format!("/usr/lib/f{i}"), i.to_le_bytes());
            ima_whitelist.allow_content(&path, &content);
            agent.ima_measure(&path, &content);
        }
        verifier.add_node(
            &agent,
            boot_whitelist.clone(),
            ima_whitelist.clone(),
            None,
            Vec::new(),
            0,
        );
        let aik = registrar.certified_aik(Self::NODE).expect("certified");
        let rig = AttestRig {
            sim,
            agent,
            verifier,
            aik,
            boot_whitelist,
            ima_whitelist,
            nonces: Cell::new(0),
        };
        assert_eq!(rig.incremental(), AttestOutcome::Trusted, "first round");
        assert_eq!(
            rig.verifier.log_offsets(Self::NODE).map(|o| o.ima),
            Some(entries),
            "the first round verified every entry"
        );
        rig
    }

    /// One production round: the verifier asks for the evidence past
    /// its verified prefix and checks only that.
    fn incremental(&self) -> AttestOutcome {
        let v = self.verifier.clone();
        self.sim
            .block_on(async move { v.attest_once(AttestRig::NODE, true).await })
    }

    /// One round as continuous attestation ran before the verifier kept
    /// a verified prefix: the agent ships both logs whole, and the
    /// verifier replays them from zero and whitelist-checks every entry.
    fn full_replay(&self) -> Result<(), String> {
        self.nonces.set(self.nonces.get() + 1);
        let mut nonce = [0xF0; 32];
        nonce[..8].copy_from_slice(&self.nonces.get().to_le_bytes());
        let (sim, agent) = (self.sim.clone(), self.agent.clone());
        let evidence = self.sim.block_on(async move {
            agent
                .attest(&sim, nonce, &CONTINUOUS_SELECTION, &LogOffsets::START)
                .await
                .expect("attests")
        });
        self.full_replay_verify(&nonce, &evidence)
    }

    fn full_replay_verify(&self, nonce: &[u8; 32], ev: &AttestationEvidence) -> Result<(), String> {
        let selection = &CONTINUOUS_SELECTION;
        if !ev.quote.verify(&self.aik) {
            return Err("quote signature invalid".into());
        }
        if &ev.quote.nonce != nonce {
            return Err("stale nonce (replay?)".into());
        }
        if ev.quote.selection != selection {
            return Err("quote covers wrong PCR selection".into());
        }
        let mut boot_pcrs = [Digest::ZERO; NUM_PCRS];
        for e in &ev.boot_events {
            if let Some(pcr) = boot_pcrs.get_mut(e.pcr_index) {
                *pcr = PcrBank::extend_value(pcr, &e.digest);
            }
        }
        let ima_pcr = ev.ima_entries.iter().fold(Digest::ZERO, |pcr, e| {
            PcrBank::extend_value(&pcr, &e.template_digest())
        });
        let expected = PcrBank::composite_of(selection, |i| {
            if i == index::IMA {
                ima_pcr
            } else {
                boot_pcrs[i]
            }
        });
        let quoted = PcrBank::composite_of(&ev.quote.selection, |i| {
            let pos = ev.quote.selection.iter().position(|&s| s == i);
            ev.quote.pcr_values[pos.expect("a selected index")]
        });
        if expected != quoted {
            return Err("event log does not replay to quoted PCRs".into());
        }
        for e in &ev.boot_events {
            if e.pcr_index != index::IMA && !self.boot_whitelist.contains(&e.digest) {
                return Err(format!("unapproved boot measurement: {}", e.description));
            }
        }
        if let Err(v) = self.ima_whitelist.check(&ev.ima_entries) {
            return Err(format!("IMA violation: {} ({})", v.path, v.digest));
        }
        Ok(())
    }
}

/// What the `sim_event` workload needs of an executor, so one
/// workload drives both the production [`Sim`] and [`LegacySim`].
trait SleepSim: Clone + Send + Sync + 'static {
    fn spawn_task(&self, fut: impl Future<Output = ()> + Send + 'static);
    fn nap(&self, d: SimDuration) -> impl Future<Output = ()> + Send + '_;
    fn run_all(&self) -> usize;
    fn clock(&self) -> SimTime;
    fn polls(&self) -> u64;
}

impl SleepSim for Sim {
    fn spawn_task(&self, fut: impl Future<Output = ()> + Send + 'static) {
        self.spawn(fut);
    }
    fn nap(&self, d: SimDuration) -> impl Future<Output = ()> + Send + '_ {
        self.sleep(d)
    }
    fn run_all(&self) -> usize {
        self.run()
    }
    fn clock(&self) -> SimTime {
        self.now()
    }
    fn polls(&self) -> u64 {
        self.events_processed()
    }
}

/// Each sleeper's index and finishing time, in finishing order.
type FinishLog = Arc<Mutex<Vec<(u64, SimTime)>>>;

/// `tasks` tasks that only sleep, `events` polls in all, on a fresh
/// `sim`. Returns the poll count, and when `log` is set every task's
/// finishing time in finishing order.
fn sleepers<S: SleepSim>(sim: S, tasks: u64, events: u64, log: Option<&FinishLog>) -> u64 {
    let naps = events / tasks;
    for task in 0..tasks {
        let (s, log) = (sim.clone(), log.cloned());
        sim.spawn_task(async move {
            for k in 0..naps {
                let nanos = 1 + (task * 7_919 + k * 104_729) % 1_000;
                s.nap(SimDuration::from_nanos(nanos)).await;
            }
            if let Some(log) = log {
                lock(&log).push((task, s.clock()));
            }
        });
    }
    assert_eq!(sim.run_all(), 0, "every sleeper finishes");
    sim.polls()
}

/// The executor as it was before each task owned its future and one
/// waker: a `BTreeMap` task table the future leaves and re-enters on
/// every poll, a fresh `Arc` waker per poll, one lock per ready-queue
/// pop, and a relock per same-instant timer. Spawned tasks keep no join
/// handle; nothing else differs from the loop it copies.
#[derive(Clone)]
struct LegacySim {
    inner: Arc<LegacyInner>,
}

type LegacyFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

struct LegacyInner {
    now_nanos: AtomicU64,
    next_task_id: AtomicU64,
    next_seq: AtomicU64,
    tasks: Mutex<BTreeMap<u64, LegacyFuture>>,
    timers: Mutex<BinaryHeap<LegacyTimer>>,
    ready: Arc<Mutex<VecDeque<u64>>>,
    events_processed: AtomicU64,
}

struct LegacyWaker {
    ready: Arc<Mutex<VecDeque<u64>>>,
    id: u64,
}

impl Wake for LegacyWaker {
    fn wake(self: Arc<Self>) {
        lock(&self.ready).push_back(self.id);
    }
}

struct LegacyTimer {
    deadline: SimTime,
    seq: u64,
    waker: Waker,
}

impl PartialEq for LegacyTimer {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for LegacyTimer {}
impl PartialOrd for LegacyTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LegacyTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

struct LegacySleep {
    sim: LegacySim,
    deadline: SimTime,
}

impl Future for LegacySleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.clock() >= self.deadline {
            return Poll::Ready(());
        }
        let inner = &self.sim.inner;
        let seq = inner.next_seq.fetch_add(1, Ordering::SeqCst);
        lock(&inner.timers).push(LegacyTimer {
            deadline: self.deadline,
            seq,
            waker: cx.waker().clone(),
        });
        Poll::Pending
    }
}

impl LegacySim {
    fn new() -> LegacySim {
        LegacySim {
            inner: Arc::new(LegacyInner {
                now_nanos: AtomicU64::new(0),
                next_task_id: AtomicU64::new(0),
                next_seq: AtomicU64::new(0),
                tasks: Mutex::default(),
                timers: Mutex::default(),
                ready: Arc::default(),
                events_processed: AtomicU64::new(0),
            }),
        }
    }
}

impl SleepSim for LegacySim {
    fn spawn_task(&self, fut: impl Future<Output = ()> + Send + 'static) {
        let id = self.inner.next_task_id.fetch_add(1, Ordering::SeqCst);
        lock(&self.inner.tasks).insert(id, Box::pin(fut));
        lock(&self.inner.ready).push_back(id);
    }

    fn nap(&self, d: SimDuration) -> impl Future<Output = ()> + Send + '_ {
        LegacySleep {
            sim: self.clone(),
            deadline: self.clock() + d,
        }
    }

    fn run_all(&self) -> usize {
        let inner = &self.inner;
        loop {
            loop {
                let next = lock(&inner.ready).pop_front();
                let Some(id) = next else { break };
                let fut = lock(&inner.tasks).remove(&id);
                let Some(mut fut) = fut else { continue };
                inner.events_processed.fetch_add(1, Ordering::Relaxed);
                let waker = Waker::from(Arc::new(LegacyWaker {
                    ready: Arc::clone(&inner.ready),
                    id,
                }));
                if fut
                    .as_mut()
                    .poll(&mut Context::from_waker(&waker))
                    .is_pending()
                {
                    lock(&inner.tasks).insert(id, fut);
                }
            }
            let next = lock(&inner.timers).pop();
            let Some(entry) = next else { break };
            inner
                .now_nanos
                .store(entry.deadline.as_nanos(), Ordering::SeqCst);
            entry.waker.wake();
            loop {
                let mut timers = lock(&inner.timers);
                if timers.peek().is_some_and(|e| e.deadline == entry.deadline) {
                    let e = timers.pop().expect("peeked entry");
                    drop(timers);
                    e.waker.wake();
                } else {
                    break;
                }
            }
        }
        lock(&inner.tasks).len()
    }

    fn clock(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now_nanos.load(Ordering::SeqCst))
    }

    fn polls(&self) -> u64 {
        self.inner.events_processed.load(Ordering::Relaxed)
    }
}

/// Runs every hot-path benchmark at the given [`Effort`].
pub fn run(effort: Effort) -> Vec<Record> {
    let mut rng = XorShiftSource::new(0xB017ED);
    let mut records = Vec::new();

    // --- RSA verification: one 2048-bit quote signature ------------
    // The production path builds its fixed-width context per call; the
    // reference exponentiates by 65537 on schoolbook `modpow`.
    let quote = b"pcr composite || nonce";
    let reference = GenericCrtKey::from_seed(2048, 1, gen_prime);
    let key = keypair_from_seed(2048, 1);
    let sig = key.private.sign(quote);
    let mut forged = sig.clone();
    forged[7] ^= 1;
    assert_eq!(reference.sign(quote), sig, "2048-bit signing cross-check");
    assert!(reference.verify(quote, &sig) && key.public.verify(quote, &sig));
    assert!(!reference.verify(quote, &forged) && !key.public.verify(quote, &forged));
    // The optimised side gets more iterations per round so both batches
    // cover a similar stretch of wall clock within each round.
    let (rounds, it_s, it_f) = effort.pick((16, 4, 32), (4, 2, 16), (2, 1, 8));
    let ns = time_pair(
        rounds,
        it_s,
        it_f,
        || {
            std::hint::black_box(reference.verify(quote, &sig));
        },
        || {
            std::hint::black_box(key.public.verify(quote, &sig));
        },
    );
    record_pair(
        &mut records,
        "rsa_verify_2048",
        ("schoolbook", "fixed_width"),
        (rounds * it_s, rounds * it_f),
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

    // --- RSA key generation: one whole 512-bit key ------------------
    // Per-key cost varies several-fold with how far the search walks,
    // so every batch covers the same seeds for both variants. Each key
    // is the whole `generate_keypair` loop: primes, length check,
    // inverses and CRT parameters.
    let keys = effort.pick(16u64, 8, 4);
    for seed in 1..=keys {
        assert_eq!(
            GenericCrtKey::from_seed(512, seed, gen_prime_generic).sign(quote),
            keypair_from_seed(512, seed).private.sign(quote),
            "key generation cross-check, seed {seed}"
        );
    }
    let rounds = effort.pick(8, 2, 1);
    let (ns_schoolbook, ns_fixed) = time_pair(
        rounds,
        1,
        1,
        || {
            for seed in 1..=keys {
                std::hint::black_box(GenericCrtKey::from_seed(512, seed, gen_prime_generic));
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
        ("schoolbook", "fixed_width"),
        (iters, iters),
        (ns_schoolbook / per_key, ns_fixed / per_key),
        None,
    );

    // --- RSA signing: one 512-bit quote signature -------------------
    let seeds = 1..=4u64;
    let schoolbook_keys: Vec<GenericCrtKey> = seeds
        .clone()
        .map(|s| GenericCrtKey::from_seed(512, s, gen_prime))
        .collect();
    let fixed_keys: Vec<_> = seeds.map(|s| keypair_from_seed(512, s).private).collect();
    for (g, f) in schoolbook_keys.iter().zip(&fixed_keys) {
        assert_eq!(g.sign(quote), f.sign(quote), "CRT signing cross-check");
    }
    let (rounds, iters) = effort.pick((16, 64), (4, 16), (1, 4));
    let ns = time_pair(
        rounds,
        iters,
        iters,
        || {
            for key in &schoolbook_keys {
                std::hint::black_box(key.sign(quote));
            }
        },
        || {
            for key in &fixed_keys {
                std::hint::black_box(key.sign(quote));
            }
        },
    );
    let per_sig = schoolbook_keys.len() as f64;
    let sigs = rounds * iters * schoolbook_keys.len() as u32;
    record_pair(
        &mut records,
        "rsa_sign_512",
        ("schoolbook_crt", "fixed_width_crt"),
        (sigs, sigs),
        (ns.0 / per_sig, ns.1 / per_sig),
        None,
    );

    // --- Continuous attestation: one round at 0, 1k and 10k entries --
    // Both variants run the same agent, quote and signature check; the
    // reference ships and replays both logs whole, the production round
    // only what is past the verified prefix. Each list is verified
    // once before timing, and both variants must agree on a violation.
    let (rounds, iters_full, iters_incr) = effort.pick((16, 2, 100), (4, 1, 25), (2, 1, 10));
    let benches = ["attest_round_0", "attest_round_1k", "attest_round_10k"];
    let rigs = [0, 1_000, 10_000].map(AttestRig::new);
    for (bench, rig) in benches.iter().zip(&rigs) {
        assert_eq!(
            rig.full_replay(),
            Ok(()),
            "{bench}: full replay cross-check"
        );
        // Full replays do not move the prefix, so every timed
        // production round starts from the whole list verified.
        let ns = time_pair(
            rounds,
            iters_full,
            iters_incr,
            || {
                std::hint::black_box(rig.full_replay()).expect("trusted");
            },
            || {
                let outcome = std::hint::black_box(rig.incremental());
                assert_eq!(outcome, AttestOutcome::Trusted);
            },
        );
        record_pair(
            &mut records,
            bench,
            ("full_replay", "incremental"),
            (rounds * iters_full, rounds * iters_incr),
            ns,
            None,
        );
    }
    // How a production round grows with the list: 10k entries against
    // none, interleaved in short batches so that machine load lands on
    // both sides alike. The recorded ratio is the growth factor.
    let (rounds, iters) = effort.pick((64, 25), (16, 10), (4, 5));
    let round = |rig: &AttestRig| {
        let outcome = std::hint::black_box(rig.incremental());
        assert_eq!(outcome, AttestOutcome::Trusted);
    };
    let ns = time_pair(rounds, iters, iters, || round(&rigs[2]), || round(&rigs[0]));
    record_pair(
        &mut records,
        "attest_round_growth",
        ("10k_entries", "empty"),
        (rounds * iters, rounds * iters),
        ns,
        None,
    );
    for (bench, rig) in benches.iter().zip(&rigs) {
        rig.agent.ima_measure("/tmp/unlisted", b"x");
        let reference = rig.full_replay().unwrap_err();
        assert_eq!(
            rig.incremental(),
            AttestOutcome::Failed(reference),
            "{bench}: both variants must reject an unlisted file alike"
        );
    }

    // --- Simulated events: one poll of a sleeping task --------------
    // 16 and 256 tasks that only sleep, the same events at each size,
    // on the production executor and on a copy of the loop it
    // replaced. Both must poll alike and finish every task at the same
    // instant, in the same order.
    let events = effort.pick(200_000, 40_000, 4_000);
    let sizes = [16, 256];
    let mut per_round = 0;
    for tasks in sizes {
        let (legacy_log, log) = (Arc::default(), Arc::default());
        let legacy_polls = sleepers(LegacySim::new(), tasks, events, Some(&legacy_log));
        let polls = sleepers(Sim::new(), tasks, events, Some(&log));
        assert_eq!(legacy_polls, polls, "sim_event: {tasks} tasks poll alike");
        assert_eq!(
            *lock(&legacy_log),
            *lock(&log),
            "sim_event: {tasks} tasks finish alike"
        );
        per_round += polls;
    }
    let rounds = effort.pick(10, 4, 2);
    let (ns_legacy, ns_sim) = time_pair(
        rounds,
        1,
        1,
        || {
            for tasks in sizes {
                std::hint::black_box(sleepers(LegacySim::new(), tasks, events, None));
            }
        },
        || {
            for tasks in sizes {
                std::hint::black_box(sleepers(Sim::new(), tasks, events, None));
            }
        },
    );
    let polls = rounds * per_round as u32;
    record_pair(
        &mut records,
        "sim_event",
        ("legacy_loop", "task_slab"),
        (polls, polls),
        (ns_legacy / per_round as f64, ns_sim / per_round as f64),
        None,
    );

    records
}
