//! The bolted benchmark: three workloads driven through the workspace's
//! public API, each measured end to end untraced and, in a separate
//! traced run, layer by layer.
//!
//! * `provision` — cold bring-up of independent 16-node Charlie
//!   (attested, encrypted) clouds on the shard pool.
//! * `attest` — continuous attestation of one provisioned Charlie
//!   enclave at the verifier's poll interval.
//! * `churn` — the desired-state reconciler under seeded churn and
//!   injected BMC faults.
//!
//! An untraced run repeats the workload until its time is up and reports
//! the end-to-end metrics ([`layers::END_TO_END`]): `ops_per_s` over all
//! measured repetitions together, the others as medians. A traced
//! run alternates untraced and traced repetitions; the traced ones wrap
//! the four service traits in timing proxies ([`proxy`]) and give the
//! per-layer metrics ([`layers::PER_LAYER`]), the tracing overhead and a
//! host-time breakdown. Every repetition checks the workload's outputs,
//! and traced and untraced repetitions must produce the same digest.
//! Per-layer metrics that depend only on the inputs (counts, simulated
//! times, [`layers::deterministic`]) come from one fixed repetition, so
//! they repeat bit for bit however many repetitions the host fits in.

pub mod attest;
pub mod churn;
pub mod host;
pub mod layers;
pub mod probe;
pub mod provision;
pub mod proxy;
pub mod stats;
pub mod trace;
pub mod world;

use std::collections::BTreeMap;
use std::time::Instant;

use bolted_sim::fault::mix_seed;

use layers::{
    deterministic, per_layer, render_breakdown, LayerReport, TracedRep, END_TO_END, PER_LAYER,
};
use stats::median;
use trace::Span;

/// Workload sizes: the measured size, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A few nodes, for the benchmark's own tests.
    Smoke,
}

/// Check failures collected while a run goes on.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Records `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }
}

/// One untraced repetition.
#[derive(Debug, Clone)]
pub struct Plain {
    /// Host seconds spent building worlds before the measured work.
    pub setup_s: f64,
    /// Host seconds of the measured work.
    pub work_s: f64,
    /// Host seconds of everything a traced repetition also does, for the
    /// tracing overhead.
    pub wall_s: f64,
    /// Operations the measured work completed (nodes, rounds, ops).
    pub ops: f64,
    /// Checked units of work attempted.
    pub attempted: u64,
    /// Checked units of work that failed.
    pub failed: u64,
    /// Peak resident memory of the program's own data during the
    /// repetition's measured work, MiB ([`host::PeakWindow`]).
    pub peak_mib: f64,
    /// Fingerprint of the repetition's outputs.
    pub digest: String,
}

/// One traced repetition.
pub struct Traced {
    /// What the spans measured.
    pub rep: TracedRep,
    /// Host seconds of the whole repetition, set-up included.
    pub wall_s: f64,
    /// Checked units of work attempted.
    pub attempted: u64,
    /// Checked units of work that failed.
    pub failed: u64,
    /// Fingerprint of the repetition's outputs; must equal the
    /// untraced one.
    pub digest: String,
}

/// A benchmark workload.
pub trait Workload {
    /// The workload's name on the command line.
    fn name(&self) -> &'static str;
    /// Pool workers the workload runs with.
    fn workers(&self) -> usize;
    /// One untraced repetition on the inputs `seed` generates; output
    /// checks go to `checks`.
    fn untraced(&self, seed: u64, checks: &mut Checks) -> Result<Plain, String>;
    /// One traced repetition with span times counted from `epoch`.
    fn traced(&self, seed: u64, epoch: Instant, checks: &mut Checks) -> Result<Traced, String>;
}

/// Builds a workload by name.
pub fn workload(name: &str, size: Size) -> Option<Box<dyn Workload>> {
    match name {
        "provision" => Some(Box::new(provision::Provision::new(size))),
        "attest" => Some(Box::new(attest::Attest::new(size))),
        "churn" => Some(Box::new(churn::Churn::new(size))),
        _ => None,
    }
}

/// The inputs of repetition `rep` of a run with seed `seed`. Every
/// repetition draws fresh inputs, so a run's median averages over many
/// key sets and churn schedules instead of resting on one; the warm-up
/// repetition 0 repeats repetition 1's inputs, which checks that equal
/// inputs give equal outputs.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    mix_seed(seed, &["perfbench-rep", &rep.max(1).to_string()])
}

/// The result of one benchmark run.
pub struct Outcome {
    /// Checked units of work attempted.
    pub attempted: u64,
    /// Checked units of work that failed.
    pub failed: u64,
    /// Every failed check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Repetitions made: untraced ones in an untraced run, traced ones
    /// in a traced run.
    pub reps: usize,
    /// Spans of the traced repetition on the run's first inputs, one
    /// list per world.
    pub spans: Vec<Vec<Span>>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of the run's table with its unit.
    pub fn result_json(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Untraced runs repeat the workload at least this often (the first
/// repetition warms caches and is left out of the medians).
const MIN_REPS: usize = 4;
/// Traced runs make at least this many untraced/traced pairs.
const MIN_PAIRS: usize = 2;

/// Runs `w` for about `seconds`, traced or not.
pub fn run(w: &dyn Workload, seconds: f64, traced: bool, seed: u64) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: BTreeMap::new(),
        notes: Vec::new(),
        reps: 0,
        spans: Vec::new(),
    };
    let start = Instant::now();
    let crypto = traced.then(|| probe::crypto_times(seed, 16, 256));

    let mut plains: Vec<Plain> = Vec::new();
    let mut traces: Vec<Traced> = Vec::new();
    loop {
        let rep = plains.len();
        let p = w.untraced(rep_seed(seed, rep), &mut checks)?;
        out.attempted += p.attempted;
        out.failed += p.failed;
        plains.push(p);
        if traced {
            let t = w.traced(rep_seed(seed, rep), Instant::now(), &mut checks)?;
            out.attempted += t.attempted;
            out.failed += t.failed;
            traces.push(t);
        }
        let enough = if traced {
            traces.len() >= MIN_PAIRS
        } else {
            plains.len() >= MIN_REPS
        };
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Repetitions 0 and 1 ran the same inputs, as did each traced
    // repetition and its untraced partner.
    let first = &plains[1].digest;
    checks.check(&plains[0].digest == first, || {
        format!(
            "repeated inputs gave digest {} then {first}",
            plains[0].digest
        )
    });
    for (i, (p, t)) in plains.iter().zip(&traces).enumerate() {
        checks.check(p.digest == t.digest, || {
            format!(
                "traced repetition {i} digest {} differs from untraced {}",
                t.digest, p.digest
            )
        });
    }
    out.notes.push(format!(
        "{} untraced and {} traced repetitions, each on fresh inputs; repeated inputs reproduced digest {first}",
        plains.len(),
        traces.len(),
    ));
    out.reps = if traced { traces.len() } else { plains.len() };

    // The first repetition of each kind warms caches and allocator
    // pools; the metrics leave it out. The host's speed changes within a
    // run, so ops_per_s is total ops over total measured host seconds,
    // which weighs each speed by the time spent at it; a median of the
    // repetitions' rates would jump to whichever speed held longest.
    let measured = &plains[1..];
    let rate: Vec<f64> = measured.iter().map(|p| p.ops / p.work_s).collect();
    let ops_per_s = measured.iter().map(|p| p.ops).sum::<f64>()
        / measured.iter().map(|p| p.work_s).sum::<f64>();
    let setup: Vec<f64> = measured.iter().map(|p| p.setup_s).collect();
    out.metrics.insert("ops_per_s", ops_per_s);
    out.metrics.insert("setup_s", median(&setup));
    let peak: Vec<f64> = measured.iter().map(|p| p.peak_mib).collect();
    out.metrics.insert("peak_rss_anon_mib", median(&peak));
    out.notes.push(format!(
        "{}: ops_per_s {:.1} over {} repetitions (each between {:.1} and {:.1}); setup_s median {:.4}",
        w.name(),
        ops_per_s,
        rate.len(),
        rate.iter().copied().fold(f64::INFINITY, f64::min),
        rate.iter().copied().fold(0.0, f64::max),
        median(&setup),
    ));

    if let Some(crypto) = crypto {
        let reports: Vec<LayerReport> = traces
            .iter()
            .map(|t| per_layer(&t.rep, crypto.keygen_ms))
            .collect();
        // Input-determined values come from repetition 1, the run's first
        // inputs, which the warm-up repetition 0 must reproduce bit for
        // bit; host-time values are medians over the measured repetitions.
        let (warm, first) = (&reports[0], &reports[1]);
        let mut host_time: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for r in &reports[1..] {
            for (k, v) in &r.metrics {
                if !deterministic(k) {
                    host_time.entry(k).or_default().push(*v);
                }
            }
        }
        for (k, v) in host_time {
            out.metrics.insert(k, median(&v));
        }
        for (k, v) in &first.metrics {
            if deterministic(k) {
                let again = warm.metrics.get(k).copied();
                checks.check(again.map(f64::to_bits) == Some(v.to_bits()), || {
                    format!("{k}: repeated inputs gave {again:?} then {v}")
                });
                out.metrics.insert(k, *v);
            }
        }
        out.metrics.insert("crypto.keygen_ms", crypto.keygen_ms);
        out.metrics
            .insert("crypto.quote_sign_us", crypto.quote_sign_us);
        out.metrics
            .insert("crypto.quote_verify_us", crypto.quote_verify_us);
        let plain_wall = median(&measured.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let traced_wall = median(&traces[1..].iter().map(|t| t.wall_s).collect::<Vec<_>>());
        out.metrics.insert(
            "trace.overhead_share",
            (traced_wall - plain_wall) / plain_wall,
        );
        out.notes.push(format!(
            "tracing overhead: traced {traced_wall:.4} s - untraced {plain_wall:.4} s = {:+.4} s ({:+.1}%) per repetition (medians)",
            traced_wall - plain_wall,
            (traced_wall - plain_wall) / plain_wall * 100.0
        ));
        for (name, t) in &first.tails {
            out.notes.push(format!(
                "{name}: p{} = {:.6} over {} samples, {} beyond it (traced repetition on the run's first inputs)",
                t.pct, t.value, t.n, t.beyond
            ));
        }
        let keygen_share = out.metrics.get("tpm.keygen_share").copied().unwrap_or(0.0);
        out.notes
            .push(render_breakdown(w.name(), &first.shares, keygen_share));
        out.spans = std::mem::take(&mut traces[1].rep.worlds);
    }
    out.failures = checks.0;
    Ok(out)
}
