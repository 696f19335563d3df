//! The metric tables and the per-layer numbers of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, tail, Tail};
use crate::trace::{Profile, Span};
use crate::world::{SimStats, PHASES};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_anon_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.keygen_ms", "ms"),
    ("crypto.quote_sign_us", "us"),
    ("crypto.quote_verify_us", "us"),
    ("tpm.keygens_per_node", "count"),
    ("tpm.keygen_share", "ratio"),
    ("core.cloud_build_ms_per_node", "ms"),
    ("core.provision_ms_per_node", "ms"),
    ("core.unattributed_share", "ratio"),
    ("hil.calls", "count"),
    ("hil.self_ms", "ms"),
    ("hil.retries", "count"),
    ("bmi.calls", "count"),
    ("bmi.self_ms", "ms"),
    ("bmi.create_golden_ms", "ms"),
    ("firmware.calls", "count"),
    ("firmware.self_ms", "ms"),
    ("keylime.attest.calls", "count"),
    ("keylime.attest.self_us_p50", "us"),
    ("keylime.attest.self_us_tail", "us"),
    ("keylime.trusted_ratio", "ratio"),
    ("reconcile.ticks", "count"),
    ("reconcile.tick.self_ms_p50", "ms"),
    ("reconcile.tick.self_ms_tail", "ms"),
    ("reconcile.planned", "count"),
    ("reconcile.defer_ratio", "ratio"),
    ("reconcile.recoveries", "count"),
    ("pool.busy_ratio", "ratio"),
    ("pool.jobs", "count"),
    ("obs.digest_ms_per_shard", "ms"),
    ("obs.span_bytes_per_node", "bytes"),
    ("sim.phase.power-cycle_p50_s", "sim_s"),
    ("sim.phase.firmware_p50_s", "sim_s"),
    ("sim.phase.registrar_p50_s", "sim_s"),
    ("sim.phase.quote-verify_p50_s", "sim_s"),
    ("sim.phase.iscsi-attach_p50_s", "sim_s"),
    ("sim.phase.luks-unlock_p50_s", "sim_s"),
    ("sim.provision_p50_s", "sim_s"),
    ("sim.provision_tail_s", "sim_s"),
    ("sim.converge_epoch_s", "sim_s"),
    ("sim.retry_attempts", "count"),
    ("sim.faults_injected", "count"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Per-layer ratios that depend only on the workload's inputs, not on
/// host time.
const INPUT_RATIOS: &[&str] = &[
    "tpm.keygens_per_node",
    "keylime.trusted_ratio",
    "reconcile.defer_ratio",
    "fail_ratio",
];

/// Whether per-layer metric `name` is a function of the workload's inputs
/// alone (a count, a simulated time, a span size or an input ratio), so
/// that equal inputs give it bit-identical values on any host.
pub fn deterministic(name: &str) -> bool {
    INPUT_RATIOS.contains(&name)
        || PER_LAYER
            .iter()
            .any(|(n, unit)| *n == name && matches!(*unit, "count" | "sim_s" | "bytes"))
}

/// Layers in the order the host-time breakdown prints them. Spans named
/// `run.*` are the measured phases themselves; their self time is the
/// host time no timed call covers.
const BREAKDOWN: &[(&str, &str)] = &[
    ("core", "core (cloud build, tenant setup)"),
    ("bmi", "bmi (golden image + provisioning service)"),
    ("hil", "hil (isolation service)"),
    ("firmware", "firmware (boot service)"),
    ("keylime", "keylime (attestation service)"),
    ("reconcile", "reconcile (tick self time)"),
    ("obs", "obs (span render, metrics JSON, digest)"),
    (
        "run",
        "unattributed (pipeline, executor, storage model, AIK keygen)",
    ),
];

/// The median-duration metric of each phase in [`PHASES`], in order.
const PHASE_METRICS: [&str; 6] = [
    "sim.phase.power-cycle_p50_s",
    "sim.phase.firmware_p50_s",
    "sim.phase.registrar_p50_s",
    "sim.phase.quote-verify_p50_s",
    "sim.phase.iscsi-attach_p50_s",
    "sim.phase.luks-unlock_p50_s",
];

/// Everything one traced repetition measured.
pub struct TracedRep {
    /// Span recordings, one per world.
    pub worlds: Vec<Vec<Span>>,
    /// Host time outside every world's spans (the digest fold), ns.
    pub outside_ns: u64,
    /// The measured phase's root span name (`run.provision`, ...).
    pub measured: &'static str,
    /// Nodes built across all worlds.
    pub nodes: usize,
    /// Worlds (shards) in the repetition.
    pub shards: usize,
    /// AIKs created across all worlds.
    pub aiks: usize,
    /// Deterministic simulated-side counters.
    pub sim: SimStats,
    /// Workload-specific per-layer values (pool, reconcile, ...).
    pub extra: BTreeMap<&'static str, f64>,
    /// Workload-specific tails, reported with their sample counts.
    pub tails: Vec<(&'static str, Tail)>,
}

/// The per-layer numbers of one traced repetition.
pub struct LayerReport {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Share of the repetition's host time per layer, summing to 1.
    pub shares: Vec<(String, f64)>,
    /// Every tail metric with its percentile and sample count.
    pub tails: Vec<(&'static str, Tail)>,
}

/// The per-layer values of one traced repetition, and the share of its
/// host time each layer took (summing to 1).
pub fn per_layer(rep: &TracedRep, keygen_ms: f64) -> LayerReport {
    let mut profile = Profile::empty();
    let mut roots_ns = 0u64;
    for spans in &rep.worlds {
        roots_ns += spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(Span::duration_ns)
            .sum::<u64>();
        profile.merge(Profile::of(spans));
    }
    let host_ns = (roots_ns + rep.outside_ns).max(1) as f64;
    let nodes = rep.nodes.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let keygens = (rep.nodes + rep.aiks) as f64;
    m.insert("tpm.keygens_per_node", keygens / nodes);
    m.insert("tpm.keygen_share", keygens * keygen_ms * 1e6 / host_ns);
    m.insert(
        "core.cloud_build_ms_per_node",
        ms(profile.total_ns("core.cloud_build")) / nodes,
    );
    let measured_ns = profile.total_ns(rep.measured);
    m.insert(
        "core.unattributed_share",
        profile.self_ns(rep.measured) as f64 / measured_ns.max(1) as f64,
    );
    m.insert("hil.calls", profile.layer_calls("hil") as f64);
    m.insert("hil.self_ms", ms(profile.layer_self_ns("hil")));
    m.insert("hil.retries", rep.sim.hil_retries as f64);
    let golden_calls = profile.calls("bmi.create_golden");
    let golden_ns = profile.self_ns("bmi.create_golden");
    m.insert(
        "bmi.calls",
        (profile.layer_calls("bmi") - golden_calls) as f64,
    );
    m.insert("bmi.self_ms", ms(profile.layer_self_ns("bmi") - golden_ns));
    m.insert(
        "bmi.create_golden_ms",
        ms(profile.total_ns("bmi.create_golden")) / golden_calls.max(1) as f64,
    );
    m.insert("firmware.calls", profile.layer_calls("firmware") as f64);
    m.insert("firmware.self_ms", ms(profile.layer_self_ns("firmware")));

    let attest_calls = profile.calls("keylime.attest_once");
    m.insert("keylime.attest.calls", attest_calls as f64);
    let attest_us: Vec<f64> = profile
        .call_self_ns
        .get("keylime.attest_once")
        .map(|v| v.iter().map(|&ns| ns as f64 / 1e3).collect())
        .unwrap_or_default();
    let mut tails = rep.tails.clone();
    m.insert("keylime.attest.self_us_p50", median(&attest_us));
    let attest_tail = tail(&attest_us);
    m.insert("keylime.attest.self_us_tail", attest_tail.value);
    tails.push(("keylime.attest.self_us_tail", attest_tail));
    m.insert(
        "keylime.trusted_ratio",
        rep.sim.trusted_verdicts as f64 / attest_calls.max(1) as f64,
    );

    let tick_ms: Vec<f64> = profile
        .call_self_ns
        .get("reconcile.tick")
        .map(|v| v.iter().map(|&ns| ns as f64 / 1e6).collect())
        .unwrap_or_default();
    m.insert("reconcile.tick.self_ms_p50", median(&tick_ms));
    let tick_tail = tail(&tick_ms);
    m.insert("reconcile.tick.self_ms_tail", tick_tail.value);
    tails.push(("reconcile.tick.self_ms_tail", tick_tail));

    m.insert(
        "obs.digest_ms_per_shard",
        ms(profile.total_ns("obs.digest") + rep.outside_ns) / rep.shards.max(1) as f64,
    );
    for (phase, metric) in PHASES.iter().zip(PHASE_METRICS) {
        let v = rep.sim.phase_s.get(phase).cloned().unwrap_or_default();
        m.insert(metric, median(&v));
    }
    m.insert("sim.retry_attempts", rep.sim.retry_attempts as f64);
    m.insert("sim.faults_injected", rep.sim.faults_injected as f64);
    for (k, v) in &rep.extra {
        m.insert(k, *v);
    }

    let mut shares = Vec::new();
    for (layer, label) in BREAKDOWN {
        let own = profile.layer_self_ns(layer) + if *layer == "obs" { rep.outside_ns } else { 0 };
        shares.push((label.to_string(), own as f64 / host_ns));
    }
    LayerReport {
        metrics: m,
        shares,
        tails,
    }
}

/// Renders a host-time breakdown whose shares add up to 100%.
pub fn render_breakdown(workload: &str, shares: &[(String, f64)], keygen_share: f64) -> String {
    let mut out = String::new();
    let total: f64 = shares.iter().map(|(_, s)| s).sum();
    let _ = writeln!(out, "host-time breakdown of one traced {workload} run:");
    for (label, s) in shares {
        let _ = writeln!(out, "  {:>6.2}%  {label}", s * 100.0);
    }
    let _ = writeln!(out, "  {:>6.2}%  total", total * 100.0);
    let _ = write!(
        out,
        "  estimate: RSA key generation (EK at build, AIK at provision) ~{:.1}% of host time, inside core and unattributed",
        keygen_share * 100.0
    );
    out
}
