//! A tiny labelled-metrics registry: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Every series is keyed by one flat string: `name{k=v,k=v}`, or the
//! bare `name` when the label slice is empty. Labels are rendered in
//! the order the instrumentation passes them — call sites use a fixed
//! order, so equal label sets always render equally. Storage is one
//! `BTreeMap<String, _>` per kind over exactly the keys
//! [`MetricsSnapshot`] exports, so iteration, [`Metrics::snapshot`] (a
//! clone of the maps), and the JSON export are fully deterministic: two
//! runs under the same seed serialise byte-identically.
//!
//! The hot path does not allocate: an update renders its key with
//! `push_str` into a scratch `String` kept inside the registry and
//! looks the series up by `&str`; only the first update of a new series
//! copies the key into the map.
//!
//! Histograms combine fixed bucket bounds (cumulative-style counts:
//! bucket `i` counts observations `<= bounds[i]`, with one overflow
//! bucket) with an [`OnlineStats`] for exact mean/min/max.
//!
//! Determinism: updating a metric never reads the clock, sleeps, or
//! draws randomness. A disabled registry ([`Metrics::disabled`]) drops
//! every update before rendering the key.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use std::sync::{Arc, Mutex};

use crate::executor::lock;
use crate::stats::OnlineStats;
use crate::time::SimDuration;

/// Default histogram bucket bounds, in seconds: spans provisioning-phase
/// scales from milliseconds to minutes.
pub const DEFAULT_BUCKETS: &[f64] = &[0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0];

/// Renders the series key `name{k=v,...}` (bare `name` without labels)
/// into `out`, replacing its contents.
fn render_key(out: &mut String, name: &str, labels: &[(&str, &str)]) {
    out.clear();
    out.push_str(name);
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
}

/// Applies `f` to the series `key` in `map`. A new series starts from
/// `init()` and is the only case that copies the key.
fn update<V>(
    map: &mut BTreeMap<String, V>,
    key: &str,
    init: impl FnOnce() -> V,
    f: impl FnOnce(&mut V),
) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => {
            let mut v = init();
            f(&mut v);
            map.insert(key.to_string(), v);
        }
    }
}

/// One fixed-bucket histogram series.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Upper bounds, ascending; observations land in the first bucket
    /// whose bound is `>= x`, or the overflow slot.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` counts (last is overflow).
    pub counts: Vec<u64>,
    /// Exact running stats over all observations.
    pub stats: OnlineStats,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            stats: OnlineStats::new(),
        }
    }

    fn observe(&mut self, x: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.stats.push(x);
    }
}

#[derive(Default)]
struct MetricsInner {
    enabled: bool,
    /// Scratch buffer the update path renders series keys into, so a
    /// hit on an existing series allocates nothing.
    key: String,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shared, clonable metrics registry.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<MetricsInner>>,
}

impl Metrics {
    /// Creates an enabled registry.
    pub fn new() -> Self {
        let m = Metrics::default();
        lock(&m.inner).enabled = true;
        m
    }

    /// Creates a registry that drops every update.
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        lock(&self.inner).enabled
    }

    /// Adds `delta` to the counter `name{labels}`.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        if !inner.enabled {
            return;
        }
        render_key(&mut inner.key, name, labels);
        update(&mut inner.counters, &inner.key, || 0, |c| *c += delta);
    }

    /// Increments the counter `name{labels}` by one.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Sets the gauge `name{labels}`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        if !inner.enabled {
            return;
        }
        render_key(&mut inner.key, name, labels);
        update(&mut inner.gauges, &inner.key, || value, |g| *g = value);
    }

    /// Observes `x` into the histogram `name{labels}` with
    /// [`DEFAULT_BUCKETS`] bounds (set on first observation).
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], x: f64) {
        self.observe_with(name, labels, x, DEFAULT_BUCKETS);
    }

    /// Observes a duration (as seconds) into a histogram.
    pub fn observe_duration(&self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
        self.observe(name, labels, d.as_secs_f64());
    }

    /// [`Metrics::observe`] with explicit bucket bounds (used only when
    /// the series is created).
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], x: f64, bounds: &[f64]) {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        if !inner.enabled {
            return;
        }
        render_key(&mut inner.key, name, labels);
        update(
            &mut inner.histograms,
            &inner.key,
            || Histogram::new(bounds),
            |h| h.observe(x),
        );
    }

    /// Reads a counter; missing series read as 0.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        render_key(&mut inner.key, name, labels);
        inner.counters.get(&inner.key).copied().unwrap_or(0)
    }

    /// Sum of a counter across all label sets: the bare `name` series
    /// plus every `name{...}` series, and no other name it prefixes.
    pub fn counter_total(&self, name: &str) -> u64 {
        lock(&self.inner)
            .counters
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Reads a gauge, if set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        render_key(&mut inner.key, name, labels);
        inner.gauges.get(&inner.key).copied()
    }

    /// Reads a histogram series, if any observations landed.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        render_key(&mut inner.key, name, labels);
        inner.histograms.get(&inner.key).cloned()
    }

    /// A stable point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock(&self.inner);
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Shorthand: `snapshot().to_json()`.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Point-in-time copy of a [`Metrics`] registry, ordered and
/// deterministically serialisable.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `name{k=v,...}` → count.
    pub counters: BTreeMap<String, u64>,
    /// `name{k=v,...}` → value.
    pub gauges: BTreeMap<String, f64>,
    /// `name{k=v,...}` → histogram.
    pub histograms: BTreeMap<String, Histogram>,
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` gives the shortest round-trippable form, deterministic
        // across runs and platforms.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

impl MetricsSnapshot {
    /// Serialises the snapshot as JSON with fully deterministic key
    /// order (hand-rolled — the workspace builds offline, no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_string(&mut out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_string(&mut out, k);
            out.push_str(": ");
            push_f64(&mut out, *v);
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_string(&mut out, k);
            out.push_str(": {\"count\": ");
            let _ = write!(out, "{}", h.stats.count());
            out.push_str(", \"mean\": ");
            push_f64(
                &mut out,
                if h.stats.count() > 0 {
                    h.stats.mean()
                } else {
                    0.0
                },
            );
            out.push_str(", \"min\": ");
            push_f64(
                &mut out,
                if h.stats.count() > 0 {
                    h.stats.min()
                } else {
                    0.0
                },
            );
            out.push_str(", \"max\": ");
            push_f64(
                &mut out,
                if h.stats.count() > 0 {
                    h.stats.max()
                } else {
                    0.0
                },
            );
            out.push_str(", \"bounds\": [");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_f64(&mut out, *b);
            }
            out.push_str("], \"counts\": [");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = Metrics::new();
        m.inc("retry_attempts", &[("op", "bmc.power"), ("target", "n1")]);
        m.inc("retry_attempts", &[("op", "bmc.power"), ("target", "n1")]);
        m.inc("retry_attempts", &[("op", "bmc.power"), ("target", "n2")]);
        assert_eq!(
            m.counter("retry_attempts", &[("op", "bmc.power"), ("target", "n1")]),
            2
        );
        assert_eq!(
            m.counter("retry_attempts", &[("op", "bmc.power"), ("target", "n2")]),
            1
        );
        assert_eq!(m.counter_total("retry_attempts"), 3);
        assert_eq!(
            m.counter("retry_attempts", &[("op", "x"), ("target", "n1")]),
            0
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::disabled();
        m.inc("c", &[]);
        m.add("c", &[("k", "v")], 3);
        m.set_gauge("g", &[], 1.0);
        m.observe("h", &[], 0.5);
        let snap = m.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        // Updates return before rendering, so the scratch key stays empty.
        assert!(lock(&m.inner).key.is_empty());
    }

    #[test]
    fn counter_total_matches_whole_names_only() {
        let m = Metrics::new();
        m.add("storage_read", &[("target", "a")], 2);
        m.add("storage_read_ops", &[("target", "a")], 5);
        m.add("storage_read_bytes", &[], 7);
        assert_eq!(m.counter_total("storage_read"), 2);
        assert_eq!(m.counter_total("storage_read_ops"), 5);
        assert_eq!(m.counter_total("storage"), 0);
        m.add("a", &[], 1);
        m.add("a", &[("x", "1")], 10);
        m.add("ab", &[("x", "1")], 100);
        assert_eq!(m.counter_total("a"), 11);
    }

    /// Pins the exported JSON byte for byte over a mixed update
    /// sequence: bare and labelled series, two labels kept in call
    /// order, names that prefix other names (`_` sorts before `{`), an
    /// overwritten gauge, and histogram bounds fixed at creation.
    #[test]
    fn json_export_is_pinned() {
        let m = Metrics::new();
        m.inc("storage_read_ops", &[("target", "img-a")]);
        m.add("storage_read", &[], 5);
        m.add("storage_read_bytes", &[("target", "img-a")], 4096);
        m.add("storage_read", &[("target", "img-b"), ("op", "x")], 2);
        m.inc("storage_read_ops", &[("target", "img-a")]);
        m.set_gauge("free_nodes", &[("pool", "p1")], 3.5);
        m.set_gauge("free_nodes", &[("pool", "p1")], 2.0);
        m.set_gauge("free", &[], 0.25);
        m.observe_with("phase_seconds", &[("phase", "boot")], 0.2, &[0.1, 1.0]);
        m.observe_with("phase_seconds", &[("phase", "boot")], 5.0, &[0.5]);
        m.observe("phase", &[], 0.05);
        let expected = r#"{
  "counters": {
    "storage_read": 5,
    "storage_read_bytes{target=img-a}": 4096,
    "storage_read_ops{target=img-a}": 2,
    "storage_read{target=img-b,op=x}": 2
  },
  "gauges": {
    "free": 0.25,
    "free_nodes{pool=p1}": 2.0
  },
  "histograms": {
    "phase": {"count": 1, "mean": 0.05, "min": 0.05, "max": 0.05, "bounds": [0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0], "counts": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]},
    "phase_seconds{phase=boot}": {"count": 2, "mean": 2.6, "min": 0.2, "max": 5.0, "bounds": [0.1, 1.0], "counts": [0, 1, 1]}
  }
}"#;
        assert_eq!(m.to_json(), expected);
        // Labels are keyed in call order, not sorted.
        assert_eq!(
            m.counter("storage_read", &[("op", "x"), ("target", "img-b")]),
            0
        );
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = Metrics::new();
        for x in [0.05, 0.05, 2.0, 1000.0] {
            m.observe_with("t", &[], x, &[0.1, 1.0, 10.0]);
        }
        let h = m.histogram("t", &[]).unwrap();
        assert_eq!(h.counts, vec![2, 0, 1, 1]);
        assert_eq!(h.stats.count(), 4);
        assert_eq!(h.stats.max(), 1000.0);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let build = || {
            let m = Metrics::new();
            m.inc("b_counter", &[("op", "z")]);
            m.inc("a_counter", &[]);
            m.set_gauge("free", &[], 3.0);
            m.observe_duration("phase", &[("phase", "post")], SimDuration::from_secs(90));
            m.to_json()
        };
        let a = build();
        assert_eq!(a, build());
        let ai = a.find("a_counter").unwrap();
        let bi = a.find("b_counter").unwrap();
        assert!(ai < bi, "keys sorted");
        assert!(a.contains("\"phase{phase=post}\""));
        assert!(a.contains("\"count\": 1"));
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let m = Metrics::new();
        let j = m.to_json();
        assert!(j.contains("\"counters\": {}"));
        assert!(j.contains("\"gauges\": {}"));
        assert!(j.contains("\"histograms\": {}"));
    }
}
