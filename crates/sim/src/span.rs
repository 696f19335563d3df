//! Structured spans: nested begin/end scopes recorded at virtual time.
//!
//! A [`Spans`] handle records a *tree*: every span has a category, a
//! name, a target (the node or resource it is about), a start/end
//! virtual time, and a set of string attributes. Two global
//! monotonic sequence numbers — one stamped at `begin`, one at `end` —
//! give a total order over all span boundaries, so tests can assert
//! cross-layer ordering invariants ("the V share was released strictly
//! after the quote-verify span closed") without comparing timestamps,
//! which may tie.
//!
//! Parentage is inferred per target: each target keeps a stack of open
//! spans, and a new span becomes a child of the top of its target's
//! stack. This is exact for the provisioning pipeline, where each node's
//! lifecycle is sequential even though many nodes run concurrently.
//!
//! Determinism: recording a span only reads `sim.now()`; it never
//! sleeps, spawns, or draws randomness, so instrumented and bare runs
//! are time- and RNG-identical. A disabled handle ([`Spans::disabled`])
//! returns the sentinel [`SpanId::NONE`] from `begin` and drops
//! everything else before any allocation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::executor::lock;
use crate::executor::Sim;
use crate::time::{SimDuration, SimTime};

/// Opaque handle to one recorded span.
///
/// `SpanId::NONE` (id 0) is the sentinel returned by a disabled
/// recorder; every operation on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The null span, returned by a disabled [`Spans`].
    pub const NONE: SpanId = SpanId(0);

    /// True for the sentinel id.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

/// One recorded span (or instant event — a span that never sleeps ends
/// at its own start time with `end_seq == seq + 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id (1-based; 0 is the disabled sentinel).
    pub id: SpanId,
    /// Enclosing span on the same target, if any.
    pub parent: Option<SpanId>,
    /// Global sequence number stamped at `begin`.
    pub seq: u64,
    /// Global sequence number stamped at `end`; `None` while open.
    pub end_seq: Option<u64>,
    /// Subsystem category, e.g. `"tenant"`, `"keylime"`, `"key"`.
    pub category: &'static str,
    /// Span name, e.g. `"power-cycle"`, `"quote-verify"`.
    pub name: &'static str,
    /// The node / resource this span is about (parent-inference key).
    pub target: String,
    /// Virtual time at `begin`.
    pub start: SimTime,
    /// Virtual time at `end`; `None` while open.
    pub end: Option<SimTime>,
    /// Attributes attached via [`Spans::attr`], in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Wall (virtual) duration; `None` while the span is open.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.saturating_since(self.start))
    }

    /// Looks up an attribute by key (last write wins).
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True once the span has ended.
    pub fn is_closed(&self) -> bool {
        self.end.is_some()
    }
}

#[derive(Default)]
struct SpansInner {
    enabled: bool,
    records: Vec<SpanRecord>,
    /// Per-target stack of open span ids (indices into `records` are
    /// `id - 1`).
    open: BTreeMap<String, Vec<SpanId>>,
}

impl SpansInner {
    fn idx(&self, id: SpanId) -> usize {
        (id.0 - 1) as usize
    }
}

/// A shared, clonable span recorder.
///
/// The boundary sequence counter lives outside the record lock as an
/// atomic, so the total order over span boundaries survives concurrent
/// recording from multiple worker threads.
#[derive(Clone, Default)]
pub struct Spans {
    inner: Arc<Mutex<SpansInner>>,
    next_seq: Arc<AtomicU64>,
}

impl Spans {
    /// Creates an enabled recorder.
    pub fn new() -> Self {
        let s = Spans::default();
        lock(&s.inner).enabled = true;
        s
    }

    /// Creates a recorder that drops everything (zero-overhead paths).
    pub fn disabled() -> Self {
        Spans::default()
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        lock(&self.inner).enabled
    }

    /// Opens a span on `target` at the current virtual time. The span
    /// nests under the innermost open span on the same target.
    pub fn begin(
        &self,
        sim: &Sim,
        category: &'static str,
        name: &'static str,
        target: &str,
    ) -> SpanId {
        let mut inner = lock(&self.inner);
        if !inner.enabled {
            return SpanId::NONE;
        }
        let id = SpanId(inner.records.len() as u64 + 1);
        // Claimed while the record lock is held, so sequence order and
        // record order agree even under concurrent recorders.
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let stack = inner.open.entry(target.to_string()).or_default();
        let parent = stack.last().copied();
        stack.push(id);
        inner.records.push(SpanRecord {
            id,
            parent,
            seq,
            end_seq: None,
            category,
            name,
            target: target.to_string(),
            start: sim.now(),
            end: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Opens a span whose close is tied to the returned guard's drop —
    /// the RAII alternative to a manual [`Spans::end`] for scopes with
    /// early returns. Lint rule L4 treats a guard-held span as closed on
    /// all paths by construction.
    pub fn guard(
        &self,
        sim: &Sim,
        category: &'static str,
        name: &'static str,
        target: &str,
    ) -> SpanGuard {
        let id = self.begin(sim, category, name, target);
        SpanGuard {
            spans: self.clone(),
            sim: sim.clone(),
            id,
        }
    }

    /// Attaches (or overwrites) an attribute on an open or closed span.
    pub fn attr(&self, id: SpanId, key: &'static str, value: impl Into<String>) {
        if id.is_none() {
            return;
        }
        let mut inner = lock(&self.inner);
        let idx = inner.idx(id);
        inner.records[idx].attrs.push((key, value.into()));
    }

    /// Closes a span at the current virtual time. If descendants on the
    /// same target are still open they are popped off the open stack
    /// (they stay open in the record — visible in [`Spans::render`] —
    /// but no longer parent future spans).
    pub fn end(&self, sim: &Sim, id: SpanId) {
        if id.is_none() {
            return;
        }
        let mut inner = lock(&self.inner);
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let idx = inner.idx(id);
        if inner.records[idx].end.is_some() {
            return; // already closed; keep the first end
        }
        inner.records[idx].end = Some(sim.now());
        inner.records[idx].end_seq = Some(seq);
        let target = inner.records[idx].target.clone();
        if let Some(stack) = inner.open.get_mut(&target) {
            if let Some(pos) = stack.iter().position(|&s| s == id) {
                stack.truncate(pos);
            }
        }
    }

    /// Records an instant event: a zero-duration span (consuming two
    /// sequence numbers, one for each boundary), nested like any other.
    pub fn event(
        &self,
        sim: &Sim,
        category: &'static str,
        name: &'static str,
        target: &str,
    ) -> SpanId {
        let id = self.begin(sim, category, name, target);
        self.end(sim, id);
        id
    }

    /// Snapshot of every record, in begin order.
    pub fn records(&self) -> Vec<SpanRecord> {
        lock(&self.inner).records.clone()
    }

    /// Number of recorded spans (events count once).
    pub fn len(&self) -> usize {
        lock(&self.inner).records.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All closed spans named `name` on `target`, in begin order.
    pub fn closed(&self, name: &str, target: &str) -> Vec<SpanRecord> {
        lock(&self.inner)
            .records
            .iter()
            .filter(|r| r.name == name && r.target == target && r.is_closed())
            .cloned()
            .collect()
    }

    /// The first span named `name` on `target`, open or closed.
    pub fn find(&self, name: &str, target: &str) -> Option<SpanRecord> {
        lock(&self.inner)
            .records
            .iter()
            .find(|r| r.name == name && r.target == target)
            .cloned()
    }

    /// Direct children of `parent`, in begin order.
    pub fn children(&self, parent: SpanId) -> Vec<SpanRecord> {
        lock(&self.inner)
            .records
            .iter()
            .filter(|r| r.parent == Some(parent))
            .cloned()
            .collect()
    }

    /// Renders the whole forest as an indented, deterministic multi-line
    /// string — the golden-trace surface: two runs under the same seed
    /// must render byte-identically.
    pub fn render(&self) -> String {
        let inner = lock(&self.inner);
        // Children of each span, in record order.
        let mut kids: BTreeMap<Option<SpanId>, Vec<usize>> = BTreeMap::new();
        for (i, r) in inner.records.iter().enumerate() {
            kids.entry(r.parent).or_default().push(i);
        }
        let mut out = String::new();
        let mut stack: Vec<(usize, usize)> = kids
            .get(&None)
            .map(|roots| roots.iter().rev().map(|&i| (i, 0)).collect())
            .unwrap_or_default();
        while let Some((i, depth)) = stack.pop() {
            let r = &inner.records[i];
            let _ = write!(
                out,
                "{:indent$}{}/{} target={} start={}",
                "",
                r.category,
                r.name,
                r.target,
                r.start,
                indent = depth * 2
            );
            match r.end {
                Some(e) => {
                    let _ = write!(out, " dur={}", e.saturating_since(r.start));
                }
                None => {
                    let _ = write!(out, " [open]");
                }
            }
            for (k, v) in &r.attrs {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            if let Some(cs) = kids.get(&Some(r.id)) {
                for &c in cs.iter().rev() {
                    stack.push((c, depth + 1));
                }
            }
        }
        out
    }
}

/// Ends its span when dropped; created by [`Spans::guard`].
///
/// The span can still be decorated or closed early through [`SpanGuard::id`]
/// — [`Spans::end`] keeps the first close, so the drop becomes a no-op.
pub struct SpanGuard {
    spans: Spans,
    sim: Sim,
    id: SpanId,
}

impl SpanGuard {
    /// The guarded span's id, for attaching attributes.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.spans.end(&self.sim, self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_closes_span_on_drop_even_on_early_return() {
        let sim = Sim::new();
        let sp = Spans::new();
        fn scope(sim: &Sim, sp: &Spans, bail: bool) -> Option<u32> {
            let g = sp.guard(sim, "tenant", "guarded", "n1");
            sp.attr(g.id(), "mode", if bail { "bail" } else { "run" });
            if bail {
                return None;
            }
            Some(1)
        }
        assert_eq!(scope(&sim, &sp, true), None);
        let rec = sp.find("guarded", "n1").expect("span recorded");
        assert!(rec.is_closed(), "guard closed the span on the early return");
        assert_eq!(rec.attr("mode"), Some("bail"));
    }

    #[test]
    fn guard_drop_is_noop_after_manual_close() {
        let sim = Sim::new();
        let sp = Spans::new();
        let first_end = {
            let g = sp.guard(&sim, "tenant", "manual", "n1");
            sp.end(&sim, g.id());
            sp.find("manual", "n1").and_then(|r| r.end_seq)
        };
        // The drop after the manual end kept the first close.
        assert_eq!(sp.find("manual", "n1").and_then(|r| r.end_seq), first_end);
    }

    #[test]
    fn nesting_is_inferred_per_target() {
        let sim = Sim::new();
        let sp = Spans::new();
        let root = sp.begin(&sim, "tenant", "provision", "n1");
        let other = sp.begin(&sim, "tenant", "provision", "n2");
        let child = sp.begin(&sim, "tenant", "firmware", "n1");
        sp.end(&sim, child);
        sp.end(&sim, other);
        sp.end(&sim, root);
        let recs = sp.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].parent, None);
        assert_eq!(recs[1].parent, None, "different target must not nest");
        assert_eq!(recs[2].parent, Some(root));
    }

    #[test]
    fn seq_totally_orders_boundaries() {
        let sim = Sim::new();
        let sp = Spans::new();
        let a = sp.begin(&sim, "c", "a", "n1");
        sp.end(&sim, a);
        let ev = sp.event(&sim, "key", "release", "n1");
        let ra = sp.find("a", "n1").unwrap();
        let re = sp.records().iter().find(|r| r.id == ev).cloned().unwrap();
        assert!(re.seq > ra.end_seq.unwrap(), "event strictly after close");
        assert_eq!(re.end_seq, Some(re.seq + 1), "instant event");
        assert_eq!(re.duration(), Some(SimDuration::ZERO));
    }

    #[test]
    fn disabled_records_nothing() {
        let sim = Sim::new();
        let sp = Spans::disabled();
        let id = sp.begin(&sim, "c", "x", "n1");
        assert!(id.is_none());
        sp.attr(id, "k", "v");
        sp.end(&sim, id);
        sp.event(&sim, "c", "y", "n1");
        assert!(sp.is_empty());
    }

    #[test]
    fn closing_a_parent_pops_stranded_children() {
        let sim = Sim::new();
        let sp = Spans::new();
        let root = sp.begin(&sim, "c", "root", "n1");
        let _stranded = sp.begin(&sim, "c", "stranded", "n1");
        sp.end(&sim, root); // child never ended
        let next = sp.begin(&sim, "c", "next", "n1");
        let recs = sp.records();
        let next_rec = recs.iter().find(|r| r.id == next).unwrap();
        assert_eq!(next_rec.parent, None, "stale open child must not parent");
        assert!(sp.render().contains("[open]"));
    }

    #[test]
    fn attrs_and_duration() {
        let sim = Sim::new();
        let sp = Spans::new();
        let (sim2, sp2) = (sim.clone(), sp.clone());
        sim.block_on(async move {
            let s = sp2.begin(&sim2, "tenant", "firmware", "n1");
            sp2.attr(s, "profile", "charlie");
            sim2.sleep(SimDuration::from_secs(5)).await;
            sp2.end(&sim2, s);
        });
        let r = sp.find("firmware", "n1").unwrap();
        assert_eq!(r.attr("profile"), Some("charlie"));
        assert_eq!(r.duration(), Some(SimDuration::from_secs(5)));
        assert!(sp.render().contains("profile=charlie"));
    }
}
