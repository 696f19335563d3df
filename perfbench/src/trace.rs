//! Host-time spans recorded from outside the program.
//!
//! A [`Recorder`] keeps spans (id, parent, name, start, end) in memory.
//! Synchronous calls are wrapped in [`Recorder::scope`]; async calls in
//! [`Recorder::timed`], which records one span per `poll`, so a call's
//! host time is the time spent inside its polls, not the virtual time it
//! sleeps. All polls of one async call share a `call` id. One recorder
//! serves one simulated world, which a single thread drives, so the stack
//! of open spans gives every span its parent.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Instant;

use bolted_core::BoxFuture;
use bolted_sim::lock;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based id; ids are dense and in start order.
    pub id: u32,
    /// Enclosing span, 0 for a root.
    pub parent: u32,
    /// The call this span belongs to: its own id for a sync call, the
    /// first poll's id for every poll of an async call.
    pub call: u32,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// An in-memory span recorder for one simulated world.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A recorder whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch,
            inner: Mutex::new(Inner::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one and returns its id.
    /// `call` groups it with earlier polls of the same async call.
    pub fn begin(&self, name: &'static str, call: Option<u32>) -> u32 {
        let mut inner = lock(&self.inner);
        let id = u32::try_from(inner.spans.len() + 1).unwrap_or(u32::MAX);
        let parent = inner.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        inner.spans.push(Span {
            id,
            parent,
            call: call.unwrap_or(id),
            name,
            start_ns,
            end_ns: 0,
        });
        inner.open.push(id);
        id
    }

    /// Closes span `id`.
    pub fn end(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut inner = lock(&self.inner);
        if let Some(span) = inner.spans.get_mut(id as usize - 1) {
            span.end_ns = end_ns;
        }
        if let Some(pos) = inner.open.iter().rposition(|&o| o == id) {
            inner.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, None);
        let out = f();
        self.end(id);
        out
    }

    /// Wraps an async call so that each of its polls is a span.
    pub fn timed<'a, T: 'a>(
        self: &Arc<Self>,
        name: &'static str,
        fut: BoxFuture<'a, T>,
    ) -> BoxFuture<'a, T> {
        Box::pin(Timed {
            rec: Arc::clone(self),
            name,
            call: None,
            fut,
        })
    }

    /// A copy of every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.inner).spans.clone()
    }
}

struct Timed<'a, T> {
    rec: Arc<Recorder>,
    name: &'static str,
    call: Option<u32>,
    fut: BoxFuture<'a, T>,
}

impl<T> Future for Timed<'_, T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        let id = this.rec.begin(this.name, this.call);
        this.call.get_or_insert(id);
        let out = this.fut.as_mut().poll(cx);
        this.rec.end(id);
        out
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != 0 {
            if let Some(p) = own.get_mut(s.parent as usize - 1) {
                *p = p.saturating_sub(s.duration_ns());
            }
        }
    }
    own
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    /// Calls (an async call counts once, however many polls it took).
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed wall duration of every poll, ns.
    pub total_ns: u64,
}

/// Folds spans into totals keyed by name, and self time per call keyed
/// by name (for latency percentiles).
pub struct Profile {
    /// Totals per span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Self time of each call, per span name, in call order.
    pub call_self_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Profile {
    /// Builds the profile of one recorder's spans.
    pub fn of(spans: &[Span]) -> Profile {
        let own = self_times(spans);
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        let mut per_call: BTreeMap<u32, (&'static str, u64)> = BTreeMap::new();
        for (s, &own_ns) in spans.iter().zip(&own) {
            let t = by_name.entry(s.name).or_default();
            if s.call == s.id {
                t.calls += 1;
            }
            t.self_ns += own_ns;
            t.total_ns += s.duration_ns();
            per_call.entry(s.call).or_insert((s.name, 0)).1 += own_ns;
        }
        let mut call_self_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (name, ns) in per_call.into_values() {
            call_self_ns.entry(name).or_default().push(ns);
        }
        Profile {
            by_name,
            call_self_ns,
        }
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: Profile) {
        for (name, t) in other.by_name {
            let mine = self.by_name.entry(name).or_default();
            mine.calls += t.calls;
            mine.self_ns += t.self_ns;
            mine.total_ns += t.total_ns;
        }
        for (name, v) in other.call_self_ns {
            self.call_self_ns.entry(name).or_default().extend(v);
        }
    }

    /// An empty profile.
    pub fn empty() -> Profile {
        Profile {
            by_name: BTreeMap::new(),
            call_self_ns: BTreeMap::new(),
        }
    }

    /// Calls of every span whose layer is `layer`.
    pub fn layer_calls(&self, layer: &str) -> u64 {
        self.layer_iter(layer).map(|t| t.calls).sum()
    }

    /// Self time of every span whose layer is `layer`, ns.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.layer_iter(layer).map(|t| t.self_ns).sum()
    }

    /// Self time of the spans named `name`, ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.self_ns)
    }

    /// Wall time of the spans named `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.total_ns)
    }

    /// Calls of the spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.calls)
    }

    fn layer_iter<'s>(&'s self, layer: &'s str) -> impl Iterator<Item = &'s NameTotals> + 's {
        self.by_name
            .iter()
            .filter(move |(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, t)| t)
    }
}

/// Writes spans as JSON lines (`id`, `parent`, `call`, `name`, `start_ns`,
/// `end_ns`), one recorder after another, tagged with its world index.
pub fn write_jsonl(path: &std::path::Path, worlds: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (world, spans) in worlds.iter().enumerate() {
        for s in spans {
            writeln!(
                out,
                "{{\"world\":{world},\"id\":{},\"parent\":{},\"call\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.call, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
