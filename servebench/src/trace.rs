//! Spans recorded by the benchmark's own code around each call into a
//! layer, kept in memory and written out when the run ends, plus the
//! rollup that turns them into per-layer self times.

use crate::load::Sample;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One timed interval. `parent == 0` marks a root span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span buffer.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// A request's spans: the harness root (due → done), the wait for
    /// the lock (sent → called), and the service call (called → done).
    pub fn record_op(&mut self, s: &Sample) {
        let request = next_id();
        let root = next_id();
        let name = s.class.name();
        self.spans.push(Span {
            request,
            id: root,
            parent: 0,
            layer: "harness",
            name,
            start: s.due.min(s.sent),
            end: s.done,
        });
        self.spans.push(Span {
            request,
            id: next_id(),
            parent: root,
            layer: "lock",
            name,
            start: s.sent,
            end: s.called,
        });
        self.spans.push(Span {
            request,
            id: next_id(),
            parent: root,
            layer: "service",
            name,
            start: s.called,
            end: s.done,
        });
    }

    /// Times `f` as a root span of its own request.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            request: next_id(),
            id: next_id(),
            parent: 0,
            layer,
            name,
            start,
            end,
        });
        out
    }
}

/// Per-(layer, name) totals: span count, summed duration and summed
/// self time (duration minus the part covered by child spans).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Rollup {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Rollup {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Rolls spans up by `(layer, name)`. Children of one parent are
/// sequential, so their durations sum without overlap.
pub fn rollup(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Rollup> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur();
    }
    let mut out: BTreeMap<(&'static str, &'static str), Rollup> = BTreeMap::new();
    for s in spans {
        let r = out.entry((s.layer, s.name)).or_default();
        r.count += 1;
        r.total_ns += s.dur();
        r.self_ns += s
            .dur()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Self time of a whole layer, summed over its span names.
pub fn layer_self_ns(roll: &BTreeMap<(&'static str, &'static str), Rollup>, layer: &str) -> u64 {
    roll.iter()
        .filter(|((l, _), _)| *l == layer)
        .map(|(_, r)| r.self_ns)
        .sum()
}

/// Writes spans as tab-separated lines with a header.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "request\tspan\tparent\tlayer\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.request, s.id, s.parent, s.layer, s.name, s.start, s.end
        )?;
    }
    f.flush()
}
