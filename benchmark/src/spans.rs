//! The benchmark's own span recorder: one span around each call into a
//! layer of the program, kept in memory and written out when the run
//! ends. Nothing here reaches into the program; its own stage trees
//! (`ExecResult.trace`) are read separately as program counts.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u64,
}

/// Per-name totals: how often a span ran, its total time, and its self
/// time (total minus the part its child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    op: Cell<u64>,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            origin,
            op: Cell::new(0),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// A tracer for another thread, on the same clock and in the same
    /// state; hand its spans back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        let t = Tracer::new(self.origin);
        t.set_enabled(self.enabled());
        t
    }

    /// Append the spans of a forked tracer, keeping their parent links.
    pub fn absorb(&self, forked: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let offset = spans.len();
        spans.extend(forked.into_spans().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Run `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op.get() });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// The `--out` rendering: per-name totals plus the raw spans of the
/// first `max_raw` recorded (the first pass covers every distinct op).
pub fn to_json(spans: &[Span], max_raw: usize) -> Json {
    let by_name = totals(spans)
        .into_iter()
        .map(|(name, t)| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("count", Json::Num(t.count as f64)),
                ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
            ])
        })
        .collect();
    let raw = spans
        .iter()
        .take(max_raw)
        .map(|s| {
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("op", Json::Num(s.op as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ])
        })
        .collect();
    Json::obj(vec![("by_name", Json::Arr(by_name)), ("spans", Json::Arr(raw))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span { name: "op", start_ns: 0, end_ns: 100, parent: None, op: 1 },
            Span { name: "parse", start_ns: 5, end_ns: 15, parent: Some(0), op: 1 },
            Span { name: "execute", start_ns: 15, end_ns: 95, parent: Some(0), op: 1 },
        ];
        let t = totals(&spans);
        assert_eq!(t["op"], SpanTotals { count: 1, total_ns: 100, self_ns: 10 });
        assert_eq!(t["execute"].self_ns, 80);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(Instant::now());
        assert_eq!(tr.span("x", || 7), 7);
        tr.set_enabled(true);
        tr.span("outer", || tr.span("inner", || ()));
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
