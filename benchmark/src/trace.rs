//! In-memory spans, stamped only by this package around calls into the
//! crates, and written out when the process ends.
//!
//! A span is `(name, start, end, parent, query_id)`. A layer's *self time*
//! is its span minus the part of it that its child spans cover; what the
//! children of a root span leave uncovered is time the trace cannot name.

use crate::json::Json;
use std::time::Instant;

/// Index of a span inside one [`Tracer`]; `NONE` for "no parent".
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one query (or one wire request) share this; `NONE` outside.
    pub query_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans one thread can hold; beyond it spans are counted, not kept, so the
/// timed loop never reallocates.
const CAPACITY: usize = 1 << 19;

/// One thread's span buffer. Disabled tracers record nothing, so the same
/// workload code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
            dropped: 0,
        }
    }

    pub fn disabled() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now. Close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, query_id: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            query_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Record a span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        query_id: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.begin(name, parent, query_id);
        if id != NONE {
            let span = &mut self.spans[id as usize];
            span.start_ns = start.duration_since(self.origin).as_nanos() as u64;
            span.end_ns = end.duration_since(self.origin).as_nanos() as u64;
        }
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part covered by its
/// direct children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.clamp(p.start_ns, p.end_ns);
            let end = s.end_ns.clamp(p.start_ns, p.end_ns);
            children[s.parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Share (in %) of the root spans' time that no child span covers.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&selfs) {
        if s.parent == NONE {
            total += s.duration_ns();
            uncovered += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * uncovered as f64 / total as f64
    }
}

/// The trace file: one object per span plus its computed self time.
pub fn to_json(workload: &str, spans: &[Span], dropped: u64) -> Json {
    let selfs = self_times(spans);
    let num = |v: u64| Json::Num(v as f64);
    let link = |v: u32| {
        if v == NONE {
            Json::Null
        } else {
            Json::Num(f64::from(v))
        }
    };
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("dropped_spans", num(dropped)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(selfs)
                    .enumerate()
                    .map(|(id, (s, own))| {
                        Json::obj(vec![
                            ("id", num(id as u64)),
                            ("name", Json::str(s.name)),
                            ("start_ns", num(s.start_ns)),
                            ("end_ns", num(s.end_ns)),
                            ("parent", link(s.parent)),
                            ("query_id", link(s.query_id)),
                            ("self_ns", num(own)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query_id: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = [
            span("rep", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  // overlaps a by 10
            span("c", 90, 120, 0), // clipped to the parent's end
            span("a.inner", 15, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
        assert!((unattributed_pct(&spans) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("x", NONE, 0);
        t.end(id);
        assert_eq!(id, NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let root = a.begin("request", NONE, 1);
        a.end(root);
        let mut b = Tracer::new(true, origin);
        let r = b.begin("request", NONE, 2);
        let child = b.begin("write", r, 2);
        b.end(child);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, NONE);
        assert_eq!(a.spans().iter().filter(|s| s.name == "request").count(), 2);
    }
}
