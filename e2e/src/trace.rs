//! In-memory spans recorded around calls into each layer, written out as
//! Chrome trace JSON when the traced pass ends.
//!
//! The spans are recorded from the benchmark's own files: the engine is not
//! instrumented. A layer's self time is its span minus the part of that
//! interval its child spans cover.

use crate::seam::{json, Timed};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one statement share this identifier.
    pub stmt: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records an interval measured elsewhere; returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        stmt: u64,
        parent: Option<usize>,
        t: Timed,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(t.start),
            end_ns: self.ns(t.end),
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span. `f` receives the tracer and the new span's
    /// index so it can open children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        stmt: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> (usize, R) {
        let id = self.spans.len();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, stmt });
        let start = Instant::now();
        let r = f(self, id);
        let end = Instant::now();
        self.spans[id].start_ns = self.ns(start);
        self.spans[id].end_ns = self.ns(end);
        (id, r)
    }

    /// Nanoseconds of span `id` not covered by its children (children may
    /// overlap each other; the covered part is their union, clipped to the
    /// parent).
    pub fn self_nanos(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        parent.nanos() - covered
    }

    /// The top-level span `id` descends from (itself, if it has no parent).
    pub fn root(&self, mut id: usize) -> usize {
        while let Some(p) = self.spans[id].parent {
            id = p;
        }
        id
    }

    /// The Chrome trace-event document (`chrome://tracing`, Perfetto):
    /// one complete event per span, one track per top-level span name.
    pub fn chrome_json(&self, process: &str) -> json::Value {
        let mut events = json::Value::array();
        events.push(
            json::Value::object()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", 1u64)
                .with("args", json::Value::object().with("name", process)),
        );
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = json::Value::object()
                .with("stmt", s.stmt)
                .with("self_us", self.self_nanos(id) as f64 / 1e3);
            if let Some(p) = s.parent {
                args.set("parent", self.spans[p].name);
            }
            events.push(
                json::Value::object()
                    .with("name", s.name)
                    .with("cat", s.name.split('.').next().unwrap_or("bench"))
                    .with("ph", "X")
                    .with("pid", 1u64)
                    .with("tid", track(self.spans[self.root(id)].name))
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.nanos() as f64 / 1e3)
                    .with("args", args),
            );
        }
        json::Value::object().with("displayTimeUnit", "ms").with("traceEvents", events)
    }
}

/// Whole statements, their decomposition and the stand-alone probes each
/// get a track of their own, so same-statement spans never overlap on one.
fn track(root: &str) -> u64 {
    match root {
        "stmt" => 1,
        "pieces" => 2,
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span { name, start_ns, end_ns, parent, stmt: 0 });
        }
        t
    }

    #[test]
    fn childless_span_is_all_self_time() {
        let t = tracer(&[("a", 100, 400, None)]);
        assert_eq!(t.self_nanos(0), 300);
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        let t = tracer(&[
            ("stmt", 0, 1000, None),
            ("exec", 100, 700, Some(0)),
            ("kernel", 200, 500, Some(1)),
            ("render", 700, 900, Some(0)),
        ]);
        assert_eq!(t.self_nanos(0), 1000 - 600 - 200, "grandchildren are not subtracted twice");
        assert_eq!(t.self_nanos(1), 600 - 300);
        assert_eq!(t.self_nanos(2), 300);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        let t = tracer(&[
            ("stmt", 0, 1000, None),
            ("a", 100, 500, Some(0)),
            ("b", 300, 800, Some(0)),
            ("c", 350, 400, Some(0)),
        ]);
        assert_eq!(t.self_nanos(0), 1000 - 700);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let t = tracer(&[
            ("stmt", 100, 200, None),
            ("late", 150, 900, Some(0)),
            ("out", 900, 950, Some(0)),
        ]);
        assert_eq!(t.self_nanos(0), 50);
    }

    #[test]
    fn span_records_nesting_and_chrome_events() {
        let mut t = Tracer::new();
        let (outer, inner) =
            t.span("stmt", 7, None, |t, me| t.span("sql.parse", 7, Some(me), |_, _| ()).0);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert!(t.spans[outer].start_ns <= t.spans[inner].start_ns);
        assert!(t.spans[outer].end_ns >= t.spans[inner].end_ns);
        let doc = t.chrome_json("point_read");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).expect("events");
        assert_eq!(events.len(), 3, "metadata + two spans");
        assert_eq!(events[2].get("name").and_then(|n| n.as_str()), Some("sql.parse"));
        assert_eq!(events[2].get("tid").and_then(|n| n.as_u64()), Some(1));
        json::parse(&doc.to_string_compact()).expect("valid JSON");
    }
}
