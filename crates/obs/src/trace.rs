//! Structured tracing: one statement's hierarchical spans across threads,
//! recorded into per-lane ring buffers and exported as Chrome trace-event
//! JSON (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
//!
//! # Model
//!
//! A [`Tracer`] belongs to one statement: `EXPLAIN TRACE` creates it and
//! hands it to the executor in `ExecOptions::trace`. It owns a set of
//! **lanes**, one per logical thread of execution: `exec` for the query
//! driver and `worker-{w}` for each morsel worker. A lane hands out RAII
//! [`Span`] guards; dropping the guard closes the span and records one
//! [`TraceEvent`] into the lane's bounded ring buffer (oldest events are
//! evicted first). Spans on one lane nest like a stack, which is exactly
//! the discipline the RAII guard enforces, so parent links come for free
//! and the Chrome "X" (complete) events render as a flame graph.
//!
//! # ID scheme
//!
//! Span ids come from one per-tracer atomic counter (never 0 — 0 means "no
//! parent"). Lane ids are dense in creation order and name-keyed: a
//! statement's parallel operators run one after another, so reusing the
//! `worker-{w}` lane of an earlier operator keeps its spans nested.
//!
//! # Cost
//!
//! Not tracing means `ExecOptions::trace` is `None`: call sites check the
//! `Option` and take [`Span::noop`], an inert guard with no allocation, no
//! lock and no clock read. Tracing is record-only: it never branches on
//! data values, so it cannot perturb query results (see
//! `tests/parallel_equiv.rs`).

use crate::json;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Events kept per lane before the oldest is evicted.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One closed span: a named interval on a lane, with its ids and arguments.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (operator, morsel, fsync, ...).
    pub name: String,
    /// Category, used by trace viewers to color/filter (`exec`, `wal`, ...).
    pub cat: &'static str,
    /// Lane id, exported as the Chrome `tid`.
    pub tid: u64,
    /// This span's id (unique per tracer, never 0).
    pub span_id: u64,
    /// Enclosing span's id on the same lane, 0 for a root span.
    pub parent_id: u64,
    /// Start, nanoseconds since the tracer's origin instant.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin instant.
    pub end_ns: u64,
    /// Span arguments (counters, deltas), exported as Chrome `args`.
    pub args: Vec<(String, json::Value)>,
}

#[derive(Debug, Default)]
struct LaneState {
    ring: VecDeque<TraceEvent>,
    /// Events evicted because the ring was full.
    dropped: u64,
    /// Stack of currently-open span ids on this lane.
    open: Vec<u64>,
}

#[derive(Debug)]
struct LaneInner {
    name: String,
    tid: u64,
    state: Mutex<LaneState>,
}

#[derive(Debug)]
struct TracerInner {
    origin: Instant,
    next_span: AtomicU64,
    capacity: usize,
    lanes: Mutex<Vec<Arc<LaneInner>>>,
}

/// A lock-light, thread-safe span recorder. Cheap to clone (shared state).
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh tracer with the default ring capacity.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A fresh tracer keeping at most `capacity` events per lane.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                origin: Instant::now(),
                next_span: AtomicU64::new(0),
                capacity,
                lanes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The lane named `name`, creating it on first use. Lanes are keyed by
    /// name so repeated lookups share one ring. **A lane requires the
    /// caller to serialize its spans** (one thread at a time) — overlapping
    /// spans on one lane would break Chrome nesting.
    pub fn lane(&self, name: &str) -> Lane {
        let mut lanes = self.inner.lanes.lock();
        let lane = match lanes.iter().find(|l| l.name == name) {
            Some(l) => Arc::clone(l),
            None => {
                let l = Arc::new(LaneInner {
                    name: name.to_string(),
                    tid: lanes.len() as u64 + 1,
                    state: Mutex::new(LaneState::default()),
                });
                lanes.push(Arc::clone(&l));
                l
            }
        };
        Lane { tracer: Arc::clone(&self.inner), lane }
    }

    /// Every recorded event, across all lanes, sorted by start time (ties:
    /// longer span first, so parents precede their children).
    pub fn events(&self) -> Vec<TraceEvent> {
        let lanes = self.inner.lanes.lock();
        let mut events: Vec<TraceEvent> = Vec::new();
        for lane in lanes.iter() {
            events.extend(lane.state.lock().ring.iter().cloned());
        }
        events.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        events
    }

    /// Total events evicted from full rings.
    pub fn dropped(&self) -> u64 {
        self.inner.lanes.lock().iter().map(|l| l.state.lock().dropped).sum()
    }

    /// Exports the recorded spans as a Chrome trace-event JSON document:
    /// `{"traceEvents": [...]}` with one `"M"` thread-name metadata event
    /// per lane and one `"X"` complete event per span, sorted by start
    /// time. Timestamps are microseconds (`ts`/`dur`), floor-truncated from
    /// nanoseconds — the floor is monotone, so child spans stay inside
    /// their parents.
    pub fn export_chrome_json(&self) -> json::Value {
        let mut arr = json::Value::array();
        {
            let lanes = self.inner.lanes.lock();
            for lane in lanes.iter() {
                arr.push(
                    json::Value::object()
                        .with("ph", "M")
                        .with("name", "thread_name")
                        .with("pid", 1u64)
                        .with("tid", lane.tid)
                        .with("args", json::Value::object().with("name", lane.name.as_str())),
                );
            }
        }
        for e in self.events() {
            arr.push(chrome_event(&e));
        }
        json::Value::object().with("traceEvents", arr).with("displayTimeUnit", "ms")
    }

    /// Writes [`Tracer::export_chrome_json`] to `path` (pretty-printed).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.export_chrome_json().to_string_pretty())
    }

    /// Renders the recorded spans as a text tree, one section per lane,
    /// children indented under their parents. At most `max_children`
    /// children are shown per node (`… (+N more)` marks the rest) so
    /// morsel-heavy traces stay readable.
    pub fn render_span_tree(&self, max_children: usize) -> String {
        let events = self.events();
        let lanes: Vec<(u64, String)> = {
            let lanes = self.inner.lanes.lock();
            lanes.iter().map(|l| (l.tid, l.name.clone())).collect()
        };
        let mut out = String::new();
        for (tid, name) in lanes {
            let lane_events: Vec<&TraceEvent> = events.iter().filter(|e| e.tid == tid).collect();
            if lane_events.is_empty() {
                continue;
            }
            out.push_str(&format!("lane {tid} [{name}]\n"));
            // Children by parent id; events are start-sorted already.
            let ids: std::collections::HashSet<u64> =
                lane_events.iter().map(|e| e.span_id).collect();
            let roots: Vec<&TraceEvent> = lane_events
                .iter()
                .filter(|e| e.parent_id == 0 || !ids.contains(&e.parent_id))
                .copied()
                .collect();
            render_nodes(&mut out, &lane_events, &roots, 1, max_children);
        }
        out
    }
}

fn render_nodes(
    out: &mut String,
    all: &[&TraceEvent],
    nodes: &[&TraceEvent],
    depth: usize,
    max_children: usize,
) {
    for (i, e) in nodes.iter().enumerate() {
        if i == max_children {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("… (+{} more)\n", nodes.len() - max_children));
            return;
        }
        out.push_str(&"  ".repeat(depth));
        out.push_str(&e.name);
        for (k, v) in &e.args {
            out.push_str(&format!(" {k}={}", v.to_string_compact()));
        }
        out.push_str(&format!(" ({})\n", crate::fmt_nanos(e.end_ns.saturating_sub(e.start_ns))));
        let children: Vec<&TraceEvent> =
            all.iter().filter(|c| c.parent_id == e.span_id).copied().collect();
        render_nodes(out, all, &children, depth + 1, max_children);
    }
}

/// One Chrome `"X"` (complete) event for a closed span.
fn chrome_event(e: &TraceEvent) -> json::Value {
    let ts = e.start_ns / 1_000;
    let dur = (e.end_ns / 1_000).saturating_sub(ts);
    let mut args = json::Value::object();
    for (k, v) in &e.args {
        args.set(k, v.clone());
    }
    json::Value::object()
        .with("ph", "X")
        .with("name", e.name.as_str())
        .with("cat", e.cat)
        .with("ts", ts)
        .with("dur", dur)
        .with("pid", 1u64)
        .with("tid", e.tid)
        .with("args", args)
}

/// A handle onto one lane of a tracer: cheap to clone, `Send + Sync`, and
/// the only way to open spans.
#[derive(Debug, Clone)]
pub struct Lane {
    tracer: Arc<TracerInner>,
    lane: Arc<LaneInner>,
}

impl Lane {
    /// Opens a span, recorded when the returned guard drops.
    pub fn span(&self, name: impl Into<String>, cat: &'static str) -> Span {
        let span_id = self.tracer.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let parent_id = {
            let mut st = self.lane.state.lock();
            let p = st.open.last().copied().unwrap_or(0);
            st.open.push(span_id);
            p
        };
        Span {
            active: Some(ActiveSpan {
                tracer: Arc::clone(&self.tracer),
                lane: Arc::clone(&self.lane),
                name: name.into(),
                cat,
                span_id,
                parent_id,
                start_ns: elapsed_ns(self.tracer.origin),
                args: Vec::new(),
            }),
        }
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug)]
struct ActiveSpan {
    tracer: Arc<TracerInner>,
    lane: Arc<LaneInner>,
    name: String,
    cat: &'static str,
    span_id: u64,
    parent_id: u64,
    start_ns: u64,
    args: Vec<(String, json::Value)>,
}

/// RAII span guard: records one [`TraceEvent`] when dropped. Inert (free)
/// when made by [`Span::noop`].
#[derive(Debug)]
#[must_use = "a span records when dropped; binding it to _ closes it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// An inert span, for call sites that trace conditionally.
    pub fn noop() -> Span {
        Span { active: None }
    }

    /// Whether this span will record an event.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches an argument (exported under Chrome `args`). No-op when
    /// inert.
    pub fn arg(&mut self, key: &str, value: impl Into<json::Value>) {
        if let Some(a) = &mut self.active {
            a.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let end_ns = elapsed_ns(a.tracer.origin);
        let event = TraceEvent {
            name: a.name,
            cat: a.cat,
            tid: a.lane.tid,
            span_id: a.span_id,
            parent_id: a.parent_id,
            start_ns: a.start_ns,
            end_ns,
            args: a.args,
        };
        let mut st = a.lane.state.lock();
        if let Some(pos) = st.open.iter().rposition(|&id| id == a.span_id) {
            st.open.truncate(pos);
        }
        if st.ring.len() >= a.tracer.capacity {
            st.ring.pop_front();
            st.dropped += 1;
        }
        st.ring.push_back(event);
    }
}

/// Validates a parsed Chrome trace-event document: a `traceEvents` array
/// whose `"X"` events all carry `ph`/`ts`/`dur`/`pid`/`tid`/`name`, with
/// `ts` monotone non-decreasing over the array and spans well-nested per
/// `tid` (each span fits inside the enclosing open span). Used by the
/// golden shape test and the `trace_check` CI binary.
pub fn validate_chrome_trace(doc: &json::Value) -> Result<(), String> {
    let Some(events) = doc.get("traceEvents") else {
        return Err("missing top-level \"traceEvents\" key".into());
    };
    let json::Value::Array(items) = events else {
        return Err("\"traceEvents\" is not an array".into());
    };
    let mut last_ts: Option<u64> = None;
    // Per-tid stack of (start, end) for nesting checks.
    let mut stacks: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    let mut n_complete = 0usize;
    for (i, item) in items.iter().enumerate() {
        let ph = item
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        if ph != "X" {
            continue;
        }
        n_complete += 1;
        let field = |key: &str| -> Result<u64, String> {
            item.get(key)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("event {i}: missing or non-numeric \"{key}\""))
        };
        if item.get("name").and_then(json::Value::as_str).is_none() {
            return Err(format!("event {i}: missing \"name\""));
        }
        let (ts, dur, _pid, tid) = (field("ts")?, field("dur")?, field("pid")?, field("tid")?);
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!("event {i}: ts {ts} decreases below {prev}"));
            }
        }
        last_ts = Some(ts);
        let stack = stacks.entry(tid).or_default();
        while stack.last().is_some_and(|&(_, end)| end <= ts) {
            stack.pop();
        }
        if let Some(&(p_ts, p_end)) = stack.last() {
            if ts + dur > p_end {
                return Err(format!(
                    "event {i}: span [{ts}, {}] escapes enclosing span [{p_ts}, {p_end}] on tid {tid}",
                    ts + dur
                ));
            }
        }
        stack.push((ts, ts + dur));
    }
    if n_complete == 0 {
        return Err("no \"X\" (complete) events in trace".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_ids() {
        let t = Tracer::new();
        let lane = t.lane("main");
        {
            let _outer = lane.span("outer", "test");
            let _inner = lane.span("inner", "test");
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::with_capacity(4);
        let lane = t.lane("main");
        for i in 0..10 {
            let _s = lane.span(format!("s{i}"), "test");
        }
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn export_validates_and_names_lanes() {
        let t = Tracer::new();
        let a = t.lane("alpha");
        let b = t.lane("beta");
        {
            let mut s = a.span("root", "test");
            s.arg("items", 3u64);
            let _c = a.span("child", "test");
            let _o = b.span("other", "test");
        }
        let doc = t.export_chrome_json();
        validate_chrome_trace(&doc).unwrap();
        let text = doc.to_string_compact();
        assert!(text.contains("\"thread_name\""), "{text}");
        assert!(text.contains("\"alpha\"") && text.contains("\"beta\""), "{text}");
        assert!(text.contains("\"items\":3"), "{text}");
        // Round-trips through the parser.
        let parsed = json::parse(&doc.to_string_pretty()).unwrap();
        validate_chrome_trace(&parsed).unwrap();
    }

    #[test]
    fn span_tree_renders_nesting_and_caps_children() {
        let t = Tracer::new();
        let lane = t.lane("exec");
        {
            let _root = lane.span("query", "exec");
            for i in 0..5 {
                let _m = lane.span(format!("morsel{i}"), "exec");
            }
        }
        let tree = t.render_span_tree(3);
        assert!(tree.contains("lane 1 [exec]"), "{tree}");
        assert!(tree.contains("query"), "{tree}");
        assert!(tree.contains("morsel0"), "{tree}");
        assert!(tree.contains("(+2 more)"), "{tree}");
    }

    #[test]
    fn lanes_are_keyed_by_name() {
        let t = Tracer::new();
        let (a, b) = (t.lane("exec"), t.lane("exec"));
        let w = t.lane("worker-0");
        {
            let _p = a.span("p", "test");
            let _c = b.span("c", "test");
            let _x = w.span("x", "test");
        }
        let events = t.events();
        let find = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(find("p").tid, find("c").tid, "one name, one lane");
        assert_eq!(find("c").parent_id, find("p").span_id);
        assert_ne!(find("x").tid, find("p").tid, "distinct names get distinct tids");
    }

    #[test]
    fn concurrent_worker_lanes_validate() {
        // Overlapping spans from concurrent threads must not break Chrome
        // nesting because every worker records on its own lane.
        let t = Tracer::new();
        std::thread::scope(|s| {
            for w in 0..4 {
                let lane = t.lane(&format!("worker-{w}"));
                s.spawn(move || {
                    for i in 0..20 {
                        let mut sp = lane.span("morsel", "exec");
                        sp.arg("i", i as u64);
                    }
                });
            }
        });
        validate_chrome_trace(&t.export_chrome_json()).unwrap();
        assert_eq!(t.events().len(), 80);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        // Missing traceEvents.
        assert!(validate_chrome_trace(&json::Value::object()).is_err());
        // ts going backwards.
        let mut arr = json::Value::array();
        for ts in [10u64, 5] {
            arr.push(
                json::Value::object()
                    .with("ph", "X")
                    .with("name", "a")
                    .with("ts", ts)
                    .with("dur", 1u64)
                    .with("pid", 1u64)
                    .with("tid", 1u64),
            );
        }
        let doc = json::Value::object().with("traceEvents", arr);
        assert!(validate_chrome_trace(&doc).unwrap_err().contains("decreases"));
        // Child escaping its parent.
        let mut arr = json::Value::array();
        for (ts, dur) in [(0u64, 10u64), (5, 20)] {
            arr.push(
                json::Value::object()
                    .with("ph", "X")
                    .with("name", "a")
                    .with("ts", ts)
                    .with("dur", dur)
                    .with("pid", 1u64)
                    .with("tid", 1u64),
            );
        }
        let doc = json::Value::object().with("traceEvents", arr);
        assert!(validate_chrome_trace(&doc).unwrap_err().contains("escapes"));
    }

    #[test]
    fn truncation_preserves_nesting_in_export() {
        // A child fully inside its parent in nanoseconds must stay inside
        // after the floor division to microseconds.
        let t = Tracer::new();
        let lane = t.lane("main");
        {
            let _p = lane.span("parent", "test");
            for _ in 0..50 {
                let _c = lane.span("child", "test");
            }
        }
        validate_chrome_trace(&t.export_chrome_json()).unwrap();
    }
}
