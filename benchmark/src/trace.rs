//! Outside-in span recording.
//!
//! The library has no instrumentation of its own yet, so the traced run
//! records spans from the harness's side of the API: around every call
//! into a layer's public functions. Spans live in memory and are written
//! out once, when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`. `parent` is the
//! span that was open when this one began; `op_id` is shared by all spans
//! of one request (a read, a batch, an administrative call) and is 0 for
//! the containers above requests (the round, a phase).
//!
//! The round is written once, generic over [`Hooks`]: with [`NoTrace`]
//! every hook is an empty inline function and the round is exactly the
//! untraced benchmark; with [`Trace`] the same code records.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// What the round calls at every layer boundary.
pub trait Hooks {
    /// Whether spans are recorded: the round takes the split path (one
    /// call per layer) instead of the composite call when this is true.
    const TRACED: bool;
    /// Opens a container span (no request id).
    fn begin(&mut self, name: &'static str) -> SpanId;
    /// Opens a span that starts a new request: it and everything opened
    /// under it share a fresh `op_id`.
    fn begin_op(&mut self, name: &'static str) -> SpanId;
    fn end(&mut self, id: SpanId);
    /// A recorder for a second thread, on the same clock.
    fn sibling(&self) -> Self;
    /// Files a finished sibling's spans under `parent`.
    fn adopt(&mut self, sibling: Self, parent: SpanId);
}

/// Tracing off: the end-to-end run.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Hooks for NoTrace {
    const TRACED: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: &'static str) -> SpanId {
        SpanId(0)
    }
    #[inline(always)]
    fn begin_op(&mut self, _: &'static str) -> SpanId {
        SpanId(0)
    }
    #[inline(always)]
    fn end(&mut self, _: SpanId) {}
    fn sibling(&self) -> Self {
        NoTrace
    }
    fn adopt(&mut self, _: Self, _: SpanId) {}
}

/// Tracing on: an in-memory span log for one thread.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u32,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, op_id: u32) -> SpanId {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its children cover. Children may overlap each other (two
    /// threads under one window), so coverage is the length of the
    /// *union* of the child intervals, clipped to the parent.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.duration_ns();
            a.self_ns += self_ns;
        }
        out
    }

    /// Writes the log as JSON lines, one span per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        Ok(())
    }
}

impl Hooks for Trace {
    const TRACED: bool = true;

    fn begin(&mut self, name: &'static str) -> SpanId {
        let op = self
            .open
            .last()
            .map_or(0, |&p| self.spans[p as usize].op_id);
        self.push(name, op)
    }

    fn begin_op(&mut self, name: &'static str) -> SpanId {
        let op = self.next_op;
        self.next_op += 1;
        self.push(name, op)
    }

    fn end(&mut self, id: SpanId) {
        let top = self.open.pop().expect("end without begin");
        assert_eq!(top, id.0, "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// The sibling's request ids start far above this thread's, so the
    /// two cannot collide after [`Hooks::adopt`].
    fn sibling(&self) -> Trace {
        Trace {
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            next_op: self.next_op + SIBLING_OP_GAP,
        }
    }

    /// The sibling's root spans become children of `parent`; its internal
    /// parent links are re-based.
    fn adopt(&mut self, sibling: Trace, parent: SpanId) {
        assert!(sibling.open.is_empty(), "adopting a log with open spans");
        let base = self.spans.len() as u32;
        for mut s in sibling.spans {
            s.parent = Some(s.parent.map_or(parent.0, |p| p + base));
            self.spans.push(s);
        }
        self.next_op = self.next_op.max(sibling.next_op);
    }
}

/// Request ids a sibling log skips; far more than one thread issues while
/// the sibling lives.
const SIBLING_OP_GAP: u32 = 1 << 24;

/// Aggregate over the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean duration in microseconds (0 for a name never recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.count as f64
        }
    }

    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    fn trace_of(spans: Vec<Span>) -> Trace {
        Trace {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
            next_op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let t = trace_of(vec![
            span("read", 0, 100, None, 1),
            span("pin", 0, 10, Some(0), 1),
            span("plan", 10, 30, Some(0), 1),
            span("eval", 30, 90, Some(0), 1),
            span("probe", 35, 50, Some(3), 1),
        ]);
        assert_eq!(t.self_times_ns(), [10, 10, 20, 45, 15]);
        let by = t.by_name();
        assert_eq!(
            by["read"],
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 10
            }
        );
        assert_eq!(by["eval"].self_ns, 45);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        // Two threads under one window: a writer batch and reader reads
        // overlap; one read straddles the window's end.
        let t = trace_of(vec![
            span("window", 100, 200, None, 0),
            span("batch", 100, 160, Some(0), 1),
            span("read", 120, 150, Some(0), 2),
            span("read", 150, 180, Some(0), 3),
            span("read", 190, 230, Some(0), 4),
        ]);
        // Union of children inside [100, 200): [100, 180) ∪ [190, 200) = 90.
        assert_eq!(t.self_times_ns()[0], 10);
    }

    #[test]
    fn requests_share_an_op_id_and_containers_have_none() {
        let mut t = Trace::new(Instant::now());
        let round = t.begin("round");
        let read = t.begin_op("read");
        let pin = t.begin("pin");
        t.end(pin);
        t.end(read);
        let batch = t.begin_op("batch");
        t.end(batch);
        t.end(round);
        let ops: Vec<u32> = t.spans().iter().map(|s| s.op_id).collect();
        assert_eq!(ops, [0, 1, 1, 2]);
        let parents: Vec<Option<u32>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn adopted_sibling_hangs_under_the_given_parent() {
        let mut main = Trace::new(Instant::now());
        let window = main.begin("window");
        let mut side = main.sibling();
        let r = side.begin_op("read");
        let p = side.begin("pin");
        side.end(p);
        side.end(r);
        main.end(window);
        main.adopt(side, window);
        let s = main.spans();
        assert_eq!(s[1].name, "read");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[1].op_id, 1 + SIBLING_OP_GAP);
        assert_eq!(s[2].op_id, s[1].op_id);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_the_five_fields() {
        let t = trace_of(vec![
            span("a.b", 1, 2, None, 0),
            span("c", 1, 2, Some(0), 7),
        ]);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"c\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"op_id\":7}"
        );
        assert!(lines[0].contains("\"parent\":null"));
    }
}
