//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the harness side, around calls into each layer's
//! public functions: name, start, end, the span that caused it, and the op
//! (one compile, sweep or exploration) they belong to. They stay in memory
//! and are written as a Chrome-trace array when the benchmark ends. A span's
//! self time is its duration minus its direct children's.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
    /// What the op ran on: a model, a `.hir` file, a grid point.
    pub subject: Rc<str>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    subject: Rc<str>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            subject: Rc::from(""),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Starts the next op, on `subject`; returns the index its first span
    /// will get, so the caller can later look at (or discard) exactly this
    /// op's spans.
    pub fn next_op(&mut self, subject: &str) -> usize {
        self.op += 1;
        self.subject = Rc::from(subject);
        self.spans.len()
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            op: self.op,
            subject: Rc::clone(&self.subject),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id` (and, defensively, anything opened inside it that an early
    /// return left open).
    pub fn end(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let result = f();
        self.end(id);
        result
    }

    /// Records a closed child of `parent` from a duration the layer itself
    /// reported (per-pass `micros`): the layer gives no start time, so
    /// children are laid end to end from `start_us`. Returns the child's end.
    pub fn synthesized_child(
        &mut self,
        parent: usize,
        name: &str,
        start_us: f64,
        dur_us: f64,
    ) -> f64 {
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us + dur_us,
            parent: Some(parent),
            op: self.op,
            subject: Rc::clone(&self.subject),
        });
        start_us + dur_us
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets the spans from index `from` on (ops beyond the number kept for
    /// the trace file are folded into the metrics, then dropped).
    pub fn truncate(&mut self, from: usize) {
        self.spans.truncate(from);
    }

    /// Self time of every span from index `from` on: duration minus the
    /// durations of its direct children, never below zero.
    pub fn self_times_us(&self, from: usize) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans[from..].iter().map(Span::dur_us).collect();
        for span in &self.spans[from..] {
            if let Some(parent) = span.parent.filter(|&p| p >= from) {
                own[parent - from] -= span.dur_us();
            }
        }
        own.iter().map(|&t| t.max(0.0)).collect()
    }

    /// Writes the spans as a Chrome-trace (`chrome://tracing`, Perfetto) JSON
    /// array of complete (`"ph":"X"`) events.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let own = self.self_times_us(0);
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"subject\":\"{}\",\
                 \"self_us\":{:.3}}}}}",
                span.name,
                span.start_us,
                span.dur_us(),
                span.op,
                hida::sweep::json_escape(&span.subject),
                own[i]
            );
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us: start,
            end_us: end,
            parent,
            op: 1,
            subject: Rc::from("s"),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("compile", 0.0, 100.0, None),
            span("run", 10.0, 70.0, Some(0)),
            span("pass-a", 10.0, 30.0, Some(1)),
            span("pass-b", 30.0, 60.0, Some(1)),
            span("emit", 80.0, 95.0, Some(0)),
        ];
        // compile: 100 - (60 + 15); run: 60 - (20 + 30); leaves keep theirs.
        assert_eq!(t.self_times_us(0), vec![25.0, 10.0, 20.0, 30.0, 15.0]);
        // A window starting mid-vector ignores parents outside it.
        assert_eq!(t.self_times_us(2), vec![20.0, 30.0, 15.0]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let mut t = Tracer::new();
        // Children reported longer than the parent measured (clock skew
        // between the layer's own timer and ours).
        t.spans = vec![
            span("run", 0.0, 10.0, None),
            span("pass", 0.0, 12.0, Some(0)),
        ];
        assert_eq!(t.self_times_us(0), vec![0.0, 12.0]);
    }

    #[test]
    fn begin_end_nest_and_tag_the_op() {
        let mut t = Tracer::new();
        let first = t.next_op("a");
        assert_eq!(first, 0);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        let end = t.synthesized_child(outer, "synth", 5.0, 2.0);
        assert_eq!(end, 7.0);
        t.end(outer);
        let second = t.next_op("b");
        assert_eq!(second, 3);
        t.scope("later", || ());
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op, spans[3].op), (1, 2));
        assert_eq!((&*spans[2].subject, &*spans[3].subject), ("a", "b"));
        assert!(spans[0].end_us >= spans[1].end_us);
        t.truncate(second);
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn end_closes_spans_left_open_inside() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let _leaked = t.begin("leaked");
        t.end(outer);
        assert!(t.open.is_empty());
        assert!(t.spans()[1].end_us > 0.0 || t.spans()[1].end_us == t.spans()[0].end_us);
    }
}
