//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions, on one thread, so they nest strictly: a layer's self
//! time is its duration minus its children's, and the self times of all
//! spans plus the wall time no root span covers add up to the traced wall
//! time exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Shared by the spans of one block, batch or cycle.
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// A span recorder; disabled recorders cost one branch per call, which is
/// what the untraced twin of a traced repetition pays.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, trace: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, span: SpanId) {
        if !self.enabled {
            return;
        }
        let closed = self.open.pop();
        assert_eq!(closed, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_s = self.epoch.elapsed().as_secs_f64();
    }

    /// Time `f` under a span.
    pub fn time<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, trace);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds since the recorder was created (the traced wall clock).
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \
                 \"start_s\": {}, \"end_s\": {}}}",
                s.name, s.trace, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// children cover (children nest inside their parent on one thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end_s - s.start_s;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_insert(0.0) += s.end_s - s.start_s - children;
    }
    out
}

/// Wall time covered by root spans.
pub fn covered(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_s - s.start_s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            trace: 0,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_accounts_for_the_wall() {
        // [0, 10] wall: a = [1, 6] with children b = [2, 3] and c = [4, 5.5];
        // d = [7, 9]. Uncovered: [0,1] + [6,7] + [9,10] = 3.
        let spans = vec![
            span("a", None, 1.0, 6.0),
            span("b", Some(0), 2.0, 3.0),
            span("c", Some(0), 4.0, 5.5),
            span("d", None, 7.0, 9.0),
            span("b", None, 9.0, 9.5),
        ];
        let st = self_times(&spans);
        assert_eq!(st["a"], 2.5);
        assert_eq!(st["b"], 1.5);
        assert_eq!(st["c"], 1.5);
        assert_eq!(st["d"], 2.0);
        let wall = 10.0;
        let remainder = wall - covered(&spans);
        assert_eq!(remainder, 2.5);
        assert_eq!(st.values().sum::<f64>() + remainder, wall);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.time("inner", 1, || std::hint::black_box(2 + 2));
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut off = Tracer::new(false);
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
