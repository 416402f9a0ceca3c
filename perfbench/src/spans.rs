//! In-memory span recorder for the traced run. A span is a name, a start,
//! an end, the span that caused it and the workload it ran under; spans are
//! kept in memory and written out once, as JSON lines, when the run ends.
//! Spans are recorded by the benchmark around its calls into each layer —
//! nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::clock::Stamp;

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Stamp,
    end: Stamp,
    parent: Option<SpanId>,
}

/// The span store of one run.
pub struct Tracer {
    origin: Stamp,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder for `workload`.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            origin: Stamp::now(),
            workload,
            spans: Vec::new(),
        }
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Stamp,
        end: Stamp,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Stamp::now();
        self.record(name, parent, now, now)
    }

    /// Ends an [`open`](Self::open)ed span.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = Stamp::now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let start = Stamp::now();
        let out = f();
        let end = Stamp::now();
        self.record(name, Some(parent), start, end);
        out
    }

    /// Duration of span `id`, in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end.secs_since(s.start)
    }

    /// Summed duration of `parent`'s direct children named `name`, in
    /// seconds — a layer's busy time inside one measurement.
    pub fn child_secs(&self, parent: SpanId, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.end.secs_since(s.start))
            .sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line: `id`, `name`,
    /// `start_ns`/`end_ns` from the recorder's creation, `parent` and
    /// `workload`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        let ns = |t: Stamp| (t.secs_since(self.origin) * 1e9).round() as u64;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\"}}",
                s.name,
                ns(s.start),
                ns(s.end),
                self.workload
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_time_sums_only_direct_children_of_that_name() {
        let mut t = Tracer::new("serve");
        let root = t.open("round", None);
        let a = t.time("layer.call", root, || 1 + 1);
        assert_eq!(a, 2);
        let other = t.open("layer", Some(root));
        t.time("layer.call", other, || ());
        t.close(other);
        t.close(root);
        let direct = t.child_secs(root, "layer.call");
        assert!(direct >= 0.0 && direct <= t.secs(root));
        assert_eq!(t.len(), 4);
    }
}
