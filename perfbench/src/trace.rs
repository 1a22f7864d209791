//! In-memory span tracing around calls into the library's public API.
//!
//! A span has a name (`layer.operation`), a start, an end, a parent span
//! and a request id. Spans are kept in memory while a traced phase runs,
//! reduced to self time per layer afterwards, and written out as JSON
//! lines when the benchmark ends. Untraced phases run the same code
//! against [`NoSpans`], which compiles the spans away.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Sentinel parent of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root span.
    pub parent: u32,
    /// The request (frame, batch, query or recovery) the span served.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Something that can wrap a call in a span. Workload loops are generic
/// over it so the untraced build pays nothing.
pub trait Spans {
    /// Runs `f` inside a span named `name` for request `request`.
    fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce(&mut Self) -> R) -> R;
}

/// The untraced recorder: calls straight through.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn span<R>(&mut self, _: &'static str, _: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

/// Total self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Nanoseconds not covered by child spans, summed over calls.
    pub self_ns: u64,
    /// Nanoseconds of whole spans, summed over calls.
    pub total_ns: u64,
    /// Calls.
    pub count: u64,
}

impl SelfTime {
    /// Mean whole-span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// The recording tracer of one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// across threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reduces the spans to self time per span name: a span's duration
    /// minus the part of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.self_ns += span.duration_ns().saturating_sub(children);
            entry.total_ns += span.duration_ns();
            entry.count += 1;
        }
        out
    }

    /// Appends this tracer's spans to `path` as JSON lines, at most
    /// `limit` of them. `thread` tags the lines so parents stay resolvable
    /// when several tracers write to one file.
    pub fn write_jsonl(&self, path: &Path, thread: &str, limit: usize) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"thread\": \"{thread}\", \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

impl Spans for Tracer {
    fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        out
    }
}

/// Sums self times per layer: the part of a span name before the first
/// dot.
pub fn self_ns_by_layer(times: &BTreeMap<&'static str, SelfTime>) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (name, t) in times {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer.to_string()).or_default() += t.self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("daemon.pump", 1, |t| {
            spin(200_000);
            t.span("serve.batch", 1, |_| spin(300_000));
            t.span("checkpoint.commit", 1, |_| spin(100_000));
        });
        let times = t.self_times();
        let pump = times["daemon.pump"];
        let serve = times["serve.batch"];
        let commit = times["checkpoint.commit"];
        assert_eq!(
            pump.total_ns,
            pump.self_ns + serve.total_ns + commit.total_ns
        );
        assert!(serve.self_ns >= 300_000 && commit.self_ns >= 100_000);
        let layers = self_ns_by_layer(&times);
        assert_eq!(layers.values().sum::<u64>(), pump.total_ns);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
    }

    #[test]
    fn no_spans_passes_results_through() {
        assert_eq!(NoSpans.span("x.y", 0, |_| 7), 7);
    }
}
