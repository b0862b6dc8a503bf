//! In-memory spans, written out once when the traced run ends.
//!
//! A span is a named interval with an optional parent (the span that
//! caused it) and the batch it belongs to, identified by
//! `(stream_id, batch)`. Spans are recorded from the benchmark's own
//! files around calls into each layer's public functions; the program
//! itself is not instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the trace origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based index of the parent span, 0 for a root.
    pub parent: u32,
    pub stream: u64,
    pub batch: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store shared by the driver thread and the shard workers (the
/// journal wrapper records from inside the pool).
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Nanoseconds since the trace origin.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a root span and returns its 1-based index, the handle
    /// children name as their parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        stream: u64,
        batch: u64,
    ) -> u32 {
        let span =
            Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent: 0, stream, batch };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() as u32
    }

    /// Records `children` as child spans of `root`, a handle returned by
    /// [`Tracer::record`].
    pub fn extend_children(&self, root: u32, children: &[Span]) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.extend(children.iter().map(|c| Span { parent: root, ..*c }));
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one CSV row:
    /// `id,name,start_ns,end_ns,parent,stream,batch`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,stream,batch")?;
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.stream,
                s.batch
            )?;
        }
        out.flush()
    }
}

/// Per span name: call count, total duration, and self time (duration
/// minus the part covered by child spans), all computed from the span
/// list exactly as written to the trace file.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, Ledger> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child_ns[s.parent as usize - 1] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Ledger> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

/// Durations (in nanoseconds) of every span with this name.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "batch", start_ns: 0, end_ns: 100, parent: 0, stream: 0, batch: 0 },
            Span { name: "ingest", start_ns: 10, end_ns: 30, parent: 1, stream: 0, batch: 0 },
            Span { name: "apply", start_ns: 30, end_ns: 90, parent: 1, stream: 0, batch: 0 },
        ];
        let l = ledger(&spans);
        assert_eq!(l["batch"].self_ns, 20);
        assert_eq!(l["batch"].total_ns, 100);
        assert_eq!(l["apply"].self_ns, 60);
        assert_eq!(l["ingest"].count, 1);
    }
}
