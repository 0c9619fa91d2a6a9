//! Spans for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end and the
//! span that caused it. Spans are recorded from the benchmark's own
//! code around the calls it makes into each crate, kept in memory, and
//! written as JSON lines when the run ends. A span's layer is its name
//! up to the first `.` (`core.assembly` belongs to `core`).

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One finished span. `parent` indexes the enclosing span; `id` groups
/// the spans of one request (0 when the span is not part of one).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs its
/// closure, so the untraced run pays nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            id: 0,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span whose timestamps were taken elsewhere (by a load
    /// thread), nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part of its interval that its child spans cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(covered(kids, s.start_ns, s.end_ns));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Measured cost of recording one span, in nanoseconds.
pub fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut t = Tracer::new(true);
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("x", |_| ());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = [(5, 8), (0, 3), (2, 4), (9, 20)];
        // [1, 10] ∩ ([0,4] ∪ [5,8] ∪ [9,20]) = [1,4] ∪ [5,8] ∪ [9,10].
        assert_eq!(covered(&mut iv, 1, 10), 3 + 3 + 1);
        assert_eq!(covered(&mut [], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("bench.outer", |t| {
            t.span("core.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let layers = t.self_ms_by_layer();
        assert!(layers["core"] >= 5.0, "{layers:?}");
        assert!(layers["bench"] < layers["core"], "{layers:?}");
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
