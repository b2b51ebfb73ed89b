//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call into a
//! layer: name, start, end, the span that caused it, and a request id that
//! spans of one request (network, point) share.  They stay in memory until
//! the run ends, then [`Tracer::write`] dumps them as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The causing span, `None` for a root.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `pipeline.compress`.
    pub name: &'static str,
    /// Request id shared by the spans of one request.
    pub rid: u64,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

/// Records spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        rid: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.push(Span {
            id,
            parent,
            name,
            rid,
            start,
            end,
        });
        out
    }

    /// Records a span measured elsewhere (e.g. a request's due→done
    /// interval), converting its instants onto this tracer's clock.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        rid: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            name,
            rid,
            start: at(start),
            end: at(end).max(at(start)),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking span")
            .push(span);
    }

    /// A snapshot of every finished span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("tracer lock poisoned by a panicking span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","rid":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.name, s.rid, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_length(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time per span name, in seconds: each span's duration minus the part
/// of it that its child spans cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    let mut totals = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_length(c, s.start, s.end));
        *totals.entry(s.name).or_insert(0.0) += (s.end - s.start - covered) as f64 / 1e9;
    }
    totals
}

/// Share of `[lo, hi]` covered by at least one span.
pub fn coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let mut intervals: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    union_length(&mut intervals, lo, hi) as f64 / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            rid: 0,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(0, 10), (5, 15), (20, 30), (25, 26)];
        assert_eq!(union_length(&mut v, 0, 100), 25);
        let mut v = vec![(0, 10), (5, 15)];
        assert_eq!(union_length(&mut v, 3, 12), 9);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "a", 30, 50), // overlaps its sibling (parallel)
            span(4, Some(2), "b", 10, 20),
        ];
        let totals = self_seconds(&spans);
        assert!((totals["root"] - 60e-9).abs() < 1e-15);
        assert!((totals["a"] - (20e-9 + 20e-9)).abs() < 1e-15);
        assert!((totals["b"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn coverage_counts_gaps() {
        let spans = vec![span(1, None, "x", 0, 40), span(2, None, "y", 60, 100)];
        assert!((coverage(&spans, 0, 100) - 0.8).abs() < 1e-12);
        assert_eq!(coverage(&spans, 5, 5), 0.0);
    }

    #[test]
    fn spans_nest_through_the_closure_id() {
        let tracer = Tracer::new();
        let got = tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| 3)
        });
        assert_eq!(got, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start >= outer.start && inner.end <= outer.end);
        assert_eq!(inner.rid, 7);
    }
}
