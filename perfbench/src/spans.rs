//! Wall-clock spans recorded from the benchmark's own code, around the
//! calls it makes into each layer's public functions.
//!
//! Spans stay in memory while the run measures and are written out once
//! it ends. Each span has a name, a start, an end, the span that was
//! open when it began (its parent), and the job it belongs to. A span's
//! self time is its duration minus the time its children cover.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span, in nanoseconds since the tracer's
/// epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder for one thread of control.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        // Room for a long traced run, so growing the buffer does not pause
        // a job mid-measurement.
        let spans = RefCell::new(Vec::with_capacity(1 << 16));
        Tracer { epoch: Instant::now(), spans, open: RefCell::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it closes when [`Tracer::close`] gets its index.
    pub fn open(&self, name: &'static str, job: u64) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, job });
        let idx = spans.len() - 1;
        self.open.borrow_mut().push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&self, idx: usize) {
        let end = self.now_ns();
        let top = self.open.borrow_mut().pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans.borrow_mut()[idx].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, job);
        let out = f();
        self.close(idx);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut self_ms: Vec<f64> = spans.iter().map(Span::dur_ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ms[p] -= s.dur_ms();
        }
    }
    self_ms
}

/// The spans as a JSON document, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
            s.name, s.start_ns, s.end_ns, s.job
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "job", start_ns: 0, end_ns: 10_000_000, parent: None, job: 0 },
            Span { name: "a", start_ns: 1_000_000, end_ns: 4_000_000, parent: Some(0), job: 0 },
            Span { name: "b", start_ns: 5_000_000, end_ns: 9_000_000, parent: Some(0), job: 0 },
        ];
        let s = self_times_ms(&spans);
        assert!((s[0] - 3.0).abs() < 1e-9);
        assert!((s[1] - 3.0).abs() < 1e-9);
        assert!((s[2] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_record_parents() {
        let t = Tracer::new();
        let outer = t.open("outer", 7);
        t.time("inner", 7, || ());
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
