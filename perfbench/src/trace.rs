//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (the program itself is not instrumented). Each span has a name, a
//! start and end offset from the run's time origin, an optional parent
//! span and an optional request id. Nothing is written until
//! [`Tracer::write_json`] runs after the measured window.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps (`"encrypt"`, `"poll"`, ...).
    pub name: &'static str,
    /// Start, seconds since origin.
    pub start: f64,
    /// End, seconds since origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span worked for, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose offsets count from `origin`.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Seconds since the origin.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        out
    }

    /// Records an already timed span and returns its index (`None` when
    /// disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a parent span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        let now = self.now();
        self.record(name, now, now, None, None)
    }

    /// Ends a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, idx: Option<usize>) {
        let now = self.now();
        self.set_end(idx, now);
    }

    /// Sets the end of a recorded span.
    pub fn set_end(&mut self, idx: Option<usize>, end: f64) {
        if let Some(span) = idx.and_then(|i| self.spans.get_mut(i)) {
            span.end = end;
        }
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds of every span named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Share of `[from, to]` covered by parentless spans (which never
    /// overlap: the load loop is single-threaded).
    #[must_use]
    pub fn top_level_coverage(&self, from: f64, to: f64) -> f64 {
        let window = to - from;
        if window <= 0.0 {
            return 0.0;
        }
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end.min(to) - s.start.max(from)).max(0.0))
            .sum();
        covered / window
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", None, None, || 7), 7);
        assert!(t.open("p").is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn coverage_counts_only_parentless_spans_inside_the_window() {
        let mut t = Tracer::new(true, Instant::now());
        let p = t.record("poll", 1.0, 3.0, None, None);
        t.record("inner", 1.5, 2.5, p, Some(1));
        t.record("submit", 3.0, 4.0, None, Some(2));
        t.record("late", 9.0, 12.0, None, None);
        // Window [0, 10]: 2 + 1 + 1 (clipped) seconds covered.
        assert!((t.top_level_coverage(0.0, 10.0) - 0.4).abs() < 1e-12);
        assert_eq!(t.total("poll"), 2.0);
    }
}
