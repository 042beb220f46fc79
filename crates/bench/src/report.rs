//! Plain-text table/figure rendering for the experiment binaries.

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!(" {c:<w$} |", w = w));
            }
            line.push('\n');
            line
        };
        let sep = {
            let mut line = String::from("+");
            for w in &widths {
                line.push_str(&"-".repeat(w + 2));
                line.push('+');
            }
            line.push('\n');
            line
        };
        out.push_str(&sep);
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out.push_str(&sep);
        out
    }
}

/// A horizontal log-scale text bar for the Fig. 8 style plots.
#[must_use]
pub fn log_bar(value: f64, max_value: f64, width: usize) -> String {
    if value <= 0.0 || max_value <= 1.0 {
        return String::new();
    }
    let scale = value.max(1.0).log10() / max_value.log10();
    let n = ((scale * width as f64).round() as usize).min(width);
    "█".repeat(n.max(1))
}

/// Formats a float compactly (3 significant-ish digits).
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v >= 1_000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a paper-vs-measured pair with the relative deviation.
#[must_use]
pub fn paper_vs_measured(paper: f64, measured: f64) -> String {
    let dev = if paper.abs() > f64::EPSILON {
        (measured - paper) / paper * 100.0
    } else {
        0.0
    };
    format!("{} vs {} ({dev:+.1}%)", fmt_f64(paper), fmt_f64(measured))
}

/// One measurement of a machine-readable benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark identifier, e.g. `ntt_fwd_inv/60bit/n=1024`.
    pub id: String,
    /// Measurement phase: `before` (pre-optimization baseline) or `after`.
    pub phase: String,
    /// SIMD backend (`"scalar"` / `"avx2"` / `"avx512ifma"`) the
    /// measurement ran under.
    /// Entries parsed from reports predating the backend dimension
    /// default to `"scalar"` — everything before the SIMD backend
    /// existed was scalar by construction.
    pub backend: String,
    /// Nanoseconds per iteration (the median over timing windows, where
    /// the bench times several).
    pub ns: f64,
    /// The fastest timing window's nanoseconds per iteration, for benches
    /// that time several windows ([`BenchReport::push_windows`]).
    pub min_ns: Option<f64>,
}

/// A machine-readable benchmark report (`BENCH_*.json` trajectory files).
///
/// The format is deliberately line-oriented — one entry object per line —
/// so the merge path can re-read committed baselines without a JSON
/// dependency (the build environment is offline; see `vendor/`).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report name (`ntt`, `transcipher`, …).
    pub bench: String,
    /// Free-text description of what is measured.
    pub description: String,
    /// Entries, in insertion order.
    pub entries: Vec<BenchEntry>,
    /// Run-level counters rendered as a `"meta"` object — raw JSON
    /// values keyed by name, in insertion order (a sorted `Vec`, not a
    /// map, keeps the rendering deterministic).
    pub meta: Vec<(String, String)>,
}

impl BenchReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(bench: impl Into<String>, description: impl Into<String>) -> Self {
        BenchReport {
            bench: bench.into(),
            description: description.into(),
            entries: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Records a run-level counter under `"meta"`. `value` is rendered
    /// verbatim, so pass a JSON literal (`"0"`, `"\"avx2\""`).
    /// Re-setting a key replaces its value in place.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key, value));
        }
    }

    /// Appends one measurement under the SIMD backend currently selected
    /// by `pasta_math::simd`, replacing any existing entry with the same
    /// `(id, phase, backend)` so re-runs update in place.
    pub fn push(&mut self, id: impl Into<String>, phase: impl Into<String>, ns: f64) {
        self.push_backend(id, phase, pasta_math::simd::backend_label(), ns);
    }

    /// Appends one measurement with an explicit backend label, replacing
    /// any existing entry with the same `(id, phase, backend)`.
    pub fn push_backend(
        &mut self,
        id: impl Into<String>,
        phase: impl Into<String>,
        backend: impl Into<String>,
        ns: f64,
    ) {
        self.push_entry(BenchEntry {
            id: id.into(),
            phase: phase.into(),
            backend: backend.into(),
            ns,
            min_ns: None,
        });
    }

    /// Appends one measurement timed over several windows (ns per
    /// iteration in each): `ns` is their median and `min_ns` their
    /// minimum. Replaces any entry with the same `(id, phase, backend)`.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty.
    pub fn push_windows(
        &mut self,
        id: impl Into<String>,
        phase: impl Into<String>,
        backend: impl Into<String>,
        windows: &[f64],
    ) {
        let mut sorted = windows.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        self.push_entry(BenchEntry {
            id: id.into(),
            phase: phase.into(),
            backend: backend.into(),
            ns: median,
            min_ns: Some(sorted[0]),
        });
    }

    /// Appends `entry`, replacing any with the same `(id, phase, backend)`.
    fn push_entry(&mut self, entry: BenchEntry) {
        self.entries.retain(|e| {
            !(e.id == entry.id && e.phase == entry.phase && e.backend == entry.backend)
        });
        self.entries.push(entry);
    }

    /// Imports all entries of `phase` from a previously rendered report
    /// (e.g. carry the committed `before` baseline into a fresh `after`
    /// run). Unparsable lines are ignored.
    pub fn merge_phase_from(&mut self, json: &str, phase: &str) {
        for e in Self::parse_entries(json) {
            if e.phase == phase {
                self.push_entry(e);
            }
        }
    }

    /// `before/after` speedup factors as `(id, backend, factor)` for
    /// every `(id, backend)` present in both phases. An `after` entry
    /// with no same-backend `before` falls back to the scalar `before`
    /// baseline — measurements predating the backend dimension were
    /// scalar by construction, so that is the honest trajectory pairing.
    #[must_use]
    pub fn speedups(&self) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for e in &self.entries {
            if e.phase != "after" {
                continue;
            }
            let same_backend =
                |b: &&BenchEntry| b.phase == "before" && b.id == e.id && b.backend == e.backend;
            let scalar =
                |b: &&BenchEntry| b.phase == "before" && b.id == e.id && b.backend == "scalar";
            if let Some(before) = self
                .entries
                .iter()
                .find(same_backend)
                .or_else(|| self.entries.iter().find(scalar))
            {
                if e.ns > 0.0 {
                    out.push((e.id.clone(), e.backend.clone(), before.ns / e.ns));
                }
            }
        }
        out
    }

    /// Vector-vs-scalar speedup factors over the `after` phase: for
    /// every id measured under scalar and a vector backend,
    /// `(id, backend, scalar_ns / backend_ns)`.
    #[must_use]
    pub fn backend_speedups(&self) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for e in &self.entries {
            if e.phase != "after" || e.backend == "scalar" {
                continue;
            }
            if let Some(s) = self
                .entries
                .iter()
                .find(|s| s.phase == "after" && s.id == e.id && s.backend == "scalar")
            {
                if e.ns > 0.0 {
                    out.push((e.id.clone(), e.backend.clone(), s.ns / e.ns));
                }
            }
        }
        out
    }

    /// Renders the report as JSON (one entry per line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", self.bench));
        out.push_str(&format!("  \"description\": \"{}\",\n", self.description));
        out.push_str("  \"unit\": \"ns/iter\",\n");
        if !self.meta.is_empty() {
            out.push_str("  \"meta\": {\n");
            for (i, (k, v)) in self.meta.iter().enumerate() {
                let comma = if i + 1 < self.meta.len() { "," } else { "" };
                out.push_str(&format!("    \"{k}\": {v}{comma}\n"));
            }
            out.push_str("  },\n");
        }
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let min = e
                .min_ns
                .map_or(String::new(), |m| format!(", \"min_ns\": {m:.1}"));
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"phase\": \"{}\", \"backend\": \"{}\", \"ns\": {:.1}{min}}}{comma}\n",
                e.id, e.phase, e.backend, e.ns
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"speedup\": [\n");
        let ups = self.speedups();
        for (i, (id, backend, factor)) in ups.iter().enumerate() {
            let comma = if i + 1 < ups.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"backend\": \"{backend}\", \"factor\": {factor:.2}}}{comma}\n"
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"backend_speedup\": [\n");
        let bups = self.backend_speedups();
        for (i, (id, backend, factor)) in bups.iter().enumerate() {
            let comma = if i + 1 < bups.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"backend\": \"{backend}\", \"factor\": {factor:.2}}}{comma}\n"
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extracts the `entries` objects from a rendered report. Tolerant:
    /// scans line by line for the known keys.
    #[must_use]
    pub fn parse_entries(json: &str) -> Vec<BenchEntry> {
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
            let rest = line[start..].trim_start();
            let rest = rest.strip_prefix('"').unwrap_or(rest);
            let end = rest.find(['"', ',', '}'])?;
            Some(rest[..end].trim())
        }
        json.lines()
            .filter(|l| l.contains("\"phase\"") && l.contains("\"ns\""))
            .filter_map(|l| {
                Some(BenchEntry {
                    id: field(l, "id")?.to_string(),
                    phase: field(l, "phase")?.to_string(),
                    // Reports predating the backend dimension carry no
                    // backend key; those measurements were scalar.
                    backend: field(l, "backend").unwrap_or("scalar").to_string(),
                    ns: field(l, "ns")?.parse().ok()?,
                    min_ns: field(l, "min_ns").and_then(|m| m.parse().ok()),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_roundtrips_through_json() {
        let mut r = BenchReport::new("ntt", "forward+inverse");
        r.push_backend("ntt/n=1024", "before", "scalar", 1234.5);
        r.push_backend("ntt/n=1024", "after", "scalar", 400.0);
        r.push_backend("ntt/n=4096", "before", "scalar", 9000.0);
        let json = r.to_json();
        let parsed = BenchReport::parse_entries(&json);
        assert_eq!(parsed, r.entries);
        assert!(json.contains("\"factor\": 3.09"), "{json}");
    }

    #[test]
    fn windowed_entries_keep_median_and_min_through_json() {
        let mut r = BenchReport::new("mul", "");
        r.push_windows("a", "before", "scalar", &[130.0, 100.0, 120.0]);
        r.push_windows("a", "after", "scalar", &[40.0, 60.0, 50.0, 45.0]);
        assert_eq!((r.entries[0].ns, r.entries[0].min_ns), (120.0, Some(100.0)));
        assert_eq!((r.entries[1].ns, r.entries[1].min_ns), (47.5, Some(40.0)));
        let json = r.to_json();
        assert_eq!(BenchReport::parse_entries(&json), r.entries);
        // The factor divides medians.
        assert!(json.contains("\"factor\": 2.53"), "{json}");
        let mut fresh = BenchReport::new("mul", "");
        fresh.merge_phase_from(&json, "before");
        assert_eq!(fresh.entries, r.entries[..1]);
    }

    #[test]
    fn bench_report_push_replaces_and_merges() {
        let mut old = BenchReport::new("x", "");
        old.push_backend("a", "before", "scalar", 100.0);
        old.push_backend("a", "after", "scalar", 50.0);
        let mut fresh = BenchReport::new("x", "");
        fresh.push_backend("a", "after", "scalar", 25.0);
        fresh.merge_phase_from(&old.to_json(), "before");
        assert_eq!(fresh.entries.len(), 2);
        assert_eq!(
            fresh.speedups(),
            vec![("a".to_string(), "scalar".to_string(), 4.0)]
        );
        // Re-pushing the same (id, phase, backend) replaces.
        fresh.push_backend("a", "after", "scalar", 20.0);
        assert_eq!(
            fresh.entries.iter().filter(|e| e.phase == "after").count(),
            1
        );
    }

    #[test]
    fn backend_dimension_defaults_and_speedups() {
        // A report predating the backend dimension parses as scalar.
        let legacy = "{\"id\": \"a\", \"phase\": \"before\", \"ns\": 100.0}";
        let parsed = BenchReport::parse_entries(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].backend, "scalar");

        // An avx2 `after` with only a scalar `before` pairs with it
        // (the fallback trajectory), and after-scalar vs after-avx2
        // shows up in the backend_speedup section.
        let mut r = BenchReport::new("x", "");
        r.push_backend("a", "before", "scalar", 100.0);
        r.push_backend("a", "after", "scalar", 40.0);
        r.push_backend("a", "after", "avx2", 20.0);
        assert_eq!(
            r.speedups(),
            vec![
                ("a".to_string(), "scalar".to_string(), 2.5),
                ("a".to_string(), "avx2".to_string(), 5.0),
            ]
        );
        r.push_backend("a", "after", "avx512ifma", 10.0);
        assert_eq!(
            r.backend_speedups(),
            vec![
                ("a".to_string(), "avx2".to_string(), 2.0),
                ("a".to_string(), "avx512ifma".to_string(), 4.0),
            ]
        );
        let json = r.to_json();
        assert!(json.contains("\"backend\": \"avx2\""), "{json}");
        assert!(json.contains("\"backend_speedup\""), "{json}");
        // push() stamps the live backend label — one of the three.
        let mut live = BenchReport::new("y", "");
        live.push("b", "after", 1.0);
        assert!(["scalar", "avx2", "avx512ifma"].contains(&live.entries[0].backend.as_str()));
    }

    #[test]
    fn meta_renders_and_does_not_confuse_entry_parsing() {
        let mut r = BenchReport::new("x", "");
        r.set_meta("spawn_events", "4");
        r.set_meta("warm_allocs", "0");
        r.set_meta("spawn_events", "8"); // replaces in place
        r.push_backend("a", "after", "scalar", 10.0);
        let json = r.to_json();
        assert!(json.contains("\"meta\": {"), "{json}");
        assert!(json.contains("\"spawn_events\": 8,"), "{json}");
        assert!(json.contains("\"warm_allocs\": 0\n"), "{json}");
        // Meta lines are not mistaken for measurement entries.
        assert_eq!(BenchReport::parse_entries(&json).len(), 1);
        // A report with no meta renders none.
        assert!(!BenchReport::new("y", "").to_json().contains("\"meta\""));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a much longer name", "123456"]);
        let s = t.render();
        assert!(s.contains("| name "));
        assert!(s.contains("| a much longer name | 123456 |"));
        let widths: Vec<usize> = s.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines equal width:\n{s}"
        );
    }

    #[test]
    fn row_padding() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["only one"]);
        assert!(t.render().contains("only one"));
    }

    #[test]
    fn log_bar_monotone() {
        let short = log_bar(10.0, 10_000.0, 40).chars().count();
        let long = log_bar(1_000.0, 10_000.0, 40).chars().count();
        assert!(long > short);
        assert!(log_bar(10_000.0, 10_000.0, 40).chars().count() <= 40);
        assert_eq!(log_bar(0.0, 100.0, 40), "");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(12_345.6), "12346");
        assert_eq!(fmt_f64(21.24), "21.2");
        assert_eq!(fmt_f64(1.59), "1.59");
    }

    #[test]
    fn paper_vs_measured_shows_deviation() {
        let s = paper_vs_measured(100.0, 103.0);
        assert!(s.contains("+3.0%"), "{s}");
    }
}
