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
    /// SIMD backend (`"scalar"` / `"avx2"` / `"avx512ifma"`) the
    /// measurement ran under.
    pub backend: String,
    /// Nanoseconds per iteration (the median over timing windows, where
    /// the bench times several).
    pub ns: f64,
    /// The fastest timing window's nanoseconds per iteration, for benches
    /// that time several windows ([`BenchReport::push_windows`]).
    pub min_ns: Option<f64>,
}

impl std::fmt::Display for BenchEntry {
    /// `id: ns [backend]`, with the median and minimum for windowed
    /// entries.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.min_ns {
            Some(min) => write!(
                f,
                "{}: {:.0} ns/iter median, {min:.0} min [{}]",
                self.id, self.ns, self.backend
            ),
            None => write!(f, "{}: {} [{}]", self.id, self.ns, self.backend),
        }
    }
}

/// A machine-readable benchmark report (`BENCH_*.json`): every entry is
/// a measurement of the run that renders it.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report name (`ntt`, `mul`, …).
    pub bench: String,
    /// Free-text description of what is measured.
    pub description: String,
    /// Entries, in insertion order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(bench: impl Into<String>, description: impl Into<String>) -> Self {
        BenchReport {
            bench: bench.into(),
            description: description.into(),
            entries: Vec::new(),
        }
    }

    /// Appends one measurement under the SIMD backend currently selected
    /// by `pasta_math::simd`, replacing any existing entry with the same
    /// `(id, backend)`, and returns the new entry.
    pub fn push(&mut self, id: impl Into<String>, ns: f64) -> &BenchEntry {
        self.push_backend(id, pasta_math::simd::backend_label(), ns)
    }

    /// Appends one measurement with an explicit backend label, replacing
    /// any existing entry with the same `(id, backend)`, and returns the
    /// new entry.
    pub fn push_backend(
        &mut self,
        id: impl Into<String>,
        backend: impl Into<String>,
        ns: f64,
    ) -> &BenchEntry {
        self.push_entry(BenchEntry {
            id: id.into(),
            backend: backend.into(),
            ns,
            min_ns: None,
        })
    }

    /// Appends one measurement timed over several windows (ns per
    /// iteration in each, as [`crate::micro::time_windows`] returns
    /// them): `ns` is their median and `min_ns` their minimum. Replaces
    /// any entry with the same `(id, backend)` and returns the new one.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty.
    pub fn push_windows(
        &mut self,
        id: impl Into<String>,
        backend: impl Into<String>,
        windows: &[f64],
    ) -> &BenchEntry {
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
            backend: backend.into(),
            ns: median,
            min_ns: Some(sorted[0]),
        })
    }

    /// Appends `entry`, replacing any with the same `(id, backend)`.
    fn push_entry(&mut self, entry: BenchEntry) -> &BenchEntry {
        self.entries
            .retain(|e| !(e.id == entry.id && e.backend == entry.backend));
        self.entries.push(entry);
        &self.entries[self.entries.len() - 1]
    }

    /// The median ns of entry `(id, backend)`, if measured.
    #[must_use]
    pub fn ns(&self, id: &str, backend: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.id == id && e.backend == backend)
            .map(|e| e.ns)
    }

    /// Vector-vs-scalar speedup factors: for every id measured under
    /// scalar and a vector backend, `(id, backend, scalar_ns /
    /// backend_ns)`.
    #[must_use]
    pub fn backend_speedups(&self) -> Vec<(String, String, f64)> {
        self.entries
            .iter()
            .filter(|e| e.backend != "scalar" && e.ns > 0.0)
            .filter_map(|e| {
                let scalar = self.ns(&e.id, "scalar")?;
                Some((e.id.clone(), e.backend.clone(), scalar / e.ns))
            })
            .collect()
    }

    /// Renders the report as JSON (one entry per line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", self.bench));
        out.push_str(&format!("  \"description\": \"{}\",\n", self.description));
        out.push_str("  \"unit\": \"ns/iter\",\n");
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let min = e
                .min_ns
                .map_or(String::new(), |m| format!(", \"min_ns\": {m:.1}"));
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"backend\": \"{}\", \"ns\": {:.1}{min}}}{comma}\n",
                e.id, e.backend, e.ns
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

    /// Writes the JSON rendering to `path` and says so on stdout.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.to_json()).expect("write bench report");
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_renders_one_line_per_entry() {
        let mut r = BenchReport::new("ntt", "forward+inverse");
        r.push_backend("ntt/n=1024", "scalar", 1234.5);
        r.push_backend("ntt/n=4096", "scalar", 9000.0);
        let json = r.to_json();
        assert!(
            json.contains("{\"id\": \"ntt/n=1024\", \"backend\": \"scalar\", \"ns\": 1234.5},\n"),
            "{json}"
        );
        assert!(
            json.contains("{\"id\": \"ntt/n=4096\", \"backend\": \"scalar\", \"ns\": 9000.0}\n"),
            "{json}"
        );
        assert!(!json.contains("phase"), "{json}");
    }

    #[test]
    fn windowed_entries_keep_median_and_min_through_json() {
        let mut r = BenchReport::new("mul", "");
        let odd = r.push_windows("a", "scalar", &[130.0, 100.0, 120.0]);
        assert_eq!((odd.ns, odd.min_ns), (120.0, Some(100.0)));
        let even = r.push_windows("a", "avx2", &[40.0, 60.0, 50.0, 45.0]);
        assert_eq!((even.ns, even.min_ns), (47.5, Some(40.0)));
        let json = r.to_json();
        assert!(json.contains("\"ns\": 120.0, \"min_ns\": 100.0}"), "{json}");
        assert!(json.contains("\"ns\": 47.5, \"min_ns\": 40.0}"), "{json}");
        // The factor divides medians.
        assert!(json.contains("\"factor\": 2.53"), "{json}");
    }

    #[test]
    fn bench_report_push_replaces_same_id_and_backend() {
        let mut r = BenchReport::new("x", "");
        r.push_backend("a", "scalar", 50.0);
        r.push_backend("a", "avx2", 30.0);
        r.push_backend("a", "scalar", 20.0);
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.ns("a", "scalar"), Some(20.0));
        assert_eq!(r.ns("a", "avx2"), Some(30.0));
        assert_eq!(r.ns("b", "scalar"), None);
        // push() stamps the live backend label, one of the three.
        let mut live = BenchReport::new("y", "");
        live.push("b", 1.0);
        assert!(["scalar", "avx2", "avx512ifma"].contains(&live.entries[0].backend.as_str()));
    }

    #[test]
    fn backend_speedups_divide_rows_of_one_run() {
        let mut r = BenchReport::new("x", "");
        r.push_backend("a", "scalar", 40.0);
        r.push_backend("a", "avx2", 20.0);
        r.push_backend("a", "avx512ifma", 10.0);
        // No scalar row, no factor.
        r.push_backend("b", "avx2", 5.0);
        assert_eq!(
            r.backend_speedups(),
            vec![
                ("a".to_string(), "avx2".to_string(), 2.0),
                ("a".to_string(), "avx512ifma".to_string(), 4.0),
            ]
        );
        let json = r.to_json();
        assert!(json.contains("\"backend_speedup\""), "{json}");
        assert!(!json.contains("\"speedup\""), "{json}");
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
