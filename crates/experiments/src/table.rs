//! Plain-text and CSV table rendering for experiment reports.
//!
//! The paper is theory-only, so the experiments define the result tables
//! (the index is in the crate docs); this module renders them
//! identically on the terminal and into CSV so every number in the docs
//! can be regenerated by `rfc-experiments`.

/// A result table: title, column headers, string rows, footnotes.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table caption (includes the experiment id, e.g. "E4 — fairness").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows (each must match `columns.len()`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (fits, p-values, verdicts).
    pub notes: Vec<String>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
        self
    }

    /// Append a footnote.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Render as an aligned monospace table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  * {note}\n"));
        }
        out
    }

    /// Render as a small JSON object (`title`, `columns`, `rows`,
    /// `notes`; all values strings). This is the machine-readable form
    /// CI archives (`BENCH_scale.json`) so perf numbers have a
    /// PR-over-PR trajectory.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let arr = |cells: &[String]| {
            cells
                .iter()
                .map(|c| format!("\"{}\"", esc(c)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let rows = self
            .rows
            .iter()
            .map(|r| format!("[{}]", arr(r)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"title\":\"{}\",\"columns\":[{}],\"rows\":[{}],\"notes\":[{}]}}\n",
            esc(&self.title),
            arr(&self.columns),
            rows,
            arr(&self.notes)
        )
    }

    /// Render as CSV (RFC-4180-ish: quotes around cells containing
    /// commas or quotes).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format helpers shared by experiment modules.
pub mod fmt {
    /// Fixed 3-decimal float.
    pub fn f3(x: f64) -> String {
        format!("{x:.3}")
    }
    /// Fixed 2-decimal float.
    pub fn f2(x: f64) -> String {
        format!("{x:.2}")
    }
    /// A rate with its Wilson 95% interval, e.g. `0.25 [0.21,0.29]`.
    pub fn rate_ci(successes: u64, trials: u64) -> String {
        let iv = rfc_stats::wilson95(successes, trials.max(1));
        format!(
            "{:.3} [{:.3},{:.3}]",
            successes as f64 / trials.max(1) as f64,
            iv.lo,
            iv.hi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("E0 — demo", &["n", "value"]);
        t.row(vec!["64".into(), "1.5".into()]);
        t.row(vec!["12345".into(), "2".into()]);
        t.note("a note");
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        assert!(s.contains("== E0 — demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // title + header + separator + 2 rows + note
        assert_eq!(lines.len(), 6);
        assert!(lines[5].contains("a note"));
        // Right-aligned: the wide cell determines the width.
        assert!(lines[3].trim_start().starts_with("64"));
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["plain".into(), "with,comma".into()]);
        t.row(vec!["with\"quote".into(), "ok".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn json_escapes_and_round_trips_shape() {
        let mut t = Table::new("E0 — \"demo\"", &["a", "b"]);
        t.row(vec!["x\ny".into(), "1.5".into()]);
        t.note("note \\ with backslash");
        let j = t.to_json();
        assert!(j.starts_with("{\"title\":\"E0 — \\\"demo\\\"\""));
        assert!(j.contains("\"rows\":[[\"x\\ny\",\"1.5\"]]"));
        assert!(j.contains("note \\\\ with backslash"));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn rate_ci_formats() {
        let s = fmt::rate_ci(50, 100);
        assert!(s.starts_with("0.500 ["));
    }
}
