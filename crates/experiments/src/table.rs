//! Plain-text, CSV and JSON table rendering for experiment reports.
//!
//! The paper is theory-only, so the experiments define the result tables
//! (the index is in the crate docs); this module renders them
//! identically on the terminal and into CSV so every number in the docs
//! can be regenerated by `rfc-experiments`. JSON is the one form that
//! reads back: [`parse_tables`] is the reader for [`Table::to_json`]
//! (the committed `BENCH_scale.json` perf baseline is a stream of such
//! objects).

/// A result table: title, column headers, string rows, footnotes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// The experiment id: the title up to the first `" — "`
    /// (`"E16 — single-trial scaling …"` → `"E16"`).
    pub fn id(&self) -> &str {
        self.title.split(" — ").next().unwrap_or(&self.title).trim()
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

/// Read a stream of [`Table::to_json`] objects: one per line in
/// `BENCH_scale.json`, though any whitespace separates them. The reader
/// is strict on structure (every value a string, every row as wide as
/// the columns, no unknown fields) and decodes every string escape.
pub fn parse_tables(input: &str) -> Result<Vec<Table>, String> {
    let mut r = Reader::new(input);
    let mut out = Vec::new();
    loop {
        r.skip_ws();
        if r.pos == r.bytes.len() {
            break;
        }
        out.push(table_from_json(r.value()?)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Minimal JSON reader: strings, arrays and objects, the only values
// `to_json` writes (numbers, booleans and null are rejected)
// ---------------------------------------------------------------------

enum Json {
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type PResult<T> = Result<T, String>;

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> PResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> PResult<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => Err(self.err("expected a string, array, or object")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> PResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the raw continuation bytes.
                _ => {
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|&c| c & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> PResult<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("short \\u escape"))?;
            self.pos += 1;
            v = v * 16
                + (b as char)
                    .to_digit(16)
                    .ok_or_else(|| self.err("non-hex in \\u escape"))?;
        }
        Ok(v)
    }

    fn array(&mut self) -> PResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> PResult<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn str_array(v: &Json, what: &str) -> PResult<Vec<String>> {
    match v {
        Json::Arr(items) => items
            .iter()
            .map(|i| match i {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(format!("{what}: expected an array of strings")),
            })
            .collect(),
        _ => Err(format!("{what}: expected an array")),
    }
}

fn table_from_json(v: Json) -> PResult<Table> {
    let Json::Obj(fields) = v else {
        return Err("table: expected a JSON object".into());
    };
    let mut t = Table::default();
    let mut seen_title = false;
    for (key, val) in fields {
        match key.as_str() {
            "title" => match val {
                Json::Str(s) => {
                    t.title = s;
                    seen_title = true;
                }
                _ => return Err("title: expected a string".into()),
            },
            "columns" => t.columns = str_array(&val, "columns")?,
            "rows" => match val {
                Json::Arr(rows) => {
                    t.rows = rows
                        .iter()
                        .map(|r| str_array(r, "row"))
                        .collect::<PResult<_>>()?;
                }
                _ => return Err("rows: expected an array".into()),
            },
            "notes" => t.notes = str_array(&val, "notes")?,
            other => return Err(format!("unknown table field {other:?}")),
        }
    }
    if !seen_title {
        return Err("table: missing title".into());
    }
    for (i, row) in t.rows.iter().enumerate() {
        if row.len() != t.columns.len() {
            return Err(format!(
                "table {:?}: row {} has {} cells for {} columns",
                t.title,
                i,
                row.len(),
                t.columns.len()
            ));
        }
    }
    Ok(t)
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
    fn parses_the_committed_bench_layout() {
        let src = concat!(
            "{\"title\":\"E16 — scaling (γ = 3)\",\"columns\":[\"n\",\"rounds/s\"],",
            "\"rows\":[[\"512\",\"22274.2\"]],\"notes\":[\"a \\\"note\\\"\"]}\n",
            "{\"title\":\"E14b — dispatch\",\"columns\":[\"n\",\"speedup\"],",
            "\"rows\":[],\"notes\":[]}\n",
        );
        let tables = parse_tables(src).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].id(), "E16");
        assert_eq!(tables[0].title, "E16 — scaling (γ = 3)");
        assert_eq!(tables[0].rows, vec![vec!["512", "22274.2"]]);
        assert_eq!(tables[0].notes, vec!["a \"note\""]);
        assert_eq!(tables[1].id(), "E14b");
    }

    #[test]
    fn rejects_malformed_tables() {
        assert!(parse_tables("{\"title\":1}").is_err());
        assert!(parse_tables("{\"columns\":[]}").is_err(), "missing title");
        assert!(parse_tables("[1,2]").is_err());
        assert!(parse_tables("{\"title\":\"x\",\"bogus\":[]}").is_err());
        // Row width must match the columns.
        let ragged = "{\"title\":\"x\",\"columns\":[\"a\"],\"rows\":[[\"1\",\"2\"]],\"notes\":[]}";
        assert!(parse_tables(ragged).is_err());
        // Truncated input.
        assert!(parse_tables("{\"title\":\"x").is_err());
    }

    #[test]
    fn to_json_round_trips_through_the_parser() {
        // Every escape class `to_json` can emit must decode back to the
        // original cells.
        let mut t = Table::new(
            "E0 — \"quoted\" \\ back\nslash\ttab\u{1}ctl — γ≤δ",
            &["col \"a\"", "b\\c"],
        );
        t.row(vec![
            "line1\nline2".into(),
            "quote\" and \\ and \r end".into(),
        ]);
        t.row(vec!["\u{0}\u{1f}".into(), "π ≈ 3.14159".into()]);
        t.note("note with \"everything\": \\ \n \t");
        assert_eq!(parse_tables(&t.to_json()).unwrap(), vec![t]);
    }

    #[test]
    fn parser_handles_surrogate_pairs() {
        let src = "{\"title\":\"\\ud83d\\ude00 ok\",\"columns\":[],\"rows\":[],\"notes\":[]}";
        assert_eq!(parse_tables(src).unwrap()[0].title, "😀 ok");
        assert!(
            parse_tables("{\"title\":\"\\ud83d x\",\"columns\":[],\"rows\":[],\"notes\":[]}")
                .is_err()
        );
    }

    #[test]
    fn rate_ci_formats() {
        let s = fmt::rate_ci(50, 100);
        assert!(s.starts_with("0.500 ["));
    }
}
