//! The perf-regression gate: compare a committed `BENCH_scale.json`
//! against freshly measured tables and fail on throughput drops.
//!
//! `BENCH_scale.json` is a stream of [`Table::to_json`] objects, one per
//! line, read back with [`experiments::table::parse_tables`]. The
//! comparator matches cells by *(experiment id, row identity, column)*:
//!
//! * **experiment id** — [`Table::id`], the title up to the first
//!   `" — "` separator (`"E16 — single-trial scaling …"` → `E16`), so
//!   cosmetic title edits don't orphan a baseline;
//! * **row identity** — the cells of every column *before* the first
//!   throughput column, which by table convention are the configuration
//!   columns (`n`, `q`, `shards`, `outcome`, …);
//! * **throughput columns** — the headers `"rounds/s"` and
//!   `"instances/s"` (the instance-plane sweep, E17), matched exactly;
//!   each is compared as `fresh ≥ committed · (1 − tolerance)`. A
//!   column derived from one of them, such as `Magent·rounds/s`
//!   (`rounds/s · n / 10⁶` on the same row), is not gated again.
//!
//! Tolerance is a fraction (CI reads `RFC_GATE_TOLERANCE`, default
//! `0.20`). Missing tables, missing rows, and unparseable throughput
//! cells fail the gate — silent shrinkage of coverage must not read as
//! a pass. Rows or tables present only in the *fresh* set are reported
//! as notes (new coverage is fine; the baseline just hasn't caught up).
//! One exception: a committed table whose title marks it as a
//! **landmark** (see [`is_landmark_table`]) is a manually captured
//! milestone — e.g. the 10⁷-agent E16 row, ~107 min of compute — that
//! no CI capture reproduces; when absent from the fresh set it is
//! skipped with a note instead of failing. When a landmark table *is*
//! present in the fresh set (the self-test's edge copies, or a
//! deliberate re-capture), its cells are gated like any other.

use experiments::Table;

/// Result of gating fresh tables against a committed baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Number of (row, throughput-column) comparisons performed.
    pub checks: usize,
    /// Violations: regressions beyond tolerance, vanished tables/rows,
    /// unparseable throughput cells. Non-empty ⇒ the gate fails.
    pub failures: Vec<String>,
    /// Informational lines: improvements beyond tolerance (a nudge to
    /// refresh the baseline), coverage present only in the fresh set.
    pub notes: Vec<String>,
}

impl GateReport {
    /// Does the gate pass?
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Is this column a gated throughput column (floor: fresh must not
/// drop below the committed value beyond tolerance)? Only the headers
/// `rounds/s` and `instances/s`: each quantity is gated once.
pub fn is_gated_column(header: &str) -> bool {
    header == "rounds/s" || header == "instances/s"
}

/// Is this column a gated memory column (ceiling: fresh must not *rise*
/// above the committed value beyond tolerance)? Matches the `ΔRSS MiB`
/// columns the experiment tables emit.
pub fn is_memory_column(header: &str) -> bool {
    header.contains("ΔRSS")
}

/// True when a committed table is a manually captured **landmark** —
/// a milestone run too expensive for CI to reproduce (the convention
/// is "landmark" in the title, e.g.
/// `"E16L — 10⁷-agent landmark (manual capture)"`). Landmark tables
/// absent from the fresh set are skipped with a note instead of
/// failing the coverage check; present ones are gated normally.
pub fn is_landmark_table(title: &str) -> bool {
    title.contains("landmark")
}

/// Absolute slack (MiB) added on top of the relative memory tolerance:
/// small rows measure fractions of a MiB where a relative band is
/// meaningless noise-gating; the slack absorbs allocator jitter without
/// hiding a real regression (which shows up in whole-MiB multiples).
pub const MEM_SLACK_MIB: f64 = 8.0;

/// The row-identity cells: everything before the first gated
/// (throughput or memory) column — by table convention, the
/// configuration columns.
fn row_key(columns: &[String], row: &[String]) -> String {
    let id_cols = columns
        .iter()
        .position(|c| is_gated_column(c) || is_memory_column(c))
        .unwrap_or(columns.len());
    row[..id_cols].join("/")
}

/// Compare fresh tables against the committed baseline: every throughput
/// cell of every committed row must satisfy
/// `fresh ≥ committed · (1 − tolerance)`, and every memory (`ΔRSS`)
/// cell must satisfy
/// `fresh ≤ committed · (1 + tolerance) + MEM_SLACK_MIB`.
///
/// The fresh set may contain *several captures* of the same table (same
/// id): each cell is gated against the **best** sample — the max for
/// throughput, the min for memory. Both measurements are one-sided: a
/// busy machine reads throughput low and memory high, never the
/// opposite, so best-of-N damps flaky failures without ever hiding a
/// real regression that shows in every sample.
pub fn compare(committed: &[Table], fresh: &[Table], tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    for base in committed {
        let curs: Vec<&Table> = fresh.iter().filter(|t| t.id() == base.id()).collect();
        if curs.is_empty() {
            if is_landmark_table(&base.title) {
                report.notes.push(format!(
                    "{}: landmark baseline (manual capture), not in fresh results — skipped",
                    base.id()
                ));
            } else {
                report
                    .failures
                    .push(format!("{}: table missing from fresh results", base.id()));
            }
            continue;
        }
        // (column index, is_memory): floor-gated throughput columns and
        // ceiling-gated memory columns.
        let gated: Vec<(usize, bool)> = base
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| is_gated_column(c) || is_memory_column(c))
            .map(|(i, c)| (i, is_memory_column(c)))
            .collect();
        if gated.is_empty() {
            report
                .notes
                .push(format!("{}: no throughput columns, skipped", base.id()));
            continue;
        }
        for brow in &base.rows {
            let key = row_key(&base.columns, brow);
            // Every sample of this row across all fresh captures.
            let matches: Vec<(&Table, &Vec<String>)> = curs
                .iter()
                .flat_map(|t| {
                    t.rows
                        .iter()
                        .filter(|r| row_key(&t.columns, r) == key)
                        .map(move |r| (*t, r))
                })
                .collect();
            if matches.is_empty() {
                report
                    .failures
                    .push(format!("{} [{key}]: row missing from fresh results", base.id()));
                continue;
            }
            for &(col, memory) in &gated {
                let header = &base.columns[col];
                let mut best: Option<f64> = None;
                let mut col_present = false;
                let mut unparseable = false;
                for (t, row) in &matches {
                    let Some(ccol) = t.columns.iter().position(|c| c == header) else {
                        continue;
                    };
                    col_present = true;
                    match row[ccol].parse::<f64>() {
                        // Best sample: max throughput, min memory.
                        Ok(v) => {
                            best = Some(best.map_or(v, |acc| {
                                if memory { acc.min(v) } else { acc.max(v) }
                            }))
                        }
                        Err(_) if memory => {
                            // Memory is platform-dependent ("n/a" off
                            // Linux): skip with a note, don't fail.
                            report.notes.push(format!(
                                "{} [{key}] {header}: unmeasurable fresh cell {:?}, skipped",
                                base.id(),
                                row[ccol]
                            ));
                        }
                        Err(_) => {
                            report.failures.push(format!(
                                "{} [{key}] {header}: unparseable fresh cell {:?}",
                                base.id(),
                                row[ccol]
                            ));
                            unparseable = true;
                        }
                    }
                }
                if !col_present {
                    report.failures.push(format!(
                        "{} [{key}]: column {header:?} missing from fresh results",
                        base.id()
                    ));
                    continue;
                }
                if unparseable {
                    continue;
                }
                let b = match brow[col].parse::<f64>() {
                    Ok(b) => b,
                    Err(_) if memory => {
                        report.notes.push(format!(
                            "{} [{key}] {header}: unmeasurable committed cell {:?}, skipped",
                            base.id(),
                            brow[col]
                        ));
                        continue;
                    }
                    Err(_) => {
                        report.failures.push(format!(
                            "{} [{key}] {header}: unparseable committed cell {:?}",
                            base.id(),
                            brow[col]
                        ));
                        continue;
                    }
                };
                let Some(f) = best else {
                    continue; // memory column with only n/a samples
                };
                if !memory && b <= 0.0 {
                    report.notes.push(format!(
                        "{} [{key}] {header}: committed {b} leaves no floor to gate against, skipped",
                        base.id()
                    ));
                    continue;
                }
                report.checks += 1;
                let samples = if matches.len() > 1 {
                    format!(" (best of {})", matches.len())
                } else {
                    String::new()
                };
                if memory {
                    let ceiling = b * (1.0 + tolerance) + MEM_SLACK_MIB;
                    if f > ceiling {
                        report.failures.push(format!(
                            "{} [{key}] {header}: {f} MiB{samples} vs committed {b} MiB (ceiling {ceiling:.2} = +{:.0}% +{MEM_SLACK_MIB} MiB slack)",
                            base.id(),
                            tolerance * 100.0,
                        ));
                    } else if f + MEM_SLACK_MIB < b * (1.0 - tolerance) {
                        report.notes.push(format!(
                            "{} [{key}] {header}: {f} MiB{samples} vs committed {b} MiB (shrunk — consider refreshing the baseline)",
                            base.id(),
                        ));
                    }
                    continue;
                }
                let ratio = f / b;
                if ratio < 1.0 - tolerance {
                    report.failures.push(format!(
                        "{} [{key}] {header}: {f}{samples} vs committed {b} ({:.0}% drop > {:.0}% tolerance)",
                        base.id(),
                        (1.0 - ratio) * 100.0,
                        tolerance * 100.0,
                    ));
                } else if ratio > 1.0 + tolerance {
                    report.notes.push(format!(
                        "{} [{key}] {header}: {f}{samples} vs committed {b} (+{:.0}% — consider refreshing the baseline)",
                        base.id(),
                        (ratio - 1.0) * 100.0,
                    ));
                }
            }
        }
        let mut noted = std::collections::BTreeSet::new();
        for cur in &curs {
            for crow in &cur.rows {
                let key = row_key(&cur.columns, crow);
                if !base.rows.iter().any(|r| row_key(&base.columns, r) == key)
                    && noted.insert(key.clone())
                {
                    report
                        .notes
                        .push(format!("{} [{key}]: new row, not in baseline", base.id()));
                }
            }
        }
    }
    let mut noted = std::collections::BTreeSet::new();
    for cur in fresh {
        if !committed.iter().any(|t| t.id() == cur.id()) && noted.insert(cur.id().to_string()) {
            report
                .notes
                .push(format!("{}: new table, not in baseline", cur.id()));
        }
    }
    report
}

/// A copy of `tables` with every gated cell moved to the gate's edge at
/// `tolerance`, then `margin` past it (positive) or inside it
/// (negative): a throughput cell `b` becomes
/// `b · (1 − tolerance) · (1 − margin)` and a ΔRSS cell becomes
/// `(b · (1 + tolerance) + MEM_SLACK_MIB) · (1 + margin)`. Cells that do
/// not parse as numbers stay as they are.
fn at_gate_edge(tables: &[Table], tolerance: f64, margin: f64) -> Vec<Table> {
    let mut out = tables.to_vec();
    for t in &mut out {
        for (c, header) in t.columns.iter().enumerate() {
            let memory = is_memory_column(header);
            if !memory && !is_gated_column(header) {
                continue;
            }
            for row in &mut t.rows {
                let Ok(b) = row[c].parse::<f64>() else {
                    continue;
                };
                let edge = if memory {
                    (b * (1.0 + tolerance) + MEM_SLACK_MIB) * (1.0 + margin)
                } else {
                    b * (1.0 - tolerance) * (1.0 - margin)
                };
                row[c] = edge.to_string();
            }
        }
    }
    out
}

/// Prove the gate fires at its own `tolerance`: against `committed`,
/// every gated cell moved 1% past the edge (throughput 1% below the
/// floor, ΔRSS 1% above the ceiling) must fail its check, while cells
/// 1% inside the edge and an identical copy must pass. Returns the
/// number of cells checked.
pub fn selftest(committed: &[Table], tolerance: f64) -> Result<usize, String> {
    let past = compare(
        committed,
        &at_gate_edge(committed, tolerance, 0.01),
        tolerance,
    );
    if past.checks == 0 {
        return Err("the baseline has no throughput or ΔRSS cells to gate".into());
    }
    if past.failures.len() != past.checks {
        return Err(format!(
            "only {} of {} cells moved 1% past the {:.0}% tolerance tripped the gate",
            past.failures.len(),
            past.checks,
            tolerance * 100.0
        ));
    }
    for (what, fresh) in [
        (
            "1% inside the tolerance",
            at_gate_edge(committed, tolerance, -0.01),
        ),
        ("identical to the baseline", committed.to_vec()),
    ] {
        let r = compare(committed, &fresh, tolerance);
        if !r.pass() {
            return Err(format!(
                "cells {what} tripped the gate: {}",
                r.failures.join("; ")
            ));
        }
    }
    Ok(past.checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(id: &str, cols: &[&str], rows: &[&[&str]]) -> Table {
        let mut t = Table::new(format!("{id} — synthetic"), cols);
        for r in rows {
            t.row(r.iter().map(|s| s.to_string()).collect());
        }
        t
    }

    /// The experiments whose `--quick` tables ci.sh captures and gates
    /// (`rfc-experiments e14 e16 e17 --quick`).
    const CAPTURED: [&str; 3] = ["E14", "E16", "E17"];

    #[test]
    fn committed_baseline_parses_passes_itself_and_has_live_producers() {
        let committed =
            experiments::table::parse_tables(include_str!("../../../BENCH_scale.json")).unwrap();
        let r = compare(&committed, &committed, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert!(r.checks > 0);
        let registry = experiments::all_experiments();
        for id in CAPTURED {
            assert!(
                registry.iter().any(|e| e.id.eq_ignore_ascii_case(id)),
                "{id} unregistered"
            );
            assert!(
                committed.iter().any(|t| t.id() == id),
                "{id} has no baseline"
            );
        }
        for t in &committed {
            assert!(
                is_landmark_table(&t.title) || CAPTURED.contains(&t.id()),
                "{}: no CI capture produces this baseline table",
                t.id()
            );
        }
    }

    #[test]
    fn selftest_trips_just_past_the_tolerance_and_passes_just_inside() {
        let committed =
            experiments::table::parse_tables(include_str!("../../../BENCH_scale.json")).unwrap();
        for tol in [0.05, 0.20, 0.35] {
            assert!(selftest(&committed, tol).unwrap() > 0);
        }
        let base = vec![table(
            "E16",
            &["n", "rounds/s", "ΔRSS MiB"],
            &[&["512", "1000", "10"]],
        )];
        let past = at_gate_edge(&base, 0.20, 0.01);
        assert_eq!(past[0].rows[0][1..], ["792", "20.2"]);
        let r = compare(&base, &past, 0.20);
        assert_eq!((r.failures.len(), r.checks), (2, 2), "{:?}", r.failures);
        assert!(compare(&base, &at_gate_edge(&base, 0.20, -0.01), 0.20).pass());
        // A column the gate does not read cannot prove anything.
        let ungated = vec![table("E16", &["n", "digest"], &[&["512", "abc"]])];
        assert!(selftest(&ungated, 0.20).is_err());
    }

    #[test]
    fn identical_tables_pass() {
        let t = vec![table(
            "E16",
            &["n", "rounds/s", "digest"],
            &[&["512", "1000", "abc"], &["4096", "500", "def"]],
        )];
        let r = compare(&t, &t, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert_eq!(r.checks, 2);
        assert!(r.notes.is_empty());
    }

    #[test]
    fn instances_per_s_columns_are_gated() {
        assert!(is_gated_column("instances/s"));
        assert!(is_gated_column("rounds/s"));
        assert!(!is_gated_column("rtd mean"));
        assert!(!is_gated_column("Magent·rounds/s"));
        let base = vec![table("E17", &["instances", "instances/s"], &[&["1000", "500"]])];
        let slow = vec![table("E17", &["instances", "instances/s"], &[&["1000", "200"]])];
        assert!(!compare(&base, &slow, 0.20).pass());
        assert!(compare(&base, &base, 0.20).pass());
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let slow = vec![table("E16", &["n", "rounds/s"], &[&["512", "700"]])];
        let r = compare(&base, &slow, 0.20);
        assert!(!r.pass());
        assert!(r.failures[0].contains("30% drop"), "{}", r.failures[0]);
        // The same drop passes under a looser tolerance.
        assert!(compare(&base, &slow, 0.35).pass());
        // A drop inside tolerance passes.
        let ok = vec![table("E16", &["n", "rounds/s"], &[&["512", "850"]])];
        assert!(compare(&base, &ok, 0.20).pass());
    }

    #[test]
    fn improvement_is_a_note_not_a_failure() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let fast = vec![table("E16", &["n", "rounds/s"], &[&["512", "1500"]])];
        let r = compare(&base, &fast, 0.20);
        assert!(r.pass());
        assert_eq!(r.notes.len(), 1);
        assert!(r.notes[0].contains("refreshing"), "{}", r.notes[0]);
    }

    #[test]
    fn missing_table_row_or_column_fails() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let r = compare(&base, &[], 0.20);
        assert!(r.failures[0].contains("table missing"));
        let no_row = vec![table("E16", &["n", "rounds/s"], &[&["4096", "1000"]])];
        let r = compare(&base, &no_row, 0.20);
        assert!(r.failures.iter().any(|f| f.contains("row missing")));
        let no_col = vec![table("E16", &["n"], &[&["512"]])];
        let r = compare(&base, &no_col, 0.20);
        assert!(r.failures.iter().any(|f| f.contains("column")));
    }

    #[test]
    fn unparseable_throughput_cell_fails() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let junk = vec![table("E16", &["n", "rounds/s"], &[&["512", "fast"]])];
        let r = compare(&base, &junk, 0.20);
        assert!(r.failures.iter().any(|f| f.contains("unparseable")));
    }

    #[test]
    fn fresh_only_coverage_is_a_note() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        let more = vec![
            table("E16", &["n", "rounds/s"], &[&["512", "1000"], &["4096", "2"]]),
            table("E99", &["n", "rounds/s"], &[&["1", "1"]]),
        ];
        let r = compare(&base, &more, 0.20);
        assert!(r.pass());
        assert!(r.notes.iter().any(|n| n.contains("new row")));
        assert!(r.notes.iter().any(|n| n.contains("new table")));
    }

    #[test]
    fn repeated_captures_gate_against_the_best_sample() {
        let base = vec![table("E16", &["n", "rounds/s"], &[&["512", "1000"]])];
        // One noisy low sample + one healthy sample: best-of-2 passes.
        let noisy = vec![
            table("E16", &["n", "rounds/s"], &[&["512", "600"]]),
            table("E16", &["n", "rounds/s"], &[&["512", "980"]]),
        ];
        let r = compare(&base, &noisy, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert_eq!(r.checks, 1, "one check per cell, not per sample");
        // A regression present in *every* sample still fails, and the
        // message says how many samples were consulted.
        let slow = vec![
            table("E16", &["n", "rounds/s"], &[&["512", "600"]]),
            table("E16", &["n", "rounds/s"], &[&["512", "650"]]),
        ];
        let r = compare(&base, &slow, 0.20);
        assert!(!r.pass());
        assert!(r.failures[0].contains("best of 2"), "{}", r.failures[0]);
    }

    #[test]
    fn memory_ceiling_gates_rss_columns() {
        assert!(is_memory_column("ΔRSS MiB"));
        assert!(!is_memory_column("rounds/s"));
        assert!(!is_gated_column("ΔRSS MiB"));
        let base =
            vec![table("E16", &["n", "rounds/s", "ΔRSS MiB"], &[&["512", "1000", "100"]])];
        // Growth within tolerance + slack passes.
        let ok =
            vec![table("E16", &["n", "rounds/s", "ΔRSS MiB"], &[&["512", "1000", "115"]])];
        let r = compare(&base, &ok, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert_eq!(r.checks, 2, "throughput + memory both checked");
        // Growth beyond ceiling fails — memory regressions are gated.
        let fat =
            vec![table("E16", &["n", "rounds/s", "ΔRSS MiB"], &[&["512", "1000", "200"]])];
        let r = compare(&base, &fat, 0.20);
        assert!(!r.pass());
        assert!(r.failures[0].contains("ceiling"), "{}", r.failures[0]);
        // A *drop* in memory is fine (and noted when large).
        let slim =
            vec![table("E16", &["n", "rounds/s", "ΔRSS MiB"], &[&["512", "1000", "10"]])];
        let r = compare(&base, &slim, 0.20);
        assert!(r.pass());
        assert!(r.notes.iter().any(|n| n.contains("shrunk")), "{:?}", r.notes);
    }

    #[test]
    fn memory_small_rows_ride_the_absolute_slack() {
        // Sub-MiB committed cells would fail any relative band on pure
        // jitter; the absolute slack absorbs that.
        let base = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "0.05"]])];
        let jitter = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "4.50"]])];
        assert!(compare(&base, &jitter, 0.20).pass());
        let blowup = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "32.00"]])];
        assert!(!compare(&base, &blowup, 0.20).pass());
    }

    #[test]
    fn landmark_tables_skip_when_absent_and_gate_when_present() {
        let mut landmark =
            table("E16L", &["n", "rounds/s", "ΔRSS MiB"], &[&["10000000", "0.045", "49151.85"]]);
        landmark.title = "E16L — 10⁷-agent landmark (manual capture)".into();
        let quick = table("E16", &["n", "rounds/s"], &[&["512", "1000"]]);
        let committed = vec![quick.clone(), landmark.clone()];
        // Fresh CI captures never rerun the landmark: note, not failure.
        let r = compare(&committed, std::slice::from_ref(&quick), 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("landmark")), "{:?}", r.notes);
        // A non-landmark table absent from fresh still fails (coverage
        // shrink must not read as a pass).
        assert!(!compare(&committed, &[landmark.clone()], 0.20).pass());
        // When the landmark IS present (selftest / deliberate
        // re-capture), its cells are gated like any other table's.
        let mut slow = landmark.clone();
        slow.rows[0][1] = "0.01".into();
        let r = compare(&committed, &[quick, slow], 0.20);
        assert!(!r.pass());
        assert!(r.failures.iter().any(|f| f.contains("E16L")), "{:?}", r.failures);
    }

    #[test]
    fn memory_na_cells_skip_instead_of_failing() {
        let base = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "100"]])];
        let na = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "n/a"]])];
        let r = compare(&base, &na, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("unmeasurable")));
        // And symmetrically for an n/a baseline (captured off-Linux).
        let r = compare(&na, &base, 0.20);
        assert!(r.pass(), "{:?}", r.failures);
    }

    #[test]
    fn memory_best_of_n_takes_the_minimum_sample() {
        let base = vec![table("E16", &["n", "ΔRSS MiB"], &[&["512", "100"]])];
        // One inflated sample (warm process) + one clean: min passes.
        let noisy = vec![
            table("E16", &["n", "ΔRSS MiB"], &[&["512", "300"]]),
            table("E16", &["n", "ΔRSS MiB"], &[&["512", "105"]]),
        ];
        assert!(compare(&base, &noisy, 0.20).pass());
        // Inflation in every sample still fails.
        let fat = vec![
            table("E16", &["n", "ΔRSS MiB"], &[&["512", "300"]]),
            table("E16", &["n", "ΔRSS MiB"], &[&["512", "280"]]),
        ];
        assert!(!compare(&base, &fat, 0.20).pass());
    }

    #[test]
    fn title_edits_keep_the_id_match() {
        let mut base = table("E16", &["n", "rounds/s"], &[&["512", "1000"]]);
        base.title = "E16 — scaling (γ = 3, quick)".into();
        let mut fresh = base.clone();
        fresh.title = "E16 — scaling under the staged engine (γ = 3)".into();
        assert!(compare(&[base], &[fresh], 0.20).pass());
    }
}
