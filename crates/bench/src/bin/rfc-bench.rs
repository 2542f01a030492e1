//! The `rfc-bench` CLI: the CI perf-regression gate.
//!
//! ```text
//! rfc-bench gate <committed.json> <fresh.json>...
//!     Parse the committed baseline and the freshly measured table
//!     files (concatenated), compare every throughput column, and exit
//!     non-zero on a drop beyond tolerance. Tolerance is the
//!     RFC_GATE_TOLERANCE env var (a fraction, default 0.20).
//!
//! rfc-bench selftest <committed.json>
//!     Prove the gate can fire at that tolerance: re-compare the
//!     baseline against a copy with every throughput and ΔRSS cell moved
//!     1% past the tolerance (every check must FAIL), 1% inside it and
//!     unchanged (both must PASS). Exit non-zero if an expectation breaks.
//! ```

use experiments::table::parse_tables;
use experiments::Table;
use rfc_bench::gate::{compare, selftest};
use std::process::ExitCode;

fn tolerance() -> f64 {
    match std::env::var("RFC_GATE_TOLERANCE") {
        Ok(v) => match v.parse::<f64>() {
            Ok(t) if (0.0..1.0).contains(&t) => t,
            _ => {
                eprintln!("rfc-bench: RFC_GATE_TOLERANCE must be a fraction in [0,1), got {v:?}");
                std::process::exit(2);
            }
        },
        Err(_) => 0.20,
    }
}

fn load(path: &str) -> Vec<Table> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("rfc-bench: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_tables(&text).unwrap_or_else(|e| {
        eprintln!("rfc-bench: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn run_gate(committed_path: &str, fresh_paths: &[String]) -> ExitCode {
    let committed = load(committed_path);
    let mut fresh = Vec::new();
    for p in fresh_paths {
        fresh.extend(load(p));
    }
    let tol = tolerance();
    let report = compare(&committed, &fresh, tol);
    for note in &report.notes {
        println!("note: {note}");
    }
    for failure in &report.failures {
        println!("FAIL: {failure}");
    }
    if report.pass() {
        println!(
            "perf gate OK: {} throughput/memory checks within {:.0}% of {}",
            report.checks,
            tol * 100.0,
            committed_path
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "perf gate FAILED: {} violation(s) against {} (tolerance {:.0}%)",
            report.failures.len(),
            committed_path,
            tol * 100.0
        );
        ExitCode::FAILURE
    }
}

fn run_selftest(committed_path: &str) -> ExitCode {
    let tol = tolerance();
    match selftest(&load(committed_path), tol) {
        Ok(checks) => {
            println!(
                "selftest OK: all {checks} gated cells trip the gate 1% past its {:.0}% tolerance; 1% inside it and the identical baseline pass",
                tol * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("selftest FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "gate" && rest.len() >= 2 => run_gate(&rest[0], &rest[1..]),
        Some((cmd, rest)) if cmd == "selftest" && rest.len() == 1 => run_selftest(&rest[0]),
        _ => {
            eprintln!(
                "usage: rfc-bench gate <committed.json> <fresh.json>...\n       rfc-bench selftest <committed.json>"
            );
            ExitCode::FAILURE
        }
    }
}
