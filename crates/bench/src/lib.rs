//! # rfc-bench — the CI perf-regression gate and its two measurements
//!
//! The crate ships the **perf-regression gate** ([`gate`]): a
//! dependency-free parser for the committed `BENCH_scale.json` baseline
//! plus a throughput and ΔRSS comparator. The `rfc-bench` binary drives
//! it and measures the two rows no experiment emits:
//!
//! * `rfc-bench gate <committed> <fresh>...` — compare fresh tables
//!   against the baseline and fail on a drop beyond tolerance;
//! * `rfc-bench selftest <committed>` — prove the gate can fire;
//! * `rfc-bench codec <out>` — wire-codec encode/decode throughput (E18);
//! * `rfc-bench serial <out>` — the staged engine's drained serial
//!   sections, serial vs sharded (E19).
//!
//! Protocol P's costs are measured elsewhere: the experiment tables
//! (E14 trials/s, E16 rounds/s) and the `perfbench/` benchmark.

pub mod gate;

pub use gate::{compare, parse_table, parse_tables, GateReport, TableData};
