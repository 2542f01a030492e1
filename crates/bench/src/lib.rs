//! # rfc-bench — the CI perf-regression gate
//!
//! The crate ships the **perf-regression gate** ([`gate`]): a throughput
//! and ΔRSS comparator over the committed `BENCH_scale.json` baseline,
//! whose tables it reads with `experiments::table::parse_tables`. The
//! `rfc-bench` binary drives it:
//!
//! * `rfc-bench gate <committed> <fresh>...` — compare fresh tables
//!   against the baseline and fail on a drop beyond tolerance;
//! * `rfc-bench selftest <committed>` — prove the gate fires just past
//!   its tolerance and holds just inside it.
//!
//! The gated tables come from the experiments (E14 trials/s, E16
//! rounds/s, E17 instances/s); per-layer costs of protocol P, the wire
//! codec included, are timed in place by the `perfbench/` benchmark.

pub mod gate;
