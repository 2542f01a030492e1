//! E16 — the first million-agent run: intra-trial sharding under the
//! staged round engine.
//!
//! E14 scales *trials* across cores; every trial stays single-threaded
//! inside, so one giant run — the regime the paper's asymptotics
//! actually concern — could use exactly one core. The staged engine
//! (`gossip_net::network::staged`) opens the other axis: plan and apply
//! shard the agents of **one** trial across worker threads under the
//! [`RngDiscipline::PerAgent`](gossip_net::rng::RngDiscipline::PerAgent)
//! loss discipline, and the two layers compose (shards within a trial ×
//! arenas across trials: this sweep runs every row through one reused
//! `TrialArena`).
//!
//! This experiment runs **single trials** at `n` up to 10⁶ and sweeps
//! the shard count, reporting per row:
//!
//! * **rounds/s** and **Magent·rounds/s** — wall-clock throughput of
//!   the staged engine at this shard count;
//! * **bytes/agent** — wire traffic per agent (seed-deterministic);
//! * **ΔRSS** — `VmHWM` growth attributed to the row (the first row of
//!   each `n` pays the arena's build; later rows reuse it);
//! * **digest** — an FNV-1a fingerprint over the deterministic headline
//!   fields of the [`RunReport`]. The experiment *asserts* that every
//!   shard count of an `n` produces the same digest: the scaling sweep
//!   is also a live bit-identity check, machine-verified on every run.
//!
//! Like E14, the throughput/ΔRSS columns are measurements of this
//! machine; outcome, traffic, and digest are pure functions of the seed.

use crate::e14_scale::{peak_rss_mib, rss_growth};
use crate::opts::ExpOptions;
use crate::table::{fmt, Table};
use rfc_core::runner::{RunConfig, RunReport, TrialArena};
use rfc_core::Fnv1a;

/// Default landing directory for `--checkpoint-every` snapshots.
const DEFAULT_CHECKPOINT_DIR: &str = "target/checkpoints";

/// Pinned digest of the 10⁷-agent landmark row (n = 10 000 000, γ = 3,
/// balanced two-color split, seed `0x5EED_2017`, loss-free). Captured
/// from the first completed run; asserted by the `#[ignore]`d
/// `e16_ten_million_row_pins_digest` test and recorded in
/// `BENCH_scale.json`.
pub const TEN_MILLION_DIGEST: u64 = 0x9073c387147af7bf;

/// Per-row checkpoint file name: one snapshot file per `(n, shards)`
/// row, overwritten at each cadence point so it always holds the
/// latest boundary.
fn checkpoint_file(dir: &str, n: usize, shards: usize) -> String {
    format!("{dir}/e16_n{n}_s{shards}.rfck")
}

/// Execute one E16 row honoring the checkpoint options: resume from a
/// prior snapshot (`--resume-from`), emit snapshots while running
/// (`--checkpoint-every`), or the plain arena path. Returns the report
/// and a row marker (`""`, `"ckpt"`, or `"resumed@r"`).
fn run_row(
    arena: &mut TrialArena,
    cfg: &RunConfig,
    opts: &ExpOptions,
    n: usize,
    shards: usize,
) -> (RunReport, String) {
    if let Some(dir) = opts.resume_from {
        let path = checkpoint_file(dir, n, shards);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("E16: cannot read checkpoint {path}: {e}"));
        let round = rfc_core::checkpoint::peek_header(&bytes)
            .unwrap_or_else(|e| panic!("E16: bad checkpoint {path}: {e}"))
            .round;
        let report = rfc_core::resume_protocol(cfg, &bytes)
            .unwrap_or_else(|e| panic!("E16: resume from {path} failed: {e}"));
        return (report, format!("resumed@{round}"));
    }
    if opts.checkpoint_every > 0 {
        let dir = opts.checkpoint_dir.unwrap_or(DEFAULT_CHECKPOINT_DIR);
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("E16: checkpoint dir {dir}: {e}"));
        let path = checkpoint_file(dir, n, shards);
        let report = rfc_core::run_protocol_with_checkpoints(
            cfg,
            opts.seed,
            opts.checkpoint_every,
            &mut |_round, bytes| {
                std::fs::write(&path, bytes)
                    .unwrap_or_else(|e| panic!("E16: write {path}: {e}"));
            },
        )
        .expect("E16: checkpointed run failed");
        return (report, "ckpt".into());
    }
    (arena.run_protocol(cfg, opts.seed), String::new())
}

/// Shard counts every sweep visits (plus the `--threads` value, so the
/// CLI flag drives the engine it asks about).
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// FNV-1a 64 over a compact deterministic subset of the report
/// (outcome, winner, wire meters, per-agent decisions — wall-clock
/// excluded). This is E16's *in-run invariance check* across shard
/// counts, deliberately cheaper than the full golden digest in
/// `tests/common/mod.rs`, which remains the pinned-corpus definition.
fn report_digest(r: &RunReport) -> u64 {
    let mut h = Fnv1a::short_multiplier();
    h.write(format!("{:?}", r.outcome).as_bytes());
    h.write_u64(r.rounds as u64);
    h.write(format!("{:?}", r.winner).as_bytes());
    h.write_u64(r.metrics.messages_sent);
    h.write_u64(r.metrics.bits_sent);
    h.write_u64(r.metrics.undelivered);
    h.write_u64(r.metrics.max_message_bits);
    h.write_u64(r.metrics.max_active_links);
    h.write_u64(r.n_active as u64);
    // Decisions hashed numerically — at n = 10⁶ this loop runs a
    // million times per row, so no per-entry formatting.
    for d in &r.decisions {
        h.write_u64(match d {
            rfc_core::Decision::Faulty => 1 << 32,
            rfc_core::Decision::Failed => 2 << 32,
            rfc_core::Decision::Decided(c) => (3 << 32) | *c as u64,
        });
    }
    h.finish()
}

/// Run E16 and produce its table.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let sizes: Vec<usize> = if let Some(spec) = opts.sizes {
        ExpOptions::parse_list(spec, 2).unwrap_or_else(|e| panic!("E16 --sizes: {e}"))
    } else if opts.quick {
        vec![512, 4096]
    } else {
        vec![100_000, 1_000_000]
    };
    run_with_sizes(opts, &sizes)
}

/// [`run`] over explicit sweep sizes (tests pass small ones).
pub fn run_with_sizes(opts: &ExpOptions, sizes: &[usize]) -> Vec<Table> {
    let gamma = 3.0;
    // Quick mode trims the fixed sweep but always keeps the CLI's
    // `--threads` value — the flag drives the engine in both modes.
    // `--shards` replaces the sweep outright (e.g. `--shards 1` keeps a
    // 10⁷ landmark run from re-measuring the same core four times).
    let mut shards: Vec<usize> = if let Some(spec) = opts.shards {
        ExpOptions::parse_list(spec, 1).unwrap_or_else(|e| panic!("E16 --shards: {e}"))
    } else if opts.quick {
        vec![1, 2, opts.intra_threads()]
    } else {
        let mut s = SHARD_SWEEP.to_vec();
        s.push(opts.intra_threads());
        s
    };
    shards.sort_unstable();
    shards.dedup();

    let mut table = Table::new(
        format!(
            "E16 — single-trial scaling under the staged engine (γ = {gamma}, PerAgent discipline)"
        ),
        &[
            "n",
            "q",
            "shards",
            "outcome",
            "rounds/s",
            "Magent·rounds/s",
            "bytes/agent",
            "ΔRSS MiB",
            "digest",
        ],
    );
    let mut arena = TrialArena::new();
    let mut markers: Vec<String> = Vec::new();
    // `--stage-times`: per-row plan/exchange/apply wall-clock split of
    // the staged engine, reported as a second table. Observability only
    // — the timing clocks never feed the digest.
    let mut stage_rows: Vec<Vec<String>> = Vec::new();
    for &n in sizes {
        let cfg_for = |threads: usize| {
            RunConfig::builder(n)
                .gamma(gamma)
                .colors(vec![n - n / 2, n / 2])
                .sharded(threads)
                // Production-scale rows skip the op log via the
                // RunConfig toggle (the builder default): recording is
                // digest-invariant but costs one event per op, which at
                // n = 10⁶⁺ is exactly the memory/time this sweep
                // measures. `tests/sharded_engine.rs` pins the
                // invariance.
                .record_ops(false)
                .time_stages(opts.stage_times)
                .build()
        };
        let mut first_digest: Option<u64> = None;
        for &threads in &shards {
            let cfg = cfg_for(threads);
            let rss_before = peak_rss_mib();
            let started = std::time::Instant::now();
            let (report, marker) = run_row(&mut arena, &cfg, opts, n, threads);
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            if !marker.is_empty() {
                markers.push(format!("n{n}/s{threads}: {marker}"));
            }
            let digest = report_digest(&report);
            // The sweep is itself a bit-identity check: every shard
            // count must reproduce the first row's digest exactly.
            match first_digest {
                None => first_digest = Some(digest),
                Some(want) => assert_eq!(
                    digest, want,
                    "E16: digest changed with shard count (n={n}, shards={threads})"
                ),
            }
            let rounds_per_s = report.rounds as f64 / secs;
            table.row(vec![
                n.to_string(),
                cfg.params().q.to_string(),
                threads.to_string(),
                format!("{:?}", report.outcome),
                format!("{rounds_per_s:.1}"),
                fmt::f2(rounds_per_s * n as f64 / 1e6),
                fmt::f2(report.metrics.bits_sent as f64 / 8.0 / n as f64),
                rss_growth(rss_before),
                format!("{:016x}", digest),
            ]);
            if let Some(st) = report.stage_times {
                stage_rows.push(vec![
                    n.to_string(),
                    threads.to_string(),
                    (st.plan_us / 1000).to_string(),
                    (st.exchange_us / 1000).to_string(),
                    (st.build_us / 1000).to_string(),
                    (st.meter_us / 1000).to_string(),
                    (st.log_us / 1000).to_string(),
                    (st.resolve_us / 1000).to_string(),
                    (st.pull_us / 1000).to_string(),
                    (st.apply_us / 1000).to_string(),
                    format!(
                        "{:.1}",
                        100.0 * st.meter_log_us() as f64 / st.exchange_us.max(1) as f64
                    ),
                ]);
            }
        }
    }
    table.note("single trial per row; one TrialArena reused across the whole sweep (ΔRSS of later rows ≈ 0 is the arena-reuse witness)");
    table.note("digest = FNV-1a over the deterministic RunReport fields; equal digests across the shard column are asserted, not just printed");
    table.note("PerAgent discipline: loss draws keyed (seed, round, agent) — this table is loss-free, so digests also equal the sequential engine's");
    table.note("rounds/s and ΔRSS are wall-clock measurements of this machine; shard counts beyond the core count still pin determinism");
    if !markers.is_empty() {
        // Resumed rows re-enter the in-run digest assertion above: a
        // resumed row reproducing the straight rows' digest is the
        // machine-checked bit-identity witness for the CLI path.
        table.note(format!("checkpointing: {}", markers.join(", ")));
    }
    let mut tables = vec![table];
    if !stage_rows.is_empty() {
        let mut st = Table::new(
            "E16 — staged-engine stage breakdown (--stage-times)".to_string(),
            &[
                "n",
                "shards",
                "plan ms",
                "exchange ms",
                "build ms",
                "meter ms",
                "log ms",
                "resolve ms",
                "pull ms",
                "apply ms",
                "meter+log %",
            ],
        );
        for row in stage_rows {
            st.row(row);
        }
        st.note("cumulative wall-clock per stage across the whole run; build/meter/log/resolve/pull are sub-clocks of exchange (pull = on_pull handlers and reply metering; the small remainder is round bookkeeping)");
        st.note("meter+log % is the exchange share of the two formerly serial passes the sharded tally-merge and op-log scatter drained");
        tables.push(st);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_sweeps_and_pins_digest_across_shards() {
        let tables = run_with_sizes(&ExpOptions::quick(), &[96, 256]);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert!(t.rows.len() >= 4, "two sizes × ≥2 shard counts");
        // Per n, every digest cell matches (also asserted inside run).
        for n in ["96", "256"] {
            let digests: Vec<&String> = t
                .rows
                .iter()
                .filter(|r| r[0] == n)
                .map(|r| &r[8])
                .collect();
            assert!(digests.len() >= 2);
            assert!(digests.windows(2).all(|w| w[0] == w[1]), "digest drift at n={n}");
        }
        // Consensus at γ = 3 for these sizes, w.h.p.
        for row in &t.rows {
            assert!(row[3].starts_with("Consensus"), "expected consensus: {row:?}");
        }
    }

    #[test]
    fn e16_checkpoint_and_resume_rows_are_bit_identical() {
        let dir = std::env::temp_dir().join(format!("rfc_e16_ckpt_{}", std::process::id()));
        let dir_str: &'static str =
            Box::leak(dir.to_string_lossy().into_owned().into_boxed_str());
        let straight = run_with_sizes(&ExpOptions::quick(), &[96]);
        let mut ck = ExpOptions::quick();
        ck.checkpoint_every = 7;
        ck.checkpoint_dir = Some(dir_str);
        let checkpointed = run_with_sizes(&ck, &[96]);
        let mut rs = ExpOptions::quick();
        rs.resume_from = Some(dir_str);
        let resumed = run_with_sizes(&rs, &[96]);
        std::fs::remove_dir_all(&dir).ok();
        // Same rows (by identity columns) and the same digest cell in
        // all three modes: straight, checkpoint-emitting, resumed.
        let digests = |tables: &[Table]| -> Vec<(String, String)> {
            tables[0]
                .rows
                .iter()
                .map(|r| (format!("{}/{}", r[0], r[2]), r[8].clone()))
                .collect()
        };
        let want = digests(&straight);
        assert!(!want.is_empty());
        assert_eq!(want, digests(&checkpointed), "checkpoint emission changed a digest");
        assert_eq!(want, digests(&resumed), "resume changed a digest");
        let resumed_note = resumed.last().unwrap().notes.last().unwrap();
        assert!(resumed_note.contains("resumed@"), "{resumed_note}");
    }

    #[test]
    fn e16_quick_mode_runs_the_registry_entry() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let max_n: usize = t.rows.iter().map(|r| r[0].parse().unwrap()).max().unwrap();
        assert!(max_n <= 4096, "quick mode must stay CI-sized");
    }

    #[test]
    fn e16_stage_times_emit_second_table_without_digest_drift() {
        let plain = run_with_sizes(&ExpOptions::quick(), &[96]);
        let mut st = ExpOptions::quick();
        st.stage_times = true;
        let timed = run_with_sizes(&st, &[96]);
        assert_eq!(plain.len(), 1);
        assert_eq!(timed.len(), 2, "--stage-times adds the breakdown table");
        // Timing is observability only: the main table's digest cells
        // are byte-identical with and without the clocks running.
        let digests =
            |t: &Table| t.rows.iter().map(|r| r[8].clone()).collect::<Vec<_>>();
        assert_eq!(digests(&plain[0]), digests(&timed[0]));
        // One breakdown row per main row, sub-clocks in range.
        assert_eq!(timed[1].rows.len(), timed[0].rows.len());
        for row in &timed[1].rows {
            assert_eq!(row.len(), 11, "plan/exchange/build/meter/log/resolve/pull/apply row");
            let pct: f64 = row[10].parse().unwrap();
            assert!((0.0..=100.0).contains(&pct), "bad meter+log %: {row:?}");
        }
    }

    #[test]
    fn e16_sizes_and_shards_overrides_drive_the_sweep() {
        let mut o = ExpOptions::quick();
        o.sizes = Some("128");
        o.shards = Some("1,3");
        let tables = run(&o);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 2, "one size × two shard counts");
        assert!(rows.iter().all(|r| r[0] == "128"));
        assert_eq!(rows[0][2], "1");
        assert_eq!(rows[1][2], "3");
        assert_eq!(rows[0][8], rows[1][8], "override rows must still agree");
    }

    /// The 10⁷ landmark: a single γ = 3 trial at n = 10 000 000 (≈ 107
    /// minutes of compute on one core, ~48 GiB peak RSS — hence
    /// `#[ignore]`). Run with:
    ///
    /// ```text
    /// cargo test --release -p experiments e16_ten_million -- --ignored
    /// ```
    ///
    /// The digest is pinned from the first completed run (seed
    /// 0x5EED2017, shards = 1; shard count never affects digests, which
    /// the regular sweep machine-checks at smaller n).
    #[test]
    #[ignore = "10^7-agent trial: ~107 min single-core, ~48 GiB peak RSS"]
    fn e16_ten_million_row_pins_digest() {
        let o = ExpOptions {
            shards: Some("1"),
            ..ExpOptions::default()
        };
        let tables = run_with_sizes(&o, &[10_000_000]);
        let row = &tables[0].rows[0];
        assert!(row[3].starts_with("Consensus"), "outcome: {row:?}");
        assert_eq!(row[1], "72", "q = ceil(3·log2(1e7))");
        assert_eq!(
            row[8],
            format!("{TEN_MILLION_DIGEST:016x}"),
            "10^7 landmark digest moved"
        );
    }
}
