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
//!     Prove the gate can fire: re-compare the baseline against a copy
//!     of itself with every throughput cell halved and every ΔRSS cell
//!     inflated (must FAIL) and against an identical copy (must PASS).
//!     Exit non-zero if either expectation breaks.
//!
//! rfc-bench codec <out.json>
//!     Measure wire-codec encode/decode throughput over a deterministic
//!     message corpus and write one gate-compatible table (columns
//!     `enc msgs/s` / `dec msgs/s`) to <out.json>.
//!
//! rfc-bench serial <out.json>
//!     Measure the staged engine's drained serial sections head-to-head:
//!     op-order metering vs per-shard Tally merge, sequential op-log
//!     append vs prefix-summed scatter, and serial plan-buffer concat vs
//!     parallel scatter — at 1/2/4/8 shards over a deterministic event
//!     stream. Writes one gate-compatible table (columns `serial Mops/s`
//!     / `sharded Mops/s`) to <out.json>. Every sharded arm's output is
//!     asserted bit-identical to its serial arm before timing counts.
//! ```

use experiments::Table;
use gossip_net::rng::DetRng;
use rfc_bench::gate::{compare, is_gated_column, is_memory_column, parse_tables, TableData};
use rfc_core::certificate::{CertData, VoteRec};
use rfc_core::codec::{decode_msg, encode_msg};
use rfc_core::msg::{IntentEntry, Msg};
use rfc_core::params::Params;
use rfc_core::payload::PayloadPool;
use std::process::ExitCode;
use std::time::Instant;

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

fn load(path: &str) -> Vec<TableData> {
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
    let committed = load(committed_path);
    let gated_cells: usize = committed
        .iter()
        .map(|t| {
            let cols = t.columns.iter().filter(|c| is_gated_column(c)).count();
            cols * t.rows.len()
        })
        .sum();
    if gated_cells == 0 {
        eprintln!("rfc-bench selftest: {committed_path} has no throughput cells to gate");
        return ExitCode::FAILURE;
    }
    // Injected regression: halve every throughput cell and inflate every
    // memory cell past any plausible slack. The gate must fire on both.
    let regressed: Vec<TableData> = committed
        .iter()
        .map(|t| {
            let mut t = t.clone();
            let throughput: Vec<usize> = t
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| is_gated_column(c))
                .map(|(i, _)| i)
                .collect();
            let memory: Vec<usize> = t
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| is_memory_column(c))
                .map(|(i, _)| i)
                .collect();
            for row in &mut t.rows {
                for &c in &throughput {
                    if let Ok(v) = row[c].parse::<f64>() {
                        row[c] = format!("{}", v * 0.5);
                    }
                }
                for &c in &memory {
                    if let Ok(v) = row[c].parse::<f64>() {
                        row[c] = format!("{}", v * 10.0 + 100.0);
                    }
                }
            }
            t
        })
        .collect();
    let tol = tolerance();
    let fired = compare(&committed, &regressed, tol);
    if fired.pass() {
        println!("selftest FAILED: a 50% slowdown across {gated_cells} cells did not trip the gate");
        return ExitCode::FAILURE;
    }
    let mem_cells: usize = committed
        .iter()
        .map(|t| t.columns.iter().filter(|c| is_memory_column(c)).count() * t.rows.len())
        .sum();
    if mem_cells > 0
        && !fired.failures.iter().any(|f| f.contains("ceiling"))
    {
        println!(
            "selftest FAILED: inflating {mem_cells} ΔRSS cells 10×+100 MiB did not trip the memory ceiling"
        );
        return ExitCode::FAILURE;
    }
    let clean = compare(&committed, &committed, tol);
    if !clean.pass() {
        println!("selftest FAILED: the baseline does not pass against itself:");
        for f in &clean.failures {
            println!("  {f}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "selftest OK: gate trips on injected 50% slowdown + ΔRSS inflation ({} violations over {} checks) and passes identity",
        fired.failures.len(),
        clean.checks
    );
    ExitCode::SUCCESS
}

/// The parameters of the throughput corpus: the wire shapes a real
/// `n = 4096, γ = 3` run produces (`q = 36` intent entries and cert
/// votes, values in `[m] = [n³]`).
const CODEC_Q: usize = 36;
const CODEC_M: u64 = 4096u64 * 4096 * 4096;

/// One deterministic message of each class, sized like production
/// traffic, its payload in `pool`. `class` selects the variant so
/// per-class rows measure pure encode/decode cost without branch-mix
/// noise.
fn corpus_msg(class: &str, rng: &mut DetRng, pool: &PayloadPool) -> Msg {
    match class {
        "query" => {
            if rng.index(2) == 0 {
                Msg::QIntent
            } else {
                Msg::QMinCert
            }
        }
        "vote" => Msg::Vote {
            value: rng.below(CODEC_M),
            round: rng.index(CODEC_Q) as u16,
        },
        "intents" => pool.list_msg(
            pool.insert_list(
                (0..CODEC_Q)
                    .map(|_| IntentEntry {
                        value: rng.below(CODEC_M),
                        target: rng.index(4096) as u32,
                    })
                    .collect(),
            ),
        ),
        "cert" => {
            let votes: Vec<VoteRec> = (0..CODEC_Q)
                .map(|_| VoteRec {
                    voter: rng.index(4096) as u32,
                    round: rng.index(CODEC_Q) as u16,
                    value: rng.below(CODEC_M),
                })
                .collect();
            pool.cert_msg(pool.insert_cert(CertData::build(
                rng.index(4096) as u32,
                rng.index(2) as u32,
                votes,
                CODEC_M,
            )))
        }
        other => unreachable!("unknown corpus class {other}"),
    }
}

fn run_codec(out_path: &str) -> ExitCode {
    let mut table = Table::new(
        "E18 — wire codec throughput (deterministic corpus, single thread)",
        &["class", "msgs", "bytes", "enc msgs/s", "dec msgs/s"],
    );
    for class in ["query", "vote", "intents", "cert"] {
        let mut rng = DetRng::seeded(0xC0DEC, 0);
        let params = Params::new(4096, 3.0);
        // Decoding interns into the receiver's pool: the first pass adds
        // each payload, later passes find it (a node's steady state).
        let (pool, received) = (PayloadPool::new(params, 0), PayloadPool::new(params, 0));
        let corpus: Vec<Msg> = (0..512)
            .map(|_| corpus_msg(class, &mut rng, &pool))
            .collect();
        // Warm one full pass, then time enough repetitions for a stable
        // single-digit-millisecond sample per direction.
        let mut encoded = Vec::new();
        let mut bounds = vec![0usize];
        for m in &corpus {
            encode_msg(m, &pool, &mut encoded);
            bounds.push(encoded.len());
        }
        let reps = 200usize;
        let t = Instant::now();
        let mut sink = 0usize;
        for _ in 0..reps {
            let mut buf = Vec::with_capacity(encoded.len());
            for m in &corpus {
                encode_msg(m, &pool, &mut buf);
            }
            sink = sink.wrapping_add(buf.len());
        }
        let enc_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..reps {
            for w in bounds.windows(2) {
                let (m, used) =
                    decode_msg(&encoded[w[0]..w[1]], &received).expect("corpus decodes");
                sink = sink.wrapping_add(used + matches!(m, Msg::QIntent) as usize);
            }
        }
        let dec_s = t.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        let n_msgs = corpus.len() * reps;
        table.row(vec![
            class.to_string(),
            corpus.len().to_string(),
            encoded.len().to_string(),
            format!("{:.0}", n_msgs as f64 / enc_s),
            format!("{:.0}", n_msgs as f64 / dec_s),
        ]);
    }
    table.note(format!(
        "corpus: 512 msgs/class, q={CODEC_Q}, m={CODEC_M}, seed 0xC0DEC; x200 reps"
    ));
    print!("{}", table.render());
    if let Err(e) = std::fs::write(out_path, table.to_json()) {
        eprintln!("rfc-bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Event-stream size and repetition count for `rfc-bench serial`: large
/// enough that one timed arm is tens of milliseconds (stable against
/// scheduler noise), small enough that all 12 rows finish in seconds.
const SERIAL_N: usize = 1 << 17;
const SERIAL_REPS: usize = 24;

/// Time `reps` runs of `f` and return Mops/s over `SERIAL_N` events each.
fn mops(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    (reps * SERIAL_N) as f64 / 1e6 / t.elapsed().as_secs_f64()
}

fn run_serial(out_path: &str) -> ExitCode {
    use gossip_net::metrics::{Metrics, Tally};
    use gossip_net::oplog::{OpEvent, OpKind, OpLog};
    use gossip_net::ScopedPool;

    // One deterministic event stream shared by all three sections: bit
    // sizes for the metering arms, op events for the log arms, and
    // (id, op)-shaped payloads for the concat arms.
    let mut rng = DetRng::seeded(0x5E41A1, 0);
    let bits: Vec<u64> = (0..SERIAL_N).map(|_| rng.below(100_000)).collect();
    let events: Vec<OpEvent> = (0..SERIAL_N)
        .map(|i| OpEvent {
            round: (i / 4096) as u32,
            kind: match rng.index(3) {
                0 => OpKind::Push,
                1 => OpKind::Pull,
                _ => OpKind::PullUnanswered,
            },
            from: rng.index(4096) as u32,
            to: rng.index(4096) as u32,
        })
        .collect();
    let payload: Vec<(u32, u64)> = (0..SERIAL_N)
        .map(|_| (rng.index(4096) as u32, rng.below(CODEC_M)))
        .collect();

    let mut table = Table::new(
        "E19 — staged-engine serial-section drains (deterministic event stream)",
        &["section", "shards", "events", "serial Mops/s", "sharded Mops/s"],
    );
    for shards in [1usize, 2, 4, 8] {
        let chunk = SERIAL_N.div_ceil(shards).max(1);
        let mut pool = ScopedPool::new(shards);

        // -- metering: op-order record_message walk vs per-shard exact
        //    Tallys merged in shard order (the engine's send-time path).
        let meter_serial = |out: &mut Metrics| {
            out.enter_phase("bench");
            for &b in &bits {
                out.record_message(b);
            }
        };
        let meter_sharded = |out: &mut Metrics, pool: &mut ScopedPool| {
            out.enter_phase("bench");
            let mut tallies = vec![Tally::default(); shards];
            if shards == 1 {
                for &b in &bits {
                    tallies[0].record(b);
                }
            } else {
                pool.scope(|s| {
                    for (t, part) in tallies.iter_mut().zip(bits.chunks(chunk)) {
                        s.spawn(move || {
                            for &b in part {
                                t.record(b);
                            }
                        });
                    }
                });
            }
            for t in &tallies {
                out.record_bulk(t, 0);
            }
        };
        let (mut a, mut b) = (Metrics::default(), Metrics::default());
        meter_serial(&mut a);
        meter_sharded(&mut b, &mut pool);
        assert_eq!(a, b, "sharded metering must be bit-identical");
        let s_serial = mops(SERIAL_REPS, || {
            let mut m = Metrics::default();
            meter_serial(&mut m);
            std::hint::black_box(m.bits_sent);
        });
        let s_sharded = mops(SERIAL_REPS, || {
            let mut m = Metrics::default();
            meter_sharded(&mut m, &mut pool);
            std::hint::black_box(m.bits_sent);
        });
        table.row(vec![
            "metering".into(),
            shards.to_string(),
            SERIAL_N.to_string(),
            format!("{s_serial:.1}"),
            format!("{s_sharded:.1}"),
        ]);

        // -- op log: sequential append vs pre-sized scatter (the engine
        //    prefix-sums per-shard event counts; here the split is the
        //    same contiguous chunking).
        let log_serial = |log: &mut OpLog| {
            for e in &events {
                log.record(e.round, e.kind, e.from, e.to);
            }
        };
        let log_scatter = |log: &mut OpLog, pool: &mut ScopedPool| {
            let tail = log.scatter_tail(events.len());
            if shards == 1 {
                for (slot, e) in tail.iter_mut().zip(&events) {
                    *slot = *e;
                }
            } else {
                pool.scope(|s| {
                    for (dst, src) in tail.chunks_mut(chunk).zip(events.chunks(chunk)) {
                        s.spawn(move || {
                            for (slot, e) in dst.iter_mut().zip(src) {
                                *slot = *e;
                            }
                        });
                    }
                });
            }
        };
        let (mut a, mut b) = (OpLog::new(), OpLog::new());
        log_serial(&mut a);
        log_scatter(&mut b, &mut pool);
        assert_eq!(a.events(), b.events(), "scattered op log must be bit-identical");
        let s_serial = mops(SERIAL_REPS, || {
            let mut log = OpLog::new();
            log_serial(&mut log);
            std::hint::black_box(log.len());
        });
        let s_sharded = mops(SERIAL_REPS, || {
            let mut log = OpLog::new();
            log_scatter(&mut log, &mut pool);
            std::hint::black_box(log.len());
        });
        table.row(vec![
            "oplog".into(),
            shards.to_string(),
            SERIAL_N.to_string(),
            format!("{s_serial:.1}"),
            format!("{s_sharded:.1}"),
        ]);

        // -- plan concat: per-shard buffers appended serially vs scattered
        //    into a pre-sized Vec at prefix-summed offsets.
        let bufs: Vec<&[(u32, u64)]> = payload.chunks(chunk).collect();
        let concat_serial = |ops: &mut Vec<(u32, u64)>| {
            ops.clear();
            for buf in &bufs {
                ops.extend_from_slice(buf);
            }
        };
        let concat_scatter = |ops: &mut Vec<(u32, u64)>, pool: &mut ScopedPool| {
            ops.clear();
            ops.reserve(SERIAL_N);
            let spare = &mut ops.spare_capacity_mut()[..SERIAL_N];
            if shards == 1 {
                for (slot, v) in spare.iter_mut().zip(&payload) {
                    slot.write(*v);
                }
            } else {
                pool.scope(|s| {
                    for (dst, src) in spare.chunks_mut(chunk).zip(&bufs) {
                        s.spawn(move || {
                            for (slot, v) in dst.iter_mut().zip(*src) {
                                slot.write(*v);
                            }
                        });
                    }
                });
            }
            // SAFETY: every one of the SERIAL_N spare slots above was
            // written exactly once (the chunks partition 0..SERIAL_N).
            unsafe { ops.set_len(SERIAL_N) };
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        concat_serial(&mut a);
        concat_scatter(&mut b, &mut pool);
        assert_eq!(a, b, "scattered concat must be bit-identical");
        let mut ops: Vec<(u32, u64)> = Vec::with_capacity(SERIAL_N);
        let s_serial = mops(SERIAL_REPS, || {
            concat_serial(&mut ops);
            std::hint::black_box(ops.len());
        });
        let s_sharded = mops(SERIAL_REPS, || {
            concat_scatter(&mut ops, &mut pool);
            std::hint::black_box(ops.len());
        });
        table.row(vec![
            "concat".into(),
            shards.to_string(),
            SERIAL_N.to_string(),
            format!("{s_serial:.1}"),
            format!("{s_sharded:.1}"),
        ]);
    }
    table.note(format!(
        "stream: {SERIAL_N} events, seed 0x5E41A1; x{SERIAL_REPS} reps; sharded arms use real worker threads (shards=1 runs the engine's inline fallback)"
    ));
    table.note("every sharded arm asserted bit-identical to its serial arm before timing");
    print!("{}", table.render());
    if let Err(e) = std::fs::write(out_path, table.to_json()) {
        eprintln!("rfc-bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "gate" && rest.len() >= 2 => {
            run_gate(&rest[0], &rest[1..])
        }
        Some((cmd, rest)) if cmd == "selftest" && rest.len() == 1 => run_selftest(&rest[0]),
        Some((cmd, rest)) if cmd == "codec" && rest.len() == 1 => run_codec(&rest[0]),
        Some((cmd, rest)) if cmd == "serial" && rest.len() == 1 => run_serial(&rest[0]),
        _ => {
            eprintln!(
                "usage: rfc-bench gate <committed.json> <fresh.json>...\n       rfc-bench selftest <committed.json>\n       rfc-bench codec <out.json>\n       rfc-bench serial <out.json>"
            );
            ExitCode::FAILURE
        }
    }
}
