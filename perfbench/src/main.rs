//! The benchmark program: runs one workload for a number of seconds and
//! prints its metrics as one JSON line (the last line of stdout).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` times the workload with no tracing and prints the
//! end-to-end metrics; `--trace 1` runs the traced variant and prints
//! the per-layer metrics, writing its spans to `<dir>/<workload>-<seed>.jsonl`
//! when `--spans-dir` is given. See `README.md` beside this crate.

mod async_faulty;
mod checks;
mod common;
mod mc_fair;
mod node_session;
mod pin;
mod report;
mod stats;
mod sync_sharded;
mod tap;
mod trace;

use common::Params;
use report::{RunResult, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// A workload: its name, default size, and untraced and traced runs.
struct Workload {
    name: &'static str,
    n: usize,
    timed: fn(&Params) -> RunResult,
    traced: fn(&Params, &Tracer) -> RunResult,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sync-sharded",
        n: sync_sharded::N,
        timed: sync_sharded::timed,
        traced: sync_sharded::traced,
    },
    Workload {
        name: "mc-fair",
        n: mc_fair::N,
        timed: mc_fair::timed,
        traced: mc_fair::traced,
    },
    Workload {
        name: "node-session",
        n: node_session::N,
        timed: node_session::timed,
        traced: node_session::traced,
    },
    Workload {
        name: "async-faulty",
        n: async_faulty::N,
        timed: async_faulty::timed,
        traced: async_faulty::traced,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

/// `nproc` and the cache sizes of CPU 0, as `key=value` pairs.
fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            let kind = match kind.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            caches.push(format!("L{level}{kind}:{size}"));
        }
    }
    format!("nproc={nproc} caches={}", caches.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        n: w.n,
    };
    println!("# machine {}", machine());
    println!(
        "# workload={} n={} seed={} seconds={} trace={}",
        w.name, w.n, args.seed, args.seconds, args.trace as u8
    );
    let (result, list) = if args.trace {
        let tracer = Tracer::new();
        let result = (w.traced)(&params, &tracer);
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!("{}-{}.jsonl", w.name, args.seed));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|f| tracer.write_jsonl(&mut std::io::BufWriter::new(f)));
            match written {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
            }
        }
        (result, &PER_LAYER[..])
    } else {
        ((w.timed)(&params), &END_TO_END[..])
    };
    for note in &result.notes {
        println!("# {note}");
    }
    for reason in result.tally.reasons.iter().chain(&result.run_errors) {
        println!("# FAILED {reason}");
    }
    println!("{}", result.to_json(list));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(seconds: f64) -> Params {
        Params {
            seed: 7,
            seconds,
            n: 64,
        }
    }

    #[test]
    fn every_workload_passes_its_checks_at_toy_size() {
        for w in &WORKLOADS {
            let r = (w.timed)(&toy(0.2));
            assert!(r.correct(), "{}: {:?} {:?}", w.name, r.tally, r.run_errors);
            for (name, _) in END_TO_END {
                let v = r.metrics[name];
                assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name);
            }
        }
    }

    #[test]
    fn every_traced_workload_adds_up_at_toy_size() {
        for w in &WORKLOADS {
            let tracer = Tracer::new();
            let r = (w.traced)(&toy(1.0), &tracer);
            assert!(r.correct(), "{}: {:?} {:?}", w.name, r.tally, r.run_errors);
            let sum: f64 = r
                .metrics
                .iter()
                .filter(|(k, _)| PARTITION.contains(&k.as_str()))
                .map(|(_, v)| v)
                .sum::<f64>()
                + r.metrics["trace.unattributed_s"];
            let wall = r.metrics["trace.wall_s"];
            assert!(
                (sum - wall).abs() < 1e-6,
                "{}: layers sum to {sum}, wall {wall}",
                w.name
            );
            assert!(r.to_json(&PER_LAYER).starts_with("{\"correct\": true"));
        }
    }

    /// The per-layer metrics that partition the traced wall clock.
    const PARTITION: [&str; 24] = [
        "runner.build_s",
        "runner.report_s",
        "staged.commitment_s",
        "staged.voting_s",
        "staged.find_min_s",
        "staged.coherence_s",
        "staged.one_shard_s",
        "staged.two_shard_s",
        "network.sync.commitment_s",
        "network.sync.voting_s",
        "network.sync.find_min_s",
        "network.sync.coherence_s",
        "network.async.commitment_s",
        "network.async.voting_s",
        "network.async.find_min_s",
        "network.async.coherence_s",
        "engine.verify_s",
        "parallel.fold_s",
        "session.compute_s",
        "wire.read_wait_s",
        "wire.write_s",
        "asynchronous.run_s",
        "asynchronous.reference_s",
        "bench.check_s",
    ];

    #[test]
    fn a_wrong_expectation_fails_the_decision() {
        let np = rfc_node::NodeParams {
            n: 64,
            gamma: 3.0,
            seed: 11,
            slack: node_session::SLACK,
        };
        let (low, mut high) = rfc_node::run_loopback(&np).expect("loopback session");
        let reference = rfc_core::run_protocol_async(
            &node_session::reference_config(64),
            11,
            node_session::SLACK,
        );
        let ticks = low.ticks as usize;
        let mut tally = report::Tally::default();
        tally.record(
            "honest",
            checks::check_session(&low, &high, &reference, 64, ticks),
        );
        high.digest ^= 1;
        tally.record(
            "flipped digest",
            checks::check_session(&low, &high, &reference, 64, ticks),
        );
        assert_eq!(
            (tally.attempted, tally.failed),
            (2, 1),
            "{:?}",
            tally.reasons
        );
        assert!(tally.reasons[0].starts_with("flipped digest: endpoint digests differ"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload mc-fair --seed 3 --seconds 10 --trace 0").is_ok());
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload mc-fair --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload mc-fair --seed 3 --trace 0").is_err());
        assert!(args("--workload mc-fair --seed 3 --seconds 0 --trace 0").is_err());
    }
}
