//! `rfc-experiments` — regenerate every experiment of the `experiments`
//! crate (its docs hold the index of claims and experiments).
//!
//! ```text
//! rfc-experiments list                      # show the experiment registry
//! rfc-experiments all [--quick]             # run everything
//! rfc-experiments e04 e15 [--quick]         # run selected experiments
//!     --quick         ~10× smaller trials/sweeps (CI mode)
//!     --seed <u64>    master seed (default 0x5EED2017)
//!     --threads <k>   worker threads (default: all cores)
//!     --csv <dir>     also write each table as CSV into <dir>
//!     --json <dir>    also write each table as JSON into <dir>
//!     --checkpoint-every <k>   snapshot checkpoint-aware runs (E16)
//!                     every k rounds into --checkpoint-dir
//!     --checkpoint-dir <dir>   where checkpoints land
//!                     (default target/checkpoints)
//!     --resume-from <dir>      resume checkpoint-aware runs from the
//!                     checkpoints in <dir> — bit-identical to a
//!                     straight run (tests/checkpoint_resume.rs)
//!     --instances <k>          pin the instance-plane sweep (E17) to
//!                     exactly k concurrent instances
//!     --instance-kind <kind>   E17 sweep kind: `rumor` or `consensus`
//!     --stage-times            collect the staged engine's per-stage
//!                     wall-clock breakdown (E16 emits an extra table)
//!     --sizes <n1,n2,..>       override the n sweep (E16); underscores
//!                     allowed: --sizes 10_000_000
//!     --shards <k1,k2,..>      override the shard-count sweep (E16);
//!                     every entry at least 1
//! ```

use experiments::{all_experiments, ExpOptions};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }

    let mut opts = ExpOptions::default();
    let mut selected: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut list_only = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "-q" => opts.quick = true,
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|s| parse_u64(&s))
                    .unwrap_or_else(|| die("--seed needs a u64 argument"));
            }
            "--threads" => {
                opts.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| die("--csv needs a directory")));
            }
            "--json" => {
                json_dir = Some(it.next().unwrap_or_else(|| die("--json needs a directory")));
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| die("--checkpoint-every needs a round count > 0"));
            }
            "--checkpoint-dir" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| die("--checkpoint-dir needs a directory"));
                // Leaked so ExpOptions stays Copy: one flag, process-lifetime.
                opts.checkpoint_dir = Some(Box::leak(dir.into_boxed_str()));
            }
            "--resume-from" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| die("--resume-from needs a directory"));
                opts.resume_from = Some(Box::leak(dir.into_boxed_str()));
            }
            "--instances" => {
                opts.instances = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| die("--instances needs a count > 0"));
            }
            "--instance-kind" => {
                let kind = it
                    .next()
                    .filter(|k| k == "rumor" || k == "consensus")
                    .unwrap_or_else(|| die("--instance-kind needs `rumor` or `consensus`"));
                // Leaked so ExpOptions stays Copy: one flag, process-lifetime.
                opts.instance_kind = Some(Box::leak(kind.into_boxed_str()));
            }
            "--stage-times" => opts.stage_times = true,
            // Both lists are checked here, so a bad entry exits 2 before
            // any experiment starts (the protocol needs two agents, and a
            // row runs on at least one shard).
            "--sizes" => opts.sizes = Some(list_flag(&mut it, "--sizes", 2)),
            "--shards" => opts.shards = Some(list_flag(&mut it, "--shards", 1)),
            "list" => list_only = true,
            "all" => {
                selected = all_experiments().iter().map(|e| e.id.to_string()).collect();
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            id if id.starts_with('e') => selected.push(id.to_string()),
            other => die(&format!("unknown argument: {other}")),
        }
    }

    if list_only {
        println!("available experiments:");
        for e in all_experiments() {
            println!("  {}  {}", e.id, e.title);
        }
        return;
    }
    if selected.is_empty() {
        usage();
        std::process::exit(2);
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("csv dir: {e}")));
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("json dir: {e}")));
    }

    let registry = all_experiments();
    for id in &selected {
        let Some(exp) = registry.iter().find(|e| e.id == id.as_str()) else {
            die(&format!("unknown experiment id: {id} (try `list`)"));
        };
        eprintln!(
            ">> running {} — {} ({} mode, seed {:#x})",
            exp.id,
            exp.title,
            if opts.quick { "quick" } else { "full" },
            opts.seed
        );
        let started = std::time::Instant::now();
        let tables = (exp.run)(&opts);
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.render());
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{}_{i}.csv", exp.id);
                write_file(&path, &table.to_csv());
            }
            if let Some(dir) = &json_dir {
                let path = format!("{dir}/{}_{i}.json", exp.id);
                write_file(&path, &table.to_json());
            }
        }
        eprintln!("   {} finished in {:.1?}\n", exp.id, started.elapsed());
    }
}

fn write_file(path: &str, content: &str) {
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| die(&format!("create {path}: {e}")));
    f.write_all(content.as_bytes())
        .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
}

/// Read and check a `--sizes`/`--shards` comma list (every entry at
/// least `min`), leaked so `ExpOptions` stays `Copy`.
fn list_flag(it: &mut impl Iterator<Item = String>, flag: &str, min: usize) -> &'static str {
    let spec = it.next().unwrap_or_else(|| die(&format!("{flag} needs a comma list")));
    if let Err(e) = ExpOptions::parse_list(&spec, min) {
        die(&format!("{flag}: {e}"));
    }
    Box::leak(spec.into_boxed_str())
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn usage() {
    eprintln!(
        "usage: rfc-experiments <list | all | e01..e17...> [--quick] [--seed N] [--threads K] [--csv DIR] [--json DIR] [--checkpoint-every K] [--checkpoint-dir DIR] [--resume-from DIR] [--instances K] [--instance-kind rumor|consensus] [--stage-times] [--sizes N1,N2,..] [--shards K1,K2,..]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
