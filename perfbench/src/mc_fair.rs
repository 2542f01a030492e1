//! `mc-fair`: the fairness sweep — n = 1 024, γ = 3, colors 50/30/20,
//! no faults, default engine (sequential discipline, 1 thread per trial,
//! so the monolithic `Network::step`). Trials run through
//! `run_trials_fold_with_scratch` on 2 workers, each re-arming its own
//! `TrialArena`, as E14 does.

use crate::checks::{check_fairness, check_run, report_digest};
use crate::common::{
    color_counts, decision_seed, replay, set_decision_times, time_setup, Meters, Params, Samples,
};
use crate::report::RunResult;
use crate::stats::{median, tail};
use crate::trace::{durations, Tracer};
use experiments::run_trials_fold_with_scratch;
use gossip_net::ids::ColorId;
use gossip_net::rng::derive_seed;
use rfc_core::{build_network_slots, honest_slot_factory, RunConfig, TrialArena};
use std::time::{Duration, Instant};

/// Default number of agents.
pub const N: usize = 1024;
/// Fold workers (one arena each).
const WORKERS: usize = 2;
/// Initial color fractions.
const FRACTIONS: [f64; 3] = [0.5, 0.3, 0.2];
/// Each worker times one set-up-only build (one worker's arena build)
/// before every `SETUP_EVERY`-th trial of the timed fold, while the
/// other worker runs trials.
const SETUP_EVERY: usize = 8;
/// Trials offered to one timed fold; trials due after the deadline are
/// skipped, and a fold that runs out before the deadline is followed by
/// another.
const FOLD_TRIALS: usize = 4096;
/// Span names of the four monolithic phases, in execution order.
const PHASE_SPANS: [&str; 4] = [
    "network.sync.commitment",
    "network.sync.voting",
    "network.sync.find_min",
    "network.sync.coherence",
];

/// The workload's configuration.
pub fn config(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(color_counts(n, &FRACTIONS))
        .build()
}

/// One finished trial.
struct Trial {
    index: usize,
    /// The set-up-only build timed before this trial, if any.
    setup: Option<f64>,
    secs: f64,
    check: Result<(), String>,
    winner: Option<ColorId>,
    digest: u64,
    bits_per_agent: f64,
    max_msg_bits: f64,
    meters: Meters,
}

fn trial(cfg: &RunConfig, index: usize, secs: f64, r: &rfc_core::RunReport) -> Trial {
    Trial {
        index,
        setup: None,
        secs,
        check: check_run(r, cfg.n, cfg.params().total_rounds()),
        winner: r.outcome.winning_color(),
        digest: report_digest(r),
        bits_per_agent: r.metrics.bits_sent as f64 / cfg.n as f64,
        max_msg_bits: r.metrics.max_message_bits as f64,
        meters: Meters::of(r),
    }
}

/// Fold `trials` trials of `cfg` on the workers; `run` executes one.
fn fold(
    trials: usize,
    master: u64,
    run: impl Fn(&mut TrialArena, usize, u64) -> Option<Trial> + Sync,
) -> Vec<Trial> {
    run_trials_fold_with_scratch(
        trials,
        WORKERS,
        master,
        TrialArena::new,
        Vec::new,
        |acc: &mut Vec<Trial>, arena, i, seed| acc.extend(run(arena, i, seed)),
        |acc, more| acc.extend(more),
    )
    .0
}

/// Count every trial, then test the winners' fairness over all of them.
/// A sample that rejects fairness fails every decision in it.
fn tally(out: &mut RunResult, cfg: &RunConfig, label: &str, trials: &[Trial]) {
    let mut winners = vec![0u64; FRACTIONS.len()];
    for t in trials {
        out.tally
            .record(format_args!("{label} trial {}", t.index), t.check.clone());
        if let Some(c) = t.winner {
            winners[c as usize] += 1;
        }
    }
    let counts = color_counts(cfg.n, &FRACTIONS);
    let fractions: Vec<f64> = counts.iter().map(|&c| c as f64 / cfg.n as f64).collect();
    match check_fairness(&winners, &fractions) {
        Ok(p) => out
            .notes
            .push(format!("{label} fairness: winners={winners:?} p={p:.4}")),
        Err(e) => {
            out.tally.failed = out.tally.attempted;
            out.run_errors.push(format!("{label}: {e}"));
        }
    }
}

/// Untraced run: a streaming fold of arena trials until `p.seconds` pass.
pub fn timed(p: &Params) -> RunResult {
    let cfg = config(p.n);
    let mut out = RunResult::default();
    let mut s = Samples {
        rounds: cfg.params().total_rounds() as f64,
        ..Samples::default()
    };
    let build = |seed| build_network_slots(&cfg, seed, &mut honest_slot_factory);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(p.seconds);
    let mut trials = Vec::new();
    let mut k = 0;
    while k == 0 || Instant::now() < deadline {
        let first = k == 0;
        trials.extend(fold(
            FOLD_TRIALS,
            decision_seed(p.seed, k),
            |arena, i, seed| {
                // Every worker runs at least its first trial.
                if !(first && i < WORKERS) && Instant::now() >= deadline {
                    return None;
                }
                let setup = (i % SETUP_EVERY == 0)
                    .then(|| time_setup(p.seed, k * FOLD_TRIALS as u64 + i as u64, build));
                let t = Instant::now();
                let r = arena.run_protocol(&cfg, seed);
                let secs = t.elapsed().as_secs_f64();
                Some(Trial {
                    setup,
                    ..trial(&cfg, i, secs, &r)
                })
            },
        ));
        k += 1;
    }
    s.wall = start.elapsed().as_secs_f64();
    for t in &trials {
        s.setup.extend(t.setup);
        s.decision.push(t.secs);
        s.bits_per_agent.push(t.bits_per_agent);
        s.max_msg_bits.push(t.max_msg_bits);
    }
    tally(&mut out, &cfg, "timed", &trials);
    s.finish(&mut out);
    out
}

/// Traced run: the same `K` trials folded untraced and then with one span
/// per trial on the workers, then a sample of those trial seeds replayed
/// on one thread through the public pieces `TrialArena::run_protocol`
/// composes, phase by phase.
pub fn traced(p: &Params, tracer: &Tracer) -> RunResult {
    let cfg = config(p.n);
    let q = cfg.params().q;
    let rounds = cfg.params().total_rounds();
    let k = ((p.seconds * 45.0).round() as usize).max(4 * WORKERS);
    let replicas = (k / 16).max(2);
    let master = decision_seed(p.seed, 0);
    let mut out = RunResult::default();

    let untraced = fold(k, master, |arena, i, seed| {
        let t = Instant::now();
        let r = arena.run_protocol(&cfg, seed);
        Some(trial(&cfg, i, t.elapsed().as_secs_f64(), &r))
    });
    let untraced_secs: Vec<f64> = untraced.iter().map(|t| t.secs).collect();
    tally(&mut out, &cfg, "untraced", &untraced);

    let mut traced_trials = Vec::new();
    let mut replica_secs = Vec::with_capacity(replicas);
    let root = tracer.span("trace", None, 0, |root| {
        traced_trials = tracer.span("parallel.fold", Some(root), 0, |fold_id| {
            fold(k, master, |arena, i, seed| {
                let r = tracer.span("parallel.trial", Some(fold_id), i as u64, |_| {
                    arena.run_protocol(&cfg, seed)
                });
                Some(trial(&cfg, i, 0.0, &r))
            })
        });
        let digest_of: Vec<(usize, u64)> =
            traced_trials.iter().map(|t| (t.index, t.digest)).collect();
        for i in 0..replicas {
            let seed = derive_seed(master, i as u64);
            let d = (k + i) as u64;
            let replayed = replay(
                tracer,
                root,
                d,
                &cfg,
                &PHASE_SPANS,
                || build_network_slots(&cfg, seed, &mut honest_slot_factory),
                |net| net.run(q),
            );
            tracer.span("bench.check", Some(root), d, |_| {
                let r = &replayed.report;
                let real = digest_of.iter().find(|(j, _)| *j == i).map(|(_, dg)| *dg);
                let check = check_run(r, cfg.n, rounds).and_then(|()| match real {
                    Some(dg) if dg == report_digest(r) => Ok(()),
                    _ => Err("replica differs from TrialArena::run_protocol".to_string()),
                });
                out.tally.record(format_args!("replica {i}"), check);
            });
            replica_secs.push(replayed.build_s + replayed.run_s);
        }
        root
    });
    tally(&mut out, &cfg, "traced", &traced_trials);

    let (spans, _) = tracer.snapshot();
    let trial_secs = durations(&spans, "parallel.trial");
    let fold_wall: f64 = durations(&spans, "parallel.fold").iter().sum();
    let busy: f64 = trial_secs.iter().sum();
    out.set("parallel.trial_s", median(&trial_secs));
    let (tail_s, pct) = tail(&trial_secs);
    out.set("parallel.trial_tail_s", tail_s);
    out.set("parallel.busy_frac", busy / (WORKERS as f64 * fold_wall));
    out.set("parallel.idle_s", WORKERS as f64 * fold_wall - busy);
    out.notes.push(format!(
        "parallel trials={} tail_percentile={pct:.2}",
        trial_secs.len()
    ));
    out.set("replica.decision_s", median(&replica_secs));
    out.set("trace.replicas", replicas as f64);
    let meters: Vec<Meters> = traced_trials.iter().map(|t| t.meters).collect();
    Meters::finish(&meters, &mut out);
    crate::common::finish_trace(tracer, root, &mut out);
    set_decision_times(&mut out, &trial_secs, &untraced_secs);
    out
}
