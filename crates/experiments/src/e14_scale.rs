//! E14 — production-scale throughput: the streaming-fold pipeline at
//! large `n` and large trial counts.
//!
//! The ROADMAP's north star is a harness that runs "as fast as the
//! hardware allows" on regimes the paper's w.h.p. claims actually concern
//! (Clementi et al. analyze asymptotics; Becchetti et al.'s many-opinions
//! work routinely quotes `n ≥ 10⁵`). This experiment sweeps `n` up to
//! 10⁵ with an agent-trial budget that gives the smallest size 10⁴+
//! trials, folding every trial into O(threads) mergeable accumulators
//! ([`run_trials_fold_with_scratch`]) — collecting a `Vec` of results
//! would hold every `RunReport` alive and could not touch this workload
//! class.
//!
//! Reported per sweep point:
//!
//! * **rounds/s** and **agent·rounds/s** — simulated protocol rounds per
//!   wall-clock second (all worker threads combined);
//! * **bytes/agent** — mean wire traffic per agent per run (exact
//!   [`Tally`] over `bits_sent`, which overflows f64 precision at scale);
//! * **ΔRSS** — growth of the process high-water mark (`VmHWM` from
//!   `/proc/self/status`) across the sweep point. `VmHWM` is a
//!   process-global monotone, so the *delta* is what attributes memory
//!   to a point: a 10⁴-trial point that adds ~nothing is the "no
//!   O(trials) buffer exists" witness;
//! * **fold window** — the engine's peak count of unmerged block
//!   partials, which stays ≤ 3·threads however many trials stream by.
//!
//! Unlike E1–E13, the throughput and RSS columns are *measurements of
//! this machine*, not pure functions of the seed; the count columns
//! (trials, consensus, bytes/agent) remain seed-deterministic.

use crate::opts::ExpOptions;
use crate::parallel::run_trials_fold_with_scratch;
use crate::table::{fmt, Table};
use rfc_core::runner::{RunConfig, TrialArena};
use rfc_stats::Tally;

/// Agent-trials budgeted per sweep point (trials(n) = budget / n), so the
/// per-point simulation cost is roughly flat across the sweep. Full mode
/// gives the smallest `n` 10⁴ trials; quick mode divides by 8 as usual.
const AGENT_TRIAL_BUDGET: usize = 2_560_000;

/// Streaming per-point aggregate — O(1) in the trial count.
#[derive(Default)]
struct Acc {
    trials: u64,
    consensus: u64,
    rounds: Tally,
    bits: Tally,
}

impl Acc {
    fn merge(&mut self, other: Acc) {
        self.trials += other.trials;
        self.consensus += other.consensus;
        self.rounds.merge(&other.rounds);
        self.bits.merge(&other.bits);
    }
}

/// Process peak-RSS proxy in MiB (`VmHWM` from `/proc/self/status`);
/// `None` off Linux. E14 and E16 read it before and after a row.
pub(crate) fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `ΔRSS MiB` cell: peak-RSS growth since `before` was read, or
/// `n/a` where there is no `VmHWM`.
pub(crate) fn rss_growth(before: Option<f64>) -> String {
    match (before, peak_rss_mib()) {
        (Some(before), Some(after)) => fmt::f2(after - before),
        _ => "n/a".into(),
    }
}

/// Run E14 and produce its table.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    run_with_budget(opts, opts.trials(AGENT_TRIAL_BUDGET))
}

/// [`run`] with an explicit agent-trial budget (tests use a small one;
/// the registry entry always passes the production budget).
pub fn run_with_budget(opts: &ExpOptions, budget: usize) -> Vec<Table> {
    let gamma = 3.0;
    let sizes: Vec<usize> = [256, 512, 1024, 4096, 16384, 65536, 100_000]
        .into_iter()
        .filter(|&n| n <= opts.cap_n(100_000))
        .collect();

    let mut table = Table::new(
        format!(
            "E14 — streaming-fold throughput sweep (γ = {gamma}, {budget} agent-trials/point)"
        ),
        &[
            "n",
            "q",
            "trials",
            "consensus",
            "rounds/s",
            "Magent·rounds/s",
            "bytes/agent",
            "ΔRSS MiB",
            "fold window",
        ],
    );
    for &n in &sizes {
        let trials = (budget / n).max(4);
        let threads = opts.threads_for(trials);
        let cfg = RunConfig::builder(n)
            .gamma(gamma)
            .colors(vec![n - n / 2, n / 2])
            .build();
        let rss_before = peak_rss_mib();
        let started = std::time::Instant::now();
        // Per-worker TrialArena: each worker re-arms one network across
        // all its trials (enum dispatch, no per-trial agent boxing).
        let (acc, stats) = run_trials_fold_with_scratch(
            trials,
            threads,
            opts.seed,
            TrialArena::new,
            Acc::default,
            |acc, arena, _i, seed| {
                let r = arena.run_protocol(&cfg, seed);
                acc.trials += 1;
                acc.consensus += r.outcome.is_consensus() as u64;
                acc.rounds.add(r.rounds as u64);
                acc.bits.add(r.metrics.bits_sent);
            },
            Acc::merge,
        );
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        let rounds_per_s = acc.rounds.sum() as f64 / secs;
        let agent_rounds_per_s = rounds_per_s * n as f64 / 1e6;
        let bytes_per_agent = acc.bits.mean() / 8.0 / n as f64;
        table.row(vec![
            n.to_string(),
            cfg.params().q.to_string(),
            trials.to_string(),
            fmt::rate_ci(acc.consensus, acc.trials),
            format!("{rounds_per_s:.0}"),
            fmt::f2(agent_rounds_per_s),
            fmt::f2(bytes_per_agent),
            rss_growth(rss_before),
            format!("{} (≤ {})", stats.peak_pending, 3 * threads),
        ]);
    }
    table.note("streaming fold: O(threads) aggregation memory — no per-trial result buffer exists at any n");
    table.note("per-worker TrialArena: agent storage, network scratch buffers, metrics and op-log recycled across trials");
    table.note("ΔRSS = VmHWM growth across the point (VmHWM is process-global and monotone; the delta attributes memory to the point)");
    table.note("rounds/s and ΔRSS are wall-clock measurements of this machine; trials/consensus/bytes are seed-deterministic");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_quick_sweeps_and_stays_consistent() {
        // Small explicit budget: the sweep logic is identical to the
        // production path, just cheap enough for debug-mode CI.
        let tables = run_with_budget(&ExpOptions::quick(), 12_000);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert!(t.rows.len() >= 2, "quick mode still sweeps multiple sizes");
        for row in &t.rows {
            // Consensus w.h.p. at γ = 3 for every size in the sweep.
            assert!(
                row[3].starts_with("1.000") || row[3].starts_with("0.9"),
                "consensus should hold w.h.p.: {row:?}"
            );
            // The fold window bound is printed and respected: "k (≤ m)".
            let parts: Vec<&str> = row[8].split([' ', '(', ')', '≤'])
                .filter(|s| !s.is_empty())
                .collect();
            let window: usize = parts[0].parse().unwrap();
            let bound: usize = parts[1].parse().unwrap();
            assert!(window <= bound, "fold window exceeded its bound: {row:?}");
        }
    }

    #[test]
    fn e14_quick_caps_the_sweep() {
        let t = &run_with_budget(&ExpOptions::quick(), 4_000)[0];
        let max_n: usize = t.rows.iter().map(|r| r[0].parse().unwrap()).max().unwrap();
        assert!(max_n <= 512, "quick mode must cap n for CI");
    }
}
