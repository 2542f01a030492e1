//! E17 — the multi-instance gossip plane: thousands of concurrent
//! consensus/rumor instances multiplexed over one network.
//!
//! Every prior experiment runs one protocol instance per network. The
//! instance plane (`rfc_core::instances`) multiplexes many: each agent
//! hosts one cell per instance, all payloads an agent emits toward a
//! peer in a round ride one [`rfc_core::Batch`] (the first part's
//! instance tag is elided, so a single instance pays zero overhead),
//! and every instance keeps its own seed streams and payload meters
//! while all of them run on the engine's rounds. This experiment
//! measures that plane, loss-free, along three axes:
//!
//! * **throughput** — a sweep over 10¹…10⁴ concurrent instances
//!   reporting **instances/s** (wall-clock), per-instance
//!   rounds-to-decision (min/mean/max — the spread is the fairness
//!   view: co-hosted instances should finish in statistically
//!   indistinguishable time), and the aggregate wire traffic including
//!   batch-tag overhead;
//! * **priority classes** — High/Low rumor instances under a per-round
//!   send budget: High cells spend the budget first, so their mean
//!   decision round must not trail Low's;
//! * **interference** — a consensus instance alone vs co-hosted with
//!   10³ rumor instances (loss-free): the experiment *asserts* that its
//!   [`rfc_core::instances::InstanceReport`] is `Debug`-identical in
//!   both runs — co-hosting is invisible in every deterministic field,
//!   machine-checked on every run.
//!
//! `--instances <k>` pins the sweep to one count; `--instance-kind
//! consensus` sweeps full protocol-`P` instances instead of the
//! (cheaper) k-of-n rumor votes. Instances/s is a wall-clock
//! measurement of this machine; every other column is a pure function
//! of the seed.

use crate::opts::ExpOptions;
use crate::table::{fmt, Table};
use rfc_core::instances::InstanceReport;
use rfc_core::runner::RunConfig;
use rfc_core::{run_plane, Fnv1a, InstanceKind, InstancePlan, InstanceSpec, PlaneReport, Priority};

/// The simulator's digest ([`Fnv1a::sim_digest`], not FNV-1a) over the
/// deterministic per-instance fields of a plane report (outcome,
/// decision counts/rounds, payload meters) plus the aggregate wire
/// meters — wall-clock excluded. The sweep's digest
/// column is seed-deterministic at every thread count.
fn plane_digest(plane: &PlaneReport) -> u64 {
    let mut h = Fnv1a::sim_digest();
    for inst in &plane.instances {
        h.write(format!("{:?}", inst.outcome).as_bytes());
        h.write_u64(inst.decided as u64);
        h.write_u64(inst.rounds_to_decision.unwrap_or(usize::MAX) as u64);
        h.write_u64(inst.metrics.messages_sent);
        h.write_u64(inst.metrics.bits_sent);
        h.write_u64(inst.metrics.undelivered);
    }
    h.write_u64(plane.aggregate.messages_sent);
    h.write_u64(plane.aggregate.bits_sent);
    h.write_u64(plane.rounds as u64);
    h.finish()
}

/// min/mean/max of the decision rounds across instances; undecided
/// instances are excluded from the stats and counted separately.
fn decision_spread(instances: &[InstanceReport]) -> (usize, usize, f64, usize) {
    let rounds: Vec<usize> =
        instances.iter().filter_map(|i| i.rounds_to_decision).collect();
    if rounds.is_empty() {
        return (0, 0, 0.0, instances.len());
    }
    let min = *rounds.iter().min().unwrap();
    let max = *rounds.iter().max().unwrap();
    let mean = rounds.iter().sum::<usize>() as f64 / rounds.len() as f64;
    (min, max, mean, instances.len() - rounds.len())
}

/// The sweep kind from `--instance-kind` (`rumor` unless overridden).
fn sweep_kind(opts: &ExpOptions, n: usize) -> (InstanceKind, &'static str) {
    match opts.instance_kind {
        Some("consensus") => (InstanceKind::Consensus, "consensus"),
        _ => (InstanceKind::RumorVote { k: 3 * n / 4 }, "rumor"),
    }
}

/// Run E17 and produce its tables.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let counts = opts.instance_sweep(&[10, 100, 1_000, 10_000]);
    run_with_counts(opts, &counts)
}

/// [`run`] over explicit instance counts (tests pass small ones).
pub fn run_with_counts(opts: &ExpOptions, counts: &[usize]) -> Vec<Table> {
    let n = if opts.quick { 16 } else { 32 };
    let gamma = 3.0;
    let (kind, kind_name) = sweep_kind(opts, n);
    let cfg = RunConfig::builder(n)
        .gamma(gamma)
        .colors(vec![n - n / 2, n / 2])
        .build();

    // ── Table 1: throughput sweep ────────────────────────────────────
    let mut sweep = Table::new(
        format!("E17 — instance-plane throughput sweep (n = {n}, γ = {gamma}, kind = {kind_name})"),
        &[
            "instances",
            "rounds",
            "decided",
            "undecided",
            "rtd min",
            "rtd mean",
            "rtd max",
            "instances/s",
            "payload MiB",
            "wire MiB",
            "digest",
        ],
    );
    for &count in counts {
        let plan = match kind {
            InstanceKind::Consensus => InstancePlan::consensus(count),
            InstanceKind::RumorVote { k } => InstancePlan::rumor(count, k),
        };
        let started = std::time::Instant::now();
        let plane = run_plane(&cfg, &plan, opts.seed);
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        let (min, max, mean, undecided) = decision_spread(&plane.instances);
        let decided = plane.instances.len() - undecided;
        let payload_bits: u64 = plane.instances.iter().map(|i| i.metrics.bits_sent).sum();
        sweep.row(vec![
            count.to_string(),
            plane.rounds.to_string(),
            decided.to_string(),
            undecided.to_string(),
            min.to_string(),
            fmt::f2(mean),
            max.to_string(),
            fmt::f2(count as f64 / secs),
            fmt::f2(payload_bits as f64 / 8.0 / (1 << 20) as f64),
            fmt::f2(plane.aggregate.bits_sent as f64 / 8.0 / (1 << 20) as f64),
            format!("{:016x}", plane_digest(&plane)),
        ]);
    }
    sweep.note("instances/s is wall-clock; every other column is a pure function of the seed");
    sweep.note("rtd = per-instance local rounds to decision; the min..max spread across co-hosted instances is the fairness view");
    sweep.note("wire MiB − payload MiB = batch instance-tag overhead plus nothing else (first part per batch rides tag-free)");

    // ── Table 2: priority classes under a send budget ────────────────
    let class_count = if opts.quick { 8 } else { 16 };
    let k = 3 * n / 4;
    let mut plan = InstancePlan { specs: Vec::new(), send_budget: None };
    for j in 0..2 * class_count {
        let pri = if j < class_count { Priority::High } else { Priority::Low };
        plan = plan.with_spec(InstanceSpec::new(InstanceKind::RumorVote { k }).priority(pri));
    }
    let plane = run_plane(&cfg, &plan.budget(2), opts.seed);
    let mut classes = Table::new(
        format!(
            "E17 — priority classes: {class_count}+{class_count} rumor instances, budget 2 ops/agent/round"
        ),
        &["class", "instances", "decided", "rtd mean", "rtd max"],
    );
    // Penalized mean for the cross-class assertion: an undecided
    // instance counts as `window + 1` rounds, so a class that
    // starves (never decides inside the window) ranks strictly behind
    // one that finishes — a decided-only mean would read 0.0 there.
    let window = cfg.params().total_rounds();
    let mut class_means = Vec::new();
    for (label, pri) in [("High", Priority::High), ("Low", Priority::Low)] {
        let members: Vec<InstanceReport> = plane
            .instances
            .iter()
            .filter(|i| i.spec.priority == pri)
            .cloned()
            .collect();
        let (_, max, mean, undecided) = decision_spread(&members);
        let penalized = members
            .iter()
            .map(|i| i.rounds_to_decision.unwrap_or(window + 1) as f64)
            .sum::<f64>()
            / members.len().max(1) as f64;
        class_means.push(penalized);
        classes.row(vec![
            label.to_string(),
            members.len().to_string(),
            (members.len() - undecided).to_string(),
            fmt::f2(mean),
            max.to_string(),
        ]);
    }
    assert!(
        class_means[0] <= class_means[1] + 1e-9,
        "E17: High-priority instances ranked behind Low under a budget \
         (penalized means {:.2} vs {:.2})",
        class_means[0],
        class_means[1]
    );
    classes.note("High cells spend the per-round budget first; the assertion High ≤ Low on the undecided-penalized mean runs on every invocation");
    classes.note("rtd mean/max are over decided instances only; a starved class shows up in the `decided` column");

    // ── Table 3: cross-instance interference ─────────────────────────
    // One consensus instance, alone vs co-hosted with 10³ rumor
    // instances (loss-free): its InstanceReport must be Debug-identical
    // — the co-hosting-invariance claim, machine-checked here at
    // experiment scale.
    let co_hosted = 1_000;
    let mut interference = Table::new(
        format!("E17 — interference: consensus instance 0 with 0 vs {co_hosted} co-hosted rumor instances"),
        &["co-hosted", "outcome", "inst-0 rounds", "inst-0 msgs", "inst-0 bits", "identical"],
    );
    let mut inst0_reports = Vec::new();
    for extra in [0usize, co_hosted] {
        let mut plan = InstancePlan::consensus(1);
        for _ in 0..extra {
            plan = plan.with_spec(InstanceSpec::new(InstanceKind::RumorVote { k }));
        }
        let plane = run_plane(&cfg, &plan, opts.seed);
        let inst0 = plane.instances[0].clone();
        inst0_reports.push(format!("{inst0:?}"));
        let identical = inst0_reports[0] == *inst0_reports.last().unwrap();
        interference.row(vec![
            extra.to_string(),
            format!("{:?}", inst0.outcome.as_ref().expect("consensus instance")),
            inst0.metrics.rounds.to_string(),
            inst0.metrics.messages_sent.to_string(),
            inst0.metrics.bits_sent.to_string(),
            identical.to_string(),
        ]);
    }
    assert_eq!(
        inst0_reports[0], inst0_reports[1],
        "E17: co-hosting {co_hosted} instances perturbed instance 0's report"
    );
    interference.note("identical = instance 0's full InstanceReport (outcome, decisions, meters, clocks) is Debug-equal to the alone run — asserted, not just printed");
    interference.note("per-instance RNG streams are keyed by instance id, so on a loss-free network adding co-hosted instances never perturbs an existing one");

    vec![sweep, classes, interference]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_small_sweep_decides_and_pins_interference() {
        let tables = run_with_counts(&ExpOptions::quick(), &[4, 16]);
        assert_eq!(tables.len(), 3);
        let sweep = &tables[0];
        assert_eq!(sweep.rows.len(), 2);
        for row in &sweep.rows {
            assert_eq!(row[3], "0", "undecided instances in {row:?}");
        }
        // Interference table: both rows flagged identical (also asserted
        // inside run_with_counts).
        for row in &tables[2].rows {
            assert_eq!(row[5], "true");
        }
    }

    #[test]
    fn e17_instances_flag_pins_the_sweep() {
        let mut opts = ExpOptions::quick();
        opts.instances = 7;
        let counts = opts.instance_sweep(&[10, 100]);
        assert_eq!(counts, vec![7]);
    }

    #[test]
    fn e17_consensus_kind_sweeps_protocol_instances() {
        let mut opts = ExpOptions::quick();
        opts.instance_kind = Some("consensus");
        let tables = run_with_counts(&opts, &[3]);
        let row = &tables[0].rows[0];
        assert_eq!(row[0], "3");
        assert_eq!(row[3], "0", "all consensus instances should decide: {row:?}");
    }
}
