//! Sharded-engine golden rows + thread-invariance suite (tier-2).
//!
//! The staged engine under [`RngDiscipline::PerAgent`] is a *new*
//! deterministic behavior: its loss draws come from per-(seed, round,
//! agent) streams, so its digests differ from the sequential corpus in
//! `golden_runs.rs` (which stays the literal pre-staged capture). This
//! suite pins the sharded behavior the same way:
//!
//! * every row's `RunReport` digest is **bit-identical across thread
//!   counts** — the counts come from `RFC_THREADS` (comma-separated,
//!   default `1,2,8`), which is how `ci.sh` drives the invariance check;
//! * the digest at *any* thread count matches the pinned capture, so a
//!   refactor cannot silently change sharded behavior even uniformly.
//!
//! Regenerating (after an *intentional* behavior change only):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test sharded_engine -- --nocapture
//! ```
//!
//! then paste the printed table over `GOLDEN` below and say in the PR
//! why the digests moved.

mod common;

use common::report_digest;
use gossip_net::fault::Placement;
use rfc_core::runner::{RunConfig, TopologySpec};
use rfc_core::run_protocol;
use rfc_core::{LossSchedule, PartitionCut, RngDiscipline, ScenarioScript};

/// Thread counts to check: `RFC_THREADS="1,2,8"` (the ci.sh knob), or
/// the default `{1, 2, 8}`.
fn thread_counts() -> Vec<usize> {
    match std::env::var("RFC_THREADS") {
        Ok(s) => {
            let counts: Vec<usize> =
                s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
            assert!(!counts.is_empty(), "RFC_THREADS set but unparsable: {s:?}");
            counts
        }
        Err(_) => vec![1, 2, 8],
    }
}

/// The sharded corpus: label, *sequential-spelled* config (the sharded
/// preset is applied per thread count by the test), seed.
fn corpus() -> Vec<(&'static str, RunConfig, u64)> {
    let q = RunConfig::builder(32).gamma(3.0).build().params().q;
    vec![
        (
            "sharded/complete/n24/balanced",
            RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build(),
            1,
        ),
        (
            "sharded/complete/n32/faults+loss",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .faults(0.25, Placement::Random { seed: 5 })
                .message_loss(0.25)
                .build(),
            2,
        ),
        (
            "sharded/ring/n48/three-colors",
            RunConfig::builder(48)
                .gamma(4.0)
                .colors(vec![16, 16, 16])
                .topology(TopologySpec::Ring)
                .build(),
            3,
        ),
        (
            "sharded/complete/n24/record-ops+loss",
            RunConfig::builder(24)
                .gamma(3.0)
                .colors(vec![12, 12])
                .record_ops(true)
                .message_loss(0.1)
                .build(),
            4,
        ),
        (
            "sharded/dynamic/n32/churn+burst",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .scenario(
                    ScenarioScript::new()
                        .crash(q / 2, (24..32).collect())
                        .recover(2 * q, (28..32).collect()),
                )
                .loss_schedule(LossSchedule::burst(0.05, 0.9, 2 * q, 2 * q + 4))
                .build(),
            5,
        ),
        (
            "sharded/dynamic/n32/partition-heal",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .scenario(
                    ScenarioScript::new()
                        .partition(2 * q, PartitionCut::split_at(32, 16))
                        .heal(2 * q + q / 2),
                )
                .build(),
            6,
        ),
        (
            "sharded/complete/n40/leader-election",
            RunConfig::builder(40).gamma(3.0).leader_election().build(),
            7,
        ),
        // Larger record-ops row: at 8 threads the op-log scatter runs with
        // several non-trivial shards per round, exercising the prefix-summed
        // pull/push cursor split (tiny rows collapse to 1–2 live shards).
        (
            "sharded/complete/n64/record-ops+loss",
            RunConfig::builder(64)
                .gamma(3.0)
                .colors(vec![32, 32])
                .record_ops(true)
                .message_loss(0.15)
                .build(),
            8,
        ),
    ]
}

/// label → (pinned sharded digest, pinned `metrics.undelivered`).
const GOLDEN: &[(&str, u64, u64)] = &[
    // Note the first row: loss-free, so the per-agent discipline draws
    // nothing and the digest *equals* the static corpus row
    // `complete/n24/balanced` — the disciplines may only diverge through
    // loss coins, and this row proves they don't diverge elsewhere.
    ("sharded/complete/n24/balanced", 0xea7a9ceb283ba75c, 0),
    ("sharded/complete/n32/faults+loss", 0xad25676f0b2a8268, 706),
    ("sharded/ring/n48/three-colors", 0xa7d69f1c59eb5817, 0),
    ("sharded/complete/n24/record-ops+loss", 0x1895bb9067a6dc0d, 225),
    ("sharded/dynamic/n32/churn+burst", 0x564e41a4bee73899, 366),
    ("sharded/dynamic/n32/partition-heal", 0xc9c3f4a0da86baaa, 119),
    ("sharded/complete/n40/leader-election", 0xbf5e42b65f80c015, 0),
    ("sharded/complete/n64/record-ops+loss", 0x412d4dc3f4a301f4, 991),
];

#[test]
fn sharded_golden_rows_are_thread_invariant_and_pinned() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    let counts = thread_counts();
    let mut failures = Vec::new();
    if regen {
        println!("const GOLDEN: &[(&str, u64, u64)] = &[");
    }
    for (label, cfg, seed) in corpus() {
        let mut digests = Vec::new();
        let mut undelivered = Vec::new();
        for &threads in &counts {
            let mut cfg = cfg.clone();
            cfg.rng_discipline = RngDiscipline::PerAgent;
            cfg.threads = threads;
            // Disable the agents-per-shard floor: these rows are tiny on
            // purpose, and the point is to execute *really* sharded.
            cfg.shard_floor = Some(0);
            let report = run_protocol(&cfg, seed);
            digests.push(report_digest(&report));
            undelivered.push(report.metrics.undelivered);
        }
        // Invariance across every requested thread count.
        if !digests.windows(2).all(|w| w[0] == w[1]) {
            failures.push(format!(
                "{label}: digests differ across RFC_THREADS {counts:?}: {digests:x?}"
            ));
            continue;
        }
        let (got, got_u) = (digests[0], undelivered[0]);
        if regen {
            println!("    (\"{label}\", {got:#018x}, {got_u}),");
            continue;
        }
        match GOLDEN.iter().find(|(l, _, _)| *l == label) {
            Some((_, want, want_u)) if *want == got && *want_u == got_u => {}
            Some((_, want, want_u)) => failures.push(format!(
                "{label}: digest {got:#018x} / undelivered {got_u} != pinned {want:#018x} / {want_u}"
            )),
            None => failures.push(format!("{label}: no pinned digest ({got:#018x})")),
        }
    }
    if regen {
        println!("];");
        return;
    }
    assert!(
        failures.is_empty(),
        "sharded corpus diverged:\n{}",
        failures.join("\n")
    );
}

#[test]
fn oplog_toggle_changes_audit_only() {
    // `record_ops` is pure observability: switching it off must leave the
    // digest (audit stripped — `report_digest` hashes `r.audit`) and the
    // full `Metrics` bit-identical, dropping only the good-execution audit.
    // This is what lets production-scale rows (E16) skip the op log.
    for (label, cfg, seed) in corpus() {
        let mut on = cfg.clone();
        on.rng_discipline = RngDiscipline::PerAgent;
        on.threads = 4;
        on.shard_floor = Some(0);
        on.record_ops = true;
        let mut off = on.clone();
        off.record_ops = false;
        let mut r_on = run_protocol(&on, seed);
        let r_off = run_protocol(&off, seed);
        assert!(r_on.audit.is_some(), "{label}: record_ops=true must audit");
        assert!(r_off.audit.is_none(), "{label}: record_ops=false must not");
        assert_eq!(
            r_on.metrics, r_off.metrics,
            "{label}: op-log toggle changed Metrics"
        );
        r_on.audit = None;
        assert_eq!(
            report_digest(&r_on),
            report_digest(&r_off),
            "{label}: op-log toggle changed the digest beyond the audit"
        );
    }
}

#[test]
fn loss_free_rows_meter_identically_on_both_engines() {
    // The two round engines meter the same wire: pushes when sent, pull
    // queries when issued, replies when produced, and every metered
    // message that reaches no handler as `undelivered`. Only loss coins
    // are drawn differently, so on rows without a loss process the
    // staged engine must reproduce the serial engine's full `Metrics`
    // and digest at every thread count — partitions, crashes and
    // off-edge pulls included.
    let counts = thread_counts();
    let mut checked = 0;
    for (label, cfg, seed) in corpus() {
        if cfg.loss_probability > 0.0 || cfg.loss_schedule.is_some() {
            continue;
        }
        checked += 1;
        let serial = run_protocol(&cfg, seed);
        assert!(serial.metrics.messages_sent > 0, "{label}: nothing metered");
        for &threads in &counts {
            let mut staged = cfg.clone();
            staged.rng_discipline = RngDiscipline::PerAgent;
            staged.threads = threads;
            staged.shard_floor = Some(0);
            let report = run_protocol(&staged, seed);
            assert_eq!(
                report.metrics, serial.metrics,
                "{label}: staged metering at {threads} threads diverged from serial"
            );
            assert_eq!(
                report_digest(&report),
                report_digest(&serial),
                "{label}: staged digest at {threads} threads diverged from serial"
            );
        }
    }
    assert!(checked >= 4, "corpus lost its loss-free rows ({checked})");
}
