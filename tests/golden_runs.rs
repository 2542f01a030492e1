//! Golden-run regression corpus (tier-2).
//!
//! Pins `seed → RunReport` digests for a matrix of
//! (experiment config × topology × fault placement × loss), so every
//! later "exact, bit-identical" refactor claim is verified by one suite
//! instead of ad-hoc per-PR tests. The digests were captured from the
//! static engine *before* the dynamic-adversity subsystem landed; the
//! static rows therefore also prove that empty-script / constant-schedule
//! runs still take the pre-dynamics code path bit for bit.
//!
//! Regenerating (after an *intentional* behavior change only):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_runs -- --nocapture
//! ```
//!
//! then paste the printed table over `GOLDEN` below and say in the PR
//! why the digests moved. A digest is the simulator's 64-bit
//! xor-multiply hash (`tests/common`'s `Digest`, not FNV-1a) over every
//! deterministic pre-dynamics field of the report (outcome, per-agent
//! decisions, colors, verify failures, winner, wire meters incl.
//! per-phase tallies, and the good-execution audit when recorded) —
//! wall-clock is excluded, and the post-dynamics `undelivered` meter is
//! pinned as its own `GOLDEN` column (see [`report_digest`]).

mod common;

use common::report_digest;
use gossip_net::fault::Placement;
use rfc_core::runner::{RunConfig, TopologySpec};
use rfc_core::run_protocol;
use rfc_core::{LossSchedule, PartitionCut, ScenarioScript};

/// The corpus matrix: label, config, seed. Labels are stable identifiers;
/// rows may be appended but never silently changed.
fn corpus() -> Vec<(&'static str, RunConfig, u64)> {
    vec![
        (
            "complete/n24/balanced",
            RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build(),
            1,
        ),
        (
            "complete/n24/balanced/seed2",
            RunConfig::builder(24).gamma(3.0).colors(vec![12, 12]).build(),
            2,
        ),
        (
            "complete/n32/faults-random",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .faults(0.25, Placement::Random { seed: 5 })
                .build(),
            3,
        ),
        (
            "complete/n32/faults-lowids",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .faults(0.25, Placement::LowIds)
                .build(),
            4,
        ),
        (
            "ring/n48/three-colors",
            RunConfig::builder(48)
                .gamma(4.0)
                .colors(vec![16, 16, 16])
                .topology(TopologySpec::Ring)
                .build(),
            5,
        ),
        (
            "erdos-renyi/n48",
            RunConfig::builder(48)
                .gamma(4.0)
                .colors(vec![24, 24])
                .topology(TopologySpec::ErdosRenyi { p: 0.3 })
                .build(),
            6,
        ),
        (
            "random-regular/n40/d8",
            RunConfig::builder(40)
                .gamma(4.0)
                .colors(vec![20, 20])
                .topology(TopologySpec::RandomRegular { d: 8 })
                .build(),
            7,
        ),
        (
            "complete/n32/loss-0.25",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .message_loss(0.25)
                .build(),
            8,
        ),
        (
            "complete/n24/record-ops",
            RunConfig::builder(24)
                .gamma(3.0)
                .colors(vec![12, 12])
                .record_ops(true)
                .build(),
            9,
        ),
        (
            "complete/n24/leader-election",
            RunConfig::builder(24).gamma(3.0).leader_election().build(),
            10,
        ),
        (
            "complete/n32/faults-highids+loss",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .faults(0.125, Placement::HighIds)
                .message_loss(0.1)
                .build(),
            11,
        ),
        (
            "complete/n32/skip-coherence",
            RunConfig::builder(32)
                .gamma(3.0)
                .colors(vec![16, 16])
                .skip_coherence(true)
                .build(),
            12,
        ),
        // Dynamic-adversity rows (pinned when the scenario engine
        // landed): churn, a healed partition, and a loss burst.
        (
            "dynamic/n32/churn",
            {
                let q = RunConfig::builder(32).gamma(3.0).build().params().q;
                RunConfig::builder(32)
                    .gamma(3.0)
                    .colors(vec![16, 16])
                    .scenario(
                        ScenarioScript::new()
                            .crash(q / 2, (24..32).collect())
                            .recover(2 * q, (28..32).collect()),
                    )
                    .build()
            },
            13,
        ),
        (
            "dynamic/n32/partition-heal",
            {
                let q = RunConfig::builder(32).gamma(3.0).build().params().q;
                RunConfig::builder(32)
                    .gamma(3.0)
                    .colors(vec![16, 16])
                    .scenario(
                        ScenarioScript::new()
                            .partition(2 * q, PartitionCut::split_at(32, 16))
                            .heal(2 * q + q / 2),
                    )
                    .build()
            },
            14,
        ),
        (
            "dynamic/n32/loss-burst",
            {
                let q = RunConfig::builder(32).gamma(3.0).build().params().q;
                RunConfig::builder(32)
                    .gamma(3.0)
                    .colors(vec![16, 16])
                    .loss_schedule(LossSchedule::burst(0.05, 0.9, 2 * q, 2 * q + 4))
                    .build()
            },
            15,
        ),
    ]
}

/// label → (pinned report digest, pinned `metrics.undelivered`). The
/// digest column of the static rows is the capture from the
/// pre-dynamics engine; the undelivered column pins the new metering
/// counter the dynamics contract is built on (`messages_sent -
/// undelivered` = exact delivery count).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("complete/n24/balanced", 0xea7a9ceb283ba75c, 0),
    ("complete/n24/balanced/seed2", 0x3638d0144f321131, 0),
    ("complete/n32/faults-random", 0x3b17ba8baf44aea8, 382),
    ("complete/n32/faults-lowids", 0x384af7a1c0677ef3, 359),
    ("ring/n48/three-colors", 0x44f8017965b9fa6a, 0),
    ("erdos-renyi/n48", 0x782b8553300ee65d, 0),
    ("random-regular/n40/d8", 0x9d1e1f715113e77a, 0),
    ("complete/n32/loss-0.25", 0x8e9b908b5d813737, 612),
    ("complete/n24/record-ops", 0xb408719483ae19cd, 0),
    ("complete/n24/leader-election", 0x3468fce492e17339, 0),
    ("complete/n32/faults-highids+loss", 0x98badfda66452ef5, 400),
    ("complete/n32/skip-coherence", 0xa3b23925c6fd03dd, 0),
    ("dynamic/n32/churn", 0x111b00f472721abd, 213),
    ("dynamic/n32/partition-heal", 0x534d74ff19644a35, 118),
    ("dynamic/n32/loss-burst", 0xc265322569fafaca, 254),
];

#[test]
fn golden_single_instance_plane_matches_pinned_rows() {
    // The instance plane's golden row: a single-consensus plan through
    // the multiplexer must reproduce the *pre-plane* pinned digests
    // exactly — including a lossy row, since the plane keeps loss in
    // the engine. No regeneration story here: if these
    // move, the plane stopped being a pure generalization.
    for label in ["complete/n24/balanced", "complete/n32/loss-0.25"] {
        let (_, cfg, seed) = corpus()
            .into_iter()
            .find(|(l, _, _)| *l == label)
            .expect("corpus row exists");
        let plane = rfc_core::run_plane(&cfg, &rfc_core::InstancePlan::consensus(1), seed);
        let report = plane.legacy.as_ref().expect("single-consensus legacy view");
        let got = report_digest(report);
        let (_, want, want_u) = GOLDEN
            .iter()
            .find(|(l, _, _)| *l == label)
            .expect("pinned digest exists");
        assert_eq!(
            got, *want,
            "{label}: plane digest {got:#018x} != pinned {want:#018x}"
        );
        assert_eq!(report.metrics.undelivered, *want_u, "{label}: undelivered");
    }
}

#[test]
fn golden_static_corpus_is_bit_identical() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    let mut failures = Vec::new();
    if regen {
        println!("const GOLDEN: &[(&str, u64, u64)] = &[");
    }
    for (label, cfg, seed) in corpus() {
        let report = run_protocol(&cfg, seed);
        let got = report_digest(&report);
        let undelivered = report.metrics.undelivered;
        if regen {
            println!("    (\"{label}\", {got:#018x}, {undelivered}),");
            continue;
        }
        match GOLDEN.iter().find(|(l, _, _)| *l == label) {
            Some((_, want, want_u)) if *want == got && *want_u == undelivered => {}
            Some((_, want, want_u)) => failures.push(format!(
                "{label}: digest {got:#018x} / undelivered {undelivered} != pinned {want:#018x} / {want_u}"
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
        "golden corpus diverged — a refactor changed run behavior:\n{}",
        failures.join("\n")
    );
}
