//! Asynchronous-engine pins.
//!
//! `run_protocol_async` and `run_protocol_events` both run on
//! `Network::drive_events` (the tick-driven entry point is its
//! `max_delay = 0` case). This suite pins their outputs — `report_digest`
//! plus the `undelivered` meter — on a corpus captured before the two
//! tick loops merged, so a change to delivery order, loss-stream
//! alignment or delay draws moves a digest instead of passing silently.
//! Faulty, lossy and churn rows cover every delivery path: zero-delay
//! legs delivered on the spot, queued legs, mid-flight crashes and
//! budget-expiry drains.
//!
//! Regenerating (after an *intentional* behavior change only):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test event_runtime -- --nocapture
//! ```
//!
//! then paste the printed tables over `ASYNC_GOLDEN` / `EVENTS_GOLDEN`
//! and say in the change why the digests moved.

mod common;

use common::report_digest;
use gossip_net::fault::Placement;
use rfc_core::runner::{RunConfig, RunReport};
use rfc_core::{run_protocol_async, run_protocol_events, ScenarioScript};

fn cfg(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .build()
}

fn faulty(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .faults(0.1, Placement::Random { seed: 0 })
        .build()
}

fn lossy(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .message_loss(0.1)
        .build()
}

fn faulty_lossy(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .faults(0.1, Placement::Random { seed: 0 })
        .message_loss(0.1)
        .build()
}

/// Three agents crash early in the Voting phase and one recovers during
/// Find-Min (ticks are the async engine's rounds).
fn churn(n: usize, slack: usize) -> RunConfig {
    let phase_len = slack * n * cfg(n).params().q;
    let script = ScenarioScript::new()
        .crash(phase_len + phase_len / 8, vec![3, 4, 5])
        .recover(2 * phase_len + phase_len / 2, vec![4]);
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .message_loss(0.1)
        .scenario(script)
        .build()
}

/// `run_protocol_async` corpus: label, config, seed, slack.
fn async_corpus() -> Vec<(&'static str, RunConfig, u64, usize)> {
    vec![
        ("n16/seed21", cfg(16), 21, 3),
        ("n24/seed7", cfg(24), 7, 3),
        ("n32/seed5/slack2", cfg(32), 5, 2),
        ("n48/faults-0.1", faulty(48), 1234, 3),
        ("n32/loss-0.1", lossy(32), 99, 3),
        ("n40/faults-0.1+loss-0.1", faulty_lossy(40), 17, 3),
        ("n24/churn+loss-0.1", churn(24, 3), 8, 3),
    ]
}

/// `run_protocol_events` corpus: label, config, seed, slack, max_delay.
fn events_corpus() -> Vec<(&'static str, RunConfig, u64, usize, usize)> {
    vec![
        ("n24/delay1", cfg(24), 42, 4, 1),
        ("n24/delay3", cfg(24), 42, 4, 3),
        ("n24/delay8", cfg(24), 42, 4, 8),
        ("n32/faults-0.1/delay3", faulty(32), 8, 4, 3),
        ("n32/loss-0.1/delay1", lossy(32), 3, 3, 1),
        ("n40/faults-0.1+loss-0.1/delay8", faulty_lossy(40), 11, 4, 8),
        ("n24/churn+loss-0.1/delay3", churn(24, 4), 5, 4, 3),
    ]
}

/// Pinned `(label, report_digest, metrics.undelivered)` rows.
const ASYNC_GOLDEN: &[(&str, u64, u64)] = &[
    ("n16/seed21", 0x2b3d0831bd6797e6, 0),
    ("n24/seed7", 0xaade19d2f5e3fee9, 0),
    ("n32/seed5/slack2", 0x48adf47620dad49f, 0),
    ("n48/faults-0.1", 0x6038a9684acfbbd0, 677),
    ("n32/loss-0.1", 0xdb948876cb77aed6, 700),
    ("n40/faults-0.1+loss-0.1", 0x19b2333cbb0eaeb3, 1551),
    ("n24/churn+loss-0.1", 0xb1b3e7a97a7f4c22, 725),
];

/// Pinned `(label, report_digest, metrics.undelivered)` rows.
const EVENTS_GOLDEN: &[(&str, u64, u64)] = &[
    ("n24/delay1", 0x325b995c8fdeeec5, 1),
    ("n24/delay3", 0x0e1767283180a021, 1),
    ("n24/delay8", 0xf47671e10bcde201, 4),
    ("n32/faults-0.1/delay3", 0x016657902659fdee, 512),
    ("n32/loss-0.1/delay1", 0x05c3c2343691713a, 716),
    ("n40/faults-0.1+loss-0.1/delay8", 0xbe7d3bbabaf83ea4, 2031),
    ("n24/churn+loss-0.1/delay3", 0x45b32b0a05a80105, 937),
];

/// Compare every row against its pin (or print the table under
/// `GOLDEN_REGEN`).
fn check_corpus(
    table: &str,
    golden: &[(&str, u64, u64)],
    rows: impl Iterator<Item = (&'static str, RunReport)>,
) {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    let mut failures = Vec::new();
    if regen {
        println!("const {table}: &[(&str, u64, u64)] = &[");
    }
    for (label, report) in rows {
        let got = report_digest(&report);
        let undelivered = report.metrics.undelivered;
        if regen {
            println!("    (\"{label}\", {got:#018x}, {undelivered}),");
            continue;
        }
        match golden.iter().find(|(l, _, _)| *l == label) {
            Some((_, want, want_u)) if *want == got && *want_u == undelivered => {}
            Some((_, want, want_u)) => failures.push(format!(
                "{label}: digest {got:#018x} / undelivered {undelivered} != pinned {want:#018x} / {want_u}"
            )),
            None => failures.push(format!("{label}: no pinned digest ({got:#018x} / {undelivered})")),
        }
    }
    if regen {
        println!("];");
        return;
    }
    assert!(
        failures.is_empty(),
        "{table} drifted:\n{}",
        failures.join("\n")
    );
}

#[test]
fn async_runs_match_pinned_digests() {
    check_corpus(
        "ASYNC_GOLDEN",
        ASYNC_GOLDEN,
        async_corpus()
            .into_iter()
            .map(|(label, c, seed, slack)| (label, run_protocol_async(&c, seed, slack))),
    );
}

#[test]
fn delayed_event_runs_match_pinned_digests() {
    check_corpus(
        "EVENTS_GOLDEN",
        EVENTS_GOLDEN,
        events_corpus()
            .into_iter()
            .map(|(label, c, seed, slack, max_delay)| {
                (label, run_protocol_events(&c, seed, slack, max_delay))
            }),
    );
}

#[test]
fn delayed_event_runtime_is_deterministic() {
    let c = cfg(24);
    for max_delay in [1usize, 3, 8] {
        let a = run_protocol_events(&c, 42, 4, max_delay);
        let b = run_protocol_events(&c, 42, 4, max_delay);
        assert_eq!(
            report_digest(&a),
            report_digest(&b),
            "same-seed delayed runs diverged (max_delay={max_delay})"
        );
        assert_eq!(a.metrics.undelivered, b.metrics.undelivered);
    }
}

#[test]
fn delayed_runs_still_meter_honestly() {
    // The metering contract under real delays: everything metered at
    // send; whatever the budget expiry strands in flight is drained as
    // undelivered, so sent − undelivered still counts exact deliveries.
    let c = cfg(24);
    let r = run_protocol_events(&c, 11, 3, 6);
    assert!(r.metrics.messages_sent > 0);
    assert!(
        r.metrics.undelivered <= r.metrics.messages_sent,
        "undelivered ({}) cannot exceed sent ({})",
        r.metrics.undelivered,
        r.metrics.messages_sent
    );
}
