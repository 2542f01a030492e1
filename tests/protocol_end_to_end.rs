//! End-to-end integration tests for protocol `P` across crates:
//! termination, agreement, validity, fairness, determinism, and the
//! communication bounds of Theorem 4.

mod common;

use common::{implied_meters, meters, recorded_ops, recording, OpRecord};
use rational_fair_consensus::prelude::*;
use rational_fair_consensus::rfc_core::Decision;
use rational_fair_consensus::rfc_stats::{chi_square_gof, wilson95};

#[test]
fn terminates_and_agrees_across_sizes() {
    for n in [8usize, 16, 33, 64, 100, 257] {
        let cfg = RunConfig::builder(n)
            .gamma(3.0)
            .colors(vec![n - n / 2, n / 2])
            .build();
        let report = run_protocol(&cfg, 1234 + n as u64);
        // Termination: every agent reached a terminal state.
        assert_eq!(report.decisions.len(), n);
        // Agreement: either consensus or a (rare, legitimate) failure —
        // never a silent split.
        if let Outcome::Consensus(c) = report.outcome {
            for d in &report.decisions {
                assert_eq!(*d, Decision::Decided(c), "n={n}: split decision");
            }
        }
    }
}

#[test]
fn validity_winning_color_was_supported() {
    // Validity (implied by fairness): the winning color is always one an
    // active agent initially supported.
    for seed in 0..30 {
        let cfg = RunConfig::builder(48).gamma(3.0).colors(vec![16, 16, 16]).build();
        let report = run_protocol(&cfg, seed);
        if let Outcome::Consensus(c) = report.outcome {
            assert!(
                report.initial_colors.contains(&c),
                "seed {seed}: winner color {c} never supported"
            );
            assert!(c < 3, "color out of space");
        }
    }
}

#[test]
fn winner_agent_supports_winning_color() {
    for seed in 0..30 {
        let cfg = RunConfig::builder(32).gamma(3.0).colors(vec![20, 12]).build();
        let report = run_protocol(&cfg, seed);
        if let (Outcome::Consensus(c), Some(w)) = (report.outcome, report.winner) {
            assert_eq!(report.initial_colors[w as usize], c);
        }
    }
}

#[test]
fn deterministic_replay() {
    let cfg = RunConfig::builder(64)
        .gamma(3.0)
        .colors(vec![40, 24])
        .record_ops(true)
        .build();
    let a = run_protocol(&cfg, 777);
    let b = run_protocol(&cfg, 777);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
    assert_eq!(a.metrics.bits_sent, b.metrics.bits_sent);
    assert_eq!(a.audit, b.audit);
}

#[test]
fn fairness_two_to_one_split() {
    // 2/3 vs 1/3 split: over 300 runs the minority should win roughly
    // 100 times; use a Wilson interval wide enough to be deterministic.
    let n = 48;
    let cfg = RunConfig::builder(n).gamma(3.0).colors(vec![32, 16]).build();
    let trials = 300u64;
    let minority_wins = (0..trials)
        .filter(|&s| run_protocol(&cfg, s).outcome == Outcome::Consensus(1))
        .count() as u64;
    let iv = wilson95(minority_wins, trials);
    assert!(
        iv.contains(1.0 / 3.0),
        "minority win rate {minority_wins}/{trials} not compatible with 1/3"
    );
}

#[test]
fn fairness_chi_square_three_colors() {
    let n = 60;
    let cfg = RunConfig::builder(n).gamma(3.0).colors(vec![30, 20, 10]).build();
    let trials = 600u64;
    let mut wins = [0u64; 3];
    let mut fails = 0;
    for s in 0..trials {
        match run_protocol(&cfg, s).outcome {
            Outcome::Consensus(c) => wins[c as usize] += 1,
            Outcome::Fail => fails += 1,
        }
    }
    assert!(fails <= 2, "honest failures should be rare: {fails}");
    let decided: u64 = wins.iter().sum();
    let expected = [
        decided as f64 * 0.5,
        decided as f64 * 2.0 / 6.0,
        decided as f64 / 6.0,
    ];
    let gof = chi_square_gof(&wins, &expected);
    assert!(
        gof.consistent_at(0.001),
        "fairness rejected: wins {wins:?}, p = {}",
        gof.p_value
    );
}

#[test]
fn message_and_round_bounds_scale_polylogarithmically() {
    // Theorem 4 shape check inside the test suite: rounds ratio between
    // n=1024 and n=64 must be log-like (10/6), not linear (16x).
    let small = run_protocol(&RunConfig::builder(64).gamma(3.0).build(), 5);
    let large = run_protocol(&RunConfig::builder(1024).gamma(3.0).build(), 5);
    let round_ratio = large.rounds as f64 / small.rounds as f64;
    assert!(round_ratio < 2.0, "rounds grew too fast: {round_ratio}");
    let size_ratio =
        large.metrics.max_message_bits as f64 / small.metrics.max_message_bits as f64;
    assert!(size_ratio < 4.5, "max message grew too fast: {size_ratio}");
    // Total bits: n·log³n predicts 16·(10/6)³ ≈ 74x between n=64 and
    // n=1024 — far below the quadratic 256x of the LOCAL baselines.
    let bits_ratio = large.metrics.bits_sent as f64 / small.metrics.bits_sent as f64;
    assert!(
        bits_ratio < 90.0,
        "total bits grew faster than n·log³n: {bits_ratio}"
    );
    assert!(
        bits_ratio > 16.0,
        "total bits must grow at least linearly in n: {bits_ratio}"
    );
}

#[test]
fn gossip_constraint_one_active_op_per_agent() {
    let n = 64;
    let cfg = RunConfig::builder(n).gamma(2.0).build();
    let report = run_protocol(&cfg, 9);
    assert!(
        report.metrics.max_active_links <= n as u64,
        "GOSSIP bound violated: {} active links",
        report.metrics.max_active_links
    );
}

#[test]
fn all_phases_appear_in_metrics() {
    let report = run_protocol(&RunConfig::builder(32).gamma(2.0).build(), 3);
    for phase in ["commitment", "voting", "find-min", "coherence"] {
        let tally = report
            .metrics
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing"));
        assert!(tally.messages > 0, "phase {phase} sent nothing");
    }
}

#[test]
fn uniform_start_instantly_fair() {
    // All agents share one color: it must win whenever the run succeeds.
    let mut cfg = RunConfig::builder(24).gamma(3.0).build();
    cfg.colors = rational_fair_consensus::rfc_core::ColorSpec::Uniform;
    for seed in 0..10 {
        let report = run_protocol(&cfg, seed);
        if report.outcome.is_consensus() {
            assert_eq!(report.outcome, Outcome::Consensus(0));
        }
    }
}

#[test]
fn crashed_agents_stay_silent_until_they_recover() {
    // Scripted churn on either synchronous engine: agents 3, 4 and 5
    // crash early in Voting and agent 4 recovers halfway through
    // Find-Min. A crashed agent performs no operation, a send to it is
    // metered but undelivered, and the recovered agent acts again; the
    // agents record what they did.
    use rational_fair_consensus::rfc_core::runner::{
        build_network_slots, drive_network, honest_slot_factory,
    };
    let n = 32;
    let base = RunConfig::builder(n).gamma(3.0).colors(vec![16, 16]);
    let phase_len = base.clone().build().params().sync_schedule().phase_len;
    let (crash_at, recover_at) = (phase_len + phase_len / 4, 2 * phase_len + phase_len / 2);
    let script = ScenarioScript::new()
        .crash(crash_at, vec![3, 4, 5])
        .recover(recover_at, vec![4]);
    let down = |u: AgentId, round: usize| {
        (3..=5).contains(&u) && round >= crash_at && !(u == 4 && round >= recover_at)
    };
    for staged in [false, true] {
        let mut builder = base.clone().scenario(script.clone());
        if staged {
            builder = builder.sharded(2).shard_floor(0);
        }
        let cfg = builder.build();
        let mut net = build_network_slots(&cfg, 7, &mut recording(honest_slot_factory));
        drive_network(&mut net, &cfg);
        let ops = recorded_ops(&net);
        assert!(
            ops.iter().all(|op| !down(op.from, op.round)),
            "staged={staged}: a crashed agent acted"
        );
        assert!(
            ops.iter().any(|op| op.from == 4 && op.round >= recover_at),
            "staged={staged}: the recovered agent never acted again"
        );
        let to_down = |op: &OpRecord| down(op.to, op.round);
        assert!(
            ops.iter().any(to_down),
            "staged={staged}: nothing was sent to a crashed agent"
        );
        assert_eq!(meters(&net), implied_meters(&ops, to_down), "staged={staged}");
    }
}

#[test]
fn sends_across_a_partition_cut_are_metered_undelivered() {
    // A cut splits the agents in half from mid-Commitment to the end of
    // Voting, on either synchronous engine: only sends across it while
    // it stands go undelivered, and every one of them is still metered.
    use rational_fair_consensus::rfc_core::runner::{
        build_network_slots, drive_network, honest_slot_factory,
    };
    let n = 32;
    let base = RunConfig::builder(n).gamma(3.0).colors(vec![16, 16]);
    let phase_len = base.clone().build().params().sync_schedule().phase_len;
    let (cut_at, heal_at) = (phase_len / 2, 2 * phase_len);
    let cut = PartitionCut::split_at(n, n / 2);
    let script = ScenarioScript::new()
        .partition(cut_at, cut.clone())
        .heal(heal_at);
    let across =
        |op: &OpRecord| (cut_at..heal_at).contains(&op.round) && cut.blocks(op.from, op.to);
    for staged in [false, true] {
        let mut builder = base.clone().scenario(script.clone());
        if staged {
            builder = builder.sharded(2).shard_floor(0);
        }
        let cfg = builder.build();
        let mut net = build_network_slots(&cfg, 11, &mut recording(honest_slot_factory));
        drive_network(&mut net, &cfg);
        let ops = recorded_ops(&net);
        assert!(
            ops.iter().any(across),
            "staged={staged}: nothing was sent across the cut"
        );
        assert_eq!(meters(&net), implied_meters(&ops, across), "staged={staged}");
    }
}
