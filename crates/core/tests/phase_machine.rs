//! Phase-machine integration tests: the protocol's behaviour at phase
//! boundaries, under both schedules, and with ablation flags — driven
//! through the real network engine rather than isolated cores.

use rfc_core::engine::ConsensusAgent;
use rfc_core::prelude::*;
use rfc_core::runner::{build_network_slots, collect_report, drive_network, honest_slot_factory};

#[test]
fn commitment_phase_fills_ledgers() {
    let cfg = RunConfig::builder(24).gamma(3.0).build();
    let mut net = build_network_slots(&cfg, 7, &mut honest_slot_factory);
    let q = cfg.params().q;
    net.run(q); // commitment only
    // Each agent issued q pulls; ledgers hold up to q distinct entries
    // (duplicate targets collapse) and no agent is marked faulty (all
    // active and honest).
    for id in 0..24u32 {
        let core = net.agent(id).core();
        assert!(!core.ledger.is_empty(), "agent {id} learned nothing");
        assert!(core.ledger.len() <= q);
        for entry in core.ledger.entries() {
            assert!(
                !matches!(entry.decl, rfc_core::Declaration::Faulty),
                "honest agent marked faulty"
            );
        }
        // No votes yet.
        assert!(core.votes.is_empty());
        assert!(core.own_cert.is_none());
    }
}

#[test]
fn voting_phase_distributes_all_declared_votes() {
    let n = 24;
    let cfg = RunConfig::builder(n).gamma(3.0).build();
    let mut net = build_network_slots(&cfg, 8, &mut honest_slot_factory);
    let q = cfg.params().q;
    net.run(2 * q); // commitment + voting
    // Conservation: every declared vote was delivered exactly once.
    let total_received: usize = (0..n as u32)
        .map(|id| net.agent(id).core().votes.len())
        .sum();
    assert_eq!(total_received, n * q, "votes are conserved on K_n");
    // Each agent exhausted its intention list.
    for id in 0..n as u32 {
        assert_eq!(net.agent(id).core().vote_idx, q);
    }
}

#[test]
fn find_min_converges_before_coherence() {
    let n = 32;
    let cfg = RunConfig::builder(n).gamma(3.0).build();
    let mut net = build_network_slots(&cfg, 9, &mut honest_slot_factory);
    let q = cfg.params().q;
    net.run(3 * q); // through find-min
    let first = net.agent(0).core().min_cert_data().unwrap();
    for id in 1..n as u32 {
        assert_eq!(
            net.agent(id).core().min_cert_data(),
            Some(first),
            "agent {id} disagrees after find-min"
        );
    }
    // And the minimum is genuine.
    let min_k = (0..n as u32)
        .map(|id| net.agent(id).core().own_cert_data().unwrap().k)
        .min()
        .unwrap();
    assert_eq!(first.k, min_k);
}

#[test]
fn coherence_passes_on_converged_network() {
    let n = 24;
    let cfg = RunConfig::builder(n).gamma(3.0).build();
    let mut net = build_network_slots(&cfg, 10, &mut honest_slot_factory);
    drive_network(&mut net, &cfg);
    for id in 0..n as u32 {
        assert!(!net.agent(id).core().failed, "agent {id} failed unexpectedly");
        assert!(net.agent(id).core().decided.is_some());
    }
}

#[test]
fn skip_coherence_ablation_runs_three_phases() {
    let cfg = RunConfig::builder(24).gamma(3.0).skip_coherence(true).build();
    let mut net = build_network_slots(&cfg, 11, &mut honest_slot_factory);
    drive_network(&mut net, &cfg);
    let q = cfg.params().q;
    assert_eq!(net.round(), 3 * q, "coherence rounds must not execute");
    let report = collect_report(&net, &cfg);
    // Honest runs still succeed without coherence (it defends against
    // adversaries/collisions, not against honest randomness).
    assert!(report.outcome.is_consensus());
}

#[test]
fn async_and_sync_schedules_produce_same_decision_structure() {
    // Not the same outcome (different randomness), but the same shape:
    // all-decided-same-color.
    let cfg = RunConfig::builder(20).gamma(3.0).colors(vec![10, 10]).build();
    let sync = run_protocol(&cfg, 3);
    let asyn = rfc_core::asynchronous::run_protocol_async(&cfg, 3, 2);
    for report in [&sync, &asyn] {
        if let Outcome::Consensus(c) = report.outcome {
            for d in &report.decisions {
                assert_eq!(*d, rfc_core::Decision::Decided(c));
            }
        }
    }
    assert!(sync.outcome.is_consensus());
    assert!(asyn.outcome.is_consensus());
}

#[test]
fn metrics_phases_partition_all_messages() {
    let cfg = RunConfig::builder(32).gamma(2.0).build();
    let report = run_protocol(&cfg, 13);
    let phase_sum: u64 = report.metrics.phases.iter().map(|(_, t)| t.messages).sum();
    assert_eq!(
        phase_sum, report.metrics.messages_sent,
        "every message must be attributed to a phase"
    );
    let bits_sum: u64 = report.metrics.phases.iter().map(|(_, t)| t.bits).sum();
    assert_eq!(bits_sum, report.metrics.bits_sent);
}

#[test]
fn voting_receipt_counts_match_audit() {
    let cfg = RunConfig::builder(40).gamma(3.0).record_ops(true).build();
    let report = run_protocol(&cfg, 17);
    let audit = report.audit.unwrap();
    let q = cfg.params().q as f64;
    assert!(audit.votes_mean > 0.5 * q && audit.votes_mean < 1.5 * q);
    assert!(audit.votes_min >= 1);
    assert!(audit.votes_max as f64 <= 4.0 * q);
}

#[test]
fn leader_election_certificate_owner_is_leader() {
    let cfg = rfc_core::election::election_config(24, 3.0);
    let report = run_protocol(&cfg, 19);
    if let (Outcome::Consensus(c), Some(w)) = (report.outcome, report.winner) {
        assert_eq!(c, w, "in election mode the color IS the id");
    } else {
        panic!("election failed unexpectedly");
    }
}

#[test]
fn tiny_network_edge_case_n2() {
    // The smallest legal network: 2 agents, 2 colors.
    let cfg = RunConfig::builder(2).gamma(2.0).colors(vec![1, 1]).build();
    let mut consensuses = 0;
    for seed in 0..20 {
        let report = run_protocol(&cfg, seed);
        if report.outcome.is_consensus() {
            consensuses += 1;
        }
    }
    // k-collisions are common at m = 8, so some failures are expected;
    // but the machinery must not panic and must often succeed.
    assert!(consensuses >= 10, "n=2 too fragile: {consensuses}/20");
}
