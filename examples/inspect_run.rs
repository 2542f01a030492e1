//! Run forensics: inspect one protocol execution round by round.
//!
//! ```sh
//! cargo run --release --example inspect_run
//! ```
//!
//! Uses the network's operation log and the good-execution audit to show
//! what actually happened on the wire: per-phase operation counts, the
//! vote-count distribution, the k-lottery outcome, and the verification
//! verdicts. Useful both as a debugging aid and as a worked tour of the
//! protocol's mechanics.

use rational_fair_consensus::gossip_net::OpKind;
use rational_fair_consensus::prelude::*;
use rational_fair_consensus::rfc_core::engine::ConsensusAgent;
use rational_fair_consensus::rfc_core::runner::{
    build_network_slots, collect_report, drive_network, honest_slot_factory,
};

fn main() {
    let n = 24;
    let seed = 7;
    let cfg = RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![12, 8, 4])
        .record_ops(true)
        .build();
    let params = cfg.params();
    let q = params.q;

    let mut net = build_network_slots(&cfg, seed, &mut honest_slot_factory);
    drive_network(&mut net, &cfg);

    println!("protocol P on K_{n}, seed {seed}: q = {q}, m = n³ = {}\n", params.m);

    // Phase-by-phase wire activity from the op log.
    println!("{:<12} {:>8} {:>8} {:>10}", "phase", "pushes", "pulls", "unanswered");
    for (name, lo, hi) in [
        ("commitment", 0, q),
        ("voting", q, 2 * q),
        ("find-min", 2 * q, 3 * q),
        ("coherence", 3 * q, 4 * q),
    ] {
        let ops: Vec<_> = net.oplog().in_rounds(lo as u32, hi as u32).collect();
        let pushes = ops.iter().filter(|e| e.kind == OpKind::Push).count();
        let pulls = ops.iter().filter(|e| e.kind == OpKind::Pull).count();
        let silent = ops
            .iter()
            .filter(|e| e.kind == OpKind::PullUnanswered)
            .count();
        println!("{name:<12} {pushes:>8} {pulls:>8} {silent:>10}");
    }

    // The k-lottery: every agent's accumulated value, the winner starred.
    println!("\nthe k-lottery (k_u = Σ votes received mod m):");
    let mut ks: Vec<(u32, u64, usize)> = (0..n as u32)
        .map(|id| {
            let core = net.agent(id).core();
            (
                id,
                core.own_cert.as_ref().map(|c| c.k).unwrap_or(0),
                core.votes.len(),
            )
        })
        .collect();
    ks.sort_by_key(|&(_, k, _)| k);
    for (rank, (id, k, votes)) in ks.iter().take(5).enumerate() {
        let marker = if rank == 0 { "  ← minimum (the winner)" } else { "" };
        println!("  #{rank}: agent {id:>2}  k = {k:>14}  ({votes} votes){marker}");
    }
    println!("  … ({} agents total)", n);

    // Verification verdicts and the outcome.
    let report = collect_report(&net, &cfg);
    let audit = report.audit.as_ref().unwrap();
    println!("\naudit: votes/agent min {} mean {:.1} max {};  k distinct: {};  minima agree: {}",
        audit.votes_min, audit.votes_mean, audit.votes_max,
        audit.k_values_distinct, audit.minima_agree);
    match report.outcome {
        Outcome::Consensus(c) => println!(
            "outcome: consensus on color {c} (winner agent {}, initial color {})",
            report.winner.unwrap(),
            report.initial_colors[report.winner.unwrap() as usize]
        ),
        Outcome::Fail => {
            println!("outcome: ⊥  — failure kinds: {:?}", report.failure_histogram())
        }
    }
    println!(
        "wire totals: {} messages, {} bits, largest {} bits",
        report.metrics.messages_sent, report.metrics.bits_sent, report.metrics.max_message_bits
    );
}
