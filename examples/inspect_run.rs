//! Run forensics: inspect one protocol execution round by round.
//!
//! ```sh
//! cargo run --release --example inspect_run
//! ```
//!
//! Uses the run's per-phase meters, the agents' own state and the
//! good-execution audit to show what actually happened on the wire:
//! per-phase traffic, the vote-count distribution, the k-lottery
//! outcome, and the verification verdicts. Useful both as a debugging
//! aid and as a worked tour of the protocol's mechanics.

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

    let mut net = build_network_slots(&cfg, seed, &mut honest_slot_factory);
    drive_network(&mut net, &cfg);
    let report = collect_report(&net, &cfg);

    println!("protocol P on K_{n}, seed {seed}: q = {}, m = n³ = {}\n", params.q, params.m);

    // Phase-by-phase wire activity from the run's per-phase meters.
    println!("{:<12} {:>8} {:>10} {:>13}", "phase", "messages", "bits", "largest bits");
    for (name, t) in &report.metrics.phases {
        println!("{name:<12} {:>8} {:>10} {:>13}", t.messages, t.bits, t.max_message_bits);
    }

    // The k-lottery: every agent's accumulated value, the winner starred.
    println!("\nthe k-lottery (k_u = Σ votes received mod m):");
    let mut ks: Vec<(u32, u64, usize)> = (0..n as u32)
        .map(|id| {
            let core = net.agent(id).core();
            (
                id,
                core.own_cert_data().map(|c| c.k).unwrap_or(0),
                core.votes_received(),
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
