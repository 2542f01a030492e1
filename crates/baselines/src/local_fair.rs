//! LOCAL-model all-to-all fair consensus (the prior-work baseline).
//!
//! All previous rational fair consensus / leader election protocols
//! ([Abraham–Dolev–Halpern DISC'13], [Afek et al. PODC'14],
//! [Halpern–Vilaça PODC'16]) run in the LOCAL model, where each agent
//! exchanges messages with *all* neighbors each round, and rely on
//! broadcast: `Ω(n²)` messages and `Ω(n)` local memory on the complete
//! graph. This module implements the canonical commit-then-reveal scheme
//! at that cost so experiment E3 can plot both communication curves and
//! find the crossover.
//!
//! Scheme (fault-free skeleton, enough for the complexity comparison):
//!
//! 1. **Commit**: every agent draws `r_u ~ U[m]` and broadcasts a binding
//!    commitment (modeled as an opaque `O(log n)`-bit digest — we are
//!    counting communication, not implementing cryptography).
//! 2. **Reveal**: every agent broadcasts `r_u`; everyone verifies against
//!    the commitments.
//! 3. **Elect**: the winner is `argmin_u (Σ_v r_v mod m + u) mod n`-style
//!    shared randomness — we use `(Σ r_v mod m) mod |A|` over active
//!    agents, matching the fair-election construction.
//!
//! Communication: 2 rounds × n broadcasts × (n−1) receivers = `Θ(n²)`
//! messages of `Θ(log n)` bits.

use gossip_net::ids::{AgentId, ColorId};
use gossip_net::rng::DetRng;

/// Wire/communication accounting for one LOCAL run (computed exactly —
/// simulating n² message objects would only burn memory to confirm
/// arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalCost {
    /// Total messages across all rounds.
    pub messages: u64,
    /// Total bits.
    pub bits: u64,
    /// Synchronous rounds used.
    pub rounds: u64,
    /// Per-agent memory in bits (stores all n commitments).
    pub memory_bits_per_agent: u64,
}

/// Result of one LOCAL fair-consensus run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalRun {
    /// The elected agent.
    pub winner: AgentId,
    /// The winning color.
    pub winning_color: ColorId,
    /// Exact communication cost.
    pub cost: LocalCost,
}

/// Run the all-to-all commit-reveal fair consensus among the active
/// agents (ids `0..n`, `colors[u]` = initial color of `u`).
///
/// Fault-free by construction: the baseline is used for its *cost model*
/// and its fairness distribution, the two things E3/E4 compare against.
pub fn run_local_fair(n: usize, colors: &[ColorId], seed: u64) -> LocalRun {
    assert!(n >= 2, "need at least two agents");
    assert_eq!(colors.len(), n, "one color per agent");
    let m: u64 = (n as u64).saturating_pow(3);
    let mut rng = DetRng::seeded(seed, 0x10CA1);
    // Every agent's random contribution (drawn per-agent from split
    // streams to mirror the distributed draw).
    let contributions: Vec<u64> = (0..n)
        .map(|u| DetRng::seeded(rng.next_u64() ^ seed, u as u64).below(m))
        .collect();
    let shared: u64 = contributions.iter().fold(0u64, |acc, &r| (acc + r) % m);
    let winner = (shared % n as u64) as AgentId;

    let id_bits = gossip_net::ids::bits_for(n as u64) as u64;
    let value_bits = gossip_net::ids::bits_for(m) as u64;
    // Commit round: n agents broadcast a digest (modeled at value width)
    // to n-1 peers; reveal round: same for the opening.
    let per_round_msgs = (n as u64) * (n as u64 - 1);
    let messages = 2 * per_round_msgs;
    let bits = per_round_msgs * value_bits + per_round_msgs * value_bits;
    LocalRun {
        winner,
        winning_color: colors[winner as usize],
        cost: LocalCost {
            messages,
            bits,
            rounds: 2,
            memory_bits_per_agent: (n as u64) * (value_bits + id_bits),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_stats::chi_square::chi_square_gof;

    #[test]
    fn cost_is_quadratic() {
        let colors: Vec<ColorId> = vec![0; 100];
        let run = run_local_fair(100, &colors, 1);
        assert_eq!(run.cost.messages, 2 * 100 * 99);
        assert_eq!(run.cost.rounds, 2);
        assert!(run.cost.memory_bits_per_agent > 100 * 20);
    }

    #[test]
    fn winner_is_in_range_and_deterministic() {
        let colors: Vec<ColorId> = (0..50).map(|i| i % 3).collect();
        let a = run_local_fair(50, &colors, 42);
        let b = run_local_fair(50, &colors, 42);
        assert_eq!(a, b);
        assert!((a.winner as usize) < 50);
        assert_eq!(a.winning_color, colors[a.winner as usize]);
    }

    #[test]
    fn election_is_roughly_uniform() {
        let n = 16;
        let colors: Vec<ColorId> = (0..n as ColorId).collect();
        let trials = 3200;
        let mut counts = vec![0u64; n];
        for seed in 0..trials {
            let run = run_local_fair(n, &colors, seed);
            counts[run.winner as usize] += 1;
        }
        let expected = vec![trials as f64 / n as f64; n];
        let gof = chi_square_gof(&counts, &expected);
        assert!(
            gof.consistent_at(0.001),
            "baseline election biased: p = {}",
            gof.p_value
        );
    }

    #[test]
    fn bits_scale_quadratically_with_n() {
        let c64: Vec<ColorId> = vec![0; 64];
        let c128: Vec<ColorId> = vec![0; 128];
        let b64 = run_local_fair(64, &c64, 0).cost.bits as f64;
        let b128 = run_local_fair(128, &c128, 0).cost.bits as f64;
        let ratio = b128 / b64;
        assert!(
            ratio > 3.5 && ratio < 5.0,
            "doubling n should ≈4x the bits (got {ratio})"
        );
    }
}
