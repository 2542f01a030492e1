//! Output checks applied to every decision. A failed check marks that
//! decision failed; the run goes on.

use rfc_core::{Decision, RunReport};
use rfc_node::SessionReport;

/// Largest message the benchmark accepts at size `n`: `40·⌈log₂ n⌉²`
/// bits, the Theorem-4 ballpark of `runner::tests::message_sizes_are_polylog`.
pub fn max_msg_bits_bound(n: usize) -> u64 {
    let l = (n as f64).log2().ceil() as u64;
    40 * l * l
}

/// Consensus among the survivors, the exact round (or tick) count, and
/// the message-size bound.
pub fn check_run(r: &RunReport, n: usize, expect_rounds: usize) -> Result<(), String> {
    if !r.outcome.is_consensus() {
        return Err(format!("no consensus among survivors: {:?}", r.outcome));
    }
    if r.rounds != expect_rounds {
        return Err(format!("ran {} rounds, expected {expect_rounds}", r.rounds));
    }
    let bound = max_msg_bits_bound(n);
    if r.metrics.max_message_bits > bound {
        return Err(format!(
            "largest message {} bits exceeds 40·⌈log₂ n⌉² = {bound}",
            r.metrics.max_message_bits
        ));
    }
    Ok(())
}

/// A node session: both endpoints agree (digest, decisions, ticks), the
/// decision vector equals the simulator's for the same seed, and the
/// simulator's reference run passes [`check_run`].
pub fn check_session(
    low: &SessionReport,
    high: &SessionReport,
    reference: &RunReport,
    n: usize,
    expect_ticks: usize,
) -> Result<(), String> {
    if low.digest != high.digest {
        return Err(format!(
            "endpoint digests differ: {:#x} vs {:#x}",
            low.digest, high.digest
        ));
    }
    if low.decisions != high.decisions {
        return Err("endpoint decision vectors differ".into());
    }
    if low.ticks != expect_ticks as u64 || high.ticks != expect_ticks as u64 {
        return Err(format!(
            "session ran {} ticks, expected {expect_ticks}",
            low.ticks
        ));
    }
    if !low.outcome.is_consensus() {
        return Err(format!("session reached no consensus: {:?}", low.outcome));
    }
    if low.decisions != reference.decisions {
        return Err("session decisions differ from run_protocol_async".into());
    }
    check_run(reference, n, expect_ticks)
}

/// Significance below which the fairness check fails: a fair protocol
/// fails it less than once in 10⁶ runs.
pub const FAIRNESS_ALPHA: f64 = 1e-6;

/// χ² goodness of fit of winning colors against the initial color
/// fractions. `winners[c]` counts decisions won by color `c`.
pub fn check_fairness(winners: &[u64], fractions: &[f64]) -> Result<f64, String> {
    let total: u64 = winners.iter().sum();
    if total == 0 {
        return Err("no decided trial to test fairness on".into());
    }
    let expected: Vec<f64> = fractions.iter().map(|f| f * total as f64).collect();
    let gof = rfc_stats::chi_square_gof(winners, &expected);
    if gof.consistent_at(FAIRNESS_ALPHA) {
        Ok(gof.p_value)
    } else {
        Err(format!(
            "winning colors {winners:?} reject fairness: χ² = {:.2}, p = {:.3e}",
            gof.statistic, gof.p_value
        ))
    }
}

/// FNV-1a over a report's outcome-defining fields: every decision, the
/// round count and the wire meters. Two reports with the same digest
/// describe the same run.
pub fn report_digest(r: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for d in &r.decisions {
        match d {
            Decision::Faulty => put(0),
            Decision::Failed => put(1),
            Decision::Decided(c) => put(2 + *c as u64),
        }
    }
    put(r.rounds as u64);
    put(r.metrics.messages_sent);
    put(r.metrics.undelivered);
    put(r.metrics.bits_sent);
    put(r.metrics.max_message_bits);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_matches_the_theorem_4_ballpark() {
        assert_eq!(max_msg_bits_bound(256), 2560);
        assert_eq!(max_msg_bits_bound(1024), 4000);
        assert_eq!(max_msg_bits_bound(4096), 5760);
        assert_eq!(max_msg_bits_bound(65536), 10240);
    }

    #[test]
    fn fairness_accepts_proportional_and_rejects_skewed_winners() {
        let f = [0.5, 0.3, 0.2];
        assert!(check_fairness(&[500, 300, 200], &f).is_ok());
        assert!(check_fairness(&[200, 300, 500], &f).is_err());
    }
}
