//! Communication metrics: messages, bits, and per-phase aggregation.
//!
//! Everything the paper's complexity claims mention is counted here:
//!
//! * **messages_sent** — every push, every pull *query*, and every pull
//!   *reply* counts as one message (a pull is one active operation but two
//!   wire messages; the paper's `O(n)` active-links-per-round bound and the
//!   `O(n log³ n)` total-bits bound are insensitive to the factor of two,
//!   and counting both directions is the honest accounting).
//! * **bits_sent** — sum of [`crate::MsgSize::size_bits`] over all messages.
//! * **max_message_bits** — the largest single message (the `O(log² n)`
//!   claim of Theorem 4).
//! * **active_links** — number of distinct active operations per round,
//!   which the GOSSIP model bounds by `n`.
//!
//! Phases are caller-labelled: the protocol runner calls
//! [`Metrics::enter_phase`] at phase boundaries and per-phase tallies
//! accumulate under that label, giving E2 its by-phase breakdown.

/// Index of a protocol phase, assigned by the caller via `enter_phase`.
pub type PhaseId = usize;

/// A tally of messages/bits for one scope (global or one phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Number of wire messages.
    pub messages: u64,
    /// Total bits across those messages.
    pub bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
}

impl Tally {
    /// Count one message of `bits` bits into this tally.
    #[inline]
    pub fn record(&mut self, bits: u64) {
        self.messages += 1;
        self.bits += bits;
        if bits > self.max_message_bits {
            self.max_message_bits = bits;
        }
    }

    /// Merge another tally into this one (used when aggregating trials).
    pub fn merge(&mut self, other: &Tally) {
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
    }
}

/// Run-wide communication metrics collected by the [`crate::Network`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Global message count (pushes + pull queries + pull replies).
    pub messages_sent: u64,
    /// Metered messages that never reached a handler: sent off-edge,
    /// across a partition cut, to a faulty/crashed receiver, or lost in
    /// transit. `messages_sent - undelivered` is the exact number of
    /// deliveries (`on_push`/`on_pull`/`Some`-reply invocations) the
    /// wire produced.
    pub undelivered: u64,
    /// Global bit count.
    pub bits_sent: u64,
    /// Largest single message observed.
    pub max_message_bits: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Async ticks executed (sequential-GOSSIP extension; 0 in sync runs).
    pub ticks: u64,
    /// Maximum number of active operations in any single round.
    pub max_active_links: u64,
    /// Named phase tallies, indexed by the caller's `PhaseId`.
    pub phases: Vec<(String, Tally)>,
    current_phase: Option<PhaseId>,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero every counter **in place**, keeping the phase table's backing
    /// allocation (arena reuse: a reset Metrics is `==` to a fresh one,
    /// but re-entering the same phases won't reallocate).
    pub fn reset(&mut self) {
        self.messages_sent = 0;
        self.undelivered = 0;
        self.bits_sent = 0;
        self.max_message_bits = 0;
        self.rounds = 0;
        self.ticks = 0;
        self.max_active_links = 0;
        self.phases.clear();
        self.current_phase = None;
    }

    /// Open (or switch to) a named phase; subsequent messages accrue to it.
    /// Returns the phase's id for later lookup.
    pub fn enter_phase(&mut self, name: &str) -> PhaseId {
        if let Some(idx) = self.phases.iter().position(|(n, _)| n == name) {
            self.current_phase = Some(idx);
            idx
        } else {
            self.phases.push((name.to_owned(), Tally::default()));
            let idx = self.phases.len() - 1;
            self.current_phase = Some(idx);
            idx
        }
    }

    /// Name of the phase currently accruing, if any (checkpoint support:
    /// re-entering this name after restore reproduces the exact state).
    pub fn current_phase_name(&self) -> Option<&str> {
        self.current_phase.map(|i| self.phases[i].0.as_str())
    }

    /// Record one wire message of `bits` bits.
    #[inline]
    pub fn record_message(&mut self, bits: u64) {
        self.messages_sent += 1;
        self.bits_sent += bits;
        if bits > self.max_message_bits {
            self.max_message_bits = bits;
        }
        if let Some(p) = self.current_phase {
            self.phases[p].1.record(bits);
        }
    }

    /// Record one metered message that was suppressed before delivery
    /// (off-edge, cross-partition, faulty/crashed receiver, or loss).
    #[inline]
    pub fn record_undelivered(&mut self) {
        self.undelivered += 1;
    }

    /// Fold a pre-aggregated message [`Tally`] (plus an undelivered
    /// count) into the globals and the current phase — the staged
    /// engine's per-shard reply meters land here, merged in shard order.
    /// Exactly equivalent to calling [`Metrics::record_message`] once per
    /// message (sums and maxes commute), so sharded and sequential
    /// metering agree bit for bit.
    pub fn record_bulk(&mut self, tally: &Tally, undelivered: u64) {
        self.messages_sent += tally.messages;
        self.bits_sent += tally.bits;
        self.max_message_bits = self.max_message_bits.max(tally.max_message_bits);
        self.undelivered += undelivered;
        if let Some(p) = self.current_phase {
            self.phases[p].1.merge(tally);
        }
    }

    /// Record the number of active operations of a completed round.
    #[inline]
    pub fn record_round(&mut self, active_ops: u64) {
        self.rounds += 1;
        if active_ops > self.max_active_links {
            self.max_active_links = active_ops;
        }
    }

    /// Record one asynchronous activation tick.
    #[inline]
    pub fn record_tick(&mut self) {
        self.ticks += 1;
    }

    /// Tally for a named phase, if it was entered.
    pub fn phase(&self, name: &str) -> Option<&Tally> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Mean message size in bits (0 when no messages were sent).
    pub fn mean_message_bits(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.bits_sent as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = Metrics::new();
        m.record_message(10);
        m.record_message(30);
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.bits_sent, 40);
        assert_eq!(m.max_message_bits, 30);
        assert!((m.mean_message_bits() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mean_is_zero() {
        assert_eq!(Metrics::new().mean_message_bits(), 0.0);
    }

    #[test]
    fn phases_capture_their_messages() {
        let mut m = Metrics::new();
        m.enter_phase("commitment");
        m.record_message(100);
        m.record_message(50);
        m.enter_phase("voting");
        m.record_message(7);
        let c = m.phase("commitment").unwrap();
        assert_eq!(c.messages, 2);
        assert_eq!(c.bits, 150);
        assert_eq!(c.max_message_bits, 100);
        let v = m.phase("voting").unwrap();
        assert_eq!(v.messages, 1);
        assert_eq!(v.bits, 7);
        assert!(m.phase("nope").is_none());
    }

    #[test]
    fn reentering_a_phase_continues_its_tally() {
        let mut m = Metrics::new();
        m.enter_phase("a");
        m.record_message(1);
        m.enter_phase("b");
        m.record_message(2);
        m.enter_phase("a");
        m.record_message(3);
        assert_eq!(m.phase("a").unwrap().messages, 2);
        assert_eq!(m.phase("a").unwrap().bits, 4);
        assert_eq!(m.phases.len(), 2, "no duplicate phase entries");
    }

    #[test]
    fn rounds_track_max_active_links() {
        let mut m = Metrics::new();
        m.record_round(5);
        m.record_round(9);
        m.record_round(2);
        assert_eq!(m.rounds, 3);
        assert_eq!(m.max_active_links, 9);
    }

    #[test]
    fn tally_merge_combines() {
        let mut a = Tally {
            messages: 2,
            bits: 10,
            max_message_bits: 8,
        };
        let b = Tally {
            messages: 3,
            bits: 5,
            max_message_bits: 4,
        };
        a.merge(&b);
        assert_eq!(a.messages, 5);
        assert_eq!(a.bits, 15);
        assert_eq!(a.max_message_bits, 8);
    }

    #[test]
    fn messages_without_phase_only_hit_globals() {
        let mut m = Metrics::new();
        m.record_message(12);
        assert!(m.phases.is_empty());
        assert_eq!(m.messages_sent, 1);
    }
}
