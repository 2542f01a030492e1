//! Optional operation log for post-hoc audits.
//!
//! The *good-execution* definitions (paper Definitions 2 and 5) quantify
//! over who-pulled-whom and who-voted-for-whom facts that no single agent
//! observes. When enabled, the network records every active operation so
//! the audit layer (rfc-core::audit) can check those global events exactly:
//!
//! * Def. 5(1): every agent received a Commitment pull from an honest
//!   non-coalition agent;
//! * Def. 5(3): every agent received a Voting-phase vote from an honest
//!   agent that no coalition member pulled in Commitment.
//!
//! The log stores only `(round, kind, from, to)` — 16 bytes per op — not
//! message payloads, so it stays cheap even for large sweeps; it is off by
//! default and switched on by [`crate::NetworkConfig::record_ops`].

use crate::ids::AgentId;

/// Kind of a logged operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An active push from `from` to `to`.
    Push,
    /// An active pull by `from` addressed to `to` (the pullee).
    Pull,
    /// A pull by `from` addressed to `to` that `to` did not answer
    /// (silence — either `to` is faulty or chose not to reply).
    PullUnanswered,
}

/// One logged active operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEvent {
    /// Round in which the operation was issued.
    pub round: u32,
    /// What happened.
    pub kind: OpKind,
    /// The active agent.
    pub from: AgentId,
    /// The addressed peer.
    pub to: AgentId,
}

/// Append-only log of all active operations of a run.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    events: Vec<OpEvent>,
}

impl OpLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    #[inline]
    pub fn record(&mut self, round: u32, kind: OpKind, from: AgentId, to: AgentId) {
        self.events.push(OpEvent {
            round,
            kind,
            from,
            to,
        });
    }

    /// All events in issue order.
    pub fn events(&self) -> &[OpEvent] {
        &self.events
    }

    /// Extend the log by `count` placeholder events and return the new
    /// tail as a mutable slice for scatter-writing.
    ///
    /// The staged engine's parallel op-log pass sizes one round's worth
    /// of events up front (a prefix sum over per-shard event counts)
    /// and has each shard write its events directly at their final
    /// positions — this is the pre-sized buffer that scatter lands in.
    /// The caller must overwrite **every** slot of the returned slice;
    /// a slot left untouched would hold a placeholder `Push 0→0` event.
    pub(crate) fn scatter_tail(&mut self, count: usize) -> &mut [OpEvent] {
        let start = self.events.len();
        self.events.resize(
            start + count,
            OpEvent { round: 0, kind: OpKind::Push, from: 0, to: 0 },
        );
        &mut self.events[start..]
    }

    /// Forget all events, retaining the backing allocation (arena reuse).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Events within a round range `[lo, hi)` (phase window).
    pub fn in_rounds(&self, lo: u32, hi: u32) -> impl Iterator<Item = &OpEvent> {
        self.events
            .iter()
            .filter(move |e| e.round >= lo && e.round < hi)
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpLog {
        let mut log = OpLog::new();
        log.record(0, OpKind::Pull, 1, 2);
        log.record(0, OpKind::Push, 3, 2);
        log.record(1, OpKind::PullUnanswered, 1, 4);
        log.record(2, OpKind::Push, 1, 2);
        log.record(2, OpKind::Pull, 2, 1);
        log
    }

    #[test]
    fn records_in_order() {
        let log = sample();
        assert_eq!(log.len(), 5);
        assert_eq!(log.events()[0].kind, OpKind::Pull);
        assert_eq!(log.events()[4].from, 2);
    }

    #[test]
    fn round_window_filters() {
        let log = sample();
        assert_eq!(log.in_rounds(0, 1).count(), 2);
        assert_eq!(log.in_rounds(1, 3).count(), 3);
        assert_eq!(log.in_rounds(3, 10).count(), 0);
    }

    #[test]
    fn empty_log() {
        let log = OpLog::new();
        assert!(log.is_empty());
        assert_eq!(log.in_rounds(0, 100).count(), 0);
    }
}
