//! The commitment ledger `L_u`.
//!
//! During the Commitment phase agent `u` pulls vote-intention lists from
//! random agents and stores what it learned. For every contacted agent
//! `v` the ledger holds one [`Declaration`]:
//!
//! * `Intents(H_v)` — the *first* complete list `v` sent back, tagged with
//!   the round it arrived (the paper's analysis keys the "legitimate
//!   winner" off first declarations, so equivocators are pinned to their
//!   earliest answer);
//! * `Faulty` — `v` did not answer, or answered with garbage. The paper
//!   (footnote 4) then fixes `h_{v,j} = 0` for all `j`, i.e. `u` expects
//!   **no** votes from `v` anywhere. A later non-answer *downgrades* an
//!   earlier good declaration: a rational agent that answers once and then
//!   plays dead is remembered as faulty.
//!
//! Verification (paper footnote 5) checks the winner's vote set `W_min`
//! against this ledger: for each `v` in the ledger, the votes `W_min`
//! attributes to `v` must be *exactly* the votes `v` declared for the
//! winner — same values, same intention indices, nothing missing, nothing
//! extra — and `Faulty` agents must contribute nothing.

use crate::certificate::CertData;
use crate::payload::{ListId, PayloadPool};
use gossip_net::ids::AgentId;

/// What agent `u` knows about one contacted agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Declaration {
    /// `v` never answered (or answered garbage): all of `v`'s votes are
    /// pinned to 0, i.e. `v` must not appear in any accepted vote set.
    Faulty,
    /// `v`'s first declared intention list, in the network's payload pool.
    Intents(ListId),
}

/// One ledger row: contacted agent, arrival round of the (first)
/// declaration, and the declaration itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The contacted agent.
    pub agent: AgentId,
    /// Global round at which this declaration was recorded.
    pub round: u32,
    /// What we learned.
    pub decl: Declaration,
}

/// The collected vote intentions `L_u` of one agent.
///
/// Backed by a plain vector: the ledger holds at most `q = O(log n)`
/// entries, so linear scans beat any hash structure.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    entries: Vec<LedgerEntry>,
}

/// Outcome of checking a certificate's vote set against a ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyError {
    /// A ledger agent declared a vote for the winner that `W_min` lacks,
    /// or `W_min` contains a vote that differs from the declaration.
    VoteMismatch {
        /// The voter whose votes disagree.
        voter: AgentId,
    },
    /// `W_min` contains votes from an agent the verifier marked faulty.
    VoteFromFaulty {
        /// The allegedly faulty voter.
        voter: AgentId,
    },
}

impl Ledger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty ledger with room for `cap` entries. The ledger gains at
    /// most one entry per Commitment-phase round (plus one slot for a
    /// late `mark_faulty` straggler), so reserving `q + 1` up front
    /// keeps steady-state rounds entirely off the allocator — growth
    /// would otherwise double mid-phase, once per agent.
    pub fn with_capacity(cap: usize) -> Self {
        Ledger {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Record `v`'s first intention declaration (later declarations are
    /// ignored — first-declaration semantics). Returns whether the entry
    /// was newly inserted.
    pub fn declare(&mut self, v: AgentId, round: u32, intents: ListId) -> bool {
        if self.find(v).is_some() {
            return false;
        }
        self.entries.push(LedgerEntry {
            agent: v,
            round,
            decl: Declaration::Intents(intents),
        });
        true
    }

    /// Mark `v` faulty. Overrides any earlier declaration (an agent that
    /// stops answering is treated as faulty from then on).
    pub fn mark_faulty(&mut self, v: AgentId, round: u32) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.agent == v) {
            e.decl = Declaration::Faulty;
            e.round = e.round.min(round);
        } else {
            self.entries.push(LedgerEntry {
                agent: v,
                round,
                decl: Declaration::Faulty,
            });
        }
    }

    /// The declaration recorded for `v`, if any.
    pub fn find(&self, v: AgentId) -> Option<&LedgerEntry> {
        self.entries.iter().find(|e| e.agent == v)
    }

    /// All entries in recording order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of contacted agents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no agent was contacted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verification core (paper footnote 5): check the winner certificate's
    /// vote set against every declaration in this ledger, whose lists
    /// live in `pool`.
    ///
    /// For each ledger agent `v`:
    /// * `Faulty` ⇒ no vote in `cert.votes` may name `v` as voter;
    /// * `Intents(H_v)` ⇒ the votes `cert.votes` attributes to `v` must be
    ///   exactly `{(i, h) | H_v[i] = (h, winner)}` — matching intention
    ///   indices and values, with no omissions and no extras.
    pub fn check_certificate(
        &self,
        pool: &PayloadPool,
        cert: &CertData,
    ) -> Result<(), ConsistencyError> {
        // Honest certificates keep `votes` in canonical (voter, round)
        // order (CertData::build sorts), so the votes of one voter form
        // a contiguous run findable by binary search over the flat voter
        // lane. Verify sortedness once; adversarially unsorted
        // certificates fall back to the linear scan. Verdicts are
        // identical on both paths.
        let votes = &cert.votes;
        let voters = votes.voters();
        let sorted = votes.is_canonically_sorted();
        for entry in &self.entries {
            let v = entry.agent;
            let (lo, hi) = if sorted {
                let lo = voters.partition_point(|&r| r < v);
                let hi = lo + voters[lo..].partition_point(|&r| r == v);
                (lo, hi)
            } else {
                (0, 0) // sentinel; unsorted path re-filters below
            };
            let actual_count = if sorted {
                hi - lo
            } else {
                cert.votes_from(v).count()
            };
            match entry.decl {
                Declaration::Faulty => {
                    if actual_count > 0 {
                        return Err(ConsistencyError::VoteFromFaulty { voter: v });
                    }
                }
                Declaration::Intents(h_v) => {
                    // Fast path: most declarers sent *no* vote to the
                    // winner (targets are uniform over [n]) and most
                    // certificates attribute no vote to a given v — when
                    // both sides are empty the entry is consistent
                    // without building or sorting anything. The count
                    // comes from the list's per-handle memo, not the list.
                    let expected_count = pool.votes_for(h_v, cert.owner) as usize;
                    if expected_count != actual_count {
                        return Err(ConsistencyError::VoteMismatch { voter: v });
                    }
                    if expected_count == 0 {
                        continue;
                    }
                    // Expected: declared votes of v addressed to the winner.
                    let mut expected: Vec<(u16, u64)> = pool
                        .list(h_v)
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.target == cert.owner)
                        .map(|(i, e)| (i as u16, e.value))
                        .collect();
                    // Actual: votes the certificate attributes to v.
                    let mut actual: Vec<(u16, u64)> = if sorted {
                        votes.rounds()[lo..hi]
                            .iter()
                            .zip(&votes.values()[lo..hi])
                            .map(|(&r, &val)| (r, val))
                            .collect()
                    } else {
                        cert.votes_from(v).map(|r| (r.round, r.value)).collect()
                    };
                    expected.sort_unstable();
                    actual.sort_unstable();
                    if expected != actual {
                        return Err(ConsistencyError::VoteMismatch { voter: v });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::VoteRec;
    use crate::msg::IntentEntry;
    use crate::params::Params;
    use std::sync::LazyLock;

    /// One pool for every list these tests declare.
    static POOL: LazyLock<PayloadPool> =
        LazyLock::new(|| PayloadPool::new(Params::new(16, 1.0), 0));

    fn intents(entries: &[(u64, AgentId)]) -> ListId {
        POOL.insert_list(
            entries
                .iter()
                .map(|&(value, target)| IntentEntry { value, target })
                .collect(),
        )
    }

    fn check(l: &Ledger, cert: &CertData) -> Result<(), ConsistencyError> {
        l.check_certificate(&POOL, cert)
    }

    fn cert_with(owner: AgentId, votes: Vec<VoteRec>) -> CertData {
        CertData::build(owner, 0, votes, 1 << 40)
    }

    #[test]
    fn declare_keeps_first_only() {
        let mut l = Ledger::new();
        assert!(l.declare(3, 1, intents(&[(10, 0)])));
        assert!(!l.declare(3, 2, intents(&[(99, 0)])));
        match &l.find(3).unwrap().decl {
            Declaration::Intents(h) => assert_eq!(POOL.list(*h)[0].value, 10),
            _ => panic!("expected intents"),
        }
        assert_eq!(l.find(3).unwrap().round, 1);
    }

    #[test]
    fn mark_faulty_overrides_declaration() {
        let mut l = Ledger::new();
        l.declare(3, 1, intents(&[(10, 0)]));
        l.mark_faulty(3, 4);
        assert_eq!(l.find(3).unwrap().decl, Declaration::Faulty);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn consistent_certificate_passes() {
        // v=5 declared votes (7 -> agent 2) at index 0 and (9 -> agent 1) at 1.
        let mut l = Ledger::new();
        l.declare(5, 0, intents(&[(7, 2), (9, 1)]));
        // Winner is agent 2; W contains exactly v's index-0 vote.
        let cert = cert_with(
            2,
            vec![VoteRec {
                voter: 5,
                round: 0,
                value: 7,
            }],
        );
        assert_eq!(check(&l, &cert), Ok(()));
    }

    #[test]
    fn missing_declared_vote_is_caught() {
        let mut l = Ledger::new();
        l.declare(5, 0, intents(&[(7, 2)]));
        let cert = cert_with(2, vec![]); // winner 2, but v5's vote absent
        assert_eq!(
            check(&l, &cert),
            Err(ConsistencyError::VoteMismatch { voter: 5 })
        );
    }

    #[test]
    fn altered_vote_value_is_caught() {
        let mut l = Ledger::new();
        l.declare(5, 0, intents(&[(7, 2)]));
        let cert = cert_with(
            2,
            vec![VoteRec {
                voter: 5,
                round: 0,
                value: 8,
            }],
        );
        assert!(check(&l, &cert).is_err());
    }

    #[test]
    fn fabricated_extra_vote_is_caught() {
        let mut l = Ledger::new();
        l.declare(5, 0, intents(&[(7, 2)]));
        let cert = cert_with(
            2,
            vec![
                VoteRec {
                    voter: 5,
                    round: 0,
                    value: 7,
                },
                VoteRec {
                    voter: 5,
                    round: 1,
                    value: 3,
                }, // never declared
            ],
        );
        assert_eq!(
            check(&l, &cert),
            Err(ConsistencyError::VoteMismatch { voter: 5 })
        );
    }

    #[test]
    fn vote_from_faulty_agent_is_caught() {
        let mut l = Ledger::new();
        l.mark_faulty(5, 0);
        let cert = cert_with(
            2,
            vec![VoteRec {
                voter: 5,
                round: 0,
                value: 7,
            }],
        );
        assert_eq!(
            check(&l, &cert),
            Err(ConsistencyError::VoteFromFaulty { voter: 5 })
        );
    }

    #[test]
    fn votes_from_unknown_agents_are_not_checked() {
        // u never pulled agent 9, so its votes are unverifiable here —
        // the paper relies on *some other* honest agent having pulled 9.
        let l = Ledger::new();
        let cert = cert_with(
            2,
            vec![VoteRec {
                voter: 9,
                round: 0,
                value: 1,
            }],
        );
        assert_eq!(check(&l, &cert), Ok(()));
    }

    #[test]
    fn duplicate_targets_in_declaration_both_required() {
        // v declared two votes for the same winner at different indices.
        let mut l = Ledger::new();
        l.declare(5, 0, intents(&[(7, 2), (8, 2)]));
        let full = cert_with(
            2,
            vec![
                VoteRec {
                    voter: 5,
                    round: 0,
                    value: 7,
                },
                VoteRec {
                    voter: 5,
                    round: 1,
                    value: 8,
                },
            ],
        );
        assert_eq!(check(&l, &full), Ok(()));
        let partial = cert_with(
            2,
            vec![VoteRec {
                voter: 5,
                round: 0,
                value: 7,
            }],
        );
        assert!(check(&l, &partial).is_err());
    }

    #[test]
    fn swapped_indices_are_a_mismatch() {
        // Same values but at the wrong intention indices must fail: the
        // index is part of the declaration.
        let mut l = Ledger::new();
        l.declare(5, 0, intents(&[(7, 2), (8, 2)]));
        let swapped = cert_with(
            2,
            vec![
                VoteRec {
                    voter: 5,
                    round: 1,
                    value: 7,
                },
                VoteRec {
                    voter: 5,
                    round: 0,
                    value: 8,
                },
            ],
        );
        assert!(check(&l, &swapped).is_err());
    }

    #[test]
    fn empty_ledger_accepts_anything() {
        let l = Ledger::new();
        assert!(l.is_empty());
        let cert = cert_with(0, vec![]);
        assert_eq!(check(&l, &cert), Ok(()));
    }

    #[test]
    fn one_list_checked_against_alternating_owners() {
        // v=5 declared (7 -> A=2) at index 0 and (9 -> B=1) at index 1. The
        // same list is checked against A's, B's and again A's certificate:
        // each verdict must equal the one a fresh ledger gives alone.
        let list = intents(&[(7, 2), (9, 1)]);
        let mut l = Ledger::new();
        l.declare(5, 0, list);
        let vote = |round, value| VoteRec {
            voter: 5,
            round,
            value,
        };
        let a_ok = cert_with(2, vec![vote(0, 7)]);
        let b_missing = cert_with(1, vec![]);
        let a_missing = cert_with(2, vec![]);
        for cert in [&a_ok, &b_missing, &a_ok, &a_missing, &b_missing] {
            let mut alone = Ledger::new();
            alone.declare(5, 0, intents(&[(7, 2), (9, 1)]));
            assert_eq!(check(&l, cert), check(&alone, cert));
        }
        assert_eq!(check(&l, &a_ok), Ok(()));
        assert_eq!(
            check(&l, &b_missing),
            Err(ConsistencyError::VoteMismatch { voter: 5 })
        );
        assert_eq!(
            check(&l, &a_missing),
            Err(ConsistencyError::VoteMismatch { voter: 5 })
        );
    }
}
