//! Votes and certificates.
//!
//! After the Voting phase every agent `u` owns a **certificate**
//! `CE_u = (k_u, W_u, c_u, u)` where `W_u` is the multiset of votes `u`
//! received and `k_u = Σ_{h ∈ W_u} h mod m`. The Find-Min phase spreads
//! the certificate with the minimum `k`; Verification later re-derives
//! `k` from `W` and cross-checks `W` against the Commitment declarations.
//!
//! Each vote is recorded as `(voter, round, value)` — the `round` is the
//! index of the vote inside the voter's declared intention list `H_v`,
//! which is what lets Verification match votes against declarations
//! *exactly* (the paper keeps `W` abstract; tagging votes by their
//! intention index is the deterministic refinement that makes the
//! consistency check well-defined even when the same voter targets the
//! same agent twice).

use gossip_net::ids::{AgentId, ColorId};

/// One received vote: `voter` sent `value` as the `round`-th entry of its
/// declared intention list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VoteRec {
    /// The authenticated sender of the vote.
    pub voter: AgentId,
    /// Index of this vote in the voter's intention list `H_voter`.
    pub round: u16,
    /// The vote value `h ∈ [m]`.
    pub value: u64,
}

/// A vote multiset in struct-of-arrays layout: three parallel lanes
/// (`voters`, `rounds`, `values`) instead of a `Vec<VoteRec>`.
///
/// The hot scans — the modular sum behind `k`, the structural range
/// checks, the per-voter runs Verification walks — each touch exactly
/// one or two lanes, so the compiler can vectorize them and the cache
/// carries no padding (14 packed bytes per vote vs 16 with the AoS
/// record). The element view is still [`VoteRec`]: `iter`/`get`
/// materialize records on the fly, so call sites keep record semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VoteLanes {
    voters: Vec<AgentId>,
    rounds: Vec<u16>,
    values: Vec<u64>,
}

impl VoteLanes {
    /// Empty lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty lanes with room for `cap` votes in each lane.
    pub fn with_capacity(cap: usize) -> Self {
        VoteLanes {
            voters: Vec::with_capacity(cap),
            rounds: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Number of votes.
    #[inline]
    pub fn len(&self) -> usize {
        self.voters.len()
    }

    /// Whether the multiset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.voters.is_empty()
    }

    /// The voter lane.
    #[inline]
    pub fn voters(&self) -> &[AgentId] {
        &self.voters
    }

    /// The intention-index lane.
    #[inline]
    pub fn rounds(&self) -> &[u16] {
        &self.rounds
    }

    /// The value lane.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Append one vote.
    #[inline]
    pub fn push(&mut self, v: VoteRec) {
        self.voters.push(v.voter);
        self.rounds.push(v.round);
        self.values.push(v.value);
    }

    /// The `i`-th vote, materialized as a record.
    #[inline]
    pub fn get(&self, i: usize) -> VoteRec {
        VoteRec {
            voter: self.voters[i],
            round: self.rounds[i],
            value: self.values[i],
        }
    }

    /// Overwrite the `i`-th vote.
    #[inline]
    pub fn set(&mut self, i: usize, v: VoteRec) {
        self.voters[i] = v.voter;
        self.rounds[i] = v.round;
        self.values[i] = v.value;
    }

    /// Remove and return the `i`-th vote, shifting later votes left
    /// (`Vec::remove` semantics, applied to every lane).
    pub fn remove(&mut self, i: usize) -> VoteRec {
        VoteRec {
            voter: self.voters.remove(i),
            round: self.rounds.remove(i),
            value: self.values.remove(i),
        }
    }

    /// Iterate the votes as materialized records.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = VoteRec> + '_ {
        self.voters
            .iter()
            .zip(&self.rounds)
            .zip(&self.values)
            .map(|((&voter, &round), &value)| VoteRec {
                voter,
                round,
                value,
            })
    }

    /// Whether the lanes are in canonical `(voter, round)` order.
    #[inline]
    pub fn is_canonically_sorted(&self) -> bool {
        self.voters
            .windows(2)
            .zip(self.rounds.windows(2))
            .all(|(v, r)| (v[0], r[0]) <= (v[1], r[1]))
    }

    /// Sort into canonical `(voter, round)` order.
    ///
    /// Implemented by materializing the records and running the exact
    /// record sort the AoS representation used
    /// (`sort_unstable_by_key(|v| (v.voter, v.round))`): unstable-sort
    /// tie behaviour on duplicate `(voter, round)` keys is part of the
    /// observable certificate bytes, so the lane layout must reproduce
    /// it permutation-for-permutation. The sorted records are written
    /// back into the lanes in place: an agent's lanes are allocated on
    /// the thread that built the network, and freeing them from a shard
    /// worker instead would take that thread's allocator arena lock once
    /// per lane — at n = 65 536 the first Find-Min round's certificate
    /// builds ran no faster on 2 shards than on 1 for exactly that.
    pub fn sort_canonical(&mut self) {
        let mut recs = self.to_vec();
        recs.sort_unstable_by_key(|v| (v.voter, v.round));
        for (i, v) in recs.into_iter().enumerate() {
            self.set(i, v);
        }
    }

    /// Remove consecutive duplicate votes (`Vec::dedup` semantics over
    /// the full `(voter, round, value)` triple).
    pub fn dedup(&mut self) {
        let mut w = 0usize;
        for r in 0..self.len() {
            if r > 0 && self.get(r) == self.get(w - 1) {
                continue;
            }
            if r != w {
                let v = self.get(r);
                self.set(w, v);
            }
            w += 1;
        }
        self.voters.truncate(w);
        self.rounds.truncate(w);
        self.values.truncate(w);
    }

    /// `Σ value mod m` over the value lane (one vectorizable pass).
    #[inline]
    pub fn sum_mod(&self, m: u64) -> u64 {
        debug_assert!(m >= 1);
        // Accumulate exactly in u128 and reduce once (see `sum_votes_mod`).
        let sum: u128 = self.values.iter().map(|&v| v as u128).sum();
        (sum % m as u128) as u64
    }

    /// Materialize as a record vector (tests / interop).
    pub fn to_vec(&self) -> Vec<VoteRec> {
        self.iter().collect()
    }
}

impl From<Vec<VoteRec>> for VoteLanes {
    fn from(recs: Vec<VoteRec>) -> Self {
        let mut lanes = VoteLanes::with_capacity(recs.len());
        for v in recs {
            lanes.push(v);
        }
        lanes
    }
}

impl FromIterator<VoteRec> for VoteLanes {
    fn from_iter<I: IntoIterator<Item = VoteRec>>(iter: I) -> Self {
        let mut lanes = VoteLanes::new();
        for v in iter {
            lanes.push(v);
        }
        lanes
    }
}

/// Certificate payload `CE = (k, W, c, owner)`. Agents and messages
/// hold a [`crate::payload::CertId`] handle to one in their network's
/// payload pool; Find-Min and Coherence copy that handle `Θ(n log n)`
/// times, never the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertData {
    /// Accumulated vote value `k = Σ value mod m`, as declared by `owner`.
    pub k: u64,
    /// The votes `W` the owner claims to have received, in canonical
    /// `(voter, round)` order, stored as struct-of-arrays lanes.
    pub votes: VoteLanes,
    /// The owner's initial color `c_owner`.
    pub color: ColorId,
    /// The owner's label.
    pub owner: AgentId,
}

impl CertData {
    /// Build the honest certificate from received votes: sorts the votes
    /// into canonical order and accumulates `k = Σ value mod m`.
    pub fn build(
        owner: AgentId,
        color: ColorId,
        votes: Vec<VoteRec>,
        m: u64,
    ) -> CertData {
        Self::build_lanes(owner, color, votes.into(), m)
    }

    /// [`CertData::build`] over lanes the caller already owns — the hot
    /// path: the agent's receipt buffer moves straight into the
    /// certificate, no intermediate record vector.
    pub fn build_lanes(
        owner: AgentId,
        color: ColorId,
        mut votes: VoteLanes,
        m: u64,
    ) -> CertData {
        votes.sort_canonical();
        let k = votes.sum_mod(m);
        CertData {
            k,
            votes,
            color,
            owner,
        }
    }

    /// Re-derive `k` from the contained votes; Verification's first check
    /// is `self.k == self.derived_k(m)`.
    pub fn derived_k(&self, m: u64) -> u64 {
        self.votes.sum_mod(m)
    }

    /// All votes claimed to come from `voter`, in declaration order.
    pub fn votes_from(&self, voter: AgentId) -> impl Iterator<Item = VoteRec> + '_ {
        self.votes.iter().filter(move |v| v.voter == voter)
    }

    /// Structural sanity for a certificate circulating among `n` agents
    /// with vote space `m` and `q` voting rounds: field ranges only (the
    /// paper's agents accept any *plausible* certificate during Find-Min
    /// and defer semantic checks to Verification).
    ///
    /// Each range check scans one flat lane — a branchless accumulator
    /// fold the compiler can vectorize (honest certificates pass every
    /// entry, so short-circuiting would never fire on the hot path).
    pub fn structurally_valid(&self, n: usize, m: u64, q: usize) -> bool {
        let nn = n as u32;
        self.k < m
            && (self.owner as usize) < n
            && self.votes.voters().iter().fold(true, |ok, &v| ok & (v < nn))
            && self.votes.values().iter().fold(true, |ok, &v| ok & (v < m))
            && self
                .votes
                .rounds()
                .iter()
                .fold(true, |ok, &r| ok & ((r as usize) < q))
    }
}

/// `Σ value mod m` over a vote slice (the order is irrelevant because
/// addition mod m is commutative; we still keep votes canonically sorted
/// so certificate equality is syntactic).
pub fn sum_votes_mod(votes: &[VoteRec], m: u64) -> u64 {
    debug_assert!(m >= 1);
    // Accumulate exactly in u128 and reduce once: identical to reducing
    // after every addition ((Σ v) mod m == (Σ (v mod m)) mod m), but one
    // division instead of 2·|votes|. A u128 sum of u64 values cannot
    // overflow below 2^64 summands.
    let sum: u128 = votes.iter().map(|v| v.value as u128).sum();
    (sum % m as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(voter: AgentId, round: u16, value: u64) -> VoteRec {
        VoteRec {
            voter,
            round,
            value,
        }
    }

    #[test]
    fn build_sorts_and_accumulates() {
        let m = 1000;
        let cert = CertData::build(7, 3, vec![v(2, 1, 500), v(1, 0, 700)], m);
        assert_eq!(cert.votes.get(0).voter, 1);
        assert_eq!(cert.k, 200); // (500 + 700) mod 1000
        assert_eq!(cert.owner, 7);
        assert_eq!(cert.color, 3);
    }

    #[test]
    fn lanes_round_trip_records() {
        let recs = vec![v(3, 1, 10), v(1, 0, 20), v(3, 0, 30)];
        let lanes: VoteLanes = recs.clone().into();
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes.to_vec(), recs);
        assert_eq!(lanes.get(1), recs[1]);
        assert_eq!(lanes.voters(), &[3, 1, 3]);
        assert_eq!(lanes.rounds(), &[1, 0, 0]);
        assert_eq!(lanes.values(), &[10, 20, 30]);
    }

    #[test]
    fn lane_sort_matches_record_sort() {
        // The lane co-sort must reproduce the AoS sort exactly,
        // including unstable-tie behaviour on duplicate (voter, round)
        // keys — certificate bytes are digest-pinned.
        let recs: Vec<VoteRec> = (0..100)
            .map(|i: u64| v((i * 7 % 13) as AgentId, (i % 3) as u16, i * 31 % 97))
            .collect();
        let mut sorted = recs.clone();
        sorted.sort_unstable_by_key(|r| (r.voter, r.round));
        let mut lanes: VoteLanes = recs.into();
        lanes.sort_canonical();
        assert_eq!(lanes.to_vec(), sorted);
        assert!(lanes.is_canonically_sorted());
    }

    #[test]
    fn lane_mutators_match_vec_semantics() {
        let mut lanes: VoteLanes = vec![v(1, 0, 5), v(2, 0, 6), v(2, 0, 6), v(3, 1, 7)].into();
        lanes.dedup();
        assert_eq!(lanes.to_vec(), vec![v(1, 0, 5), v(2, 0, 6), v(3, 1, 7)]);
        let removed = lanes.remove(1);
        assert_eq!(removed, v(2, 0, 6));
        assert_eq!(lanes.to_vec(), vec![v(1, 0, 5), v(3, 1, 7)]);
        lanes.set(0, v(9, 2, 11));
        assert_eq!(lanes.get(0), v(9, 2, 11));
        lanes.push(v(4, 0, 1));
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes.sum_mod(10), (11 + 7 + 1) % 10);
    }

    #[test]
    fn empty_vote_set_sums_to_zero() {
        let cert = CertData::build(0, 0, vec![], 997);
        assert_eq!(cert.k, 0);
        assert_eq!(cert.derived_k(997), 0);
    }

    #[test]
    fn derived_k_matches_build() {
        let m = 12345;
        let votes: Vec<_> = (0..50).map(|i| v(i, (i % 7) as u16, (i as u64) * 999)).collect();
        let cert = CertData::build(1, 1, votes, m);
        assert_eq!(cert.k, cert.derived_k(m));
    }

    #[test]
    fn sum_is_order_independent() {
        let m = 101;
        let a = vec![v(1, 0, 50), v(2, 0, 60), v(3, 0, 70)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(sum_votes_mod(&a, m), sum_votes_mod(&b, m));
    }

    #[test]
    fn sum_reduces_oversized_values() {
        // Values >= m are reduced before accumulation, so adversarial
        // values cannot overflow or escape the ring.
        let m = 10;
        assert_eq!(sum_votes_mod(&[v(0, 0, u64::MAX)], m), u64::MAX % 10);
    }

    #[test]
    fn votes_from_filters_by_voter() {
        let cert = CertData::build(
            9,
            0,
            vec![v(1, 0, 5), v(2, 0, 6), v(1, 3, 7)],
            100,
        );
        let from1: Vec<_> = cert.votes_from(1).collect();
        assert_eq!(from1.len(), 2);
        assert!(from1.iter().all(|r| r.voter == 1));
        assert_eq!(cert.votes_from(5).count(), 0);
    }

    #[test]
    fn structural_validation_catches_out_of_range() {
        let good = CertData::build(3, 0, vec![v(1, 2, 50)], 100);
        assert!(good.structurally_valid(10, 100, 5));
        // k out of range
        let mut bad = good.clone();
        bad.k = 100;
        assert!(!bad.structurally_valid(10, 100, 5));
        // voter out of range
        let bad = CertData::build(3, 0, vec![v(99, 2, 50)], 100);
        assert!(!bad.structurally_valid(10, 100, 5));
        // round out of range
        let bad = CertData::build(3, 0, vec![v(1, 9, 50)], 100);
        assert!(!bad.structurally_valid(10, 100, 5));
        // value out of range
        let bad = CertData::build(3, 0, vec![v(1, 2, 100)], 100);
        assert!(!bad.structurally_valid(10, 100, 5));
        // owner out of range
        let bad = CertData::build(33, 0, vec![], 100);
        assert!(!bad.structurally_valid(10, 100, 5));
    }

    #[test]
    fn equality_compares_payloads() {
        let a = CertData::build(1, 2, vec![v(0, 0, 3)], 10);
        let b = CertData::build(1, 2, vec![v(0, 0, 3)], 10);
        assert_eq!(a, b);
        let c = CertData::build(1, 3, vec![v(0, 0, 3)], 10);
        assert_ne!(a, c);
    }
}
