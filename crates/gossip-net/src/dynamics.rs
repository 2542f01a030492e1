//! Dynamic adversity: scenario scripts that make faults, topology and
//! loss **functions of time**.
//!
//! The paper's adversary is frozen before round 0 — permanent quiescent
//! faults ([`crate::fault::FaultPlan`]) and one constant loss probability.
//! This module opens the time axis with four primitives, all replayed
//! deterministically by [`crate::Network::step`] before any delivery of
//! the round they are due:
//!
//! * **Churn** — [`ScenarioEvent::Crash`] / [`ScenarioEvent::Recover`]:
//!   agents go quiescent mid-run and may come back. A crashed agent is
//!   indistinguishable from a plan-faulty one while down (never acts,
//!   drops pushes, yields silence to pulls); on recovery it resumes with
//!   the local state it had when it crashed — everything sent to it in
//!   between is lost. Plan-permanent faults can never be recovered.
//! * **Partitions** — [`ScenarioEvent::Partition`] installs a
//!   [`PartitionCut`]: a blocked-edge *overlay* that masks every edge
//!   crossing the cut until [`ScenarioEvent::Heal`]. The overlay affects
//!   delivery only — agents still sample peers from the base topology
//!   and their RNG streams are untouched; a cross-cut send is metered
//!   (it went on the wire) but never delivered, exactly like a push to a
//!   non-edge.
//! * **Scheduled loss** — [`LossSchedule`]: a piecewise-constant drop
//!   probability over rounds (with [`LossSchedule::burst`] as the common
//!   special case), the network's [`crate::NetworkConfig::loss`]; the
//!   paper's one constant probability is [`LossSchedule::constant`].
//!
//! The mutable per-run fault flags live in [`FaultState`], layered over
//! the immutable `FaultPlan`: the plan is what the pre-round-0 adversary
//! chose, the state is what is down *now*.
//!
//! ## Determinism and the loss-draw discipline
//!
//! A run is **static** when the scenario is empty and the loss schedule
//! is constant; static runs take the historical code path bit for bit
//! (single loss stream seeded once, one draw per wire message while the
//! probability is positive). A run with events or a multi-piece schedule
//! is **dynamic**: the loss stream is re-derived *per round* from
//! `(loss_seed, round)`, so the loss pattern of round `r` depends only on
//! the messages of round `r` — changing a burst window or a partition
//! event cannot perturb the loss draws of unrelated rounds (pinned by
//! `loss_draw_isolation` tests).

use crate::bits::BitSet;
use crate::fault::FaultPlan;
use crate::ids::AgentId;
use crate::topology::Topology;

/// A piecewise-constant per-message drop probability over rounds.
///
/// Internally a sorted list of `(from_round, p)` steps: the probability
/// at round `r` is the `p` of the last step with `from_round <= r`.
/// Schedules are normalized at construction (sorted, deduplicated with
/// later entries winning, adjacent equal probabilities merged, an
/// implicit `(0, 0.0)` prefix when the first step starts late), so two
/// schedules describing the same function compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct LossSchedule {
    steps: Vec<(usize, f64)>,
}

impl LossSchedule {
    /// The constant schedule `p` for every round (panics unless
    /// `p ∈ [0, 1]`).
    pub fn constant(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0, 1]");
        LossSchedule { steps: vec![(0, p)] }
    }

    /// A schedule from explicit `(from_round, p)` pieces.
    pub fn piecewise(steps: Vec<(usize, f64)>) -> Self {
        for &(_, p) in &steps {
            assert!((0.0..=1.0).contains(&p), "loss probability must be in [0, 1]");
        }
        let mut steps = steps;
        steps.sort_by_key(|&(r, _)| r);
        let mut norm: Vec<(usize, f64)> = Vec::with_capacity(steps.len() + 1);
        for (r, p) in steps {
            match norm.last_mut() {
                Some(last) if last.0 == r => last.1 = p, // later entry wins
                _ => norm.push((r, p)),
            }
        }
        if norm.first().map(|&(r, _)| r != 0).unwrap_or(true) {
            norm.insert(0, (0, 0.0));
        }
        // Merge adjacent equal probabilities so e.g. a zero-length burst
        // normalizes back to a constant schedule.
        norm.dedup_by(|next, prev| prev.1 == next.1);
        LossSchedule { steps: norm }
    }

    /// `base` everywhere except a burst window `[from, until)` at
    /// `burst_p` (an empty window normalizes to `constant(base)`).
    pub fn burst(base: f64, burst_p: f64, from: usize, until: usize) -> Self {
        assert!(from <= until, "burst window must not be inverted");
        Self::piecewise(vec![(0, base), (from, burst_p), (until, base)])
    }

    /// The drop probability in force at `round`.
    #[inline]
    pub fn p_at(&self, round: usize) -> f64 {
        let idx = self.steps.partition_point(|&(r, _)| r <= round);
        self.steps[idx - 1].1
    }

    /// The largest probability anywhere in the schedule (0 ⇒ the run can
    /// never drop a message and needs no loss RNG).
    pub fn max_p(&self) -> f64 {
        self.steps.iter().fold(0.0f64, |m, &(_, p)| m.max(p))
    }

    /// True when the schedule is a single piece — the static case, whose
    /// single loss stream keeps every historical digest.
    pub fn is_constant(&self) -> bool {
        self.steps.len() == 1
    }

    /// The normalized steps (inspection/tests).
    pub fn steps(&self) -> &[(usize, f64)] {
        &self.steps
    }
}

/// A partition of the agent set into sides; edges between different
/// sides are blocked while the cut is installed.
///
/// The cut is an overlay over the base [`Topology`]: it masks delivery
/// but does not change what agents see (they keep sampling peers from
/// the base graph). Self-delivery (`u == v`, legal on the complete
/// graph) is never blocked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionCut {
    sides: Vec<u8>,
}

impl PartitionCut {
    /// Two-sided cut: ids `0..k` on side 0, the rest on side 1.
    pub fn split_at(n: usize, k: usize) -> Self {
        assert!(k <= n, "split point beyond the agent range");
        PartitionCut {
            sides: (0..n).map(|u| (u >= k) as u8).collect(),
        }
    }

    /// Arbitrary cut from an explicit per-agent side assignment.
    pub fn from_sides(sides: Vec<u8>) -> Self {
        PartitionCut { sides }
    }

    /// Number of agents the cut covers.
    pub fn n(&self) -> usize {
        self.sides.len()
    }

    /// The full per-agent side assignment (checkpoint support — the
    /// inverse of [`PartitionCut::from_sides`]).
    pub fn sides(&self) -> &[u8] {
        &self.sides
    }

    /// Does the overlay block the edge `{u, v}`?
    #[inline]
    pub fn blocks(&self, u: AgentId, v: AgentId) -> bool {
        u != v && self.sides[u as usize] != self.sides[v as usize]
    }

    /// Materialize the masked topology (base minus blocked edges) as an
    /// explicit sparse graph — an inspection/testing helper; the engine
    /// applies the overlay per delivery and never builds this.
    pub fn mask(&self, base: &Topology) -> Topology {
        let n = base.n();
        assert_eq!(n, self.sides.len(), "cut size must match topology size");
        let adj: Vec<Vec<AgentId>> = (0..n as AgentId)
            .map(|u| match base {
                Topology::Complete { .. } => (0..n as AgentId)
                    .filter(|&v| v != u && !self.blocks(u, v))
                    .collect(),
                Topology::Sparse(csr) => csr
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| !self.blocks(u, v))
                    .collect(),
            })
            .collect();
        Topology::Sparse(crate::topology::Csr::from_adjacency(&adj))
    }
}

/// One timed adversity event. Events fire at the *start* of their round,
/// before any `act` call of that round.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// The agents in `set` crash (go quiescent) at `round`.
    Crash {
        /// Round the crash takes effect.
        round: usize,
        /// Agents going down (already-down agents are unaffected).
        set: Vec<AgentId>,
    },
    /// The agents in `set` recover at `round` (plan-permanent faults
    /// stay down; see [`FaultState::recover`]).
    Recover {
        /// Round the recovery takes effect.
        round: usize,
        /// Agents coming back.
        set: Vec<AgentId>,
    },
    /// Install a [`PartitionCut`] at `round`, replacing any current cut.
    Partition {
        /// Round the cut is installed.
        round: usize,
        /// The cut.
        cut: PartitionCut,
    },
    /// Remove the current cut (no-op when none is installed).
    Heal {
        /// Round the network heals.
        round: usize,
    },
}

impl ScenarioEvent {
    /// The round this event fires at.
    pub fn round(&self) -> usize {
        match self {
            ScenarioEvent::Crash { round, .. }
            | ScenarioEvent::Recover { round, .. }
            | ScenarioEvent::Partition { round, .. }
            | ScenarioEvent::Heal { round } => *round,
        }
    }
}

/// A deterministic timeline of adversity events.
///
/// Events are kept sorted by round; events sharing a round apply in the
/// order they were added (so `recover(r, s)` followed by `crash(r, s)`
/// leaves `s` down in round `r` — pinned by the event-ordering tests).
/// An empty script is the static case and costs nothing per round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioScript {
    events: Vec<ScenarioEvent>,
}

impl ScenarioScript {
    /// The empty script (static adversity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event, keeping the timeline sorted by round (stable:
    /// same-round events keep insertion order).
    pub fn event(mut self, ev: ScenarioEvent) -> Self {
        let pos = self.events.partition_point(|e| e.round() <= ev.round());
        self.events.insert(pos, ev);
        self
    }

    /// Crash `set` at `round`.
    pub fn crash(self, round: usize, set: Vec<AgentId>) -> Self {
        self.event(ScenarioEvent::Crash { round, set })
    }

    /// Recover `set` at `round`.
    pub fn recover(self, round: usize, set: Vec<AgentId>) -> Self {
        self.event(ScenarioEvent::Recover { round, set })
    }

    /// Install `cut` at `round`.
    pub fn partition(self, round: usize, cut: PartitionCut) -> Self {
        self.event(ScenarioEvent::Partition { round, cut })
    }

    /// Heal any partition at `round`.
    pub fn heal(self, round: usize) -> Self {
        self.event(ScenarioEvent::Heal { round })
    }

    /// True when no events are scheduled (the static case).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, sorted by round.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// Panic unless every referenced agent id / cut size fits a network
    /// of `n` agents (called by the network constructors).
    pub fn validate(&self, n: usize) {
        for ev in &self.events {
            match ev {
                ScenarioEvent::Crash { set, .. } | ScenarioEvent::Recover { set, .. } => {
                    for &u in set {
                        assert!(
                            (u as usize) < n,
                            "scenario references agent {u} outside 0..{n}"
                        );
                    }
                }
                ScenarioEvent::Partition { cut, .. } => {
                    assert_eq!(
                        cut.n(),
                        n,
                        "partition cut must assign a side to every agent"
                    );
                }
                ScenarioEvent::Heal { .. } => {}
            }
        }
    }
}

/// The **mutable** fault flags of a live run, layered over the immutable
/// pre-round-0 [`FaultPlan`].
///
/// `is_down(u)` is what the engine consults everywhere it used to ask
/// `plan.is_faulty(u)`: plan faults are down forever; scripted crashes
/// toggle on [`ScenarioEvent::Crash`] and off on
/// [`ScenarioEvent::Recover`]. Recovering a plan-permanent fault is a
/// no-op — the paper's adversary committed to it before round 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultState {
    permanent: BitSet,
    down: BitSet,
    n_down: usize,
}

impl FaultState {
    /// Initial state: exactly the plan's faults are down.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        FaultState {
            permanent: plan.flags().clone(),
            down: plan.flags().clone(),
            n_down: plan.n_faulty(),
        }
    }

    /// Re-arm **in place** from a fresh plan, reusing both flag buffers
    /// (the arena-reset primitive; a reset state is `==` to
    /// [`FaultState::from_plan`] of the same plan).
    pub fn reset_from(&mut self, plan: &FaultPlan) {
        self.permanent.clone_from(plan.flags());
        self.down.clone_from(plan.flags());
        self.n_down = plan.n_faulty();
    }

    /// Rebuild a mid-run state from the plan plus the live `down` flags
    /// captured by a checkpoint (checkpoint support). The permanent
    /// layer always comes from the plan — it is immutable, so it is
    /// derived, never serialized. `None` unless `down` has one flag per
    /// agent and every plan fault is still down in it (plan faults never
    /// recover).
    pub fn restore(plan: &FaultPlan, down: Vec<bool>) -> Option<Self> {
        if down.len() != plan.n() || !plan.flags().ones().all(|i| down[i]) {
            return None;
        }
        let n_down = down.iter().filter(|&&d| d).count();
        Some(FaultState {
            permanent: plan.flags().clone(),
            down: BitSet::from_bools(&down),
            n_down,
        })
    }

    /// The live per-agent down flags as booleans (checkpoint support —
    /// the mutable half of the state, the inverse of
    /// [`FaultState::restore`]; the permanent half is the plan's).
    pub fn down_vec(&self) -> Vec<bool> {
        self.down.to_bools()
    }

    /// Is agent `u` down (plan-faulty or currently crashed)?
    #[inline]
    pub fn is_down(&self, u: AgentId) -> bool {
        self.down.get(u as usize)
    }

    /// Total number of agents.
    #[inline]
    pub fn n(&self) -> usize {
        self.down.len()
    }

    /// Number of agents currently down.
    #[inline]
    pub fn n_down(&self) -> usize {
        self.n_down
    }

    /// Number of agents currently active.
    #[inline]
    pub fn n_active(&self) -> usize {
        self.down.len() - self.n_down
    }

    /// Crash every agent in `set` (already-down agents are unaffected).
    pub fn crash(&mut self, set: &[AgentId]) {
        for &u in set {
            let u = u as usize;
            if !self.down.get(u) {
                self.down.set(u);
                self.n_down += 1;
            }
        }
    }

    /// Recover every agent in `set`; plan-permanent faults stay down.
    pub fn recover(&mut self, set: &[AgentId]) {
        for &u in set {
            let u = u as usize;
            if self.down.get(u) && !self.permanent.get(u) {
                self.down.clear_bit(u);
                self.n_down -= 1;
            }
        }
    }

    /// Iterator over the currently active agent ids.
    pub fn active_ids(&self) -> impl Iterator<Item = AgentId> + '_ {
        (0..self.down.len()).filter(|&i| !self.down.get(i)).map(|i| i as AgentId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Placement;

    #[test]
    fn constant_schedule_is_one_piece() {
        let s = LossSchedule::constant(0.3);
        assert!(s.is_constant());
        assert_eq!(s.p_at(0), 0.3);
        assert_eq!(s.p_at(1_000_000), 0.3);
        assert_eq!(s.max_p(), 0.3);
    }

    #[test]
    fn piecewise_lookup_and_normalization() {
        let s = LossSchedule::piecewise(vec![(10, 0.5), (0, 0.1), (20, 0.1)]);
        assert_eq!(s.p_at(0), 0.1);
        assert_eq!(s.p_at(9), 0.1);
        assert_eq!(s.p_at(10), 0.5);
        assert_eq!(s.p_at(19), 0.5);
        assert_eq!(s.p_at(20), 0.1);
        assert!(!s.is_constant());
        assert_eq!(s.max_p(), 0.5);
    }

    #[test]
    fn late_start_gets_zero_prefix_and_same_round_later_wins() {
        let s = LossSchedule::piecewise(vec![(5, 0.4)]);
        assert_eq!(s.p_at(0), 0.0);
        assert_eq!(s.p_at(5), 0.4);
        let s = LossSchedule::piecewise(vec![(0, 0.1), (0, 0.2)]);
        assert!(s.is_constant());
        assert_eq!(s.p_at(0), 0.2);
    }

    #[test]
    fn empty_burst_normalizes_to_constant() {
        let s = LossSchedule::burst(0.2, 0.9, 7, 7);
        assert!(s.is_constant());
        assert_eq!(s.p_at(100), 0.2);
        let b = LossSchedule::burst(0.2, 0.9, 7, 9);
        assert!(!b.is_constant());
        assert_eq!(b.p_at(8), 0.9);
        assert_eq!(b.p_at(9), 0.2);
    }

    #[test]
    fn overlapping_bursts_compose_later_wins() {
        // Two bursts spelled as one piecewise script: [10, 20) at 0.9
        // and [15, 25) at 0.8. In the overlap the later-round step wins
        // (piecewise semantics), and the tail returns to base.
        let s = LossSchedule::piecewise(vec![
            (0, 0.05),
            (10, 0.9),
            (20, 0.05), // end of burst one…
            (15, 0.8),  // …but burst two re-raises inside it
            (25, 0.05),
        ]);
        assert_eq!(s.p_at(9), 0.05);
        assert_eq!(s.p_at(10), 0.9);
        assert_eq!(s.p_at(14), 0.9);
        assert_eq!(s.p_at(15), 0.8);
        assert_eq!(s.p_at(20), 0.05);
        assert_eq!(s.p_at(24), 0.05);
        assert_eq!(s.p_at(25), 0.05);
        assert_eq!(s.max_p(), 0.9);
        // Same-round duplicate steps from two bursts: the later list
        // entry wins and the schedule stays normalized (no dup rounds).
        let dup = LossSchedule::piecewise(vec![(0, 0.1), (8, 0.9), (8, 0.7)]);
        assert_eq!(dup.p_at(8), 0.7);
        assert!(dup.steps().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn adjacent_equal_steps_merge_to_one_piece() {
        // A burst whose raised level equals base disappears entirely —
        // the normalized form is constant, so `max_p` (which gates the
        // loss-RNG's existence, and with it the checkpoint's RNG slot)
        // cannot be inflated by a no-op burst.
        let s = LossSchedule::burst(0.3, 0.3, 5, 9);
        assert!(s.is_constant());
        assert_eq!(s.steps().len(), 1);
        assert_eq!(s.max_p(), 0.3);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn schedule_rejects_bad_probability() {
        let _ = LossSchedule::piecewise(vec![(0, 1.5)]);
    }

    #[test]
    fn split_cut_blocks_only_cross_edges() {
        let cut = PartitionCut::split_at(6, 3);
        assert!(!cut.blocks(0, 2));
        assert!(!cut.blocks(4, 5));
        assert!(cut.blocks(0, 3));
        assert!(cut.blocks(5, 2));
        assert!(!cut.blocks(4, 4), "self-delivery is never blocked");
    }

    #[test]
    fn mask_of_complete_graph_is_two_cliques() {
        let cut = PartitionCut::split_at(6, 2);
        let masked = cut.mask(&Topology::complete(6));
        assert!(masked.connected(0, 1));
        assert!(masked.connected(3, 5));
        assert!(!masked.connected(1, 2));
        assert_eq!(masked.degree(0), 1);
        assert_eq!(masked.degree(3), 3);
    }

    #[test]
    fn script_sorts_by_round_stably() {
        let cut = PartitionCut::split_at(4, 2);
        let s = ScenarioScript::new()
            .heal(9)
            .crash(3, vec![1])
            .partition(3, cut)
            .recover(3, vec![1]);
        let rounds: Vec<usize> = s.events().iter().map(|e| e.round()).collect();
        assert_eq!(rounds, vec![3, 3, 3, 9]);
        // Insertion order preserved within round 3.
        assert!(matches!(s.events()[0], ScenarioEvent::Crash { .. }));
        assert!(matches!(s.events()[1], ScenarioEvent::Partition { .. }));
        assert!(matches!(s.events()[2], ScenarioEvent::Recover { .. }));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn validate_rejects_out_of_range_ids() {
        ScenarioScript::new().crash(0, vec![9]).validate(4);
    }

    #[test]
    fn fault_state_layers_over_plan() {
        let plan = FaultPlan::place(6, 2, Placement::LowIds); // 0, 1 faulty
        let mut st = FaultState::from_plan(&plan);
        assert_eq!(st.n_down(), 2);
        st.crash(&[3, 4]);
        assert_eq!(st.n_down(), 4);
        assert!(st.is_down(3));
        st.recover(&[0, 3]); // 0 is plan-permanent: stays down
        assert!(st.is_down(0), "plan faults can never recover");
        assert!(!st.is_down(3));
        assert_eq!(st.n_down(), 3);
        assert_eq!(st.n_active(), 3);
        assert_eq!(st.active_ids().collect::<Vec<_>>(), vec![2, 3, 5]);
    }

    #[test]
    fn crash_and_recover_are_idempotent() {
        let plan = FaultPlan::none(4);
        let mut st = FaultState::from_plan(&plan);
        st.crash(&[2, 2]);
        assert_eq!(st.n_down(), 1);
        st.recover(&[2, 2, 1]);
        assert_eq!(st.n_down(), 0);
    }

    #[test]
    fn reset_from_matches_fresh() {
        let a = FaultPlan::place(5, 1, Placement::HighIds);
        let b = FaultPlan::none(7);
        let mut st = FaultState::from_plan(&a);
        st.crash(&[0, 1]);
        st.reset_from(&b);
        assert_eq!(st, FaultState::from_plan(&b));
    }
}
