//! Coalition coordination state.
//!
//! The paper's deviating coalition `C` is a set of up to `t` agents that
//! may coordinate arbitrarily *before* the run (choose a joint strategy)
//! and share whatever they observe *during* the run. We model the latter
//! with a shared blackboard: every coalition agent holds an
//! `Arc<CoalitionCore>` and reads/writes the interior-mutable [`Intel`]
//! pool through [`CoalitionCore::intel`].
//!
//! The blackboard is `Arc<Mutex<…>>` (it was `Rc<RefCell<…>>` until the
//! staged round engine landed) so coalition agents satisfy the `Send`
//! bound the sharded engine places on every [`crate::AgentSlot`]. The
//! lock is uncontended on the adversary harness's sequential path, so
//! the swap costs an atomic pair per intel access. Note that coalition
//! intel is *order-dependent* cross-agent state: adversary trials must
//! keep running on the sequential engine (the default) — the sharded
//! engine is for honest large-`n` runs, and sharding a coalition run
//! would make the intel interleaving depend on shard scheduling.

use crate::payload::{CertId, ListId};
use gossip_net::ids::{AgentId, ColorId};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared knowledge pool sustained by coalition members during a run.
#[derive(Debug, Default)]
pub struct Intel {
    /// Vote-intention lists learned by pulling non-members during the
    /// Commitment phase: `(owner, H_owner)`.
    pub learned_intents: Vec<(AgentId, ListId)>,
    /// Sum (mod `m`) of all *known* vote values addressed to the leader:
    /// filled in by spies, consumed by vote-tuners.
    pub known_sum_for_leader: u64,
    /// Number of distinct agents whose intentions the coalition knows.
    pub coverage: usize,
    /// Set by a member that has finalized tuned intentions, so later
    /// members account for the already-planned contribution.
    pub planned_tuned_votes: u64,
    /// A certificate chosen by the coalition to promote (forged or
    /// suppressed-second-minimum), if the strategy uses one.
    pub promoted_cert: Option<CertId>,
}

/// An immutable description of the coalition plus the shared blackboard.
#[derive(Debug)]
pub struct CoalitionCore {
    /// Sorted member ids.
    pub members: Vec<AgentId>,
    /// The designated beneficiary (the member whose color the coalition
    /// pushes; by convention the lowest id).
    pub leader: AgentId,
    /// The color the coalition wants to win.
    pub color: ColorId,
    /// Shared mutable intel (access via [`CoalitionCore::intel`]).
    pub intel: Mutex<Intel>,
}

/// Shared handle to the coalition state.
pub type Coalition = Arc<CoalitionCore>;

/// Build a coalition over `members` (must be non-empty and sorted) that
/// pushes `color`.
pub fn new_coalition(mut members: Vec<AgentId>, color: ColorId) -> Coalition {
    assert!(!members.is_empty(), "a coalition needs at least one member");
    members.sort_unstable();
    members.dedup();
    let leader = members[0];
    Arc::new(CoalitionCore {
        members,
        leader,
        color,
        intel: Mutex::new(Intel::default()),
    })
}

impl CoalitionCore {
    /// Lock the shared intel pool (no poisoning: a panicked writer's
    /// partial state is taken as-is, matching the old `RefCell` behavior
    /// where a panic aborted the trial anyway).
    pub fn intel(&self) -> MutexGuard<'_, Intel> {
        self.intel.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Is `u` a member?
    pub fn contains(&self, u: AgentId) -> bool {
        self.members.binary_search(&u).is_ok()
    }

    /// Coalition size `|C|`.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// How coalition members are selected from `[n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalitionSelection {
    /// The `t` lowest ids — the adversarially interesting choice for
    /// naive min-id protocols.
    LowIds,
    /// `t` evenly spread ids.
    Spread,
    /// A seeded random `t`-subset.
    Random,
}

/// Pick `t` coalition member ids from `n` agents.
pub fn select_members(n: usize, t: usize, sel: CoalitionSelection, seed: u64) -> Vec<AgentId> {
    assert!(t >= 1 && t < n, "coalition size must be in [1, n)");
    match sel {
        CoalitionSelection::LowIds => (0..t as AgentId).collect(),
        CoalitionSelection::Spread => {
            let stride = n / t;
            (0..t).map(|i| (i * stride) as AgentId).collect()
        }
        CoalitionSelection::Random => {
            let mut rng = gossip_net::rng::DetRng::seeded(seed, 0xC0A1);
            let mut ids: Vec<AgentId> = (0..n as AgentId).collect();
            rng.shuffle(&mut ids);
            let mut chosen: Vec<AgentId> = ids[..t].to_vec();
            chosen.sort_unstable();
            chosen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalition_basics() {
        let c = new_coalition(vec![5, 2, 9, 2], 3);
        assert_eq!(c.members, vec![2, 5, 9]);
        assert_eq!(c.leader, 2);
        assert_eq!(c.color, 3);
        assert_eq!(c.size(), 3);
        assert!(c.contains(5));
        assert!(!c.contains(4));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_coalition_rejected() {
        let _ = new_coalition(vec![], 0);
    }

    #[test]
    fn intel_is_shared_between_handles() {
        let c = new_coalition(vec![0, 1], 0);
        let c2 = Arc::clone(&c);
        c.intel().known_sum_for_leader = 42;
        assert_eq!(c2.intel().known_sum_for_leader, 42);
    }

    #[test]
    fn select_low_ids() {
        assert_eq!(select_members(10, 3, CoalitionSelection::LowIds, 0), vec![0, 1, 2]);
    }

    #[test]
    fn select_spread_is_spread() {
        let m = select_members(100, 4, CoalitionSelection::Spread, 0);
        assert_eq!(m, vec![0, 25, 50, 75]);
    }

    #[test]
    fn select_random_is_seeded_and_valid() {
        let a = select_members(50, 10, CoalitionSelection::Random, 7);
        let b = select_members(50, 10, CoalitionSelection::Random, 7);
        let c = select_members(50, 10, CoalitionSelection::Random, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        assert!(a.iter().all(|&x| (x as usize) < 50));
    }

    #[test]
    #[should_panic(expected = "coalition size")]
    fn select_rejects_full_coalition() {
        let _ = select_members(5, 5, CoalitionSelection::LowIds, 0);
    }
}
