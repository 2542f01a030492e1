#![warn(missing_docs)]
//! # adversary — rational coalitions and the deviation-strategy suite
//!
//! Theorem 7 of the paper claims protocol `P` is a *whp t-strong
//! equilibrium* for any coalition of size `t = o(n/log n)`: for every
//! deviating strategy profile, at least one coalition member does not
//! improve its expected utility. This crate supplies the machinery to
//! test that claim empirically:
//!
//! * [`coalition`] — shared coalition state (the blackboard through which
//!   members coordinate during a run) and member-selection policies;
//! * [`strategies`] — ten concrete attacks covering every surface the
//!   proof's case analysis identifies (certificate forgery ×3, vote
//!   rigging, adaptive spy-and-tune, play-dead ×2, equivocation, minimum
//!   suppression, spite-abort);
//! * [`harness`] — paired honest-vs-deviating Monte-Carlo comparison with
//!   Wilson intervals on win rates and the paper's utility model.
//!
//! The coalition blackboard and the strategy suite are *defined* in
//! `rfc-core` (so the monomorphic `AgentSlot` agent plane can name every
//! strategy agent as an enum variant) and re-exported here unchanged;
//! this crate owns the measurement harness. Attack trials run on the
//! same jump-table dispatch and reusable [`rfc_core::TrialArena`]s as
//! honest runs — deviating agents are enum variants, not boxes.
//!
//! The headline measurements (experiment E7):
//!
//! * no strategy pushes the coalition's color win rate significantly
//!   above its fair share `N(A, c_C)/|A|`;
//! * forging/equivocation/suppression strategies mostly convert would-be
//!   losses into protocol failures (utility `−χ`), i.e. strictly
//!   *negative* deltas for `χ > 0`;
//! * the undetectable strategies (vote-rig, spy-tune) are measurably
//!   neutral — exactly the deferred-decision argument of Claim 2.

pub use rfc_core::coalition;
pub use rfc_core::strategies;

pub mod harness;

pub use coalition::{new_coalition, select_members, Coalition, CoalitionSelection};
pub use harness::{
    coalition_colors, run_attack_trial, run_attack_trial_in, run_equilibrium,
    run_equilibrium_with, ArmStats, AttackSpec, EquilibriumReport, COALITION_COLOR,
};
pub use strategies::{standard_attacks, Strategy};

/// Convenience re-exports for examples and the experiment harness.
pub mod prelude {
    pub use crate::coalition::{select_members, CoalitionSelection};
    pub use crate::harness::{
        run_attack_trial, run_attack_trial_in, run_equilibrium, ArmStats, AttackSpec,
        EquilibriumReport,
        COALITION_COLOR,
    };
    pub use crate::strategies::{standard_attacks, Strategy};
}
