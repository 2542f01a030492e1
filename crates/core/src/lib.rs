#![warn(missing_docs)]
//! # rfc-core — the Rational Fair Consensus protocol
//!
//! Implementation of protocol `P` from *Rational Fair Consensus in the
//! GOSSIP Model* (Clementi, Gualà, Proietti, Scornavacca; IPDPS 2017).
//!
//! Starting from any initial color configuration on the complete graph,
//! `P` reaches **fair consensus** — the probability that color `c` wins
//! equals the fraction of active agents initially supporting `c` — within
//! `O(log n)` rounds using messages of `O(log² n)` bits, w.h.p.; it
//! tolerates up to `αn` worst-case permanent faults (any constant
//! `α < 1`) and is a *whp t-strong equilibrium* against rational
//! coalitions of size `t = o(n / log n)`.
//!
//! ## Protocol structure (Algorithm 1)
//!
//! ```text
//! Voting-Intention  (local)  draw H_u = q pairs (h ~ U[m], z ~ U[n]), m = n³
//! Commitment        (q pull) collect others' H_v into the ledger L_u
//! Voting            (q push) send declared votes; accumulate W_u, k_u = ΣW mod m
//! Find-Min          (q pull) rumor-spread the minimum-k certificate
//! Coherence         (q push) cross-check certificates; mismatch ⇒ fail
//! Verification      (local)  recompute k, match W_min against L_u; accept color
//! ```
//!
//! The module map mirrors those phases: [`params`] (q, m, schedules),
//! [`msg`] (wire messages), [`certificate`] (`CE_u`), [`payload`] (the
//! per-network pool messages and agents name payloads in by handle),
//! [`ledger`] (`L_u`),
//! [`engine`] (the per-agent state machine), [`runner`] (whole-run
//! orchestration and the reusable [`runner::TrialArena`]), [`audit`]
//! (good-execution checks, Definition 2), [`election`] (the
//! leader-election special case) and [`asynchronous`] (the
//! sequential-GOSSIP extension from the Conclusions). Around them sits
//! the agent plane: [`agent_plane`] (the monomorphic [`AgentSlot`] enum
//! every simulation dispatches through), [`coalition`] (the deviators'
//! shared blackboard) and [`strategies`] (the deviation suite — honest
//! and deviating agents share one jump table). [`fnv`] holds the digest
//! behind every printed or pinned fingerprint.
//!
//! ## Example
//!
//! ```
//! use rfc_core::prelude::*;
//!
//! let cfg = RunConfig::builder(64).colors(vec![40, 24]).gamma(3.0).build();
//! let report = run_protocol(&cfg, 7);
//! assert!(report.outcome.is_consensus());
//! // The winning color is always a color initially supported by an
//! // active agent (validity), and over many seeds color 0 wins ≈ 40/64
//! // of the time (fairness — see experiment E4).
//! ```

pub mod agent_plane;
pub mod asynchronous;
pub mod audit;
pub mod certificate;
pub mod checkpoint;
pub mod coalition;
pub mod codec;
pub mod election;
pub mod engine;
pub mod fnv;
pub mod instances;
pub mod ledger;
pub mod msg;
pub mod outcome;
pub mod params;
pub mod payload;
pub mod runner;
pub mod strategies;

pub use agent_plane::AgentSlot;
pub use asynchronous::{run_protocol_async, run_protocol_events, DELAY_STREAM, SCHEDULER_STREAM};
pub use certificate::{CertData, VoteRec};
pub use checkpoint::{
    checkpoint_network, restore_network, resume_protocol, run_protocol_with_checkpoints,
    CheckpointError,
};
pub use coalition::{new_coalition, select_members, Coalition, CoalitionSelection};
pub use codec::{
    decode_msg, encode_msg, encode_msg_frame, encoded_msg_len, CodecError, FRAME_MAGIC,
    FRAME_VERSION,
};
pub use engine::{ConsensusAgent, HonestAgent, ProtocolCore, Role, VerifyFailure};
pub use fnv::Fnv1a;
pub use instances::{
    run_plane, InstanceKind, InstancePlan, InstanceSpec, MuxAgent, PlaneReport, Priority,
};
pub use ledger::{ConsistencyError, Declaration, Ledger};
pub use msg::{Batch, BatchPart, IntentEntry, Msg, INSTANCE_TAG_BITS};
pub use outcome::{combine_decisions, utility, Decision, Outcome};
pub use params::{Params, Phase, PhaseSchedule, ScheduleError};
pub use payload::{CertId, ListId, PayloadPool};
pub use runner::{
    build_network_in, build_network_slots, collect_report, drive_network, honest_slot_factory,
    run_protocol, ColorSpec, RunConfig, RunConfigBuilder, RunReport, SlotFactory, TopologySpec,
    TrialArena,
};
pub use strategies::{standard_attacks, Strategy};

// The dynamic-adversity vocabulary (scenario scripts, loss schedules,
// partition cuts) is defined by the network layer; re-export it so
// experiment code can build dynamic `RunConfig`s from one crate.
pub use gossip_net::dynamics::{
    FaultState, LossSchedule, PartitionCut, ScenarioEvent, ScenarioScript,
};
// The staged engine's loss-draw discipline selector lives next to the
// network's RNG plumbing; re-exported so sharded `RunConfig`s build
// from one crate.
pub use gossip_net::rng::RngDiscipline;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::agent_plane::AgentSlot;
    pub use crate::asynchronous::run_protocol_async;
    pub use crate::runner::TrialArena;
    pub use crate::audit::GoodExecutionReport;
    pub use crate::certificate::{CertData, VoteRec};
    pub use crate::election::{elect_leader, election_config, ElectionResult};
    pub use crate::engine::{ConsensusAgent, HonestAgent, ProtocolCore, Role, VerifyFailure};
    pub use crate::msg::{IntentEntry, Msg};
    pub use crate::outcome::{utility, Decision, Outcome};
    pub use crate::params::{Params, Phase};
    pub use crate::payload::{CertId, ListId, PayloadPool};
    pub use crate::runner::{run_protocol, ColorSpec, RunConfig, RunReport, TopologySpec};
    pub use gossip_net::dynamics::{LossSchedule, PartitionCut, ScenarioEvent, ScenarioScript};
    pub use gossip_net::rng::RngDiscipline;
}
