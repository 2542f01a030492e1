#![warn(missing_docs)]
//! # gossip-net — a synchronous GOSSIP-model network simulator
//!
//! This crate implements the communication substrate assumed by
//! *Rational Fair Consensus in the GOSSIP Model* (Clementi, Gualà, Proietti,
//! Scornavacca; IPDPS 2017): a complete network of `n` agents with unique
//! labels in `[n]`, evolving in synchronous rounds. In every round each
//! agent may *actively* perform **at most one** communication operation with
//! one neighbor:
//!
//! * **push** — send one message to a chosen neighbor, or
//! * **pull** — ask a chosen neighbor a query; the neighbor may reply with
//!   one message (or stay silent).
//!
//! A node may *passively* receive arbitrarily many messages per round, so the
//! number of active links per round is `O(n)`. Channels are *secure*: during
//! a communication over edge `{u, v}` both endpoints learn the authentic
//! label of their peer (agents cannot forge sender identities), and the
//! exchanged message is private. Both properties are enforced by
//! construction here: the simulator stamps every delivery with the true
//! sender id and never exposes a message to third parties.
//!
//! ## What the simulator enforces vs. what agents control
//!
//! The *model constraints* — one active operation per round, authenticated
//! peer labels, quiescence of faulty nodes — are enforced by [`Network`]
//! and cannot be violated even by adversarial [`Agent`] implementations.
//! Everything else — which neighbor to contact, what to send, whether to
//! answer a pull — is up to the agent, which is exactly the degree of
//! freedom rational deviating agents have in the paper.
//!
//! ## Determinism
//!
//! Every run is a pure function of the master seed: agents own
//! deterministic RNG streams derived via [`rng::derive_seed`], and the
//! round loop processes operations in agent-id order. The delivery
//! semantics within a round are (in order): all `act` calls, then all pull
//! replies are *computed* (from post-`act` state), then all pushes are
//! delivered, then all pull replies are delivered. In the honest protocol
//! pushes and pulls never share a phase, so this ordering is unobservable;
//! it merely pins down a deterministic semantics for adversarial mixtures.
//!
//! ## Beyond the paper
//!
//! Two extensions requested by the paper's Conclusions are built in:
//! arbitrary [`topology::Topology`]s (Erdős–Rényi, random regular, ring,
//! …) instead of only the complete graph, and an **asynchronous
//! (sequential) GOSSIP** scheduler ([`Network::run_async`]) where a single
//! uniformly-random agent wakes per tick.
//!
//! ## Quick example
//!
//! ```
//! use gossip_net::prelude::*;
//!
//! // A toy message type: a single number, 64 bits on the wire.
//! #[derive(Clone, Debug, PartialEq)]
//! struct Num(u64);
//! impl MsgSize for Num {
//!     fn size_bits(&self, _env: &SizeEnv) -> u64 { 64 }
//! }
//!
//! // Agents that push their id to a random neighbor every round.
//! struct Pusher { id: AgentId, rng: DetRng, seen: Vec<u64> }
//! impl Agent<Num> for Pusher {
//!     fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Num>> {
//!         let to = ctx.topology.sample_peer(self.id, &mut self.rng);
//!         Some(Op::push(to, Num(self.id as u64)))
//!     }
//!     fn on_push(&mut self, _from: AgentId, msg: &Num, _ctx: &RoundCtx) {
//!         self.seen.push(msg.0);
//!     }
//! }
//!
//! let n = 16;
//! let mut net = Network::new(
//!     Topology::complete(n),
//!     SizeEnv::for_n(n),
//!     (0..n as AgentId)
//!         .map(|id| Box::new(Pusher { id, rng: DetRng::seeded(42, id as u64), seen: vec![] }) as Box<dyn Agent<Num>>)
//!         .collect(),
//!     FaultPlan::none(n),
//! );
//! net.run(10);
//! assert_eq!(net.metrics().messages_sent, 160);
//! ```

pub mod agent;
pub mod bits;
pub mod dynamics;
pub mod fault;
pub mod ids;
pub mod metrics;
pub mod network;
pub mod oplog;
mod pool;
pub mod rng;
pub mod size;
pub mod topology;

pub use agent::{Agent, Op, RoundCtx};
pub use bits::BitSet;
pub use dynamics::{FaultState, LossSchedule, PartitionCut, ScenarioEvent, ScenarioScript};
pub use fault::FaultPlan;
pub use ids::{AgentId, ColorId};
pub use metrics::Metrics;
pub use network::staged::MIN_AGENTS_PER_SHARD;
pub use network::{Network, NetworkConfig, StageTimes};
pub use oplog::{OpEvent, OpKind, OpLog};
pub use rng::RngDiscipline;
pub use size::{MsgSize, SizeEnv};
pub use topology::Topology;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::agent::{Agent, Op, RoundCtx};
    pub use crate::dynamics::{LossSchedule, PartitionCut, ScenarioEvent, ScenarioScript};
    pub use crate::fault::FaultPlan;
    pub use crate::ids::{AgentId, ColorId};
    pub use crate::network::{Network, NetworkConfig};
    pub use crate::rng::RngDiscipline;
    pub use crate::rng::DetRng;
    pub use crate::size::{MsgSize, SizeEnv};
    pub use crate::topology::Topology;
}
