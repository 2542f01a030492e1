#![warn(missing_docs)]
//! # rational-fair-consensus
//!
//! Umbrella crate for the reproduction of *Rational Fair Consensus in the
//! GOSSIP Model* (Clementi, Gualà, Proietti, Scornavacca; IPDPS 2017).
//!
//! This crate re-exports the whole workspace so examples and downstream
//! users need a single dependency:
//!
//! * [`gossip_net`] — the synchronous GOSSIP network simulator (push/pull
//!   rounds, topologies, permanent faults, message metering).
//! * [`rfc_core`] — protocol `P`: Voting-Intention, Commitment, Voting,
//!   Find-Min, Coherence, Verification; plus good-execution auditing and
//!   the async-GOSSIP extension.
//! * [`adversary`] — rational coalitions and the deviation-strategy suite
//!   used to test the whp t-strong equilibrium claim.
//! * [`baselines`] — LOCAL-model all-to-all fair election, naive gossip
//!   min-id election, push/pull rumor spreading, 3-majority dynamics.
//! * [`rfc_stats`] — χ², total-variation distance, Wilson intervals,
//!   log-fits.
//! * [`experiments`] — the parallel Monte-Carlo harness regenerating every
//!   experiment in its index (E1–E17).
//!
//! ## Quickstart
//!
//! ```
//! use rational_fair_consensus::prelude::*;
//!
//! // 64 agents, 3 colors split 32/16/16, no faults, honest everyone.
//! let cfg = RunConfig::builder(64)
//!     .colors(vec![32, 16, 16])
//!     .gamma(3.0)
//!     .build();
//! let report = run_protocol(&cfg, 0xC0FFEE);
//! match report.outcome {
//!     Outcome::Consensus(c) => println!("winning color: {c}"),
//!     Outcome::Fail => println!("protocol failed"),
//! }
//! ```

pub use adversary;
pub use baselines;
pub use experiments;
pub use gossip_net;
pub use rfc_core;
pub use rfc_stats;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use gossip_net::prelude::*;
    pub use rfc_core::prelude::*;
}
