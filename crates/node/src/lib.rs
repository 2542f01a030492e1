//! `rfc-node`: protocol `P` between two real processes.
//!
//! The simulator (`rfc_core::runner`, `rfc_core::asynchronous`) plays a
//! whole network inside one process; this crate splits the same run
//! across **two** processes connected by a TCP or Unix socket. Each
//! endpoint ([`session`]) runs the simulator's own network and tick
//! loop, with the peer's agents played by stand-ins whose handlers are
//! socket turns; protocol messages cross as real `rfc_core::codec`
//! frames inside a small packet layer ([`wire`]).
//!
//! The binary (`rfc-node`) fronts this with three modes:
//!
//! ```text
//! rfc-node serve --listen unix:/tmp/rfc.sock --n 16 --seed 21
//! rfc-node join  --connect unix:/tmp/rfc.sock --n 16 --seed 21
//! rfc-node loopback --n 16 --seed 21       # both ends, one process
//! ```
//!
//! Both endpoints print `outcome=…` and `digest=0x…` lines; a session is
//! correct iff the digests match (the CI smoke asserts exactly that).

#![warn(missing_docs)]

pub mod session;
pub mod wire;

pub use session::{run_loopback, run_session, NodeParams, SessionReport, Side};
pub use wire::{encode_packet, read_packet, write_packet, Packet};
