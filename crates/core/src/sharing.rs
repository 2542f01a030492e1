//! The shared-payload pointer for protocol messages.
//!
//! Intention lists and certificates travel the wire thousands of times
//! per run; sharing one allocation per payload is what keeps Find-Min's
//! `Θ(n log n)` certificate hops O(1) each.
//!
//! The pointer is [`std::sync::Arc`]. Through PR 4 it was `Rc` — every
//! *trial* was single-threaded by construction, with parallelism only at
//! the trial level in `experiments::parallel`. The staged round engine
//! (`gossip_net::network::staged`) changed that invariant: one trial now
//! shards its plan/apply stages across worker threads, so a certificate
//! produced by an agent in one shard is cloned into agent state in
//! another shard — the refcount must be atomic. The uncontended
//! `lock inc`/`lock dec` pair this costs on the sequential path is the
//! price of the sharded engine's existence; perfbench's `mc-fair`
//! workload, which runs that uncontended `Sequential` path, tracks it.

pub use std::sync::Arc as Shared;
