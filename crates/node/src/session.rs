//! The lockstep session: two processes, one sequential-GOSSIP run.
//!
//! Each endpoint builds the network [`rfc_core::run_protocol_async`]
//! builds — through [`build_network_in`], from the same [`RunConfig`]
//! and seed, into a payload pool the endpoint keeps — and drives it
//! on the simulator's phase clock ([`drive_phases`]), one tick of the
//! engine's own tick loop
//! ([`gossip_net::network::Network::run_async`]) per unit, on the
//! shared scheduler stream ([`SCHEDULER_STREAM`]). Both endpoints
//! therefore agree tick by tick on **which agent wakes** without
//! exchanging a byte. The clock's hook checks the link after every
//! tick, so a failed socket turn ends the session at its tick.
//!
//! The serve side hosts agents `[0, n/2)`, the join side `[n/2, n)`. A
//! hosted agent is an ordinary [`AgentSlot`]; an agent the peer hosts is
//! a stand-in whose handlers are socket turns:
//!
//! | stand-in handler | socket turn |
//! |---|---|
//! | `act` | read the peer's tick packet; its push or query is the op |
//! | `on_push` | write [`Packet::TickPush`] |
//! | `on_pull` | write [`Packet::TickQuery`], block for [`Packet::Reply`] |
//! | `on_reply` | write [`Packet::Reply`] |
//!
//! The owner of a tick always sends exactly one tick packet —
//! [`Packet::TickNothing`] when the operation stayed local — so the peer
//! never guesses. Only cross-process traffic goes on the socket: each
//! message's payload is encoded from the endpoint's pool and interned
//! into the receiving endpoint's, so each pool holds one entry per
//! distinct payload however often it crosses.
//!
//! After the last phase both sides exchange [`Packet::Summary`] and
//! independently combine the full decision vector — same outcome, same
//! digest, or the session (and the CI smoke) fails. The crate's
//! `tests/loopback_corpus.rs` pins sessions to `run_protocol_async`: same
//! decisions, and each endpoint's written bytes.

use crate::wire::{codec_err, read_msg_frame, read_packet, write_packet, Packet};
use gossip_net::agent::{Agent, Op, RoundCtx};
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::rng::DetRng;
use gossip_net::topology::Topology;
use rfc_core::agent_plane::AgentSlot;
use rfc_core::asynchronous::SCHEDULER_STREAM;
use rfc_core::codec::FRAME_VERSION;
use rfc_core::engine::{ConsensusAgent, ProtocolCore};
use rfc_core::fnv::Fnv1a;
use rfc_core::msg::Msg;
use rfc_core::outcome::{combine_decisions, Decision, Outcome};
use rfc_core::params::Params;
use rfc_core::payload::PayloadPool;
use rfc_core::runner::{build_network_in, drive_phases, run_windows, RunConfig};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which half of the id space this endpoint hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Agents `[0, n/2)` — the `serve` endpoint.
    Low,
    /// Agents `[n/2, n)` — the `join` endpoint.
    High,
}

impl Side {
    fn byte(self) -> u8 {
        match self {
            Side::Low => 0,
            Side::High => 1,
        }
    }

    /// The agent ids this side hosts in an `n`-agent session.
    fn hosted(self, n: usize) -> Range<usize> {
        match self {
            Side::Low => 0..n / 2,
            Side::High => n / 2..n,
        }
    }
}

/// Session parameters both endpoints must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Number of agents across both endpoints.
    pub n: usize,
    /// The protocol's `γ` (`q = ceil(γ·log₂ n)`).
    pub gamma: f64,
    /// Master seed: world derivation and the shared wake schedule.
    pub seed: u64,
    /// Async tick-budget multiplier (`slack·n·q` ticks per phase).
    pub slack: usize,
}

impl NodeParams {
    /// Session fingerprint: both ends must derive the same value or the
    /// handshake fails (they would silently disagree on every tick).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::standard();
        h.write_u64(self.n as u64);
        h.write_u64(self.gamma.to_bits());
        h.write_u64(self.seed);
        h.write_u64(self.slack as u64);
        h.write_u64(FRAME_VERSION as u64);
        h.finish()
    }
}

/// What one endpoint observed over a finished session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The combined outcome over **all** `n` agents.
    pub outcome: Outcome,
    /// FNV-1a digest of the full decision vector — both endpoints must
    /// report the same value.
    pub digest: u64,
    /// Ticks executed (`4·slack·n·q`).
    pub ticks: u64,
    /// Protocol messages this endpoint put on the socket (pushes,
    /// queries, produced replies — the metering contract's send events).
    pub msgs_sent: u64,
    /// Total packet bytes this endpoint wrote.
    pub bytes_sent: u64,
    /// The full per-agent decision vector.
    pub decisions: Vec<Decision>,
    /// Intention lists this endpoint's payload pool held at the end: its
    /// hosted agents' own plus each distinct list decoded from the peer.
    pub pool_lists: usize,
    /// Certificates this endpoint's payload pool held at the end.
    pub pool_certs: usize,
}

fn proto_err(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn input_err(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, what.into())
}

/// The socket and this endpoint's account of it, shared by every slot.
struct Link<S> {
    sock: S,
    /// The endpoint network's payload pool: outgoing payloads are read
    /// from it, incoming ones interned into it.
    pool: Arc<PayloadPool>,
    /// The agent ids this endpoint hosts.
    hosted: Range<usize>,
    /// Protocol messages sent by hosted agents (see
    /// [`SessionReport::msgs_sent`]).
    msgs_sent: u64,
    bytes_sent: u64,
    /// The first I/O or protocol error. Once set, the link is silent.
    error: Option<io::Error>,
}

impl<S: Read + Write> Link<S> {
    fn hosts(&self, id: AgentId) -> bool {
        self.hosted.contains(&(id as usize))
    }

    fn write(&mut self, pkt: &Packet) -> io::Result<()> {
        self.bytes_sent += write_packet(&mut self.sock, pkt)? as u64;
        Ok(())
    }

    /// Run one socket turn unless the link already failed, keeping the
    /// first error; `None` when the turn did not happen or failed.
    fn turn<T>(&mut self, io: impl FnOnce(&mut Self) -> io::Result<T>) -> Option<T> {
        if self.error.is_some() {
            return None;
        }
        match io(self) {
            Ok(v) => Some(v),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    /// Read the peer's tick packet as the woken stand-in's op. Its
    /// target must be an agent hosted here: the engine indexes its agent
    /// vector with it.
    fn read_tick(&mut self) -> io::Result<Option<Op<Msg>>> {
        let op = match read_packet(&mut self.sock)? {
            Packet::TickNothing => None,
            Packet::TickPush { to, frame } => Some(Op::Push {
                to,
                msg: self.decode(&frame)?,
            }),
            Packet::TickQuery { to, frame } => Some(Op::Pull {
                from: to,
                query: self.decode(&frame)?,
            }),
            other => return Err(proto_err(format!("unexpected tick packet {other:?}"))),
        };
        match op {
            Some(op) if !self.hosts(op.peer()) => {
                Err(proto_err(format!("agent {} is not hosted here", op.peer())))
            }
            op => Ok(op),
        }
    }
}

impl<S> Link<S> {
    /// A packet's message, its payload interned into the pool.
    fn decode(&self, frame: &[u8]) -> io::Result<Msg> {
        read_msg_frame(frame, &self.pool).map_err(codec_err)
    }
}

/// Every update leaves a [`Link`] valid, so a poisoned lock is still
/// usable.
fn lock<S>(link: &Mutex<Link<S>>) -> MutexGuard<'_, Link<S>> {
    link.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One agent of an endpoint's network: an agent this endpoint runs, or
/// a stand-in for the peer's agent `id` whose handlers are socket turns
/// (see the module docs).
struct NodeSlot<'l, S> {
    id: AgentId,
    /// `Some` iff this endpoint hosts `id`.
    hosted: Option<AgentSlot>,
    link: &'l Mutex<Link<S>>,
}

impl<S: Read + Write> Agent<Msg> for NodeSlot<'_, S> {
    fn act(&mut self, ctx: &RoundCtx) -> Option<Op<Msg>> {
        let Some(agent) = &mut self.hosted else {
            return lock(self.link).turn(Link::read_tick).flatten();
        };
        let op = agent.act(ctx);
        let mut link = lock(self.link);
        link.msgs_sent += op.is_some() as u64;
        // An op to the peer's agent goes out as its own packet (the
        // stand-in's handler); anything else is local.
        if op.as_ref().is_none_or(|op| link.hosts(op.peer())) {
            link.turn(|l| l.write(&Packet::TickNothing));
        }
        op
    }

    fn on_push(&mut self, from: AgentId, msg: &Msg, ctx: &RoundCtx) {
        match &mut self.hosted {
            Some(agent) => agent.on_push(from, msg, ctx),
            None => {
                lock(self.link).turn(|l| l.write(&Packet::push(self.id, msg, &l.pool)));
            }
        }
    }

    fn on_pull(&mut self, from: AgentId, query: &Msg, ctx: &RoundCtx) -> Option<Msg> {
        if let Some(agent) = &mut self.hosted {
            let reply = agent.on_pull(from, query, ctx);
            lock(self.link).msgs_sent += reply.is_some() as u64;
            return reply;
        }
        lock(self.link)
            .turn(|l| {
                l.write(&Packet::query(self.id, query, &l.pool))?;
                match read_packet(&mut l.sock)? {
                    Packet::Reply { reply } => reply.map(|frame| l.decode(&frame)).transpose(),
                    other => Err(proto_err(format!("expected Reply to query, got {other:?}"))),
                }
            })
            .flatten()
    }

    fn on_reply(&mut self, from: AgentId, reply: Option<Msg>, ctx: &RoundCtx) {
        match &mut self.hosted {
            Some(agent) => agent.on_reply(from, reply, ctx),
            None => {
                lock(self.link).turn(|l| l.write(&Packet::reply(reply.as_ref(), &l.pool)));
            }
        }
    }

    fn finalize(&mut self, ctx: &RoundCtx) {
        if let Some(agent) = &mut self.hosted {
            agent.finalize(ctx);
        }
    }
}

/// Write our packet and read the peer's, Low first: a fixed order keeps
/// the socket strictly half-duplex, so lockstep reads never deadlock.
fn exchange<S: Read + Write>(link: &mut Link<S>, side: Side, ours: &Packet) -> io::Result<Packet> {
    match side {
        Side::Low => {
            link.write(ours)?;
            read_packet(&mut link.sock)
        }
        Side::High => {
            let theirs = read_packet(&mut link.sock)?;
            link.write(ours)?;
            Ok(theirs)
        }
    }
}

/// Run one full lockstep session over `sock`. Returns this endpoint's
/// report; the peer's must match (`outcome`, `digest`).
pub fn run_session<S: Read + Write + Send>(
    sock: S,
    side: Side,
    np: &NodeParams,
) -> io::Result<SessionReport> {
    if np.n < 4 {
        return Err(input_err("need n >= 4 (two agents per endpoint)"));
    }
    if np.slack == 0 {
        return Err(input_err("need slack >= 1"));
    }
    if np.gamma.is_nan() || np.gamma <= 0.0 {
        return Err(input_err(format!("need gamma > 0, got {}", np.gamma)));
    }
    let cfg = RunConfig::builder(np.n)
        .gamma(np.gamma)
        .colors(vec![np.n - np.n / 2, np.n / 2])
        .build();
    let schedule = cfg
        .params()
        .try_async_schedule(np.slack)
        .map_err(|e| input_err(e.to_string()))?;

    // The network `run_protocol_async` builds, with the peer's agents
    // played by stand-ins.
    let hosted = side.hosted(np.n);
    let pool = PayloadPool::for_network(cfg.params());
    let link = Mutex::new(Link {
        sock,
        pool: Arc::clone(&pool),
        hosted: hosted.clone(),
        msgs_sent: 0,
        bytes_sent: 0,
        error: None,
    });
    let mut factory =
        |id: AgentId, params: Params, color: ColorId, rng: DetRng, topo: &Topology| NodeSlot {
            id,
            hosted: hosted.contains(&(id as usize)).then(|| {
                AgentSlot::honest(ProtocolCore::new_on(topo, id, params, schedule, color, rng))
            }),
            link: &link,
        };
    let mut net = build_network_in(&cfg, np.seed, &pool, &mut factory);

    let hello = Packet::Hello {
        fingerprint: np.fingerprint(),
        side: side.byte(),
    };
    match exchange(&mut lock(&link), side, &hello)? {
        Packet::Hello { fingerprint, side: s } => {
            if fingerprint != np.fingerprint() {
                return Err(proto_err(
                    "peer derives a different session fingerprint (n/gamma/seed/slack mismatch?)",
                ));
            }
            if s == side.byte() {
                return Err(proto_err("both endpoints claim the same half"));
            }
        }
        other => return Err(proto_err(format!("expected Hello, got {other:?}"))),
    }

    // `run_protocol_async`'s phase clock: a dead link ends the session
    // at the tick where it failed.
    let mut scheduler = DetRng::seeded(np.seed, SCHEDULER_STREAM);
    drive_phases(
        &mut net,
        run_windows(&cfg, schedule),
        |net| net.run_async(1, &mut scheduler),
        |_| lock(&link).error.take().map_or(Ok(()), Err),
    )?;
    let ticks = net.round() as u64;
    let local: Vec<(AgentId, Option<ColorId>)> = net
        .agents()
        .iter()
        .filter_map(|slot| Some((slot.id, slot.hosted.as_ref()?.core().decision())))
        .collect();
    let mut link = lock(&link);

    let summary = Packet::Summary {
        decisions: local.clone(),
    };
    let remote = match exchange(&mut link, side, &summary)? {
        Packet::Summary { decisions } => decisions,
        other => return Err(proto_err(format!("expected Summary, got {other:?}"))),
    };

    // Assemble the full decision vector in id order.
    let mut merged: Vec<Option<Option<ColorId>>> = vec![None; np.n];
    for (id, d) in local.iter().chain(remote.iter()) {
        let slot = merged
            .get_mut(*id as usize)
            .ok_or_else(|| proto_err("summary id out of range"))?;
        if slot.replace(*d).is_some() {
            return Err(proto_err(format!("agent {id} reported twice")));
        }
    }
    let decisions: Vec<Decision> = merged
        .into_iter()
        .enumerate()
        .map(|(id, d)| {
            d.map(|opt| match opt {
                Some(c) => Decision::Decided(c),
                None => Decision::Failed,
            })
            .ok_or_else(|| proto_err(format!("agent {id} missing from summaries")))
        })
        .collect::<io::Result<_>>()?;

    let outcome = combine_decisions(&decisions);
    let mut h = Fnv1a::standard();
    for (id, d) in decisions.iter().enumerate() {
        h.write_u64(id as u64);
        match d {
            Decision::Faulty => h.write_u64(0),
            Decision::Failed => h.write_u64(1),
            Decision::Decided(c) => {
                h.write_u64(2);
                h.write_u64(*c as u64);
            }
        }
    }
    Ok(SessionReport {
        outcome,
        digest: h.finish(),
        ticks,
        msgs_sent: link.msgs_sent,
        bytes_sent: link.bytes_sent,
        decisions,
        pool_lists: pool.list_count(),
        pool_certs: pool.cert_count(),
    })
}

/// Run both endpoints of a session inside one process over a Unix
/// socketpair — the CI-friendly smoke that needs no filesystem path or
/// port. Returns `(low report, high report)`.
pub fn run_loopback(np: &NodeParams) -> io::Result<(SessionReport, SessionReport)> {
    let (a, b) = std::os::unix::net::UnixStream::pair()?;
    let np_high = *np;
    let high = std::thread::spawn(move || run_session(b, Side::High, &np_high));
    let low = run_session(a, Side::Low, np)?;
    let high = high
        .join()
        .map_err(|_| proto_err("high endpoint thread panicked"))??;
    Ok((low, high))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_session_reaches_matching_consensus() {
        let np = NodeParams {
            n: 16,
            gamma: 3.0,
            seed: 21,
            slack: 3,
        };
        let (low, high) = run_loopback(&np).expect("session");
        assert!(
            low.outcome.is_consensus(),
            "loopback session should converge: {:?}",
            low.outcome
        );
        assert_eq!(low.outcome, high.outcome);
        assert_eq!(low.digest, high.digest, "endpoints must agree bit-for-bit");
        assert_eq!(low.decisions, high.decisions);
        assert_eq!(low.ticks, high.ticks);
        assert!(low.bytes_sent > 0 && high.bytes_sent > 0, "real bytes moved");
    }

    #[test]
    fn loopback_is_deterministic_across_runs() {
        let np = NodeParams {
            n: 12,
            gamma: 3.0,
            seed: 7,
            slack: 3,
        };
        let (a1, b1) = run_loopback(&np).unwrap();
        let (a2, b2) = run_loopback(&np).unwrap();
        assert_eq!(a1.digest, a2.digest);
        assert_eq!(b1.digest, b2.digest);
        assert_eq!(a1.msgs_sent, a2.msgs_sent);
        assert_eq!(a1.bytes_sent, a2.bytes_sent);
    }

    #[test]
    fn bad_parameters_are_refused_before_any_byte() {
        let base = NodeParams {
            n: 12,
            gamma: 3.0,
            seed: 7,
            slack: 3,
        };
        for np in [
            NodeParams { n: 3, ..base },
            NodeParams { slack: 0, ..base },
            NodeParams { gamma: 0.0, ..base },
            NodeParams {
                gamma: -1.0,
                ..base
            },
            NodeParams {
                gamma: f64::NAN,
                ..base
            },
        ] {
            let (a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
            let err = run_session(a, Side::Low, &np).expect_err("bad parameters");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{np:?}: {err}");
            let mut sent = Vec::new();
            b.read_to_end(&mut sent).unwrap();
            assert!(sent.is_empty(), "{np:?}: bytes sent before the check");
        }
    }

    #[test]
    fn mismatched_fingerprints_fail_the_handshake() {
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let np_low = NodeParams {
            n: 12,
            gamma: 3.0,
            seed: 7,
            slack: 3,
        };
        let np_high = NodeParams {
            seed: 8, // disagrees
            ..np_low
        };
        let t = std::thread::spawn(move || run_session(b, Side::High, &np_high));
        let low = run_session(a, Side::Low, &np_low);
        let high = t.join().unwrap();
        assert!(low.is_err() || high.is_err(), "handshake must reject");
    }
}
