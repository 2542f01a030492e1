//! `node-session`: an `rfc-node` lockstep session — n = 256, γ = 3,
//! slack 3 (73 728 ticks). Both endpoints run in this process on two
//! threads over one `UnixStream::pair()`, each calling `run_session`, as
//! `run_loopback` does. No delay is injected: latency is processor time
//! plus the socket round trips. Both endpoints run on one CPU (see
//! [`crate::pin`]).

use crate::checks::check_session;
use crate::common::{decision_seed, set_decision_times, setup_seed, Meters, Params, Samples};
use crate::pin::Pinned;
use crate::report::RunResult;
use crate::tap::{tick_mix, Tap, TickMix};
use crate::trace::{durations, Tracer};
use rfc_core::{run_protocol_async, RunConfig, RunReport};
use rfc_node::wire::{read_packet, write_packet, Packet};
use rfc_node::{run_loopback, run_session, NodeParams, SessionReport, Side};
use std::io;
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Default number of agents.
pub const N: usize = 256;
/// Tick-budget multiplier.
pub const SLACK: usize = 3;
/// Set-up probes (endpoint build plus Hello handshake each) after every
/// session.
const PROBES_PER_SESSION: u64 = 3;

fn node_params(n: usize, seed: u64) -> NodeParams {
    NodeParams {
        n,
        gamma: 3.0,
        seed,
        slack: SLACK,
    }
}

/// The simulator configuration an endpoint derives from its
/// `NodeParams`: two equal colors, no faults.
pub fn reference_config(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(vec![n - n / 2, n / 2])
        .build()
}

fn expect_ticks(n: usize) -> usize {
    reference_config(n)
        .params()
        .async_schedule(SLACK)
        .total_rounds()
}

/// Pin this thread, and so every endpoint thread it starts, to one CPU.
/// A run that cannot pin is marked incorrect: it would time the host's
/// scheduler rather than the session.
fn pin_endpoints(out: &mut RunResult) -> Option<Pinned> {
    match Pinned::highest() {
        Ok(pin) => {
            out.notes
                .push(format!("endpoints pinned to cpu {}", pin.cpu));
            Some(pin)
        }
        Err(e) => {
            out.run_errors
                .push(format!("cannot pin the endpoints to one CPU: {e}"));
            None
        }
    }
}

/// Time one endpoint's set-up: `run_session` builds its half of the
/// world and exchanges Hello with a peer played here. The clock stops
/// once the peer's Hello has been read in full. The peer then hangs up,
/// so the session fails at its first tick.
fn setup_probe(np: &NodeParams) -> Result<f64, String> {
    let (low, mut peer) = UnixStream::pair().map_err(|e| e.to_string())?;
    let hello = Packet::Hello {
        fingerprint: np.fingerprint(),
        side: 1,
    };
    let hello_len = write_packet(&mut Vec::new(), &hello).map_err(|e| e.to_string())?;
    let handshake = std::thread::spawn(move || -> io::Result<()> {
        match read_packet(&mut peer)? {
            Packet::Hello { .. } => write_packet(&mut peer, &hello).map(drop),
            other => Err(io::Error::other(format!("expected Hello, got {other:?}"))),
        }
    });
    let mut tap = Tap::new(low).watch_reads(hello_len as u64);
    let t = Instant::now();
    let session = run_session(&mut tap, Side::Low, np);
    handshake
        .join()
        .map_err(|_| "handshake peer panicked".to_string())?
        .map_err(|e| e.to_string())?;
    match (session, tap.reached) {
        (Err(_), Some(done)) => Ok((done - t).as_secs_f64()),
        (Err(e), None) => Err(format!("no Hello read from the peer: {e}")),
        (Ok(_), _) => Err("set-up probe ran a whole session".into()),
    }
}

/// Untraced run: loopback sessions until `p.seconds` pass; each is
/// checked against its peer and against `run_protocol_async`, and
/// followed by a few set-up probes.
pub fn timed(p: &Params) -> RunResult {
    let cfg = reference_config(p.n);
    let ticks = expect_ticks(p.n);
    let mut out = RunResult::default();
    let _pin = pin_endpoints(&mut out);
    let mut s = Samples {
        rounds: ticks as f64,
        ..Samples::default()
    };
    let mut wire_bytes = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < p.seconds {
        let seed = decision_seed(p.seed, i);
        let t = Instant::now();
        let session = run_loopback(&node_params(p.n, seed));
        let secs = t.elapsed().as_secs_f64();
        let check = session.map_err(|e| e.to_string()).and_then(|(low, high)| {
            let reference = run_protocol_async(&cfg, seed, SLACK);
            s.decision.push(secs);
            s.meter(&reference, p.n);
            wire_bytes += low.bytes_sent + high.bytes_sent;
            check_session(&low, &high, &reference, p.n, ticks)
        });
        out.tally.record(format_args!("session {i}"), check);
        for j in i * PROBES_PER_SESSION..(i + 1) * PROBES_PER_SESSION {
            match setup_probe(&node_params(p.n, setup_seed(p.seed, j))) {
                Ok(secs) => s.setup.push(secs),
                Err(e) => out.run_errors.push(format!("set-up probe {j}: {e}")),
            }
        }
        i += 1;
    }
    s.wall = start.elapsed().as_secs_f64();
    s.finish(&mut out);
    let sessions = s.decision.len().max(1) as f64;
    out.notes.push(format!(
        "wire_bytes_per_agent={:.3} (both ends, per session)",
        wire_bytes as f64 / sessions / p.n as f64
    ));
    out
}

/// One traced session: each endpoint's stream wrapped in a [`Tap`], the
/// low end on this thread inside a `session` span whose socket time is
/// charged to the wire aggregates, the high end on a second thread.
fn traced_session(
    tracer: &Tracer,
    root: usize,
    np: &NodeParams,
    d: u64,
) -> io::Result<(
    SessionReport,
    SessionReport,
    Tap<UnixStream>,
    Tap<UnixStream>,
)> {
    let (a, b) = UnixStream::pair()?;
    std::thread::scope(|scope| {
        let high = scope.spawn(|| {
            let mut tap = Tap::new(b);
            let r = tracer.span("session", Some(root), d, |_| {
                run_session(&mut tap, Side::High, np)
            });
            r.map(|r| (r, tap))
        });
        let mut tap = Tap::new(a);
        let low = tracer.span("session", Some(root), d, |id| {
            let r = run_session(&mut tap, Side::Low, np);
            tracer.aggregate(
                id,
                "wire.read_wait",
                tap.stats.read_wait.as_secs_f64(),
                tap.stats.reads,
            );
            tracer.aggregate(
                id,
                "wire.write",
                tap.stats.write_time.as_secs_f64(),
                tap.stats.writes,
            );
            r
        });
        let high = high
            .join()
            .map_err(|_| io::Error::other("high endpoint panicked"))?;
        let (high, high_tap) = high?;
        Ok((low?, high, tap, high_tap))
    })
}

/// Traced run: `K` sessions untraced, the same `K` over tapped sockets
/// with the `run_protocol_async` reference of each, then the captured
/// bytes decoded packet by packet.
pub fn traced(p: &Params, tracer: &Tracer) -> RunResult {
    let cfg = reference_config(p.n);
    let ticks = expect_ticks(p.n);
    let k = ((p.seconds / 2.0).round() as usize).max(2);
    let mut out = RunResult::default();
    let _pin = pin_endpoints(&mut out);

    let mut untraced = Vec::with_capacity(k);
    for i in 0..k {
        let seed = decision_seed(p.seed, i as u64);
        let t = Instant::now();
        let session = run_loopback(&node_params(p.n, seed));
        untraced.push(t.elapsed().as_secs_f64());
        let check = session.map_err(|e| e.to_string()).and_then(|(low, high)| {
            check_session(
                &low,
                &high,
                &run_protocol_async(&cfg, seed, SLACK),
                p.n,
                ticks,
            )
        });
        out.tally
            .record(format_args!("untraced session {i}"), check);
    }

    let mut meters = Vec::new();
    let mut mix = TickMix::default();
    let (mut bytes, mut reads, mut writes) = (0u64, 0u64, 0u64);
    let root = tracer.span("trace", None, 0, |root| {
        for i in 0..k {
            let d = i as u64;
            let seed = decision_seed(p.seed, d);
            let np = node_params(p.n, seed);
            let session = traced_session(tracer, root, &np, d);
            let reference: RunReport = tracer.span("asynchronous.reference", Some(root), d, |_| {
                run_protocol_async(&cfg, seed, SLACK)
            });
            tracer.span("bench.check", Some(root), d, |_| {
                let check = session
                    .map_err(|e| e.to_string())
                    .and_then(|(low, high, lt, ht)| {
                        bytes += lt.stats.bytes_written + ht.stats.bytes_written;
                        reads += lt.stats.reads + ht.stats.reads;
                        writes += lt.stats.writes + ht.stats.writes;
                        for tap in [&lt, &ht] {
                            let m = tick_mix(&tap.written)
                                .map_err(|e| format!("captured bytes: {e}"))?;
                            mix.nothing += m.nothing;
                            mix.crossing += m.crossing;
                        }
                        meters.push(Meters::of(&reference));
                        check_session(&low, &high, &reference, p.n, ticks)
                    });
                out.tally.record(format_args!("traced session {i}"), check);
            });
        }
        root
    });

    let (spans, _) = tracer.snapshot();
    let low_sessions: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "session" && s.thread == spans[root].thread)
        .map(|s| s.end - s.start)
        .collect();
    let per_session = |v: u64| v as f64 / k as f64;
    out.set("session.s", low_sessions.iter().sum());
    out.set("wire.bytes", per_session(bytes));
    out.set("wire.reads", per_session(reads));
    out.set("wire.writes", per_session(writes));
    out.set("wire.bytes_per_agent", per_session(bytes) / p.n as f64);
    out.set(
        "wire.empty_tick_frac",
        mix.nothing as f64 / (mix.nothing + mix.crossing).max(1) as f64,
    );
    out.notes.push(format!(
        "reference run_protocol_async median {:.6} s",
        crate::stats::median(&durations(&spans, "asynchronous.reference"))
    ));
    Meters::finish(&meters, &mut out);
    crate::common::finish_trace(tracer, root, &mut out);
    set_decision_times(&mut out, &low_sessions, &untraced);
    out
}
