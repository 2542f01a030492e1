//! `async-faulty`: the sequential-GOSSIP engine — `run_protocol_async`
//! at n = 4 096, γ = 3, slack 3, colors 50/30/20, 10% of agents faulty at
//! random: 1.77 M ticks, each waking one random agent.

use crate::checks::{check_run, report_digest};
use crate::common::{
    color_counts, decision_seed, replay, set_decision_times, time_setup, Meters, Params, Samples,
    World,
};
use crate::report::RunResult;
use crate::stats::median;
use crate::trace::{durations, Tracer};
use gossip_net::fault::Placement;
use gossip_net::ids::{AgentId, ColorId};
use gossip_net::rng::DetRng;
use gossip_net::topology::Topology;
use rfc_core::{
    build_network_slots, run_protocol_async, AgentSlot, Params as ProtocolParams, PhaseSchedule,
    ProtocolCore, RunConfig, SCHEDULER_STREAM,
};
use std::time::Instant;

/// Default number of agents.
pub const N: usize = 4096;
/// Tick-budget multiplier: `slack·n·q` ticks per phase.
pub const SLACK: usize = 3;
/// Span names of the four async phases, in execution order.
const PHASE_SPANS: [&str; 4] = [
    "network.async.commitment",
    "network.async.voting",
    "network.async.find_min",
    "network.async.coherence",
];

/// The workload's configuration.
pub fn config(n: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(color_counts(n, &[0.5, 0.3, 0.2]))
        .faults(0.1, Placement::Random { seed: 0 })
        .build()
}

fn schedule(cfg: &RunConfig) -> PhaseSchedule {
    cfg.params().async_schedule(SLACK)
}

/// Build the network `run_protocol_async` builds: honest agents on the
/// async schedule.
fn build(cfg: &RunConfig, seed: u64) -> World {
    let schedule = schedule(cfg);
    let mut factory =
        move |id: AgentId, params: ProtocolParams, color: ColorId, rng: DetRng, topo: &Topology| {
            AgentSlot::honest(ProtocolCore::new_on(topo, id, params, schedule, color, rng))
        };
    build_network_slots(cfg, seed, &mut factory)
}

/// Untraced run: `run_protocol_async` decisions until `p.seconds` pass,
/// each after one set-up-only build.
pub fn timed(p: &Params) -> RunResult {
    let cfg = config(p.n);
    let ticks = schedule(&cfg).total_rounds();
    let mut out = RunResult::default();
    let mut s = Samples {
        rounds: ticks as f64,
        ..Samples::default()
    };
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < p.seconds {
        s.setup
            .push(time_setup(p.seed, i, |seed| build(&cfg, seed)));
        let t = Instant::now();
        let r = run_protocol_async(&cfg, decision_seed(p.seed, i), SLACK);
        s.decision.push(t.elapsed().as_secs_f64());
        s.meter(&r, p.n);
        out.tally
            .record(format_args!("decision {i}"), check_run(&r, p.n, ticks));
        i += 1;
    }
    s.wall = start.elapsed().as_secs_f64();
    s.finish(&mut out);
    out
}

/// Traced run: `K` decisions untraced, the same `K` with a span around
/// each `run_protocol_async` call, then a sample of those seeds replayed
/// through the public pieces it composes, phase by phase.
pub fn traced(p: &Params, tracer: &Tracer) -> RunResult {
    let cfg = config(p.n);
    let sched = schedule(&cfg);
    let ticks = sched.total_rounds();
    let k = ((p.seconds * 1.2).round() as usize).max(2);
    let replicas = (k / 4).max(1);
    let mut out = RunResult::default();

    let mut untraced = Vec::with_capacity(k);
    let mut digests = Vec::with_capacity(k);
    for i in 0..k {
        let t = Instant::now();
        let r = run_protocol_async(&cfg, decision_seed(p.seed, i as u64), SLACK);
        untraced.push(t.elapsed().as_secs_f64());
        out.tally.record(
            format_args!("untraced decision {i}"),
            check_run(&r, p.n, ticks),
        );
        digests.push(report_digest(&r));
    }
    let same = |r: &rfc_core::RunReport, i: usize, what: &str| -> Result<(), String> {
        check_run(r, p.n, ticks)?;
        if report_digest(r) == digests[i] {
            Ok(())
        } else {
            Err(format!(
                "{what} differs from the untraced run_protocol_async"
            ))
        }
    };

    let mut meters = Vec::new();
    let mut replica_secs = Vec::with_capacity(replicas);
    let root = tracer.span("trace", None, 0, |root| {
        for i in 0..k {
            let seed = decision_seed(p.seed, i as u64);
            let r = tracer.span("asynchronous.run", Some(root), i as u64, |_| {
                run_protocol_async(&cfg, seed, SLACK)
            });
            tracer.span("bench.check", Some(root), i as u64, |_| {
                out.tally.record(
                    format_args!("traced decision {i}"),
                    same(&r, i, "traced run"),
                );
                meters.push(Meters::of(&r));
            });
        }
        for i in 0..replicas {
            let seed = decision_seed(p.seed, i as u64);
            let mut scheduler = DetRng::seeded(seed, SCHEDULER_STREAM);
            let d = (k + i) as u64;
            let replayed = replay(
                tracer,
                root,
                d,
                &cfg,
                &PHASE_SPANS,
                || build(&cfg, seed),
                |net| net.run_async(sched.phase_len, &mut scheduler),
            );
            tracer.span("bench.check", Some(root), d, |_| {
                out.tally.record(
                    format_args!("replica {i}"),
                    same(&replayed.report, i, "replica"),
                )
            });
            replica_secs.push(replayed.build_s + replayed.run_s);
        }
        root
    });

    let (spans, _) = tracer.snapshot();
    let real = durations(&spans, "asynchronous.run");
    out.set("replica.decision_s", median(&replica_secs));
    out.set("trace.replicas", replicas as f64);
    Meters::finish(&meters, &mut out);
    crate::common::finish_trace(tracer, root, &mut out);
    set_decision_times(&mut out, &real, &untraced);
    out
}
