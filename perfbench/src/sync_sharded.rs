//! `sync-sharded`: one large synchronous decision at a time on the
//! sharded staged engine — n = 65 536, γ = 3, two equal colors, 10% of
//! agents faulty at random, `PerAgent` discipline on 2 shards, no loss,
//! no op log. Each decision is `build_network_slots` → `drive_network`
//! → `collect_report`, which is what `run_protocol` composes.

use crate::checks::{check_run, report_digest};
use crate::common::{color_counts, decision_seed, replay, Meters, Params, Samples};
use crate::report::RunResult;
use crate::stats::median;
use crate::trace::Tracer;
use gossip_net::fault::Placement;
use gossip_net::StageTimes;
use rfc_core::{
    build_network_slots, collect_report, drive_network, honest_slot_factory, RunConfig,
};
use std::time::Instant;

/// Default number of agents.
pub const N: usize = 65_536;
/// Shards of the timed decisions.
const SHARDS: usize = 2;
/// Span names of the four staged phases, in execution order.
const PHASE_SPANS: [&str; 4] = [
    "staged.commitment",
    "staged.voting",
    "staged.find_min",
    "staged.coherence",
];

/// The workload's configuration on `shards` shards.
pub fn config(n: usize, shards: usize) -> RunConfig {
    RunConfig::builder(n)
        .gamma(3.0)
        .colors(color_counts(n, &[0.5, 0.5]))
        .faults(0.1, Placement::Random { seed: 0 })
        .sharded(shards)
        .build()
}

/// Untraced run: decisions back to back until `p.seconds` have passed.
/// Each decision's own build is the run's set-up sample.
pub fn timed(p: &Params) -> RunResult {
    let cfg = config(p.n, SHARDS);
    let rounds = cfg.params().total_rounds();
    let mut out = RunResult::default();
    let mut s = Samples {
        rounds: rounds as f64,
        ..Samples::default()
    };
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < p.seconds {
        let t0 = Instant::now();
        let mut net = build_network_slots(&cfg, decision_seed(p.seed, i), &mut honest_slot_factory);
        let t1 = Instant::now();
        drive_network(&mut net, &cfg);
        let r = collect_report(&net, &cfg);
        let t2 = Instant::now();
        s.setup.push((t1 - t0).as_secs_f64());
        s.decision.push((t2 - t1).as_secs_f64());
        s.meter(&r, p.n);
        out.tally
            .record(format_args!("decision {i}"), check_run(&r, p.n, rounds));
        drop(net);
        i += 1;
    }
    s.wall = start.elapsed().as_secs_f64();
    s.finish(&mut out);
    out
}

/// Traced run, over one seed per 8 s of `p.seconds`. Each seed runs a
/// decision on 1 shard and on 2 shards back to back, in alternating
/// order and both with the stage clocks off, inside one span each around
/// `drive_network`; the 2-shard one is also the untraced baseline. The
/// same seed then runs again on 2 shards phase by phase with the stage
/// clocks on.
pub fn traced(p: &Params, tracer: &Tracer) -> RunResult {
    let two = config(p.n, SHARDS);
    let one = config(p.n, 1);
    let staged = RunConfig {
        time_stages: true,
        ..two.clone()
    };
    let rounds = two.params().total_rounds();
    let q = two.params().q;
    let seeds = ((p.seconds / 8.0).round() as u64).max(1);
    let mut out = RunResult::default();

    let mut efficiency = Vec::new();
    let (mut untraced, mut traced, mut replicas) = (Vec::new(), Vec::new(), Vec::new());
    let mut stages: Vec<StageTimes> = Vec::new();
    let mut meters = Vec::new();
    let root = tracer.span("trace", None, 0, |root| {
        for i in 0..seeds {
            let seed = decision_seed(p.seed, i);
            // Drive time and digest of the 1-shard (index 0) and the
            // 2-shard (index 1) decision.
            let mut drive = [0.0; 2];
            let mut digest = [0u64; 2];
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let (cfg, span) = [(&one, "staged.one_shard"), (&two, "staged.two_shard")][side];
                let d = 3 * i + side as u64;
                let mut net = tracer.span("runner.build", Some(root), d, |_| {
                    build_network_slots(cfg, seed, &mut honest_slot_factory)
                });
                let t0 = Instant::now();
                tracer.span(span, Some(root), d, |_| drive_network(&mut net, cfg));
                let t1 = Instant::now();
                let r = tracer.span("runner.report", Some(root), d, |_| {
                    collect_report(&net, cfg)
                });
                let t2 = Instant::now();
                drive[side] = (t1 - t0).as_secs_f64();
                if side == 1 {
                    untraced.push((t2 - t0).as_secs_f64());
                }
                tracer.span("bench.check", Some(root), d, |_| {
                    out.tally
                        .record(format_args!("seed {i}, {span}"), check_run(&r, p.n, rounds));
                    digest[side] = report_digest(&r);
                });
            }
            efficiency.push(drive[0] / (SHARDS as f64 * drive[1]));
            let d = 3 * i + 2;
            let replayed = replay(
                tracer,
                root,
                d,
                &staged,
                &PHASE_SPANS,
                || build_network_slots(&staged, seed, &mut honest_slot_factory),
                |net| net.run_staged(q),
            );
            tracer.span("bench.check", Some(root), d, |_| {
                let r = &replayed.report;
                let check = check_run(r, p.n, rounds).and_then(|()| {
                    if digest[0] == digest[1] && report_digest(r) == digest[1] {
                        Ok(())
                    } else {
                        Err("1-shard, 2-shard and traced reports differ".into())
                    }
                });
                out.tally
                    .record(format_args!("seed {i}, traced decision"), check);
                meters.push(Meters::of(r));
            });
            traced.push(replayed.run_s);
            replicas.push(replayed.build_s + replayed.run_s);
            stages.push(replayed.world.stage_times());
        }
        root
    });

    out.set("staged.shard_efficiency", median(&efficiency));
    out.set("replica.decision_s", median(&replicas));
    out.set("trace.replicas", seeds as f64);
    out.notes.push(format!(
        "staged.shard_efficiency per seed: {efficiency:.4?}"
    ));
    // Totals over the traced decisions, seconds.
    let total = |f: fn(&StageTimes) -> u64| stages.iter().map(f).sum::<u64>() as f64 * 1e-6;
    out.set("staged.plan_s", total(|t| t.plan_us));
    out.set("staged.exchange_s", total(|t| t.exchange_us));
    out.set("staged.apply_s", total(|t| t.apply_us));
    out.set("staged.build_s", total(|t| t.build_us));
    out.set("staged.meter_s", total(|t| t.meter_us));
    out.set("staged.log_s", total(|t| t.log_us));
    out.set("staged.resolve_s", total(|t| t.resolve_us));
    out.set(
        "staged.exchange_other_s",
        total(|t| t.exchange_us) - total(|t| t.build_us + t.meter_us + t.log_us + t.resolve_us),
    );
    Meters::finish(&meters, &mut out);
    crate::common::finish_trace(tracer, root, &mut out);
    crate::common::set_decision_times(&mut out, &traced, &untraced);
    out
}
