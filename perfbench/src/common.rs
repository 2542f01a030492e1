//! Pieces every workload shares: parameters, seeds, set-up timing, the
//! replayed decision of traced runs, the end-to-end metric arithmetic,
//! meter summaries and the traced-run epilogue.

use crate::report::{RunResult, PHASES};
use crate::stats::{median, tail};
use crate::trace::{self, Tracer};
use gossip_net::rng::derive_seed;
use gossip_net::Network;
use rfc_core::{collect_report, AgentSlot, Msg, Phase, RunConfig, RunReport};
use std::time::Instant;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Number of agents (each workload has a default; tests shrink it).
    pub n: usize,
}

/// Seed of decision `i` of a run.
pub fn decision_seed(master: u64, i: u64) -> u64 {
    derive_seed(master, i)
}

/// Seed of the `j`-th set-up-only build (kept apart from decision seeds).
pub fn setup_seed(master: u64, j: u64) -> u64 {
    derive_seed(master, (1 << 40) + j)
}

/// Color counts for `n` agents split by `fractions`: every color but
/// the first gets its rounded share, the first gets the rest.
pub fn color_counts(n: usize, fractions: &[f64]) -> Vec<usize> {
    let rest: Vec<usize> = fractions[1..]
        .iter()
        .map(|f| (f * n as f64).round() as usize)
        .collect();
    let mut counts = vec![n - rest.iter().sum::<usize>()];
    counts.extend(rest);
    counts
}

/// Time one set-up-only build, the `j`-th of the run: `build` gets its
/// seed and returns the world, which is dropped after the clock stops.
/// Workloads call this between decisions, all through the measured
/// section, so set-ups run under the same conditions as the decisions.
pub fn time_setup<W>(master: u64, j: u64, build: impl FnOnce(u64) -> W) -> f64 {
    let t = Instant::now();
    let world = build(setup_seed(master, j));
    let secs = t.elapsed().as_secs_f64();
    drop(world);
    secs
}

/// The world every simulated workload builds.
pub type World = Network<Msg, AgentSlot>;

/// A decision replayed by [`replay`].
pub struct Replayed {
    /// The finished world.
    pub world: World,
    /// Its report.
    pub report: RunReport,
    /// Time in `build`, seconds.
    pub build_s: f64,
    /// Time from the end of the build to the end of the report, seconds.
    pub run_s: f64,
}

/// Replay decision `d` through the public pieces an entry point
/// composes, one span each under `root`: `build`, the four communicating
/// phases (`run_phase` runs the phase just entered; spans named
/// `phase_spans`), Verification (`Network::finalize`) and
/// `collect_report`.
pub fn replay(
    tracer: &Tracer,
    root: usize,
    d: u64,
    cfg: &RunConfig,
    phase_spans: &[&'static str; 4],
    build: impl FnOnce() -> World,
    mut run_phase: impl FnMut(&mut World),
) -> Replayed {
    let t0 = Instant::now();
    let mut world = tracer.span("runner.build", Some(root), d, |_| build());
    let t1 = Instant::now();
    for (phase, name) in Phase::COMMUNICATING.into_iter().zip(phase_spans) {
        tracer.span(name, Some(root), d, |_| {
            world.enter_phase(phase.name());
            run_phase(&mut world);
        });
    }
    tracer.span("engine.verify", Some(root), d, |_| world.finalize());
    let report = tracer.span("runner.report", Some(root), d, |_| {
        collect_report(&world, cfg)
    });
    let t2 = Instant::now();
    Replayed {
        world,
        report,
        build_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Raw samples of an untraced run.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Set-up times, seconds.
    pub setup: Vec<f64>,
    /// Decision times after set-up, seconds.
    pub decision: Vec<f64>,
    /// Wall clock over which `decision.len()` decisions completed.
    pub wall: f64,
    /// Rounds (ticks, in the async model and the node session) per decision.
    pub rounds: f64,
    /// Metered bits per agent, one per decision.
    pub bits_per_agent: Vec<f64>,
    /// Largest metered message, one per decision.
    pub max_msg_bits: Vec<f64>,
}

impl Samples {
    /// Record the meters of one checked report.
    pub fn meter(&mut self, r: &RunReport, n: usize) {
        self.bits_per_agent
            .push(r.metrics.bits_sent as f64 / n as f64);
        self.max_msg_bits.push(r.metrics.max_message_bits as f64);
    }

    /// Fill the end-to-end metrics into `out`, and note the sample
    /// counts the medians and the tail rest on.
    pub fn finish(&self, out: &mut RunResult) {
        let decision = median(&self.decision);
        let (tail_s, pct) = tail(&self.decision);
        out.set("setup_s", median(&self.setup));
        out.set("decision_s", decision);
        out.set("decisions_per_s", self.decision.len() as f64 / self.wall);
        let busy: f64 = self.decision.iter().sum();
        out.set(
            "rounds_per_s",
            self.rounds * self.decision.len() as f64 / busy,
        );
        out.set("peak_rss_mib", peak_rss_mib());
        // A mean, not a median: a decision's bits follow the size of the
        // winning certificate, which varies by ±10% from seed to seed.
        let decisions = self.bits_per_agent.len().max(1) as f64;
        out.set(
            "bits_per_agent",
            self.bits_per_agent.iter().sum::<f64>() / decisions,
        );
        out.set("max_msg_bits", median(&self.max_msg_bits));
        out.notes.push(format!(
            "samples setup={} decisions={} decision_tail_s={tail_s:.6} at p{pct:.2} wall_s={:.3}",
            self.setup.len(),
            self.decision.len(),
            self.wall
        ));
        if self.decision.len() <= 32 {
            let list = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.4}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.notes.push(format!(
                "per decision: decision_s=[{}] bits_per_agent=[{}] max_msg_bits=[{}]",
                list(&self.decision),
                list(&self.bits_per_agent),
                list(&self.max_msg_bits)
            ));
        }
    }
}

/// Per-decision meter readings for the traced run's `metrics.*` layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Meters {
    messages: f64,
    undelivered: f64,
    max_active_links: f64,
    verify_failures: f64,
    phase_bits: [f64; 4],
    phase_max: [f64; 4],
}

impl Meters {
    /// Read one report's meters.
    pub fn of(r: &RunReport) -> Self {
        let mut m = Meters {
            messages: r.metrics.messages_sent as f64,
            undelivered: r.metrics.undelivered as f64,
            max_active_links: r.metrics.max_active_links as f64,
            verify_failures: r.verify_failures.iter().filter(|v| v.is_some()).count() as f64,
            ..Meters::default()
        };
        for (k, (_, label)) in PHASES.iter().enumerate() {
            if let Some((_, t)) = r.metrics.phases.iter().find(|(name, _)| name == label) {
                m.phase_bits[k] = t.bits as f64;
                m.phase_max[k] = t.max_message_bits as f64;
            }
        }
        m
    }

    /// Per-decision means of `all` as `metrics.*` and `engine.verify_failures`.
    pub fn finish(all: &[Meters], out: &mut RunResult) {
        if all.is_empty() {
            return;
        }
        let k = all.len() as f64;
        let mean = |f: &dyn Fn(&Meters) -> f64| all.iter().map(f).sum::<f64>() / k;
        let messages = mean(&|m| m.messages);
        out.set("metrics.messages", messages);
        out.set(
            "metrics.delivered_frac",
            1.0 - mean(&|m| m.undelivered) / messages,
        );
        out.set("metrics.max_active_links", mean(&|m| m.max_active_links));
        out.set("engine.verify_failures", mean(&|m| m.verify_failures));
        for (i, (phase, _)) in PHASES.iter().enumerate() {
            out.set(format!("metrics.{phase}.bits"), mean(&|m| m.phase_bits[i]));
            out.set(
                format!("metrics.{phase}.max_msg_bits"),
                mean(&|m| m.phase_max[i]),
            );
        }
    }
}

/// Partition the root span into layer self times, set `trace.*` and
/// every layer's `_s` metric, and fail the run if the layers plus the
/// unattributed time do not add up to the traced wall clock.
pub fn finish_trace(tracer: &Tracer, root: usize, out: &mut RunResult) {
    let (spans, aggregates) = tracer.snapshot();
    let p = trace::partition(&spans, &aggregates, root);
    for (layer, secs) in &p.layers {
        let name = match *layer {
            // A session span's self time is the endpoint's own compute:
            // its socket time is charged to the wire aggregates.
            "session" => "session.compute_s".to_string(),
            other => format!("{other}_s"),
        };
        *out.metrics.entry(name).or_default() += secs;
    }
    out.set("trace.wall_s", p.wall);
    out.set("trace.unattributed_s", p.unattributed);
    out.set("trace.spans", spans.len() as f64);
    let residual = p.residual();
    out.notes.push(format!(
        "trace identity: layers + unattributed - wall = {residual:.3e} s over {} spans",
        spans.len()
    ));
    if residual > 1e-6 * p.wall.max(1.0) {
        out.run_errors.push(format!(
            "layer self times miss the traced wall clock by {residual} s"
        ));
    }
}

/// Fewest untraced decisions a run needs before it reports
/// `decision_tail_s`; below this, a percentile with ten decisions beyond
/// it would sit at or under the median.
const TAIL_MIN_DECISIONS: usize = 100;

/// Set the traced and untraced decision times, their difference (the
/// tracing overhead), and the untraced decisions' tail where there are
/// enough of them.
pub fn set_decision_times(out: &mut RunResult, traced: &[f64], untraced: &[f64]) {
    let (t, u) = (median(traced), median(untraced));
    out.set("trace.decision_s", t);
    out.set("trace.untraced_decision_s", u);
    out.set("trace.overhead_s", t - u);
    out.set("trace.decisions", traced.len() as f64);
    if untraced.len() >= TAIL_MIN_DECISIONS {
        let (tail_s, pct) = tail(untraced);
        out.set("decision_tail_s", tail_s);
        out.set("decision_tail_pct", pct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_counts_cover_every_agent() {
        assert_eq!(color_counts(1024, &[0.5, 0.3, 0.2]), vec![512, 307, 205]);
        assert_eq!(color_counts(4096, &[0.5, 0.3, 0.2]), vec![2048, 1229, 819]);
        assert_eq!(color_counts(64, &[0.5, 0.5]), vec![32, 32]);
    }
}
