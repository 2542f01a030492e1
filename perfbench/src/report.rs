//! Metric names, the per-run result, and its one-line JSON form.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`), in
/// the order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decision_s", "s"),
    ("decisions_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("bits_per_agent", "bit"),
    ("max_msg_bits", "bit"),
];

/// The four communicating phases, in execution order, as metric-name
/// fragments, beside the names `rfc_core::Phase::name` gives them.
pub const PHASES: [(&str, &str); 4] = [
    ("commitment", "commitment"),
    ("voting", "voting"),
    ("find_min", "find-min"),
    ("coherence", "coherence"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`), in the
/// order of `BENCHMARK.json`. A layer that does no work on a workload
/// reports 0 there.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("runner.build_s", "s"),
    ("runner.report_s", "s"),
    ("staged.commitment_s", "s"),
    ("staged.voting_s", "s"),
    ("staged.find_min_s", "s"),
    ("staged.coherence_s", "s"),
    ("staged.plan_s", "s"),
    ("staged.exchange_s", "s"),
    ("staged.apply_s", "s"),
    ("staged.build_s", "s"),
    ("staged.meter_s", "s"),
    ("staged.log_s", "s"),
    ("staged.resolve_s", "s"),
    ("staged.exchange_other_s", "s"),
    ("staged.one_shard_s", "s"),
    ("staged.two_shard_s", "s"),
    ("staged.shard_efficiency", "ratio"),
    ("network.sync.commitment_s", "s"),
    ("network.sync.voting_s", "s"),
    ("network.sync.find_min_s", "s"),
    ("network.sync.coherence_s", "s"),
    ("network.async.commitment_s", "s"),
    ("network.async.voting_s", "s"),
    ("network.async.find_min_s", "s"),
    ("network.async.coherence_s", "s"),
    ("engine.verify_s", "s"),
    ("engine.verify_failures", "count"),
    ("metrics.messages", "count"),
    ("metrics.delivered_frac", "ratio"),
    ("metrics.max_active_links", "count"),
    ("metrics.commitment.bits", "bit"),
    ("metrics.voting.bits", "bit"),
    ("metrics.find_min.bits", "bit"),
    ("metrics.coherence.bits", "bit"),
    ("metrics.commitment.max_msg_bits", "bit"),
    ("metrics.voting.max_msg_bits", "bit"),
    ("metrics.find_min.max_msg_bits", "bit"),
    ("metrics.coherence.max_msg_bits", "bit"),
    ("parallel.fold_s", "s"),
    ("parallel.trial_s", "s"),
    ("parallel.trial_tail_s", "s"),
    ("parallel.busy_frac", "ratio"),
    ("parallel.idle_s", "s"),
    ("session.s", "s"),
    ("session.compute_s", "s"),
    ("wire.read_wait_s", "s"),
    ("wire.write_s", "s"),
    ("wire.bytes", "B"),
    ("wire.reads", "count"),
    ("wire.writes", "count"),
    ("wire.empty_tick_frac", "ratio"),
    ("wire.bytes_per_agent", "B"),
    ("asynchronous.run_s", "s"),
    ("asynchronous.reference_s", "s"),
    ("bench.check_s", "s"),
    ("decision_tail_s", "s"),
    ("decision_tail_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.decision_s", "s"),
    ("trace.untraced_decision_s", "s"),
    ("replica.decision_s", "s"),
    ("trace.decisions", "count"),
    ("trace.spans", "count"),
    ("trace.replicas", "count"),
];

/// Attempted and failed decisions, with the first few failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Decisions started.
    pub attempted: u64,
    /// Decisions that failed a check.
    pub failed: u64,
    /// Up to [`Tally::KEEP`] failure reasons.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Failure reasons kept for the report.
    pub const KEEP: usize = 5;

    /// Count one decision, labelled `what`, with its check result.
    pub fn record(&mut self, what: impl std::fmt::Display, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.reasons.len() < Self::KEEP {
                self.reasons.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Result of one benchmark run.
#[derive(Debug, Default, Clone)]
pub struct RunResult {
    /// Decision counts.
    pub tally: Tally,
    /// Run-level check failures (fairness, span identity, …).
    pub run_errors: Vec<String>,
    /// Metric values by name (units come from the metric lists).
    pub metrics: BTreeMap<String, f64>,
    /// Free-form `key=value` context printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Set metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Whether every decision and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0 && self.run_errors.is_empty()
    }

    /// The result line: the metrics of `list` (0 where this workload
    /// has no such work), plus the decision counts. A metric that is not
    /// a finite number makes the run incorrect.
    pub fn to_json(&self, list: &[(&str, &str)]) -> String {
        let mut correct = self.correct();
        let mut parts = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let mut v = self.metrics.get(*name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                correct = false;
                v = 0.0;
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            parts.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_are_counted_not_fatal() {
        let mut t = Tally::default();
        t.record("d0", Ok(()));
        t.record("d1", Err("flipped digest".into()));
        t.record("d2", Ok(()));
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert_eq!(t.reasons, vec!["d1: flipped digest".to_string()]);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = RunResult::default();
        r.tally.record("d0", Ok(()));
        r.set("setup_s", 0.25);
        let line = r.to_json(&END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        r.set("decision_s", f64::NAN);
        assert!(r.to_json(&END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed = |key: &str| -> Vec<(String, String)> {
            let section = text.split(&format!("\"{key}\"")).nth(1).expect("section");
            let section = &section[..section.find(']').expect("list end")];
            section
                .split('{')
                .skip(1)
                .map(|item| {
                    let field = |f: &str| {
                        let rest = item.split(&format!("\"{f}\": \"")).nth(1).expect("field");
                        rest[..rest.find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
