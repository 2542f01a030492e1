//! Multi-instance plane: two concurrent rumor votes over one network.
//!
//! ```sh
//! cargo run --release --example multi_rumor
//! ```
//!
//! Hosts two independent k-of-n rumor-vote instances on the same
//! 32-agent complete graph — one `High` priority, one `Low` — and runs
//! them through `rfc_core::run_plane(&cfg, &plan, seed)`: the config
//! describes the network, the plan the instances it hosts. Every message an agent emits
//! toward a peer in a round rides one `Batch` (the first part's
//! instance tag is elided, so a lone instance pays zero wire overhead),
//! yet each instance keeps its own RNG streams and payload meters. The
//! second half of the example re-runs instance 0 *alone* and prints the
//! co-hosting-invariance witness: on this loss-free network its report
//! is identical with or without the co-hosted instance.

use rfc_core::instances::InstanceReport;
use rfc_core::runner::RunConfig;
use rfc_core::{run_plane, InstanceKind, InstancePlan, InstanceSpec, Priority};

fn describe(report: &InstanceReport) -> String {
    format!(
        "kind {:?}  priority {:?}  decided {}  rounds-to-decision {:?}  \
         msgs {}  payload bits {}",
        report.spec.kind,
        report.spec.priority,
        report.decided,
        report.rounds_to_decision,
        report.metrics.messages_sent,
        report.metrics.bits_sent,
    )
}

fn main() {
    let n = 32;
    let k = 24; // an agent decides once it has collected k of n votes
    let plan = InstancePlan {
        specs: Vec::new(),
        send_budget: None,
    }
    .with_spec(InstanceSpec::new(InstanceKind::RumorVote { k }).priority(Priority::High))
    .with_spec(InstanceSpec::new(InstanceKind::RumorVote { k }).priority(Priority::Low));
    let cfg = RunConfig::builder(n).gamma(3.0).build();

    println!("two concurrent {k}-of-{n} rumor votes on K_{n}\n");
    let plane = run_plane(&cfg, &plan, 7);
    for (j, inst) in plane.instances.iter().enumerate() {
        println!("instance {j}: {}", describe(inst));
    }
    println!(
        "\nengine: {} rounds, aggregate {} messages / {} bits \
         (aggregate − Σ payload = batch tag overhead: {} bits)",
        plane.rounds,
        plane.aggregate.messages_sent,
        plane.aggregate.bits_sent,
        plane.aggregate.bits_sent
            - plane.instances.iter().map(|i| i.metrics.bits_sent).sum::<u64>(),
    );

    // Co-hosting invariance: instance 0 run alone is *identical* —
    // per-instance RNG streams are keyed by instance id and the network
    // is loss-free, so a co-hosted instance never perturbs a neighbor.
    let alone_plan = InstancePlan {
        specs: Vec::new(),
        send_budget: None,
    }
    .with_spec(InstanceSpec::new(InstanceKind::RumorVote { k }).priority(Priority::High));
    let alone = run_plane(&cfg, &alone_plan, 7);
    let same = format!("{:?}", alone.instances[0]) == format!("{:?}", plane.instances[0]);
    println!("\ninstance 0 alone vs co-hosted: reports identical = {same}");
    assert!(same, "co-hosting must not perturb instance 0");
}
