//! Instance-plane independence corpus (tier-2).
//!
//! The multi-instance plane's core contract: every instance's private
//! randomness is a pure function of `(master seed, instance index)`, and
//! the plane runs on the engine's own rounds, loss and sharding. These
//! tests pin:
//!
//! * **co-hosting invariance** — on a loss-free network, appending
//!   instances to a plan leaves every existing instance's full
//!   `InstanceReport` identical, at several thread counts;
//! * **thread invariance** — a lossy multi-instance plane produces the
//!   same reports at every thread count;
//! * **shard invariance** — on the staged engine, a multi-instance plane
//!   produces the same reports at every shard count, lossy or not, and
//!   loss-free it equals the serial engine's run.

use gossip_net::rng::RngDiscipline;
use rfc_core::runner::RunConfig;
use rfc_core::{run_plane, InstanceKind, InstancePlan, InstanceSpec, PlaneReport, Priority};

/// A mixed-kind plan: consensus + rumor instances, one Low priority —
/// exercises every per-instance axis at once.
fn mixed_plan(extra_rumor: usize) -> InstancePlan {
    let mut plan = InstancePlan::consensus(1)
        .with_spec(InstanceSpec::new(InstanceKind::RumorVote { k: 12 }))
        .with_spec(InstanceSpec::new(InstanceKind::RumorVote { k: 12 }).priority(Priority::Low));
    for _ in 0..extra_rumor {
        plan = plan.with_spec(InstanceSpec::new(InstanceKind::RumorVote { k: 12 }));
    }
    plan
}

fn cfg(threads: usize, loss: f64) -> RunConfig {
    let mut cfg = RunConfig::builder(16)
        .gamma(3.0)
        .colors(vec![8, 8])
        .message_loss(loss)
        .build();
    cfg.threads = threads;
    cfg.shard_floor = Some(0); // tiny n: keep real multi-shard runs
    cfg
}

/// Everything deterministic a plane run reports.
fn fingerprint(plane: &PlaneReport) -> (Vec<String>, String, usize) {
    let instances = plane.instances.iter().map(|i| format!("{i:?}")).collect();
    (instances, format!("{:?}", plane.aggregate), plane.rounds)
}

#[test]
fn appending_instances_never_perturbs_existing_reports() {
    // Instance i's report — decisions, clocks, payload meters — is
    // invariant to co-hosting more instances on a loss-free network, at
    // several thread counts (engine sharding included).
    for threads in [1usize, 4] {
        let small = run_plane(&cfg(threads, 0.0), &mixed_plan(0), 21);
        let large = run_plane(&cfg(threads, 0.0), &mixed_plan(8), 21);
        assert_eq!(small.instances.len() + 8, large.instances.len());
        for (j, (a, b)) in small.instances.iter().zip(&large.instances).enumerate() {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "instance {j} perturbed by co-hosting (threads {threads})"
            );
        }
    }
}

#[test]
fn multi_instance_plane_is_thread_invariant() {
    let baseline = run_plane(&cfg(1, 0.25), &mixed_plan(3), 9);
    let want: Vec<String> =
        baseline.instances.iter().map(|i| format!("{i:?}")).collect();
    for threads in [2usize, 8] {
        let plane = run_plane(&cfg(threads, 0.25), &mixed_plan(3), 9);
        let got: Vec<String> = plane.instances.iter().map(|i| format!("{i:?}")).collect();
        assert_eq!(got, want, "instance reports drifted at threads={threads}");
        assert_eq!(plane.rounds, baseline.rounds);
        assert_eq!(
            plane.aggregate, baseline.aggregate,
            "aggregate metrics drifted at threads={threads}"
        );
    }
}

#[test]
fn plane_on_the_staged_engine_is_shard_invariant() {
    // Multi-op agents (a MuxAgent emits one batch per peer and kind) on
    // the staged engine at 1..8 real shards: the reports never depend on
    // the shard count, and loss-free they equal the serial engine's.
    for loss in [0.0, 0.25] {
        let staged = |threads: usize| {
            let mut cfg = cfg(threads, loss);
            cfg.rng_discipline = RngDiscipline::PerAgent;
            run_plane(&cfg, &mixed_plan(3), 9)
        };
        let one = staged(1);
        for threads in [2usize, 3, 8] {
            assert!(
                fingerprint(&staged(threads)) == fingerprint(&one),
                "loss {loss}: the plane drifted at {threads} shards"
            );
        }
        if loss == 0.0 {
            let serial = run_plane(&cfg(1, loss), &mixed_plan(3), 9);
            assert!(
                fingerprint(&serial) == fingerprint(&one),
                "the loss-free staged plane differs from the serial one"
            );
        } else {
            assert!(one.aggregate.undelivered > 0, "loss {loss} dropped nothing");
        }
    }
}
