//! Property-based resume equivalence: for a *random* configuration —
//! topology × fault plan × loss schedule × scenario script × engine
//! discipline — and a random checkpoint round, snapshot + restore +
//! run-to-completion must equal the straight-through run bit for bit.
//!
//! The corpus in `checkpoint_resume.rs` pins the golden matrix; this
//! file searches the configuration space *around* it, so a checkpoint
//! field that only matters under some combination the hand-written
//! rows never hit (a partition healing right at the boundary, a burst
//! window starting on the snapshot round, …) still gets exercised.

mod common;

use common::report_digest;
use gossip_net::fault::Placement;
use proptest::prelude::*;
use rfc_core::checkpoint::{drive_with_checkpoints, restore_network};
use rfc_core::runner::{RunConfig, TopologySpec};
use rfc_core::{
    build_network_slots, collect_report, honest_slot_factory, LossSchedule, PartitionCut,
    RngDiscipline, ScenarioScript,
};

fn topologies() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(TopologySpec::Complete),
        Just(TopologySpec::Ring),
        (0.25f64..0.6).prop_map(|p| TopologySpec::ErdosRenyi { p }),
        Just(TopologySpec::RandomRegular { d: 6 }),
    ]
}

fn placements() -> impl Strategy<Value = Placement> {
    prop_oneof![
        any::<u64>().prop_map(|seed| Placement::Random { seed }),
        Just(Placement::LowIds),
        Just(Placement::HighIds),
    ]
}

/// (loss schedule, scenario) shapes, parameterized by `n` and `q` at
/// build time via the returned closure inputs.
#[derive(Debug, Clone, Copy)]
enum Adversity {
    r#Static,
    ConstantLoss(u8),
    Burst { from_q8: u8, width: u8 },
    Churn,
    PartitionHeal,
}

fn adversities() -> impl Strategy<Value = Adversity> {
    prop_oneof![
        Just(Adversity::Static),
        (1u8..6).prop_map(Adversity::ConstantLoss),
        (0u8..8, 0u8..6).prop_map(|(from_q8, width)| Adversity::Burst { from_q8, width }),
        Just(Adversity::Churn),
        Just(Adversity::PartitionHeal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_runs_resume_bit_identically(
        n in 12usize..36,
        topo in topologies(),
        fault_frac in 0.0f64..0.3,
        placement in placements(),
        adversity in adversities(),
        per_agent in any::<bool>(),
        threads in 1usize..4,
        ckpt_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        // `record_ops` builds the good-execution audit, which resume
        // must reproduce too.
        let mut builder = RunConfig::builder(n)
            .gamma(3.0)
            .colors(vec![n - n / 2, n / 2])
            .topology(topo)
            .record_ops(true);
        if fault_frac > 0.0 {
            builder = builder.faults(fault_frac, placement);
        }
        let q = RunConfig::builder(n).gamma(3.0).build().params().q;
        match adversity {
            Adversity::Static => {}
            Adversity::ConstantLoss(p8) => {
                builder = builder.message_loss(p8 as f64 / 16.0);
            }
            Adversity::Burst { from_q8, width } => {
                let from = (from_q8 as usize * q) / 2; // 0..4q in q/2 steps
                builder = builder.loss_schedule(LossSchedule::burst(
                    0.05,
                    0.9,
                    from,
                    from + width as usize,
                ));
            }
            Adversity::Churn => {
                builder = builder.scenario(
                    ScenarioScript::new()
                        .crash(q / 2, (n - n / 4..n).map(|i| i as u32).collect())
                        .recover(2 * q, (n - n / 8..n).map(|i| i as u32).collect()),
                );
            }
            Adversity::PartitionHeal => {
                builder = builder.scenario(
                    ScenarioScript::new()
                        .partition(q, PartitionCut::split_at(n, n / 2))
                        .heal(2 * q + 1),
                );
            }
        }
        let mut cfg = builder.build();
        cfg.rng_discipline = if per_agent {
            RngDiscipline::PerAgent
        } else {
            RngDiscipline::Sequential
        };
        cfg.threads = if per_agent { threads } else { 1 };

        let total = 4 * cfg.params().q;
        let ckpt_round = ((ckpt_frac * total as f64) as usize).clamp(1, total);

        // Straight run, snapshotting only at the chosen round.
        let mut net = build_network_slots(&cfg, seed, &mut honest_slot_factory);
        let mut snapshot: Option<Vec<u8>> = None;
        drive_with_checkpoints(&mut net, &cfg, seed, Some(1), &mut |round, bytes| {
            if round == ckpt_round {
                snapshot = Some(bytes.to_vec());
            }
        }).expect("straight run");
        let straight = collect_report(&net, &cfg);
        let bytes = snapshot.expect("checkpoint round visited");

        // Restore and finish.
        let restored = restore_network(&cfg, &bytes).expect("restore");
        let mut net2 = restored.net;
        drive_with_checkpoints(&mut net2, &cfg, restored.seed, None, &mut |_, _| {})
            .expect("resumed run");
        let resumed = collect_report(&net2, &cfg);

        prop_assert_eq!(
            report_digest(&resumed),
            report_digest(&straight),
            "resume at {}/{} diverged (cfg: {:?})",
            ckpt_round, total, cfg
        );
        prop_assert_eq!(&resumed.metrics, &straight.metrics);
        prop_assert_eq!(&resumed.audit, &straight.audit);
    }
}
