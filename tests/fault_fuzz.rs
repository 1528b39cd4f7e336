//! Randomized failure injection: property-based fault schedules within the
//! protocols' tolerance bounds. Safety must hold on every schedule; with at
//! most f crashed replicas, liveness must too.

use proptest::prelude::*;

use untrusted_txn::prelude::*;

const REQS: u64 = 8;

/// A randomly drawn fault schedule touching at most one replica (f = 1).
#[derive(Debug, Clone)]
struct Schedule {
    victim: u32,
    crash_at_us: u64,
    recovers: bool,
    recover_after_us: u64,
}

fn schedule_strategy(n: u32) -> impl Strategy<Value = Schedule> {
    (0..n, 0u64..20_000, any::<bool>(), 1_000u64..50_000).prop_map(
        |(victim, crash_at_us, recovers, recover_after_us)| Schedule {
            victim,
            crash_at_us,
            recovers,
            recover_after_us,
        },
    )
}

fn plan(s: &Schedule) -> FaultPlan {
    let at = SimTime(s.crash_at_us * 1_000);
    if s.recovers {
        FaultPlan::none().crash_recover(
            NodeId::replica(s.victim),
            at,
            SimTime((s.crash_at_us + s.recover_after_us) * 1_000),
        )
    } else {
        FaultPlan::none().crash(NodeId::replica(s.victim), at)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// PBFT under an arbitrary single-replica crash(/recover) schedule:
    /// safe and live.
    #[test]
    fn pbft_survives_random_crash_schedules(s in schedule_strategy(4), seed in 0u64..1000) {
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(plan(&s));
        let out = ProtocolId::Pbft.run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(s.victim)]).assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS,
            "liveness lost under {:?}", s);
    }

    /// HotStuff under the same schedules.
    #[test]
    fn hotstuff_survives_random_crash_schedules(s in schedule_strategy(4), seed in 0u64..1000) {
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(plan(&s));
        let out = ProtocolId::HotStuff.run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(s.victim)]).assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS,
            "liveness lost under {:?}", s);
    }

    /// Zyzzyva: speculation + random crash schedules. Safety must hold;
    /// liveness too (fast path or commit-certificate fallback).
    #[test]
    fn zyzzyva_survives_random_crash_schedules(s in schedule_strategy(4), seed in 0u64..1000) {
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(plan(&s));
        let out = ProtocolId::Zyzzyva.run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(s.victim)]).assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS,
            "liveness lost under {:?}", s);
    }

    /// SBFT: collector fast/slow paths under random crash schedules.
    #[test]
    fn sbft_survives_random_crash_schedules(s in schedule_strategy(4), seed in 0u64..1000) {
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(plan(&s));
        let out = ProtocolId::Sbft.run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(s.victim)]).assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS,
            "liveness lost under {:?}", s);
    }

    /// PoE: speculative execution + rollback machinery under random
    /// schedules.
    #[test]
    fn poe_survives_random_crash_schedules(s in schedule_strategy(4), seed in 0u64..1000) {
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(plan(&s));
        let out = ProtocolId::Poe.run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(s.victim)]).assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS,
            "liveness lost under {:?}", s);
    }

    /// FaB: the two-phase 5f+1 protocol under random schedules (n = 6).
    #[test]
    fn fab_survives_random_crash_schedules(s in schedule_strategy(6), seed in 0u64..1000) {
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(plan(&s));
        let out = ProtocolId::Fab.run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(s.victim)]).assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS,
            "liveness lost under {:?}", s);
    }

    /// Tendermint: Δ-wait rotation under random schedules.
    #[test]
    fn tendermint_survives_random_crash_schedules(s in schedule_strategy(4), seed in 0u64..1000) {
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(plan(&s));
        let out = ProtocolId::Tendermint.run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(s.victim)]).assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS,
            "liveness lost under {:?}", s);
    }

    /// MinBFT: 2f+1 trusted-hardware protocol under random schedules (n=3).
    #[test]
    fn minbft_survives_random_crash_schedules(s in schedule_strategy(3), seed in 0u64..1000) {
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(plan(&s));
        let out = ProtocolId::MinBft.run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(s.victim)]).assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS,
            "liveness lost under {:?}", s);
    }

    /// PBFT under a random transient partition of one replica: safe, live,
    /// and the healed replica is never blamed by the auditor.
    #[test]
    fn pbft_survives_random_partitions(
        victim in 0u32..4,
        from_us in 0u64..10_000,
        len_us in 1_000u64..40_000,
        seed in 0u64..1000,
    ) {
        let peers: Vec<NodeId> = (0..4)
            .filter(|i| *i != victim)
            .map(NodeId::replica)
            .collect();
        let scenario = Scenario::small(1)
            .with_load(1, REQS)
            .with_seed(seed)
            .with_faults(FaultPlan::none().isolate(
                NodeId::replica(victim),
                peers,
                SimTime(from_us * 1_000),
                SimTime((from_us + len_us) * 1_000),
            ));
        let out = ProtocolId::Pbft.run(&scenario);
        SafetyAuditor::all_correct().assert_safe(&out.log);
        prop_assert_eq!(out.log.accepted() as u64, REQS);
    }

    /// A Byzantine PBFT leader drawn from the attack gallery can never
    /// violate safety, whichever attack and seed. Variant 0 is the
    /// wire-level adversary (a fully muted leader — the envelope-layer
    /// successor of the retired `Behavior::SilentLeader`); the rest are
    /// content-dependent protocol behaviors.
    #[test]
    fn byzantine_leader_gallery_is_always_safe(which in 0usize..4, seed in 0u64..1000) {
        let mut scenario = Scenario::small(1).with_load(2, 6).with_seed(seed);
        let mut options = PbftOptions::default();
        match which {
            0 => {
                scenario =
                    scenario.with_adversaries(vec![AdversarySpec::new(0, Attack::mute())]);
            }
            1 => options.behaviors = vec![(ReplicaId(0), Behavior::Equivocate)],
            2 => options.behaviors = vec![(ReplicaId(0), Behavior::Censor(ClientId(0)))],
            _ => options.behaviors = vec![(ReplicaId(0), Behavior::Favor(ClientId(0)))],
        }
        let out = Protocol::Pbft(options).run(&scenario);
        SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
        // liveness too: every attack in the gallery is recoverable
        prop_assert_eq!(out.log.accepted() as u64, 12);
    }
}

#[test]
fn pbft_is_live_after_gst() {
    // asynchronous until GST = 80 ms (adversarial delays, 20% drops), then
    // synchronous: the FLP-circumvention claim of §2 — liveness resumes
    let net = NetworkConfig::lan()
        .with_gst(SimTime(80_000_000))
        .with_pre_gst_drop(0.2);
    let s = Scenario::small(1).with_load(1, 10).with_network(net);
    let out = ProtocolId::Pbft.run(&s);
    SafetyAuditor::all_correct().assert_safe(&out.log);
    assert_eq!(out.log.accepted(), 10, "all requests commit after GST");
    // at least some acceptances happen only after stabilization
    let after_gst = out
        .log
        .entries
        .iter()
        .filter(|e| {
            matches!(e.obs, Observation::ClientAccept { .. }) && e.at >= SimTime(80_000_000)
        })
        .count();
    assert!(after_gst > 0, "the asynchronous period must actually bite");
}

#[test]
fn two_fault_budget_holds_at_f2() {
    // n = 7, f = 2: crash two replicas at different times — still safe+live
    let s = Scenario::small(2).with_load(1, 10).with_faults(
        FaultPlan::none()
            .crash(NodeId::replica(3), SimTime(1_000_000))
            .crash(NodeId::replica(5), SimTime(3_000_000)),
    );
    let out = ProtocolId::Pbft.run(&s);
    SafetyAuditor::excluding(vec![NodeId::replica(3), NodeId::replica(5)]).assert_safe(&out.log);
    assert_eq!(out.log.accepted(), 10);
}

#[test]
fn exceeding_f_crashes_stalls_but_stays_safe() {
    // n = 4, f = 1, but TWO replicas crash: the paper (P5) — beyond f the
    // protocol gives no liveness guarantees, but our safety auditor must
    // still find no divergence among the survivors
    let s = Scenario::small(1).with_load(1, 10).with_faults(
        FaultPlan::none()
            .crash(NodeId::replica(2), SimTime(2_000_000))
            .crash(NodeId::replica(3), SimTime(2_000_000)),
    );
    let out = ProtocolId::Pbft.run(&s);
    SafetyAuditor::excluding(vec![NodeId::replica(2), NodeId::replica(3)]).assert_safe(&out.log);
    assert!(
        (out.log.accepted() as u64) < 10,
        "with 2f crashes a quorum is unreachable — the run must stall"
    );
}
