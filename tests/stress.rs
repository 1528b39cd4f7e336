//! Stress scenarios: larger clusters, longer runs, realistic crypto costs
//! and compound fault schedules — the closest the suite gets to a soak
//! test while staying deterministic.

use untrusted_txn::crypto::CryptoCostModel;
use untrusted_txn::prelude::*;

#[test]
fn pbft_large_cluster_compound_faults() {
    // n = 13 (f = 4), 4 clients × 75 requests, realistic crypto costs,
    // one backup crashed outright, another partitioned and healed,
    // checkpointing every 32 slots.
    let mut s = Scenario::small(4)
        .with_load(4, 75)
        .with_cost_model(CryptoCostModel::realistic())
        .with_faults(
            FaultPlan::none()
                .crash(NodeId::replica(7), SimTime(5_000_000))
                .isolate(
                    NodeId::replica(9),
                    (0..13).filter(|i| *i != 9).map(NodeId::replica).collect(),
                    SimTime(10_000_000),
                    SimTime(120_000_000),
                ),
        );
    s.checkpoint_interval = 32;
    let out = ProtocolId::Pbft.run(&s);
    SafetyAuditor::excluding(vec![NodeId::replica(7)]).assert_safe(&out.log);
    assert_eq!(out.log.accepted(), 300, "all requests complete");
    let stable = out
        .log
        .count(|e| matches!(e.obs, Observation::StableCheckpoint { .. }));
    assert!(stable > 0, "checkpointing must run at this scale");
}

#[test]
fn hotstuff_wan_with_crash() {
    // geo-replicated profile (δ = 25 ms) with a replica crash: rotation
    // must keep making progress at WAN latencies
    let s = Scenario::small(2)
        .with_load(1, 30)
        .with_network(NetworkConfig::wan())
        .with_faults(FaultPlan::none().crash(NodeId::replica(3), SimTime(50_000_000)));
    let out = ProtocolId::HotStuff.run(&s);
    SafetyAuditor::excluding(vec![NodeId::replica(3)]).assert_safe(&out.log);
    assert_eq!(out.log.accepted(), 30);
}

#[test]
fn zyzzyva_sustained_slow_path() {
    // a crashed backup forces EVERY request through the commit-certificate
    // path for the whole run — the fallback must be stable, not just
    // survivable
    let s = Scenario::small(1)
        .with_load(2, 60)
        .with_faults(FaultPlan::none().crash(NodeId::replica(3), SimTime::ZERO));
    let out = ProtocolId::Zyzzyva.run(&s);
    SafetyAuditor::excluding(vec![NodeId::replica(3)]).assert_safe(&out.log);
    assert_eq!(out.log.accepted(), 120);
    let fast = out.log.count(|e| {
        matches!(
            e.obs,
            Observation::ClientAccept {
                fast_path: true,
                ..
            }
        )
    });
    assert_eq!(
        fast, 0,
        "no fast-path accept is possible with a dead replica"
    );
}

#[test]
fn mixed_contention_many_clients() {
    // 12 clients hammering a hot key through PBFT with batching: ordering
    // must serialize correctly (the auditor cross-checks state digests)
    let s = Scenario::small(1)
        .with_load(12, 25)
        .with_batch(8)
        .with_workload(untrusted_txn::core::workload::WorkloadConfig::contended(
            0.8,
        ));
    let out = ProtocolId::Pbft.run(&s);
    SafetyAuditor::all_correct().assert_safe(&out.log);
    assert_eq!(out.log.accepted(), 300);
}

#[test]
fn long_view_change_cascade() {
    // crash leaders of views 0 AND 1 (replicas 0, 1) in a 7-replica
    // cluster: two consecutive view changes must cascade cleanly
    let s = Scenario::small(2).with_load(1, 20).with_faults(
        FaultPlan::none()
            .crash(NodeId::replica(0), SimTime(3_000_000))
            .crash(NodeId::replica(1), SimTime(3_000_000)),
    );
    let out = ProtocolId::Pbft.run(&s);
    SafetyAuditor::excluding(vec![NodeId::replica(0), NodeId::replica(1)]).assert_safe(&out.log);
    assert!(
        out.log.max_view() >= View(2),
        "both dead leaders must be skipped"
    );
    assert_eq!(out.log.accepted(), 20);
}
