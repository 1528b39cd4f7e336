//! The safety × liveness matrix: every protocol in the suite, under every
//! fault scenario it claims to tolerate, must (a) never let two correct
//! replicas diverge and (b) complete the whole workload.

use untrusted_txn::prelude::*;

const REQS: u64 = 15;

fn scenarios() -> Vec<(&'static str, Scenario, Vec<u32>)> {
    let base = Scenario::small(1).with_load(1, REQS);
    vec![
        ("fault-free", base.clone(), vec![]),
        (
            "backup crash at t=0",
            base.clone()
                .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO)),
            vec![2],
        ),
        (
            "leader crash mid-run",
            base.clone()
                .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000))),
            vec![0],
        ),
        (
            "backup partitioned then healed",
            base.with_faults(FaultPlan::none().isolate(
                NodeId::replica(3),
                (0..3).map(NodeId::replica).collect(),
                SimTime(1_000_000),
                SimTime(30_000_000),
            )),
            vec![],
        ),
    ]
}

fn check(name: &str, scenario_name: &str, out: &RunOutcome, faulty: &[u32], expect: u64) {
    SafetyAuditor::excluding(faulty.iter().map(|i| NodeId::replica(*i)).collect())
        .assert_safe(&out.log);
    assert_eq!(
        out.log.accepted() as u64,
        expect,
        "{name} under '{scenario_name}' lost liveness"
    );
}

#[test]
fn pbft_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Pbft.run(&s);
        check("PBFT", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn zyzzyva_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Zyzzyva.run(&s);
        check("Zyzzyva", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn sbft_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Sbft.run(&s);
        check("SBFT", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn hotstuff_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::HotStuff.run(&s);
        check("HotStuff", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn tendermint_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Tendermint.run(&s);
        check("Tendermint", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn poe_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Poe.run(&s);
        check("PoE", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn fab_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Fab.run(&s);
        check("FaB", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn cheap_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Cheap.run(&s);
        check("CheapBFT", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn prime_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Prime.run(&s);
        check("Prime", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn fair_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Fair.run(&s);
        check("Fair", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn kauri_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Kauri.run(&s);
        check("Kauri", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn minbft_matrix() {
    // n = 2f+1 = 3: a crashed replica leaves exactly the f+1 quorum
    for (sname, s, faulty) in scenarios() {
        if sname == "backup partitioned then healed" {
            // replica 3 does not exist at n = 3; isolate replica 2 instead
            let s = Scenario::small(1)
                .with_load(1, REQS)
                .with_faults(FaultPlan::none().isolate(
                    NodeId::replica(2),
                    (0..2).map(NodeId::replica).collect(),
                    SimTime(1_000_000),
                    SimTime(30_000_000),
                ));
            let out = ProtocolId::MinBft.run(&s);
            check("MinBFT", sname, &out, &[], s.total_requests());
            continue;
        }
        let out = ProtocolId::MinBft.run(&s);
        check("MinBFT", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn chain_matrix() {
    for (sname, s, faulty) in scenarios() {
        let out = ProtocolId::Chain.run(&s);
        check("Chain", sname, &out, &faulty, s.total_requests());
    }
}

#[test]
fn qu_conflict_free_matrix() {
    // Q/U has no ordering: run it fault-free and with a crashed replica
    // (4f+1 of 5f+1 still reachable)
    let s = Scenario::small(1).with_load(2, REQS);
    let out = ProtocolId::Qu.run(&s);
    assert_eq!(out.log.accepted() as u64, s.total_requests());
    let s = Scenario::small(1)
        .with_load(2, REQS)
        .with_faults(FaultPlan::none().crash(NodeId::replica(5), SimTime::ZERO));
    let out = ProtocolId::Qu.run(&s);
    assert_eq!(out.log.accepted() as u64, s.total_requests());
}
