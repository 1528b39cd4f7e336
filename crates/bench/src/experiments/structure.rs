//! Experiments P1–P6: the protocol-structure dimensions.

use bft_core::catalogue;
use bft_core::design::ReplyQuorum;
use bft_protocols::pbft::{Behavior, PbftOptions};

use bft_protocols::{prime, Protocol, ProtocolId, Scenario};
use bft_sim::{FaultPlan, NodeId, Observation, SimDuration, SimTime};
use bft_types::QuorumRules;

use crate::table::{fmt, ExperimentResult};

use super::util::*;

/// **P1 — commitment strategy**: optimistic protocols win when their
/// assumptions hold, lose when violated; robust protocols degrade the least
/// under attack.
pub fn p1_commitment(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_p1",
        "P1: commitment strategies under faults",
        "optimistic protocols outperform pessimistic ones in fault-free runs \
         but fall behind when assumptions fail; robust protocols bound the \
         damage of a delay-attacking leader",
        vec!["fault-free ms", "crash ms", "attacked req/s"],
    );
    let reqs = load(quick, 25);
    let free = Scenario::small(1).with_load(1, reqs);
    let crash = free
        .clone()
        .with_faults(FaultPlan::none().crash(NodeId::replica(2), SimTime::ZERO));
    let delay = SimDuration::from_millis(25);

    // Zyzzyva (speculative optimistic)
    let z_free = ProtocolId::Zyzzyva.run(&free);
    let z_crash = ProtocolId::Zyzzyva.run(&crash);
    audit(&z_free, &[]);
    audit(&z_crash, &[2]);
    // PBFT (pessimistic)
    let p_free = ProtocolId::Pbft.run(&free);
    let p_crash = ProtocolId::Pbft.run(&crash);
    let p_attacked = Protocol::Pbft(PbftOptions {
        behaviors: vec![(bft_types::ReplicaId(0), Behavior::DelayLeader(delay))],
        ..Default::default()
    })
    .run(&free);
    audit(&p_free, &[]);
    audit(&p_crash, &[2]);
    // Prime (robust)
    let r_free = ProtocolId::Prime.run(&free);
    let r_attacked = Protocol::Prime(vec![(
        bft_types::ReplicaId(0),
        prime::PrimeBehavior::DelayLeader(delay),
    )])
    .run(&free);
    audit(&r_free, &[]);
    audit(&r_attacked, &[0]);

    result.row(
        "Zyzzyva (speculative)",
        vec![
            fmt::ms(mean_latency_ns(&z_free)),
            fmt::ms(mean_latency_ns(&z_crash)),
            "—".into(),
        ],
    );
    result.row(
        "PBFT (pessimistic)",
        vec![
            fmt::ms(mean_latency_ns(&p_free)),
            fmt::ms(mean_latency_ns(&p_crash)),
            fmt::f1(throughput(&p_attacked)),
        ],
    );
    result.row(
        "Prime (robust)",
        vec![
            fmt::ms(mean_latency_ns(&r_free)),
            "—".into(),
            fmt::f1(throughput(&r_attacked)),
        ],
    );
    result.check(
        mean_latency_ns(&z_free) < mean_latency_ns(&p_free),
        "optimistic Zyzzyva beats pessimistic PBFT when assumptions hold",
    );
    result.check(
        mean_latency_ns(&z_crash) > mean_latency_ns(&p_crash),
        "one crash flips the ranking (Zyzzyva's fallback costs more)",
    );
    result.check(
        throughput(&r_attacked) > 3.0 * throughput(&p_attacked),
        "robust Prime bounds delay-attack damage far better than PBFT",
    );
    result
}

/// **P2 — number of commitment phases**: fewer phases, lower good-case
/// latency (in units of one-way network delay δ).
pub fn p2_phases(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_p2",
        "P2: good-case commitment phases",
        "good-case commit latency orders protocols by their number of \
         ordering phases: Zyzzyva (1) < FaB (2) < PBFT (3) < linear/rotating \
         protocols with more phases",
        vec!["phases (design space)", "latency ms", "latency/δ"],
    );
    let reqs = load(quick, 25);
    let s = Scenario::small(1).with_load(1, reqs);
    let delta = s.network.base_delay.0 as f64;

    let runs: Vec<(&str, usize, f64)> = vec![
        (
            "Zyzzyva",
            catalogue::zyzzyva().good_case_phases(),
            mean_latency_ns(&ProtocolId::Zyzzyva.run(&s)),
        ),
        (
            "FaB",
            catalogue::fab().good_case_phases(),
            mean_latency_ns(&bft_protocols::ProtocolId::Fab.run(&s)),
        ),
        (
            "PBFT",
            catalogue::pbft().good_case_phases(),
            mean_latency_ns(&ProtocolId::Pbft.run(&s)),
        ),
        (
            "SBFT",
            catalogue::sbft().good_case_phases(),
            mean_latency_ns(&ProtocolId::Sbft.run(&s)),
        ),
        (
            "HotStuff",
            catalogue::hotstuff().good_case_phases(),
            mean_latency_ns(&ProtocolId::HotStuff.run(&s)),
        ),
    ];
    for (name, phases, lat) in &runs {
        result.row(
            *name,
            vec![phases.to_string(), fmt::ms(*lat), fmt::f1(*lat / delta)],
        );
    }
    // the ordering must be monotone in phase count for the first three
    // (collector protocols add timer effects; we check the headline trio)
    result.check(
        runs[0].2 < runs[1].2 && runs[1].2 < runs[2].2,
        "Zyzzyva(1) < FaB(2) < PBFT(3) in good-case latency",
    );
    result.check(
        runs[4].2 > runs[2].2,
        "HotStuff's longer linear pipeline costs good-case latency vs PBFT",
    );
    result
}

/// **P3 — view change**: stable leaders pay a rare-but-expensive view
/// change; rotating leaders pay per-view synchronization but balance load
/// and shrug off leader failure.
pub fn p3_viewchange(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_p3",
        "P3: stable vs rotating leader",
        "the stable leader's view-change stage only runs on suspicion but is \
         expensive; rotating leaders absorb leader faults cheaply and \
         balance load",
        vec![
            "fault-free ms",
            "crash: views",
            "crash: stall ms",
            "imbalance",
        ],
    );
    let reqs = load(quick, 25);
    let free = Scenario::small(1).with_load(1, reqs);
    let crash = free
        .clone()
        .with_faults(FaultPlan::none().crash(NodeId::replica(0), SimTime(4_000_000)));

    let measure = |out: &bft_sim::runner::RunOutcome| {
        // the longest gap between consecutive client accepts = the stall
        let mut times: Vec<u64> = out
            .log
            .entries
            .iter()
            .filter(|e| matches!(e.obs, Observation::ClientAccept { .. }))
            .map(|e| e.at.0)
            .collect();
        times.sort_unstable();
        times.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0) as f64
    };

    let p_free = ProtocolId::Pbft.run(&free);
    let p_crash = ProtocolId::Pbft.run(&crash);
    audit(&p_crash, &[0]);
    let h_free = ProtocolId::HotStuff.run(&free);
    let h_crash = ProtocolId::HotStuff.run(&crash);
    audit(&h_crash, &[0]);

    result.row(
        "PBFT (stable)",
        vec![
            fmt::ms(mean_latency_ns(&p_free)),
            p_crash.log.max_view().0.to_string(),
            fmt::ms(measure(&p_crash)),
            fmt::f2(p_free.metrics.load_imbalance()),
        ],
    );
    result.row(
        "HotStuff (rotating)",
        vec![
            fmt::ms(mean_latency_ns(&h_free)),
            h_crash.log.max_view().0.to_string(),
            fmt::ms(measure(&h_crash)),
            fmt::f2(h_free.metrics.load_imbalance()),
        ],
    );
    result.check(
        mean_latency_ns(&p_free) < mean_latency_ns(&h_free),
        "the stable leader wins fault-free latency (shorter pipeline)",
    );
    result.check(
        p_free.log.max_view().0 == 0,
        "the stable leader never rotates without suspicion",
    );
    result.check(
        h_crash.log.max_view().0 > p_crash.log.max_view().0,
        "rotation burns views routinely where the stable leader holds one",
    );
    result.note("load-balance effects need n ≫ 4 and are measured by exp_q2");
    result
}

/// **P4 — checkpointing**: bounds retained state and restores in-dark
/// replicas.
pub fn p4_checkpoint(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_p4",
        "P4: checkpointing",
        "checkpointing garbage-collects the log and lets in-dark replicas \
         catch up via state transfer",
        vec![
            "stable ckpts",
            "state transfers",
            "dark replica execs",
            "accepted",
        ],
    );
    let reqs = load(quick, 200);
    // isolate the replica for roughly the first half of the run so traffic
    // continues after the heal (requests take ~0.55 ms each)
    let heal_at = SimTime(reqs * 300_000);
    for interval in [0u64, 16, 64] {
        let peers: Vec<NodeId> = (0..3).map(NodeId::replica).collect();
        let mut s = Scenario::small(1)
            .with_load(1, reqs)
            .with_faults(FaultPlan::none().isolate(
                NodeId::replica(3),
                peers,
                SimTime::ZERO,
                heal_at,
            ));
        s.checkpoint_interval = interval;
        let out = ProtocolId::Pbft.run(&s);
        audit(&out, &[]);
        let stable = out
            .log
            .count(|e| matches!(e.obs, Observation::StableCheckpoint { .. }));
        let transfers = out.log.marker_count("state-transferred");
        let dark_execs = out.log.count(|e| {
            e.node == NodeId::replica(3) && matches!(e.obs, Observation::Execute { .. })
        });
        result.row(
            if interval == 0 {
                "no checkpointing".into()
            } else {
                format!("interval {interval}")
            },
            vec![
                stable.to_string(),
                transfers.to_string(),
                dark_execs.to_string(),
                accepted(&out).to_string(),
            ],
        );
        if interval == 0 {
            result.check(
                transfers == 0,
                "without checkpoints there is no snapshot to ship",
            );
        } else if interval == 16 {
            result.check(stable > 0, "checkpoints become stable");
            result.check(
                transfers > 0,
                "the in-dark replica catches up by state transfer",
            );
        }
    }
    result.note(format!(
        "the isolated replica misses the first {:.0} ms of traffic",
        heal_at.0 as f64 / 1e6
    ));
    result
}

/// **P5 — recovery**: proactive rejuvenation keeps availability when the
/// replica budget is provisioned for it (3f+2k+1).
pub fn p5_recovery(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_p5",
        "P5: proactive recovery",
        "a recovering replica is unavailable; with n = 3f+2k+1 replicas the \
         system absorbs k concurrent rejuvenations without latency cliffs, \
         with plain 3f+1 it stalls whenever quorums graze the recovering \
         replica",
        vec!["n", "recoveries", "p99 ms", "accepted"],
    );
    let reqs = load(quick, 120);
    for (label, n_override) in [("n = 3f+1 = 4", None), ("n = 3f+2k+1 = 6", Some(6))] {
        let mut s = Scenario::small(1).with_load(1, reqs);
        s.n_override = n_override;
        // one replica is crashed outright: recovery now eats into the margin
        let s = s.with_faults(FaultPlan::none().crash(NodeId::replica(1), SimTime::ZERO));
        let out = Protocol::Pbft(PbftOptions {
            recovery_period: Some(SimDuration::from_millis(20)),
            ..Default::default()
        })
        .run(&s);
        audit(&out, &[1]);
        let recoveries = out
            .log
            .count(|e| matches!(e.obs, Observation::RecoveryStart));
        result.row(
            label,
            vec![
                s.n(4).to_string(),
                recoveries.to_string(),
                fmt::ms(p99_latency_ns(&out)),
                accepted(&out).to_string(),
            ],
        );
    }
    let rows = result.rows.clone();
    let p99_small: f64 = rows[0].values[2].parse().unwrap_or(0.0);
    let p99_big: f64 = rows[1].values[2].parse().unwrap_or(0.0);
    result.check(
        p99_big < p99_small,
        "the 3f+2k+1 budget absorbs rejuvenation without tail-latency cliffs",
    );
    result
}

/// **P6 — types of clients**: reply quorums differ per protocol; proposer
/// and repairer clients exist.
pub fn p6_clients(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_p6",
        "P6: client reply quorums",
        "requester clients wait for f+1 (PBFT), 2f+1 (PoE), 3f+1 (Zyzzyva) or \
         a single verifiable reply (SBFT's threshold-signed reply); Q/U \
         clients additionally act as proposers, Zyzzyva clients as repairers",
        vec!["design quorum", "replies received/req"],
    );
    let q = QuorumRules::classic(1);
    let reqs = load(quick, 20);
    let s = Scenario::small(1).with_load(1, reqs);

    let per_req = |out: &bft_sim::runner::RunOutcome| {
        out.metrics.node(NodeId::client(0)).msgs_received as f64 / accepted(out).max(1) as f64
    };

    let pbft_out = ProtocolId::Pbft.run(&s);
    let poe_out = ProtocolId::Poe.run(&s);
    let z_out = ProtocolId::Zyzzyva.run(&s);
    let sbft_out = ProtocolId::Sbft.run(&s);

    let rq = |r: ReplyQuorum| r.count(&q).to_string();
    result.row(
        "PBFT (f+1)",
        vec![
            rq(ReplyQuorum::WeakCertificate),
            fmt::f1(per_req(&pbft_out)),
        ],
    );
    result.row(
        "PoE (2f+1)",
        vec![rq(ReplyQuorum::Quorum), fmt::f1(per_req(&poe_out))],
    );
    result.row(
        "Zyzzyva (3f+1)",
        vec![rq(ReplyQuorum::All), fmt::f1(per_req(&z_out))],
    );
    result.row(
        "SBFT (single)",
        vec![rq(ReplyQuorum::Single), fmt::f1(per_req(&sbft_out))],
    );
    result.check(
        (per_req(&sbft_out) - 1.0).abs() < 0.2,
        "SBFT's collector sends exactly one verifiable reply",
    );
    result.check(
        per_req(&pbft_out) > 3.0,
        "plain protocols deliver ~n replies so the client can count matches",
    );
    result.note("proposer clients: Q/U (exp_dc9); repairer clients: Zyzzyva (exp_dc8)");
    result
}
