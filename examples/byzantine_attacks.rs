//! Byzantine attack gallery: what each adversary can and cannot do.
//!
//! Safety (no two correct replicas disagree) must survive every attack;
//! what the adversary *can* damage is performance and fairness — exactly
//! the dimensions the paper's robust and fair protocols defend.
//!
//! ```text
//! cargo run --release --example byzantine_attacks
//! ```

use untrusted_txn::core::workload::WorkloadConfig;
use untrusted_txn::prelude::*;
use untrusted_txn::protocols::fair::mean_displacement;

fn main() {
    let base = Scenario::small(1).with_load(2, 15);

    // ── 1. the equivocating leader ───────────────────────────────────────
    println!("1. EQUIVOCATION — the leader proposes different batches to");
    println!("   different halves of the backups for the same slot.\n");
    let out = Protocol::Pbft(PbftOptions {
        behaviors: vec![(ReplicaId(0), Behavior::Equivocate)],
        ..Default::default()
    })
    .run(&base);
    SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
    println!(
        "   the leader equivocated on {} slot(s); safety audit PASSED — the",
        out.log.marker_count("equivocated")
    );
    println!("   prepare phase's quorum intersection makes divergent commits impossible.");
    println!(
        "   liveness: {} of {} requests still completed (view changes replaced the leader).\n",
        out.log.accepted(),
        base.total_requests()
    );

    // ── 2. the silent leader ────────────────────────────────────────────
    // Silence is a wire-level attack, so it is mounted at the network
    // boundary: the adversary layer censors every envelope the compromised
    // leader sends, whatever the protocol. No PBFT-specific hook needed.
    println!("2. SILENCE — the compromised leader's outbound wire is muted.\n");
    let out = Protocol::Pbft(PbftOptions::default()).run(
        &base
            .clone()
            .with_adversaries(vec![AdversarySpec::new(0, Attack::mute())]),
    );
    SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
    println!(
        "   timer τ2 fired, the cluster moved to view {}, all {} requests completed.\n",
        out.log.max_view(),
        out.log.accepted()
    );

    // ── 3. the censoring leader ─────────────────────────────────────────
    println!("3. CENSORSHIP — the leader drops every request from client c1.\n");
    let out = Protocol::Pbft(PbftOptions {
        behaviors: vec![(ReplicaId(0), Behavior::Censor(ClientId(1)))],
        ..Default::default()
    })
    .run(&base);
    SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&out.log);
    let lat = |c: u64| -> f64 {
        let mut sum = 0.0;
        let mut n = 0.0;
        for e in &out.log.entries {
            if let Observation::ClientAccept {
                request, sent_at, ..
            } = e.obs
            {
                if request.client == ClientId(c) {
                    sum += e.at.since(sent_at).as_millis_f64();
                    n += 1.0;
                }
            }
        }
        sum / f64::max(n, 1.0)
    };
    println!(
        "   victim (c1) mean latency: {:.3} ms — every request needed a",
        lat(1)
    );
    println!("   retransmission + view change to get past the censor.");
    println!("   bystander (c0) mean latency: {:.3} ms.\n", lat(0));

    // ── 4. the front-running leader ─────────────────────────────────────
    println!("4. FRONT-RUNNING — the leader reorders its mempool to serve a");
    println!("   favored client first (Q1: order-fairness).\n");
    let loaded = Scenario::small(1)
        .with_load(8, 10)
        .with_batch(4)
        .with_workload(WorkloadConfig::uniform().with_work(300));
    let honest = ProtocolId::Pbft.run(&loaded);
    let fr = Protocol::Pbft(PbftOptions {
        behaviors: vec![(ReplicaId(0), Behavior::Favor(ClientId(3)))],
        ..Default::default()
    })
    .run(&loaded);
    let fair_run = ProtocolId::Fair.run(&loaded);
    SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&fr.log);
    SafetyAuditor::all_correct().assert_safe(&fair_run.log);
    println!(
        "   displacement from arrival order: honest {:.2} | front-runner {:.2} | fair protocol {:.2}",
        mean_displacement(&honest, NodeId::replica(1)),
        mean_displacement(&fr, NodeId::replica(1)),
        mean_displacement(&fair_run, NodeId::replica(1)),
    );
    println!("   the Themis-style protocol derives the order from 2f+1 receive");
    println!("   orders, so the leader has nothing left to manipulate.\n");

    // ── 5. the delay attacker ───────────────────────────────────────────
    println!("5. DELAY ATTACK — the leader stays just below the view-change");
    println!("   timeout (P1 robust / DC12).\n");
    let d = SimDuration::from_millis(25);
    let pb = Protocol::Pbft(PbftOptions {
        behaviors: vec![(ReplicaId(0), Behavior::DelayLeader(d))],
        ..Default::default()
    })
    .run(&base);
    let pr = Protocol::Prime(vec![(ReplicaId(0), prime::PrimeBehavior::DelayLeader(d))]).run(&base);
    SafetyAuditor::excluding(vec![NodeId::replica(0)]).assert_safe(&pr.log);
    let tput = |o: &RunOutcome| o.log.accepted() as f64 / (o.end_time.0 as f64 / 1e9);
    println!(
        "   PBFT under attack:  {:>7.1} req/s (the attack works)",
        tput(&pb)
    );
    println!(
        "   Prime under attack: {:>7.1} req/s (τ7 monitoring detected the",
        tput(&pr)
    );
    println!(
        "   slow leader {} times and rotated it out)",
        pr.log.marker_count("leader-underperforming")
    );

    println!("\nevery attack audited: SAFETY HELD in all five scenarios ✓");
}
