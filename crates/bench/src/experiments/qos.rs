//! Experiments Q1–Q2: the quality-of-service dimensions.

use bft_core::workload::WorkloadConfig;
use bft_protocols::fair::mean_displacement;
use bft_protocols::pbft::{Behavior, PbftOptions};
use bft_protocols::{Protocol, ProtocolId, Scenario};
use bft_sim::{NodeId, Observation};
use bft_types::{ClientId, ReplicaId};

use crate::table::{fmt, ExperimentResult};

use super::util::*;

/// **Q1 — order-fairness**: a Byzantine PBFT leader can reorder and censor;
/// fair preordering prevents both.
pub fn q1_fairness(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_q1",
        "Q1: order-fairness under adversarial leaders",
        "an adversarial leader can front-run (reorder) and censor requests; \
         γ-fair preordering derives the order from 2f+1 receive orders, \
         taking it out of the leader's hands",
        vec!["displacement", "victim mean ms", "others mean ms"],
    );
    let reqs = load(quick, 15);
    // a compute-heavy workload builds the leader-side backlog front-running
    // needs to be visible
    // per-request compute plus batching gives the leader a mempool to
    // reorder; more clients than the batch size means favored requests jump
    // whole batches, which closed-loop feedback cannot mask
    let s = Scenario::small(1)
        .with_load(8, reqs)
        .with_batch(4)
        .with_workload(WorkloadConfig::uniform().with_work(300));

    let victim = ClientId(2);
    let per_client_latency = |out: &bft_sim::runner::RunOutcome, c: ClientId| -> f64 {
        let mut sum = 0u64;
        let mut cnt = 0u64;
        for e in &out.log.entries {
            if let Observation::ClientAccept {
                request, sent_at, ..
            } = e.obs
            {
                if request.client == c {
                    sum += e.at.since(sent_at).0;
                    cnt += 1;
                } else {
                    continue;
                }
            }
        }
        if cnt == 0 {
            f64::INFINITY
        } else {
            sum as f64 / cnt as f64
        }
    };
    let others_latency = |out: &bft_sim::runner::RunOutcome| -> f64 {
        let mut sum = 0.0;
        let mut cnt = 0.0;
        for c in 0u64..8 {
            if c != victim.0 && c != 3 {
                sum += per_client_latency(out, ClientId(c));
                cnt += 1.0;
            }
        }
        sum / cnt
    };

    let honest = ProtocolId::Pbft.run(&s);
    audit(&honest, &[]);
    let frontrun = Protocol::Pbft(PbftOptions {
        behaviors: vec![(ReplicaId(0), Behavior::Favor(ClientId(3)))],
        ..Default::default()
    })
    .run(&s);
    audit(&frontrun, &[0]);
    let censor = Protocol::Pbft(PbftOptions {
        behaviors: vec![(ReplicaId(0), Behavior::Censor(victim))],
        ..Default::default()
    })
    .run(&s);
    audit(&censor, &[0]);
    let fair_out = ProtocolId::Fair.run(&s);
    audit(&fair_out, &[]);

    for (name, out) in [
        ("PBFT, honest leader", &honest),
        ("PBFT, front-running leader", &frontrun),
        ("PBFT, censoring leader", &censor),
        ("Fair (Themis-style)", &fair_out),
    ] {
        result.row(
            name,
            vec![
                fmt::f2(mean_displacement(out, NodeId::replica(1))),
                fmt::ms(per_client_latency(out, victim)),
                fmt::ms(others_latency(out)),
            ],
        );
    }
    result.check(
        mean_displacement(&frontrun, NodeId::replica(1))
            > mean_displacement(&honest, NodeId::replica(1)),
        "the front-running leader measurably reorders",
    );
    // paired comparison against the honest run: per-client latencies differ
    // even under an honest leader (arrival phases are client-specific), so
    // the attack's effect is each client's latency vs its own honest
    // baseline — the favored client gains, everyone else foots the bill
    let favored_gain = per_client_latency(&frontrun, ClientId(3))
        < per_client_latency(&honest, ClientId(3))
        && others_latency(&frontrun) >= others_latency(&honest);
    result.check(
        favored_gain,
        "the favored client jumps the queue (faster than under an honest leader, \
         at the others' expense)",
    );
    result.check(
        mean_displacement(&fair_out, NodeId::replica(1))
            < mean_displacement(&frontrun, NodeId::replica(1)),
        "fair preordering keeps execution order close to arrival order",
    );
    result.check(
        per_client_latency(&censor, victim) > 2.0 * others_latency(&censor),
        "the censored client only completes via view-change detours",
    );
    result.note("displacement = mean |execution rank − send rank| per request");
    result
}

/// **Q2 — load balancing**: the leader is the bottleneck; rotation, trees
/// and collectors redistribute differently.
pub fn q2_loadbalance(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_q2",
        "Q2: load balancing",
        "stable-leader protocols concentrate traffic at the leader; leader \
         rotation amortizes the hot spot over time; trees flatten it \
         structurally",
        vec!["imbalance", "max node msgs", "mean node msgs"],
    );
    let reqs = load(quick, 20);
    let s = Scenario::small(4).with_load(1, reqs); // n = 13

    let runs: Vec<(&str, bft_sim::runner::RunOutcome)> = vec![
        ("PBFT (stable, clique)", ProtocolId::Pbft.run(&s)),
        ("SBFT (stable, star)", ProtocolId::Sbft.run(&s)),
        ("HotStuff (rotating, star)", ProtocolId::HotStuff.run(&s)),
        ("Kauri (tree m=2)", ProtocolId::Kauri.run(&s)),
    ];
    let mut stats: Vec<(f64, f64, f64)> = Vec::new();
    for (name, out) in &runs {
        audit(out, &[]);
        let loads: Vec<u64> = (0..13u32)
            .map(|i| {
                let c = out.metrics.node(NodeId::replica(i));
                c.msgs_sent + c.msgs_received
            })
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        stats.push((out.metrics.load_imbalance(), max, mean));
        result.row(
            *name,
            vec![
                fmt::f2(out.metrics.load_imbalance()),
                fmt::f1(max),
                fmt::f1(mean),
            ],
        );
    }
    result.check(
        stats[3].0 < stats[1].0,
        "the tree flattens the stable collector's hot spot",
    );
    result.check(
        stats[2].0 < stats[1].0,
        "rotation amortizes the hot spot over replicas",
    );
    result
}
