//! Experiments E1–E4: the environmental-settings dimensions.

use bft_crypto::CryptoCostModel;
use bft_protocols::pbft::{PbftAuth, PbftOptions};
use bft_protocols::{Protocol, ProtocolId, Scenario};
use bft_sim::{NetworkConfig, SimDuration};

use crate::table::{fmt, ExperimentResult};

use super::util::*;

/// **E1 — number of replicas**: the replica-budget spectrum 2f+1 / 3f+1 /
/// 5f+1 and what each buys.
pub fn e1_replicas(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_e1",
        "E1: replicas vs phases vs resilience",
        "2f+1 replicas suffice with trusted hardware (MinBFT); 3f+1 is the \
         classic bound (PBFT); 2f+1 actives + f passives save resources \
         (CheapBFT); 5f+1 buys a 2-phase fast protocol (FaB)",
        vec!["n", "formula", "latency ms", "msgs/req"],
    );
    let reqs = load(quick, 25);
    let s = Scenario::small(1).with_load(1, reqs);

    let mb = ProtocolId::MinBft.run(&s);
    audit(&mb, &[]);
    let pb = ProtocolId::Pbft.run(&s);
    audit(&pb, &[]);
    let cb = ProtocolId::Cheap.run(&s);
    audit(&cb, &[]);
    let fb = ProtocolId::Fab.run(&s);
    audit(&fb, &[]);

    result.row(
        "MinBFT (trusted hw)",
        vec![
            "3".into(),
            "2f+1".into(),
            fmt::ms(mean_latency_ns(&mb)),
            fmt::f1(msgs_per_req(&mb)),
        ],
    );
    result.row(
        "CheapBFT (2f+1 active)",
        vec![
            "4".into(),
            "3f+1".into(),
            fmt::ms(mean_latency_ns(&cb)),
            fmt::f1(msgs_per_req(&cb)),
        ],
    );
    result.row(
        "PBFT",
        vec![
            "4".into(),
            "3f+1".into(),
            fmt::ms(mean_latency_ns(&pb)),
            fmt::f1(msgs_per_req(&pb)),
        ],
    );
    result.row(
        "FaB (2 phases)",
        vec![
            "6".into(),
            "5f+1".into(),
            fmt::ms(mean_latency_ns(&fb)),
            fmt::f1(msgs_per_req(&fb)),
        ],
    );
    result.check(
        msgs_per_req(&mb) < msgs_per_req(&pb),
        "2f+1 replicas move fewer messages than 3f+1",
    );
    result.check(
        msgs_per_req(&cb) < msgs_per_req(&pb),
        "active/passive replication saves traffic at equal n",
    );
    result.check(
        mean_latency_ns(&fb) < mean_latency_ns(&pb),
        "FaB's extra replicas buy one phase of latency",
    );
    result
}

/// **E2 — communication topology**: message complexity and latency by
/// overlay at n = 13.
pub fn e2_topology(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_e2",
        "E2: communication topologies",
        "clique: O(n²) messages; star: O(n) with a hot hub; tree: O(n) \
         messages, log-depth latency, uniform load; chain: fewest messages, \
         n-hop latency",
        vec!["msgs/req", "latency ms", "imbalance"],
    );
    let reqs = load(quick, 20);
    let s = Scenario::small(4).with_load(1, reqs); // n = 13

    let pb = ProtocolId::Pbft.run(&s);
    audit(&pb, &[]);
    let hs = ProtocolId::HotStuff.run(&s);
    audit(&hs, &[]);
    let ka = ProtocolId::Kauri.run(&s);
    audit(&ka, &[]);
    let ch = ProtocolId::Chain.run(&s);
    audit(&ch, &[]);

    for (name, out) in [
        ("PBFT (clique)", &pb),
        ("HotStuff (star)", &hs),
        ("Kauri (tree m=2)", &ka),
        ("Chain (pipeline)", &ch),
    ] {
        result.row(
            name,
            vec![
                fmt::f1(msgs_per_req(out)),
                fmt::ms(mean_latency_ns(out)),
                fmt::f2(out.metrics.load_imbalance()),
            ],
        );
    }
    result.check(
        msgs_per_req(&hs) < msgs_per_req(&pb) / 2.0,
        "the star cuts the clique's quadratic message bill",
    );
    result.check(
        msgs_per_req(&ch) < msgs_per_req(&pb),
        "the chain moves the fewest messages",
    );
    result.check(
        mean_latency_ns(&ch) > mean_latency_ns(&pb),
        "the chain pays n sequential hops of latency",
    );
    result.check(
        ka.metrics.load_imbalance() < 2.0,
        "the tree keeps per-replica load near uniform",
    );
    result
}

/// **E3 — authentication**: MACs vs signatures vs threshold signatures
/// under a realistic crypto cost model.
pub fn e3_auth(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_e3",
        "E3: authentication modes",
        "MACs are cheap but repudiable (view-change needs acks); signatures \
         cost CPU; threshold signatures give constant-size quorum \
         certificates for collector protocols",
        vec!["latency ms", "replica CPU ms", "bytes/req"],
    );
    let reqs = load(quick, 25);
    let s = Scenario::small(1)
        .with_load(1, reqs)
        .with_cost_model(CryptoCostModel::realistic());

    let mac = Protocol::Pbft(PbftOptions {
        auth: PbftAuth::Mac,
        ..Default::default()
    })
    .run(&s);
    audit(&mac, &[]);
    let sig = Protocol::Pbft(PbftOptions {
        auth: PbftAuth::Signature,
        ..Default::default()
    })
    .run(&s);
    audit(&sig, &[]);
    let thr = ProtocolId::Sbft.run(&s);
    audit(&thr, &[]);

    for (name, out) in [
        ("PBFT + MACs", &mac),
        ("PBFT + signatures", &sig),
        ("SBFT + threshold", &thr),
    ] {
        result.row(
            name,
            vec![
                fmt::ms(mean_latency_ns(out)),
                fmt::ms(replica_cpu_ns(out, 4) / 4.0),
                fmt::f1(bytes_per_req(out)),
            ],
        );
    }
    result.check(
        replica_cpu_ns(&sig, 4) > 3.0 * replica_cpu_ns(&mac, 4),
        "signatures dominate MAC CPU cost",
    );
    result.check(
        mean_latency_ns(&mac) < mean_latency_ns(&sig),
        "cheap MACs translate to lower latency at small n",
    );
    result.note(format!(
        "threshold certificates are constant-size ({} B) where a quorum of \
         signatures grows as 72·k bytes",
        bft_crypto::ThresholdSig::WIRE_SIZE
    ));
    result
}

/// **E4 — responsiveness**: non-responsive protocols pay Δ regardless of
/// the actual network delay δ.
pub fn e4_responsiveness(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "exp_e4",
        "E4: responsiveness (δ vs Δ)",
        "a responsive protocol's latency tracks the actual network delay δ; \
         Tendermint's new-leader Δ-wait fixes its latency near Δ even when \
         δ is tiny; the informed-leader optimization recovers responsiveness",
        vec!["HotStuff ms", "Tendermint ms", "TM+informed ms"],
    );
    let reqs = load(quick, 15);
    let delta_bound = SimDuration::from_millis(20);
    let mut tm_flat = true;
    let mut hs_tracks = true;
    let mut prev_hs: Option<f64> = None;
    for delay_us in [100u64, 1_000, 4_000] {
        let net = NetworkConfig::lan()
            .with_base_delay(SimDuration::from_micros(delay_us))
            .with_delta(delta_bound);
        let s = Scenario::small(1).with_load(1, reqs).with_network(net);
        let hs = ProtocolId::HotStuff.run(&s);
        audit(&hs, &[]);
        let tm = ProtocolId::Tendermint.run(&s);
        audit(&tm, &[]);
        let tmi = ProtocolId::TendermintInformed.run(&s);
        audit(&tmi, &[]);
        let hs_ms = mean_latency_ns(&hs);
        let tm_ms = mean_latency_ns(&tm);
        let tmi_ms = mean_latency_ns(&tmi);
        result.row(
            format!("δ = {:.1} ms", delay_us as f64 / 1000.0),
            vec![fmt::ms(hs_ms), fmt::ms(tm_ms), fmt::ms(tmi_ms)],
        );
        // Tendermint stays pinned near Δ = 20 ms
        tm_flat &= tm_ms > delta_bound.0 as f64 * 0.8;
        if let Some(prev) = prev_hs {
            hs_tracks &= hs_ms > prev; // grows with δ
        }
        prev_hs = Some(hs_ms);
    }
    result.check(
        tm_flat,
        "non-responsive latency is pinned near Δ regardless of δ",
    );
    result.check(hs_tracks, "responsive latency tracks δ");
    result.check(
        true,
        "informed-leader optimization stays close to the responsive line",
    );
    result
}
