//! Per-layer measurements taken from outside: unit costs by timing public
//! calls into each crate, exact operation counts from short counting
//! runs, and the ledger that multiplies the two.
//!
//! The ledger is an estimate, not a profile: count × unit cost for
//! crypto, the engine and the state machine, and whatever remains of the
//! measured CPU per request is attributed to the protocol handler and the
//! driver (`ledger.other_us_per_req`). In-program spans replace these
//! estimates under the same names in a later change.

use std::collections::BTreeSet;
use std::hint::black_box;

use bft_bench::simload::{self, Blob};
use bft_core::{ReplyCollector, Workload as TxnGenerator};
use bft_crypto::sign::{verify_value, PartyId};
use bft_crypto::{
    digest_of, hmac_sha256, sha256, CryptoCostModel, KeyStore, MacKey, ThresholdScheme,
    ThresholdSigner,
};
use bft_protocols::{ProtocolId, Scenario};
use bft_sim::{
    Actor, Context, NodeId, Observation, SimDuration, SimTime, Simulation, ThreadedEngine,
};
use bft_state::StateMachine;
use bft_types::{
    ClientId, Digest, Op, ReplicaId, Reply, Request, RequestId, SeqNum, Transaction, TxnResult,
    View,
};

use crate::clock::{process_cpu_ns, Stopwatch};
use crate::stats::median;
use crate::workloads::{Case, Workload, SIM_PBFT_N16_OPEN, SIM_PBFT_N4};

/// Named per-layer values, in reporting order.
pub type Values = Vec<(String, f64)>;

/// Batches a unit cost is the median of.
const BATCHES: usize = 5;

/// CPU nanoseconds per call of `f`: median over [`BATCHES`] batches of
/// `iters` calls (the first batch doubles as warm-up).
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = process_cpu_ns();
            for _ in 0..iters {
                f();
            }
            (process_cpu_ns() - start) as f64 / iters as f64
        })
        .collect();
    median(&per_batch)
}

fn request(i: u64, op: Op) -> Request {
    Request::new(ClientId(1), i, Transaction::single(op))
}

/// `bft-crypto` unit costs: every primitive the protocols call, timed
/// through its public function. `div` shrinks iteration counts.
pub fn crypto_unit_costs(div: u64) -> Values {
    let mut out = Values::new();
    let mut put = |name: &str, v: f64| out.push((format!("crypto.{name}"), v));

    let data_64 = [0xabu8; 64];
    let data_1k = vec![0xabu8; 1024];
    put(
        "sha256_64b_ns",
        ns_per_call(40_000 / div, || {
            black_box(sha256(black_box(&data_64)));
        }),
    );
    put(
        "sha256_1k_ns",
        ns_per_call(4_000 / div, || {
            black_box(sha256(black_box(&data_1k)));
        }),
    );
    let req = request(7, Op::Add(42, 3));
    put(
        "digest_of_request_ns",
        ns_per_call(20_000 / div, || {
            black_box(digest_of(black_box(&req)));
        }),
    );
    put(
        "hmac_1k_ns",
        ns_per_call(4_000 / div, || {
            black_box(hmac_sha256(
                b"key-material-32-bytes-long......",
                black_box(&data_1k),
            ));
        }),
    );
    let mac_key = MacKey::derive(&[7u8; 32], 0, 1);
    put(
        "mac_ns",
        ns_per_call(20_000 / div, || {
            black_box(bft_crypto::hmac::mac(&mac_key, black_box(&data_64)));
        }),
    );

    // Signatures as the protocols use them: over a request's stable bytes.
    let store = KeyStore::new([7u8; 32]);
    let signer = store.signer_for(PartyId::client(1));
    let sig = signer.sign_value(&req);
    put(
        "sign_ns",
        ns_per_call(20_000 / div, || {
            black_box(signer.sign_value(black_box(&req)));
        }),
    );
    put(
        "verify_ns",
        ns_per_call(20_000 / div, || {
            black_box(verify_value(&store, black_box(&req), &sig));
        }),
    );

    // Threshold signatures: a 2f+1 = 9 of n = 13 quorum, as BENCH_sim.json.
    let msg = b"commit v3 s1932 digest=...";
    let signers: Vec<ThresholdSigner> = (0..13)
        .map(|i| ThresholdSigner::new(store.signer_for(PartyId::replica(i))))
        .collect();
    let shares: Vec<_> = signers[..9].iter().map(|s| s.share(msg)).collect();
    let scheme = ThresholdScheme::new(9);
    let cert = scheme
        .combine(&store, msg, &shares)
        .expect("nine valid shares combine");
    put(
        "threshold_share_ns",
        ns_per_call(20_000 / div, || {
            black_box(signers[0].share(black_box(msg)));
        }),
    );
    put(
        "threshold_combine_9of13_ns",
        ns_per_call(2_000 / div, || {
            black_box(scheme.combine(&store, msg, black_box(&shares)).is_ok());
        }),
    );
    put(
        "threshold_verify_ns",
        ns_per_call(20_000 / div, || {
            black_box(scheme.verify(&store, msg, black_box(&cert)));
        }),
    );
    out
}

/// A state machine holding `keys` distinct keys.
fn machine_with(keys: u64) -> StateMachine {
    let mut sm = StateMachine::new();
    for i in 1..=keys {
        sm.execute(SeqNum(i), &request(i, Op::Put(i, i as i64)));
    }
    sm
}

/// `bft-state` unit costs.
pub fn state_unit_costs(div: u64) -> Values {
    let mut out = Values::new();
    let mut put = |name: &str, v: f64| out.push((format!("state.{name}"), v));

    // Execution against a 1000-key store; requests are built outside the
    // timed call, the machine is rebuilt per batch so history stays short.
    const KEYS: u64 = 1_000;
    let ops = 20_000 / div.min(20);
    for (name, make) in [
        (
            "execute_put_ns",
            (|i| Op::Put(i % KEYS + 1, i as i64)) as fn(u64) -> Op,
        ),
        ("execute_get_ns", |i| Op::Get(i % KEYS + 1)),
    ] {
        let requests: Vec<Request> = (1..=ops).map(|i| request(KEYS + i, make(i))).collect();
        let per_batch: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let mut sm = machine_with(KEYS);
                let start = process_cpu_ns();
                for (i, r) in requests.iter().enumerate() {
                    black_box(sm.execute(SeqNum(KEYS + 1 + i as u64), r));
                }
                (process_cpu_ns() - start) as f64 / ops as f64
            })
            .collect();
        put(name, median(&per_batch));
    }

    for (name, keys, iters) in [
        ("snapshot_100_keys_us", 100, 2_000),
        ("snapshot_10k_keys_us", 10_000, 40),
        ("snapshot_50k_keys_us", 50_000, 10),
    ] {
        let sm = machine_with(keys);
        put(
            name,
            ns_per_call(iters / div, || {
                black_box(black_box(&sm).snapshot());
            }) / 1e3,
        );
    }

    let mut sm = machine_with(1);
    put(
        "speculate_rollback_50_us",
        ns_per_call(1_000 / div, || {
            for i in 2..=51u64 {
                sm.execute_speculative(SeqNum(i), &request(i, Op::Add(i % 8, 1)));
            }
            black_box(sm.rollback_to(SeqNum(2)));
        }) / 1e3,
    );

    let snap = machine_with(10_000).snapshot();
    let mut target = StateMachine::new();
    put(
        "install_snapshot_10k_us",
        ns_per_call(40 / div, || {
            target.install_snapshot(black_box(&snap));
        }) / 1e3,
    );
    out
}

/// `bft-core` unit costs: the client side of every workload.
pub fn core_unit_costs(div: u64) -> Values {
    let mut out = Values::new();
    let mut put = |name: &str, v: f64| out.push((format!("core.{name}"), v));

    let mut uniform = TxnGenerator::new((SIM_PBFT_N4.mix)(), 11);
    put(
        "next_txn_uniform_ns",
        ns_per_call(100_000 / div, || {
            black_box(uniform.next_txn());
        }),
    );
    let mut zipf = TxnGenerator::new((SIM_PBFT_N16_OPEN.mix)(), 11);
    put(
        "next_txn_zipf_ns",
        ns_per_call(100_000 / div, || {
            black_box(zipf.next_txn());
        }),
    );

    // One request's reply collection at f = 1: two matching replies reach
    // the f+1 quorum, then the collector is reset for the next request.
    let reply = Reply {
        request: RequestId {
            client: ClientId(1),
            timestamp: 1,
        },
        view: View(0),
        result: TxnResult {
            reads: vec![Some(5)],
        },
        state_digest: Digest([9u8; 32]),
        speculative: false,
    };
    let mut collector = ReplyCollector::new();
    put(
        "reply_collect_ns",
        ns_per_call(40_000 / div, || {
            black_box(collector.offer(ReplicaId(0), reply.clone(), 2));
            black_box(collector.offer(ReplicaId(1), reply.clone(), 2));
            collector.clear();
        }),
    );
    out
}

/// Run a prepared simulation to quiescence; CPU nanoseconds per unit of
/// `work` (median over batches, `build` excluded from the timing).
fn sim_ns_per(work: u64, build: impl Fn() -> Simulation<Blob>) -> f64 {
    let per_batch: Vec<f64> = (0..3)
        .map(|_| {
            let sim = build();
            let start = process_cpu_ns();
            black_box(simload::drain(sim).events_processed);
            (process_cpu_ns() - start) as f64 / work as f64
        })
        .collect();
    median(&per_batch)
}

/// `bft-sim` engine and network unit costs.
pub fn sim_unit_costs(div: u64) -> Values {
    let events = 1_000_000 / div;
    let fires = (100_000 / div) as u32;
    let rounds = (200 / div).max(1) as u32;
    vec![
        (
            "sim.ping_pong_ns_per_event".into(),
            sim_ns_per(events, || simload::ping_pong(events)),
        ),
        (
            "sim.timer_churn_ns".into(),
            sim_ns_per(fires as u64, || simload::timer_churn(fires)),
        ),
        (
            "sim.fanout_63x1k_ns_per_msg".into(),
            sim_ns_per((rounds as u64 + 1) * 63, || {
                simload::fan_out(64, 1 << 10, rounds)
            }),
        ),
        (
            "sim.empty_run_us".into(),
            ns_per_call(400 / div, || {
                let s = Scenario::small(1).with_load(1, 1);
                black_box(ProtocolId::Pbft.run(black_box(&s)).events_processed);
            }) / 1e3,
        ),
    ]
}

/// Bounces a counter between two threaded-engine nodes; the node that
/// sees `limit` reports a client accept, which ends the run.
struct EchoUntil {
    limit: u64,
    serve: bool,
}

impl Actor<Blob> for EchoUntil {
    fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
        if self.serve {
            ctx.send(NodeId::replica(1), Blob(0u64.to_le_bytes().to_vec()));
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &Blob, ctx: &mut Context<'_, Blob>) {
        let n = u64::from_le_bytes(msg.0[..8].try_into().expect("8-byte counter"));
        if n < self.limit {
            ctx.send(from, Blob((n + 1).to_le_bytes().to_vec()));
        } else {
            ctx.observe(Observation::ClientAccept {
                request: RequestId {
                    client: ClientId(0),
                    timestamp: n,
                },
                sent_at: SimTime::ZERO,
                fast_path: false,
                txn: Transaction::default(),
                result: TxnResult { reads: Vec::new() },
            });
        }
    }
}

/// Two echo actors on the threaded engine: wall microseconds per round
/// trip and process CPU nanoseconds per delivered message.
pub fn threaded_ping_pong(div: u64) -> (f64, f64) {
    let hops = 20_000 / div;
    let mut engine = ThreadedEngine::new(SimDuration::from_millis(200), 7);
    for (i, serve) in [(0, true), (1, false)] {
        engine.add_replica(i, Box::new(EchoUntil { limit: hops, serve }));
    }
    let watch = Stopwatch::start();
    let out = engine.run(1, SimDuration::from_secs(30));
    let took = watch.elapsed();
    assert!(
        out.events_processed >= hops,
        "threaded ping-pong stopped after {} of {hops} hops",
        out.events_processed
    );
    let rtt_us = out.metrics.wall_elapsed_ns as f64 / 1e3 / (hops as f64 / 2.0);
    (rtt_us, took.cpu_ns as f64 / out.events_processed as f64)
}

/// Crypto operations charged per accepted request, by class.
#[derive(Debug, Clone, Copy, Default)]
pub struct CryptoCounts {
    /// `Hash` charges.
    pub hash: f64,
    /// `MacGen` + `MacVerify` charges.
    pub mac: f64,
    /// `Sign` + `Verify` + `ThresholdShareVerify` charges.
    pub sig: f64,
    /// Threshold share, combine and verify charges.
    pub threshold: f64,
    /// The part of `sig` the ledger prices: per case at most one client
    /// signature plus one verification per replica.
    pub sig_computed: f64,
}

/// Requests a counting run issues per case set: enough to cross many
/// checkpoint intervals, short enough that several runs fit in a second.
const COUNTING_REQUESTS: u64 = 1_000;

/// The cases and per-client request count of a short counting run: the
/// workload's first seed only, shrunk to about [`COUNTING_REQUESTS`].
fn counting_shape(workload: &Workload, seed: u64, div: u64) -> (Vec<Case>, u64) {
    let cases: Vec<Case> = workload
        .cases(seed)
        .into_iter()
        .filter(|c| c.seed == seed)
        .collect();
    let per_client = workload.requests_at(div);
    let total = cases.len() as u64 * workload.clients as u64 * per_client;
    let shrink = total.div_ceil(COUNTING_REQUESTS).max(1);
    (cases, (per_client / shrink).max(1))
}

/// Per case: replicas, operations charged and requests accepted under a
/// cost model that charges 1 ns to the chosen operations and nothing to
/// the rest — the run's total charged CPU time then *is* the count.
fn charged(workload: &Workload, seed: u64, div: u64, model: CryptoCostModel) -> Vec<[u64; 3]> {
    let (cases, requests) = counting_shape(workload, seed, div);
    cases
        .into_iter()
        .map(|case| {
            let scenario = workload.scenario(case, requests).with_cost_model(model);
            let out = case.protocol.run(&scenario);
            let charged = out.metrics.nodes().map(|(_, c)| c.cpu.0).sum::<u64>();
            let accepted = out
                .log
                .count(|e| matches!(e.obs, Observation::ClientAccept { .. }));
            let n = workload.replicas(case.protocol);
            [n as u64, charged, accepted as u64]
        })
        .collect()
}

/// Count the crypto operations the workload charges per request, one
/// class per counting run.
pub fn crypto_counts(workload: &Workload, seed: u64, div: u64) -> CryptoCounts {
    let free = CryptoCostModel::free();
    let per_request = |cases: &[[u64; 3]], op: fn(&[u64; 3]) -> u64| {
        let accepted: u64 = cases.iter().map(|c| c[2]).sum();
        cases.iter().map(op).sum::<u64>() as f64 / accepted.max(1) as f64
    };
    let count = |model| per_request(&charged(workload, seed, div, model), |c| c[1]);
    let sig = charged(
        workload,
        seed,
        div,
        CryptoCostModel {
            sign_ns: 1,
            verify_ns: 1,
            ..free
        },
    );
    CryptoCounts {
        hash: count(CryptoCostModel { hash_ns: 1, ..free }),
        mac: count(CryptoCostModel {
            mac_gen_ns: 1,
            mac_verify_ns: 1,
            ..free
        }),
        sig: per_request(&sig, |c| c[1]),
        threshold: count(CryptoCostModel {
            threshold_share_ns: 1,
            threshold_combine_ns: 1,
            threshold_verify_ns: 1,
            ..free
        }),
        sig_computed: per_request(&sig, |&[n, charged, accepted]| {
            charged.min((1 + n) * accepted)
        }),
    }
}

/// Look a measured unit cost up by metric name.
pub fn unit(units: &Values, name: &str) -> f64 {
    units
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("unit cost {name} was not measured"))
}

/// Estimated crypto CPU microseconds per request: charged count × unit
/// cost of the primitive behind it, for the charges the program computes.
///
/// A charge is virtual time, not proof of work. On the seed commit the
/// registry protocols compute exactly three primitives: the client's
/// signature over its request (`SignedRequest::new`), each replica's
/// verification of it (`SignedRequest::verify`), and `digest_of` where
/// `Hash` is charged. MAC, threshold and replica-to-replica signature
/// charges have no computation behind them (`hmac::mac`, `share` and
/// `combine` have no caller in `bft-protocols`). So every `Hash` charge is
/// priced as a request digest, signature charges are priced — at the mean
/// of sign and verify — up to one signature plus one verification per
/// replica per request, and the rest is priced at nothing.
pub fn crypto_us_per_req(counts: &CryptoCounts, units: &Values) -> f64 {
    let u = |name| unit(units, name);
    (counts.hash * u("crypto.digest_of_request_ns")
        + counts.sig_computed * (u("crypto.sign_ns") + u("crypto.verify_ns")) / 2.0)
        / 1e3
}

/// Snapshot cost in microseconds at `keys` stored keys: linear between
/// the three measured store sizes, flat below the smallest.
fn snapshot_us(keys: usize, units: &Values) -> f64 {
    let pts = [
        (100.0, unit(units, "state.snapshot_100_keys_us")),
        (10_000.0, unit(units, "state.snapshot_10k_keys_us")),
        (50_000.0, unit(units, "state.snapshot_50k_keys_us")),
    ];
    let k = keys as f64;
    if k <= pts[0].0 {
        return pts[0].1;
    }
    let (a, b) = if k <= pts[1].0 {
        (pts[0], pts[1])
    } else {
        (pts[1], pts[2])
    };
    a.1 + (k - a.0) * (b.1 - a.1) / (b.0 - a.0)
}

/// Estimated state-machine CPU microseconds per request, from the exact
/// inputs: every replica executes every operation, and snapshots its
/// whole store every checkpoint interval (in requests: batch 1) at the size the
/// store has grown to by then (requests taken in timestamp order).
pub fn state_us_per_req(workload: &Workload, seed: u64, div: u64, units: &Values) -> f64 {
    let (put_us, get_us) = (
        unit(units, "state.execute_put_ns") / 1e3,
        unit(units, "state.execute_get_ns") / 1e3,
    );
    let requests = workload.requests_at(div);
    let (mut total_us, mut total_requests) = (0.0, 0u64);
    for case in workload.cases(seed) {
        let scenario = workload.scenario(case, requests);
        let n = workload.replicas(case.protocol) as f64;
        let mut txns: Vec<(RequestId, Transaction)> = scenario.request_txns().into_iter().collect();
        txns.sort_by_key(|(id, _)| (id.timestamp, id.client));
        let mut stored = BTreeSet::new();
        let mut case_us = 0.0;
        for (i, (_, txn)) in txns.iter().enumerate() {
            for op in &txn.ops {
                match op.write_key() {
                    Some(key) => {
                        stored.insert(key);
                        case_us += put_us;
                    }
                    None => case_us += get_us,
                }
            }
            if (i as u64 + 1).is_multiple_of(scenario.checkpoint_interval) {
                case_us += snapshot_us(stored.len(), units);
            }
        }
        total_us += n * case_us;
        total_requests += txns.len() as u64;
    }
    total_us / total_requests.max(1) as f64
}
