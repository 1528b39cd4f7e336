//! Criterion micro-benchmarks for the substrates: cryptography, the state
//! machine, quorum certificate assembly, and the simulator's event loop
//! and broadcast fan-out.
//!
//! ```text
//! cargo bench --bench micro                     # all micro-benchmarks
//! cargo bench --bench micro -- event-loop       # one group (substring)
//! cargo bench --bench micro -- --save-json      # also regenerate BENCH_sim.json
//! ```
//!
//! With `--save-json`, after the micro-benchmarks the harness times the
//! full experiment registry in quick mode — sequentially and on the
//! parallel worker pool — verifies the two produce byte-identical results,
//! and writes the whole measurement set to `BENCH_sim.json` at the
//! workspace root.

use criterion::{criterion_group, BatchSize, Criterion, Throughput};

use bft_crypto::sign::PartyId;
use bft_crypto::{hmac_sha256, sha256, KeyStore, ThresholdScheme, ThresholdSigner};
use bft_state::StateMachine;
use bft_types::{ClientId, Op, Request, SeqNum, Transaction};

fn crypto_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data_1k = vec![0xabu8; 1024];
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sha256_1k", |b| {
        b.iter(|| sha256(std::hint::black_box(&data_1k)))
    });
    g.bench_function("hmac_1k", |b| {
        b.iter(|| {
            hmac_sha256(
                b"key-material-32-bytes-long......",
                std::hint::black_box(&data_1k),
            )
        })
    });
    g.finish();

    let store = KeyStore::new([7u8; 32]);
    let signer = store.signer_for(PartyId::replica(0));
    let msg = b"commit v3 s1932 digest=...";
    let sig = signer.sign(msg);
    let mut g = c.benchmark_group("signatures");
    g.bench_function("sign", |b| {
        b.iter(|| signer.sign(std::hint::black_box(msg)))
    });
    g.bench_function("verify", |b| {
        b.iter(|| store.verify(msg, std::hint::black_box(&sig)))
    });
    g.finish();

    // threshold: combine a 2f+1 = 9 of n = 13 quorum
    let signers: Vec<ThresholdSigner> = (0..13)
        .map(|i| ThresholdSigner::new(store.signer_for(PartyId::replica(i))))
        .collect();
    let shares: Vec<_> = signers[..9].iter().map(|s| s.share(msg)).collect();
    let scheme = ThresholdScheme::new(9);
    let cert = scheme.combine(&store, msg, &shares).unwrap();
    let mut g = c.benchmark_group("threshold");
    g.bench_function("combine_9_of_13", |b| {
        b.iter(|| {
            scheme
                .combine(&store, msg, std::hint::black_box(&shares))
                .unwrap()
        })
    });
    g.bench_function("verify_certificate", |b| {
        b.iter(|| scheme.verify(&store, msg, std::hint::black_box(&cert)))
    });
    g.finish();
}

fn state_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("state-machine");
    g.bench_function("execute_put", |b| {
        b.iter_batched(
            StateMachine::new,
            |mut sm| {
                for i in 1..=100u64 {
                    let r = Request::new(
                        ClientId(1),
                        i,
                        Transaction::single(Op::Put(i % 16, i as i64)),
                    );
                    sm.execute(SeqNum(i), &r);
                }
                sm
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("snapshot_100_keys", |b| {
        let mut sm = StateMachine::new();
        for i in 1..=100u64 {
            let r = Request::new(ClientId(1), i, Transaction::single(Op::Put(i, i as i64)));
            sm.execute(SeqNum(i), &r);
        }
        b.iter(|| std::hint::black_box(&sm).snapshot())
    });
    g.bench_function("speculate_and_rollback_50", |b| {
        b.iter_batched(
            || {
                let mut sm = StateMachine::new();
                let r = Request::new(ClientId(1), 1, Transaction::single(Op::Put(0, 1)));
                sm.execute(SeqNum(1), &r);
                sm
            },
            |mut sm| {
                for i in 2..=51u64 {
                    let r = Request::new(ClientId(2), i, Transaction::single(Op::Add(i % 8, 1)));
                    sm.execute_speculative(SeqNum(i), &r);
                }
                sm.rollback_to(SeqNum(2));
                sm
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn sim_benches(c: &mut Criterion) {
    use bft_protocols::ProtocolId;
    use bft_protocols::Scenario;
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    g.bench_function("pbft_50_requests_end_to_end", |b| {
        b.iter(|| {
            let s = Scenario::small(1).with_load(1, 50);
            ProtocolId::Pbft.run(std::hint::black_box(&s))
        })
    });
    g.finish();
}

use bft_bench::simload as sim_actors;

fn event_loop_benches(c: &mut Criterion) {
    use sim_actors::*;
    const EVENTS: u64 = 10_000;
    let mut g = c.benchmark_group("event-loop");
    g.sample_size(10);
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("ping_pong_10k_events", |b| {
        b.iter_batched(|| ping_pong(EVENTS), drain, BatchSize::SmallInput)
    });
    g.finish();

    // The scale point: two orders of magnitude more events than the row
    // above. The calendar queue keeps per-event cost flat here; the heap's
    // O(log n) sifts would not show at this depth either (the queue stays
    // shallow), so the row mostly guards the pooled-envelope steady state.
    const SCALE_EVENTS: u64 = 1_000_000;
    let mut g = c.benchmark_group("event-loop");
    g.sample_size(3);
    g.throughput(Throughput::Elements(SCALE_EVENTS));
    g.bench_function("1M_events", |b| {
        b.iter_batched(|| ping_pong(SCALE_EVENTS), drain, BatchSize::SmallInput)
    });
    g.finish();

    const FIRES: u32 = 10_000;
    let mut g = c.benchmark_group("timers");
    g.sample_size(10);
    g.throughput(Throughput::Elements(FIRES as u64));
    g.bench_function("set_cancel_churn_10k", |b| {
        b.iter_batched(|| timer_churn(FIRES), drain, BatchSize::SmallInput)
    });
    g.finish();
}

fn broadcast_benches(c: &mut Criterion) {
    use sim_actors::*;
    // 64 replicas × 200 rounds: per-delivery cost must stay flat as the
    // payload grows 64×, because a broadcast shares one allocation across
    // all recipients instead of deep-cloning per recipient.
    const N: u32 = 64;
    const ROUNDS: u32 = 200;
    let deliveries = (ROUNDS as u64 + 1) * (N as u64 - 1);
    let mut g = c.benchmark_group("broadcast");
    g.sample_size(10);
    g.throughput(Throughput::Elements(deliveries));
    for payload in [1usize << 10, 1 << 16] {
        let name = format!("fan_out_63_peers_{}KiB", payload >> 10);
        g.bench_function(&name, |b| {
            b.iter_batched(|| fan_out(N, payload, ROUNDS), drain, BatchSize::SmallInput)
        });
    }
    g.finish();

    // The n=128 scale point: twice the replica count, 1 KiB payloads. At
    // this width the per-delivery node lookup dominates — the dense
    // replica table keeps it an array index.
    const N_WIDE: u32 = 128;
    const ROUNDS_WIDE: u32 = 100;
    let deliveries_wide = (ROUNDS_WIDE as u64 + 1) * (N_WIDE as u64 - 1);
    let mut g = c.benchmark_group("broadcast");
    g.sample_size(10);
    g.throughput(Throughput::Elements(deliveries_wide));
    g.bench_function("fan_out_127_peers", |b| {
        b.iter_batched(
            || fan_out(N_WIDE, 1 << 10, ROUNDS_WIDE),
            drain,
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn open_loop_benches(c: &mut Criterion) {
    use sim_actors::*;
    // A million Zipfian-skewed requests from 4 tenant streams into 100
    // replicas, paced open-loop at 1M req/s per stream. No protocol logic:
    // the row measures the simulator's request path (timer pop → workload
    // sample → send → delivery) at the target scale of the n=100
    // million-request experiments.
    const REQUESTS: u64 = 1_000_000;
    const CLIENTS: u64 = 4;
    let mut g = c.benchmark_group("open-loop");
    g.sample_size(3);
    g.throughput(Throughput::Elements(REQUESTS));
    g.bench_function("zipfian_1M_requests_n100", |b| {
        b.iter_batched(
            || open_loop_zipfian(100, CLIENTS, REQUESTS / CLIENTS, 1_000_000),
            drain,
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    crypto_benches,
    state_benches,
    sim_benches,
    event_loop_benches,
    broadcast_benches,
    open_loop_benches
);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
    if std::env::args().any(|a| a == "--save-json") {
        bench_json::save(c.results());
    }
}

mod bench_json {
    //! The `BENCH_sim.json` artifact: micro-benchmark medians plus a
    //! wall-clock comparison of the full experiment registry run
    //! sequentially vs. on the parallel worker pool.

    use criterion::BenchResult;
    use serde::Serialize;
    use std::time::Instant;

    #[derive(Serialize)]
    struct MicroBench {
        id: String,
        ns_per_iter: f64,
        per_sec: f64,
    }

    #[derive(Serialize)]
    struct RegistryTiming {
        experiments: usize,
        quick_mode: bool,
        sequential_ms: f64,
        sequential_runs_per_sec: f64,
        parallel_threads: usize,
        parallel_ms: f64,
        parallel_runs_per_sec: f64,
        speedup: f64,
        results_byte_identical: bool,
    }

    #[derive(Serialize)]
    struct WorkloadPoint {
        family: String,
        clients: usize,
        requests_per_client: u64,
        accepted: u64,
        virtual_tput_per_sec: f64,
    }

    #[derive(Serialize)]
    struct BenchSimJson {
        generated_by: String,
        host_threads: usize,
        micro: Vec<MicroBench>,
        registry: RegistryTiming,
        workloads: Vec<WorkloadPoint>,
        notes: Vec<String>,
    }

    /// Per-workload throughput scale points: each suite family under PBFT
    /// at increasing load. Virtual-time throughput, so the numbers are
    /// deterministic and host-independent (unlike the micro rows).
    fn workload_points() -> Vec<WorkloadPoint> {
        use bft_protocols::suite::workload_suite;
        use bft_protocols::ProtocolId;
        let mut points = Vec::new();
        for entry in workload_suite() {
            for (clients, requests) in [(2usize, 25u64), (4, 50)] {
                let s = entry.scenario(1, clients, requests, 11);
                let out = ProtocolId::Pbft.run(&s);
                let accepted = out.log.accepted() as u64;
                let secs = out.end_time.0 as f64 / 1e9;
                points.push(WorkloadPoint {
                    family: entry.name.to_string(),
                    clients,
                    requests_per_client: requests,
                    accepted,
                    virtual_tput_per_sec: if secs > 0.0 {
                        accepted as f64 / secs
                    } else {
                        0.0
                    },
                });
            }
        }
        points
    }

    fn registry_json(records: &[bft_bench::RunRecord]) -> String {
        records
            .iter()
            .map(|r| serde_json::to_string(&r.result).expect("serializable"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    pub fn save(results: &[BenchResult]) {
        let registry = bft_bench::registry();
        let jobs = registry.len();

        println!("\ntiming full registry (quick mode), sequential…");
        let t = Instant::now();
        let seq = bft_bench::run_all(&registry, true, 1);
        let seq_ms = t.elapsed().as_secs_f64() * 1e3;

        let threads = bft_bench::thread_count(jobs);
        println!("timing full registry (quick mode), {threads} worker thread(s)…");
        let t = Instant::now();
        let par = bft_bench::run_all(&registry, true, threads);
        let par_ms = t.elapsed().as_secs_f64() * 1e3;

        let identical = registry_json(&seq) == registry_json(&par);

        let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let doc = BenchSimJson {
            generated_by: "cargo bench -p bft-bench --bench micro -- --save-json".into(),
            host_threads,
            micro: results
                .iter()
                .map(|r| MicroBench {
                    id: r.id.clone(),
                    ns_per_iter: r.ns_per_iter,
                    per_sec: 1e9 / r.ns_per_iter,
                })
                .collect(),
            registry: RegistryTiming {
                experiments: jobs,
                quick_mode: true,
                sequential_ms: seq_ms,
                sequential_runs_per_sec: jobs as f64 / (seq_ms / 1e3),
                parallel_threads: threads,
                parallel_ms: par_ms,
                parallel_runs_per_sec: jobs as f64 / (par_ms / 1e3),
                speedup: seq_ms / par_ms,
                results_byte_identical: identical,
            },
            workloads: workload_points(),
            notes: vec![
                "virtual-time simulations; wall-clock numbers are host-dependent".into(),
                "workloads: per-family PBFT throughput scale points in virtual time \
                 (deterministic; see EXPERIMENTS.md 'Workload suite')"
                    .into(),
                format!(
                    "broadcast fan-out shares one Arc allocation across recipients: \
                     per-delivery cost is payload-size-independent (compare the \
                     1KiB and 64KiB rows); host has {host_threads} hardware \
                     thread(s), so the parallel speedup ceiling is {host_threads}x"
                ),
            ],
        };

        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_sim.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        )
        .expect("write BENCH_sim.json");
        println!(
            "wrote {} (sequential {seq_ms:.1} ms, parallel {par_ms:.1} ms on {threads} \
             thread(s), byte-identical: {identical})",
            path.display()
        );
        assert!(
            identical,
            "parallel registry results diverged from sequential"
        );
    }
}
