//! Determinism regression tests.
//!
//! A simulation run is a pure function of (scenario, seed): repeating a run
//! must reproduce its semantic record (every observation and counter), and
//! the parallel experiment harness must produce exactly the results a
//! sequential run produces, at any thread count.

use bft_protocols::ProtocolId;
use bft_protocols::Scenario;

#[test]
fn same_scenario_and_seed_reproduce_identical_logs_and_metrics() {
    let s = Scenario::small(1).with_load(2, 10);
    let record = ProtocolId::Pbft.run(&s).semantic_record();
    for _ in 0..2 {
        assert_eq!(
            record,
            ProtocolId::Pbft.run(&s).semantic_record(),
            "run diverged across identical runs"
        );
    }
    // guard against the comparison trivially passing on constant output: a
    // different seed must actually change the run
    let reseeded = s.with_seed(43);
    assert_ne!(
        record,
        ProtocolId::Pbft.run(&reseeded).semantic_record(),
        "seed had no effect on the run"
    );
}

#[test]
fn parallel_harness_matches_sequential_byte_for_byte() {
    // a fast subset of the registry is enough: every experiment goes
    // through the same worker-pool machinery
    let fast = ["exp_f2", "exp_dc2", "exp_dc13", "exp_q2"];
    let entries: Vec<_> = bft_bench::registry()
        .into_iter()
        .filter(|(id, _, _)| fast.contains(id))
        .collect();
    assert_eq!(entries.len(), fast.len());

    let sequential = bft_bench::run_all(&entries, true, 1);
    for threads in [2, 4] {
        let parallel = bft_bench::run_all(&entries, true, threads);
        assert_eq!(parallel.len(), sequential.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.id, p.id, "parallel run reordered results");
            assert_eq!(
                serde_json::to_string(&s.result).expect("serializable"),
                serde_json::to_string(&p.result).expect("serializable"),
                "{}: parallel result diverged from sequential",
                s.id
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    let entries: Vec<_> = bft_bench::registry()
        .into_iter()
        .filter(|(id, _, _)| *id == "exp_dc2")
        .collect();
    let first = bft_bench::run_all(&entries, true, 2);
    let second = bft_bench::run_all(&entries, true, 2);
    assert_eq!(
        serde_json::to_string(&first[0].result).expect("serializable"),
        serde_json::to_string(&second[0].result).expect("serializable"),
        "repeated runs of the same experiment diverged"
    );
}

/// The open-loop Zipfian workload (the `open-loop/zipfian_1M_requests_n100`
/// bench row, scaled down) is a pure function of its configuration: the
/// run must be identical between the two scheduler backends, across
/// repeated runs, and regardless of which OS thread executes it (the
/// worker-pool thread counts `BFT_BENCH_THREADS` selects).
#[test]
fn open_loop_zipfian_deterministic_across_schedulers_and_threads() {
    use bft_bench::simload;
    use bft_sim::SchedulerKind;

    let run = |scheduler: SchedulerKind| {
        let out = simload::drain(simload::open_loop_zipfian_with(
            100, 100, 200, 1_000_000, scheduler,
        ));
        (out.semantic_record(), out.events_processed, out.end_time)
    };

    let reference = run(SchedulerKind::Calendar);
    assert!(
        reference.1 >= 100 * 200,
        "open-loop run processed too few events: {}",
        reference.1
    );
    assert_eq!(
        reference,
        run(SchedulerKind::Heap),
        "calendar and heap schedulers diverged on the open-loop workload"
    );

    // Thread-count independence: the same run on freshly spawned threads
    // (1, 2, and 4 concurrent runners) must reproduce the reference
    // exactly. This is the property that lets BFT_BENCH_THREADS
    // change wall-clock time without changing any result.
    for threads in [1usize, 2, 4] {
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| run(SchedulerKind::Calendar)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(
                reference, r,
                "open-loop run diverged on a {threads}-thread execution"
            );
        }
    }
}

/// Every registry protocol but Q/U paces its clients by the workload's
/// arrival knob: under an open-loop arrival each client submits exactly one
/// interarrival after its previous submission, whatever its protocol's
/// replies, retransmissions or repairs are doing, and every request is
/// still accepted with safety intact. (Q/U's client runs closed loop only
/// and refuses an open-loop arrival.)
#[test]
fn open_loop_schedule_holds_for_every_registry_protocol_but_qu() {
    use bft_sim::{Observation, SafetyAuditor};
    use std::collections::BTreeMap;

    let base = Scenario::small(1).with_load(2, 40);
    let workload = base.workload.open_loop(10_000);
    let interarrival = 100_000; // ns: 10 000 requests per second per client
    let s = base.with_workload(workload);
    for id in ProtocolId::ALL
        .into_iter()
        .filter(|id| *id != ProtocolId::Qu)
    {
        let out = id.run(&s);
        assert_eq!(
            out.log.client_latencies().len() as u64,
            s.total_requests(),
            "{id:?}: not every request was accepted"
        );
        SafetyAuditor::all_correct().assert_safe(&out.log);
        let mut sent: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for e in &out.log.entries {
            if let Observation::ClientAccept {
                request, sent_at, ..
            } = &e.obs
            {
                sent.entry(request.client)
                    .or_default()
                    .push((request.timestamp, sent_at.0));
            }
        }
        for (client, mut times) in sent {
            times.sort_unstable();
            for pair in times.windows(2) {
                assert_eq!(
                    pair[1].1 - pair[0].1,
                    interarrival,
                    "{id:?}: client {client:?} submitted request {} off the schedule",
                    pair[1].0
                );
            }
        }
    }
}
