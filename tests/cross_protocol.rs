//! Cross-protocol invariants: different protocols given the same sequential
//! workload must produce the same final replicated state; every protocol
//! must be deterministic under a fixed seed and sensitive to seed changes.

use untrusted_txn::prelude::*;

use untrusted_txn::types::Digest;

/// The state digest after the last execution on a given replica.
fn final_state_digest(out: &RunOutcome, replica: u32) -> Option<Digest> {
    out.log.entries.iter().rev().find_map(|e| match &e.obs {
        Observation::Execute { state_digest, .. } if e.node == NodeId::replica(replica) => {
            Some(*state_digest)
        }
        _ => None,
    })
}

#[test]
fn all_ordering_protocols_agree_on_final_state() {
    // one client, sequential workload: every total-order protocol must
    // execute the identical command sequence, hence end in identical state
    let s = Scenario::small(1).with_load(1, 20);
    let outs: Vec<(&str, RunOutcome)> = vec![
        ("PBFT", ProtocolId::Pbft.run(&s)),
        ("Zyzzyva", ProtocolId::Zyzzyva.run(&s)),
        ("SBFT", ProtocolId::Sbft.run(&s)),
        ("HotStuff", ProtocolId::HotStuff.run(&s)),
        ("Tendermint", ProtocolId::Tendermint.run(&s)),
        ("PoE", ProtocolId::Poe.run(&s)),
        ("FaB", ProtocolId::Fab.run(&s)),
        ("CheapBFT", ProtocolId::Cheap.run(&s)),
        ("Prime", ProtocolId::Prime.run(&s)),
        ("Fair", ProtocolId::Fair.run(&s)),
        ("Kauri", ProtocolId::Kauri.run(&s)),
        ("MinBFT", ProtocolId::MinBft.run(&s)),
        ("Chain", ProtocolId::Chain.run(&s)),
    ];
    let reference = final_state_digest(&outs[0].1, 1).expect("PBFT executed something");
    for (name, out) in &outs {
        assert_eq!(
            out.log.accepted(),
            20,
            "{name} did not complete the workload"
        );
        let d = final_state_digest(out, 1).unwrap_or_else(|| panic!("{name} executed nothing"));
        assert_eq!(
            d, reference,
            "{name}'s final replicated state diverges from PBFT's"
        );
    }
}

#[test]
fn every_protocol_is_deterministic() {
    let s = Scenario::small(1).with_load(1, 10);
    macro_rules! det {
        ($name:literal, $run:expr) => {{
            let a: RunOutcome = $run;
            let b: RunOutcome = $run;
            assert_eq!(
                a.events_processed, b.events_processed,
                "{} events differ",
                $name
            );
            assert_eq!(a.end_time, b.end_time, "{} end time differs", $name);
            assert_eq!(
                a.log.entries.len(),
                b.log.entries.len(),
                "{} observation logs differ",
                $name
            );
        }};
    }
    det!("PBFT", ProtocolId::Pbft.run(&s));
    det!("Zyzzyva", ProtocolId::Zyzzyva.run(&s));
    det!("SBFT", ProtocolId::Sbft.run(&s));
    det!("HotStuff", ProtocolId::HotStuff.run(&s));
    det!("Tendermint", ProtocolId::Tendermint.run(&s));
    det!("PoE", ProtocolId::Poe.run(&s));
    det!("FaB", ProtocolId::Fab.run(&s));
    det!("CheapBFT", ProtocolId::Cheap.run(&s));
    det!("Prime", ProtocolId::Prime.run(&s));
    det!("Fair", ProtocolId::Fair.run(&s));
    det!("Kauri", ProtocolId::Kauri.run(&s));
    det!("MinBFT", ProtocolId::MinBft.run(&s));
    det!("Chain", ProtocolId::Chain.run(&s));
    det!("Q/U", ProtocolId::Qu.run(&s));
}

#[test]
fn seed_changes_the_microtiming_but_not_the_outcome() {
    let a = ProtocolId::Pbft.run(&Scenario::small(1).with_load(1, 10).with_seed(1));
    let b = ProtocolId::Pbft.run(&Scenario::small(1).with_load(1, 10).with_seed(2));
    // different jitter draws → different per-request latencies…
    let lat_sum =
        |o: &RunOutcome| -> u64 { o.log.client_latencies().iter().map(|(_, d)| d.0).sum() };
    assert_ne!(lat_sum(&a), lat_sum(&b), "seeds must matter");
    // …but the same logical outcome: everything commits. (Final state
    // digests differ because the workload itself derives from the seed.)
    assert_eq!(a.log.accepted(), 10);
    assert_eq!(b.log.accepted(), 10);
}

#[test]
fn batching_preserves_final_state() {
    let unbatched = ProtocolId::Pbft.run(&Scenario::small(1).with_load(4, 10).with_batch(1));
    let batched = ProtocolId::Pbft.run(&Scenario::small(1).with_load(4, 10).with_batch(8));
    assert_eq!(unbatched.log.accepted(), 40);
    assert_eq!(batched.log.accepted(), 40);
    // same per-client request streams; with multiple clients the interleaving
    // may differ, so compare per-protocol safety instead of digests here
    SafetyAuditor::all_correct().assert_safe(&unbatched.log);
    SafetyAuditor::all_correct().assert_safe(&batched.log);
}

// ---------------------------------------------------------------------------
// protocol × workload smoke matrix
// ---------------------------------------------------------------------------

mod matrix {
    use bft_protocols::registry::registry;
    use bft_protocols::suite::{check_run, workload_suite};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One cell of the matrix: run `protocol` under `family` at `seed`,
    /// assert completion + digest agreement (via the run's own auditor
    /// path) + semantic-checker pass, and return a deterministic summary
    /// line.
    fn run_cell(protocol: bft_protocols::registry::ProtocolId, family: &str, seed: u64) -> String {
        let entry = bft_protocols::suite::suite_entry(family).expect("family exists");
        let s = entry.scenario(1, 2, 5, seed);
        let out = protocol.run(&s);
        assert_eq!(
            out.log.accepted(),
            s.total_requests() as usize,
            "{} × {family} seed {seed}: incomplete clean run",
            protocol.name()
        );
        untrusted_txn::sim::SafetyAuditor::all_correct().assert_safe(&out.log);
        let violations = check_run(protocol, &s, &out);
        assert!(
            violations.is_empty(),
            "{} × {family} seed {seed}: {violations:?}",
            protocol.name()
        );
        format!(
            "{}/{family}/{seed}: events={} end={}",
            protocol.name(),
            out.events_processed,
            out.end_time.0
        )
    }

    /// Run the full matrix on a worker pool and return the summary lines in
    /// deterministic (input) order.
    fn run_matrix(seeds: std::ops::Range<u64>, threads: usize) -> Vec<String> {
        let mut cells = Vec::new();
        for entry in registry() {
            for family in workload_suite() {
                for seed in seeds.clone() {
                    cells.push((entry.id, family.name, seed));
                }
            }
        }
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, String)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(p, fam, seed)) = cells.get(i) else {
                                break;
                            };
                            local.push((i, run_cell(p, fam, seed)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, line)| line).collect()
    }

    /// All 17 registry protocols × 4 workload families × 15 seeds: clean
    /// runs complete, replica digests agree, and every per-workload
    /// consistency checker passes.
    #[test]
    fn every_protocol_passes_every_workload_checker() {
        let threads = bft_bench::thread_count(usize::MAX);
        let lines = run_matrix(0..15, threads);
        assert_eq!(lines.len(), registry().len() * 4 * 15);
    }

    /// The matrix is deterministic and thread-count invariant: the same
    /// summary (event counts, end times) at 1 worker and at 4.
    #[test]
    fn matrix_is_thread_count_invariant() {
        let sequential = run_matrix(0..2, 1);
        let parallel = run_matrix(0..2, 4);
        assert_eq!(sequential, parallel);
    }
}
