//! The workload suite: four application families over one protocol
//! registry, each validated by its own consistency checker.
//!
//! The state machine every protocol replicates is *composed*: a key-value
//! store, an append-only log and a grow-only counter live behind one
//! digest, and the workload generator decides which family a run
//! exercises. Protocols need zero per-workload code — the same PBFT (or
//! any of the 17 registry entries) serves consumer reads against log
//! offsets exactly as it serves key-value gets.
//!
//! ```text
//! cargo run --release --example workload_suite
//! ```

use untrusted_txn::prelude::*;
use untrusted_txn::protocols::suite::{check_run, workload_suite};

fn main() {
    println!("THE WORKLOAD SUITE");
    println!("==================\n");
    for entry in workload_suite() {
        println!("── family `{}` ──", entry.name);
        match entry.name {
            "kv" => println!("   the original uniform key-value mix (puts, gets, adds)"),
            "kv-read" => println!(
                "   90% reads under WAN delays — the read-optimized fast \
                 path's home turf"
            ),
            "log" => println!(
                "   append-only log: producers append, consumers read fixed \
                 offsets; the checker enforces monotonic offsets and \
                 no-lost-appends"
            ),
            "counter" => println!(
                "   grow-only counter: commutative increments; the checker \
                 enforces convergence bounds"
            ),
            _ => {}
        }
        for protocol in [ProtocolId::Pbft, ProtocolId::HotStuff, ProtocolId::Qu] {
            let scenario = entry.scenario(1, 2, 10, 42);
            let out = protocol.run(&scenario);
            SafetyAuditor::all_correct().assert_safe(&out.log);
            let accepted = out.log.accepted();
            let violations = check_run(protocol, &scenario, &out);
            println!(
                "   {:<12} accepted {accepted:>2}/{:<2}  checker: {}",
                protocol.name(),
                scenario.total_requests(),
                if violations.is_empty() {
                    "clean".to_string()
                } else {
                    format!("{violations:?}")
                }
            );
            assert!(violations.is_empty(), "consistency violation");
        }
        println!();
    }
    println!("Every family ran unmodified on classical three-phase (PBFT),");
    println!("chained (HotStuff) and versioned-object (Q/U) replication —");
    println!("the workload layer never names a protocol, and the semantic");
    println!("checkers validate each accepted history after the fact.");
}
