//! Run-length sweep: does a request cost the host the same CPU in a long
//! run as in a short one?
//!
//! Every registry protocol runs one fault-free case (f = 1, two closed-loop
//! clients, uniform mix, seed 1) at 100 / 400 / 1 600 / 6 400 requests per
//! client; each cell is wall-clock µs per issued request with the accepted
//! count beside it when the run did not complete, and the last column is
//! the 1 600-request cost over the 100-request cost (1.0 = CPU per request
//! is flat in run length). `tests/run_length.rs` guards the same ratio.
//!
//! ```text
//! cargo run --release --example run_length [protocol ...]
//! ```

use bft_bench::run_length::{measure, LENGTHS};
use untrusted_txn::prelude::*;

fn main() {
    let only: Vec<String> = std::env::args().skip(1).collect();
    // the process's first run pays for page faults and heap growth
    measure(ProtocolId::Pbft, 400, 1);
    print!("{:<14}", "protocol");
    for n in LENGTHS {
        print!("{n:>22}");
    }
    println!("{:>10}", "1600/100");
    for protocol in ProtocolId::ALL {
        if !only.is_empty() && !only.iter().any(|p| p == protocol.name()) {
            continue;
        }
        print!("{:<14}", protocol.name());
        let mut costs = Vec::new();
        for n in LENGTHS {
            let p = measure(protocol, n, 3);
            costs.push(p.us_per_req);
            let cell = if p.complete() {
                format!("{:.1}", p.us_per_req)
            } else {
                format!("{:.1} ({}/{})", p.us_per_req, p.accepted, p.issued)
            };
            print!("{cell:>22}");
        }
        println!("{:>10.2}", costs[2] / costs[0]);
    }
}
