//! Regression guard for the invariant "no handler, timer or driver step
//! reads state that grows with the run" (DESIGN.md): a request must cost
//! the host about the same CPU in a run of 3 200 requests as in one of 200.
//! A scan of ever-growing state shows up as a ratio that grows with the
//! run — before the invariant held, Q/U read 9.7×, Prime 4.6×, Kauri and
//! SBFT 3.2× here, and Chain 5× at 6 400 requests per client.
//!
//! Timing test: release only (`cargo test --release --test run_length`),
//! cheapest of three repeats per point. `examples/run_length.rs` prints the
//! whole sweep.

use bft_bench::run_length::measure;
use untrusted_txn::prelude::*;

#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: run with --release")]
fn cpu_per_request_does_not_grow_with_run_length() {
    // the process's first run pays for page faults and heap growth
    measure(ProtocolId::Pbft, 400, 1);
    let mut grown = Vec::new();
    for protocol in ProtocolId::ALL {
        let short = measure(protocol, 100, 3);
        assert!(short.complete(), "{}: {short:?}", protocol.name());
        // Chain's scan went quadratic latest of all
        let lengths: &[u64] = match protocol {
            ProtocolId::Chain => &[1_600, 6_400],
            _ => &[1_600],
        };
        for &length in lengths {
            let long = measure(protocol, length, 3);
            assert!(long.complete(), "{}: {long:?}", protocol.name());
            if long.us_per_req > 2.0 * short.us_per_req {
                grown.push(format!(
                    "{}: {:.1} us/request over {} requests, {:.1} over {}",
                    protocol.name(),
                    short.us_per_req,
                    short.issued,
                    long.us_per_req,
                    long.issued
                ));
            }
        }
    }
    assert!(
        grown.is_empty(),
        "per-request cost more than doubled with run length:\n{}",
        grown.join("\n")
    );
}
