//! Host cost per simulated request as a function of run length.
//!
//! A handler, timer or driver step that reads state which grows with the
//! run makes a run of `k`× the requests cost more than `k`× the CPU. The
//! sweep (`examples/run_length.rs`) and its regression guard
//! (`tests/run_length.rs`) both measure with [`measure`]: one fault-free
//! case per protocol — f = 1, two closed-loop clients, the uniform mix,
//! seed 1 — at each of [`LENGTHS`] requests per client.

use std::time::Instant;

use bft_protocols::{ProtocolId, Scenario};

/// Requests per client at each sweep point.
pub const LENGTHS: [u64; 4] = [100, 400, 1_600, 6_400];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Wall-clock µs per *issued* request, cheapest of the repeats.
    pub us_per_req: f64,
    /// Requests the clients accepted.
    pub accepted: u64,
    /// Requests the clients issued.
    pub issued: u64,
}

impl Point {
    /// Whether every issued request was accepted.
    pub fn complete(&self) -> bool {
        self.accepted == self.issued
    }
}

/// Run `protocol` at `requests_per_client`, `repeats` times (the runs are
/// deterministic, so the cheapest repeat is the one the host disturbed
/// least).
pub fn measure(protocol: ProtocolId, requests_per_client: u64, repeats: usize) -> Point {
    let scenario = Scenario::small(1)
        .with_load(2, requests_per_client)
        .with_seed(1);
    let issued = scenario.total_requests();
    let mut best = f64::INFINITY;
    let mut accepted = 0;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let out = protocol.run(&scenario);
        let us = start.elapsed().as_secs_f64() * 1e6;
        accepted = out.log.accepted() as u64;
        best = best.min(us / issued as f64);
    }
    Point {
        us_per_req: best,
        accepted,
        issued,
    }
}
