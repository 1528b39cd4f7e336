//! Shared measurement helpers for experiments.

use bft_sim::runner::RunOutcome;
use bft_sim::{NodeId, SafetyAuditor};

/// Requests accepted by clients.
pub fn accepted(out: &RunOutcome) -> usize {
    out.log.accepted()
}

/// Mean client latency in virtual nanoseconds (0 when nothing completed).
pub fn mean_latency_ns(out: &RunOutcome) -> f64 {
    let l = out.log.client_latencies();
    if l.is_empty() {
        return 0.0;
    }
    l.iter().map(|(_, d)| d.0 as f64).sum::<f64>() / l.len() as f64
}

/// p99 client latency in virtual nanoseconds.
pub fn p99_latency_ns(out: &RunOutcome) -> f64 {
    let mut l: Vec<u64> = out
        .log
        .client_latencies()
        .iter()
        .map(|(_, d)| d.0)
        .collect();
    if l.is_empty() {
        return 0.0;
    }
    l.sort_unstable();
    l[((l.len() as f64 - 1.0) * 0.99).round() as usize] as f64
}

/// Requests per virtual second.
pub fn throughput(out: &RunOutcome) -> f64 {
    let secs = out.end_time.0 as f64 / 1e9;
    if secs == 0.0 {
        0.0
    } else {
        accepted(out) as f64 / secs
    }
}

/// Replica messages per accepted request.
pub fn msgs_per_req(out: &RunOutcome) -> f64 {
    let a = accepted(out).max(1);
    out.metrics.replica_msgs_sent() as f64 / a as f64
}

/// Replica bytes per accepted request.
pub fn bytes_per_req(out: &RunOutcome) -> f64 {
    let a = accepted(out).max(1);
    out.metrics.replica_bytes_sent() as f64 / a as f64
}

/// Total virtual CPU (ns) charged across replicas.
pub fn replica_cpu_ns(out: &RunOutcome, n: usize) -> f64 {
    (0..n as u32)
        .map(|i| out.metrics.node(NodeId::replica(i)).cpu.0 as f64)
        .sum()
}

/// Audit the run, excluding the listed Byzantine/crashed replicas; panics
/// on a safety violation so a broken experiment can never report results.
pub fn audit(out: &RunOutcome, faulty: &[u32]) {
    SafetyAuditor::excluding(faulty.iter().map(|i| NodeId::replica(*i)).collect())
        .assert_safe(&out.log);
}

/// Requests per client for normal (quick=false) and quick runs.
pub fn load(quick: bool, full: u64) -> u64 {
    if quick {
        (full / 4).max(5)
    } else {
        full
    }
}
