//! Real-time throughput measurement on the threaded engine.
//!
//! Every other experiment in this harness reports *virtual-time* quantities
//! from the deterministic simulator. This module is the counterpart the
//! engine API makes possible: the same protocol actors, unchanged, on the
//! multi-threaded real-time backend — one OS thread per node, real channels,
//! real monotonic clocks — reporting *wall-clock* requests per second.
//!
//! Scale points sweep the fault budget `f = 1..=5`, i.e. target cluster
//! sizes `n = 3f+1 ∈ {4, 7, 10, 13, 16}` (protocols with larger formula
//! minimums are clamped up and the actual `n` is reported). Each point is
//! also passed through the workload-suite consistency checkers, so a
//! throughput number from a semantically broken run can never land in the
//! artifact.
//!
//! The numbers are host-dependent by construction (they measure this
//! machine, not the model) and are **not** comparable to the virtual-time
//! throughput in `BENCH_sim.json`; the committed `BENCH_realtime.json`
//! records the host thread count alongside every run for that reason.

use std::time::Instant;

use bft_protocols::registry::ProtocolId;
use bft_protocols::suite::check_run;
use bft_protocols::Scenario;
use bft_sim::{EngineKind, NetworkConfig, SimDuration};
use serde::Serialize;

/// Configuration for one realtime sweep.
#[derive(Debug, Clone)]
pub struct RealtimeConfig {
    /// Protocols to measure (default: the full registry).
    pub protocols: Vec<ProtocolId>,
    /// Fault budgets to sweep; each maps to a target `n = 3f+1`.
    pub fault_budgets: Vec<usize>,
    /// Closed-loop clients per run.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: u64,
    /// The synchrony bound Δ. Drives client retransmits (4Δ) and view
    /// timers, so it must sit far above this host's scheduling noise:
    /// with every node thread timesharing the same cores, a
    /// microsecond-scale Δ would trigger spurious retransmits and view
    /// changes and measure recovery machinery instead of throughput.
    pub delta: SimDuration,
    /// Which engine carries the runs. `Threaded` is the point of this
    /// sweep; `Sim` is accepted so the same harness can produce a
    /// wall-clock baseline of the deterministic engine for comparison.
    pub engine: EngineKind,
    /// Workload seed.
    pub seed: u64,
}

impl RealtimeConfig {
    /// The full sweep behind the committed `BENCH_realtime.json`:
    /// n = 4, 7, 10, 13, 16 at 4 clients × 25 requests.
    pub fn full() -> Self {
        RealtimeConfig {
            protocols: ProtocolId::ALL.to_vec(),
            fault_budgets: vec![1, 2, 3, 4, 5],
            clients: 4,
            requests_per_client: 25,
            delta: SimDuration::from_millis(200),
            engine: EngineKind::Threaded,
            seed: 11,
        }
    }

    /// The CI smoke sweep: n = 4 only, a handful of requests.
    pub fn quick() -> Self {
        RealtimeConfig {
            fault_budgets: vec![1],
            clients: 2,
            requests_per_client: 5,
            ..RealtimeConfig::full()
        }
    }

    /// The scenario for one (protocol, fault budget) point.
    pub fn scenario(&self, f: usize) -> Scenario {
        let mut network = NetworkConfig::lan();
        network.delta = self.delta;
        Scenario::small(f)
            .with_load(self.clients, self.requests_per_client)
            .with_network(network)
            .with_seed(self.seed)
            .with_engine(self.engine)
            .with_n(3 * f + 1)
    }
}

/// One (protocol, n) measurement.
#[derive(Debug, Serialize)]
pub struct RealtimePoint {
    /// Fault budget for this point.
    pub f: usize,
    /// Actual replica count (the target `3f+1` clamped up to the
    /// protocol's formula minimum).
    pub n: usize,
    /// OS threads the run occupied (replicas + clients); zero on the sim
    /// engine.
    pub threads: u64,
    /// Requests issued.
    pub requests: u64,
    /// Requests accepted by clients.
    pub accepted: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// Accepted requests per wall-clock second.
    pub req_per_sec: f64,
    /// Whether the run passed the workload-suite consistency checkers.
    pub checker_clean: bool,
}

/// All scale points for one protocol.
#[derive(Debug, Serialize)]
pub struct RealtimeProtocol {
    /// Registry name.
    pub protocol: String,
    /// One entry per fault budget, in sweep order.
    pub points: Vec<RealtimePoint>,
}

/// The `BENCH_realtime.json` document.
#[derive(Debug, Serialize)]
pub struct RealtimeReport {
    /// Provenance line.
    pub generated_by: String,
    /// Engine that carried the runs (`"threaded"` for the committed
    /// artifact).
    pub engine: String,
    /// Hardware threads on the measuring host — the context every
    /// wall-clock number below must be read in.
    pub host_threads: usize,
    /// The synchrony bound Δ used, in milliseconds.
    pub delta_ms: u64,
    /// Closed-loop clients per run.
    pub clients: usize,
    /// Requests per client per run.
    pub requests_per_client: u64,
    /// Per-protocol scale points.
    pub protocols: Vec<RealtimeProtocol>,
    /// Caveats for readers of the artifact.
    pub notes: Vec<String>,
}

/// Run the sweep, printing one progress line per point.
pub fn run_realtime(cfg: &RealtimeConfig) -> RealtimeReport {
    let mut protocols = Vec::with_capacity(cfg.protocols.len());
    for &id in &cfg.protocols {
        let mut points = Vec::with_capacity(cfg.fault_budgets.len());
        for &f in &cfg.fault_budgets {
            let scenario = cfg.scenario(f);
            let n = scenario.n(id.min_n(f));
            let requests = scenario.total_requests();
            let started = Instant::now();
            let out = id.run(&scenario);
            // The threaded engine records its own wall clock; the sim
            // engine leaves it zero, so fall back to harness timing.
            let wall_ns = if out.metrics.wall_elapsed_ns > 0 {
                out.metrics.wall_elapsed_ns
            } else {
                (started.elapsed().as_nanos() as u64).max(1)
            };
            let accepted = out.log.accepted() as u64;
            let checker_clean = check_run(id, &scenario, &out).is_empty();
            let wall_ms = wall_ns as f64 / 1e6;
            let req_per_sec = accepted as f64 / (wall_ns as f64 / 1e9);
            println!(
                "  {:<14} f={f} n={n:<2} {:>3}/{requests} accepted  {wall_ms:>9.2} ms  \
                 {req_per_sec:>9.1} req/s{}",
                id.name(),
                accepted,
                if checker_clean { "" } else { "  CHECKER DIRTY" },
            );
            points.push(RealtimePoint {
                f,
                n,
                threads: out.metrics.wall_threads,
                requests,
                accepted,
                wall_ms,
                req_per_sec,
                checker_clean,
            });
        }
        protocols.push(RealtimeProtocol {
            protocol: id.name().to_string(),
            points,
        });
    }

    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    RealtimeReport {
        generated_by: "cargo bench -p bft-bench --bench realtime -- --save-json".into(),
        engine: cfg.engine.name().to_string(),
        host_threads,
        delta_ms: cfg.delta.0 / 1_000_000,
        clients: cfg.clients,
        requests_per_client: cfg.requests_per_client,
        protocols,
        notes: vec![
            "wall-clock throughput on real OS threads; numbers are host-dependent and \
             NOT comparable to the virtual-time figures in BENCH_sim.json"
                .into(),
            format!(
                "one thread per node, all timesharing {host_threads} hardware thread(s); \
                 req/s therefore measures protocol message complexity under contention, \
                 not network limits"
            ),
            "Δ is wall-clock scale (see delta_ms) so view/retransmit timers stay above \
             scheduler noise; every point is validated by the workload-suite checkers \
             (checker_clean)"
                .into(),
        ],
    }
}

/// True iff every point in the report completed and passed the checkers.
pub fn all_clean(report: &RealtimeReport) -> bool {
    report.protocols.iter().all(|p| {
        p.points
            .iter()
            .all(|pt| pt.checker_clean && pt.accepted == pt.requests)
    })
}
