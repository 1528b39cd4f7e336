//! The workloads: what each one runs, and why it exists.
//!
//! A workload is a table row — protocols × seeds × one load shape — and a
//! pass runs every (protocol, seed) case of it once. Everything a case
//! needs is derived from `--seed`: `Scenario::with_seed` drives the keys,
//! the op mix and the network delays.

use bft_core::{Arrival, WorkloadConfig};
use bft_protocols::{ProtocolId, Scenario};
use bft_sim::{EngineKind, NetworkConfig, SimDuration};

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name (`--workload <name>`).
    pub name: &'static str,
    /// One line on why it exists and which layer dominates it.
    pub why: &'static str,
    /// Protocols a pass runs, each at its own minimum `n` for `f`.
    pub protocols: &'static [ProtocolId],
    /// Fault budget.
    pub f: usize,
    /// Clients per case.
    pub clients: usize,
    /// Requests per client per case at full size.
    pub requests_per_client: u64,
    /// Consecutive seeds (`seed..seed + seeds`) a pass runs per protocol.
    pub seeds: u64,
    /// The transaction mix and arrival process.
    pub mix: fn() -> WorkloadConfig,
    /// Which engine carries the run.
    pub engine: EngineKind,
    /// Campaign-shaped: the timed region is scenario build + run +
    /// `check_run` per case, not `ProtocolId::run` alone.
    pub campaign: bool,
}

/// One (protocol, seed) run of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    /// Protocol to run.
    pub protocol: ProtocolId,
    /// Scenario seed.
    pub seed: u64,
}

const PBFT: &[ProtocolId] = &[ProtocolId::Pbft];

fn kv_small() -> WorkloadConfig {
    WorkloadConfig::uniform().with_keys(100)
}

fn kv_big() -> WorkloadConfig {
    WorkloadConfig::uniform().with_keys(100_000).with_reads(0.2)
}

fn zipf_open() -> WorkloadConfig {
    WorkloadConfig::uniform()
        .with_keys(10_000)
        .zipfian(0.99)
        .open_loop(1_000)
}

/// PBFT n=4 on the sim engine with small state: crypto and the PBFT
/// handler do most of the work.
pub const SIM_PBFT_N4: Workload = Workload {
    name: "sim-pbft-n4",
    why: "PBFT f=1 n=4 sim, 4 closed-loop clients, 100 keys 50% reads: small state, so crypto and the PBFT handler dominate",
    protocols: PBFT,
    f: 1,
    clients: 4,
    requests_per_client: 10_000,
    seeds: 1,
    mix: kv_small,
    engine: EngineKind::Sim,
    campaign: false,
};

/// Same cluster, a store that grows all run: `bft-state` dominates.
pub const SIM_PBFT_N4_BIGSTATE: Workload = Workload {
    name: "sim-pbft-n4-bigstate",
    why: "same cluster, 100000-key space 20% reads: the store grows all run and every checkpoint snapshots it, so bft-state dominates",
    protocols: PBFT,
    f: 1,
    clients: 4,
    requests_per_client: 6_000,
    seeds: 1,
    mix: kv_big,
    engine: EngineKind::Sim,
    campaign: false,
};

/// PBFT n=16 under open-loop Zipfian load: ≈ 515 events per request, so
/// the event queue, routing and fan-out take their largest share.
pub const SIM_PBFT_N16_OPEN: Workload = Workload {
    name: "sim-pbft-n16-open",
    why: "PBFT f=5 n=16 sim, 8 open-loop clients at 1000 req/s each, Zipfian keys: ~515 events/request, so the sim engine's share is largest",
    protocols: PBFT,
    f: 5,
    clients: 8,
    requests_per_client: 1_000,
    seeds: 1,
    mix: zipf_open,
    engine: EngineKind::Sim,
    campaign: false,
};

/// Every registry protocol in short runs, the shape campaigns and
/// experiments actually run.
pub const SIM_ALL17_SHORT: Workload = Workload {
    name: "sim-all17-short",
    why: "all 17 protocols f=1, 8 seeds x 2 clients x 100 requests, build+run+check timed: campaign shape, per-run set-up and each handler matter",
    protocols: &ProtocolId::ALL,
    f: 1,
    clients: 2,
    requests_per_client: 100,
    seeds: 8,
    mix: WorkloadConfig::uniform,
    engine: EngineKind::Sim,
    campaign: true,
};

/// The `sim-pbft-n4` actors on real threads, channels and timers.
///
/// Runnable by name and probed by every traced run (`threaded.*`), but
/// not one of the [`GATED`] workloads: on a 2-thread VM its CPU and
/// wall-clock medians move by 7–19 % between runs of the same code (see
/// `BASELINE.md`), more than any bound that would still mean something
/// for the sim workloads sharing the metric.
pub const RT_PBFT_N4: Workload = Workload {
    name: "rt-pbft-n4",
    why: "PBFT f=1 n=4 on the threaded engine, 1 closed-loop client, same mix as sim-pbft-n4: channels, timers and wake-ups dominate",
    protocols: PBFT,
    f: 1,
    clients: 1,
    requests_per_client: 4_000,
    seeds: 1,
    mix: kv_small,
    engine: EngineKind::Threaded,
    campaign: false,
};

/// The workloads `BENCHMARK.json` lists: every end-to-end metric of each
/// repeats within its bound.
pub const GATED: [Workload; 4] = [
    SIM_PBFT_N4,
    SIM_PBFT_N4_BIGSTATE,
    SIM_PBFT_N16_OPEN,
    SIM_ALL17_SHORT,
];

/// Every runnable workload, in reporting order.
pub const ALL: [Workload; 5] = [
    SIM_PBFT_N4,
    SIM_PBFT_N4_BIGSTATE,
    SIM_PBFT_N16_OPEN,
    SIM_ALL17_SHORT,
    RT_PBFT_N4,
];

/// Synchrony bound for the threaded engine: far above this host's
/// scheduling noise, so no retransmit or view-change timer ever fires.
const RT_DELTA: SimDuration = SimDuration::from_millis(200);

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The cases of one pass, in run order.
    pub fn cases(&self, seed: u64) -> Vec<Case> {
        self.protocols
            .iter()
            .flat_map(|&protocol| {
                (0..self.seeds).map(move |s| Case {
                    protocol,
                    seed: seed.wrapping_add(s),
                })
            })
            .collect()
    }

    /// Requests per client with the workload shrunk `div`-fold (`--quick`
    /// uses 20).
    pub fn requests_at(&self, div: u64) -> u64 {
        (self.requests_per_client / div).max(1)
    }

    /// The scenario of one case: LAN network, free crypto cost model,
    /// checkpoint interval 16, batch 1 (the `Scenario::small` defaults).
    pub fn scenario(&self, case: Case, requests_per_client: u64) -> Scenario {
        let mut network = NetworkConfig::lan();
        if self.engine == EngineKind::Threaded {
            network.delta = RT_DELTA;
        }
        Scenario::small(self.f)
            .with_load(self.clients, requests_per_client)
            .with_workload((self.mix)())
            .with_network(network)
            .with_engine(self.engine)
            .with_seed(case.seed)
    }

    /// Replicas `protocol` runs at: its own minimum for the fault budget.
    pub fn replicas(&self, protocol: ProtocolId) -> usize {
        protocol.min_n(self.f)
    }

    /// Whether clients submit on a schedule instead of on completion.
    pub fn is_open_loop(&self) -> bool {
        matches!((self.mix)().arrival, Arrival::OpenLoop { .. })
    }

    /// Requests one pass issues.
    pub fn requests_per_pass(&self, div: u64) -> u64 {
        self.protocols.len() as u64 * self.seeds * self.clients as u64 * self.requests_at(div)
    }
}
