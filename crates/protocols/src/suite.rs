//! The workload suite: four workload families, one scenario builder and
//! one semantic-check entry point, applied uniformly to every registry
//! protocol.
//!
//! Each suite entry pairs a workload generator (`bft-core`) with the
//! application state machine that interprets it (`bft-state`'s composed
//! app) and the consistency checker that validates the accepted history
//! (`bft-sim::checker`). Protocols need zero per-protocol code to gain a
//! workload: the generator only emits operations, the composed app routes
//! them, and the checker consumes the observation log.

use bft_core::workload::WorkloadConfig;
use bft_sim::checker::{check_semantics, SemanticConfig, SemanticViolation};
use bft_sim::runner::RunOutcome;
use bft_sim::{ExecutionSemantics, NetworkConfig};

use crate::common::Scenario;
use crate::registry::ProtocolId;

/// One workload family in the suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Stable short name (used in test matrices and bench tables).
    pub name: &'static str,
    /// The transaction mix.
    pub workload: WorkloadConfig,
    /// The network profile the family is meant to stress (the read-heavy
    /// tier runs under WAN delays to exercise the ABL-3 read path).
    pub network: NetworkConfig,
}

/// The four workload families: the original key-value mix, the read-heavy
/// key-value tier under WAN delays, the append-only log, and the grow-only
/// counter.
pub fn workload_suite() -> Vec<SuiteEntry> {
    vec![
        SuiteEntry {
            name: "kv",
            workload: WorkloadConfig::uniform(),
            network: NetworkConfig::lan(),
        },
        SuiteEntry {
            name: "kv-read",
            workload: WorkloadConfig::read_heavy(),
            network: NetworkConfig::wan(),
        },
        SuiteEntry {
            name: "log",
            workload: WorkloadConfig::log_append(),
            network: NetworkConfig::lan(),
        },
        SuiteEntry {
            name: "counter",
            workload: WorkloadConfig::counter_inc(),
            network: NetworkConfig::lan(),
        },
    ]
}

/// Look up a suite entry by name.
pub fn suite_entry(name: &str) -> Option<SuiteEntry> {
    workload_suite().into_iter().find(|e| e.name == name)
}

impl SuiteEntry {
    /// A clean-run scenario for this family at the given load and seed.
    pub fn scenario(&self, f: usize, clients: usize, requests: u64, seed: u64) -> Scenario {
        Scenario::small(f)
            .with_load(clients, requests)
            .with_workload(self.workload)
            .with_network(self.network.clone())
            .with_seed(seed)
    }
}

/// The semantic-checker configuration for a protocol × scenario pair:
/// replicated protocols get the full request table (replay + phantom
/// resolution); Q/U's versioned objects get the reduced check set (its
/// retry-bumped request ids are not reproducible from the scenario).
pub fn semantic_config(protocol: ProtocolId, scenario: &Scenario) -> SemanticConfig {
    match protocol.semantics() {
        ExecutionSemantics::Replicated => SemanticConfig::replicated(scenario.request_txns()),
        ExecutionSemantics::VersionedObjects => SemanticConfig::versioned_objects(),
    }
}

/// Run every applicable consistency checker over a finished run. Empty
/// result = the accepted history is semantically consistent.
pub fn check_run(
    protocol: ProtocolId,
    scenario: &Scenario,
    out: &RunOutcome,
) -> Vec<SemanticViolation> {
    check_semantics(&out.log, &semantic_config(protocol, scenario))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_four_named_families() {
        let names: Vec<&str> = workload_suite().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["kv", "kv-read", "log", "counter"]);
        assert!(suite_entry("log").is_some());
        assert!(suite_entry("nope").is_none());
    }

    #[test]
    fn pbft_passes_every_family_checker() {
        for entry in workload_suite() {
            let s = entry.scenario(1, 2, 6, 7);
            let out = ProtocolId::Pbft.run(&s);
            assert_eq!(
                out.log.accepted(),
                s.total_requests() as usize,
                "{}: incomplete",
                entry.name
            );
            let violations = check_run(ProtocolId::Pbft, &s, &out);
            assert!(violations.is_empty(), "{}: {violations:?}", entry.name);
        }
    }
}
