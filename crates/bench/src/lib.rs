//! # bft-bench
//!
//! The experiment harness: one experiment per paper artifact — the two
//! figures (F1–F2), the design-space dimensions (P1–P6, E1–E4, Q1–Q2) and
//! the fourteen design choices (DC1–DC14) — as enumerated in `DESIGN.md`.
//!
//! Each experiment builds identical [`bft_protocols::Scenario`]s for the
//! protocols under comparison, runs them on the deterministic simulator,
//! audits safety, and reports the quantities the paper's claim is stated
//! in. `EXPERIMENTS.md` records the paper-claim vs. measured-shape for
//! every row.
//!
//! Run everything:
//!
//! ```text
//! cargo bench --bench experiments
//! ```
//!
//! Regenerate one experiment (by id):
//!
//! ```text
//! cargo bench --bench experiments -- exp_dc8
//! ```
//!
//! Results are printed as tables and also written as JSON under
//! `target/experiments/` for archival.
//!
//! Experiments are independent deterministic simulations, so the harness
//! runs them on a parallel worker pool (see [`parallel`]); the pool size
//! comes from `BFT_BENCH_THREADS`, defaulting to the machine's available
//! parallelism, and results are byte-identical at any thread count.

pub mod campaign;
pub mod experiments;
pub mod parallel;
pub mod realtime;
pub mod run_length;
pub mod simload;
pub mod table;

pub use parallel::{run_all, thread_count, RunRecord};
pub use table::{ExperimentResult, Row};

/// An experiment runner: takes the `quick` flag, returns the result table.
pub type ExperimentFn = fn(bool) -> ExperimentResult;

/// The experiment registry: `(id, title, runner)`. The `quick` flag scales
/// the workloads down (used by the integration tests; the full runs are the
/// bench default).
pub fn registry() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    use experiments::*;
    vec![
        (
            "exp_f1",
            "Figure 1: replica lifecycle stages",
            figures::f1_lifecycle as ExperimentFn,
        ),
        ("exp_f2", "Figure 2: PBFT anatomy", figures::f2_pbft_anatomy),
        (
            "exp_p1",
            "P1: commitment strategies under faults",
            structure::p1_commitment,
        ),
        (
            "exp_p2",
            "P2: good-case commitment phases",
            structure::p2_phases,
        ),
        (
            "exp_p3",
            "P3: stable vs rotating leader",
            structure::p3_viewchange,
        ),
        ("exp_p4", "P4: checkpointing", structure::p4_checkpoint),
        ("exp_p5", "P5: proactive recovery", structure::p5_recovery),
        ("exp_p6", "P6: client reply quorums", structure::p6_clients),
        (
            "exp_e1",
            "E1: replicas vs phases vs resilience",
            environment::e1_replicas,
        ),
        (
            "exp_e2",
            "E2: communication topologies",
            environment::e2_topology,
        ),
        ("exp_e3", "E3: authentication modes", environment::e3_auth),
        (
            "exp_e4",
            "E4: responsiveness (δ vs Δ)",
            environment::e4_responsiveness,
        ),
        (
            "exp_q1",
            "Q1: order-fairness under adversarial leaders",
            qos::q1_fairness,
        ),
        ("exp_q2", "Q2: load balancing", qos::q2_loadbalance),
        ("exp_dc1", "DC1: linearization", choices::dc1_linearization),
        (
            "exp_dc2",
            "DC2: phase reduction through redundancy",
            choices::dc2_phase_reduction,
        ),
        ("exp_dc3", "DC3: leader rotation", choices::dc3_rotation),
        (
            "exp_dc4",
            "DC4: non-responsive leader rotation",
            choices::dc4_nonresponsive,
        ),
        (
            "exp_dc5",
            "DC5: optimistic replica reduction",
            choices::dc5_replica_reduction,
        ),
        (
            "exp_dc6",
            "DC6: optimistic phase reduction",
            choices::dc6_optimistic_phase,
        ),
        (
            "exp_dc7",
            "DC7: speculative phase reduction",
            choices::dc7_speculative_phase,
        ),
        (
            "exp_dc8",
            "DC8: speculative execution",
            choices::dc8_speculative_exec,
        ),
        (
            "exp_dc9",
            "DC9: optimistic conflict-free",
            choices::dc9_conflict_free,
        ),
        (
            "exp_dc10",
            "DC10: resilience (+2f replicas)",
            choices::dc10_resilience,
        ),
        (
            "exp_dc11",
            "DC11: authentication swap",
            choices::dc11_authentication,
        ),
        (
            "exp_dc12",
            "DC12: robustness (preordering)",
            choices::dc12_robust,
        ),
        (
            "exp_dc13",
            "DC13: order-fair preordering",
            choices::dc13_fair,
        ),
        (
            "exp_dc14",
            "DC14: tree-based load balancing",
            choices::dc14_tree,
        ),
        (
            "exp_abl_batching",
            "Ablation: request batching",
            ablations::abl_batching,
        ),
        (
            "exp_abl_gst",
            "Ablation: liveness across GST",
            ablations::abl_gst,
        ),
        (
            "exp_abl_readonly",
            "Ablation: PBFT read-only optimization",
            ablations::abl_readonly,
        ),
        (
            "exp_w1",
            "W1: workload suite across protocols",
            workloads::w1_workloads,
        ),
    ]
}

/// Run one experiment by id (None = not found).
pub fn run_experiment(id: &str, quick: bool) -> Option<ExperimentResult> {
    registry()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, _, f)| f(quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let reg = registry();
        assert_eq!(
            reg.len(),
            32,
            "2 figures + 6 P + 4 E + 2 Q + 14 DC + 3 ablations + 1 workload suite"
        );
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 32);
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("exp_nope", true).is_none());
    }
}
