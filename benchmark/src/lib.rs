//! The repo benchmark.
//!
//! Five workloads, six end-to-end metrics and a per-layer ledger, all
//! measured from outside the program through its public functions
//! (`Scenario`, `ProtocolId::run`, `suite::check_run`, `SafetyAuditor`,
//! `bft_crypto::*`, `StateMachine`, `Workload`, `Simulation`,
//! `ThreadedEngine`). See `README.md` for the metric tables and how the
//! layers are expected to move the end-to-end numbers.

#![warn(missing_docs)]

pub mod agree;
pub mod clock;
pub mod layers;
pub mod measure;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
