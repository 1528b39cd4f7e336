//! # bft-core
//!
//! The paper's primary contribution, as a library: a **design space** for
//! partially synchronous BFT state-machine-replication protocols, and the
//! **fourteen design choices** — validated transformations mapping one
//! protocol (a point in the design space) to another, each exposing a
//! trade-off.
//!
//! * [`design`] — the dimensions: protocol structure (P1–P6), environmental
//!   settings (E1–E4) and quality-of-service features (Q1–Q2), combined
//!   into a [`design::ProtocolPoint`] with a validity predicate encoding
//!   the cross-dimension constraints the paper states (threshold signatures
//!   require collectors, order-fairness bounds the replica count, …).
//! * [`choices`] — design choices 1–14 as total functions with explicit
//!   preconditions, plus the catalogue of named protocols (PBFT, Zyzzyva,
//!   SBFT, HotStuff, Tendermint, PoE, CheapBFT, FaB, Prime, Themis-style,
//!   Kauri, Q/U, MinBFT) as points in the space.
//! * [`client`] — reply collection with protocol-specific quorums
//!   (dimension P6), shared by every protocol's client.
//! * [`workload`] — synthetic transaction generators with contention, skew
//!   and read-ratio knobs (the workload axes the paper's trade-offs
//!   reference).
//! * [`report`] — the run report experiments aggregate: throughput,
//!   latency, message complexity, load balance, fault counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choices;
pub mod client;
pub mod design;
pub mod report;
pub mod workload;

pub use choices::{catalogue, DesignChoice};
pub use client::ReplyCollector;
pub use design::{
    Assumption, AuthMode, CommitmentStrategy, LeaderMode, MsgComplexity, Phase, ProtocolPoint,
    QosFeatures, RecoveryMode, TopologyKind,
};
pub use report::RunReport;
pub use workload::{Arrival, KeyDist, Workload, WorkloadConfig, WorkloadKind};
