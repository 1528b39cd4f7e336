//! # bft-types
//!
//! Core vocabulary shared by every crate in the `untrusted-txn` workspace:
//! identifiers for replicas, clients, views and sequence numbers; the
//! transaction and request model executed by the replicated state machine;
//! the quorum arithmetic that underpins every Byzantine fault-tolerant
//! protocol in the suite (`n = 3f+1`, `n = 5f+1`, `n = 2f+1` with trusted
//! hardware, `n = 3f+2k+1` for proactive recovery, and the order-fairness
//! bound `n > 4f / (2γ − 1)`), with the replica formulas that name them.
//!
//! The paper this workspace reproduces — *Distributed Transaction Processing
//! in Untrusted Environments* (SIGMOD-Companion '24) — analyses BFT
//! state-machine-replication protocols along a set of design dimensions.
//! Everything in this crate is dimension-neutral: it is the vocabulary in
//! which those dimensions are expressed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ids;
pub mod quorum;
pub mod request;
pub mod timer;
pub mod wire;

pub use config::ReplicaFormula;
pub use ids::{ClientId, Digest, ReplicaId, RequestId, SeqNum, View};
pub use quorum::QuorumRules;
pub use request::{Key, Op, Reply, Request, Transaction, TxnResult, Value};
pub use timer::TimerKind;
pub use wire::WireSize;

/// Errors shared across the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BftError {
    /// A configuration was internally inconsistent (e.g. too few replicas
    /// for the requested fault threshold).
    InvalidConfig(String),
    /// A message failed authentication.
    BadAuthenticator,
    /// A certificate did not contain the required quorum of distinct valid
    /// signatures/shares.
    BadCertificate(String),
    /// A protocol-level invariant would have been violated.
    ProtocolViolation(String),
}

impl std::fmt::Display for BftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BftError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            BftError::BadAuthenticator => write!(f, "message authentication failed"),
            BftError::BadCertificate(s) => write!(f, "bad certificate: {s}"),
            BftError::ProtocolViolation(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for BftError {}

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, BftError>;
