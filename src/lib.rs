//! # untrusted-txn
//!
//! A unified platform for **Byzantine fault-tolerant transaction
//! processing**: a from-scratch reproduction of *Distributed Transaction
//! Processing in Untrusted Environments* (Amiri, Agrawal, El Abbadi, Loo —
//! SIGMOD-Companion '24).
//!
//! The paper maps partially synchronous BFT state-machine-replication
//! protocols into a **design space** (protocol structure, environmental
//! settings, quality-of-service) and shows how **fourteen design choices**
//! transform one protocol into another. This workspace makes all of that
//! executable:
//!
//! * [`core::design`] — the dimensions and [`core::design::ProtocolPoint`];
//! * [`core::choices`] — the 14 transformations and the protocol catalogue;
//! * [`protocols`] — 14 runnable protocols (PBFT, Zyzzyva/Zyzzyva5, SBFT,
//!   HotStuff, Tendermint, PoE, CheapBFT, FaB, Prime, Themis-style fair,
//!   Kauri, Q/U, MinBFT, Chain) on a deterministic simulator;
//! * [`sim`] — the partially synchronous discrete-event simulator with
//!   fault injection and a safety auditor;
//! * [`state`] — the replicated key-value state machine with snapshots and
//!   speculative rollback;
//! * [`crypto`] — SHA-256/HMAC, simulated signatures and threshold
//!   signatures with an explicit cost model.
//!
//! ## Quickstart
//!
//! ```
//! use untrusted_txn::prelude::*;
//!
//! // a 4-replica PBFT cluster, one client, 20 transactions
//! let scenario = Scenario::small(1).with_load(1, 20);
//! let outcome = ProtocolId::Pbft.run(&scenario);
//!
//! // every run is audited: no two correct replicas may disagree
//! SafetyAuditor::all_correct().assert_safe(&outcome.log);
//! assert_eq!(outcome.log.client_latencies().len(), 20);
//! ```
//!
//! See `examples/` for protocol comparisons, Byzantine attack demos,
//! geo-replication and the design-space explorer, and `crates/bench` for
//! the full experiment suite (`cargo bench --bench experiments`).

pub use bft_core as core;
pub use bft_crypto as crypto;
pub use bft_protocols as protocols;
pub use bft_sim as sim;
pub use bft_state as state;
pub use bft_types as types;

/// The most common imports, bundled.
pub mod prelude {
    pub use bft_core::catalogue;
    pub use bft_core::choices::DesignChoice;
    pub use bft_core::design::ProtocolPoint;
    pub use bft_core::report::RunReport;
    pub use bft_core::workload::{WorkloadConfig, WorkloadKind};
    pub use bft_protocols::pbft::{self, Behavior, PbftAuth, PbftOptions};
    pub use bft_protocols::registry::{registry, Protocol, ProtocolEntry, ProtocolId};
    pub use bft_protocols::zyzzyva::{self, ZyzzyvaVariant};
    pub use bft_protocols::Scenario;
    pub use bft_protocols::{
        chain, cheap, fab, fair, hotstuff, kauri, minbft, poe, prime, qu, sbft, tendermint,
    };
    pub use bft_sim::{
        AdversarySpec, Attack, AttackKind, EngineKind, FaultPlan, NetworkConfig, NodeId,
        Observation, RunOutcome, SafetyAuditor, SimDuration, SimTime,
    };
    pub use bft_types::{ClientId, QuorumRules, ReplicaId, SeqNum, View};
}
