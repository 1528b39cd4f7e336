//! # bft-protocols
//!
//! The protocol suite: every BFT protocol the paper uses to illustrate its
//! design space, implemented on the `bft-sim` deterministic simulator over
//! the `bft-state` replicated state machine.
//!
//! | Module | Protocol | Paper role |
//! |--------|----------|------------|
//! | [`pbft`] | PBFT (full: ordering, view-change, checkpointing, recovery, MAC/signature modes, Byzantine leader variants) | §2.1 driving example, Figures 1–2 |
//! | [`zyzzyva`] | Zyzzyva + Zyzzyva5 | design choices 8, 10 |
//! | [`sbft`] | SBFT-style collector protocol with fast/slow paths | design choices 1, 6 |
//! | [`hotstuff`] | HotStuff (rotating responsive leader, threshold QCs) | design choices 1, 3 |
//! | [`tendermint`] | Tendermint-style (non-responsive rotation, Δ-wait) | design choice 4, E4 |
//! | [`poe`] | PoE-style speculative phase reduction | design choice 7 |
//! | [`cheap`] | CheapBFT-style active/passive replication | design choice 5 |
//! | [`fab`] | FaB-style fast two-phase consensus (5f+1) | design choice 2 |
//! | [`prime`] | Prime-style robust preordering | design choice 12 |
//! | [`fair`] | Themis-style γ-fair ordering | design choice 13, Q1 |
//! | [`kauri`] | Kauri-style tree dissemination/aggregation | design choice 14, Q2 |
//! | [`qu`] | Q/U-style conflict-free quorum protocol | design choice 9 |
//! | [`minbft`] | MinBFT-style 2f+1 with attested counters | E1 trusted hardware |
//! | [`chain`] | Chain-style pipelined protocol | E2 chain topology |
//!
//! Every protocol exposes a `run(&Scenario, ...)` entry point returning the
//! simulator's [`bft_sim::runner::RunOutcome`]; the common [`Scenario`]
//! describes workload, network, faults and seeds, so experiments compare
//! protocols under byte-identical conditions. [`common`] holds the shared
//! replica stages, [`client`] the client stage and the launcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod common;
pub mod registry;
pub mod suite;

pub mod chain;
pub mod cheap;
pub mod fab;
pub mod fair;
pub mod hotstuff;
pub mod kauri;
pub mod minbft;
pub mod pbft;
pub mod poe;
pub mod prime;
pub mod qu;
pub mod sbft;
pub mod tendermint;
pub mod zyzzyva;

pub use common::{Scenario, SignedRequest};
pub use registry::{registry, ChaosTolerance, Protocol, ProtocolEntry, ProtocolId};
