//! The timer taxonomy (dimension **E4**).
//!
//! The paper enumerates eight kinds of timers (τ1–τ8) that partially
//! synchronous BFT protocols use to ensure responsiveness and view
//! synchronization. Protocols in this workspace register timers with the
//! simulator under one of these kinds, which lets experiments report *which*
//! timers a protocol depends on — one of the design-space coordinates.

use serde::{Deserialize, Serialize};

/// The eight timer kinds of §2.2.2 E4, plus client retransmission (which the
/// paper folds into τ1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TimerKind {
    /// τ1 — waiting for reply messages (e.g. a Zyzzyva client waiting for
    /// 3f+1 matching speculative replies before falling back).
    T1WaitReplies,
    /// τ2 — triggering (consecutive) view-changes (PBFT's request timer).
    T2ViewChange,
    /// τ3 — detecting backup failures (SBFT's collector waiting for all
    /// 3f+1 signature shares before abandoning the fast path).
    T3BackupFailure,
    /// τ4 — quorum construction within an ordering phase (Tendermint's
    /// prevote/precommit timeouts).
    T4QuorumConstruction,
    /// τ5 — view synchronization (Tendermint's Δ-wait after leader
    /// rotation; HotStuff's stalled views run on τ2).
    T5ViewSync,
    /// τ6 — finishing a preordering round (Themis-style fair protocols).
    T6PreorderRound,
    /// τ7 — performance check / heartbeat (Aardvark's throughput floor on
    /// the leader).
    T7Heartbeat,
    /// τ8 — atomic recovery watchdog handing control to a recovery monitor
    /// (PBFT's proactive recovery).
    T8RecoveryWatchdog,
}

impl TimerKind {
    /// All timer kinds, in paper order.
    pub const ALL: [TimerKind; 8] = [
        TimerKind::T1WaitReplies,
        TimerKind::T2ViewChange,
        TimerKind::T3BackupFailure,
        TimerKind::T4QuorumConstruction,
        TimerKind::T5ViewSync,
        TimerKind::T6PreorderRound,
        TimerKind::T7Heartbeat,
        TimerKind::T8RecoveryWatchdog,
    ];

    /// The paper's label, e.g. `"τ2"`.
    pub fn label(&self) -> &'static str {
        match self {
            TimerKind::T1WaitReplies => "τ1",
            TimerKind::T2ViewChange => "τ2",
            TimerKind::T3BackupFailure => "τ3",
            TimerKind::T4QuorumConstruction => "τ4",
            TimerKind::T5ViewSync => "τ5",
            TimerKind::T6PreorderRound => "τ6",
            TimerKind::T7Heartbeat => "τ7",
            TimerKind::T8RecoveryWatchdog => "τ8",
        }
    }
}

impl std::fmt::Display for TimerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_ordered() {
        let labels: Vec<_> = TimerKind::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["τ1", "τ2", "τ3", "τ4", "τ5", "τ6", "τ7", "τ8"]);
        let mut sorted = TimerKind::ALL;
        sorted.sort();
        assert_eq!(sorted, TimerKind::ALL);
    }
}
