//! The safety auditor.
//!
//! Every experiment ends with an audit of the observation log against the
//! two core guarantees of BFT state machine replication (§2 of the paper):
//!
//! * **Safety** — all non-faulty replicas execute the same transactions in
//!   the same order: no two correct replicas may finally commit *different*
//!   digests at the same sequence number, and their execution histories must
//!   agree on state digests at common sequence numbers.
//! * **Liveness** (checked per-experiment, not here) — all correct
//!   transactions eventually execute; experiments assert progress bounds
//!   explicitly since "eventually" depends on the scenario.
//!
//! Speculative commits (Zyzzyva/PoE) are exempt from the final-commit
//! check, and a `Rollback` discards the replica's execution state from its
//! first undone sequence number on, so only what it re-executes is compared.
//! A speculative commit that conflicts with the final one and is never
//! rolled back is not flagged: that check is not implemented yet.
//!
//! The auditor reads the log's rows and compares digests by their
//! ordinals; it decodes only the witnesses of a violation. It keeps
//! execution state per replica in vectors indexed by seq, so a rollback
//! is a truncation.

use std::num::NonZeroU32;

use bft_types::{Digest, SeqNum};

use crate::dense::DenseMap;
use crate::event::{NodeId, PackedNode};
use crate::obs::{ObservationLog, Ordinal, RowKind};

/// A detected safety violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyViolation {
    /// Sequence number where histories diverge.
    pub seq: SeqNum,
    /// The two conflicting (node, digest) witnesses.
    pub witnesses: [(NodeId, Digest); 2],
    /// What diverged.
    pub kind: ViolationKind,
}

/// What kind of divergence was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two final commits with different digests at one sequence number.
    ConflictingCommit,
    /// Two executions leaving different state digests at one sequence
    /// number (divergent state machines).
    DivergentState,
}

/// `exec_state`'s index for `node`, added in node order if missing;
/// `last` is tried first (consecutive rows are often one node's).
fn state_of(
    exec_state: &mut Vec<(PackedNode, DenseMap<NonZeroU32>)>,
    last: usize,
    node: PackedNode,
) -> usize {
    if exec_state.get(last).is_some_and(|(n, _)| *n == node) {
        return last;
    }
    match exec_state.binary_search_by_key(&node, |(n, _)| *n) {
        Ok(i) => i,
        Err(i) => {
            exec_state.insert(i, (node, DenseMap::default()));
            i
        }
    }
}

/// Audits an observation log for safety.
#[derive(Debug, Clone, Default)]
pub struct SafetyAuditor {
    /// Replicas known to be faulty in this run (crashed or Byzantine);
    /// their observations are ignored — BFT guarantees only bind correct
    /// replicas.
    pub faulty: Vec<NodeId>,
}

impl SafetyAuditor {
    /// Auditor that treats every replica as correct.
    pub fn all_correct() -> Self {
        SafetyAuditor::default()
    }

    /// Auditor excluding the given faulty replicas.
    pub fn excluding(faulty: Vec<NodeId>) -> Self {
        SafetyAuditor { faulty }
    }

    /// Check the log; returns every violation found (empty = safe).
    pub fn check(&self, log: &ObservationLog) -> Vec<SafetyViolation> {
        let faulty: Vec<PackedNode> = self.faulty.iter().map(|n| PackedNode::pack(*n)).collect();
        let witness =
            |(node, digest): (PackedNode, Ordinal)| (node.unpack(), log.entries.digest(digest));
        let mut violations = Vec::new();

        // seq → first (node, digest) final commit witness
        let mut commit_witness: DenseMap<(PackedNode, Ordinal)> = DenseMap::default();
        // per correct replica, in node order: seq → last state digest
        // executed, as ordinal + 1 (speculative state may be overwritten by
        // rollback + re-execution; last wins)
        let mut exec_state: Vec<(PackedNode, DenseMap<NonZeroU32>)> = Vec::new();
        // exec_state's index of the last row's node
        let mut last = 0;

        for row in log.entries.rows() {
            if faulty.contains(&row.node) || !row.node.unpack().is_replica() {
                continue;
            }
            match row.kind {
                RowKind::Commit {
                    seq,
                    digest,
                    speculative: false,
                    ..
                } => match commit_witness.get(seq.0) {
                    None => commit_witness.set(seq.0, (row.node, digest)),
                    Some(first) => {
                        if first.1 != digest {
                            violations.push(SafetyViolation {
                                seq,
                                witnesses: [witness(first), witness((row.node, digest))],
                                kind: ViolationKind::ConflictingCommit,
                            });
                        }
                    }
                },
                RowKind::Execute {
                    seq, state_digest, ..
                } => {
                    last = state_of(&mut exec_state, last, row.node);
                    let digest = NonZeroU32::new(state_digest + 1).expect("< 2^32 - 1 digests");
                    exec_state[last].1.set(seq.0, digest);
                }
                RowKind::Rollback { from_seq } => {
                    // discard rolled-back execution state for this node
                    last = state_of(&mut exec_state, last, row.node);
                    exec_state[last].1.truncate(from_seq.0);
                }
                _ => {}
            }
        }

        // Cross-replica execution-state agreement: for each seq, all correct
        // replicas that executed it must agree on the post-state digest.
        let mut state_witness: DenseMap<(PackedNode, Ordinal)> = DenseMap::default();
        for (node, states) in &exec_state {
            for (seq, digest) in states.iter() {
                let (seq, digest) = (SeqNum(seq), digest.get() - 1);
                match state_witness.get(seq.0) {
                    None => state_witness.set(seq.0, (*node, digest)),
                    Some(first) => {
                        if first.1 != digest {
                            violations.push(SafetyViolation {
                                seq,
                                witnesses: [witness(first), witness((*node, digest))],
                                kind: ViolationKind::DivergentState,
                            });
                        }
                    }
                }
            }
        }

        violations
    }

    /// Convenience: panic with a readable report if the log is unsafe.
    /// Experiments call this at the end of every run.
    pub fn assert_safe(&self, log: &ObservationLog) {
        let violations = self.check(log);
        assert!(
            violations.is_empty(),
            "SAFETY VIOLATIONS DETECTED:\n{}",
            violations
                .iter()
                .map(|v| format!(
                    "  {:?} at {}: {} committed {}, {} committed {}",
                    v.kind,
                    v.seq,
                    v.witnesses[0].0,
                    v.witnesses[0].1,
                    v.witnesses[1].0,
                    v.witnesses[1].1
                ))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Observation;
    use crate::time::SimTime;
    use bft_types::View;

    fn commit(log: &mut ObservationLog, node: u32, seq: u64, d: u8, spec: bool) {
        log.push(
            SimTime(seq),
            NodeId::replica(node),
            Observation::Commit {
                seq: SeqNum(seq),
                view: View(0),
                digest: Digest([d; 32]),
                speculative: spec,
            },
        );
    }

    #[test]
    fn agreeing_commits_are_safe() {
        let mut log = ObservationLog::default();
        for r in 0..4 {
            commit(&mut log, r, 1, 0xaa, false);
            commit(&mut log, r, 2, 0xbb, false);
        }
        assert!(SafetyAuditor::all_correct().check(&log).is_empty());
    }

    #[test]
    fn conflicting_commits_detected() {
        let mut log = ObservationLog::default();
        commit(&mut log, 0, 1, 0xaa, false);
        commit(&mut log, 1, 1, 0xbb, false);
        let v = SafetyAuditor::all_correct().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::ConflictingCommit);
        assert_eq!(v[0].seq, SeqNum(1));
    }

    #[test]
    fn faulty_replicas_are_ignored() {
        let mut log = ObservationLog::default();
        commit(&mut log, 0, 1, 0xaa, false);
        commit(&mut log, 1, 1, 0xbb, false); // byzantine claims different digest
        let auditor = SafetyAuditor::excluding(vec![NodeId::replica(1)]);
        assert!(auditor.check(&log).is_empty());
    }

    #[test]
    fn speculative_commits_do_not_conflict() {
        let mut log = ObservationLog::default();
        commit(&mut log, 0, 1, 0xaa, true); // speculative
        commit(&mut log, 1, 1, 0xbb, false); // final
        assert!(SafetyAuditor::all_correct().check(&log).is_empty());
    }

    #[test]
    fn divergent_execution_state_detected() {
        let mut log = ObservationLog::default();
        let req = bft_types::RequestId {
            client: bft_types::ClientId(1),
            timestamp: 1,
        };
        log.push(
            SimTime(1),
            NodeId::replica(0),
            Observation::Execute {
                seq: SeqNum(1),
                request: req,
                state_digest: Digest([1; 32]),
            },
        );
        log.push(
            SimTime(2),
            NodeId::replica(1),
            Observation::Execute {
                seq: SeqNum(1),
                request: req,
                state_digest: Digest([2; 32]),
            },
        );
        let v = SafetyAuditor::all_correct().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::DivergentState);
    }

    #[test]
    fn rolled_back_speculation_is_forgiven() {
        let mut log = ObservationLog::default();
        let req = bft_types::RequestId {
            client: bft_types::ClientId(1),
            timestamp: 1,
        };
        // replica 0 speculatively executes the "wrong" request…
        log.push(
            SimTime(1),
            NodeId::replica(0),
            Observation::Execute {
                seq: SeqNum(1),
                request: req,
                state_digest: Digest([9; 32]),
            },
        );
        // …rolls it back…
        log.push(
            SimTime(2),
            NodeId::replica(0),
            Observation::Rollback {
                from_seq: SeqNum(1),
            },
        );
        // …and re-executes the right one, now agreeing with replica 1.
        log.push(
            SimTime(3),
            NodeId::replica(0),
            Observation::Execute {
                seq: SeqNum(1),
                request: req,
                state_digest: Digest([1; 32]),
            },
        );
        log.push(
            SimTime(3),
            NodeId::replica(1),
            Observation::Execute {
                seq: SeqNum(1),
                request: req,
                state_digest: Digest([1; 32]),
            },
        );
        assert!(SafetyAuditor::all_correct().check(&log).is_empty());
    }

    #[test]
    fn a_rollback_discards_only_that_replicas_later_executions() {
        let mut log = ObservationLog::default();
        let req = bft_types::RequestId {
            client: bft_types::ClientId(1),
            timestamp: 1,
        };
        let mut execute = |node: u32, seq: u64, d: u8| {
            log.push(
                SimTime(seq),
                NodeId::replica(node),
                Observation::Execute {
                    seq: SeqNum(seq),
                    request: req,
                    state_digest: Digest([d; 32]),
                },
            );
        };
        // replicas 0 and 2 disagree with replica 1 at seqs 1..=3
        for seq in 1..=3 {
            execute(0, seq, 1);
            execute(1, seq, 2);
            execute(2, seq, 1);
        }
        // replica 1 undoes seqs 2 and 3 only
        log.push(
            SimTime(4),
            NodeId::replica(1),
            Observation::Rollback {
                from_seq: SeqNum(2),
            },
        );
        let v = SafetyAuditor::all_correct().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].seq, SeqNum(1));
        assert_eq!(
            v[0].witnesses,
            [
                (NodeId::replica(0), Digest([1; 32])),
                (NodeId::replica(1), Digest([2; 32]))
            ]
        );
    }

    #[test]
    #[should_panic(expected = "SAFETY VIOLATIONS")]
    fn assert_safe_panics_on_violation() {
        let mut log = ObservationLog::default();
        commit(&mut log, 0, 1, 0xaa, false);
        commit(&mut log, 1, 1, 0xbb, false);
        SafetyAuditor::all_correct().assert_safe(&log);
    }
}
