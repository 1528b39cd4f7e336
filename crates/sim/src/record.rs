//! The semantic run record: what a finished run did, one canonical line per
//! fact.
//!
//! Goldens and determinism checks compare this record, or its digest, rather
//! than a serialization of the log and metrics, so they pin behaviour (who
//! observed what and when, and what it cost on the wire) and not a byte
//! format. The record ignores exactly three things a serialization would pin:
//! field order, whether a zero counter is present, and digest bytes beyond
//! which values are equal. Every [`Digest`](bft_types::Digest) is written as
//! its first-appearance ordinal (`#0`, `#1`, …) in one namespace per run, so
//! equal digests stay equal and unequal ones unequal. `events_processed` and `end_time` stay out
//! on purpose: a change in how many timer events a run pops is not a change
//! in what the run did.

use crate::obs::RowKind;
use crate::runner::RunOutcome;

impl RunOutcome {
    /// The run as text: one line per observation in log order (virtual ns,
    /// node, meaning), then the five counters of each node
    /// [`Metrics::nodes`](crate::Metrics::nodes) lists, then the non-zero run
    /// counters sorted by name.
    pub fn semantic_record(&self) -> String {
        // the log interns exactly the digests written here, in this order,
        // so its ordinals are the record's
        let mut lines = Vec::new();
        for row in self.log.entries.rows() {
            let what = match row.kind {
                RowKind::Commit {
                    seq,
                    view,
                    digest,
                    speculative,
                } => format!("commit {seq} {view} #{digest} speculative={speculative}"),
                RowKind::Execute {
                    seq,
                    request,
                    state_digest,
                } => format!("execute {seq} {request} #{state_digest}"),
                RowKind::Rollback { from_seq } => format!("rollback {from_seq}"),
                RowKind::NewView { view } => format!("new-view {view}"),
                RowKind::StableCheckpoint { seq, state_digest } => {
                    format!("stable-checkpoint {seq} #{state_digest}")
                }
                RowKind::StageEnter { stage } => format!("stage {stage}"),
                RowKind::RecoveryStart => "recovery-start".into(),
                RowKind::RecoveryDone => "recovery-done".into(),
                RowKind::ClientAccept(index) => {
                    let a = self.log.entries.accept(index);
                    format!(
                        "accept {} sent={} fast={} {:?} -> {:?}",
                        a.request, a.sent_at.0, a.fast_path, a.txn.ops, a.result.reads
                    )
                }
                RowKind::Marker { label } => format!("marker {label}"),
            };
            lines.push(format!("{} {} {what}", row.at.0, row.node.unpack()));
        }
        for (node, c) in self.metrics.nodes() {
            lines.push(format!(
                "{node} sent={}/{}B received={}/{}B cpu={}",
                c.msgs_sent, c.bytes_sent, c.msgs_received, c.bytes_received, c.cpu.0
            ));
        }
        let mut counters = self.metrics.run_counters();
        counters.sort_unstable();
        for (name, value) in counters {
            if value != 0 {
                lines.push(format!("{name}={value}"));
            }
        }
        lines.push(String::new());
        lines.join("\n")
    }

    /// Hex SHA-256 of [`Self::semantic_record`]: the value goldens pin.
    pub fn semantic_digest(&self) -> String {
        bft_crypto::sha256(self.semantic_record().as_bytes())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NodeId;
    use crate::obs::{Observation, ObservationLog};
    use crate::time::SimTime;
    use bft_types::{ClientId, Digest, RequestId, SeqNum, View};

    /// Two replicas commit the batch with digest bytes `batch` and execute
    /// it, leaving the state digest bytes `states`; replica 0 sends 100 B.
    fn outcome(batch: u8, states: [u8; 2]) -> RunOutcome {
        let mut out = RunOutcome {
            end_time: SimTime(2),
            metrics: Default::default(),
            log: ObservationLog::default(),
            events_processed: 4,
        };
        let seq = SeqNum(1);
        for (i, state) in states.into_iter().enumerate() {
            let (at, node) = (SimTime(i as u64), NodeId::replica(i as u32));
            out.log.push(
                at,
                node,
                Observation::Commit {
                    seq,
                    view: View(0),
                    digest: Digest([batch; 32]),
                    speculative: false,
                },
            );
            let request = RequestId {
                client: ClientId(0),
                timestamp: 1,
            };
            let state_digest = Digest([state; 32]);
            out.log.push(
                at,
                node,
                Observation::Execute {
                    seq,
                    request,
                    state_digest,
                },
            );
        }
        out.metrics.on_send(NodeId::replica(0), 100);
        out
    }

    #[test]
    fn a_bijective_relabelling_of_digests_keeps_the_record() {
        assert_eq!(
            outcome(1, [2, 3]).semantic_record(),
            outcome(9, [7, 8]).semantic_record()
        );
    }

    #[test]
    fn merging_two_distinct_digests_changes_the_record() {
        assert_ne!(
            outcome(1, [2, 3]).semantic_digest(),
            outcome(1, [2, 2]).semantic_digest()
        );
    }

    #[test]
    fn one_nanosecond_on_one_observation_changes_the_record() {
        let mut later = outcome(1, [2, 3]);
        let mut log = ObservationLog::default();
        for (i, e) in later.log.entries.iter().enumerate() {
            log.push(SimTime(e.at.0 + u64::from(i == 3)), e.node, e.obs);
        }
        later.log = log;
        assert_ne!(
            outcome(1, [2, 3]).semantic_digest(),
            later.semantic_digest()
        );
    }

    #[test]
    fn one_byte_on_one_nodes_bytes_sent_changes_the_record() {
        let mut more = outcome(1, [2, 3]);
        more.metrics.on_send_n(NodeId::replica(0), 0, 1);
        assert_ne!(outcome(1, [2, 3]).semantic_digest(), more.semantic_digest());
    }

    #[test]
    fn a_zero_run_counter_contributes_no_line() {
        let mut out = outcome(1, [2, 3]);
        assert!(!out.semantic_record().contains("dropped"));
        out.metrics.dropped = 2;
        assert!(out.semantic_record().ends_with("\ndropped=2\n"));
    }
}
