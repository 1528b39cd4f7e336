//! Client machinery (dimension **P6**).
//!
//! [`ReplyCollector`] collects replies from distinct replicas and reports
//! when the protocol's reply quorum is reached with *matching* replies
//! (result, post-state digest and speculation must agree). PBFT waits for
//! `f+1`, PoE for `2f+1`, Zyzzyva's fast path for all `3f+1`. Pacing,
//! retransmission and acceptance belong to the client stage in
//! `bft_protocols::client`.

use std::collections::BTreeMap;

use bft_types::{Digest, ReplicaId, Reply, TxnResult};

/// Collects replies for one outstanding request.
#[derive(Debug, Clone, Default)]
pub struct ReplyCollector {
    /// Replies keyed by replica; only the latest reply per replica counts.
    replies: BTreeMap<ReplicaId, Reply>,
}

/// The outcome of offering a reply to the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectStatus {
    /// Not enough matching replies yet.
    Pending {
        /// Size of the largest matching set so far.
        best: usize,
    },
    /// A quorum of matching replies was assembled.
    Complete {
        /// The agreed reply.
        reply: Reply,
        /// How many replicas matched.
        matched: usize,
    },
    /// Two replies from different replicas conflict (differ in result or
    /// state digest) — for Zyzzyva clients this is the failure-detection
    /// signal that triggers repair.
    Conflict,
}

/// What two replies must share to match.
type MatchKey<'a> = (Digest, bool, &'a TxnResult);

impl ReplyCollector {
    /// Create an empty collector.
    pub fn new() -> Self {
        ReplyCollector::default()
    }

    /// Number of distinct replicas heard from.
    pub fn distinct(&self) -> usize {
        self.replies.len()
    }

    /// Offer a reply from `replica`; `quorum` is the number of *matching*
    /// replies required.
    pub fn offer(&mut self, replica: ReplicaId, reply: Reply, quorum: usize) -> CollectStatus {
        self.replies.insert(replica, reply);
        self.status(quorum)
    }

    /// The replies grouped by what must agree for them to match: each
    /// group's size beside its lowest replica's reply, in key order.
    fn groups(&self) -> BTreeMap<MatchKey<'_>, (usize, &Reply)> {
        let mut groups = BTreeMap::new();
        for reply in self.replies.values() {
            let key = (reply.state_digest, reply.speculative, &reply.result);
            groups.entry(key).or_insert((0, reply)).0 += 1;
        }
        groups
    }

    /// Current status against `quorum`.
    pub fn status(&self, quorum: usize) -> CollectStatus {
        let groups = self.groups();
        if let Some((count, reply)) = groups.values().find(|(c, _)| *c >= quorum) {
            return CollectStatus::Complete {
                reply: (*reply).clone(),
                matched: *count,
            };
        }
        let mut outcomes = groups.keys().map(|(digest, _, result)| (digest, result));
        let first = outcomes.next();
        if outcomes.any(|other| Some(other) != first) {
            return CollectStatus::Conflict;
        }
        let best = groups.values().map(|(c, _)| *c).max().unwrap_or(0);
        CollectStatus::Pending { best }
    }

    /// The largest matching group: its size and a representative reply
    /// (the last largest in key order).
    fn largest(&self) -> Option<(usize, &Reply)> {
        self.groups().into_values().max_by_key(|(c, _)| *c)
    }

    /// The matching count of the largest agreeing group (Zyzzyva's slow
    /// path: 2f+1 matching speculative replies out of a conflicted or
    /// incomplete set still allow a commit-certificate round).
    pub fn best_matching(&self) -> usize {
        self.largest().map_or(0, |(c, _)| c)
    }

    /// A representative reply from the largest matching group (the result
    /// the client accepts once that group reaches its quorum).
    pub fn best_matching_reply(&self) -> Option<&Reply> {
        self.largest().map(|(_, r)| r)
    }

    /// Reset for the next request.
    pub fn clear(&mut self) {
        self.replies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::{ClientId, RequestId, View};

    fn reply(ts: u64, digest: u8, speculative: bool) -> Reply {
        Reply {
            request: RequestId {
                client: ClientId(1),
                timestamp: ts,
            },
            view: View(0),
            result: TxnResult { reads: vec![] },
            state_digest: Digest([digest; 32]),
            speculative,
        }
    }

    #[test]
    fn completes_at_quorum() {
        let mut c = ReplyCollector::new();
        assert_eq!(
            c.offer(ReplicaId(0), reply(1, 7, false), 2),
            CollectStatus::Pending { best: 1 }
        );
        match c.offer(ReplicaId(1), reply(1, 7, false), 2) {
            CollectStatus::Complete { matched, .. } => assert_eq!(matched, 2),
            s => panic!("expected complete, got {s:?}"),
        }
    }

    #[test]
    fn duplicate_replica_does_not_count_twice() {
        let mut c = ReplyCollector::new();
        c.offer(ReplicaId(0), reply(1, 7, false), 2);
        let s = c.offer(ReplicaId(0), reply(1, 7, false), 2);
        assert_eq!(s, CollectStatus::Pending { best: 1 });
    }

    #[test]
    fn conflict_detected() {
        let mut c = ReplyCollector::new();
        c.offer(ReplicaId(0), reply(1, 7, false), 3);
        let s = c.offer(ReplicaId(1), reply(1, 8, false), 3);
        assert_eq!(s, CollectStatus::Conflict);
    }

    #[test]
    fn speculative_and_final_replies_do_not_match() {
        let mut c = ReplyCollector::new();
        c.offer(ReplicaId(0), reply(1, 7, true), 2);
        let s = c.offer(ReplicaId(1), reply(1, 7, false), 2);
        // same digest but different speculation flag: still pending (no
        // matching pair), though not a digest conflict
        assert_eq!(s, CollectStatus::Pending { best: 1 });
    }

    /// A reply that agrees with an honest one on the state digest but
    /// reports another result matches nothing: a Byzantine lowest-id
    /// replica cannot choose the accepted result.
    #[test]
    fn replies_match_only_if_their_results_agree() {
        let with = |value| Reply {
            result: TxnResult {
                reads: vec![Some(value)],
            },
            ..reply(1, 7, false)
        };
        let mut c = ReplyCollector::new();
        c.offer(ReplicaId(0), with(666), 2);
        assert_eq!(c.offer(ReplicaId(1), with(1), 2), CollectStatus::Conflict);
        assert_eq!(c.best_matching(), 1);
        match c.offer(ReplicaId(2), with(1), 2) {
            CollectStatus::Complete { reply, matched } => {
                assert_eq!((reply.result, matched), (with(1).result, 2));
            }
            s => panic!("expected complete, got {s:?}"),
        }
        assert_eq!(c.best_matching_reply(), Some(&with(1)));
    }

    #[test]
    fn best_matching_counts_largest_group() {
        let mut c = ReplyCollector::new();
        c.offer(ReplicaId(0), reply(1, 7, false), 10);
        c.offer(ReplicaId(1), reply(1, 7, false), 10);
        c.offer(ReplicaId(2), reply(1, 8, false), 10);
        assert_eq!(c.best_matching(), 2);
        assert_eq!(c.distinct(), 3);
    }
}
