//! Observations: the audit trail every actor emits.
//!
//! Protocol correctness in the experiments is never taken on faith: each
//! replica records what it commits, executes, checkpoints, and which
//! lifecycle stage (Figure 1 of the paper) it is in. The simulator collects
//! these into an [`ObservationLog`] that the safety auditor and the
//! experiment harness consume.
//!
//! The log stores each observation as a fixed-size row (DESIGN.md,
//! "Observation log"): the run's memory is mostly this log, and the
//! checker, the auditor and the semantic record read the rows without
//! decoding them.

use bft_types::{Digest, RequestId, SeqNum, Transaction, TxnResult, View};

use crate::event::{NodeId, PackedNode};
use crate::time::SimTime;

/// The replica lifecycle stages of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Agreeing on a unique order for requests.
    Ordering,
    /// Applying requests to the replicated state machine.
    Execution,
    /// Replacing the current leader.
    ViewChange,
    /// Garbage-collecting the log / helping trailing replicas catch up.
    Checkpointing,
    /// Recovering from (suspected) faults via rejuvenation.
    Recovery,
}

impl Stage {
    /// All stages, in Figure 1 order.
    pub const ALL: [Stage; 5] = [
        Stage::Ordering,
        Stage::Execution,
        Stage::ViewChange,
        Stage::Checkpointing,
        Stage::Recovery,
    ];
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Ordering => "ordering",
            Stage::Execution => "execution",
            Stage::ViewChange => "view-change",
            Stage::Checkpointing => "checkpointing",
            Stage::Recovery => "recovery",
        };
        f.write_str(s)
    }
}

/// One audited protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// A replica committed (decided) the batch with `digest` at `seq`.
    /// `speculative` marks tentative commits that may later roll back
    /// (Zyzzyva/PoE) — the safety auditor treats final and speculative
    /// commits differently.
    Commit {
        /// Decided sequence number.
        seq: SeqNum,
        /// View of the decision.
        view: View,
        /// Digest of the decided batch.
        digest: Digest,
        /// Tentative (speculative) commit?
        speculative: bool,
    },
    /// A replica executed a request at `seq`, leaving the state machine at
    /// `state_digest`.
    Execute {
        /// Position in the history.
        seq: SeqNum,
        /// The executed request.
        request: RequestId,
        /// State digest after execution.
        state_digest: Digest,
    },
    /// A speculative execution was rolled back (PoE/Zyzzyva fallback).
    Rollback {
        /// First sequence number undone.
        from_seq: SeqNum,
    },
    /// A replica entered a new view.
    NewView {
        /// The view entered.
        view: View,
    },
    /// A replica established a stable checkpoint.
    StableCheckpoint {
        /// Checkpoint sequence number.
        seq: SeqNum,
        /// State digest at the checkpoint.
        state_digest: Digest,
    },
    /// A replica transitioned lifecycle stage (Figure 1).
    StageEnter {
        /// The stage entered.
        stage: Stage,
    },
    /// A replica began rejuvenation (proactive or reactive recovery).
    RecoveryStart,
    /// A replica finished rejuvenation and rejoined.
    RecoveryDone,
    /// A client accepted a result for `request` (its reply quorum was met).
    ClientAccept {
        /// The completed request.
        request: RequestId,
        /// When the client first sent it (for latency accounting).
        sent_at: SimTime,
        /// Whether acceptance used the speculative (fast) path.
        fast_path: bool,
        /// The transaction the request carried (makes accepted histories
        /// self-contained for the semantic checkers).
        txn: Transaction,
        /// The agreed execution result the client accepted.
        result: TxnResult,
    },
    /// Protocol-specific marker (e.g. "fallback triggered", "fast path").
    Marker {
        /// Free-form label; experiments grep for these.
        label: &'static str,
    },
}

/// A timestamped observation from one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedObservation {
    /// When it happened (virtual time).
    pub at: SimTime,
    /// Which node observed it.
    pub node: NodeId,
    /// What happened.
    pub obs: Observation,
}

/// A digest's first-appearance ordinal in its log (`#0`, `#1`, … in
/// [`RunOutcome::semantic_record`](crate::RunOutcome::semantic_record)).
pub(crate) type Ordinal = u32;

/// One stored observation: 48 bytes, where a [`LoggedObservation`] takes
/// 104. Digests are [`Ordinal`]s into the log's digest table and a
/// `ClientAccept` is an index into its accept table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) at: SimTime,
    pub(crate) node: PackedNode,
    pub(crate) kind: RowKind,
}

/// [`Observation`] with digests interned and the accept payload moved out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKind {
    Commit {
        seq: SeqNum,
        view: View,
        digest: Ordinal,
        speculative: bool,
    },
    Execute {
        seq: SeqNum,
        request: RequestId,
        state_digest: Ordinal,
    },
    Rollback {
        from_seq: SeqNum,
    },
    NewView {
        view: View,
    },
    StableCheckpoint {
        seq: SeqNum,
        state_digest: Ordinal,
    },
    StageEnter {
        stage: Stage,
    },
    RecoveryStart,
    RecoveryDone,
    /// Index into [`Entries::accept`].
    ClientAccept(u32),
    Marker {
        label: &'static str,
    },
}

/// The payload of one `ClientAccept` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Accept {
    pub(crate) request: RequestId,
    pub(crate) sent_at: SimTime,
    pub(crate) fast_path: bool,
    pub(crate) txn: Transaction,
    pub(crate) result: TxnResult,
}

/// The distinct digests of one log in first-appearance order, with an
/// open-addressing index over them: each used slot holds ordinal + 1, an
/// empty one 0, and at most half the slots are used.
#[derive(Debug, Clone, Default)]
struct Digests {
    table: Vec<Digest>,
    slots: Vec<u32>,
}

impl Digests {
    fn intern(&mut self, digest: Digest) -> Ordinal {
        if 2 * (self.table.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(&digest, mask);
        loop {
            match self.slots[i] {
                0 => {
                    let ordinal = Ordinal::try_from(self.table.len()).expect("< 2^32 digests");
                    self.table.push(digest);
                    self.slots[i] = ordinal + 1;
                    return ordinal;
                }
                used if self.table[used as usize - 1] == digest => return used - 1,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let mask = len - 1;
        self.slots = vec![0; len];
        for (ordinal, digest) in self.table.iter().enumerate() {
            let mut i = Self::hash(digest, mask);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = ordinal as u32 + 1;
        }
    }

    /// Digests are SHA-256 output: eight of their bytes hash well enough.
    fn hash(digest: &Digest, mask: usize) -> usize {
        let head = u64::from_le_bytes(digest.0[..8].try_into().expect("8 bytes"));
        (head.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
    }
}

/// log2 of [`SEGMENT_LEN`].
const SEGMENT_BITS: u32 = 12;
/// Elements per segment of a [`Segmented`] vector: 4 096 rows are
/// 192 KiB. Peak RSS of the benchmark at 15 s, seed 1, two or three runs
/// each (2-core Xeon 2.1 GHz, glibc malloc): `sim-pbft-n4-bigstate`
/// 44.9–45.2 MiB with 2^12-element segments, 45.1–45.7 with 2^14 and
/// 47.4–47.5 with 2^16, against 65.0 with one doubling `Vec`;
/// `sim-pbft-n4` 64.9–65.0, 65.5–65.6 and 67.6–70.1, against 65.9–66.3.
const SEGMENT_LEN: usize = 1 << SEGMENT_BITS;

/// An append-only vector stored in segments of [`SEGMENT_LEN`] elements.
///
/// The first segment grows by doubling, as a `Vec` does, up to
/// `SEGMENT_LEN`; every later segment is allocated at that size and never
/// moves. A log that grows into the megabytes is therefore never copied
/// into a larger block, and the blocks a finished log frees are all the
/// same size, so the next run's log reuses them (DESIGN.md, "Observation
/// log").
#[derive(Debug, Clone)]
struct Segmented<T> {
    /// Elements `0 .. SEGMENT_LEN`.
    head: Vec<T>,
    /// Full segments after `head`, then the one being filled. Empty until
    /// `head` is full.
    tail: Vec<Vec<T>>,
}

impl<T> Default for Segmented<T> {
    fn default() -> Self {
        Segmented {
            head: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> Segmented<T> {
    fn push(&mut self, value: T) {
        let segment = if self.head.len() < SEGMENT_LEN {
            &mut self.head
        } else {
            match self.tail.last_mut() {
                Some(last) if last.len() < SEGMENT_LEN => last,
                _ => {
                    self.tail.push(Vec::with_capacity(SEGMENT_LEN));
                    self.tail.last_mut().expect("just pushed")
                }
            }
        };
        if segment.len() == segment.capacity() {
            // double as `Vec::push` would (4 elements at first), never
            // past one segment
            let capacity = (2 * segment.capacity()).clamp(4, SEGMENT_LEN);
            segment.reserve_exact(capacity - segment.len());
        }
        segment.push(value);
    }

    fn len(&self) -> usize {
        match self.tail.last() {
            None => self.head.len(),
            Some(last) => SEGMENT_LEN * self.tail.len() + last.len(),
        }
    }

    fn get(&self, i: usize) -> Option<&T> {
        match (i >> SEGMENT_BITS).checked_sub(1) {
            None => self.head.get(i),
            Some(segment) => self.tail.get(segment)?.get(i & (SEGMENT_LEN - 1)),
        }
    }

    fn last(&self) -> Option<&T> {
        // a tail segment is never empty
        self.tail
            .last()
            .map_or(self.head.last(), |last| last.last())
    }

    fn iter(&self) -> SegmentedIter<'_, T> {
        SegmentedIter {
            segments: std::iter::once(&self.head).chain(&self.tail).flatten(),
            remaining: self.len(),
        }
    }
}

/// A [`Segmented`] vector's segments in order: `head`, then `tail`.
type Segments<'a, T> = std::iter::Chain<std::iter::Once<&'a Vec<T>>, std::slice::Iter<'a, Vec<T>>>;

/// Iterator over a [`Segmented`] vector, in push order from either end.
#[derive(Debug, Clone)]
pub(crate) struct SegmentedIter<'a, T> {
    segments: std::iter::Flatten<Segments<'a, T>>,
    remaining: usize,
}

impl<'a, T> Iterator for SegmentedIter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        let next = self.segments.next()?;
        self.remaining -= 1;
        Some(next)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> DoubleEndedIterator for SegmentedIter<'_, T> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        let next = self.segments.next_back()?;
        self.remaining -= 1;
        Some(next)
    }
}

impl<T> ExactSizeIterator for SegmentedIter<'_, T> {}

/// The rows of an [`ObservationLog`] and the tables they point into.
/// Outside this crate it reads as a sequence of [`LoggedObservation`]s,
/// each decoded on the way out (`for e in &log.entries`, [`Entries::iter`],
/// [`Entries::get`]).
#[derive(Clone, Default)]
pub struct Entries {
    rows: Segmented<Row>,
    digests: Digests,
    accepts: Segmented<Accept>,
}

impl Entries {
    fn push(&mut self, at: SimTime, node: NodeId, obs: Observation) {
        let kind = match obs {
            Observation::Commit {
                seq,
                view,
                digest,
                speculative,
            } => RowKind::Commit {
                seq,
                view,
                digest: self.digests.intern(digest),
                speculative,
            },
            Observation::Execute {
                seq,
                request,
                state_digest,
            } => RowKind::Execute {
                seq,
                request,
                state_digest: self.digests.intern(state_digest),
            },
            Observation::Rollback { from_seq } => RowKind::Rollback { from_seq },
            Observation::NewView { view } => RowKind::NewView { view },
            Observation::StableCheckpoint { seq, state_digest } => RowKind::StableCheckpoint {
                seq,
                state_digest: self.digests.intern(state_digest),
            },
            Observation::StageEnter { stage } => RowKind::StageEnter { stage },
            Observation::RecoveryStart => RowKind::RecoveryStart,
            Observation::RecoveryDone => RowKind::RecoveryDone,
            Observation::ClientAccept {
                request,
                sent_at,
                fast_path,
                txn,
                result,
            } => {
                let index = u32::try_from(self.accepts.len()).expect("< 2^32 accepts");
                self.accepts.push(Accept {
                    request,
                    sent_at,
                    fast_path,
                    txn,
                    result,
                });
                RowKind::ClientAccept(index)
            }
            Observation::Marker { label } => RowKind::Marker { label },
        };
        let node = PackedNode::pack(node);
        self.rows.push(Row { at, node, kind });
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th observation in emission order.
    pub fn get(&self, i: usize) -> Option<LoggedObservation> {
        self.rows.get(i).map(|row| self.decode(row))
    }

    /// The first observation.
    pub fn first(&self) -> Option<LoggedObservation> {
        self.get(0)
    }

    /// The last observation.
    pub fn last(&self) -> Option<LoggedObservation> {
        self.rows.last().map(|row| self.decode(row))
    }

    /// Every observation in emission order, decoded.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            entries: self,
            rows: self.rows(),
        }
    }

    /// The stored rows in emission order.
    pub(crate) fn rows(&self) -> SegmentedIter<'_, Row> {
        self.rows.iter()
    }

    pub(crate) fn digest(&self, ordinal: Ordinal) -> Digest {
        self.digests.table[ordinal as usize]
    }

    pub(crate) fn accept(&self, index: u32) -> &Accept {
        self.accepts
            .get(index as usize)
            .expect("an accept of this log")
    }

    fn decode(&self, row: &Row) -> LoggedObservation {
        let obs = match row.kind {
            RowKind::Commit {
                seq,
                view,
                digest,
                speculative,
            } => Observation::Commit {
                seq,
                view,
                digest: self.digest(digest),
                speculative,
            },
            RowKind::Execute {
                seq,
                request,
                state_digest,
            } => Observation::Execute {
                seq,
                request,
                state_digest: self.digest(state_digest),
            },
            RowKind::Rollback { from_seq } => Observation::Rollback { from_seq },
            RowKind::NewView { view } => Observation::NewView { view },
            RowKind::StableCheckpoint { seq, state_digest } => Observation::StableCheckpoint {
                seq,
                state_digest: self.digest(state_digest),
            },
            RowKind::StageEnter { stage } => Observation::StageEnter { stage },
            RowKind::RecoveryStart => Observation::RecoveryStart,
            RowKind::RecoveryDone => Observation::RecoveryDone,
            RowKind::ClientAccept(index) => {
                let a = self.accept(index);
                Observation::ClientAccept {
                    request: a.request,
                    sent_at: a.sent_at,
                    fast_path: a.fast_path,
                    txn: a.txn.clone(),
                    result: a.result.clone(),
                }
            }
            RowKind::Marker { label } => Observation::Marker { label },
        };
        LoggedObservation {
            at: row.at,
            node: row.node.unpack(),
            obs,
        }
    }
}

impl std::fmt::Debug for Entries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Entries {
    type Item = LoggedObservation;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Decoding iterator over [`Entries`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    entries: &'a Entries,
    rows: SegmentedIter<'a, Row>,
}

impl Iterator for Iter<'_> {
    type Item = LoggedObservation;

    fn next(&mut self) -> Option<LoggedObservation> {
        self.rows.next().map(|row| self.entries.decode(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<LoggedObservation> {
        self.rows.next_back().map(|row| self.entries.decode(row))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The global, chronologically ordered observation log of one run.
#[derive(Debug, Clone, Default)]
pub struct ObservationLog {
    /// All observations in emission order (emission order = virtual-time
    /// order because the simulator is sequential).
    pub entries: Entries,
}

impl ObservationLog {
    /// Record an observation.
    pub fn push(&mut self, at: SimTime, node: NodeId, obs: Observation) {
        self.entries.push(at, node, obs);
    }

    /// All final (non-speculative) commits by `node`, as `(seq, digest)`.
    pub fn commits_of(&self, node: NodeId) -> Vec<(SeqNum, Digest)> {
        let node = PackedNode::pack(node);
        self.entries
            .rows()
            .filter(|row| row.node == node)
            .filter_map(|row| match row.kind {
                RowKind::Commit {
                    seq,
                    digest,
                    speculative: false,
                    ..
                } => Some((seq, self.entries.digest(digest))),
                _ => None,
            })
            .collect()
    }

    /// All client-accepted requests with their latencies.
    pub fn client_latencies(&self) -> Vec<(RequestId, crate::time::SimDuration)> {
        self.entries
            .rows()
            .filter_map(|row| match row.kind {
                RowKind::ClientAccept(index) => {
                    let a = self.entries.accept(index);
                    Some((a.request, row.at.since(a.sent_at)))
                }
                _ => None,
            })
            .collect()
    }

    /// Count observations matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&LoggedObservation) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(e)).count()
    }

    /// The set of stages `node` entered, in first-entry order.
    pub fn stages_of(&self, node: NodeId) -> Vec<Stage> {
        let node = PackedNode::pack(node);
        let mut seen = Vec::new();
        for row in self.entries.rows() {
            if let (true, RowKind::StageEnter { stage }) = (row.node == node, row.kind) {
                if !seen.contains(&stage) {
                    seen.push(stage);
                }
            }
        }
        seen
    }

    /// Highest view any node reported entering.
    pub fn max_view(&self) -> View {
        self.entries
            .rows()
            .filter_map(|row| match row.kind {
                RowKind::NewView { view } => Some(view),
                _ => None,
            })
            .max()
            .unwrap_or(View(0))
    }

    /// Count of `Marker { label }` observations.
    pub fn marker_count(&self, label: &str) -> usize {
        self.entries
            .rows()
            .filter(|row| matches!(row.kind, RowKind::Marker { label: l } if l == label))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn log_accessors() {
        let mut log = ObservationLog::default();
        let n0 = NodeId::replica(0);
        log.push(
            SimTime(10),
            n0,
            Observation::StageEnter {
                stage: Stage::Ordering,
            },
        );
        log.push(
            SimTime(20),
            n0,
            Observation::Commit {
                seq: SeqNum(1),
                view: View(0),
                digest: Digest([1u8; 32]),
                speculative: false,
            },
        );
        log.push(
            SimTime(25),
            n0,
            Observation::Commit {
                seq: SeqNum(2),
                view: View(0),
                digest: Digest([2u8; 32]),
                speculative: true,
            },
        );
        log.push(
            SimTime(30),
            n0,
            Observation::StageEnter {
                stage: Stage::Execution,
            },
        );
        log.push(
            SimTime(35),
            n0,
            Observation::StageEnter {
                stage: Stage::Ordering,
            },
        );
        log.push(SimTime(40), n0, Observation::NewView { view: View(3) });
        log.push(SimTime(50), n0, Observation::Marker { label: "fallback" });

        assert_eq!(log.commits_of(n0), vec![(SeqNum(1), Digest([1u8; 32]))]);
        assert_eq!(log.stages_of(n0), vec![Stage::Ordering, Stage::Execution]);
        assert_eq!(log.max_view(), View(3));
        assert_eq!(log.marker_count("fallback"), 1);
        assert_eq!(log.marker_count("other"), 0);
    }

    #[test]
    fn client_latency_extraction() {
        let mut log = ObservationLog::default();
        let req = RequestId {
            client: bft_types::ClientId(1),
            timestamp: 1,
        };
        log.push(
            SimTime(1_000),
            NodeId::client(1),
            Observation::ClientAccept {
                request: req,
                sent_at: SimTime(400),
                fast_path: true,
                txn: Transaction::default(),
                result: TxnResult { reads: vec![] },
            },
        );
        let lat = log.client_latencies();
        assert_eq!(lat, vec![(req, SimDuration(600))]);
    }

    #[test]
    fn a_row_is_at_most_48_bytes() {
        assert!(
            std::mem::size_of::<Row>() <= 48,
            "{}",
            std::mem::size_of::<Row>()
        );
    }

    #[test]
    fn digests_get_first_appearance_ordinals() {
        let mut digests = Digests::default();
        let digest = |i: u32| {
            let mut bytes = [0u8; 32];
            bytes[..4].copy_from_slice(&i.to_le_bytes());
            bytes[31] = 0xff;
            Digest(bytes)
        };
        // enough to grow the index several times; every value twice
        for i in 0..1_000 {
            assert_eq!(digests.intern(digest(i)), i);
            assert_eq!(digests.intern(digest(i / 2)), i / 2);
        }
        assert_eq!(digests.table.len(), 1_000);
        assert!(2 * digests.table.len() <= digests.slots.len());
    }

    /// One of every [`Observation`] variant, picked by `variant`; the
    /// digests come from a pool of four so that values repeat.
    fn observation(variant: u8, a: u64, b: u64, digest: u8, flag: bool) -> Observation {
        let digest = Digest([digest; 32]);
        let request = RequestId {
            client: bft_types::ClientId(a % 7),
            timestamp: b,
        };
        match variant {
            0 => Observation::Commit {
                seq: SeqNum(a),
                view: View(b),
                digest,
                speculative: flag,
            },
            1 => Observation::Execute {
                seq: SeqNum(b),
                request,
                state_digest: digest,
            },
            2 => Observation::Rollback {
                from_seq: SeqNum(a),
            },
            3 => Observation::NewView { view: View(a) },
            4 => Observation::StableCheckpoint {
                seq: SeqNum(a),
                state_digest: digest,
            },
            5 => Observation::StageEnter {
                stage: Stage::ALL[(a % 5) as usize],
            },
            6 => Observation::RecoveryStart,
            7 => Observation::RecoveryDone,
            8 => Observation::ClientAccept {
                request,
                sent_at: SimTime(b),
                fast_path: flag,
                txn: Transaction::single(bft_types::Op::Put(a, b as i64)),
                result: TxnResult {
                    reads: vec![Some(a as i64), None],
                },
            },
            _ => Observation::Marker {
                label: if flag { "fallback" } else { "fast path" },
            },
        }
    }

    #[test]
    fn a_log_past_its_first_segments_reads_in_emission_order() {
        let n = 2 * SEGMENT_LEN + 3;
        let pushed: Vec<LoggedObservation> = (0..n as u64)
            .map(|i| LoggedObservation {
                at: SimTime(i),
                node: NodeId::replica((i % 4) as u32),
                obs: observation((i % 10) as u8, i, i % 1_000, (i % 4) as u8, i % 3 == 0),
            })
            .collect();
        let mut log = ObservationLog::default();
        for e in &pushed {
            log.push(e.at, e.node, e.obs.clone());
        }
        let entries = &log.entries;
        assert_eq!(entries.rows.tail.len(), 2);
        for segment in std::iter::once(&entries.rows.head).chain(&entries.rows.tail) {
            assert!(segment.capacity() <= SEGMENT_LEN);
        }
        assert_eq!(entries.len(), n);
        assert_eq!(entries.iter().len(), n);
        assert!(entries.iter().eq(pushed.iter().cloned()));
        assert!(entries.iter().rev().eq(pushed.iter().rev().cloned()));
        assert_eq!(entries.rows().len(), n);
        assert!(entries.rows().map(|row| row.at.0).eq(0..n as u64));
        assert!(entries
            .rows()
            .rev()
            .map(|row| row.at.0)
            .eq((0..n as u64).rev()));
        for i in [
            0,
            SEGMENT_LEN - 1,
            SEGMENT_LEN,
            2 * SEGMENT_LEN - 1,
            2 * SEGMENT_LEN,
            n - 1,
        ] {
            assert_eq!(entries.get(i).as_ref(), Some(&pushed[i]), "row {i}");
        }
        assert_eq!(entries.get(n), None);
        assert_eq!(entries.first().as_ref(), pushed.first());
        assert_eq!(entries.last().as_ref(), pushed.last());
    }

    /// Bytes a [`Segmented`] vector has allocated.
    fn allocated<T>(segmented: &Segmented<T>) -> usize {
        let elements: usize = std::iter::once(&segmented.head)
            .chain(&segmented.tail)
            .map(Vec::capacity)
            .sum();
        elements * std::mem::size_of::<T>()
            + segmented.tail.capacity() * std::mem::size_of::<Vec<T>>()
    }

    /// Bytes a plain `Vec` allocates for its first push.
    #[allow(clippy::vec_init_then_push)] // `vec![value]` allocates less than a push
    fn one_element_vec<T>(value: T) -> usize {
        let mut vec = Vec::new();
        vec.push(value);
        vec.capacity() * std::mem::size_of::<T>()
    }

    #[test]
    fn a_one_observation_log_allocates_no_more_than_a_vec() {
        let mut log = ObservationLog::default();
        log.push(SimTime(1), NodeId::client(1), observation(8, 1, 2, 0, true));
        let entries = &log.entries;
        assert_eq!(
            allocated(&entries.rows),
            one_element_vec(entries.rows.head[0])
        );
        assert_eq!(
            allocated(&entries.accepts),
            one_element_vec(entries.accepts.head[0].clone())
        );
    }

    proptest::proptest! {
        #[test]
        fn every_observation_comes_back_equal(
            drawn in proptest::collection::vec(
                (0u8..10, proptest::prelude::any::<u64>(), 0u64..1_000, 0u8..4,
                 proptest::prelude::any::<bool>(), 0u64..6),
                0..60,
            ),
        ) {
            let pushed: Vec<LoggedObservation> = drawn
                .into_iter()
                .enumerate()
                .map(|(i, (variant, a, b, digest, flag, node))| LoggedObservation {
                    at: SimTime(i as u64 * 10 + b % 10),
                    node: if node < 4 { NodeId::replica(node as u32) } else { NodeId::client(node) },
                    obs: observation(variant, a, b, digest, flag),
                })
                .collect();
            let mut log = ObservationLog::default();
            for e in &pushed {
                log.push(e.at, e.node, e.obs.clone());
            }
            proptest::prop_assert_eq!(log.entries.len(), pushed.len());
            proptest::prop_assert_eq!(log.entries.iter().len(), pushed.len());
            let forwards: Vec<LoggedObservation> = log.entries.iter().collect();
            proptest::prop_assert_eq!(&forwards, &pushed);
            let mut reversed: Vec<LoggedObservation> = (&log.entries).into_iter().rev().collect();
            reversed.reverse();
            proptest::prop_assert_eq!(&reversed, &pushed);
            for (i, e) in pushed.iter().enumerate() {
                proptest::prop_assert_eq!(log.entries.get(i).as_ref(), Some(e));
            }
            proptest::prop_assert_eq!(log.entries.first().as_ref(), pushed.first());
            proptest::prop_assert_eq!(log.entries.last().as_ref(), pushed.last());
        }
    }
}
