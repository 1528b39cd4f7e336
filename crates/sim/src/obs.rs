//! Observations: the audit trail every actor emits.
//!
//! Protocol correctness in the experiments is never taken on faith: each
//! replica records what it commits, executes, checkpoints, and which
//! lifecycle stage (Figure 1 of the paper) it is in. The simulator collects
//! these into an [`ObservationLog`] that the safety auditor and the
//! experiment harness consume.
//!
//! The log stores each observation as a few bytes of varints in fixed-size
//! blocks (DESIGN.md, "Observation log"): the run's memory is mostly this
//! log. The checker, the auditor and the semantic record read it as
//! [`Row`] values decoded on the way out, with digests as ordinals.

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

/// One observation as the readers inside this crate see it: the node
/// packed, digests as [`Ordinal`]s into the log's digest table and a
/// `ClientAccept` as an index into its accept table. The log stores rows
/// as bytes and decodes them on the way out ([`Entries::rows`]).
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
/// Elements per segment of a [`Segmented`] vector.
const SEGMENT_LEN: usize = 1 << SEGMENT_BITS;

/// An append-only vector stored in segments of [`SEGMENT_LEN`] elements
/// (the log's accept table).
///
/// The first segment grows by doubling, as a `Vec` does, up to
/// `SEGMENT_LEN`; every later segment is allocated at that size and never
/// moves, so a table that grows into the megabytes is never copied into
/// a larger block (DESIGN.md, "Observation log").
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
}

/// Bytes of one block of the row stream. Every block after the first is
/// allocated at this size and never moves; the first grows by doubling up
/// to it. Peak RSS of the benchmark at 15 s, seed 1 (2-core Xeon, glibc
/// malloc), with 4, 16 and 64 KiB blocks: `sim-pbft-n4` 36.0–36.5,
/// 35.9–36.8 and 36.5–36.6 MiB; `sim-pbft-n4-bigstate` 32.7–32.8,
/// 32.7–32.8 and 32.6–32.7; `sim-pbft-n16-open` 20.6, 20.6 and 20.5. The
/// size does not move memory, so the smallest wins: `get(i)` and reverse
/// iteration decode one block.
const BLOCK_BYTES: usize = 1 << 12;

/// The first block's capacity before it first doubles.
const FIRST_BLOCK_BYTES: usize = 64;

/// The longest encoded row: the tag byte, then the node, the `at` delta
/// and an `Execute`'s four fields, each a varint of at most ten bytes.
const MAX_ROW: usize = 1 + 6 * 10;

/// A row's tag byte: its kind in the low four bits (a `Commit`'s
/// speculative flag and a `StageEnter`'s stage are kinds of their own),
/// and in the high four the number of bytes after the tag, or 0 when they
/// are more than 15. The length lets a node-filtered scan step over
/// another node's row without parsing it ([`Entries::rows_of`]).
mod tag {
    pub(super) const COMMIT: u8 = 0;
    pub(super) const SPECULATIVE_COMMIT: u8 = 1;
    pub(super) const EXECUTE: u8 = 2;
    pub(super) const ROLLBACK: u8 = 3;
    pub(super) const NEW_VIEW: u8 = 4;
    pub(super) const STABLE_CHECKPOINT: u8 = 5;
    /// `StageEnter` of `Stage::ALL[0]`; the other four stages follow.
    pub(super) const STAGE_ENTER: u8 = 6;
    pub(super) const STAGE_ENTER_LAST: u8 = STAGE_ENTER + 4;
    pub(super) const RECOVERY_START: u8 = 11;
    pub(super) const RECOVERY_DONE: u8 = 12;
    pub(super) const CLIENT_ACCEPT: u8 = 13;
    pub(super) const MARKER: u8 = 14;
    pub(super) const KIND: u8 = 0x0f;
    pub(super) const LEN_SHIFT: u32 = 4;
    /// The largest length the high four bits hold.
    pub(super) const LEN_MAX: usize = 15;
    /// Varints after the `at` delta, by kind.
    pub(super) const FIELDS: [u8; 16] = [3, 3, 4, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0];
}

/// One encoded row, built on the stack and then copied into a block.
struct Encoded {
    bytes: [u8; MAX_ROW],
    len: usize,
}

impl Encoded {
    /// A row with its tag byte left open.
    fn new() -> Encoded {
        Encoded {
            bytes: [0; MAX_ROW],
            len: 1,
        }
    }

    /// Writes the tag byte: `kind` and the length of what follows it.
    fn close(&mut self, kind: u8) {
        let len = if self.len - 1 <= tag::LEN_MAX {
            self.len - 1
        } else {
            0
        };
        self.bytes[0] = kind | (len as u8) << tag::LEN_SHIFT;
    }

    /// Appends `value` as a LEB128 varint: seven bits a byte, low bits
    /// first, the high bit set on every byte but the last.
    #[inline]
    fn put(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.bytes[self.len] = value as u8 | 0x80;
            value >>= 7;
            self.len += 1;
        }
        self.bytes[self.len] = value as u8;
        self.len += 1;
    }
}

/// A read position in the row stream: the block, its bytes, the offset
/// of the next row in them, the `at` of the row before (the next row's
/// delta base) and the accept-table index of the next `ClientAccept`.
#[derive(Debug, Clone, Copy)]
struct Cursor<'a> {
    block: usize,
    bytes: &'a [u8],
    pos: usize,
    at: u64,
    accept: u32,
}

impl Cursor<'_> {
    #[inline]
    fn varint(&mut self) -> u64 {
        let mut byte = self.bytes[self.pos];
        self.pos += 1;
        let mut value = u64::from(byte & 0x7f);
        let mut shift = 0;
        while byte >= 0x80 {
            byte = self.bytes[self.pos];
            self.pos += 1;
            shift += 7;
            value |= u64::from(byte & 0x7f) << shift;
        }
        value
    }

    /// The node of the row at the cursor, as [`PackedNode::to_compact`].
    #[inline]
    fn node(&self) -> u64 {
        let mut at_node = Cursor {
            pos: self.pos + 1,
            ..*self
        };
        at_node.varint()
    }

    /// Moves past the row at the cursor without decoding it (its `at`
    /// is not tracked).
    #[inline]
    fn skip(&mut self) {
        let start = self.pos;
        self.pos += 1;
        self.skip_rest(start, 0);
    }

    /// Moves past the row at the cursor, reading its node and `at` only;
    /// true if it was a `ClientAccept`.
    #[inline]
    fn step(&mut self) -> bool {
        let start = self.pos;
        self.pos += 1;
        self.varint();
        self.advance_at();
        self.skip_rest(start, 2)
    }

    /// Moves past the rest of the row whose tag is at `start`, of which
    /// the tag and `read` varints have been read; true if the row was a
    /// `ClientAccept`.
    #[inline]
    fn skip_rest(&mut self, start: usize, read: u8) -> bool {
        let tag = self.bytes[start];
        let kind = tag & tag::KIND;
        let accept = kind == tag::CLIENT_ACCEPT;
        self.accept += u32::from(accept);
        match usize::from(tag >> tag::LEN_SHIFT) {
            0 => {
                for _ in read..2 + tag::FIELDS[usize::from(kind)] {
                    self.varint();
                }
            }
            len => self.pos = start + 1 + len,
        }
        accept
    }

    /// Reads the zigzag varint `at` delta at the cursor and applies it.
    #[inline]
    fn advance_at(&mut self) {
        let delta = self.varint();
        self.at = self
            .at
            .wrapping_add(((delta >> 1) as i64 ^ -((delta & 1) as i64)) as u64);
    }

    /// Decodes what [`Entries::push`] wrote at the cursor and moves past it.
    #[inline]
    fn decode(&mut self, labels: &[&'static str]) -> Row {
        let tag = self.bytes[self.pos];
        self.pos += 1;
        let node = PackedNode::from_compact(self.varint());
        self.advance_at();
        let kind = match tag & tag::KIND {
            kind @ (tag::COMMIT | tag::SPECULATIVE_COMMIT) => RowKind::Commit {
                seq: SeqNum(self.varint()),
                view: View(self.varint()),
                digest: self.varint() as Ordinal,
                speculative: kind == tag::SPECULATIVE_COMMIT,
            },
            tag::EXECUTE => RowKind::Execute {
                seq: SeqNum(self.varint()),
                request: RequestId {
                    client: bft_types::ClientId(self.varint()),
                    timestamp: self.varint(),
                },
                state_digest: self.varint() as Ordinal,
            },
            tag::ROLLBACK => RowKind::Rollback {
                from_seq: SeqNum(self.varint()),
            },
            tag::NEW_VIEW => RowKind::NewView {
                view: View(self.varint()),
            },
            tag::STABLE_CHECKPOINT => RowKind::StableCheckpoint {
                seq: SeqNum(self.varint()),
                state_digest: self.varint() as Ordinal,
            },
            kind @ tag::STAGE_ENTER..=tag::STAGE_ENTER_LAST => RowKind::StageEnter {
                stage: Stage::ALL[usize::from(kind - tag::STAGE_ENTER)],
            },
            tag::RECOVERY_START => RowKind::RecoveryStart,
            tag::RECOVERY_DONE => RowKind::RecoveryDone,
            tag::CLIENT_ACCEPT => {
                self.accept += 1;
                RowKind::ClientAccept(self.accept - 1)
            }
            tag::MARKER => RowKind::Marker {
                label: labels[self.varint() as usize],
            },
            _ => unreachable!("tag {tag:#x} is not one `Entries::push` writes"),
        };
        Row {
            at: SimTime(self.at),
            node,
            kind,
        }
    }
}

/// One block of the row stream. No row straddles two blocks (a block is
/// closed once fewer than [`MAX_ROW`] bytes are left), and the first
/// row's
/// `at` is stored as a delta from zero, so a block decodes on its own.
#[derive(Debug, Clone)]
struct Block {
    /// Log index of its first row.
    first: usize,
    /// Accept-table index of its first `ClientAccept` row.
    first_accept: u32,
    bytes: Vec<u8>,
}

/// The rows of an [`ObservationLog`] and the tables they point into.
/// Outside this crate it reads as a sequence of [`LoggedObservation`]s,
/// each decoded on the way out (`for e in &log.entries`, [`Entries::iter`],
/// [`Entries::get`]).
#[derive(Clone, Default)]
pub struct Entries {
    /// The rows, encoded back to back ([`Entries::push`]).
    blocks: Vec<Block>,
    /// Rows in `blocks`.
    len: usize,
    /// `at` of the last row: the delta base of the next one.
    last_at: SimTime,
    digests: Digests,
    /// Marker labels in first-appearance order.
    labels: Vec<&'static str>,
    accepts: Segmented<Accept>,
}

impl Entries {
    /// Appends an observation: the tag, the node, the zigzag varint of
    /// `at` minus the previous row's (or zero, first in a block), then the
    /// fields as varints. A `ClientAccept` stores no index (its rows take
    /// the accept table in order) and a `Marker` stores its label's index
    /// in the label table.
    fn push(&mut self, at: SimTime, node: NodeId, obs: Observation) {
        let accepts = u32::try_from(self.accepts.len()).expect("< 2^32 accepts");
        let base = match self.blocks.last() {
            Some(block) if block.bytes.len() + MAX_ROW <= BLOCK_BYTES => self.last_at,
            // a row that might not fit starts the next block
            _ => {
                let capacity = if self.blocks.is_empty() {
                    FIRST_BLOCK_BYTES
                } else {
                    BLOCK_BYTES
                };
                self.blocks.push(Block {
                    first: self.len,
                    first_accept: accepts,
                    bytes: Vec::with_capacity(capacity),
                });
                SimTime(0)
            }
        };
        let mut e = Encoded::new();
        e.put(PackedNode::pack(node).to_compact());
        let delta = at.0.wrapping_sub(base.0) as i64;
        e.put(((delta << 1) ^ (delta >> 63)) as u64);
        let kind = match obs {
            Observation::Commit {
                seq,
                view,
                digest,
                speculative,
            } => {
                e.put(seq.0);
                e.put(view.0);
                e.put(self.digests.intern(digest).into());
                if speculative {
                    tag::SPECULATIVE_COMMIT
                } else {
                    tag::COMMIT
                }
            }
            Observation::Execute {
                seq,
                request,
                state_digest,
            } => {
                e.put(seq.0);
                e.put(request.client.0);
                e.put(request.timestamp);
                e.put(self.digests.intern(state_digest).into());
                tag::EXECUTE
            }
            Observation::Rollback { from_seq } => {
                e.put(from_seq.0);
                tag::ROLLBACK
            }
            Observation::NewView { view } => {
                e.put(view.0);
                tag::NEW_VIEW
            }
            Observation::StableCheckpoint { seq, state_digest } => {
                e.put(seq.0);
                e.put(self.digests.intern(state_digest).into());
                tag::STABLE_CHECKPOINT
            }
            Observation::StageEnter { stage } => tag::STAGE_ENTER + stage as u8,
            Observation::RecoveryStart => tag::RECOVERY_START,
            Observation::RecoveryDone => tag::RECOVERY_DONE,
            Observation::ClientAccept {
                request,
                sent_at,
                fast_path,
                txn,
                result,
            } => {
                self.accepts.push(Accept {
                    request,
                    sent_at,
                    fast_path,
                    txn,
                    result,
                });
                tag::CLIENT_ACCEPT
            }
            Observation::Marker { label } => {
                e.put(self.label(label) as u64);
                tag::MARKER
            }
        };
        e.close(kind);
        // the first block grows by doubling, as a `Vec` does, up to
        // BLOCK_BYTES; a later one never grows
        let bytes = &mut self.blocks.last_mut().expect("a block").bytes;
        bytes.extend_from_slice(&e.bytes[..e.len]);
        self.last_at = at;
        self.len += 1;
    }

    /// `label`'s index in the label table, added on first sight.
    fn label(&mut self, label: &'static str) -> usize {
        self.labels
            .iter()
            .position(|known| *known == label)
            .unwrap_or_else(|| {
                self.labels.push(label);
                self.labels.len() - 1
            })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th observation in emission order.
    pub fn get(&self, i: usize) -> Option<LoggedObservation> {
        (i < self.len).then(|| self.observation(self.row(i)))
    }

    /// The first observation.
    pub fn first(&self) -> Option<LoggedObservation> {
        self.get(0)
    }

    /// The last observation.
    pub fn last(&self) -> Option<LoggedObservation> {
        self.get(self.len.checked_sub(1)?)
    }

    /// Every observation in emission order, decoded.
    pub fn iter(&self) -> Iter<'_> {
        Iter { rows: self.rows() }
    }

    /// The stored rows in emission order.
    pub(crate) fn rows(&self) -> Rows<'_> {
        Rows {
            entries: self,
            front: self.cursor(0),
            front_index: 0,
            back_index: self.len,
            back_rows: Vec::new(),
        }
    }

    /// The kinds of `node`'s rows in emission order. Other nodes' rows are
    /// stepped over by their length, not decoded, so their `at` is not
    /// known and neither is this one's.
    pub(crate) fn rows_of(&self, node: PackedNode) -> NodeRows<'_> {
        NodeRows {
            entries: self,
            cursor: self.cursor(0),
            left: self.len,
            node: node.to_compact(),
        }
    }

    pub(crate) fn digest(&self, ordinal: Ordinal) -> Digest {
        self.digests.table[ordinal as usize]
    }

    /// Number of `ClientAccept` observations.
    pub(crate) fn accept_count(&self) -> usize {
        self.accepts.len()
    }

    /// Each `ClientAccept` row's `at` and its accept, in row order. The
    /// other rows are stepped over: their `at` delta is read, no field.
    fn each_accept(&self, mut f: impl FnMut(SimTime, &Accept)) {
        for block in 0..self.blocks.len() {
            let mut cursor = self.cursor(block);
            while cursor.pos < cursor.bytes.len() {
                if cursor.step() {
                    f(SimTime(cursor.at), self.accept(cursor.accept - 1));
                }
            }
        }
    }

    pub(crate) fn accept(&self, index: u32) -> &Accept {
        self.accepts
            .get(index as usize)
            .expect("an accept of this log")
    }

    /// A cursor at the first row of block `block`, or past the end.
    fn cursor(&self, block: usize) -> Cursor<'_> {
        let (bytes, accept) = self
            .blocks
            .get(block)
            .map_or((&[][..], 0), |b| (&b.bytes[..], b.first_accept));
        Cursor {
            block,
            bytes,
            pos: 0,
            at: 0,
            accept,
        }
    }

    /// Decodes the row at `cursor` and moves it to the next row.
    #[inline]
    fn read<'a>(&'a self, cursor: &mut Cursor<'a>) -> Row {
        let row = cursor.decode(&self.labels);
        if cursor.pos == cursor.bytes.len() {
            *cursor = self.cursor(cursor.block + 1);
        }
        row
    }

    /// A cursor at the start of the block holding row `i < len`, and the
    /// index of that block's first row.
    fn block_of(&self, i: usize) -> (Cursor<'_>, usize) {
        let block = self.blocks.partition_point(|b| b.first <= i) - 1;
        (self.cursor(block), self.blocks[block].first)
    }

    /// Row `i < len`, decoded from the start of its block.
    fn row(&self, i: usize) -> Row {
        let (mut cursor, first) = self.block_of(i);
        for _ in first..i {
            self.read(&mut cursor);
        }
        self.read(&mut cursor)
    }

    fn observation(&self, row: Row) -> LoggedObservation {
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

/// The rows of [`Entries`] in emission order, decoded from either end.
/// Forwards, each row is decoded once, in place. Backwards, the rows of a
/// block are decoded into a buffer the iterator keeps, since a row's
/// delta base is the row before it.
#[derive(Debug, Clone)]
pub(crate) struct Rows<'a> {
    entries: &'a Entries,
    front: Cursor<'a>,
    /// Rows `front_index .. back_index` are left.
    front_index: usize,
    back_index: usize,
    /// The rows before `back_index` in its block, decoded, or none yet.
    back_rows: Vec<Row>,
}

impl Iterator for Rows<'_> {
    type Item = Row;

    #[inline]
    fn next(&mut self) -> Option<Row> {
        if self.front_index == self.back_index {
            return None;
        }
        self.front_index += 1;
        Some(self.entries.read(&mut self.front))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.back_index - self.front_index;
        (left, Some(left))
    }
}

impl DoubleEndedIterator for Rows<'_> {
    fn next_back(&mut self) -> Option<Row> {
        if self.front_index == self.back_index {
            return None;
        }
        self.back_index -= 1;
        if self.back_rows.is_empty() {
            let (mut cursor, first) = self.entries.block_of(self.back_index);
            for _ in first..=self.back_index {
                self.back_rows.push(self.entries.read(&mut cursor));
            }
        }
        self.back_rows.pop()
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// The row kinds of one node of [`Entries`] ([`Entries::rows_of`]).
#[derive(Debug, Clone)]
pub(crate) struct NodeRows<'a> {
    entries: &'a Entries,
    cursor: Cursor<'a>,
    /// Rows after the cursor, of any node.
    left: usize,
    /// The node, as [`PackedNode::to_compact`].
    node: u64,
}

impl Iterator for NodeRows<'_> {
    type Item = RowKind;

    #[inline]
    fn next(&mut self) -> Option<RowKind> {
        while self.left > 0 {
            self.left -= 1;
            let cursor = &mut self.cursor;
            // a node below 0x80 is one varint byte, and no other node's
            // varint starts with that byte
            let mine = match self.node {
                node @ 0..0x80 => u64::from(cursor.bytes[cursor.pos + 1]) == node,
                node => cursor.node() == node,
            };
            if mine {
                return Some(self.entries.read(cursor).kind);
            }
            cursor.skip();
            if cursor.pos == cursor.bytes.len() {
                *cursor = self.entries.cursor(cursor.block + 1);
            }
        }
        None
    }
}

/// Decoding iterator over [`Entries`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    rows: Rows<'a>,
}

impl Iterator for Iter<'_> {
    type Item = LoggedObservation;

    fn next(&mut self) -> Option<LoggedObservation> {
        let row = self.rows.next()?;
        Some(self.rows.entries.observation(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<LoggedObservation> {
        let row = self.rows.next_back()?;
        Some(self.rows.entries.observation(row))
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
        self.entries
            .rows_of(PackedNode::pack(node))
            .filter_map(|kind| match kind {
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

    /// All client-accepted requests with their latencies, in accept order.
    pub fn client_latencies(&self) -> Vec<(RequestId, crate::time::SimDuration)> {
        let mut latencies = Vec::with_capacity(self.accepted());
        self.entries
            .each_accept(|at, a| latencies.push((a.request, at.since(a.sent_at))));
        latencies
    }

    /// Number of client-accepted requests.
    pub fn accepted(&self) -> usize {
        self.entries.accept_count()
    }

    /// Count observations matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&LoggedObservation) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(e)).count()
    }

    /// The set of stages `node` entered, in first-entry order.
    pub fn stages_of(&self, node: NodeId) -> Vec<Stage> {
        let mut seen = Vec::new();
        for kind in self.entries.rows_of(PackedNode::pack(node)) {
            if let RowKind::StageEnter { stage } = kind {
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

    /// Marker labels the generated logs draw from.
    const LABELS: [&str; 4] = ["fallback", "fast path", "amnesia-restart", ""];

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
                label: LABELS[(a % 4) as usize],
            },
        }
    }

    /// Bytes the log's rows occupy in its blocks.
    fn stored(entries: &Entries) -> usize {
        entries.blocks.iter().map(|b| b.bytes.len()).sum()
    }

    #[test]
    fn a_log_past_its_first_blocks_reads_in_emission_order() {
        let n = 20_000;
        let pushed: Vec<LoggedObservation> = (0..n as u64)
            .map(|i| LoggedObservation {
                at: SimTime(1_000 * i),
                node: NodeId::replica((i % 4) as u32),
                obs: observation((i % 10) as u8, i, i % 1_000, (i % 4) as u8, i % 3 == 0),
            })
            .collect();
        let mut log = ObservationLog::default();
        for e in &pushed {
            log.push(e.at, e.node, e.obs.clone());
        }
        let entries = &log.entries;
        assert!(entries.blocks.len() >= 4, "{}", entries.blocks.len());
        for block in &entries.blocks[1..] {
            assert_eq!(block.bytes.capacity(), BLOCK_BYTES);
        }
        assert!(entries.blocks[0].bytes.capacity() <= BLOCK_BYTES);
        assert_eq!(entries.len(), n);
        assert_eq!(entries.iter().len(), n);
        assert!(entries.iter().eq(pushed.iter().cloned()));
        assert!(entries.iter().rev().eq(pushed.iter().rev().cloned()));
        assert_eq!(entries.rows().len(), n);
        assert!(entries
            .rows()
            .map(|row| row.at.0)
            .eq((0..n as u64).map(|i| 1_000 * i)));
        assert!(entries
            .rows()
            .rev()
            .map(|row| row.at.0)
            .eq((0..n as u64).rev().map(|i| 1_000 * i)));
        for block in &entries.blocks {
            for i in [block.first.saturating_sub(1), block.first, block.first + 1] {
                assert_eq!(entries.get(i).as_ref(), Some(&pushed[i]), "row {i}");
            }
        }
        assert_eq!(entries.get(n), None);
        assert_eq!(entries.first().as_ref(), pushed.first());
        assert_eq!(entries.last().as_ref(), pushed.last());
    }

    #[test]
    fn a_run_shaped_row_is_stored_in_at_most_six_and_a_half_bytes() {
        // what a replica of a four-replica run logs per batch: stage
        // entries, a commit and an execution, microseconds apart, at
        // growing seqs and one digest a batch
        let mut log = ObservationLog::default();
        for seq in 1..2_000u64 {
            for r in 0..4 {
                let at = SimTime(1_000_000 * seq + 3_000 * r);
                let node = NodeId::replica(r as u32);
                let digest = Digest([(seq % 200) as u8; 32]);
                let stage = |stage| Observation::StageEnter { stage };
                log.push(at, node, stage(Stage::Ordering));
                log.push(
                    at,
                    node,
                    Observation::Commit {
                        seq: SeqNum(seq),
                        view: View(0),
                        digest,
                        speculative: false,
                    },
                );
                log.push(at, node, stage(Stage::Execution));
                log.push(
                    SimTime(at.0 + 1_500),
                    node,
                    Observation::Execute {
                        seq: SeqNum(seq),
                        request: RequestId {
                            client: bft_types::ClientId(seq % 4),
                            timestamp: seq / 4,
                        },
                        state_digest: digest,
                    },
                );
            }
        }
        let per_row = stored(&log.entries) as f64 / log.entries.len() as f64;
        assert!(per_row <= 6.5, "{per_row} bytes per row");
    }

    #[test]
    fn a_one_observation_log_allocates_no_more_than_a_vec() {
        let mut log = ObservationLog::default();
        log.push(SimTime(1), NodeId::client(1), observation(8, 1, 2, 0, true));
        let entries = &log.entries;
        let blocks = entries.blocks.capacity() * std::mem::size_of::<Block>()
            + entries.blocks[0].bytes.capacity();
        let vec = 4 * std::mem::size_of::<LoggedObservation>();
        assert!(blocks <= vec, "{blocks} > {vec}");
        assert_eq!(entries.accepts.head.capacity(), 4);
    }

    /// A 64-bit field: its extremes as often as a small or an arbitrary
    /// value.
    fn field() -> impl proptest::prelude::Strategy<Value = u64> {
        use proptest::prelude::Strategy;
        (0u8..4, proptest::prelude::any::<u64>()).prop_map(|(pick, v)| match pick {
            0 => u64::MAX,
            1 => 0,
            2 => v % 1_000,
            _ => v,
        })
    }

    /// An `at` step: forwards a little, not at all, backwards, or anywhere.
    fn step() -> impl proptest::prelude::Strategy<Value = (u8, u64)> {
        (0u8..4, proptest::prelude::any::<u64>())
    }

    fn next_at(at: u64, (pick, v): (u8, u64)) -> u64 {
        match pick {
            0 => at.wrapping_add(v % 5_000),
            1 => at,
            2 => at.wrapping_sub(v % 5_000),
            _ => v,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 24, ..proptest::ProptestConfig::default() })]
        #[test]
        fn every_observation_comes_back_equal(
            drawn in proptest::collection::vec(
                (0u8..10, field(), field(), 0u8..4, proptest::prelude::any::<bool>(), 0u64..6, step()),
                0..3_000,
            ),
        ) {
            let mut at = 0;
            let pushed: Vec<LoggedObservation> = drawn
                .into_iter()
                .map(|(variant, a, b, digest, flag, node, step)| {
                    at = next_at(at, step);
                    LoggedObservation {
                        at: SimTime(at),
                        node: if node < 4 { NodeId::replica(node as u32) } else { NodeId::client(node) },
                        obs: observation(variant, a, b, digest, flag),
                    }
                })
                .collect();
            let mut log = ObservationLog::default();
            for e in &pushed {
                log.push(e.at, e.node, e.obs.clone());
            }
            let entries = &log.entries;
            proptest::prop_assert_eq!(entries.len(), pushed.len());
            proptest::prop_assert_eq!(entries.iter().len(), pushed.len());
            let forwards: Vec<LoggedObservation> = entries.iter().collect();
            proptest::prop_assert_eq!(&forwards, &pushed);
            let mut reversed: Vec<LoggedObservation> = entries.into_iter().rev().collect();
            reversed.reverse();
            proptest::prop_assert_eq!(&reversed, &pushed);
            // both ends at once meet in the middle
            let mut both = entries.iter();
            let mut head = Vec::new();
            let mut tail = Vec::new();
            while let Some(e) = both.next() {
                head.push(e);
                tail.extend(both.next_back());
            }
            head.extend(tail.into_iter().rev());
            proptest::prop_assert_eq!(&head, &pushed);
            for (i, e) in pushed.iter().enumerate() {
                proptest::prop_assert_eq!(entries.get(i).as_ref(), Some(e));
            }
            proptest::prop_assert_eq!(entries.get(pushed.len()), None);
            let latencies: Vec<_> = pushed
                .iter()
                .filter_map(|e| match e.obs {
                    Observation::ClientAccept { request, sent_at, .. } => {
                        Some((request, e.at.since(sent_at)))
                    }
                    _ => None,
                })
                .collect();
            proptest::prop_assert_eq!(log.accepted(), latencies.len());
            proptest::prop_assert_eq!(log.client_latencies(), latencies);
            proptest::prop_assert_eq!(entries.first().as_ref(), pushed.first());
            proptest::prop_assert_eq!(entries.last().as_ref(), pushed.last());
            for block in &entries.blocks {
                proptest::prop_assert!(block.bytes.len() <= BLOCK_BYTES);
            }
        }
    }
}
