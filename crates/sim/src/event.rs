//! Event queue internals: node identity, queued events, deterministic order,
//! and the calendar-queue scheduler.
//!
//! Two interchangeable schedulers back the simulation's future event list
//! ([`SchedulerKind`]): the reference `BinaryHeap` and a calendar queue
//! ([`CalendarQueue`]). Both pop events in the exact same total order —
//! `(timestamp, seq)` — so a run's output is independent of the scheduler;
//! the calendar queue exists purely so million-event runs spend O(1)
//! amortized work per event instead of O(log n) heap sifts over a
//! multi-megabyte heap.

use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use bft_types::{ClientId, ReplicaId, TimerKind};

use crate::runner::TimerId;
use crate::time::SimTime;

/// Identity of a simulated node — either a consensus replica or a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// A consensus replica.
    Replica(ReplicaId),
    /// A client driving the workload.
    Client(ClientId),
}

impl NodeId {
    /// Shorthand for a replica node.
    pub fn replica(i: u32) -> NodeId {
        NodeId::Replica(ReplicaId(i))
    }

    /// Shorthand for a client node.
    pub fn client(c: u64) -> NodeId {
        NodeId::Client(ClientId(c))
    }

    /// The replica id, if this is a replica.
    pub fn as_replica(&self) -> Option<ReplicaId> {
        match self {
            NodeId::Replica(r) => Some(*r),
            NodeId::Client(_) => None,
        }
    }

    /// True for replica nodes.
    pub fn is_replica(&self) -> bool {
        matches!(self, NodeId::Replica(_))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Replica(r) => write!(f, "{r}"),
            NodeId::Client(c) => write!(f, "{c}"),
        }
    }
}

/// [`NodeId`] packed into one word for queued events: bit 63 tags clients.
/// Scheduler entries are copied many times (bucket binning, sorts, heap
/// sifts), so the 16-byte enum is squeezed to 8 bytes inside the queue and
/// unpacked at dispatch. The packing keeps [`NodeId`]'s order (replicas
/// by id, then clients by id), so the observation log stores nodes packed
/// too and its readers key ordered maps by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PackedNode(u64);

const CLIENT_TAG: u64 = 1 << 63;

impl PackedNode {
    #[inline]
    pub(crate) fn pack(node: NodeId) -> PackedNode {
        match node {
            NodeId::Replica(r) => PackedNode(r.0 as u64),
            NodeId::Client(c) => {
                assert!(c.0 < CLIENT_TAG, "client id {} exceeds 2^63 - 1", c.0);
                PackedNode(c.0 | CLIENT_TAG)
            }
        }
    }

    #[inline]
    pub(crate) fn unpack(self) -> NodeId {
        if self.0 & CLIENT_TAG == 0 {
            NodeId::Replica(ReplicaId(self.0 as u32))
        } else {
            NodeId::Client(ClientId(self.0 & !CLIENT_TAG))
        }
    }

    /// The packed word with the client tag rotated into bit 0, so that a
    /// small replica or client id is a small number (one varint byte in
    /// the observation log).
    #[inline]
    pub(crate) fn to_compact(self) -> u64 {
        self.0.rotate_left(1)
    }

    /// Inverse of [`Self::to_compact`].
    #[inline]
    pub(crate) fn from_compact(bits: u64) -> PackedNode {
        PackedNode(bits.rotate_right(1))
    }
}

/// An adversary-produced envelope (replay, equivocation substitute,
/// corruption) with the wire-auth tag that is verified against the payload
/// at delivery. Boxed behind [`EventKind::DeliverTagged`] so the 48-byte
/// tag rides outside the queued event — honest traffic never pays for it.
#[derive(Debug)]
pub(crate) struct TaggedEnvelope<M> {
    pub from: PackedNode,
    pub msg: std::rc::Rc<M>,
    pub tag: bft_crypto::Mac,
}

/// What a queued event does when it fires.
///
/// Kept to 24 bytes: scheduler throughput is bounded by how many bytes each
/// event move touches, so the rare cases (adversary tags) are boxed and node
/// ids are packed to one word.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver a protocol message. The payload is behind an `Rc` so an
    /// n-way broadcast enqueues n pointers to one allocation instead of n
    /// deep clones; receivers get `&M`.
    Deliver {
        from: PackedNode,
        msg: std::rc::Rc<M>,
    },
    /// Deliver an adversary-produced envelope carrying a wire-auth tag.
    DeliverTagged(Box<TaggedEnvelope<M>>),
    /// Fire a timer (if it has not been cancelled).
    Timer { id: TimerId, kind: TimerKind },
    /// Crash the node (stops processing events).
    Crash,
    /// Recover the node (resumes processing; the actor's `on_recover` runs
    /// with the restart mode).
    Recover { mode: crate::faults::RestartMode },
}

/// A queued event: fires at `at` for `node`. `seq` breaks timestamp ties in
/// insertion order, making runs deterministic.
#[derive(Debug)]
pub(crate) struct QueuedEvent<M> {
    pub at: SimTime,
    pub seq: u64,
    pub node: PackedNode,
    pub kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}

impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// BinaryHeap is a max-heap; invert so earliest (then lowest seq) pops first.
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which future-event-list implementation a simulation schedules with.
///
/// Both pop in the identical `(timestamp, seq)` total order, so the choice
/// never changes a run's output — only its wall-clock cost at scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// The original `BinaryHeap` scheduler (reference implementation).
    Heap,
    /// Calendar-queue scheduler: near-term events are binned into
    /// fixed-width time buckets, giving O(1) amortized push/pop at large
    /// queue depths.
    #[default]
    Calendar,
}

/// One entry in a [`CalendarQueue`]: `(at, seq)` is the scheduling key,
/// `item` the payload. `Ord` is inverted so a max-`BinaryHeap` pops the
/// earliest entry first, exactly like [`QueuedEvent`].
#[derive(Debug)]
struct CalEntry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for CalEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for CalEntry<T> {}
impl<T> PartialOrd for CalEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for CalEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the bucket width: 2^16 ns ≈ 65.5 µs per bucket, on the order of
/// one LAN message delay.
const BUCKET_BITS: u32 = 16;
/// Bucket width in virtual nanoseconds.
const BUCKET_WIDTH: u64 = 1 << BUCKET_BITS;
/// Number of buckets in the ring (must be a power of two). 512 buckets
/// keep the ring's header array cache-resident; with 2^16 ns buckets the
/// ring covers ≈ 34 ms, so protocol timers (100 µs – 10 ms) stay binned
/// and only long view timers overflow.
const NUM_BUCKETS: usize = 512;
const BUCKET_MASK: usize = NUM_BUCKETS - 1;
/// The ring covers this much virtual time ahead of the horizon (≈ 34 ms).
const RING_SPAN: u64 = BUCKET_WIDTH * NUM_BUCKETS as u64;
/// Past this point the horizon stops advancing and the queue degrades to a
/// plain heap — only reachable with timestamps near `u64::MAX`.
const HORIZON_CAP: u64 = u64::MAX - 2 * RING_SPAN;
/// While the ring and overflow are empty and `ready` holds fewer entries
/// than this, pushes go straight to `ready`: a heap this shallow is
/// cheaper than touching ring buckets and the occupancy bitmap. Kept
/// small — a request/response exchange with a handful of messages in
/// flight stays on the heap path, while broadcast bursts spill into the
/// ring, where one bucket sort beats per-entry heap sifts.
const HEAP_MODE_CAP: usize = 8;
/// Largest spare capacity (in entries) a staged bucket hands on to the
/// bucket it empties; a larger one is released (see
/// [`CalendarQueue::stage_bucket`]). 64 sim events are 3 KiB. With this
/// bound the n = 4 PBFT benchmark workloads never release (0 of 82 285
/// stagings per run on `sim-pbft-n4`, 0 of 49 518 on
/// `sim-pbft-n4-bigstate`, seed 1), so their queue path stays the
/// recycling one, while `sim-pbft-n16-open` releases 5 113 of 8 640 and
/// its peak RSS falls from 85.2 to 40.6 MiB. Releasing every vector read
/// 41.1 MiB there and puts an allocation on every staging of every
/// workload; `shrink_to(64)` in place of the release read 65.8 MiB.
const RETAINED_CAPACITY: usize = 64;

/// A calendar queue: a priority queue over `(SimTime, u64)` keys that pops
/// in exactly the order a `BinaryHeap` of [`QueuedEvent`]s would.
///
/// Layout: entries earlier than the `horizon` live in a small `ready` heap
/// (the only part that pays O(log n)); entries within [`RING_SPAN`] of the
/// horizon are binned unsorted into fixed-width buckets; the far future
/// sits in an `overflow` heap that is normally tiny (long view timers).
/// Popping stages one bucket at a time into `current` — sorted once, then
/// served off the tail in O(1) — so sorting effort is proportional to
/// bucket occupancy, not total queue depth. Entries pushed behind the
/// horizon while a bucket is being served land in `ready`; every pop
/// compares the `current` tail against the `ready` top, so the merge
/// stays in `(at, seq)` order regardless of which side an entry took.
///
/// Shallow queues (fewer than [`HEAP_MODE_CAP`] entries, ring and
/// overflow empty) bypass the ring entirely and run as a plain heap in
/// `ready` — see [`CalendarQueue::push`].
///
/// Storage follows occupancy, not history: staging hands the served
/// vector's spare capacity on to the bucket it empties only while that
/// capacity is at most [`RETAINED_CAPACITY`] entries. A burst's storage is
/// freed once the burst is served, so the ring holds at most
/// `NUM_BUCKETS + 1` small vectors plus whatever is queued now.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    ready: BinaryHeap<CalEntry<T>>,
    /// The drained bucket currently being served, sorted by inverted
    /// [`CalEntry`] order so the earliest key sits at the tail.
    current: Vec<CalEntry<T>>,
    overflow: BinaryHeap<CalEntry<T>>,
    /// Ring entries are in `[horizon, horizon + RING_SPAN)`; overflow is
    /// `>=` the ring end; `ready` entries are `< horizon`, except for
    /// heap-mode entries which may sit at or past it (the pop-side merge
    /// stages the ring before serving any such key). Always a multiple of
    /// [`BUCKET_WIDTH`] until saturation.
    horizon: u64,
    /// Entries currently binned in the ring.
    in_ring: usize,
    len: usize,
    /// Set when the horizon hit [`HORIZON_CAP`]: everything goes through
    /// `ready` from then on (correct, just no longer O(1)).
    saturated: bool,
    buckets: Vec<Vec<CalEntry<T>>>,
    /// One bit per bucket: set iff the bucket is non-empty. Advancing
    /// jumps straight to the next occupied bucket instead of stepping
    /// through empty ones — the sparse-queue case (a ping-pong with one
    /// event in flight) pays for occupied buckets only.
    occupied: [u64; NUM_BUCKETS / 64],
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the horizon at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            ready: BinaryHeap::new(),
            current: Vec::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; NUM_BUCKETS / 64],
            overflow: BinaryHeap::new(),
            horizon: 0,
            in_ring: 0,
            len: 0,
            saturated: false,
        }
    }

    #[inline]
    fn bin(&mut self, idx: usize, e: CalEntry<T>) {
        self.buckets[idx].push(e);
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        self.in_ring += 1;
    }

    /// Steps (in buckets) from `cursor` to the next occupied bucket,
    /// circularly. Caller guarantees at least one bucket is occupied.
    #[inline]
    fn steps_to_occupied(&self, cursor: usize) -> u64 {
        let (word, bit) = (cursor >> 6, cursor & 63);
        // mask off bits below the cursor within its word
        let masked = self.occupied[word] & (!0u64 << bit);
        if masked != 0 {
            return (masked.trailing_zeros() as u64) - bit as u64;
        }
        let words = self.occupied.len();
        let mut steps = (64 - bit) as u64;
        for i in 1..=words {
            let w = self.occupied[(word + i) % words];
            if w != 0 {
                return steps + w.trailing_zeros() as u64;
            }
            steps += 64;
        }
        unreachable!("steps_to_occupied called with an empty ring");
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-reserve capacity in the ready heap. Buckets are served from
    /// `current`, so `ready` only ever holds entries pushed behind the
    /// horizon — a handful at a time — and the reservation is capped far
    /// below the requested event count.
    pub fn reserve(&mut self, additional: usize) {
        self.ready.reserve(additional.min(1 << 8));
    }

    /// Queue an entry. Entries may be scheduled in the past (before
    /// already-popped times); they simply land in `ready`.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.len += 1;
        let e = CalEntry { at, seq, item };
        if self.in_ring == 0
            && self.overflow.is_empty()
            && self.current.is_empty()
            && self.ready.len() < HEAP_MODE_CAP
        {
            // Heap mode: while the queue is this shallow, a plain heap
            // beats the ring — no bucket or bitmap cache traffic — and
            // with ring and overflow empty the pop-side merge is trivially
            // correct. The horizon stays frozen; once the queue deepens,
            // pushes fall through to the ring again. (Past-horizon and
            // saturated pushes land in `ready` anyway, so folding them
            // into this branch changes nothing.)
            self.ready.push(e);
        } else {
            self.push_slow(e);
        }
    }

    fn push_slow(&mut self, e: CalEntry<T>) {
        if self.saturated || e.at.0 < self.horizon {
            self.ready.push(e);
        } else if e.at.0 - self.horizon < RING_SPAN {
            let idx = (e.at.0 >> BUCKET_BITS) as usize & BUCKET_MASK;
            self.bin(idx, e);
        } else {
            self.overflow.push(e);
        }
    }

    /// The earliest queued `(at, seq)` key, without removing it. Takes
    /// `&mut self` because it may advance the horizon to stage the
    /// minimum into `current`.
    #[inline]
    pub fn min_key(&mut self) -> Option<(SimTime, u64)> {
        if self.in_ring == 0 && self.overflow.is_empty() && self.current.is_empty() {
            return self.ready.peek().map(|e| (e.at, e.seq));
        }
        self.min_key_slow()
    }

    fn min_key_slow(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let ck = self.current.last().map(|e| (e.at, e.seq));
            let rk = self.ready.peek().map(|e| (e.at, e.seq));
            let key = match (ck, rk) {
                (Some(c), Some(r)) => Some(c.min(r)),
                (c, r) => c.or(r),
            };
            let unstaged = self.in_ring > 0 || !self.overflow.is_empty();
            match key {
                // Ring and overflow entries are all >= horizon, so a staged
                // key below the horizon is the global minimum.
                Some(k) if !unstaged || (k.0).0 < self.horizon => return Some(k),
                None if !unstaged => return None,
                _ => {}
            }
            let Some(cursor) = self.seek() else {
                continue; // saturated: everything moved into `ready`
            };
            self.stage_bucket(cursor);
        }
    }

    /// Remove and return the earliest entry (ties broken by lowest `seq`).
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_at_most(SimTime(u64::MAX))
    }

    /// Remove and return the earliest entry if it is due at or before
    /// `until`; otherwise leave the queue untouched and return `None`.
    ///
    /// This is the run loop's fused peek-then-pop: at most one bucket is
    /// staged per call, and the common case — the minimum already sits at
    /// the `current` tail — is a compare and a `Vec::pop`.
    #[inline]
    pub fn pop_at_most(&mut self, until: SimTime) -> Option<(SimTime, u64, T)> {
        // Heap-mode fast path: with ring, overflow, and `current` all
        // empty, `ready` holds the whole queue and its top is the global
        // minimum — no merge or staging logic needed.
        if self.in_ring == 0 && self.overflow.is_empty() && self.current.is_empty() {
            let e = self.ready.peek()?;
            if e.at > until {
                return None;
            }
            let e = self.ready.pop().expect("peeked");
            self.len -= 1;
            return Some((e.at, e.seq, e.item));
        }
        self.pop_slow(until)
    }

    fn pop_slow(&mut self, until: SimTime) -> Option<(SimTime, u64, T)> {
        loop {
            let ck = self.current.last().map(|e| (e.at, e.seq));
            let rk = self.ready.peek().map(|e| (e.at, e.seq));
            // Seqs are unique, so the keys can never be equal and a
            // strict compare picks an unambiguous side.
            let (key, from_current) = match (ck, rk) {
                (Some(c), Some(r)) if c < r => (Some(c), true),
                (Some(c), None) => (Some(c), true),
                (_, r) => (r, false),
            };
            let unstaged = self.in_ring > 0 || !self.overflow.is_empty();
            if let Some(k) = key {
                // A staged entry is serveable only when nothing in the
                // ring or overflow can precede it. Ring and overflow
                // entries are all >= horizon, so a key below the horizon
                // wins outright; heap-mode entries in `ready` may sit at
                // or past the (frozen) horizon and force a stage first.
                if !unstaged || (k.0).0 < self.horizon {
                    if k.0 > until {
                        return None;
                    }
                    let e = if from_current {
                        self.current.pop().expect("checked")
                    } else {
                        self.ready.pop().expect("checked")
                    };
                    self.len -= 1;
                    return Some((e.at, e.seq, e.item));
                }
            } else if !unstaged {
                return None;
            }
            let Some(cursor) = self.seek() else {
                continue; // saturated: everything moved into `ready`
            };
            let bucket = &mut self.buckets[cursor];
            if bucket.len() == 1 {
                // Single-entry bucket (the overwhelmingly common case for
                // sparse traffic): if it precedes every staged entry, hand
                // it over directly instead of staging. The horizon stays
                // at the bucket's floor — nothing is left staged, so later
                // pushes into this same window simply re-bin here and pop
                // in order. Other ring buckets hold entries past this
                // bucket's window and overflow sits past the ring end, so
                // the entry is the unstaged minimum.
                let bk = (bucket[0].at, bucket[0].seq);
                if key.is_none_or(|k| bk < k) {
                    if bk.0 > until {
                        return None;
                    }
                    let e = bucket.pop().expect("len checked");
                    self.occupied[cursor >> 6] &= !(1 << (cursor & 63));
                    self.in_ring -= 1;
                    self.len -= 1;
                    return Some((e.at, e.seq, e.item));
                }
            }
            self.stage_bucket(cursor);
        }
    }

    /// Advance the horizon to the next occupied bucket and return its
    /// index. When the ring is empty, jumps straight to the overflow's
    /// earliest bucket; within the ring, the occupancy bitmap skips empty
    /// buckets in O(words) instead of stepping one bucket at a time.
    /// Returns `None` when ring and overflow are both empty, or after
    /// saturating (in which case everything now sits in `ready`).
    fn seek(&mut self) -> Option<usize> {
        if self.in_ring == 0 {
            let min = self.overflow.peek()?;
            let aligned = min.at.0 & !(BUCKET_WIDTH - 1);
            if aligned >= HORIZON_CAP {
                self.saturate();
                return None;
            }
            self.horizon = self.horizon.max(aligned);
            self.refill_from_overflow();
            debug_assert!(self.in_ring > 0);
        }
        let cursor = (self.horizon >> BUCKET_BITS) as usize & BUCKET_MASK;
        let steps = self.steps_to_occupied(cursor);
        if steps > 0 {
            // Skipped buckets are empty in the current lap; entries the
            // wider window pulls out of overflow land at or after the
            // target bucket's window, so binning them first is safe.
            match self.horizon.checked_add(steps * BUCKET_WIDTH) {
                Some(h) if h < HORIZON_CAP => {
                    self.horizon = h;
                    self.refill_from_overflow();
                }
                _ => {
                    self.saturate();
                    return None;
                }
            }
        }
        Some((self.horizon >> BUCKET_BITS) as usize & BUCKET_MASK)
    }

    /// Move the bucket at `cursor` into `current`, sorted for tail-first
    /// serving, and advance the horizon past it so that entries pushed
    /// into its window while `current` is being served land in `ready`
    /// (they are behind the horizon) and merge by key at pop time.
    fn stage_bucket(&mut self, cursor: usize) {
        debug_assert!(self.current.is_empty());
        self.in_ring -= self.buckets[cursor].len();
        self.occupied[cursor >> 6] &= !(1 << (cursor & 63));
        // Swap instead of drain: the emptied bucket inherits `current`'s
        // spare capacity, so steady state re-bins without allocating. A
        // burst-sized vector is not handed on: recycled, every bucket would
        // keep the largest burst it was ever swapped, so it is released and
        // the bucket starts empty.
        std::mem::swap(&mut self.current, &mut self.buckets[cursor]);
        if self.buckets[cursor].capacity() > RETAINED_CAPACITY {
            self.buckets[cursor] = Vec::new();
        }
        if self.current.len() > 1 {
            // CalEntry's Ord is inverted, so an ascending sort leaves the
            // earliest key at the tail.
            self.current.sort_unstable();
        }
        let next = self.horizon + BUCKET_WIDTH;
        if next >= HORIZON_CAP {
            self.saturate();
            return;
        }
        self.horizon = next;
        self.refill_from_overflow();
    }

    /// Pull overflow entries now covered by the ring window into buckets.
    fn refill_from_overflow(&mut self) {
        let end = self.horizon + RING_SPAN;
        while let Some(e) = self.overflow.peek() {
            if e.at.0 >= end {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            let idx = (e.at.0 >> BUCKET_BITS) as usize & BUCKET_MASK;
            self.bin(idx, e);
        }
    }

    /// Degenerate mode for timestamps near `u64::MAX`: dump everything
    /// into `ready` and stop advancing the horizon. Order stays correct —
    /// `ready` is a proper heap — it is just no longer O(1).
    fn saturate(&mut self) {
        self.saturated = true;
        self.occupied = [0; NUM_BUCKETS / 64];
        for bucket in &mut self.buckets {
            self.in_ring -= bucket.len();
            for e in bucket.drain(..) {
                self.ready.push(e);
            }
        }
        while let Some(e) = self.overflow.pop() {
            self.ready.push(e);
        }
    }
}

/// The simulation's future event list: one of the two scheduler backends,
/// holding [`QueuedEvent`]s.
#[derive(Debug)]
pub(crate) enum EventQueue<M> {
    Heap(BinaryHeap<QueuedEvent<M>>),
    Calendar(CalendarQueue<(PackedNode, EventKind<M>)>),
}

impl<M> EventQueue<M> {
    pub(crate) fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            SchedulerKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
        }
    }

    pub(crate) fn push(&mut self, ev: QueuedEvent<M>) {
        match self {
            EventQueue::Heap(h) => h.push(ev),
            EventQueue::Calendar(c) => c.push(ev.at, ev.seq, (ev.node, ev.kind)),
        }
    }

    /// Fused peek-then-pop: the earliest event if it is due at or before
    /// `until`, else `None` with the queue untouched. One settle instead of
    /// the two a separate `next_at` + `pop` would pay.
    pub(crate) fn pop_at_most(&mut self, until: SimTime) -> Option<QueuedEvent<M>> {
        match self {
            EventQueue::Heap(h) => {
                if h.peek()?.at > until {
                    return None;
                }
                h.pop()
            }
            EventQueue::Calendar(c) => {
                c.pop_at_most(until)
                    .map(|(at, seq, (node, kind))| QueuedEvent {
                        at,
                        seq,
                        node,
                        kind,
                    })
            }
        }
    }

    /// Earliest queued timestamp (may advance calendar internals).
    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|e| e.at),
            EventQueue::Calendar(c) => c.min_key().map(|(at, _)| at),
        }
    }

    pub(crate) fn reserve(&mut self, additional: usize) {
        match self {
            EventQueue::Heap(h) => h.reserve(additional),
            EventQueue::Calendar(c) => c.reserve(additional),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, seq: u64) -> QueuedEvent<()> {
        QueuedEvent {
            at: SimTime(at),
            seq,
            node: PackedNode::pack(NodeId::replica(0)),
            kind: EventKind::Crash,
        }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut h = BinaryHeap::new();
        h.push(ev(10, 0));
        h.push(ev(5, 1));
        h.push(ev(5, 2));
        h.push(ev(1, 3));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| h.pop().map(|e| (e.at.0, e.seq))).collect();
        assert_eq!(order, vec![(1, 3), (5, 1), (5, 2), (10, 0)]);
    }

    /// Entries of spare and used capacity the ring's vectors hold.
    fn ring_capacity<T>(q: &CalendarQueue<T>) -> usize {
        q.buckets.iter().map(Vec::capacity).sum::<usize>() + q.current.capacity()
    }

    #[test]
    fn a_served_burst_does_not_stay_in_the_ring() {
        let mut q = CalendarQueue::new();
        let mut seq = 0;
        let mut push = |q: &mut CalendarQueue<()>, at: u64| {
            q.push(SimTime(at), seq, ());
            seq += 1;
        };
        // a burst into one window, served in full
        for i in 0..20_000 {
            push(&mut q, 3 * BUCKET_WIDTH + i % BUCKET_WIDTH);
        }
        while q.pop().is_some() {}
        // then a trickle of a few entries per window over a full ring lap,
        // so that the buckets are staged in turn
        for window in 4..4 + NUM_BUCKETS as u64 + 1 {
            for i in 0..3 {
                push(&mut q, window * BUCKET_WIDTH + i);
            }
        }
        while q.pop().is_some() {}
        let bound = (NUM_BUCKETS + 1) * RETAINED_CAPACITY;
        assert!(
            ring_capacity(&q) <= bound,
            "{} > {bound}",
            ring_capacity(&q)
        );
    }

    #[test]
    fn node_id_accessors() {
        assert!(NodeId::replica(1).is_replica());
        assert!(!NodeId::client(1).is_replica());
        assert_eq!(NodeId::replica(2).as_replica(), Some(ReplicaId(2)));
        assert_eq!(NodeId::client(2).as_replica(), None);
    }

    #[test]
    fn packing_keeps_node_order() {
        let nodes = [
            NodeId::replica(0),
            NodeId::replica(7),
            NodeId::replica(u32::MAX),
            NodeId::client(0),
            NodeId::client(3),
        ];
        for a in nodes {
            assert_eq!(PackedNode::pack(a).unpack(), a);
            let packed = PackedNode::pack(a);
            assert_eq!(PackedNode::from_compact(packed.to_compact()), packed);
            for b in nodes {
                assert_eq!(PackedNode::pack(a).cmp(&PackedNode::pack(b)), a.cmp(&b));
            }
        }
    }
}
