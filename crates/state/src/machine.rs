//! The replicated state machine: ordered execution, speculation, snapshots.
//!
//! A [`StateMachine`] executes requests at consecutive sequence numbers.
//! Execution is deterministic — same sequence of requests, same state
//! digest everywhere (property-tested below). Three capabilities beyond
//! plain execution serve specific paper dimensions:
//!
//! * **Speculative execution** ([`StateMachine::execute_speculative`]) —
//!   Zyzzyva (design choice 8) and PoE (design choice 7) execute before
//!   commitment; if the optimistic assumption fails, [`StateMachine::rollback_to`]
//!   undoes every effect at or above a sequence number using the undo log.
//! * **Snapshots** ([`StateMachine::snapshot`]) — the checkpointing stage
//!   (P4) garbage-collects the log below a sequence number; in-dark
//!   replicas catch up by [`StateMachine::install_snapshot`] of the state
//!   there, rebuilt from the undo log ([`StateMachine::snapshot_at`]).
//! * **At-most-once semantics** — replies are cached per client; a
//!   re-executed request id returns the cached reply instead of applying
//!   effects twice (the standard PBFT client-handling rule). The record of
//!   executed requests is part of the state: a snapshot carries it, so a
//!   replica that caught up by state transfer knows what it covers.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use bft_types::{ClientId, Digest, Request, RequestId, SeqNum, Transaction, TxnResult, Value};

use crate::app::{ComposedApp, UndoOp};
use crate::kv::KvStore;

/// Undo record for one executed transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct UndoRecord {
    seq: SeqNum,
    /// Reversible effects of the transaction, applied in reverse on
    /// rollback.
    prior: Vec<UndoOp>,
    /// Previous reply-cache entry for the client.
    prior_reply: Option<CachedReply>,
    request: RequestId,
    speculative: bool,
}

/// A client's last executed request and what its execution answered: what
/// a retransmission of that request is answered with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedReply {
    /// The request.
    pub request: RequestId,
    /// Its result.
    pub result: TxnResult,
    /// The sequence number it executed at.
    pub seq: SeqNum,
    /// The state digest its execution left.
    pub state_digest: Digest,
}

/// A point-in-time copy of the full machine state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Sequence number the snapshot covers (all requests ≤ `seq` applied).
    pub seq: SeqNum,
    /// State digest at that point.
    pub digest: Digest,
    app: ComposedApp,
    replies: BTreeMap<ClientId, CachedReply>,
    executed: BTreeSet<RequestId>,
}

/// Record of one executed request (kept while it may still be needed for
/// rollback or audit).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutedEntry {
    /// Sequence number.
    pub seq: SeqNum,
    /// The request executed there.
    pub request: RequestId,
    /// Whether the execution is still speculative.
    pub speculative: bool,
    /// State digest after this execution.
    pub state_digest: Digest,
}

/// The deterministic replicated state machine.
///
/// ```
/// use bft_state::StateMachine;
/// use bft_types::{ClientId, Op, Request, SeqNum, Transaction};
///
/// let mut sm = StateMachine::new();
/// let put = Request::new(ClientId(1), 1, Transaction::single(Op::Put(7, 42)));
/// sm.execute(SeqNum(1), &put);
/// let before = sm.digest();
///
/// // speculate (Zyzzyva/PoE-style), then undo: the digest is restored
/// let spec = Request::new(ClientId(1), 2, Transaction::single(Op::Put(7, 99)));
/// sm.execute_speculative(SeqNum(2), &spec);
/// sm.rollback_to(SeqNum(2));
/// assert_eq!(sm.digest(), before);
/// assert_eq!(sm.store().get(7), Some(42));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StateMachine {
    app: ComposedApp,
    /// Last executed sequence number (0 = nothing executed; sequence
    /// numbers start at 1, as in PBFT).
    last_executed: SeqNum,
    /// Per-client last reply (at-most-once execution).
    replies: BTreeMap<ClientId, CachedReply>,
    /// Every request executed and not rolled back.
    executed: BTreeSet<RequestId>,
    /// Undo log for sequence numbers that may still roll back.
    undo: Vec<UndoRecord>,
    /// Executed history (trimmed by checkpointing).
    history: Vec<ExecutedEntry>,
}

impl StateMachine {
    /// A fresh, empty machine.
    pub fn new() -> Self {
        StateMachine::default()
    }

    /// Last executed sequence number.
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Current state digest.
    pub fn digest(&self) -> Digest {
        self.app.digest()
    }

    /// Read-only access to the key-value component (for read-path
    /// optimizations and tests).
    pub fn store(&self) -> &KvStore {
        self.app.kv()
    }

    /// Read-only access to the full application composition (log and
    /// counter apps included).
    pub fn app(&self) -> &ComposedApp {
        &self.app
    }

    /// Serve a read-only transaction from current state without ordering
    /// it (the optimized read path, ABL-3): each read op is answered by the
    /// app that handles it. Write ops contribute nothing.
    pub fn read_only_results(&self, txn: &Transaction) -> TxnResult {
        TxnResult {
            reads: txn.ops.iter().filter_map(|op| self.app.read(op)).collect(),
        }
    }

    /// The cached reply for a client, if any (used for request
    /// de-duplication: a replica answering a retransmitted request).
    pub fn cached_reply(&self, client: ClientId) -> Option<&CachedReply> {
        self.replies.get(&client)
    }

    /// Every client's cached reply.
    pub fn cached_replies(&self) -> impl Iterator<Item = &CachedReply> {
        self.replies.values()
    }

    /// Executed history entries still retained.
    pub fn history(&self) -> &[ExecutedEntry] {
        &self.history
    }

    /// Whether `id` has executed here (and was not rolled back).
    pub fn is_executed(&self, id: &RequestId) -> bool {
        self.executed.contains(id)
    }

    /// Override the record of whether `id` executed, for an execution
    /// stage that keeps its own rules: a sabotaged drop marks a request it
    /// never applied; a speculative rollback un-marks every request it
    /// undid, a replay of an earlier execution included.
    pub fn set_executed(&mut self, id: RequestId, executed: bool) {
        if executed {
            self.executed.insert(id);
        } else {
            self.executed.remove(&id);
        }
    }

    /// Execute `request` at `seq` (must be exactly `last_executed + 1`).
    /// Returns the result and the post-state digest.
    pub fn execute(&mut self, seq: SeqNum, request: &Request) -> (TxnResult, Digest) {
        self.execute_inner(seq, request, false)
    }

    /// Execute speculatively: identical effects, but the entry is marked
    /// speculative and can be undone by [`Self::rollback_to`].
    pub fn execute_speculative(&mut self, seq: SeqNum, request: &Request) -> (TxnResult, Digest) {
        self.execute_inner(seq, request, true)
    }

    fn execute_inner(
        &mut self,
        seq: SeqNum,
        request: &Request,
        speculative: bool,
    ) -> (TxnResult, Digest) {
        assert_eq!(
            seq,
            self.last_executed.next(),
            "out-of-order execution: expected {}, got {seq}",
            self.last_executed.next()
        );

        // At-most-once: if this exact request was the client's last executed
        // request, replay the cached result without re-applying effects.
        if let Some(cached) = self.replies.get(&request.id.client) {
            if cached.request == request.id {
                let (prior_reply, result) = (Some(cached.clone()), cached.result.clone());
                self.last_executed = seq;
                let digest = self.digest();
                self.undo.push(UndoRecord {
                    seq,
                    prior: Vec::new(),
                    prior_reply,
                    request: request.id,
                    speculative,
                });
                self.history.push(ExecutedEntry {
                    seq,
                    request: request.id,
                    speculative,
                    state_digest: digest,
                });
                self.executed.insert(request.id);
                return (result, digest);
            }
        }

        let mut prior: Vec<UndoOp> = Vec::new();
        let mut reads: Vec<Option<Value>> = Vec::new();
        for op in &request.txn.ops {
            self.app.apply(op, &mut reads, &mut prior);
        }

        let result = TxnResult { reads };
        self.last_executed = seq;
        let digest = self.digest();
        let cached = CachedReply {
            request: request.id,
            result: result.clone(),
            seq,
            state_digest: digest,
        };
        let prior_reply = self.replies.insert(request.id.client, cached);
        self.undo.push(UndoRecord {
            seq,
            prior,
            prior_reply,
            request: request.id,
            speculative,
        });
        self.history.push(ExecutedEntry {
            seq,
            request: request.id,
            speculative,
            state_digest: digest,
        });
        self.executed.insert(request.id);
        (result, digest)
    }

    /// Mark all speculative executions up to and including `seq` as final
    /// (their undo records are retained only until the next checkpoint).
    pub fn confirm_up_to(&mut self, seq: SeqNum) {
        for rec in &mut self.undo {
            if rec.seq <= seq {
                rec.speculative = false;
            }
        }
        for e in &mut self.history {
            if e.seq <= seq {
                e.speculative = false;
            }
        }
    }

    /// Undo every execution with sequence number ≥ `from`. Returns the
    /// number of undone executions. Used by speculative protocols when the
    /// optimistic assumption fails.
    pub fn rollback_to(&mut self, from: SeqNum) -> usize {
        let mut undone = 0;
        while let Some(rec) = self.undo.last() {
            if rec.seq < from {
                break;
            }
            let rec = self.undo.pop().unwrap();
            // a replay answered a request that had executed before it
            if rec
                .prior_reply
                .as_ref()
                .is_none_or(|cached| cached.request != rec.request)
            {
                self.executed.remove(&rec.request);
            }
            // restore effects in reverse order
            for op in rec.prior.iter().rev() {
                self.app.undo(op);
            }
            match rec.prior_reply {
                Some(entry) => {
                    self.replies.insert(rec.request.client, entry);
                }
                None => {
                    self.replies.remove(&rec.request.client);
                }
            }
            self.last_executed = rec.seq.prev();
            undone += 1;
        }
        self.history.retain(|e| e.seq < from);
        undone
    }

    /// Capture a snapshot at the current sequence number.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            seq: self.last_executed,
            digest: self.digest(),
            app: self.app.clone(),
            replies: self.replies.clone(),
            executed: self.executed.clone(),
        }
    }

    /// The snapshot [`Self::snapshot`] returned when the machine stood at
    /// `seq`, rebuilt by rolling a copy of the machine back through the
    /// undo log. `None` when `seq` is ahead of the machine or below what
    /// the undo log reaches (truncated, or cut by an installed snapshot).
    pub fn snapshot_at(&self, seq: SeqNum) -> Option<Snapshot> {
        // the undo log holds one record per sequence number up to the last
        let above = self.last_executed.0.checked_sub(seq.0)?;
        if above > self.undo.len() as u64 {
            return None;
        }
        let mut then = self.clone();
        then.rollback_to(seq.next());
        Some(Snapshot {
            seq,
            digest: then.digest(),
            app: then.app,
            replies: then.replies,
            executed: then.executed,
        })
    }

    /// Install a snapshot, discarding the current state (how an in-dark
    /// replica catches up from a stable checkpoint).
    pub fn install_snapshot(&mut self, snap: &Snapshot) {
        self.app = snap.app.clone();
        self.replies = snap.replies.clone();
        self.executed = snap.executed.clone();
        self.last_executed = snap.seq;
        self.undo.clear();
        self.history.clear();
        debug_assert_eq!(self.digest(), snap.digest);
    }

    /// Drop undo records and history at or below `seq` (called when a
    /// checkpoint at `seq` becomes stable; those executions can no longer
    /// roll back).
    pub fn truncate_below(&mut self, seq: SeqNum) {
        self.undo.retain(|r| r.seq > seq);
        self.history.retain(|e| e.seq > seq);
    }

    /// Bytes of retained bookkeeping (undo + history lengths — the memory
    /// growth metric of the P4 checkpointing experiment).
    pub fn retained_entries(&self) -> usize {
        self.undo.len() + self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::{Op, Transaction};
    use proptest::prelude::*;

    fn req(client: u64, ts: u64, ops: Vec<Op>) -> Request {
        Request::new(ClientId(client), ts, Transaction { ops })
    }

    /// The executed-request set is state: a snapshot carries it, a
    /// rollback un-executes, and the copy installed elsewhere knows what
    /// it covers.
    #[test]
    fn snapshots_carry_the_executed_requests() {
        let put = |ts, v| Request::new(ClientId(1), ts, Transaction::single(Op::Put(7, v)));
        let mut sm = StateMachine::new();
        sm.execute(SeqNum(1), &put(1, 1));
        sm.execute_speculative(SeqNum(2), &put(2, 2));
        let mut copy = StateMachine::new();
        copy.install_snapshot(&sm.snapshot_at(SeqNum(1)).expect("in reach"));
        assert!(copy.is_executed(&put(1, 1).id) && !copy.is_executed(&put(2, 2).id));
        sm.rollback_to(SeqNum(2));
        assert!(sm.is_executed(&put(1, 1).id) && !sm.is_executed(&put(2, 2).id));
    }

    #[test]
    fn executes_in_order_and_reads() {
        let mut sm = StateMachine::new();
        let (r1, _) = sm.execute(SeqNum(1), &req(1, 1, vec![Op::Put(5, 100)]));
        assert!(r1.reads.is_empty());
        let (r2, _) = sm.execute(SeqNum(2), &req(1, 2, vec![Op::Get(5), Op::Add(5, 1)]));
        assert_eq!(r2.reads, vec![Some(100), Some(101)]);
        assert_eq!(sm.last_executed(), SeqNum(2));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn rejects_out_of_order() {
        let mut sm = StateMachine::new();
        sm.execute(SeqNum(2), &req(1, 1, vec![]));
    }

    #[test]
    fn at_most_once_replays_cached_reply() {
        let mut sm = StateMachine::new();
        let r = req(1, 1, vec![Op::Add(0, 5)]);
        let (res1, _) = sm.execute(SeqNum(1), &r);
        // the same request ordered again (duplicate) must not double-apply
        let (res2, _) = sm.execute(SeqNum(2), &r);
        assert_eq!(res1, res2);
        assert_eq!(sm.store().get(0), Some(5), "effect applied once");
    }

    #[test]
    fn rollback_restores_state_and_replies() {
        let mut sm = StateMachine::new();
        sm.execute(SeqNum(1), &req(1, 1, vec![Op::Put(1, 10)]));
        let digest_after_1 = sm.digest();
        sm.execute_speculative(SeqNum(2), &req(1, 2, vec![Op::Put(1, 20), Op::Put(2, 5)]));
        sm.execute_speculative(SeqNum(3), &req(2, 1, vec![Op::Delete(1), Op::Add(3, 7)]));
        assert_eq!(sm.store().get(1), None);

        let undone = sm.rollback_to(SeqNum(2));
        assert_eq!(undone, 2);
        assert_eq!(sm.last_executed(), SeqNum(1));
        assert_eq!(sm.digest(), digest_after_1);
        assert_eq!(sm.store().get(1), Some(10));
        assert_eq!(sm.store().get(2), None);
        assert_eq!(sm.store().get(3), None);
        // reply cache restored: client 1's last reply is for timestamp 1
        assert_eq!(sm.cached_reply(ClientId(1)).unwrap().request.timestamp, 1);
        assert!(sm.cached_reply(ClientId(2)).is_none());
    }

    #[test]
    fn rollback_then_reexecute_matches_direct_execution() {
        let a_path = {
            let mut sm = StateMachine::new();
            sm.execute(SeqNum(1), &req(1, 1, vec![Op::Put(1, 1)]));
            sm.execute_speculative(SeqNum(2), &req(1, 2, vec![Op::Put(1, 99)]));
            sm.rollback_to(SeqNum(2));
            sm.execute(SeqNum(2), &req(2, 1, vec![Op::Put(1, 2)]));
            sm.digest()
        };
        let b_path = {
            let mut sm = StateMachine::new();
            sm.execute(SeqNum(1), &req(1, 1, vec![Op::Put(1, 1)]));
            sm.execute(SeqNum(2), &req(2, 1, vec![Op::Put(1, 2)]));
            sm.digest()
        };
        assert_eq!(a_path, b_path);
    }

    #[test]
    fn snapshot_install_roundtrip() {
        let mut sm = StateMachine::new();
        for i in 1..=10u64 {
            sm.execute(SeqNum(i), &req(1, i, vec![Op::Put(i, i as i64)]));
        }
        let snap = sm.snapshot();
        assert_eq!(snap.seq, SeqNum(10));

        // a fresh (in-dark) replica installs the snapshot and continues
        let mut fresh = StateMachine::new();
        fresh.install_snapshot(&snap);
        assert_eq!(fresh.last_executed(), SeqNum(10));
        assert_eq!(fresh.digest(), sm.digest());

        // both execute the same next request and stay identical
        let next = req(2, 1, vec![Op::Add(3, 1)]);
        sm.execute(SeqNum(11), &next);
        fresh.execute(SeqNum(11), &next);
        assert_eq!(fresh.digest(), sm.digest());
    }

    #[test]
    fn snapshot_at_reaches_exactly_as_far_as_the_undo_log() {
        let mut sm = StateMachine::new();
        let mut taken = Vec::new();
        for i in 1..=20u64 {
            sm.execute(SeqNum(i), &req(1, i, vec![Op::Put(i % 3, i as i64)]));
            taken.push(sm.snapshot());
        }
        assert_eq!(
            sm.snapshot_at(SeqNum(0)).unwrap().digest,
            StateMachine::new().digest()
        );
        assert_eq!(sm.snapshot_at(SeqNum(20)), Some(sm.snapshot()));
        assert_eq!(sm.snapshot_at(SeqNum(21)), None, "ahead of the machine");
        // truncation at 12 keeps the records above it: 12 is the last
        // reachable point, 11 is not
        sm.truncate_below(SeqNum(12));
        assert_eq!(sm.snapshot_at(SeqNum(12)).as_ref(), Some(&taken[11]));
        assert_eq!(sm.snapshot_at(SeqNum(11)), None);
        // an installed snapshot has no past
        let mut fresh = StateMachine::new();
        fresh.install_snapshot(&taken[14]);
        assert_eq!(fresh.snapshot_at(SeqNum(15)).as_ref(), Some(&taken[14]));
        assert_eq!(fresh.snapshot_at(SeqNum(14)), None);
        fresh.execute(SeqNum(16), &req(1, 16, vec![Op::Put(1, 16)]));
        assert_eq!(fresh.snapshot_at(SeqNum(15)).as_ref(), Some(&taken[14]));
        assert_eq!(fresh.snapshot_at(SeqNum(16)).as_ref(), Some(&taken[15]));
    }

    #[test]
    fn truncate_bounds_memory() {
        let mut sm = StateMachine::new();
        for i in 1..=100u64 {
            sm.execute(SeqNum(i), &req(1, i, vec![Op::Put(i % 7, i as i64)]));
        }
        assert_eq!(sm.retained_entries(), 200);
        sm.truncate_below(SeqNum(90));
        assert_eq!(sm.retained_entries(), 20);
    }

    #[test]
    fn confirm_marks_final() {
        let mut sm = StateMachine::new();
        sm.execute_speculative(SeqNum(1), &req(1, 1, vec![Op::Put(1, 1)]));
        sm.execute_speculative(SeqNum(2), &req(1, 2, vec![Op::Put(2, 2)]));
        sm.confirm_up_to(SeqNum(1));
        assert!(!sm.history()[0].speculative);
        assert!(sm.history()[1].speculative);
    }

    proptest! {
        /// Determinism: two machines executing the same request sequence
        /// agree on every intermediate digest.
        #[test]
        fn determinism(ops in prop::collection::vec(
            (1u64..4, 0u64..8, -10i64..10, 0u8..4), 1..60
        )) {
            let mut a = StateMachine::new();
            let mut b = StateMachine::new();
            for (i, (client, key, val, kind)) in ops.iter().enumerate() {
                let op = match kind {
                    0 => Op::Get(*key),
                    1 => Op::Put(*key, *val),
                    2 => Op::Add(*key, *val),
                    _ => Op::Delete(*key),
                };
                let r = req(*client, i as u64 + 1, vec![op]);
                let seq = SeqNum(i as u64 + 1);
                let (ra, da) = a.execute(seq, &r);
                let (rb, db) = b.execute(seq, &r);
                prop_assert_eq!(ra, rb);
                prop_assert_eq!(da, db);
            }
        }

        /// Rollback always restores the exact pre-speculation digest.
        #[test]
        fn rollback_restores_digest(
            prefix in prop::collection::vec((0u64..6, -20i64..20), 0..20),
            spec in prop::collection::vec((0u64..6, -20i64..20, 0u8..4), 1..20),
        ) {
            let mut sm = StateMachine::new();
            let mut seq = 0u64;
            for (k, v) in &prefix {
                seq += 1;
                sm.execute(SeqNum(seq), &req(1, seq, vec![Op::Put(*k, *v)]));
            }
            let checkpoint_digest = sm.digest();
            let rollback_from = seq + 1;
            for (k, v, kind) in &spec {
                seq += 1;
                let op = match kind {
                    0 => Op::Put(*k, *v),
                    1 => Op::Add(*k, *v),
                    2 => Op::Delete(*k),
                    _ => Op::Get(*k),
                };
                sm.execute_speculative(SeqNum(seq), &req(2, seq, vec![op]));
            }
            sm.rollback_to(SeqNum(rollback_from));
            prop_assert_eq!(sm.digest(), checkpoint_digest);
            prop_assert_eq!(sm.last_executed(), SeqNum(rollback_from - 1));
        }

        /// `snapshot_at(s)` is the snapshot taken when the machine stood
        /// at `s`, for every `s` the undo log still reaches — over all
        /// three apps, with at-most-once replays, rollbacks of a
        /// speculative tail and a truncation somewhere in the history.
        #[test]
        fn snapshot_at_equals_the_snapshot_taken_there(
            ops in prop::collection::vec(
                (1u64..4, 0u64..6, -20i64..20, 0u8..8, prop::bool::ANY), 1..80
            ),
            truncate_at in 0u64..80,
            rollback in 0u64..6,
        ) {
            let mut sm = StateMachine::new();
            let mut taken = vec![sm.snapshot()];
            let mut last: BTreeMap<u64, Request> = BTreeMap::new();
            for (i, (client, key, val, kind, replay)) in ops.iter().enumerate() {
                let op = match kind {
                    0 => Op::Get(*key),
                    1 => Op::Put(*key, *val),
                    2 => Op::Add(*key, *val),
                    3 => Op::Delete(*key),
                    4 => Op::Append(*key, *val),
                    5 => Op::ReadAt(*key, 0),
                    6 => Op::GAdd(*key, val.unsigned_abs()),
                    _ => Op::GRead(*key),
                };
                // a replay re-orders the client's last request: the reply
                // cache answers, nothing is applied twice
                let fresh = req(*client, i as u64 + 1, vec![op.clone(), op]);
                let r = match last.get(client) {
                    Some(prev) if *replay => prev.clone(),
                    _ => fresh,
                };
                last.insert(*client, r.clone());
                sm.execute_speculative(sm.last_executed().next(), &r);
                taken.push(sm.snapshot());
            }
            let top = sm.last_executed().0;
            let floor = truncate_at.min(top);
            sm.truncate_below(SeqNum(floor));
            // un-execute a speculative tail, as Zyzzyva/PoE do
            let top = top - rollback.min(top - floor);
            sm.rollback_to(SeqNum(top + 1));
            for s in 0..=top + 1 {
                let rebuilt = sm.snapshot_at(SeqNum(s));
                if s < floor || s > top {
                    prop_assert_eq!(rebuilt, None);
                } else {
                    prop_assert_eq!(rebuilt.as_ref(), Some(&taken[s as usize]));
                    prop_assert_eq!(rebuilt.unwrap().digest, taken[s as usize].digest);
                }
            }
            // the machine itself is untouched by rebuilding
            prop_assert_eq!(sm.snapshot(), taken[top as usize].clone());
        }

        /// Snapshot/install is lossless at any point in a history.
        #[test]
        fn snapshot_roundtrip_any_point(
            ops in prop::collection::vec((0u64..6, -20i64..20), 1..40),
            cut in 0usize..40,
        ) {
            let mut sm = StateMachine::new();
            let mut snap = None;
            for (i, (k, v)) in ops.iter().enumerate() {
                sm.execute(SeqNum(i as u64 + 1), &req(1, i as u64 + 1, vec![Op::Put(*k, *v)]));
                if i == cut.min(ops.len() - 1) {
                    snap = Some(sm.snapshot());
                }
            }
            if let Some(snap) = snap {
                let mut fresh = StateMachine::new();
                fresh.install_snapshot(&snap);
                prop_assert_eq!(fresh.digest(), snap.digest);
                prop_assert_eq!(fresh.last_executed(), snap.seq);
            }
        }
    }
}
