//! Per-workload semantic consistency checkers.
//!
//! The digest-based [`crate::SafetyAuditor`] proves replicas *agree*; the
//! checkers here prove the agreed history is *correct* for the application:
//!
//! * **Replay faithfulness** — folding every honest replica's `Execute` /
//!   `Rollback` stream through a fresh [`bft_state::StateMachine`] must
//!   reproduce the observed digests (a unanimous-but-wrong execution, as in
//!   an untrusted cloud, is caught here even though the auditor is blind to
//!   it).
//! * **No lost writes** — every accepted non-read-only request must appear
//!   in some honest replica's execution stream.
//! * **Per-key linearizability** for the key-value and counter workloads,
//!   via a bounded Wing–Gong-style search over each key's accepted
//!   operation history.
//! * **Log invariants** — append offsets are unique, real-time monotone and
//!   dense; consumer reads agree with the append that claimed the offset.
//! * **Counter convergence** — grow-only totals never exceed the sum of
//!   accepted increments and never undershoot the increments that finished
//!   before the read began.
//!
//! The checkers consume only the observation log (accepted histories are
//! self-contained: `ClientAccept` carries the transaction and agreed
//! result) plus the scenario's request table for phantom resolution. They
//! read the log's compact rows and borrow the accepted transactions and
//! results from it. They are deliberately conservative: whenever a
//! condition cannot be decided soundly — unresolved phantom writes, search
//! bounds exceeded, snapshot gaps in a replay, a rollback below a stable
//! checkpoint — the affected check degrades to a weaker one instead of
//! reporting a false alarm.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::num::NonZeroU32;

use bft_state::StateMachine;
use bft_types::{ClientId, Key, Op, Request, RequestId, SeqNum, Transaction, Value};

use crate::dense::DenseMap;
use crate::event::{NodeId, PackedNode};
use crate::obs::{Accept, ObservationLog, RowKind};
use crate::time::SimTime;

/// How the protocol under check executes transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionSemantics {
    /// A totally ordered replicated state machine emitting `Execute`
    /// observations (all registry protocols except Q/U).
    Replicated,
    /// Per-object versioned quorum storage (Q/U): no global order, no
    /// `Execute` stream, read-modify-writes collapse to blind writes.
    /// Replay, membership and density checks do not apply; per-object
    /// version monotonicity and blind-register linearizability do.
    VersionedObjects,
}

/// One semantic violation, named by the check that found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticViolation {
    /// Which checker fired (e.g. `"lost-write"`, `"log-offset-duplicate"`).
    pub check: &'static str,
    /// Human-readable description of the defect.
    pub detail: String,
}

impl std::fmt::Display for SemanticViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

/// Checker inputs beyond the observation log.
#[derive(Debug, Clone, Default)]
pub struct SemanticConfig {
    /// Execution semantics of the protocol under check.
    pub semantics: Option<ExecutionSemantics>,
    /// Every request the scenario's clients may send (phantom resolution
    /// and replay), sorted by id with no id twice ([`Self::replicated`]
    /// makes it so). Leave empty when request ids are not reproducible
    /// (e.g. Q/U's retry-bumped timestamps); phantom-dependent checks then
    /// degrade.
    pub txns: Vec<(RequestId, Transaction)>,
    /// Nodes excluded from honest-replica checks (campaign suspects).
    pub faulty: Vec<NodeId>,
}

impl SemanticConfig {
    /// Config for a replicated-state-machine protocol; of two entries for
    /// one request id the first is kept.
    pub fn replicated(txns: impl IntoIterator<Item = (RequestId, Transaction)>) -> Self {
        let mut txns: Vec<(RequestId, Transaction)> = txns.into_iter().collect();
        if !txns.is_sorted_by(|a, b| a.0 < b.0) {
            txns.sort_by_key(|(id, _)| *id);
            txns.dedup_by_key(|(id, _)| *id);
        }
        SemanticConfig {
            semantics: Some(ExecutionSemantics::Replicated),
            txns,
            faulty: Vec::new(),
        }
    }

    /// Config for versioned-object (Q/U-style) semantics.
    pub fn versioned_objects() -> Self {
        SemanticConfig {
            semantics: Some(ExecutionSemantics::VersionedObjects),
            txns: Vec::new(),
            faulty: Vec::new(),
        }
    }

    /// The transaction of request `id`, if the table has it.
    fn txn(&self, id: &RequestId) -> Option<&Transaction> {
        let i = self.txns.binary_search_by_key(id, |(id, _)| *id).ok()?;
        Some(&self.txns[i].1)
    }

    /// Builder-style: mark nodes as faulty/suspect.
    pub fn with_faulty(mut self, faulty: Vec<NodeId>) -> Self {
        self.faulty = faulty;
        self
    }
}

/// Which application family a key's operations belong to (the composed app
/// keeps the three namespaces disjoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Kv,
    Log,
    Counter,
}

fn family_of(op: &Op) -> Option<Family> {
    match op {
        Op::Get(_) | Op::Put(_, _) | Op::Add(_, _) | Op::Delete(_) => Some(Family::Kv),
        Op::Append(_, _) | Op::ReadAt(_, _) => Some(Family::Log),
        Op::GAdd(_, _) | Op::GRead(_) => Some(Family::Counter),
        Op::Work(_) => None,
    }
}

fn key_of(op: &Op) -> Option<Key> {
    op.read_key().or_else(|| op.write_key())
}

/// The recorded result of one accepted single-op transaction. `Unknown`
/// when the agreed result's arity does not cover the op (some accept paths
/// cannot recover the result); value checks are skipped, ordering and
/// membership checks still apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResVal {
    Val(Option<Value>),
    Unknown,
}

/// One accepted operation in a per-key history.
#[derive(Debug, Clone)]
struct HistOp {
    id: RequestId,
    op: Op,
    res: ResVal,
    invoked: SimTime,
    completed: SimTime,
}

/// One accepted request (any arity): its payload in the log, and when the
/// client accepted it.
#[derive(Debug, Clone, Copy)]
struct Accepted<'a> {
    accept: &'a Accept,
    completed: SimTime,
}

/// Does the op contribute a slot to `TxnResult::reads`?
fn produces_read(op: &Op) -> bool {
    !matches!(op, Op::Put(_, _) | Op::Delete(_) | Op::Work(_))
}

/// The one data op of a transaction that has exactly one.
fn single_data_op(a: &Accept) -> Option<&Op> {
    let mut data_ops = a.txn.ops.iter().filter(|op| family_of(op).is_some());
    match (data_ops.next(), data_ops.next()) {
        (Some(op), None) => Some(op),
        _ => None,
    }
}

/// The per-key history entry of a single-op accepted transaction.
fn hist_op(accepted: Accepted) -> HistOp {
    let a = accepted.accept;
    let op = single_data_op(a).expect("a single-op transaction").clone();
    let read_slots = a.txn.ops.iter().filter(|op| produces_read(op)).count();
    let res = if produces_read(&op) && a.result.reads.len() == read_slots {
        ResVal::Val(a.result.reads[0])
    } else {
        ResVal::Unknown
    };
    HistOp {
        id: a.request,
        op,
        res,
        invoked: a.sent_at,
        completed: accepted.completed,
    }
}

/// Run every applicable semantic checker over a finished run's log.
pub fn check_semantics(log: &ObservationLog, cfg: &SemanticConfig) -> Vec<SemanticViolation> {
    let semantics = cfg.semantics.unwrap_or(ExecutionSemantics::Replicated);
    let mut out = Vec::new();

    // -- gather accepted requests (first accept wins per id) and the
    // honest replicas the log shows ---------------------------------------
    let faulty: Vec<PackedNode> = cfg.faulty.iter().map(|n| PackedNode::pack(*n)).collect();
    let mut accepted: Vec<Accepted> = Vec::with_capacity(log.entries.accept_count());
    let mut index_of = AcceptIndex::default();
    let mut replicas: Vec<PackedNode> = Vec::new();
    let mut last = None;
    for row in log.entries.rows() {
        if let RowKind::ClientAccept(index) = row.kind {
            let accept = log.entries.accept(index);
            if index_of.get(&accept.request).is_none() {
                index_of.set(&accept.request, accepted.len());
                accepted.push(Accepted {
                    accept,
                    completed: row.at,
                });
            }
        }
        if last != Some(row.node) {
            last = Some(row.node);
            if row.node.unpack().is_replica() && !faulty.contains(&row.node) {
                if let Err(i) = replicas.binary_search(&row.node) {
                    replicas.insert(i, row.node);
                }
            }
        }
    }

    // -- phantom writes: potential effects of requests never accepted -----
    // (sent-but-lost and never-sent are indistinguishable from the log, so
    // both count; checks that need exact knowledge skip affected keys)
    let mut phantom_writes: BTreeSet<(Family, Key)> = BTreeSet::new();
    let mut phantoms_unknown = cfg.txns.is_empty() && !accepted.is_empty();
    for (id, txn) in &cfg.txns {
        if index_of.get(id).is_none() {
            for op in &txn.ops {
                if let (Some(fam), Some(k)) = (family_of(op), op.write_key()) {
                    phantom_writes.insert((fam, k));
                }
            }
        }
    }
    // accepted requests outside the table also make phantom knowledge moot
    let outside = |a: &Accepted| cfg.txn(&a.accept.request).is_none();
    if !cfg.txns.is_empty() && accepted.iter().any(outside) {
        phantoms_unknown = true;
    }
    let has_phantoms =
        |fam: Family, k: Key| -> bool { phantoms_unknown || phantom_writes.contains(&(fam, k)) };

    // -- replicated-only checks: replay faithfulness + no lost writes -----
    if semantics == ExecutionSemantics::Replicated {
        replay_and_membership(log, cfg, &accepted, &index_of, &replicas, &mut out);
    }

    // -- per-key histories from single-op accepted transactions -----------
    // (key, accept order) of every single-op transaction, sorted: each key's
    // history is one run, built only while it is checked
    let mut single: Vec<((Family, Key), usize)> = Vec::new();
    let mut multi_op_keys: BTreeSet<(Family, Key)> = BTreeSet::new();
    for (i, a) in accepted.iter().enumerate() {
        if let Some(op) = single_data_op(a.accept) {
            single.push(((family_of(op).unwrap(), key_of(op).unwrap()), i));
        } else {
            // multi-op transactions are covered by replay, not by the
            // per-key search; exclude their keys from the latter
            for op in &a.accept.txn.ops {
                if let (Some(fam), Some(k)) = (family_of(op), key_of(op)) {
                    multi_op_keys.insert((fam, k));
                }
            }
        }
    }
    single.sort_unstable();

    let mut ops = Vec::new();
    for history in single.chunk_by(|a, b| a.0 == b.0) {
        let (fam, key) = history[0].0;
        if multi_op_keys.contains(&(fam, key)) {
            continue;
        }
        ops.clear();
        ops.extend(history.iter().map(|&(_, i)| hist_op(accepted[i])));
        match fam {
            Family::Kv | Family::Counter => {
                // skip the search when unaccepted writes may have executed
                if !has_phantoms(fam, key) || semantics == ExecutionSemantics::VersionedObjects {
                    check_linearizable(fam, key, &ops, semantics, &mut out);
                }
                if fam == Family::Counter {
                    check_counter(key, &ops, semantics, has_phantoms(fam, key), &mut out);
                }
            }
            Family::Log => {
                check_log(key, &ops, semantics, has_phantoms(fam, key), &mut out);
            }
        }
    }

    out
}

// ---------------------------------------------------------------------------
// replay + membership
// ---------------------------------------------------------------------------

fn replay_and_membership(
    log: &ObservationLog,
    cfg: &SemanticConfig,
    accepted: &[Accepted],
    index_of: &AcceptIndex,
    replicas: &[PackedNode],
    out: &mut Vec<SemanticViolation>,
) {
    // which accepted requests any honest replica ever executed (rollbacks
    // included: for membership we only need "took effect somewhere at
    // some point"), found by the replay's scans
    let mut executed = vec![false; accepted.len()];
    // the replay's violations, reported after the lost writes
    let mut replayed = Vec::new();

    // replay each honest replica's execution stream through a fresh state
    // machine; a replica whose stream has a gap (snapshot catch-up), an
    // unknown request or a rollback below its own stable checkpoint
    // degrades to membership-only above, and without the request table
    // every replica is membership-only
    for &node in replicas {
        let replica = node.unpack();
        let mut sm = StateMachine::new();
        let mut degraded = cfg.txns.is_empty();
        let mut rolled_back = false;
        // the replay's undo records end at the replica's stable checkpoints:
        // everything at or below `collected` is gone
        let mut collected: Option<SeqNum> = None;
        // accepted writes whose latest replayed result disagrees with the
        // accepted one, in accept order
        let mut mismatched = BTreeMap::new();
        for kind in log.entries.rows_of(node) {
            match kind {
                RowKind::Execute {
                    seq,
                    request,
                    state_digest,
                } => {
                    let accept = index_of.get(&request);
                    if let Some(i) = accept {
                        executed[i] = true;
                    }
                    if degraded {
                        continue;
                    }
                    let Some(txn) = cfg.txn(&request) else {
                        degraded = true;
                        continue;
                    };
                    if seq != sm.last_executed().next() {
                        degraded = true; // snapshot/recovery gap
                        continue;
                    }
                    let req = Request {
                        id: request,
                        txn: txn.clone(),
                    };
                    let (result, digest) = sm.execute(seq, &req);
                    if digest != log.entries.digest(state_digest) {
                        replayed.push(SemanticViolation {
                            check: "replay-digest",
                            detail: format!(
                                "{replica:?} seq {seq} digest diverges from faithful replay \
                                 of the observed execution stream"
                            ),
                        });
                        degraded = true;
                    }
                    let Some(i) = accept else {
                        continue;
                    };
                    let a = accepted[i].accept;
                    let differs = a.result.reads.len() == result.reads.len() && a.result != result;
                    if differs && !a.txn.is_read_only() {
                        mismatched.insert(i, result);
                    } else {
                        mismatched.remove(&i);
                    }
                }
                RowKind::Rollback { from_seq } => {
                    rolled_back = true;
                    degraded |= collected.is_some_and(|floor| from_seq <= floor);
                    if !degraded {
                        sm.rollback_to(from_seq);
                    }
                }
                RowKind::StableCheckpoint { seq, .. } if !degraded => {
                    let floor = seq.min(sm.last_executed());
                    if floor > SeqNum(0) {
                        sm.truncate_below(floor);
                        collected = collected.max(Some(floor));
                    }
                }
                _ => {}
            }
        }
        // accepted results must match the faithful execution (only safe to
        // assert on replicas that never rolled back: a speculative result
        // may legitimately be superseded on re-execution)
        if degraded || rolled_back {
            continue;
        }
        for (i, replayed_result) in mismatched {
            let a = accepted[i].accept;
            replayed.push(SemanticViolation {
                check: "result-mismatch",
                detail: format!(
                    "accepted result for {:?} disagrees with replay on {replica:?} \
                     ({:?} vs {:?})",
                    a.request, a.result.reads, replayed_result.reads
                ),
            });
        }
    }

    for (a, executed) in accepted.iter().zip(executed) {
        if a.accept.txn.is_read_only() {
            continue; // served from current state, legitimately unordered
        }
        if !executed {
            out.push(SemanticViolation {
                check: "lost-write",
                detail: format!(
                    "accepted write {:?} never executed on any honest replica",
                    a.accept.request
                ),
            });
        }
    }
    out.append(&mut replayed);
}

/// Indices into the accepted list by request: one vector per client,
/// indexed by the request's timestamp, of index + 1.
#[derive(Debug, Default)]
struct AcceptIndex {
    /// Sorted by client.
    clients: Vec<(ClientId, DenseMap<NonZeroU32>)>,
}

impl AcceptIndex {
    fn get(&self, request: &RequestId) -> Option<usize> {
        let i = self
            .clients
            .binary_search_by_key(&request.client, |(client, _)| *client)
            .ok()?;
        Some(self.clients[i].1.get(request.timestamp)?.get() as usize - 1)
    }

    fn set(&mut self, request: &RequestId, index: usize) {
        let index = u32::try_from(index + 1)
            .ok()
            .and_then(NonZeroU32::new)
            .expect("< 2^32 - 1 accepts");
        let i = match self
            .clients
            .binary_search_by_key(&request.client, |(client, _)| *client)
        {
            Ok(i) => i,
            Err(i) => {
                self.clients
                    .insert(i, (request.client, DenseMap::default()));
                i
            }
        };
        self.clients[i].1.set(request.timestamp, index);
    }
}

// ---------------------------------------------------------------------------
// bounded Wing–Gong linearizability
// ---------------------------------------------------------------------------

/// Cap on per-key history length (bitmask-encoded search set).
const MAX_OPS: usize = 64;
/// Cap on explored (mask, state) pairs before declaring the search
/// inconclusive (inconclusive = pass; soundness over completeness).
const MAX_STATES: usize = 200_000;

/// Apply `op` to the model state; returns the new state and the result the
/// model predicts, or `None` when the op family does not fit the model.
fn model_step(
    state: Option<Value>,
    op: &Op,
    semantics: ExecutionSemantics,
) -> Option<(Option<Value>, Option<Option<Value>>)> {
    use ExecutionSemantics::*;
    Some(match (op, semantics) {
        (Op::Get(_), _) | (Op::GRead(_), VersionedObjects) => (state, Some(state)),
        // grow-only reads see 0, not absent, before the first increment
        (Op::GRead(_), Replicated) => (state, Some(Some(state.unwrap_or(0)))),
        (Op::Put(_, v), _) => (Some(*v), None),
        (Op::Delete(_), _) => (None, None),
        (Op::Add(_, v), Replicated) => {
            let new = state.unwrap_or(0).wrapping_add(*v);
            (Some(new), Some(Some(new)))
        }
        (Op::GAdd(_, d), Replicated) => {
            let new = state.unwrap_or(0).wrapping_add(*d as Value);
            (Some(new), Some(Some(new)))
        }
        // versioned objects: read-modify-writes are blind writes echoing
        // the written value
        (Op::Add(_, v), VersionedObjects) => (Some(*v), Some(Some(*v))),
        (Op::GAdd(_, d), VersionedObjects) => (Some(*d as Value), Some(Some(*d as Value))),
        _ => return None,
    })
}

fn check_linearizable(
    fam: Family,
    key: Key,
    ops: &[HistOp],
    semantics: ExecutionSemantics,
    out: &mut Vec<SemanticViolation>,
) {
    if ops.is_empty() || ops.len() > MAX_OPS {
        return; // inconclusive beyond the bound
    }
    // Wing–Gong search: repeatedly linearize some minimal op (one not
    // preceded in real time by another still-pending op) whose predicted
    // result matches the recorded one; memoize on (done-mask, state)
    let full: u64 = if ops.len() == 64 {
        u64::MAX
    } else {
        (1u64 << ops.len()) - 1
    };
    let mut visited: HashSet<(u64, Option<Value>)> = HashSet::new();
    let mut stack: Vec<(u64, Option<Value>)> = vec![(0, None)];
    while let Some((mask, state)) = stack.pop() {
        if mask == full {
            return; // a valid linearization exists
        }
        if !visited.insert((mask, state)) {
            continue;
        }
        if visited.len() > MAX_STATES {
            return; // inconclusive: bound exceeded, do not report
        }
        // earliest completion among pending ops bounds who may go next
        let mut min_completion = SimTime(u64::MAX);
        for (i, op) in ops.iter().enumerate() {
            if mask & (1 << i) == 0 {
                min_completion = min_completion.min(op.completed);
            }
        }
        for (i, h) in ops.iter().enumerate() {
            if mask & (1 << i) != 0 || h.invoked > min_completion {
                continue;
            }
            let Some((next_state, predicted)) = model_step(state, &h.op, semantics) else {
                continue;
            };
            let consistent = match (h.res, predicted) {
                (ResVal::Unknown, _) | (_, None) => true,
                (ResVal::Val(got), Some(want)) => got == want,
            };
            if consistent {
                stack.push((mask | (1 << i), next_state));
            }
        }
    }
    out.push(SemanticViolation {
        check: "linearizability",
        detail: format!(
            "{fam:?} key {key}: no linearization of the {} accepted ops explains the \
             recorded results",
            ops.len()
        ),
    });
}

// ---------------------------------------------------------------------------
// log invariants
// ---------------------------------------------------------------------------

fn check_log(
    key: Key,
    ops: &[HistOp],
    semantics: ExecutionSemantics,
    phantoms: bool,
    out: &mut Vec<SemanticViolation>,
) {
    // appends with a recovered offset
    let mut appends: Vec<(&HistOp, u64, Value)> = Vec::new();
    for h in ops {
        if let Op::Append(_, v) = h.op {
            if let ResVal::Val(Some(off)) = h.res {
                if off < 0 {
                    out.push(SemanticViolation {
                        check: "log-offset-invalid",
                        detail: format!("log {key}: append {:?} reported offset {off}", h.id),
                    });
                    continue;
                }
                appends.push((h, off as u64, v));
            } else if let ResVal::Val(None) = h.res {
                out.push(SemanticViolation {
                    check: "log-offset-invalid",
                    detail: format!("log {key}: append {:?} reported no offset", h.id),
                });
            }
        }
    }

    // uniqueness: one record per offset (holds under versioned objects too,
    // by quorum intersection over strictly increasing versions)
    let mut by_offset: BTreeMap<u64, (&HistOp, Value)> = BTreeMap::new();
    for (h, off, v) in &appends {
        if let Some((prev, _)) = by_offset.get(off) {
            out.push(SemanticViolation {
                check: "log-offset-duplicate",
                detail: format!(
                    "log {key}: appends {:?} and {:?} both claim offset {off}",
                    prev.id, h.id
                ),
            });
        } else {
            by_offset.insert(*off, (h, *v));
        }
    }

    // real-time monotonicity: a later append gets a later offset
    for (a, off_a, _) in &appends {
        for (b, off_b, _) in &appends {
            if a.completed < b.invoked && off_a >= off_b {
                out.push(SemanticViolation {
                    check: "log-offset-regression",
                    detail: format!(
                        "log {key}: append {:?} (offset {off_a}) completed before {:?} \
                         (offset {off_b}) began",
                        a.id, b.id
                    ),
                });
            }
        }
    }

    // density: with the full append set known, offsets are exactly 0..n-1
    if semantics == ExecutionSemantics::Replicated && !phantoms && !appends.is_empty() {
        let n = appends.len() as u64;
        if by_offset.keys().last() != Some(&(n - 1)) || by_offset.len() as u64 != n {
            out.push(SemanticViolation {
                check: "log-offset-gap",
                detail: format!(
                    "log {key}: {n} accepted appends but offsets are not dense 0..{}",
                    n - 1
                ),
            });
        }
    }

    // consumer reads
    for h in ops {
        let Op::ReadAt(_, off) = h.op else { continue };
        let ResVal::Val(got) = h.res else { continue };
        match got {
            Some(v) => {
                if let Some((_, rec)) = by_offset.get(&off) {
                    if *rec != v {
                        out.push(SemanticViolation {
                            check: "log-read-mismatch",
                            detail: format!(
                                "log {key}: read at offset {off} returned {v}, but the \
                                 accepted append there wrote {rec}"
                            ),
                        });
                    }
                } else if semantics == ExecutionSemantics::Replicated && !phantoms {
                    out.push(SemanticViolation {
                        check: "log-read-phantom-record",
                        detail: format!(
                            "log {key}: read at offset {off} returned {v}, but no accepted \
                             append claimed that offset"
                        ),
                    });
                }
            }
            None => {
                // a read that began after an append at that offset finished
                // must see it (single-version object stores excepted)
                if semantics == ExecutionSemantics::Replicated {
                    if let Some((a, _)) = by_offset.get(&off) {
                        if a.completed < h.invoked {
                            out.push(SemanticViolation {
                                check: "log-read-lost",
                                detail: format!(
                                    "log {key}: read at offset {off} found nothing although \
                                     append {:?} completed before it began",
                                    a.id
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// counter convergence
// ---------------------------------------------------------------------------

fn check_counter(
    key: Key,
    ops: &[HistOp],
    semantics: ExecutionSemantics,
    phantoms: bool,
    out: &mut Vec<SemanticViolation>,
) {
    if semantics == ExecutionSemantics::VersionedObjects {
        // blind-write model: an increment's result echoes its delta
        for h in ops {
            if let (Op::GAdd(_, d), ResVal::Val(got)) = (&h.op, h.res) {
                if got != Some(*d as Value) {
                    out.push(SemanticViolation {
                        check: "counter-echo",
                        detail: format!("counter {key}: blind increment of {d} answered {got:?}",),
                    });
                }
            }
        }
        return;
    }
    if phantoms {
        return; // bounds below need the exact increment set
    }
    let total: i64 = ops
        .iter()
        .filter_map(|h| {
            if let Op::GAdd(_, d) = h.op {
                Some(d as i64)
            } else {
                None
            }
        })
        .sum();
    for h in ops {
        let value = match (&h.op, h.res) {
            (Op::GRead(_), ResVal::Val(Some(v))) => v,
            (Op::GAdd(_, _), ResVal::Val(Some(v))) => v,
            _ => continue,
        };
        // convergence upper bound: nothing beyond the accepted increments
        if value > total {
            out.push(SemanticViolation {
                check: "counter-overrun",
                detail: format!(
                    "counter {key}: observed total {value} exceeds the {total} accepted"
                ),
            });
        }
        // staleness lower bound: increments that finished before this op
        // began are visible
        let settled: i64 = ops
            .iter()
            .filter_map(|o| match o.op {
                Op::GAdd(_, d) if o.completed < h.invoked => Some(d as i64),
                _ => None,
            })
            .sum();
        let floor = settled
            + if let Op::GAdd(_, d) = h.op {
                d as i64
            } else {
                0
            };
        if value < floor {
            out.push(SemanticViolation {
                check: "counter-underrun",
                detail: format!(
                    "counter {key}: observed total {value} below the {floor} already settled"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::ClientId;

    fn hop(ts: u64, op: Op, res: Option<Value>, invoked: u64, completed: u64) -> HistOp {
        HistOp {
            id: RequestId {
                client: ClientId(1),
                timestamp: ts,
            },
            op,
            res: ResVal::Val(res),
            invoked: SimTime(invoked),
            completed: SimTime(completed),
        }
    }

    #[test]
    fn sequential_register_history_linearizes() {
        let ops = vec![
            hop(1, Op::Add(7, 5), Some(5), 0, 10),
            hop(2, Op::Get(7), Some(5), 20, 30),
            hop(3, Op::Add(7, 3), Some(8), 40, 50),
        ];
        let mut out = Vec::new();
        check_linearizable(
            Family::Kv,
            7,
            &ops,
            ExecutionSemantics::Replicated,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn stale_read_after_write_is_flagged() {
        let ops = vec![
            hop(1, Op::Add(7, 5), Some(5), 0, 10),
            // read begins well after the write completed but misses it
            hop(2, Op::Get(7), None, 20, 30),
        ];
        let mut out = Vec::new();
        check_linearizable(
            Family::Kv,
            7,
            &ops,
            ExecutionSemantics::Replicated,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].check, "linearizability");
    }

    #[test]
    fn concurrent_reads_may_diverge() {
        // two reads overlapping a write may land on either side of it
        let ops = vec![
            hop(1, Op::Add(7, 5), Some(5), 0, 100),
            hop(2, Op::Get(7), None, 10, 20),
            hop(3, Op::Get(7), Some(5), 30, 40),
        ];
        let mut out = Vec::new();
        check_linearizable(
            Family::Kv,
            7,
            &ops,
            ExecutionSemantics::Replicated,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn log_duplicate_and_regression_flagged() {
        let ops = vec![
            hop(1, Op::Append(3, 100), Some(0), 0, 10),
            hop(2, Op::Append(3, 200), Some(0), 20, 30),
        ];
        let mut out = Vec::new();
        check_log(3, &ops, ExecutionSemantics::Replicated, false, &mut out);
        let checks: Vec<&str> = out.iter().map(|v| v.check).collect();
        assert!(checks.contains(&"log-offset-duplicate"), "{checks:?}");
        assert!(checks.contains(&"log-offset-regression"), "{checks:?}");
        assert!(checks.contains(&"log-offset-gap"), "{checks:?}");
    }

    #[test]
    fn clean_log_history_passes() {
        let ops = vec![
            hop(1, Op::Append(3, 100), Some(0), 0, 10),
            hop(2, Op::Append(3, 200), Some(1), 20, 30),
            hop(3, Op::ReadAt(3, 0), Some(100), 40, 50),
            hop(4, Op::ReadAt(3, 5), None, 40, 50),
        ];
        let mut out = Vec::new();
        check_log(3, &ops, ExecutionSemantics::Replicated, false, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn lost_append_read_is_flagged() {
        let ops = vec![
            hop(1, Op::Append(3, 100), Some(0), 0, 10),
            hop(2, Op::ReadAt(3, 0), None, 40, 50),
        ];
        let mut out = Vec::new();
        check_log(3, &ops, ExecutionSemantics::Replicated, false, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].check, "log-read-lost");
    }

    /// Replica 0's execution stream: `(seq, put value)` executes
    /// `Put(1, value)` as request `value` with the digest a faithful replay
    /// gives, `(seq, 0)` is a stable checkpoint at `seq`, and a negative
    /// value rolls back from `seq`. The last execution claims a wrong digest.
    fn replay(stream: &[(u64, i64)]) -> Vec<SemanticViolation> {
        let node = NodeId::replica(0);
        let id = |v: i64| RequestId {
            client: ClientId(1),
            timestamp: v as u64,
        };
        let txn = |v: i64| Transaction::single(Op::Put(1, v));
        let mut log = ObservationLog::default();
        let mut sm = StateMachine::new();
        let mut txns = BTreeMap::new();
        for (i, &(seq, v)) in stream.iter().enumerate() {
            let (at, seq) = (SimTime(i as u64), bft_types::SeqNum(seq));
            let obs = match v {
                0 => crate::Observation::StableCheckpoint {
                    seq,
                    state_digest: sm.digest(),
                },
                v if v < 0 => {
                    sm.rollback_to(seq);
                    crate::Observation::Rollback { from_seq: seq }
                }
                v => {
                    txns.insert(id(v), txn(v));
                    let request = Request {
                        id: id(v),
                        txn: txn(v),
                    };
                    let (_, mut state_digest) = sm.execute(seq, &request);
                    if i + 1 == stream.len() {
                        state_digest = bft_types::Digest::ZERO;
                    }
                    crate::Observation::Execute {
                        seq,
                        request: id(v),
                        state_digest,
                    }
                }
            };
            log.push(at, node, obs);
        }
        check_semantics(&log, &SemanticConfig::replicated(txns))
    }

    #[test]
    fn the_replay_runs_past_stable_checkpoints_and_rollbacks_above_them() {
        let v = replay(&[(1, 10), (1, 0), (2, 20), (2, -1), (2, 21), (3, 30)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].check, "replay-digest");
    }

    #[test]
    fn a_rollback_below_a_stable_checkpoint_degrades_the_replay() {
        let v = replay(&[(1, 10), (2, 20), (2, 0), (2, -1), (2, 21), (3, 30)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn counter_bounds() {
        let ops = vec![
            hop(1, Op::GAdd(2, 5), Some(5), 0, 10),
            hop(2, Op::GAdd(2, 3), Some(8), 20, 30),
            hop(3, Op::GRead(2), Some(8), 40, 50),
        ];
        let mut out = Vec::new();
        check_counter(2, &ops, ExecutionSemantics::Replicated, false, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let bad = vec![
            hop(1, Op::GAdd(2, 5), Some(5), 0, 10),
            hop(2, Op::GRead(2), Some(99), 40, 50),
        ];
        let mut out = Vec::new();
        check_counter(2, &bad, ExecutionSemantics::Replicated, false, &mut out);
        assert_eq!(out[0].check, "counter-overrun");

        let stale = vec![
            hop(1, Op::GAdd(2, 5), Some(5), 0, 10),
            hop(2, Op::GRead(2), Some(0), 40, 50),
        ];
        let mut out = Vec::new();
        check_counter(2, &stale, ExecutionSemantics::Replicated, false, &mut out);
        assert_eq!(out[0].check, "counter-underrun");
    }
}
