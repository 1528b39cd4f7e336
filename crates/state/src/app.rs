//! Pluggable application state machines ("apps") behind the replication
//! layer.
//!
//! The ordering protocols decide *which* request executes at each sequence
//! number; an [`App`] decides what a request's operations *mean*. The
//! original key-value store ([`KvStore`]) is one implementation; this module
//! adds an append-only log ([`AppendLog`]) and a grow-only counter
//! ([`GCounter`]), and composes all three behind [`ComposedApp`] so a single
//! replicated [`crate::StateMachine`] serves every workload family with zero
//! per-protocol code.
//!
//! Every app maintains an incremental XOR set-hash digest in the same style
//! as [`KvStore`]: O(1) updates per write, order-independent, and
//! domain-separated per app. When only the key-value store has been touched
//! the composed digest equals the plain `KvStore` digest, so existing
//! workloads produce byte-identical state digests.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bft_crypto::Hasher;
use bft_types::{Digest, Key, Op, Value};

use crate::kv::{set_digest, xor_into, KvStore};

/// One reversible effect recorded while applying an operation, replayed in
/// reverse by the rollback path of speculative execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UndoOp {
    /// Restore a key-value entry to its prior value (`None` = absent).
    KvRestore(Key, Option<Value>),
    /// Remove the most recent record of the named log.
    LogPop(Key),
    /// Restore a counter to its prior total (`None` = never incremented).
    CounterRestore(Key, Option<u64>),
}

/// An application state machine: applies operations it recognizes, records
/// undo information, and maintains an incremental state digest.
pub trait App {
    /// Short app name (for diagnostics).
    fn name(&self) -> &'static str;

    /// Does this app interpret the operation?
    fn handles(&self, op: &Op) -> bool;

    /// Apply one operation. Read results are pushed onto `reads` in
    /// operation order; reversible effects are pushed onto `undo`.
    fn apply(&mut self, op: &Op, reads: &mut Vec<Option<Value>>, undo: &mut Vec<UndoOp>);

    /// Reverse one previously recorded effect.
    fn undo(&mut self, op: &UndoOp);

    /// Serve a read-only operation against current state without mutating
    /// anything (the optimized read path); `None` if the operation is not a
    /// read this app serves.
    fn read(&self, op: &Op) -> Option<Option<Value>>;

    /// Current state digest.
    fn digest(&self) -> Digest;

    /// Has this app never been written to?
    fn is_empty(&self) -> bool;
}

impl App for KvStore {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn handles(&self, op: &Op) -> bool {
        matches!(
            op,
            Op::Get(_) | Op::Put(_, _) | Op::Add(_, _) | Op::Delete(_)
        )
    }

    fn apply(&mut self, op: &Op, reads: &mut Vec<Option<Value>>, undo: &mut Vec<UndoOp>) {
        match *op {
            Op::Get(k) => reads.push(self.get(k)),
            Op::Put(k, v) => {
                undo.push(UndoOp::KvRestore(k, self.get(k)));
                self.put(k, v);
            }
            Op::Add(k, v) => {
                let old = self.get(k);
                undo.push(UndoOp::KvRestore(k, old));
                let new = old.unwrap_or(0).wrapping_add(v);
                self.put(k, new);
                reads.push(Some(new));
            }
            Op::Delete(k) => {
                undo.push(UndoOp::KvRestore(k, self.get(k)));
                self.delete(k);
            }
            _ => {}
        }
    }

    fn undo(&mut self, op: &UndoOp) {
        if let UndoOp::KvRestore(k, prior) = op {
            match prior {
                Some(v) => {
                    self.put(*k, *v);
                }
                None => {
                    self.delete(*k);
                }
            }
        }
    }

    fn read(&self, op: &Op) -> Option<Option<Value>> {
        match *op {
            Op::Get(k) => Some(self.get(k)),
            _ => None,
        }
    }

    fn digest(&self) -> Digest {
        KvStore::digest(self)
    }

    fn is_empty(&self) -> bool {
        KvStore::is_empty(self)
    }
}

fn log_leaf(log: Key, offset: u64, value: Value) -> [u8; 32] {
    let mut h = Hasher::new();
    h.update(b"log-leaf");
    h.update(&log.to_le_bytes());
    h.update(&offset.to_le_bytes());
    h.update(&value.to_le_bytes());
    h.finalize()
}

/// A set of named append-only logs with an incremental set-hash digest.
///
/// Each `Append` assigns the next offset (0-based, dense); `ReadAt` returns
/// the record at a fixed offset or `None` while the log is still shorter.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppendLog {
    logs: BTreeMap<Key, Vec<Value>>,
    acc: [u8; 32],
    records: u64,
}

impl AppendLog {
    /// An empty log set.
    pub fn new() -> Self {
        AppendLog::default()
    }

    /// Append a record; returns the offset it landed at.
    pub fn append(&mut self, log: Key, value: Value) -> u64 {
        let entries = self.logs.entry(log).or_default();
        let offset = entries.len() as u64;
        entries.push(value);
        xor_into(&mut self.acc, &log_leaf(log, offset, value));
        self.records += 1;
        offset
    }

    /// The record at `offset`, if the log has grown that far.
    pub fn read_at(&self, log: Key, offset: u64) -> Option<Value> {
        self.logs.get(&log)?.get(offset as usize).copied()
    }

    /// Current length of the named log.
    pub fn len_of(&self, log: Key) -> u64 {
        self.logs.get(&log).map_or(0, |l| l.len() as u64)
    }

    /// Total records across all logs.
    pub fn total_records(&self) -> u64 {
        self.records
    }

    fn pop(&mut self, log: Key) {
        if let Some(entries) = self.logs.get_mut(&log) {
            if let Some(value) = entries.pop() {
                let offset = entries.len() as u64;
                xor_into(&mut self.acc, &log_leaf(log, offset, value));
                self.records -= 1;
            }
            if entries.is_empty() {
                self.logs.remove(&log);
            }
        }
    }
}

impl App for AppendLog {
    fn name(&self) -> &'static str {
        "log"
    }

    fn handles(&self, op: &Op) -> bool {
        matches!(op, Op::Append(_, _) | Op::ReadAt(_, _))
    }

    fn apply(&mut self, op: &Op, reads: &mut Vec<Option<Value>>, undo: &mut Vec<UndoOp>) {
        match *op {
            Op::Append(k, v) => {
                let offset = self.append(k, v);
                undo.push(UndoOp::LogPop(k));
                reads.push(Some(offset as i64));
            }
            Op::ReadAt(k, off) => reads.push(self.read_at(k, off)),
            _ => {}
        }
    }

    fn undo(&mut self, op: &UndoOp) {
        if let UndoOp::LogPop(k) = op {
            self.pop(*k);
        }
    }

    fn read(&self, op: &Op) -> Option<Option<Value>> {
        match *op {
            Op::ReadAt(k, off) => Some(self.read_at(k, off)),
            _ => None,
        }
    }

    fn digest(&self) -> Digest {
        set_digest(b"log-state", &self.acc, self.records as usize)
    }

    fn is_empty(&self) -> bool {
        self.logs.is_empty()
    }
}

fn counter_leaf(key: Key, total: u64) -> [u8; 32] {
    let mut h = Hasher::new();
    h.update(b"ctr-leaf");
    h.update(&key.to_le_bytes());
    h.update(&total.to_le_bytes());
    h.finalize()
}

/// Grow-only counters (one per key) with an incremental set-hash digest.
///
/// Increments commute — any order of the same multiset of `GAdd`s converges
/// to the same totals and the same digest (the DC9 conflict-freedom story).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GCounter {
    totals: BTreeMap<Key, u64>,
    acc: [u8; 32],
}

impl GCounter {
    /// An empty counter set.
    pub fn new() -> Self {
        GCounter::default()
    }

    /// Increment a counter; returns the new total.
    pub fn add(&mut self, key: Key, delta: u64) -> u64 {
        let old = self.totals.get(&key).copied();
        if let Some(old_total) = old {
            xor_into(&mut self.acc, &counter_leaf(key, old_total));
        }
        let new = old.unwrap_or(0).wrapping_add(delta);
        self.totals.insert(key, new);
        xor_into(&mut self.acc, &counter_leaf(key, new));
        new
    }

    /// Current total (0 when never incremented).
    pub fn total(&self, key: Key) -> u64 {
        self.totals.get(&key).copied().unwrap_or(0)
    }

    fn restore(&mut self, key: Key, prior: Option<u64>) {
        if let Some(cur) = self.totals.get(&key).copied() {
            xor_into(&mut self.acc, &counter_leaf(key, cur));
        }
        match prior {
            Some(t) => {
                self.totals.insert(key, t);
                xor_into(&mut self.acc, &counter_leaf(key, t));
            }
            None => {
                self.totals.remove(&key);
            }
        }
    }
}

impl App for GCounter {
    fn name(&self) -> &'static str {
        "counter"
    }

    fn handles(&self, op: &Op) -> bool {
        matches!(op, Op::GAdd(_, _) | Op::GRead(_))
    }

    fn apply(&mut self, op: &Op, reads: &mut Vec<Option<Value>>, undo: &mut Vec<UndoOp>) {
        match *op {
            Op::GAdd(k, d) => {
                undo.push(UndoOp::CounterRestore(k, self.totals.get(&k).copied()));
                let new = self.add(k, d);
                reads.push(Some(new as i64));
            }
            Op::GRead(k) => reads.push(Some(self.total(k) as i64)),
            _ => {}
        }
    }

    fn undo(&mut self, op: &UndoOp) {
        if let UndoOp::CounterRestore(k, prior) = op {
            self.restore(*k, *prior);
        }
    }

    fn read(&self, op: &Op) -> Option<Option<Value>> {
        match *op {
            Op::GRead(k) => Some(Some(self.total(k) as i64)),
            _ => None,
        }
    }

    fn digest(&self) -> Digest {
        set_digest(b"ctr-state", &self.acc, self.totals.len())
    }

    fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }
}

/// The composition of all application state machines behind one replicated
/// [`crate::StateMachine`]. Operations route to the app that handles them;
/// `Work` is virtual compute and touches nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComposedApp {
    kv: KvStore,
    log: AppendLog,
    counter: GCounter,
}

impl ComposedApp {
    /// A fresh empty composition.
    pub fn new() -> Self {
        ComposedApp::default()
    }

    /// The key-value component.
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// The append-only log component.
    pub fn log(&self) -> &AppendLog {
        &self.log
    }

    /// The grow-only counter component.
    pub fn counter(&self) -> &GCounter {
        &self.counter
    }

    /// Apply one operation, routing to the app that handles it.
    pub fn apply(&mut self, op: &Op, reads: &mut Vec<Option<Value>>, undo: &mut Vec<UndoOp>) {
        if App::handles(&self.kv, op) {
            self.kv.apply(op, reads, undo);
        } else if self.log.handles(op) {
            self.log.apply(op, reads, undo);
        } else if self.counter.handles(op) {
            self.counter.apply(op, reads, undo);
        }
        // Op::Work: virtual compute only; the ordering layer charges the
        // simulator for it.
    }

    /// Reverse one recorded effect.
    pub fn undo(&mut self, op: &UndoOp) {
        match op {
            UndoOp::KvRestore(_, _) => App::undo(&mut self.kv, op),
            UndoOp::LogPop(_) => self.log.undo(op),
            UndoOp::CounterRestore(_, _) => self.counter.undo(op),
        }
    }

    /// Serve a read-only operation from current state (`None` if `op` is
    /// not a read).
    pub fn read(&self, op: &Op) -> Option<Option<Value>> {
        App::read(&self.kv, op)
            .or_else(|| self.log.read(op))
            .or_else(|| self.counter.read(op))
    }

    /// Composed state digest. While only the key-value store has been
    /// touched this equals the plain [`KvStore`] digest, so pre-existing
    /// workloads keep byte-identical digests.
    pub fn digest(&self) -> Digest {
        if self.log.is_empty() && self.counter.is_empty() {
            return KvStore::digest(&self.kv);
        }
        let mut h = Hasher::new();
        h.update(b"composed-state");
        h.update(&KvStore::digest(&self.kv).0);
        h.update(&App::digest(&self.log).0);
        h.update(&App::digest(&self.counter).0);
        Digest(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_digest_matches_kv_when_only_kv_touched() {
        let mut app = ComposedApp::new();
        let mut kv = KvStore::new();
        let mut reads = Vec::new();
        let mut undo = Vec::new();
        for (k, v) in [(1u64, 10i64), (2, 20), (1, 30)] {
            app.apply(&Op::Put(k, v), &mut reads, &mut undo);
            kv.put(k, v);
        }
        assert_eq!(app.digest(), KvStore::digest(&kv));
    }

    #[test]
    fn log_appends_assign_dense_offsets_and_undo() {
        let mut log = AppendLog::new();
        assert_eq!(log.append(7, 100), 0);
        assert_eq!(log.append(7, 200), 1);
        assert_eq!(log.append(8, 300), 0);
        let before = App::digest(&log);
        assert_eq!(log.read_at(7, 1), Some(200));
        assert_eq!(log.read_at(7, 2), None);
        assert_eq!(log.append(7, 400), 2);
        log.undo(&UndoOp::LogPop(7));
        assert_eq!(App::digest(&log), before);
        assert_eq!(log.len_of(7), 2);
    }

    #[test]
    fn counter_converges_regardless_of_order() {
        let mut a = GCounter::new();
        let mut b = GCounter::new();
        for d in [3u64, 1, 4, 1, 5] {
            a.add(9, d);
        }
        for d in [5u64, 4, 3, 1, 1] {
            b.add(9, d);
        }
        assert_eq!(a.total(9), 14);
        assert_eq!(App::digest(&a), App::digest(&b));
    }

    #[test]
    fn counter_undo_restores_digest() {
        let mut c = GCounter::new();
        c.add(1, 5);
        let before = App::digest(&c);
        let mut reads = Vec::new();
        let mut undo = Vec::new();
        c.apply(&Op::GAdd(1, 7), &mut reads, &mut undo);
        c.apply(&Op::GAdd(2, 1), &mut reads, &mut undo);
        assert_eq!(reads, vec![Some(12), Some(1)]);
        for u in undo.iter().rev() {
            c.undo(u);
        }
        assert_eq!(App::digest(&c), before);
        assert_eq!(c.total(2), 0);
    }

    #[test]
    fn composed_routes_and_reads() {
        let mut app = ComposedApp::new();
        let mut reads = Vec::new();
        let mut undo = Vec::new();
        app.apply(&Op::Put(1, 11), &mut reads, &mut undo);
        app.apply(&Op::Append(1, 22), &mut reads, &mut undo);
        app.apply(&Op::GAdd(1, 33), &mut reads, &mut undo);
        // the three apps keep disjoint namespaces for the same key
        assert_eq!(app.read(&Op::Get(1)), Some(Some(11)));
        assert_eq!(app.read(&Op::ReadAt(1, 0)), Some(Some(22)));
        assert_eq!(app.read(&Op::GRead(1)), Some(Some(33)));
        assert_eq!(app.read(&Op::Work(1)), None);
        // undo everything: back to the empty composed digest
        for u in undo.iter().rev() {
            app.undo(u);
        }
        assert_eq!(app.digest(), ComposedApp::new().digest());
    }
}
