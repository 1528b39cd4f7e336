//! The transaction / request / reply model.
//!
//! Clients submit [`Request`]s wrapping a [`Transaction`] — a list of
//! operations over a key-value store. Replicas order requests via consensus,
//! execute them against the replicated state machine (`bft-state`), and send
//! [`Reply`] messages back. The client accepts a result once it has a
//! protocol-specific number of matching replies (dimension **P6**).

use serde::{Deserialize, Serialize};

use crate::ids::{ClientId, Digest, RequestId, View};

/// Keys are small byte strings; in the synthetic workloads they are derived
/// from a key-space index.
pub type Key = u64;

/// Values stored in the replicated key-value store.
pub type Value = i64;

/// A single operation within a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Read a key (contributes to the read set).
    Get(Key),
    /// Overwrite a key (contributes to the write set).
    Put(Key, Value),
    /// Read-modify-write increment (contributes to both sets). Exists so
    /// workloads can generate genuinely conflicting transactions.
    Add(Key, Value),
    /// Remove a key (write set).
    Delete(Key),
    /// A no-op that burns `amount` units of virtual execution time; used by
    /// workloads that model compute-heavy transactions.
    Work(u32),
    /// Append a record to the append-only log named by the key; the result
    /// reports the offset the record landed at (log workload).
    Append(Key, Value),
    /// Read the record at a fixed offset of the named log; returns `None`
    /// when the log is still shorter than the offset (consumer read).
    ReadAt(Key, u64),
    /// Grow-only counter increment (commutative, conflict-free in the DC9
    /// sense); the result reports the post-increment total.
    GAdd(Key, u64),
    /// Read a grow-only counter's current total (0 when never incremented).
    GRead(Key),
}

impl Op {
    /// The key this operation reads, if any.
    pub fn read_key(&self) -> Option<Key> {
        match self {
            Op::Get(k) | Op::Add(k, _) | Op::ReadAt(k, _) | Op::GRead(k) => Some(*k),
            _ => None,
        }
    }

    /// The key this operation writes, if any.
    pub fn write_key(&self) -> Option<Key> {
        match self {
            Op::Put(k, _) | Op::Add(k, _) | Op::Delete(k) | Op::Append(k, _) | Op::GAdd(k, _) => {
                Some(*k)
            }
            _ => None,
        }
    }
}

/// A transaction: an ordered list of operations executed atomically.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Transaction {
    /// Operations applied in order.
    pub ops: Vec<Op>,
}

impl Transaction {
    /// A transaction with a single operation.
    pub fn single(op: Op) -> Self {
        Transaction { ops: vec![op] }
    }

    /// Read set: keys read by any operation.
    pub fn read_set(&self) -> impl Iterator<Item = Key> + '_ {
        self.ops.iter().filter_map(Op::read_key)
    }

    /// Write set: keys written by any operation.
    pub fn write_set(&self) -> impl Iterator<Item = Key> + '_ {
        self.ops.iter().filter_map(Op::write_key)
    }

    /// Do two transactions conflict? Conflict = one writes a key the other
    /// reads or writes. Conflict-free transactions may be executed in any
    /// relative order (the optimistic assumption `a4` exploited by Q/U-style
    /// protocols, design choice 9).
    pub fn conflicts_with(&self, other: &Transaction) -> bool {
        let my_writes: std::collections::BTreeSet<Key> = self.write_set().collect();
        let other_writes: std::collections::BTreeSet<Key> = other.write_set().collect();
        // write-write conflict
        if my_writes.intersection(&other_writes).next().is_some() {
            return true;
        }
        // read-write conflicts, both directions
        if self.read_set().any(|k| other_writes.contains(&k)) {
            return true;
        }
        if other.read_set().any(|k| my_writes.contains(&k)) {
            return true;
        }
        false
    }

    /// True when the transaction performs no writes (read-only requests can
    /// use the optimized read path in several protocols).
    pub fn is_read_only(&self) -> bool {
        self.ops.iter().all(|op| op.write_key().is_none())
    }
}

/// A signed client request (the client signature itself is attached at the
/// protocol layer through `bft-crypto`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Request {
    /// Unique request identity: client id + client-local timestamp.
    pub id: RequestId,
    /// The transaction to execute.
    pub txn: Transaction,
}

impl Request {
    /// Construct a request.
    pub fn new(client: ClientId, timestamp: u64, txn: Transaction) -> Self {
        Request {
            id: RequestId { client, timestamp },
            txn,
        }
    }
}

/// Result of executing a transaction on the state machine.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnResult {
    /// Values returned by `Get`/`Add` operations, in operation order.
    pub reads: Vec<Option<Value>>,
}

/// Reply from a replica to a client. The client collects matching replies
/// from distinct replicas until its protocol-specific reply quorum is met
/// (`f+1` in PBFT, `2f+1` in PoE, `3f+1` in Zyzzyva's fast path).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reply {
    /// Which request this answers.
    pub request: RequestId,
    /// View in which the request was executed (clients learn the current
    /// leader from this).
    pub view: View,
    /// Execution result.
    pub result: TxnResult,
    /// Digest of the state machine after execution — replies "match" only if
    /// both result and digest agree, which is what makes `f+1` matching
    /// replies a proof of correctness.
    pub state_digest: Digest,
    /// True if the replica executed speculatively (Zyzzyva/PoE); such replies
    /// may later be rolled back.
    pub speculative: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ops: Vec<Op>) -> Transaction {
        Transaction { ops }
    }

    #[test]
    fn read_and_write_sets() {
        let txn = t(vec![
            Op::Get(1),
            Op::Put(2, 10),
            Op::Add(3, 1),
            Op::Delete(4),
            Op::Work(5),
        ]);
        let reads: Vec<_> = txn.read_set().collect();
        let writes: Vec<_> = txn.write_set().collect();
        assert_eq!(reads, vec![1, 3]);
        assert_eq!(writes, vec![2, 3, 4]);
    }

    #[test]
    fn conflict_detection() {
        let a = t(vec![Op::Put(1, 1)]);
        let b = t(vec![Op::Get(1)]);
        let c = t(vec![Op::Get(2)]);
        let d = t(vec![Op::Put(1, 2)]);
        assert!(a.conflicts_with(&b), "write-read");
        assert!(b.conflicts_with(&a), "read-write");
        assert!(a.conflicts_with(&d), "write-write");
        assert!(!a.conflicts_with(&c), "disjoint");
        assert!(!b.conflicts_with(&c), "read-read disjoint");
        let e = t(vec![Op::Get(5)]);
        let f = t(vec![Op::Get(5)]);
        assert!(
            !e.conflicts_with(&f),
            "read-read same key is not a conflict"
        );
    }

    #[test]
    fn read_only_detection() {
        assert!(t(vec![Op::Get(1), Op::Work(2)]).is_read_only());
        assert!(!t(vec![Op::Get(1), Op::Put(1, 1)]).is_read_only());
        assert!(!t(vec![Op::Add(1, 1)]).is_read_only());
    }

    proptest! {
        /// Conflict is symmetric.
        #[test]
        fn conflict_symmetric(ka in 0u64..8, kb in 0u64..8, wa: bool, wb: bool) {
            let a = t(vec![if wa { Op::Put(ka, 0) } else { Op::Get(ka) }]);
            let b = t(vec![if wb { Op::Put(kb, 0) } else { Op::Get(kb) }]);
            prop_assert_eq!(a.conflicts_with(&b), b.conflicts_with(&a));
        }

        /// Two single-op transactions conflict iff they touch the same key
        /// and at least one writes.
        #[test]
        fn conflict_definition(ka in 0u64..4, kb in 0u64..4, wa: bool, wb: bool) {
            let a = t(vec![if wa { Op::Put(ka, 0) } else { Op::Get(ka) }]);
            let b = t(vec![if wb { Op::Put(kb, 0) } else { Op::Get(kb) }]);
            let expected = ka == kb && (wa || wb);
            prop_assert_eq!(a.conflicts_with(&b), expected);
        }
    }
}
