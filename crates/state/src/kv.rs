//! The underlying key-value store.
//!
//! A `BTreeMap` with an incrementally maintained digest: the digest is the
//! XOR of per-entry leaf hashes, which supports O(1) updates on writes while
//! remaining order-independent and collision-resistant for our purposes
//! (each leaf hash is a full SHA-256 of `(key, value)`; XOR-aggregation over
//! distinct leaves is the classic incremental set-hash construction).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use bft_crypto::Hasher;
use bft_types::{Digest, Key, Value};

/// A key-value store with an incrementally maintained set-hash digest.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvStore {
    data: BTreeMap<Key, Value>,
    acc: [u8; 32],
}

fn leaf_hash(key: Key, value: Value) -> [u8; 32] {
    let mut h = Hasher::new();
    h.update(b"kv-leaf");
    h.update(&key.to_le_bytes());
    h.update(&value.to_le_bytes());
    h.finalize()
}

/// Fold a leaf hash into (or, applied a second time, out of) a set-hash
/// accumulator.
pub fn xor_into(acc: &mut [u8; 32], leaf: &[u8; 32]) {
    for (a, b) in acc.iter_mut().zip(leaf) {
        *a ^= *b;
    }
}

/// The digest of a set of `len` entries whose leaf hashes XOR to `acc`.
/// Domain-separated so an empty set does not collide with a zero digest
/// from elsewhere.
pub fn set_digest(domain: &[u8], acc: &[u8; 32], len: usize) -> Digest {
    let mut h = Hasher::new();
    h.update(domain);
    h.update(acc);
    h.update(&(len as u64).to_le_bytes());
    Digest(h.finalize())
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Read a key.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.data.get(&key).copied()
    }

    /// Write a key; returns the previous value.
    pub fn put(&mut self, key: Key, value: Value) -> Option<Value> {
        let old = self.data.insert(key, value);
        if let Some(old_v) = old {
            xor_into(&mut self.acc, &leaf_hash(key, old_v));
        }
        xor_into(&mut self.acc, &leaf_hash(key, value));
        old
    }

    /// Delete a key; returns the removed value.
    pub fn delete(&mut self, key: Key) -> Option<Value> {
        let old = self.data.remove(&key);
        if let Some(old_v) = old {
            xor_into(&mut self.acc, &leaf_hash(key, old_v));
        }
        old
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The current state digest.
    pub fn digest(&self) -> Digest {
        set_digest(b"kv-state", &self.acc, self.data.len())
    }

    /// Recompute the digest accumulator from scratch (test oracle for the
    /// incremental maintenance).
    pub fn recomputed_digest(&self) -> Digest {
        let mut acc = [0u8; 32];
        for (&k, &v) in &self.data {
            xor_into(&mut acc, &leaf_hash(k, v));
        }
        set_digest(b"kv-state", &acc, self.data.len())
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_ops() {
        let mut kv = KvStore::new();
        assert_eq!(kv.get(1), None);
        assert_eq!(kv.put(1, 10), None);
        assert_eq!(kv.get(1), Some(10));
        assert_eq!(kv.put(1, 20), Some(10));
        assert_eq!(kv.delete(1), Some(20));
        assert_eq!(kv.get(1), None);
        assert!(kv.is_empty());
    }

    #[test]
    fn digest_changes_with_state() {
        let mut kv = KvStore::new();
        let d0 = kv.digest();
        kv.put(1, 10);
        let d1 = kv.digest();
        kv.put(1, 20);
        let d2 = kv.digest();
        kv.delete(1);
        let d3 = kv.digest();
        assert_ne!(d0, d1);
        assert_ne!(d1, d2);
        assert_ne!(d2, d3);
        // back to empty: digest returns to the empty digest
        assert_eq!(d0, d3);
    }

    #[test]
    fn digest_is_history_independent() {
        let mut a = KvStore::new();
        a.put(1, 10);
        a.put(2, 20);
        let mut b = KvStore::new();
        b.put(2, 99);
        b.put(1, 10);
        b.put(2, 20);
        assert_eq!(a.digest(), b.digest());
    }

    proptest! {
        /// The incremental digest always matches a from-scratch recompute.
        #[test]
        fn incremental_digest_matches_recompute(
            ops in prop::collection::vec((0u64..16, -100i64..100, prop::bool::ANY), 0..200)
        ) {
            let mut kv = KvStore::new();
            for (k, v, del) in ops {
                if del {
                    kv.delete(k);
                } else {
                    kv.put(k, v);
                }
                prop_assert_eq!(kv.digest(), kv.recomputed_digest());
            }
        }

        /// Order independence: inserting distinct keys in any permutation
        /// (modelled as rotation + optional reversal, which generate the
        /// full permutation group) yields the identical digest, and both
        /// match the from-scratch recompute.
        #[test]
        fn digest_is_order_independent(
            values in prop::collection::vec(-100i64..100, 1..40),
            rot in 0usize..40,
            rev: bool,
        ) {
            let entries: Vec<(u64, i64)> = values
                .iter()
                .enumerate()
                .map(|(i, v)| (i as u64, *v))
                .collect();
            let mut permuted = entries.clone();
            permuted.rotate_left(rot % entries.len());
            if rev {
                permuted.reverse();
            }
            let mut a = KvStore::new();
            for (k, v) in &entries {
                a.put(*k, *v);
            }
            let mut b = KvStore::new();
            for (k, v) in &permuted {
                b.put(*k, *v);
            }
            prop_assert_eq!(a.digest(), b.digest());
            prop_assert_eq!(a.digest(), a.recomputed_digest());
            prop_assert_eq!(b.digest(), b.recomputed_digest());
        }

        /// Update sequences: interleaved updates to the same keys in two
        /// different orders converge to the same digest once final contents
        /// agree, and the incremental accumulator never drifts.
        #[test]
        fn digest_order_independent_under_updates(
            ops in prop::collection::vec((0u64..6, -50i64..50), 2..40),
        ) {
            // apply the same multiset of final writes in two orders: the
            // original, and key-major (stable-sorted by key)
            let mut sorted = ops.clone();
            sorted.sort_by_key(|(k, _)| *k);
            let mut a = KvStore::new();
            for (k, v) in &ops {
                a.put(*k, *v);
                prop_assert_eq!(a.digest(), a.recomputed_digest());
            }
            let mut b = KvStore::new();
            for (k, v) in &sorted {
                b.put(*k, *v);
                prop_assert_eq!(b.digest(), b.recomputed_digest());
            }
            // stable sort preserves per-key write order, so final contents
            // agree ⇒ digests agree
            prop_assert_eq!(a.digest(), b.digest());
        }

        /// Equal contents ⇒ equal digests, regardless of operation history.
        #[test]
        fn digest_depends_only_on_content(
            ops in prop::collection::vec((0u64..8, -50i64..50), 0..60)
        ) {
            let mut kv = KvStore::new();
            for (k, v) in &ops {
                kv.put(*k, *v);
            }
            // rebuild from final contents only
            let mut fresh = KvStore::new();
            for (k, v) in kv.iter() {
                fresh.put(*k, *v);
            }
            prop_assert_eq!(kv.digest(), fresh.digest());
        }
    }
}
