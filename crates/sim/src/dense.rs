//! A map from dense `u64` keys (sequence numbers, request timestamps) to
//! small values, for the readers of the observation log: a vector indexed
//! by key while the keys arrive densely, and a `BTreeMap` for keys past a
//! jump.

use std::collections::BTreeMap;

/// How far past the end of an empty or short [`DenseMap::dense`] a key
/// may land and still be stored there.
const MIN_GAP: u64 = 64;

/// Values by key, in a vector indexed by key, and in a map for a key that
/// lands further past the vector's end than the vector is long (or than
/// [`MIN_GAP`]), so the vector at most doubles per key: keys that start
/// high or jump (Q/U's retry-bumped request timestamps) do not allocate
/// a vector of the gap. Every key of `sparse` is at least `dense.len()`.
#[derive(Debug)]
pub(crate) struct DenseMap<T> {
    dense: Vec<Option<T>>,
    sparse: BTreeMap<u64, T>,
}

impl<T> Default for DenseMap<T> {
    fn default() -> Self {
        DenseMap {
            dense: Vec::new(),
            sparse: BTreeMap::new(),
        }
    }
}

impl<T: Copy> DenseMap<T> {
    pub(crate) fn get(&self, key: u64) -> Option<T> {
        match self.dense.get(usize::try_from(key).unwrap_or(usize::MAX)) {
            Some(value) => *value,
            None => self.sparse.get(&key).copied(),
        }
    }

    /// Sets `key`'s value, overwriting any earlier one.
    pub(crate) fn set(&mut self, key: u64, value: T) {
        let len = self.dense.len() as u64;
        if key < len || (self.sparse.is_empty() && key - len <= len.max(MIN_GAP)) {
            let i = key as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, None);
            }
            self.dense[i] = Some(value);
        } else {
            self.sparse.insert(key, value);
        }
    }

    /// Forgets every value at `from` and above.
    pub(crate) fn truncate(&mut self, from: u64) {
        self.dense
            .truncate(usize::try_from(from).unwrap_or(usize::MAX));
        self.sparse.split_off(&from);
    }

    /// The values in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        let dense = self.dense.iter().enumerate();
        dense
            .filter_map(|(key, value)| Some((key as u64, (*value)?)))
            .chain(self.sparse.iter().map(|(key, value)| (*key, *value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_jump_goes_to_the_map_and_reads_back_in_key_order() {
        let mut map = DenseMap::default();
        for key in [3, 1, 7, 9] {
            map.set(key, key * 10);
        }
        map.set(u64::MAX, 1);
        map.set(MIN_GAP + 100, 2);
        map.set(7, 70);
        assert_eq!(map.dense.len(), 10);
        assert_eq!(map.sparse.len(), 2);
        let all: Vec<(u64, u64)> = map.iter().collect();
        assert_eq!(
            all,
            [
                (1, 10),
                (3, 30),
                (7, 70),
                (9, 90),
                (MIN_GAP + 100, 2),
                (u64::MAX, 1)
            ]
        );
        assert_eq!(map.get(u64::MAX), Some(1));
        assert_eq!(map.get(8), None);
        map.truncate(7);
        assert_eq!(map.iter().collect::<Vec<_>>(), [(1, 10), (3, 30)]);
        // with the map empty again, keys past the vector grow it
        map.set(20, 200);
        assert_eq!(map.dense.len(), 21);
        assert_eq!(map.get(20), Some(200));
        // while it is not, they go to the map
        map.set(MIN_GAP + 100, 2);
        map.set(30, 300);
        assert_eq!(map.dense.len(), 21);
        assert_eq!(map.get(30), Some(300));
    }
}
