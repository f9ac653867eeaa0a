//! A small exact-LRU cache used for ownership hints.
//!
//! ASVM's dynamic and static forwarding information lives in caches "for
//! the most recently accessed pages" (paper §3.4, FIGURE 6); capacity
//! bounds are what keep ASVM's memory requirements independent of address
//! space size. Lookups refresh recency; inserts evict the least recently
//! used entry when full.
//!
//! Every operation is `O(1)`: a keyed index holds each value with its
//! handle in a [`HandleQueue`] of keys, least recently used at the front.
//! A request costs a cache probe, not a search — this cache is consulted
//! on every forwarded message. Memory grows with the entries held, never
//! with `cap`.

use std::hash::Hash;

use machvm::{HandleQueue, KeyTable};

/// An exact LRU cache with `O(1)` operations.
#[derive(Clone, Debug)]
pub struct Lru<K: Copy + Ord + Hash, V> {
    cap: usize,
    /// Each entry's value and its handle in `recency`.
    index: KeyTable<K, (u32, V)>,
    /// The keys, least recently used first: the front is the next victim.
    recency: HandleQueue<K>,
}

impl<K: Copy + Ord + Hash, V> Lru<K, V> {
    /// Creates a cache holding at most `cap` entries (`cap == 0` disables
    /// the cache entirely: inserts are dropped).
    pub fn new(cap: usize) -> Lru<K, V> {
        Lru {
            cap,
            index: KeyTable::new(),
            recency: HandleQueue::new(),
        }
    }

    /// Looks up `k`, refreshing its recency.
    pub fn get(&mut self, k: &K) -> Option<&V> {
        let (at, v) = self.index.get(k)?;
        self.recency.move_to_back(*at);
        Some(v)
    }

    /// Looks up `k` without refreshing recency.
    pub fn peek(&self, k: &K) -> Option<&V> {
        self.index.get(k).map(|(_, v)| v)
    }

    /// Iterates over all entries in key order without touching recency.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.index.iter().map(|(k, (_, v))| (k, v))
    }

    /// Inserts or updates `k`, evicting the LRU entry if over capacity.
    pub fn insert(&mut self, k: K, v: V) {
        if self.cap == 0 {
            return;
        }
        if let Some((at, val)) = self.index.get_mut(&k) {
            *val = v;
            self.recency.move_to_back(*at);
            return;
        }
        if self.index.len() == self.cap {
            let (victim, key) = self.recency.front().expect("a full cache has entries");
            self.recency.unlink(victim);
            self.index.remove(&key);
        }
        let at = self.recency.push_back(k);
        self.index.insert(k, (at, v));
    }

    /// Removes `k`.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let (at, v) = self.index.remove(k)?;
        self.recency.unlink(at);
        Some(v)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Slots allocated by the larger of the recency queue and the index.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.recency.slots().max(self.index.capacity())
    }
}

#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    /// The `O(log n)` B-tree LRU this cache replaced, kept as the model the
    /// `O(1)` version must match step for step: same answers, same victims.
    #[derive(Clone, Debug)]
    pub struct BTreeLru<K: Ord + Copy, V> {
        cap: usize,
        tick: u64,
        map: BTreeMap<K, (u64, V)>,
        by_age: BTreeMap<u64, K>,
    }

    impl<K: Ord + Copy, V> BTreeLru<K, V> {
        /// Creates a cache holding at most `cap` entries (`cap == 0` disables
        /// the cache entirely: inserts are dropped).
        pub fn new(cap: usize) -> BTreeLru<K, V> {
            BTreeLru {
                cap,
                tick: 0,
                map: BTreeMap::new(),
                by_age: BTreeMap::new(),
            }
        }

        /// Looks up `k`, refreshing its recency.
        pub fn get(&mut self, k: &K) -> Option<&V> {
            let tick = self.next_tick();
            let (age, _) = self.map.get_mut(k)?;
            self.by_age.remove(age);
            *age = tick;
            self.by_age.insert(tick, *k);
            self.map.get(k).map(|(_, v)| v)
        }

        /// Looks up `k` without refreshing recency.
        pub fn peek(&self, k: &K) -> Option<&V> {
            self.map.get(k).map(|(_, v)| v)
        }

        /// Iterates over all entries in key order without touching recency.
        pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
            self.map.iter().map(|(k, (_, v))| (*k, v))
        }

        /// Inserts or updates `k`, evicting the LRU entry if over capacity.
        pub fn insert(&mut self, k: K, v: V) {
            if self.cap == 0 {
                return;
            }
            let tick = self.next_tick();
            if let Some((age, _)) = self.map.get(&k) {
                self.by_age.remove(age);
            }
            self.map.insert(k, (tick, v));
            self.by_age.insert(tick, k);
            while self.map.len() > self.cap {
                let (&oldest, &victim) = self.by_age.iter().next().expect("len > 0");
                self.by_age.remove(&oldest);
                self.map.remove(&victim);
            }
        }

        /// Removes `k`.
        pub fn remove(&mut self, k: &K) -> Option<V> {
            let (age, v) = self.map.remove(k)?;
            self.by_age.remove(&age);
            Some(v)
        }

        /// Entries currently held.
        pub fn len(&self) -> usize {
            self.map.len()
        }

        /// True if the cache is empty.
        pub fn is_empty(&self) -> bool {
            self.map.is_empty()
        }

        fn next_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::BTreeLru;
    use super::*;
    use proptest::prelude::*;

    /// The handoff flag of a dynamic hint rides in the entry's padding: a
    /// hint cache entry is no larger than one holding a bare `NodeId`.
    #[test]
    fn the_handoff_flag_costs_no_entry_bytes() {
        use std::mem::size_of;
        type Page = machvm::PageIdx;
        assert_eq!(
            size_of::<(Page, (u32, crate::DynHint))>(),
            size_of::<(Page, (u32, svmsim::NodeId))>()
        );
    }

    proptest! {
        /// The `O(1)` cache and the B-tree reference agree on every return
        /// value and, after every step, on `len` and key-ordered
        /// contents — hence on every eviction victim, which is what keeps
        /// simulated time identical.
        #[test]
        fn matches_the_btree_reference(
            cap in prop::sample::select(vec![0usize, 1, 2, 8]),
            ops in prop::collection::vec((0u32..12, 0u32..1000, 0u8..4), 1..400),
        ) {
            let mut lru: Lru<u32, u32> = Lru::new(cap);
            let mut model: BTreeLru<u32, u32> = BTreeLru::new(cap);
            for (k, v, op) in ops {
                match op {
                    0 => {
                        lru.insert(k, v);
                        model.insert(k, v);
                    }
                    1 => prop_assert_eq!(lru.get(&k), model.get(&k)),
                    2 => prop_assert_eq!(lru.peek(&k), model.peek(&k)),
                    _ => prop_assert_eq!(lru.remove(&k), model.remove(&k)),
                }
                prop_assert_eq!(lru.len(), model.len());
                prop_assert_eq!(lru.is_empty(), model.is_empty());
                prop_assert_eq!(lru.iter().collect::<Vec<_>>(), model.iter().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // refresh 1
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.peek(&1), Some(&"a"));
        assert_eq!(c.peek(&3), Some(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn update_refreshes_and_replaces() {
        let mut c = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(1, "a2"); // refresh + replace
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.peek(&1), Some(&"a2"));
        assert_eq!(c.peek(&2), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = Lru::new(0);
        c.insert(1, "a");
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn remove_works() {
        let mut c = Lru::new(4);
        c.insert(1, "a");
        assert_eq!(c.remove(&1), Some("a"));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut c = Lru::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.peek(&1), Some(&"a")); // no refresh
        c.insert(3, "c"); // evicts 1 (peek did not refresh it)
        assert_eq!(c.peek(&1), None);
    }
}
