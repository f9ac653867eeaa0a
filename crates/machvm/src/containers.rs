//! Index-addressed containers for protocol state on the per-message path.
//!
//! The engines keep their state in these instead of `BTreeMap`/`BTreeSet`
//! so that a lookup is a probe, not a tree descent — without giving up the
//! two properties the trees were chosen for:
//!
//! * **Determinism.** Every iterator here yields ascending key order, the
//!   order a B-tree would, so no iteration that reaches a message, a
//!   counter, a trace or a golden can observe the layout. [`KeyTable`]
//!   sorts on demand (its iterations sit in cold paths: invariants, state
//!   gauges, peer-death scrubs); the others are ordered by construction. The one hasher is fixed and stateless — never
//!   `RandomState`, whose per-process seed would make an order leak show
//!   up only sometimes. This module is the only place in the simulator
//!   allowed to name `HashMap` (`ci/check_containers.sh`).
//! * **The memory rule (§3.1).** A [`KeyTable`] is proportional to its
//!   entries, never to the key space, so page-keyed engine state stays
//!   independent of object size. [`SlotTable`] trades that for a plain
//!   array index and is only for keys issued densely from zero and
//!   bounded by construction: node ids, a node's VM object ids, and the
//!   VM's own resident-page table. A [`HandleQueue`] holds one slot per
//!   live entry and reuses the slots of entries that left, so the VM's
//!   replacement queue (and `asvm`'s hint-cache recency order) is
//!   proportional to the entries live, never to how often they came and
//!   went.
//!
//! | key kind | container | why |
//! |---|---|---|
//! | page index, fault id, task id, memory object id, `(object, page)` | [`KeyTable`] | sparse in a large key space: hash probe, memory ∝ entries |
//! | node id, VM object id, resident page | [`SlotTable`] | dense from zero: array index, ordered for free |
//! | task id | [`SortedMap`] | a handful per node out of a machine-wide id space, looked up on every task event: a one-entry search is one compare |
//! | set of nodes (readers, outstanding acks) | [`NodeSet`] | small, cloned per write fault: sorted `Vec`, `clone` is one `memcpy` |
//! | resident page in fault-in order; hint key in recency order | [`HandleQueue`] | leaves from the middle (flush, eviction, hint removal) or moves to the back: each entry keeps a stable handle, unlink and move are `O(1)`, memory ∝ live entries |

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::marker::PhantomData;

use svmsim::NodeId;

use crate::ids::{PageIdx, VmObjId};

/// The one hasher: a multiply-rotate fold of the key's integer fields.
/// Keys are simulator-issued ids, never outside input, so collision
/// resistance buys nothing; a fixed function keeps runs reproducible.
#[derive(Clone, Copy, Default)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// A map from sparse keys to values: hash-indexed, memory proportional to
/// its entries, iterated only in ascending key order.
#[derive(Clone)]
pub struct KeyTable<K, V> {
    map: HashMap<K, V, BuildHasherDefault<FixedHasher>>,
}

impl<K, V> Default for KeyTable<K, V> {
    fn default() -> Self {
        KeyTable {
            map: HashMap::default(),
        }
    }
}

impl<K: Copy + Ord + Hash, V> KeyTable<K, V> {
    /// An empty table (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries the table can hold before it grows (for memory-rule tests).
    pub fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// The value stored under `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    /// Mutable access to the value stored under `k`.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.map.get_mut(k)
    }

    /// True if `k` has an entry.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    /// Stores `v` under `k`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.map.insert(k, v)
    }

    /// Removes `k`, returning its value.
    #[inline]
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.map.remove(k)
    }

    /// The value under `k`, inserting `make()` first if there is none.
    #[inline]
    pub fn get_or_insert_with(&mut self, k: K, make: impl FnOnce() -> V) -> &mut V {
        self.map.entry(k).or_insert_with(make)
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let mut entries: Vec<(K, &V)> = self.map.iter().map(|(k, v)| (*k, v)).collect();
        entries.sort_unstable_by_key(|e| e.0);
        entries.into_iter()
    }

    /// Entries in ascending key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        let mut entries: Vec<(K, &mut V)> = self.map.iter_mut().map(|(k, v)| (*k, v)).collect();
        entries.sort_unstable_by_key(|e| e.0);
        entries.into_iter()
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> {
        let mut keys: Vec<K> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.iter_mut().map(|(_, v)| v)
    }
}

impl<K: Copy + Ord + Hash + fmt::Debug, V: fmt::Debug> fmt::Debug for KeyTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A key that is its own array index: issued densely from zero and
/// bounded by construction.
pub trait SlotKey: Copy {
    /// The slot this key addresses.
    fn slot(self) -> usize;
    /// The key addressing `slot`.
    fn from_slot(slot: usize) -> Self;
}

impl SlotKey for NodeId {
    fn slot(self) -> usize {
        self.index()
    }
    fn from_slot(slot: usize) -> Self {
        NodeId(slot as u16)
    }
}

impl SlotKey for VmObjId {
    fn slot(self) -> usize {
        self.0 as usize
    }
    fn from_slot(slot: usize) -> Self {
        VmObjId(slot as u32)
    }
}

impl SlotKey for PageIdx {
    fn slot(self) -> usize {
        self.0 as usize
    }
    fn from_slot(slot: usize) -> Self {
        PageIdx(slot as u32)
    }
}

/// A map from dense keys to values: one `Option` slot per key up to the
/// highest one stored, iterated in ascending key order.
#[derive(Clone)]
pub struct SlotTable<K, V> {
    slots: Vec<Option<V>>,
    live: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for SlotTable<K, V> {
    fn default() -> Self {
        SlotTable {
            slots: Vec::new(),
            live: 0,
            _key: PhantomData,
        }
    }
}

impl<K: SlotKey, V> SlotTable<K, V> {
    /// An empty table (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The value stored under `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.slots.get(k.slot())?.as_ref()
    }

    /// Mutable access to the value stored under `k`.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.slots.get_mut(k.slot())?.as_mut()
    }

    /// True if `k` has an entry.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// Stores `v` under `k`, returning the value it replaced.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let prev = self.slot_mut(k).replace(v);
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    /// Removes `k`, returning its value.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let prev = self.slots.get_mut(k.slot())?.take();
        if prev.is_some() {
            self.live -= 1;
        }
        prev
    }

    /// The value under `k`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, k: K, make: impl FnOnce() -> V) -> &mut V {
        if self.slot_mut(k).is_none() {
            self.live += 1;
        }
        self.slots[k.slot()].get_or_insert_with(make)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_slot(i), v)))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }

    fn slot_mut(&mut self, k: K) -> &mut Option<V> {
        let i = k.slot();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }
}

impl<K: SlotKey + fmt::Debug, V: fmt::Debug> fmt::Debug for SlotTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A map holding a handful of entries as a vector sorted by key: a lookup
/// is a binary search over one contiguous allocation (one compare when
/// there is one entry), an insert shifts the tail. For per-node task
/// tables, where a hash probe would cost more than the search it saves.
#[derive(Clone)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Copy + Ord, V> SortedMap<K, V> {
    /// An empty map (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn find(&self, k: &K) -> Result<usize, usize> {
        self.entries.binary_search_by_key(k, |e| e.0)
    }

    /// The value stored under `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|at| &self.entries[at].1)
    }

    /// Mutable access to the value stored under `k`.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find(k).ok().map(|at| &mut self.entries[at].1)
    }

    /// True if `k` has an entry.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_ok()
    }

    /// Stores `v` under `k`, returning the value it replaced.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(&k) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, v)),
            Err(at) => {
                self.entries.insert(at, (k, v));
                None
            }
        }
    }

    /// Removes `k`, returning its value.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.find(k).ok().map(|at| self.entries.remove(at).1)
    }

    /// The value under `k`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, k: K, make: impl FnOnce() -> V) -> &mut V {
        let at = match self.find(&k) {
            Ok(at) => at,
            Err(at) => {
                self.entries.insert(at, (k, make()));
                at
            }
        };
        &mut self.entries[at].1
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|e| e.0)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|e| &e.1)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|e| &mut e.1)
    }
}

impl<K: Copy + Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for SortedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A set of nodes as a sorted vector: exact-size, ascending, and cloned
/// with one `memcpy` — reader lists and the ack sets copied from them.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct NodeSet(Vec<NodeId>);

impl NodeSet {
    /// The empty set (allocates nothing).
    pub fn new() -> NodeSet {
        NodeSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the set has no member.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if `n` is a member.
    pub fn contains(&self, n: &NodeId) -> bool {
        self.0.binary_search(n).is_ok()
    }

    /// Adds `n`; returns whether it was new.
    pub fn insert(&mut self, n: NodeId) -> bool {
        match self.0.binary_search(&n) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, n);
                true
            }
        }
    }

    /// Removes `n`; returns whether it was a member.
    pub fn remove(&mut self, n: &NodeId) -> bool {
        match self.0.binary_search(n) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.0.iter()
    }

    /// Members in ascending order, as a slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.0
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeSet {
        let mut members: Vec<NodeId> = iter.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        NodeSet(members)
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for n in iter {
            self.insert(n);
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.0).finish()
    }
}

/// Slot index meaning "no entry".
const NIL: u32 = u32::MAX;
/// `prev` of a slot on the free list (never a live slot's: the slab
/// cannot grow that far).
const FREE: u32 = u32::MAX - 1;

#[derive(Clone, Debug)]
struct QueueSlot<T> {
    /// Toward the front; [`FREE`] while the slot is on the free list.
    prev: u32,
    /// Toward the back; the next free slot while on the free list.
    next: u32,
    val: T,
}

/// A FIFO queue whose entries can leave from the middle: a slab of doubly
/// linked slots with a free list. [`HandleQueue::push_back`] returns the
/// entry's handle, which stays valid — no other operation moves the entry
/// to another slot — until [`HandleQueue::unlink`] returns the slot to the
/// free list. Every operation is `O(1)`; the slab is as long as the most
/// entries ever live at once.
#[derive(Clone, Debug)]
pub struct HandleQueue<T> {
    slots: Vec<QueueSlot<T>>,
    front: u32,
    back: u32,
    free: u32,
    len: u32,
}

impl<T> Default for HandleQueue<T> {
    fn default() -> Self {
        HandleQueue {
            slots: Vec::new(),
            front: NIL,
            back: NIL,
            free: NIL,
            len: 0,
        }
    }
}

impl<T: Copy> HandleQueue<T> {
    /// An empty queue (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the queue holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots allocated, live or free (for memory-rule tests).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Appends `val`, returning its handle.
    pub fn push_back(&mut self, val: T) -> u32 {
        let at = match self.free {
            NIL => {
                assert!(self.slots.len() < FREE as usize, "queue slab exhausted");
                self.slots.push(QueueSlot {
                    prev: NIL,
                    next: NIL,
                    val,
                });
                self.slots.len() as u32 - 1
            }
            at => {
                self.free = self.slots[at as usize].next;
                self.slots[at as usize].val = val;
                at
            }
        };
        self.attach_back(at);
        self.len += 1;
        at
    }

    /// Removes the entry `handle` names, returning its value.
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not name a live entry.
    pub fn unlink(&mut self, handle: u32) -> T {
        self.detach(handle);
        let slot = &mut self.slots[handle as usize];
        slot.prev = FREE;
        slot.next = self.free;
        self.free = handle;
        self.len -= 1;
        slot.val
    }

    /// Makes the entry `handle` names the last one.
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not name a live entry.
    pub fn move_to_back(&mut self, handle: u32) {
        if self.back != handle {
            self.detach(handle);
            self.attach_back(handle);
        }
    }

    /// The first entry and its handle.
    pub fn front(&self) -> Option<(u32, T)> {
        self.iter().next()
    }

    /// Entries and their handles, front to back.
    pub fn iter(&self) -> impl Iterator<Item = (u32, T)> + '_ {
        let mut at = self.front;
        std::iter::from_fn(move || {
            let slot = self.slots.get(at as usize)?;
            let entry = (at, slot.val);
            at = slot.next;
            Some(entry)
        })
    }

    fn detach(&mut self, at: u32) {
        let QueueSlot { prev, next, .. } = self.slots[at as usize];
        assert!(prev != FREE, "queue handle {at} names no live entry");
        match prev {
            NIL => self.front = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.back = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn attach_back(&mut self, at: u32) {
        let back = std::mem::replace(&mut self.back, at);
        self.slots[at as usize].prev = back;
        self.slots[at as usize].next = NIL;
        match back {
            NIL => self.front = at,
            b => self.slots[b as usize].next = at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FaultId, MemObjId, TaskId};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    /// One step of a random map history: the key, a value, and which
    /// operation to run.
    fn map_ops(keys: u32) -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
        prop::collection::vec((0..keys, 0u32..1000, 0u8..4), 1..300)
    }

    /// Drives `$table` and a `BTreeMap` through one random history: equal
    /// return values, and after every step equal `len` and equal ascending
    /// `iter`/`keys`/`values`/`values_mut`.
    macro_rules! matches_btreemap {
        ($table:ty, $key:expr, $ops:expr) => {{
            let mut table = <$table>::new();
            let mut model = BTreeMap::new();
            for (k, v, op) in $ops {
                let k = $key(k);
                match op {
                    0 => prop_assert_eq!(table.insert(k, v), model.insert(k, v)),
                    1 => prop_assert_eq!(table.remove(&k), model.remove(&k)),
                    2 => {
                        let got = *table.get_or_insert_with(k, || v);
                        prop_assert_eq!(got, *model.entry(k).or_insert(v));
                    }
                    _ => {
                        prop_assert_eq!(table.get(&k), model.get(&k));
                        prop_assert_eq!(table.contains_key(&k), model.contains_key(&k));
                        if let Some(slot) = table.get_mut(&k) {
                            *slot += 1;
                            *model.get_mut(&k).unwrap() += 1;
                        }
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                let want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
                let got: Vec<_> = table.iter().map(|(k, v)| (k, *v)).collect();
                prop_assert_eq!(&got, &want);
                let keys: Vec<_> = table.keys().collect();
                prop_assert_eq!(keys, model.keys().copied().collect::<Vec<_>>());
                let values: Vec<u32> = table.values().copied().collect();
                prop_assert_eq!(&values, &model.values().copied().collect::<Vec<_>>());
                let values_mut: Vec<u32> = table.values_mut().map(|v| *v).collect();
                prop_assert_eq!(values_mut, values);
            }
            table
        }};
    }

    proptest! {
        #[test]
        fn key_table_matches_btreemap(ops in map_ops(64)) {
            // Keys far apart: the table must not care about the key space.
            let key = |k: u32| PageIdx(k.wrapping_mul(0x0101_0101));
            let mut table = matches_btreemap!(KeyTable<PageIdx, u32>, key, ops);
            let want: Vec<PageIdx> = table.keys().collect();
            let got: Vec<PageIdx> = table.iter_mut().map(|(k, _)| k).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn slot_table_matches_btreemap(ops in map_ops(48)) {
            matches_btreemap!(SlotTable<NodeId, u32>, |k: u32| NodeId(k as u16), ops);
        }

        #[test]
        fn sorted_map_matches_btreemap(ops in map_ops(24)) {
            matches_btreemap!(SortedMap<TaskId, u32>, |k: u32| TaskId(k << 16), ops);
        }

        /// `NodeSet` agrees with `BTreeSet<NodeId>` on every return value and
        /// on its ascending contents after every step; `collect` and
        /// `extend` build the same set the model does.
        #[test]
        fn node_set_matches_btreeset(
            ops in prop::collection::vec((0u16..40, 0u8..3), 1..300),
            bulk in prop::collection::vec(0u16..40, 0..40),
        ) {
            let mut set = NodeSet::new();
            let mut model: BTreeSet<NodeId> = BTreeSet::new();
            for (n, op) in ops {
                let n = NodeId(n);
                match op {
                    0 => prop_assert_eq!(set.insert(n), model.insert(n)),
                    1 => prop_assert_eq!(set.remove(&n), model.remove(&n)),
                    _ => prop_assert_eq!(set.contains(&n), model.contains(&n)),
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert_eq!(set.iter().copied().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(&set.clone(), &set);
            }
            let bulk: Vec<NodeId> = bulk.into_iter().map(NodeId).collect();
            let collected: NodeSet = bulk.iter().copied().collect();
            let want: BTreeSet<NodeId> = bulk.iter().copied().collect();
            prop_assert_eq!(collected.as_slice(), want.iter().copied().collect::<Vec<_>>().as_slice());
            set.extend(bulk.iter().copied());
            model.extend(bulk.iter().copied());
            prop_assert_eq!(set.as_slice(), model.iter().copied().collect::<Vec<_>>().as_slice());
            set.clear();
            prop_assert!(set.is_empty());
        }

        /// `HandleQueue` agrees with a `VecDeque` of (handle, value) pairs
        /// whose unlink and rotate search linearly: same order, `len` and
        /// `front` after every step. A handle handed out is never one a
        /// live entry holds, and the slab never outgrows the most entries
        /// live at once.
        #[test]
        fn handle_queue_matches_vecdeque(
            ops in prop::collection::vec((0usize..64, 0u8..4), 1..400),
        ) {
            let mut queue: HandleQueue<u32> = HandleQueue::new();
            let mut model: VecDeque<(u32, u32)> = VecDeque::new();
            let mut peak = 0;
            for (step, (pick, op)) in ops.into_iter().enumerate() {
                match op {
                    0 | 1 => {
                        let val = step as u32;
                        let handle = queue.push_back(val);
                        prop_assert!(model.iter().all(|e| e.0 != handle));
                        model.push_back((handle, val));
                    }
                    _ if model.is_empty() => prop_assert_eq!(queue.front(), None),
                    2 => {
                        let (handle, val) = model.remove(pick % model.len()).unwrap();
                        prop_assert_eq!(queue.unlink(handle), val);
                    }
                    _ => {
                        let entry = model.remove(pick % model.len()).unwrap();
                        queue.move_to_back(entry.0);
                        model.push_back(entry);
                    }
                }
                peak = peak.max(model.len());
                prop_assert_eq!(queue.len() as usize, model.len());
                prop_assert_eq!(queue.is_empty(), model.is_empty());
                prop_assert_eq!(queue.front(), model.front().copied());
                prop_assert_eq!(queue.iter().collect::<Vec<_>>(), Vec::from(model.clone()));
                prop_assert!(queue.slots() <= peak);
            }
        }
    }

    #[test]
    #[should_panic(expected = "names no live entry")]
    fn handle_queue_rejects_a_handle_it_took_back() {
        let mut queue = HandleQueue::new();
        let handle = queue.push_back(7u32);
        queue.push_back(8);
        queue.unlink(handle);
        queue.unlink(handle);
    }

    #[test]
    fn hasher_is_a_fixed_function_that_spreads_structured_keys() {
        let hash = |k: &dyn Fn(&mut FixedHasher)| {
            let mut h = FixedHasher::default();
            k(&mut h);
            h.finish()
        };
        // Same key, same hash, in every process.
        assert_eq!(hash(&|h| PageIdx(7).hash(h)), hash(&|h| PageIdx(7).hash(h)));
        // Fork-minted memory object ids differ only above bit 20, fault ids
        // only in the low bits: both must spread over a table's low index
        // bits.
        let low7 = |hs: Vec<u64>| hs.iter().map(|h| h & 127).collect::<BTreeSet<_>>().len();
        let mobjs = (1u32..=64).map(|n| hash(&|h| MemObjId((n << 20) | 1).hash(h)));
        assert!(low7(mobjs.collect()) > 32);
        let faults = (1u64..=64).map(|n| hash(&|h| FaultId(n).hash(h)));
        assert!(low7(faults.collect()) > 32);
    }

    #[test]
    fn tables_allocate_nothing_until_used_and_grow_with_entries_only() {
        let mut t: KeyTable<PageIdx, u64> = KeyTable::new();
        assert_eq!(t.capacity(), 0);
        t.insert(PageIdx(0), 1);
        t.insert(PageIdx(u32::MAX), 2);
        assert!(t.capacity() <= 8, "two entries, {} slots", t.capacity());
    }
}
