//! The one bounded map behind every cache in the engine.
//!
//! The cipher boundary sits between memory and disk (Bayer & Metzger):
//! ciphertext pages are cached below it ([`crate::BufferPool`]), nodes
//! and records above it (`NodeCache`, the record cache). All of them
//! need the same decision — what is bounded, and what goes next — so it
//! is made here once: a hash map for lookup
//! plus a recency list threaded through a slab by index, which makes
//! look-up-and-touch, insert, remove and victim choice all O(1).
//!
//! A *pinned* entry stays in the map but leaves the recency list, so it is
//! never a victim and costs victim choice nothing: the no-steal pool pins
//! its dirty frames and still finds its least-recent clean frame in O(1).
//!
//! The capacity is a bound, not a reservation: nothing is allocated from
//! it, so an "unbounded" `usize::MAX` cache costs what it holds.

use std::collections::HashMap;
use std::hash::Hash;

/// "No slot": the list ends, and the links of a pinned entry.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    /// Neighbour towards the least recently used end.
    prev: usize,
    /// Neighbour towards the most recently used end.
    next: usize,
    pinned: bool,
}

/// A map with least-recently-used order and a capacity it reports but
/// never enforces on its own: callers drain the excess with
/// [`LruMap::evict`], because what happens to a victim (drop, write back,
/// seal) is theirs to decide.
#[derive(Debug)]
pub struct LruMap<K, V> {
    index: HashMap<K, usize>,
    slots: Vec<Option<Entry<K, V>>>,
    /// Emptied slots, reused before the slab grows.
    free: Vec<usize>,
    /// Least recently used unpinned entry.
    head: usize,
    /// Most recently used unpinned entry.
    tail: usize,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V> LruMap<K, V> {
    /// An empty map that reports itself over capacity above `capacity`
    /// entries, pinned ones included.
    pub fn new(capacity: usize) -> Self {
        LruMap {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// [`LruMap::new`] with room made up front for `capacity` entries, so
    /// a map held at its bound — one removal for every insert, as a full
    /// pool's misses run — never allocates. The index gets room for twice
    /// as many: a hash table whose removals leave tombstones cleans them
    /// up in place only while it is at most half full, and grows instead
    /// above that.
    pub fn with_room(capacity: usize) -> Self {
        LruMap {
            index: HashMap::with_capacity(2 * capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            ..Self::new(capacity)
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries held, pinned ones included.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn entry(&self, i: usize) -> &Entry<K, V> {
        self.slots[i].as_ref().expect("indexed slot is occupied")
    }

    fn entry_mut(&mut self, i: usize) -> &mut Entry<K, V> {
        self.slots[i].as_mut().expect("indexed slot is occupied")
    }

    /// Takes slot `i` off the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let e = self.entry(i);
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    /// Puts slot `i` at the most recently used end.
    fn link_mru(&mut self, i: usize) {
        let tail = self.tail;
        let e = self.entry_mut(i);
        e.prev = tail;
        e.next = NIL;
        match tail {
            NIL => self.head = i,
            t => self.entry_mut(t).next = i,
        }
        self.tail = i;
    }

    fn touch(&mut self, i: usize) {
        if !self.entry(i).pinned && self.tail != i {
            self.unlink(i);
            self.link_mru(i);
        }
    }

    fn take(&mut self, i: usize) -> (K, V) {
        if !self.entry(i).pinned {
            self.unlink(i);
        }
        let e = self.slots[i].take().expect("indexed slot is occupied");
        self.free.push(i);
        (e.key, e.value)
    }

    /// Looks `key` up and makes it the most recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.index.get(key)?;
        self.touch(i);
        Some(&self.entry(i).value)
    }

    /// [`LruMap::get`], mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        self.touch(i);
        Some(&mut self.entry_mut(i).value)
    }

    /// [`LruMap::get_mut`] in one look-up, or on a miss the value `fill`
    /// makes, inserted as the most recently used entry. `fill` is handed
    /// the map, so it can make room before the entry goes in; an error
    /// from it inserts nothing. The flag says whether `key` was a hit.
    pub fn get_or_try_insert_with<E>(
        &mut self,
        key: K,
        fill: impl FnOnce(&mut Self) -> Result<V, E>,
    ) -> Result<(&mut V, bool), E> {
        if let Some(&i) = self.index.get(&key) {
            self.touch(i);
            return Ok((&mut self.entry_mut(i).value, true));
        }
        let value = fill(self)?;
        let i = self.insert_new(key, value);
        Ok((&mut self.entry_mut(i).value, false))
    }

    /// Looks `key` up without touching the recency order.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&i| &self.entry(i).value)
    }

    /// [`LruMap::peek`], mutably.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        Some(&mut self.entry_mut(i).value)
    }

    /// Inserts or replaces `key`, making it the most recently used entry
    /// (a pinned entry stays pinned), and returns the value it replaced.
    /// Never evicts: see [`LruMap::evict`].
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&i) = self.index.get(&key) {
            self.touch(i);
            return Some(std::mem::replace(&mut self.entry_mut(i).value, value));
        }
        self.insert_new(key, value);
        None
    }

    /// Inserts an absent `key` as the most recently used entry and returns
    /// its slot.
    fn insert_new(&mut self, key: K, value: V) -> usize {
        let entry = Entry {
            key,
            value,
            prev: NIL,
            next: NIL,
            pinned: false,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(entry);
                i
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.index.insert(key, i);
        self.link_mru(i);
        i
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        Some(self.take(i).1)
    }

    /// The key [`LruMap::pop_lru`] would remove.
    pub fn peek_lru(&self) -> Option<&K> {
        match self.head {
            NIL => None,
            h => Some(&self.entry(h).key),
        }
    }

    /// Removes and returns the least recently used unpinned entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.head == NIL {
            return None;
        }
        let (key, value) = self.take(self.head);
        self.index.remove(&key);
        Some((key, value))
    }

    /// [`LruMap::pop_lru`] while the map is over capacity; `None` once it
    /// fits, or when everything left is pinned.
    pub fn evict(&mut self) -> Option<(K, V)> {
        if self.len() > self.capacity {
            self.pop_lru()
        } else {
            None
        }
    }

    /// Takes `key` off the recency list: it stays in the map and is never
    /// a victim until unpinned. No-op when absent or already pinned.
    pub fn pin(&mut self, key: &K) {
        if let Some(&i) = self.index.get(key) {
            if !self.entry(i).pinned {
                self.unlink(i);
                self.entry_mut(i).pinned = true;
            }
        }
    }

    /// Returns a pinned `key` to the recency list as the most recently
    /// used entry. No-op when absent or not pinned.
    pub fn unpin(&mut self, key: &K) {
        if let Some(&i) = self.index.get(key) {
            self.unpin_slot(i);
        }
    }

    fn unpin_slot(&mut self, i: usize) {
        if self.entry(i).pinned {
            self.entry_mut(i).pinned = false;
            self.link_mru(i);
        }
    }

    /// [`LruMap::unpin`] for every pinned entry, in slab order (which the
    /// sequence of operations alone determines, so runs repeat).
    pub fn unpin_all(&mut self) {
        for i in 0..self.slots.len() {
            if self.slots[i].is_some() {
                self.unpin_slot(i);
            }
        }
    }

    /// Every entry, pinned or not, in slab order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().flatten().map(|e| (&e.key, &e.value))
    }

    /// [`LruMap::iter`] with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.slots
            .iter_mut()
            .flatten()
            .map(|e| (&e.key, &mut e.value))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The `Vec`-scan LRU every cache used to carry, kept as the oracle:
    /// obviously correct, linear per touch.
    #[derive(Debug, Default)]
    pub(crate) struct VecLru<V> {
        pub(crate) map: HashMap<u32, V>,
        /// Unpinned keys, least recently used first.
        pub(crate) lru: Vec<u32>,
        pub(crate) pinned: Vec<u32>,
    }

    impl<V> VecLru<V> {
        pub(crate) fn new() -> Self {
            VecLru {
                map: HashMap::new(),
                lru: Vec::new(),
                pinned: Vec::new(),
            }
        }

        fn drop_from(list: &mut Vec<u32>, key: u32) -> bool {
            match list.iter().position(|&k| k == key) {
                Some(pos) => {
                    list.remove(pos);
                    true
                }
                None => false,
            }
        }

        pub(crate) fn touch(&mut self, key: u32) {
            if Self::drop_from(&mut self.lru, key) {
                self.lru.push(key);
            }
        }

        pub(crate) fn get(&mut self, key: u32) -> Option<&V> {
            self.touch(key);
            self.map.get(&key)
        }

        pub(crate) fn insert(&mut self, key: u32, value: V) -> Option<V> {
            let old = self.map.insert(key, value);
            if old.is_none() {
                self.lru.push(key);
            } else {
                self.touch(key);
            }
            old
        }

        pub(crate) fn remove(&mut self, key: u32) -> Option<V> {
            let _ = Self::drop_from(&mut self.lru, key) || Self::drop_from(&mut self.pinned, key);
            self.map.remove(&key)
        }

        pub(crate) fn pop_lru(&mut self) -> Option<(u32, V)> {
            if self.lru.is_empty() {
                return None;
            }
            let key = self.lru.remove(0);
            let value = self.map.remove(&key).expect("listed key is mapped");
            Some((key, value))
        }

        pub(crate) fn pin(&mut self, key: u32) {
            if Self::drop_from(&mut self.lru, key) {
                self.pinned.push(key);
            }
        }

        pub(crate) fn unpin(&mut self, key: u32) {
            if Self::drop_from(&mut self.pinned, key) {
                self.lru.push(key);
            }
        }
    }

    pub(crate) fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// The recency list walked from the least recently used end.
    fn order<V>(lru: &LruMap<u32, V>) -> Vec<u32> {
        let mut out = Vec::new();
        let (mut i, mut prev) = (lru.head, NIL);
        while i != NIL {
            let e = lru.entry(i);
            assert_eq!(e.prev, prev, "back link of {}", e.key);
            assert!(!e.pinned, "pinned entry {} is on the list", e.key);
            out.push(e.key);
            prev = i;
            i = e.next;
        }
        assert_eq!(lru.tail, prev);
        out
    }

    fn check_against(lru: &LruMap<u32, u64>, model: &VecLru<u64>) {
        assert_eq!(order(lru), model.lru);
        assert_eq!(lru.len(), model.map.len());
        assert_eq!(lru.len(), model.lru.len() + model.pinned.len());
        assert_eq!(lru.peek_lru(), model.lru.first());
        for (k, v) in lru.iter() {
            assert_eq!(model.map.get(k), Some(v));
        }
        assert_eq!(lru.iter().count(), model.map.len());
        assert_eq!(lru.slots.len(), lru.len() + lru.free.len());
    }

    fn run_model(seed: u64, capacity: usize, keys: u64, ops: usize) {
        let mut lru = LruMap::<u32, u64>::new(capacity);
        let mut model = VecLru::<u64>::new();
        let mut rng = seed;
        for step in 0..ops {
            let r = splitmix64(&mut rng);
            let key = (r >> 8) as u32 % keys as u32;
            match r % 18 {
                0..=4 => {
                    assert_eq!(lru.insert(key, r), model.insert(key, r), "step {step}");
                    loop {
                        let want = (model.map.len() > capacity)
                            .then(|| model.pop_lru())
                            .flatten();
                        assert_eq!(lru.evict(), want, "step {step}");
                        if want.is_none() {
                            break;
                        }
                    }
                }
                5..=8 => assert_eq!(lru.get(&key), model.get(key), "step {step}"),
                9 => assert_eq!(lru.peek(&key), model.map.get(&key), "step {step}"),
                10 => assert_eq!(lru.remove(&key), model.remove(key), "step {step}"),
                11 | 12 => {
                    lru.pin(&key);
                    model.pin(key);
                }
                13 => {
                    lru.unpin(&key);
                    model.unpin(key);
                }
                14 => assert_eq!(lru.pop_lru(), model.pop_lru(), "step {step}"),
                15 => {
                    if let Some(v) = lru.get_mut(&key) {
                        *v ^= 2;
                    }
                    if let Some(v) = model.get(key).copied() {
                        model.map.insert(key, v ^ 2);
                    }
                }
                16 => {
                    // A fill that makes room first (as the buffer pool's
                    // miss does), or fails and inserts nothing.
                    let fails = r & 0x100 != 0;
                    let mut popped = Vec::new();
                    let got = lru.get_or_try_insert_with(key, |lru| {
                        if fails {
                            return Err(());
                        }
                        while lru.len() >= capacity {
                            match lru.pop_lru() {
                                Some(victim) => popped.push(victim),
                                None => break,
                            }
                        }
                        Ok(r)
                    });
                    let want = match model.get(key).copied() {
                        Some(v) => Ok((v, true)),
                        None if fails => Err(()),
                        None => {
                            let mut want_popped = Vec::new();
                            while model.map.len() >= capacity {
                                match model.pop_lru() {
                                    Some(victim) => want_popped.push(victim),
                                    None => break,
                                }
                            }
                            assert_eq!(popped, want_popped, "step {step}");
                            model.insert(key, r);
                            Ok((r, false))
                        }
                    };
                    assert_eq!(got.map(|(v, hit)| (*v, hit)), want, "step {step}");
                }
                _ => {
                    if let Some(v) = lru.peek_mut(&key) {
                        *v ^= 1;
                        *model.map.get_mut(&key).expect("same keys") ^= 1;
                    }
                }
            }
            check_against(&lru, &model);
        }
    }

    #[test]
    fn matches_the_vec_scan_oracle_under_random_ops() {
        for seed in 0..8 {
            run_model(seed, 16, 48, 4_000);
        }
        // Tiny and roomy bounds, so both "always evicting" and "never
        // evicting" are covered.
        run_model(100, 1, 8, 2_000);
        run_model(101, 1_000, 64, 2_000);
    }

    #[test]
    fn an_unbounded_capacity_allocates_nothing_up_front() {
        // What the benchmark's layer pass hands `enable_node_cache` and
        // `RecordStore::create` to mean "never evict".
        let mut lru = LruMap::<u32, u64>::new(usize::MAX >> 1);
        assert_eq!(lru.index.capacity(), 0);
        assert_eq!(lru.slots.capacity(), 0);
        assert_eq!(lru.free.capacity(), 0);
        for k in 0..100 {
            lru.insert(k, 0);
            assert_eq!(lru.evict(), None);
        }
        assert!(lru.slots.capacity() < 1_000, "grows with what it holds");
        run_model(7, usize::MAX >> 1, 32, 2_000);
    }

    #[test]
    fn unpin_all_returns_entries_in_slab_order() {
        let mut lru = LruMap::<u32, u64>::new(2);
        for k in [3, 1, 2, 0] {
            lru.insert(k, 0);
            lru.pin(&k);
        }
        assert_eq!(
            lru.evict(),
            None,
            "over capacity, but every entry is pinned"
        );
        assert_eq!(lru.peek_lru(), None);
        lru.insert(9, 0);
        lru.unpin_all();
        assert_eq!(order(&lru), vec![9, 3, 1, 2, 0]);
        assert_eq!(lru.evict(), Some((9, 0)));
    }
}
