//! The plaintext node cache: a bounded, sharded LRU of *decoded* nodes.
//!
//! The paper's cost model charges every node visit the decipherments the
//! scheme requires; a real engine does not have to pay them twice for the
//! same unchanged page. This cache keeps recently probed nodes in their
//! decoded (plaintext) form so a repeated point read costs zero physical
//! cryptography — while the *logical* operation counters keep reporting
//! the paper's per-scheme cost (see [`crate::NodeCodec::probe_cached`]),
//! so every comparative claim stays measurable with the cache on.
//!
//! Keying: an entry is logically keyed by `(page, version)` — the version
//! being "the bytes currently on the page". The tree invalidates eagerly
//! on every node re-encode and free (the only sites that change a page's
//! version), so an entry is present exactly when it decodes the page's
//! current content; a stale plaintext image can never serve a probe.
//!
//! Bound and eviction: eight mutex shards, each an [`LruMap`] — the same
//! O(1) recency list every cache in the workspace runs on — holding an
//! eighth of the capacity; a shard over its share drops its least recently
//! used node.
//!
//! Security model: entries live in RAM only. Nothing here ever reaches
//! the medium (the stores below continue to hold only enciphered bytes),
//! and entry contents are zeroized when the last reference drops
//! (eviction, invalidation, or cache drop), so later heap re-use cannot
//! scrape decoded keys out of dead memory.

use std::sync::{Arc, Mutex, MutexGuard};

use sks_storage::{wipe, BlockId, LruMap};

use crate::node::Node;

/// A decoded node plus the codec-specific sidecar needed to replay a
/// probe's logical cost from RAM (see [`crate::NodeCodec::probe_cached`]).
#[derive(Debug)]
pub struct CachedNode {
    /// The plaintext node.
    pub node: Node,
    /// Raw on-medium key-field values (e.g. disguised keys), for codecs
    /// whose probe path recovers or compares them per step. Empty for
    /// codecs that do not need them.
    pub raw_keys: Vec<u64>,
    /// Length in bytes of the page this node was decoded from (page-wide
    /// schemes charge decryptions proportional to it).
    pub page_len: usize,
}

impl Drop for CachedNode {
    fn drop(&mut self) {
        wipe::words(&mut self.node.keys);
        for p in self.node.data_ptrs.iter_mut() {
            wipe::words(std::slice::from_mut(&mut p.0));
        }
        for c in self.node.children.iter_mut() {
            wipe::words(std::slice::from_mut(&mut c.0));
        }
        wipe::words(&mut self.raw_keys);
    }
}

type Shard = LruMap<u32, Arc<CachedNode>>;

/// Sharded LRU over decoded nodes. Interior-mutable so the read path can
/// fill it behind `&self`; shards keep lock hold times short when several
/// readers share one tree.
#[derive(Debug)]
pub struct NodeCache {
    shards: Box<[Mutex<Shard>]>,
}

const SHARDS: usize = 8;

impl NodeCache {
    /// A cache holding at most `capacity` decoded nodes (rounded up to a
    /// multiple of the shard count).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        NodeCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(LruMap::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, id: BlockId) -> MutexGuard<'_, Shard> {
        self.shards[id.0 as usize % SHARDS]
            .lock()
            .expect("node cache shard")
    }

    /// Returns the cached decoding of `id`, if present.
    pub fn get(&self, id: BlockId) -> Option<Arc<CachedNode>> {
        self.shard(id).get(&id.0).map(Arc::clone)
    }

    /// Inserts (or replaces) the decoding of `id`, evicting the least
    /// recently used entry of the shard when full.
    pub fn insert(&self, id: BlockId, entry: CachedNode) {
        let mut shard = self.shard(id);
        shard.insert(id.0, Arc::new(entry));
        while shard.evict().is_some() {}
    }

    /// Drops the entry for `id` (node re-encoded or freed). The plaintext
    /// is zeroized when the last outstanding reference drops.
    pub fn invalidate(&self, id: BlockId) {
        self.shard(id).remove(&id.0);
    }

    /// Number of cached nodes across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("node cache shard").len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum nodes the cache will hold.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("node cache shard").capacity())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RecordPtr;

    fn entry(id: u32, key: u64) -> CachedNode {
        CachedNode {
            node: Node {
                id: BlockId(id),
                keys: vec![key],
                data_ptrs: vec![RecordPtr(key * 10)],
                children: vec![],
            },
            raw_keys: vec![key ^ 0xAA],
            page_len: 256,
        }
    }

    #[test]
    fn hit_miss_and_invalidate() {
        let cache = NodeCache::new(16);
        assert!(cache.get(BlockId(3)).is_none());
        cache.insert(BlockId(3), entry(3, 7));
        let got = cache.get(BlockId(3)).unwrap();
        assert_eq!(got.node.keys, vec![7]);
        cache.invalidate(BlockId(3));
        assert!(cache.get(BlockId(3)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_is_bounded_lru() {
        let cache = NodeCache::new(8); // 1 per shard
                                       // Ids 0 and 8 share shard 0 whose capacity is 1: the older entry
                                       // is evicted.
        cache.insert(BlockId(0), entry(0, 0));
        cache.insert(BlockId(8), entry(8, 8));
        assert!(cache.get(BlockId(0)).is_none(), "LRU evicted");
        assert!(cache.get(BlockId(8)).is_some());
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn replace_keeps_one_entry_per_page() {
        let cache = NodeCache::new(16);
        cache.insert(BlockId(4), entry(4, 1));
        cache.insert(BlockId(4), entry(4, 2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(BlockId(4)).unwrap().node.keys, vec![2]);
    }

    #[test]
    fn replays_a_trace_exactly_like_the_vec_scan_lru() {
        // The sharded Vec-scan LRU this cache used to be, as the oracle:
        // per shard, resident ids with the least recently used first.
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); SHARDS];
        let cache = NodeCache::new(24); // 3 per shard
        let mut rng = 0x5EED_u64;
        for step in 0..10_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (rng >> 40) as u32 % 64;
            let lru = &mut model[id as usize % SHARDS];
            let resident = lru.iter().position(|&x| x == id).map(|pos| lru.remove(pos));
            match (rng >> 33) % 8 {
                0..=4 => {
                    let hit = cache.get(BlockId(id)).is_some();
                    assert_eq!(hit, resident.is_some(), "step {step}: get {id}");
                    lru.extend(resident);
                }
                5 | 6 => {
                    cache.insert(BlockId(id), entry(id, step));
                    lru.push(id);
                    if lru.len() > 3 {
                        let victim = lru.remove(0);
                        assert!(
                            cache.shard(BlockId(victim)).peek(&victim).is_none(),
                            "step {step}: {victim} should have been evicted"
                        );
                    }
                }
                _ => cache.invalidate(BlockId(id)),
            }
            assert_eq!(cache.len(), model.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn entries_zeroize_on_drop() {
        // The Drop impl wipes in place; this exercises it directly (the
        // wipe also runs on every eviction above).
        let e = entry(1, 42);
        drop(e);
    }
}
