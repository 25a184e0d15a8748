//! The node cache: a bounded, sharded LRU of nodes *as stored*, each
//! carrying the triplets its probes have deciphered so far.
//!
//! The paper's cost model charges every node visit the decipherments the
//! scheme requires; a real engine does not have to pay them twice for the
//! same unchanged page — nor pay for triplets no search ever follows. A
//! miss caches the page's header, raw key fields and triplet cryptograms
//! with no cryptography at all; a probe then deciphers only the slots its
//! search reads and memoises them in the entry, so a repeated point read
//! costs zero physical cryptography and a cold one exactly what the scheme
//! promises (one pointer per node under key substitution, the ~log₂ n
//! triplets of §3's binary search-and-decrypt under Bayer–Metzger). The
//! *logical* operation counters keep reporting the paper's per-scheme
//! cost either way (see [`crate::NodeCodec::probe_cached`]), so every
//! comparative claim stays measurable at any cache size. Only an update,
//! scan or validation — which needs the whole node — deciphers the
//! remainder and recovers the plaintext keys ([`crate::NodeCodec::complete`]),
//! and the entry memoises those keys too: from then on a whole-node visit
//! charges a decode's counters and computes nothing, and range scans and
//! update descents read keys, pointers and children straight from the
//! entry; only a node an update rewrites is built as a [`Node`]
//! ([`CachedNode::to_node`]). Codecs with nothing to be lazy about
//! (whole-page encipherment, plaintext) build their entries complete.
//!
//! The write side is the mirror image: the entry an update has just
//! completed is the image its write replaces, so the tree hands it to the
//! codec ([`crate::NodeCodec::encode_over`]), which copies the stored
//! cryptogram of every triplet the update left unchanged
//! ([`CachedNode::stored_cryptogram`]) and seals only the rest — the bytes
//! a from-scratch seal would produce, because a per-triplet cryptogram is
//! a deterministic function of the block number and the triplet's content.
//! Under key substitution the disguised field of every unchanged key is
//! copied the same way ([`CachedNode::stored_key`]).
//!
//! Keying: an entry is logically keyed by `(page, version)` — the version
//! being "the bytes currently on the page". The tree takes the entry out
//! on every node re-encode and free (the only sites that change a page's
//! version), so an entry is present exactly when it images the page's
//! current content; a stale image can never serve a probe. A re-encode
//! that took an entry out puts back, once the new page is on the medium,
//! the image of that page, which the encoder returned as it wrote it
//! ([`crate::NodeCodec::encode_over`], [`CachedNode::written`]): the key
//! fields and cryptograms it laid down and the plaintext it laid them
//! down from, so it is complete, cost no cryptography and no re-parse of
//! the page, and the next visit deciphers nothing. A write to a block
//! that had no entry caches nothing — writes replace entries, never add
//! them — and a write that fails leaves its block with no entry, so the
//! next visit refills from the medium.
//!
//! Bound and eviction: eight mutex shards, each an [`LruMap`] — the same
//! O(1) recency list every cache in the workspace runs on — holding an
//! eighth of the capacity; a shard over its share drops its least recently
//! used node.
//!
//! Security model: entries live in RAM only. Nothing here ever reaches
//! the medium (the stores below continue to hold only enciphered bytes).
//! A per-triplet scheme's entry filled from the medium holds in plaintext
//! only what searches actually deciphered — the pointers they followed
//! under key substitution, the triplets they crossed under Bayer–Metzger;
//! the rest of the node stays as enciphered as it is on the medium. An
//! entry completed by an update, scan or validation, or put back by a
//! write (its encoder's image), holds its whole node — pointers and
//! plaintext keys — until it is evicted or rewritten. Either way the
//! bound is the capacity: at most that many entries, each at most one
//! whole node, plus at most one entry per tree level that each in-flight
//! range scan or update descent holds (as each held one decoded node per
//! level before entries kept their keys). What an entry
//! holds — memoised triplets, plaintext keys and raw key fields — is
//! zeroized when the last reference drops (eviction, invalidation, cache
//! drop, or the scan moving on), so later heap re-use cannot scrape it out
//! of dead memory.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use sks_storage::{wipe, BlockId, LruMap, Obs, Stage};

use crate::codec::CodecError;
use crate::node::{Node, RecordPtr};

/// One deciphered slot of a [`CachedNode`]. `key` is 0 under schemes that
/// keep the key outside the cryptogram (substitution: it sits disguised in
/// [`CachedNode::raw_keys`]); `child` is 0 in a leaf, and an internal
/// node's lone leftmost-pointer slot carries only `child`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Triplet {
    pub key: u64,
    pub data_ptr: u64,
    pub child: u32,
}

/// A node as stored plus what has been deciphered of it.
///
/// Slots are the page's cryptograms in page order: a leaf's slot `i` is
/// triplet `i`; an internal node's slot 0 is the leftmost tree pointer and
/// slot `i + 1` triplet `i` — so child `c` of an internal node always sits
/// in slot `c`. An entry filled from the medium gives each slot a
/// write-once memo cell that readers sharing the entry through its `Arc`
/// fill without a lock; an entry born whole holds its slots as they are.
#[derive(Debug)]
pub struct CachedNode {
    id: BlockId,
    is_leaf: bool,
    /// Length in bytes of the page this node images (page-wide schemes
    /// charge decryptions proportional to it).
    page_len: usize,
    /// The key fields the codec's in-node search compares, in triplet
    /// order, contiguous: as stored where the scheme keeps them outside
    /// the cryptograms (disguised under substitution), empty where they
    /// are sealed inside (Bayer–Metzger).
    raw_keys: Vec<u64>,
    /// The slots' cryptograms as stored, back to back, `sealed_len` bytes
    /// each. Empty for a whole-page or plaintext scheme's entry.
    sealed: Vec<u8>,
    sealed_len: usize,
    memo: Slots,
    /// The plaintext keys in triplet order, memoised by the first
    /// completion ([`CachedNode::fill_keys`]) or by a write's image. Set
    /// only once every slot is memoised, so "keys known" is "complete".
    keys: OnceLock<Vec<u64>>,
    /// Where the time of each physical unseal is recorded (off unless the
    /// tree installs its channel, see [`CachedNode::timed`]).
    obs: Obs,
}

/// A [`CachedNode`]'s deciphered slots. An entry filled from the medium
/// starts with every cell empty and its probes fill them; an entry born
/// whole — a write's image, a whole-page or plaintext decode — knows every
/// slot at once and holds them in a plain slice, which costs no per-slot
/// cell set-up to build and no cell walk to read or wipe.
#[derive(Debug)]
enum Slots {
    Lazy(Box<[OnceLock<Triplet>]>),
    Whole(Box<[Triplet]>),
}

impl Slots {
    fn len(&self) -> usize {
        match self {
            Slots::Lazy(cells) => cells.len(),
            Slots::Whole(slots) => slots.len(),
        }
    }

    /// The content of `slot`, if it is known.
    #[inline]
    fn get(&self, slot: usize) -> Option<Triplet> {
        match self {
            Slots::Lazy(cells) => cells.get(slot)?.get().copied(),
            Slots::Whole(slots) => slots.get(slot).copied(),
        }
    }
}

/// The `unseal` argument for entries born complete, whose slots never
/// need one.
pub fn never_sealed(_: &[u8]) -> Result<Triplet, CodecError> {
    Err(CodecError::Corrupt(
        "cache entry slot holds neither a triplet nor a cryptogram".into(),
    ))
}

impl CachedNode {
    /// A lazy entry: the node as stored, nothing deciphered. `sealed`
    /// holds one `sealed_len`-byte cryptogram per slot.
    pub fn sealed(
        id: BlockId,
        is_leaf: bool,
        page_len: usize,
        raw_keys: Vec<u64>,
        sealed: Vec<u8>,
        sealed_len: usize,
    ) -> Self {
        let slots = sealed.len().checked_div(sealed_len).unwrap_or(0);
        CachedNode {
            id,
            is_leaf,
            page_len,
            raw_keys,
            sealed,
            sealed_len,
            memo: Slots::Lazy((0..slots).map(|_| OnceLock::new()).collect()),
            keys: OnceLock::new(),
            obs: Obs::default(),
        }
    }

    /// The image of the page an encoder has just written from `node`,
    /// born whole: the key fields and cryptograms it laid down (`raw_keys`,
    /// and `sealed`, `sealed_len` bytes per slot), each slot in page order
    /// what unsealing its cryptogram returns (`slots`), and — when
    /// `keys_known`, that is when recovering the key fields gives back the
    /// node's keys — the node's keys memoised. Otherwise the first
    /// completion recovers them.
    pub fn written(
        node: &Node,
        page_len: usize,
        raw_keys: Vec<u64>,
        sealed: Vec<u8>,
        sealed_len: usize,
        slots: impl Iterator<Item = Triplet>,
        keys_known: bool,
    ) -> Self {
        CachedNode {
            id: node.id,
            is_leaf: node.is_leaf(),
            page_len,
            raw_keys,
            sealed,
            sealed_len,
            memo: Slots::Whole(slots.collect()),
            keys: keys_known
                .then(|| node.keys.clone())
                .map_or_else(OnceLock::new, OnceLock::from),
            obs: Obs::default(),
        }
    }

    /// An entry born complete from a plaintext `node` (codecs that
    /// decipher a page all at once, or write it in the clear): every slot
    /// known, no sealed image, the node's own keys as the search keys.
    pub fn complete(node: &Node, page_len: usize) -> Self {
        let keys = node.keys.clone();
        Self::written(node, page_len, keys, Vec::new(), 0, node.slots(), true)
    }

    /// Records every physical unseal this entry performs from now on as a
    /// [`Stage::NodeUnseal`] sample on `obs`. The clock is read only when
    /// a cryptogram is actually deciphered, never on a memoised slot.
    pub(crate) fn timed(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    pub fn id(&self) -> BlockId {
        self.id
    }

    pub fn is_leaf(&self) -> bool {
        self.is_leaf
    }

    /// Number of triplets `n`.
    pub fn n(&self) -> usize {
        self.slots().saturating_sub(self.key_slot(0))
    }

    /// Number of slots (cryptograms on the page): `n`, plus the leftmost
    /// pointer of an internal node.
    pub fn slots(&self) -> usize {
        self.memo.len()
    }

    /// The slot of triplet `i`.
    fn key_slot(&self, i: usize) -> usize {
        i + usize::from(!self.is_leaf)
    }

    pub fn page_len(&self) -> usize {
        self.page_len
    }

    pub fn raw_keys(&self) -> &[u64] {
        &self.raw_keys
    }

    /// The plaintext keys in triplet order, once the entry is complete
    /// ([`CachedNode::fill_keys`]): `Some` means every slot is memoised,
    /// so a visit that finds them deciphers nothing.
    #[inline]
    pub fn keys(&self) -> Option<&[u64]> {
        self.keys.get().map(Vec::as_slice)
    }

    /// The deciphered content of `slot`. The first call on a slot hands
    /// its cryptogram to `unseal` and memoises the answer; later calls —
    /// from any thread sharing the entry — are served from the memo. A
    /// failed unseal is returned and never memoised.
    #[inline]
    pub fn triplet(
        &self,
        slot: usize,
        unseal: impl FnOnce(&[u8]) -> Result<Triplet, CodecError>,
    ) -> Result<Triplet, CodecError> {
        // The memoised case is the whole hot path of a cached search: keep
        // it a load and a copy, with the first touch out of line.
        match self.memo.get(slot) {
            Some(t) => Ok(t),
            None => self.unseal_slot(slot, unseal, &mut self.obs.start()),
        }
    }

    /// First touch of `slot`: deciphers its cryptogram and memoises the
    /// answer, closing one [`Stage::NodeUnseal`] sample that runs from
    /// `clock` ([`Obs::lap`]).
    #[cold]
    fn unseal_slot(
        &self,
        slot: usize,
        unseal: impl FnOnce(&[u8]) -> Result<Triplet, CodecError>,
        clock: &mut Option<Instant>,
    ) -> Result<Triplet, CodecError> {
        let missing = || CodecError::Corrupt(format!("node {} has no slot {slot}", self.id));
        // A whole entry knows every slot it has.
        let Slots::Lazy(cells) = &self.memo else {
            return Err(missing());
        };
        let cell = cells.get(slot).ok_or_else(missing)?;
        let at = slot * self.sealed_len;
        let ct = self.sealed.get(at..at + self.sealed_len);
        let t = unseal(ct.ok_or_else(missing)?)?;
        self.obs.lap(Stage::NodeUnseal, clock);
        // Readers racing to this point deciphered the same cryptogram to
        // the same triplet; whichever `set` lands, the cell holds it.
        let _ = cell.set(t);
        Ok(t)
    }

    /// Completes the entry and returns its plaintext keys: every slot not
    /// yet memoised is unsealed (and memoised) first, then `key_of(i, t)`
    /// gives triplet `i`'s key from its slot's content `t` — codecs that
    /// keep keys outside the cryptograms recover them from
    /// [`CachedNode::raw_keys`] — and the keys are memoised, so later
    /// calls return them at once. The first failure is returned and
    /// nothing after it runs: no key is memoised unless all are.
    pub fn fill_keys(
        &self,
        mut unseal: impl FnMut(&[u8]) -> Result<Triplet, CodecError>,
        mut key_of: impl FnMut(usize, &Triplet) -> Result<u64, CodecError>,
    ) -> Result<&[u64], CodecError> {
        if let Some(keys) = self.keys() {
            return Ok(keys);
        }
        // One clock read per slot deciphered: each sample starts where the
        // previous one ended, so together they time the whole loop.
        let mut clock = None;
        if let Slots::Lazy(cells) = &self.memo {
            for (slot, cell) in cells.iter().enumerate() {
                if cell.get().is_none() {
                    clock = clock.or_else(|| self.obs.start());
                    self.unseal_slot(slot, &mut unseal, &mut clock)?;
                }
            }
        }
        let mut keys = Vec::with_capacity(self.n());
        for i in 0..self.n() {
            match self
                .triplet(self.key_slot(i), never_sealed)
                .and_then(|t| key_of(i, &t))
            {
                Ok(key) => keys.push(key),
                Err(e) => {
                    wipe::words(&mut keys);
                    return Err(e);
                }
            }
        }
        // A reader that raced here memoised the same keys: wipe the copy.
        if let Err(mut lost) = self.keys.set(keys) {
            wipe::words(&mut lost);
        }
        Ok(self.keys().unwrap_or_default())
    }

    /// The data pointer of triplet `i`, once its slot is memoised.
    #[inline]
    pub fn data_ptr(&self, i: usize) -> Option<RecordPtr> {
        let t = self.memo.get(self.key_slot(i))?;
        Some(RecordPtr(t.data_ptr))
    }

    /// Child `c` of an internal node, once its slot is memoised.
    #[inline]
    pub fn child(&self, c: usize) -> Option<BlockId> {
        let t = self.memo.get(c).filter(|_| !self.is_leaf)?;
        Some(BlockId(t.child))
    }

    /// The plaintext node of a complete entry, built from its memos with
    /// no cryptography; an entry not yet complete is an error.
    pub fn to_node(&self) -> Result<Node, CodecError> {
        let incomplete = || CodecError::Corrupt(format!("node {} is not complete", self.id));
        let keys = self.keys().ok_or_else(incomplete)?;
        let mut node = Node {
            id: self.id,
            keys: keys.to_vec(),
            data_ptrs: Vec::with_capacity(keys.len()),
            children: Vec::with_capacity(if self.is_leaf { 0 } else { self.slots() }),
        };
        let first_key = self.key_slot(0);
        match &self.memo {
            Slots::Whole(slots) => {
                let keyed = slots.get(first_key..).unwrap_or_default();
                node.data_ptrs
                    .extend(keyed.iter().map(|t| RecordPtr(t.data_ptr)));
                if !self.is_leaf {
                    node.children.extend(slots.iter().map(|t| BlockId(t.child)));
                }
            }
            Slots::Lazy(cells) => {
                for (slot, cell) in cells.iter().enumerate() {
                    let t = cell.get().ok_or_else(incomplete)?;
                    if !self.is_leaf {
                        node.children.push(BlockId(t.child));
                    }
                    if slot >= first_key {
                        node.data_ptrs.push(RecordPtr(t.data_ptr));
                    }
                }
            }
        }
        Ok(node)
    }

    /// The stored `len`-byte cryptogram of the first slot at or after
    /// `*from` that was deciphered to exactly `want`, advancing `*from`
    /// past it — so successive calls match a rewritten node's slots against
    /// this image in page (key) order, through insert and delete shifts.
    /// `None`, and `*from` unmoved, when no such slot remains: a slot never
    /// deciphered, or whose unseal failed, matches nothing, and an entry
    /// born complete (or of another cryptogram width) stores none.
    #[inline]
    pub fn stored_cryptogram(&self, from: &mut usize, want: &Triplet, len: usize) -> Option<&[u8]> {
        if self.sealed_len != len {
            return None;
        }
        let at = match &self.memo {
            Slots::Lazy(cells) => cells
                .get(*from..)?
                .iter()
                .position(|c| c.get() == Some(want)),
            Slots::Whole(slots) => slots.get(*from..)?.iter().position(|t| t == want),
        };
        let slot = *from + at?;
        let ct = self.sealed.get(slot * len..(slot + 1) * len)?;
        *from = slot + 1;
        Some(ct)
    }

    /// The stored key field of the first triplet at or after `*from` whose
    /// memoised plaintext key is `key`, advancing `*from` past it — so a
    /// rewritten node's keys, ascending, are matched against this image in
    /// key order, as [`CachedNode::stored_cryptogram`] matches slots. The
    /// walk stops at the first larger key. `None`, and `*from` unmoved,
    /// when no such triplet remains, the keys are not memoised, or the
    /// scheme keeps its keys inside the cryptograms.
    #[inline]
    pub fn stored_key(&self, from: &mut usize, key: u64) -> Option<u64> {
        let keys = self.keys()?;
        let i = *from + keys.get(*from..)?.iter().take_while(|&&k| k < key).count();
        if keys.get(i) != Some(&key) {
            return None;
        }
        let raw = *self.raw_keys.get(i)?;
        *from = i + 1;
        Some(raw)
    }

    /// Zeroes everything deciphered or key-derived in place (the sealed
    /// image is ciphertext, as public as the medium).
    fn scrub(&mut self) {
        match &mut self.memo {
            Slots::Lazy(cells) => {
                for t in cells.iter_mut().filter_map(OnceLock::get_mut) {
                    wipe::words(std::slice::from_mut(t));
                }
            }
            Slots::Whole(slots) => wipe::words(slots),
        }
        if let Some(keys) = self.keys.get_mut() {
            wipe::words(keys);
        }
        wipe::words(&mut self.raw_keys);
    }
}

impl Drop for CachedNode {
    fn drop(&mut self) {
        self.scrub();
    }
}

type Shard = LruMap<u32, Arc<CachedNode>>;

/// Sharded LRU over cached nodes. Interior-mutable so the read path can
/// fill it behind `&self`; shards keep lock hold times short when several
/// readers share one tree.
#[derive(Debug)]
pub struct NodeCache {
    shards: Box<[Mutex<Shard>]>,
}

const SHARDS: usize = 8;

impl NodeCache {
    /// A cache holding at most `capacity` nodes (rounded up to a
    /// multiple of the shard count, and at least one node per shard: the
    /// floor every tree starts at).
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

    /// Returns the cached image of `id`, if present.
    pub fn get(&self, id: BlockId) -> Option<Arc<CachedNode>> {
        self.shard(id).get(&id.0).map(Arc::clone)
    }

    /// Inserts (or replaces) the image of `id`, evicting the least
    /// recently used entry of the shard when full.
    pub fn insert(&self, id: BlockId, entry: impl Into<Arc<CachedNode>>) {
        let mut shard = self.shard(id);
        shard.insert(id.0, entry.into());
        while shard.evict().is_some() {}
    }

    /// Drops the entry for `id` (node re-encoded or freed) and returns it:
    /// it images the page about to be replaced. What it had deciphered is
    /// zeroized when the last outstanding reference drops.
    pub fn invalidate(&self, id: BlockId) -> Option<Arc<CachedNode>> {
        self.shard(id).remove(&id.0)
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn entry(id: u32, key: u64) -> CachedNode {
        let node = Node {
            id: BlockId(id),
            keys: vec![key],
            data_ptrs: vec![RecordPtr(key * 10)],
            children: vec![],
        };
        CachedNode::complete(&node, 256)
    }

    /// A lazy internal node with keys 10, 20, 30 whose "cryptograms" are
    /// the slot number: the test unseal maps slot `s` to a triplet derived
    /// from it and counts how often it runs.
    fn lazy_internal() -> CachedNode {
        let sealed = (0u8..4).collect();
        CachedNode::sealed(BlockId(7), false, 256, vec![10, 20, 30], sealed, 1)
    }

    /// The node [`lazy_internal`] deciphers to: slot `s` holds child
    /// `s + 40`, and triplet `i` data pointer `100 (i + 1)`.
    fn internal() -> Node {
        Node {
            id: BlockId(7),
            keys: vec![10, 20, 30],
            data_ptrs: [100, 200, 300].map(RecordPtr).to_vec(),
            children: [40, 41, 42, 43].map(BlockId).to_vec(),
        }
    }

    fn unseal_counting(calls: &AtomicUsize) -> impl Fn(&[u8]) -> Result<Triplet, CodecError> + '_ {
        move |ct| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(Triplet {
                key: u64::from(ct[0]) * 10,
                data_ptr: u64::from(ct[0]) * 100,
                child: u32::from(ct[0]) + 40,
            })
        }
    }

    /// The whole node of `e`: completed through `unseal`, its keys read
    /// from the slots.
    fn whole(
        e: &CachedNode,
        unseal: impl FnMut(&[u8]) -> Result<Triplet, CodecError>,
    ) -> Result<Node, CodecError> {
        e.fill_keys(unseal, |_, t| Ok(t.key))?;
        e.to_node()
    }

    #[test]
    fn hit_miss_and_invalidate() {
        let cache = NodeCache::new(16);
        assert!(cache.get(BlockId(3)).is_none());
        cache.insert(BlockId(3), entry(3, 7));
        let got = cache.get(BlockId(3)).unwrap();
        assert_eq!(got.raw_keys(), [7]);
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
        assert_eq!(cache.get(BlockId(4)).unwrap().raw_keys(), [2]);
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
                _ => drop(cache.invalidate(BlockId(id))),
            }
            assert_eq!(cache.len(), model.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn a_slot_is_unsealed_once_and_completion_unseals_only_the_remainder() {
        let calls = AtomicUsize::new(0);
        let e = lazy_internal();
        assert_eq!((e.n(), e.slots(), e.key_slot(1)), (3, 4, 2));
        let t = e.triplet(2, unseal_counting(&calls)).unwrap();
        assert_eq!((t.data_ptr, t.child), (200, 42));
        assert_eq!(e.triplet(2, unseal_counting(&calls)).unwrap(), t);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "memoised after the first");

        let node = whole(&e, unseal_counting(&calls)).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 4, "the three other slots");
        assert_eq!(node.keys, vec![10, 20, 30]);
        assert_eq!(node.data_ptrs, [100, 200, 300].map(RecordPtr));
        assert_eq!(node.children, [40, 41, 42, 43].map(BlockId));
        assert_eq!(whole(&e, never_sealed).unwrap(), node, "complete now");
    }

    #[test]
    fn keys_are_memoised_whole_and_lend_their_fields_in_key_order() {
        let calls = AtomicUsize::new(0);
        let e = lazy_internal();
        let tenth = |i: usize, _: &Triplet| Ok([10, 20, 30][i] / 10);
        // A failed recovery memoises no key, though every slot is unsealed.
        let failed = e.fill_keys(unseal_counting(&calls), |i, t| match i {
            2 => Err(CodecError::Corrupt("bad key".into())),
            _ => tenth(i, t),
        });
        assert!(failed.is_err());
        assert_eq!((e.keys(), calls.load(Ordering::Relaxed)), (None, 4));
        assert!(e.to_node().is_err(), "not complete");
        assert_eq!(e.fill_keys(never_sealed, tenth).unwrap(), [1, 2, 3]);
        assert_eq!(e.to_node().unwrap().keys, [1, 2, 3]);
        assert_eq!(e.fill_keys(never_sealed, |_, _| Ok(9)).unwrap(), [1, 2, 3]);

        // The stored field of a memoised key, found at or after the cursor.
        let mut from = 0;
        assert_eq!(e.stored_key(&mut from, 2), Some(20));
        assert_eq!(e.stored_key(&mut from, 1), None, "behind the cursor");
        assert_eq!(e.stored_key(&mut from, 2), None, "already lent");
        assert_eq!((e.stored_key(&mut from, 3), from), (Some(30), 3));
        assert_eq!(lazy_internal().stored_key(&mut 0, 1), None, "no keys yet");

        // A write's image is whole at birth, and takes the node's keys
        // only when told they are what a completion would recover.
        let (node, sealed) = (internal(), (0u8..4).collect::<Vec<_>>());
        let image = |keys_known| {
            let slots = node.slots().map(|t| Triplet { key: 0, ..t });
            let raw_keys = vec![1, 2, 3];
            CachedNode::written(&node, 256, raw_keys, sealed.clone(), 1, slots, keys_known)
        };
        let written = image(true);
        assert_eq!(written.keys(), Some(&node.keys[..]));
        assert_eq!(written.to_node().unwrap(), node);
        assert_eq!(written.stored_key(&mut 0, 20), Some(2));
        assert_eq!(written.child(3), Some(BlockId(43)));
        let unknown = image(false);
        assert_eq!(
            (unknown.keys(), unknown.data_ptr(1)),
            (None, Some(RecordPtr(200)))
        );
        let t = Triplet {
            key: 0,
            data_ptr: 200,
            child: 42,
        };
        assert_eq!(unknown.stored_cryptogram(&mut 0, &t, 1), Some(&[2u8][..]));
        let recovered = unknown.fill_keys(never_sealed, |i, _| Ok(10 * (i as u64 + 1)));
        assert_eq!(recovered.unwrap(), node.keys, "no unseal needed");
        assert_eq!(unknown.to_node().unwrap(), node);
    }

    #[test]
    fn a_failed_unseal_is_surfaced_and_never_memoised() {
        let calls = AtomicUsize::new(0);
        let e = lazy_internal();
        let err = e.triplet(1, |_| Err(CodecError::Corrupt("bad seal".into())));
        assert_eq!(err, Err(CodecError::Corrupt("bad seal".into())));
        assert!(whole(&e, never_sealed).is_err(), "slot 0 has no memo yet");
        assert_eq!(e.triplet(1, unseal_counting(&calls)).unwrap().child, 41);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "the retry did unseal");
        assert!(e.triplet(4, unseal_counting(&calls)).is_err(), "no slot 4");
    }

    #[test]
    fn an_entry_born_complete_needs_no_unseal() {
        let node = Node {
            id: BlockId(9),
            keys: vec![10, 20],
            data_ptrs: vec![RecordPtr(1), RecordPtr(2)],
            children: vec![BlockId(4), BlockId(5), BlockId(6)],
        };
        let e = CachedNode::complete(&node, 256);
        assert_eq!(
            (e.id(), e.is_leaf(), e.n(), e.slots()),
            (BlockId(9), false, 2, 3)
        );
        assert_eq!(e.triplet(0, never_sealed).unwrap().child, 4);
        assert_eq!(whole(&e, never_sealed).unwrap(), node);
        let leaf = Node::leaf(BlockId(3));
        let e = CachedNode::complete(&leaf, 256);
        assert_eq!((e.n(), e.slots()), (0, 0));
        assert_eq!(whole(&e, never_sealed).unwrap(), leaf);
    }

    #[test]
    fn two_threads_sharing_an_entry_agree_with_one() {
        let expect = whole(&lazy_internal(), unseal_counting(&AtomicUsize::new(0)));
        let expect = expect.unwrap();
        let calls = AtomicUsize::new(0);
        let shared = Arc::new(lazy_internal());
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let probers: Vec<_> = [[0usize, 1, 2, 3], [3, 2, 1, 0]]
                .into_iter()
                .map(|order| {
                    let (entry, start, calls) = (Arc::clone(&shared), &start, &calls);
                    s.spawn(move || {
                        start.wait();
                        order.map(|slot| entry.triplet(slot, unseal_counting(calls)).unwrap())
                    })
                })
                .collect();
            let mut backward = probers.into_iter().map(|p| p.join().expect("prober"));
            let forward = backward.next().unwrap();
            let mut backward = backward.next().unwrap();
            backward.reverse();
            assert_eq!(forward, backward);
            assert_eq!(forward[0].child, expect.children[0].0);
            for (t, i) in forward[1..].iter().zip(0..) {
                assert_eq!((t.key, t.data_ptr), (expect.keys[i], expect.data_ptrs[i].0));
                assert_eq!(t.child, expect.children[i + 1].0);
            }
        });
        let unseals = calls.load(Ordering::Relaxed);
        assert!((4..=8).contains(&unseals), "a lost race may repeat one");
        assert_eq!(whole(&shared, never_sealed).unwrap(), expect);
    }

    #[test]
    fn entries_zeroize_on_drop() {
        // What `Drop` runs (on every eviction above too), run in place so
        // its effect can be read back.
        let mut e = lazy_internal();
        e.triplet(2, unseal_counting(&AtomicUsize::new(0))).unwrap();
        e.scrub();
        assert_eq!(e.triplet(2, never_sealed).unwrap(), Triplet::default());
        assert!(e.raw_keys().iter().all(|&k| k == 0));
        assert!(e.triplet(1, never_sealed).is_err(), "never deciphered");
        assert_eq!(e.keys(), None, "never completed");
        // A completed entry's plaintext keys are zeroed with the rest.
        let mut e = lazy_internal();
        let keys = e.fill_keys(unseal_counting(&AtomicUsize::new(0)), |i, t| {
            Ok(t.key + i as u64)
        });
        assert_eq!(keys.unwrap(), [10, 21, 32]);
        e.scrub();
        assert_eq!(e.keys(), Some(&[0; 3][..]));
        assert!((0..4).all(|s| e.triplet(s, never_sealed) == Ok(Triplet::default())));
        // Entries born whole hold their slots in a plain slice: a write's
        // image, as an encoder builds it, and a plaintext decode's entry.
        let node = internal();
        let slots = node.slots().map(|t| Triplet { key: 0, ..t });
        let image = CachedNode::written(&node, 256, vec![1, 2, 3], vec![9; 4], 1, slots, true);
        for mut e in [image, CachedNode::complete(&node, 256), entry(1, 42)] {
            assert!(e.triplet(e.slots() - 1, never_sealed).unwrap() != Triplet::default());
            e.scrub();
            let zero = (0..e.slots()).all(|s| e.triplet(s, never_sealed) == Ok(Triplet::default()));
            assert!(zero, "every slot");
            assert!(e.keys().unwrap().iter().all(|&k| k == 0), "the keys");
            assert!(e.raw_keys().iter().all(|&k| k == 0), "the raw keys");
        }
    }
}
