//! The node cache: a bounded, sharded LRU of nodes *as stored*, each
//! carrying what its probes have deciphered so far.
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
//! and the entry keeps those keys too: from then on a whole-node visit
//! charges a decode's counters and computes nothing, and range scans and
//! update descents read keys, pointers and children straight from the
//! entry; only a node an update rewrites is built as a [`Node`]
//! ([`CachedNode::to_node`]). Codecs with nothing to be lazy about
//! (whole-page encipherment, plaintext) build their entries complete.
//!
//! One layout serves every entry, however it was born, and holds each
//! fact once. The stored image is what the page holds, copied as it lies
//! there: the raw key fields the in-node search compares, each beside
//! its slot's cryptogram. The deciphered columns hold one word per slot
//! each — data pointers, tree pointers (internal nodes only) and
//! plaintext keys — beside a bitmap of
//! the slots known and a flag set once the keys are. A fill from the
//! medium starts with no bit set and its probes set them as they decipher
//! slots; a write's image, a whole-page decode and a plaintext decode are
//! born with every bit set. Readers sharing an entry through its `Arc`
//! fill it without a lock: whoever deciphers a slot writes its columns
//! and then sets its bit (Release), and a reader reads a slot's columns
//! only after seeing its bit (Acquire), so it finds a slot unknown or
//! whole, never torn. Racers decipher one cryptogram to the same words.
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
//! level before entries kept their keys). What an entry holds in
//! plaintext — deciphered pointers and children, plaintext keys — is
//! zeroized when the last reference drops (eviction, invalidation, cache
//! drop, or the scan moving on), so later heap re-use cannot scrape it out
//! of dead memory. Only the slots the entry's bitmap marks known are
//! wiped: nothing else was ever written, so an evicted entry that served
//! one probe rewrites a few words, not the whole node. The raw key fields
//! and cryptograms are left as they are: they are the page as it lies on
//! the medium and in the buffer-pool frame it was read from.
//!
//! A miss is filled from the page the store lends ([`crate::BTree`] calls
//! [`sks_storage::BlockStore::read_with`]), on the file backend the pool
//! frame the page was just read into, so the page reaches its entry with
//! one copy of the fields the entry keeps.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use sks_storage::{wipe, BlockId, LruMap, Obs, Stage};

use crate::codec::CodecError;
use crate::node::{Node, RecordPtr, Triplet};

/// A node as stored plus what has been deciphered of it.
///
/// Slots are the page's cryptograms in page order: a leaf's slot `i` is
/// triplet `i`; an internal node's slot 0 is the leftmost tree pointer and
/// slot `i + 1` triplet `i` — so child `c` of an internal node always sits
/// in slot `c`. Every deciphered column is indexed by slot.
#[derive(Debug)]
pub struct CachedNode {
    id: BlockId,
    is_leaf: bool,
    /// Length in bytes of the page this node images (page-wide schemes
    /// charge decryptions proportional to it).
    page_len: usize,
    /// The page's slots as stored, from the first slot on, copied in one
    /// piece: slot by slot its cryptogram, `sealed_len` bytes, and — where
    /// the scheme keeps the key fields the in-node search compares
    /// outside the slots (disguised under substitution) — before each
    /// triplet's cryptogram its 8-byte big-endian key field. An internal
    /// node's leftmost cryptogram has no key field. Empty for a
    /// whole-page or plaintext scheme's entry.
    stored: Vec<u8>,
    /// Whether `stored` holds key fields. Where it does not, a slot's key
    /// is part of its content — sealed inside it (Bayer–Metzger) or
    /// beside it in the clear (plaintext) — and the search compares the
    /// key column.
    key_fields: bool,
    sealed_len: usize,
    /// Plaintext keys. A slot's key is written with its slot where it is
    /// part of the slot's content, and by the completion that recovers
    /// it otherwise; either way it counts as known only once `complete`
    /// is set.
    keys: Box<[AtomicU64]>,
    data_ptrs: Box<[AtomicU64]>,
    /// Tree pointers; empty in a leaf.
    children: Box<[AtomicU32]>,
    /// One bit per slot: its columns hold what it deciphers to.
    known: Box<[AtomicU64]>,
    /// Every slot known and every key with it ([`CachedNode::keys`]).
    complete: AtomicBool,
    /// Where the time of each physical unseal is recorded (off unless the
    /// tree installs its channel, see [`CachedNode::timed`]).
    obs: Obs,
}

/// The `unseal` argument for entries born complete, whose slots never
/// need one.
pub fn never_sealed(_: &[u8]) -> Result<Triplet, CodecError> {
    Err(CodecError::Corrupt("cache entry slot is not sealed".into()))
}

/// Width of a stored key field.
const KEY_FIELD_LEN: usize = 8;

/// Bytes of key field before each triplet's cryptogram in a stored image.
fn key_len(key_fields: bool) -> usize {
    if key_fields {
        KEY_FIELD_LEN
    } else {
        0
    }
}

/// A column of `len` zero words.
fn zeroed<T: Default>(len: usize) -> Box<[T]> {
    (0..len).map(|_| T::default()).collect()
}

/// A bitmap over `slots` slots with every bit set.
fn all_known(slots: usize) -> Box<[AtomicU64]> {
    let word = |w: usize| u64::MAX >> (64 - (slots - 64 * w).min(64));
    (0..slots.div_ceil(64))
        .map(|w| AtomicU64::new(word(w)))
        .collect()
}

impl CachedNode {
    /// A lazy entry: the node as stored, nothing deciphered. `stored`
    /// holds the page's slots, `sealed_len`-byte cryptograms each with a
    /// key field before it where `key_fields` (the layout of the entry's
    /// private `stored` field).
    pub fn sealed(
        id: BlockId,
        is_leaf: bool,
        page_len: usize,
        stored: Vec<u8>,
        key_fields: bool,
        sealed_len: usize,
    ) -> Self {
        // The leftmost cryptogram of an internal node is the one slot
        // without a key field.
        let key_len = key_len(key_fields);
        let lead = if is_leaf { 0 } else { key_len };
        let slots = (stored.len() + lead)
            .checked_div(key_len + sealed_len)
            .unwrap_or(0);
        CachedNode {
            id,
            is_leaf,
            page_len,
            stored,
            key_fields,
            sealed_len,
            keys: zeroed(slots),
            data_ptrs: zeroed(slots),
            children: zeroed(if is_leaf { 0 } else { slots }),
            known: zeroed(slots.div_ceil(64)),
            complete: AtomicBool::new(false),
            obs: Obs::default(),
        }
    }

    /// The image of the page an encoder has just written from `node`,
    /// every slot known: the slots it laid down (`stored`, laid out as
    /// [`CachedNode::sealed`] takes them), each slot what unsealing its
    /// cryptogram returns, and — when `keys_known`, that is when
    /// recovering the key fields gives back the node's keys (always so
    /// where the keys are part of the slots) — the node's keys. Otherwise
    /// the first completion recovers them.
    pub fn written(
        node: &Node,
        page_len: usize,
        stored: Vec<u8>,
        key_fields: bool,
        sealed_len: usize,
        keys_known: bool,
    ) -> Self {
        let lead = || std::iter::repeat_n(0, usize::from(!node.is_leaf()));
        let keys = node.keys.iter().map(|&k| if keys_known { k } else { 0 });
        let data_ptrs = node.data_ptrs.iter().map(|a| a.0);
        CachedNode {
            id: node.id,
            is_leaf: node.is_leaf(),
            page_len,
            stored,
            key_fields,
            sealed_len,
            keys: lead().chain(keys).map(AtomicU64::new).collect(),
            data_ptrs: lead().chain(data_ptrs).map(AtomicU64::new).collect(),
            children: node.children.iter().map(|c| AtomicU32::new(c.0)).collect(),
            known: all_known(node.n() + usize::from(!node.is_leaf())),
            complete: AtomicBool::new(keys_known),
            obs: Obs::default(),
        }
    }

    /// An entry born complete from a plaintext `node` (codecs that
    /// decipher a page all at once, or write it in the clear): every slot
    /// known, no stored columns, the node's keys the ones searches compare.
    pub fn complete(node: &Node, page_len: usize) -> Self {
        Self::written(node, page_len, Vec::new(), false, 0, true)
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
        self.data_ptrs.len()
    }

    /// The slot of triplet `i`.
    fn key_slot(&self, i: usize) -> usize {
        i + usize::from(!self.is_leaf)
    }

    pub fn page_len(&self) -> usize {
        self.page_len
    }

    /// Where `slot`'s cryptogram starts in the stored image.
    fn sealed_at(&self, slot: usize) -> usize {
        let key_len = key_len(self.key_fields);
        let lead = if self.is_leaf { key_len } else { 0 };
        slot * (key_len + self.sealed_len) + lead
    }

    /// The stored cryptogram of `slot`, if the entry stores one.
    fn cryptogram(&self, slot: usize) -> Option<&[u8]> {
        let at = self.sealed_at(slot);
        let ct = self.stored.get(at..at + self.sealed_len)?;
        (slot < self.slots()).then_some(ct)
    }

    /// The raw key field of triplet `i`, where the scheme keeps key fields
    /// outside the slots: what the in-node search compares.
    #[inline]
    pub fn raw_key(&self, i: usize) -> Option<u64> {
        if !self.key_fields || i >= self.n() {
            return None;
        }
        let at = self.sealed_at(self.key_slot(i)) - KEY_FIELD_LEN;
        let field = self.stored.get(at..at + KEY_FIELD_LEN)?;
        Some(u64::from_be_bytes(field.try_into().expect("8-byte field")))
    }

    /// Every raw key field, in triplet order ([`CachedNode::raw_key`]);
    /// none where the keys are part of the slots.
    pub fn raw_keys(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.n()).map_while(|i| self.raw_key(i))
    }

    /// Whether a slot's key is part of its content: the scheme keeps no
    /// key fields outside the slots.
    fn keys_in_slots(&self) -> bool {
        !self.key_fields
    }

    /// The plaintext keys in triplet order, once the entry is complete
    /// ([`CachedNode::fill_keys`]): `Some` means every slot is known, so
    /// a visit that finds them deciphers nothing.
    #[inline]
    pub fn keys(&self) -> Option<Keys<'_>> {
        let keys = || Keys(self.keys.get(self.key_slot(0)..).unwrap_or_default());
        self.complete.load(Acquire).then(keys)
    }

    /// The content of `slot` read off the columns, if it is known.
    #[inline]
    fn content(&self, slot: usize) -> Option<Triplet> {
        if self.known.get(slot / 64)?.load(Acquire) >> (slot % 64) & 1 == 0 {
            return None;
        }
        Some(Triplet {
            key: match self.keys_in_slots() {
                true => self.keys[slot].load(Relaxed),
                false => 0,
            },
            data_ptr: self.data_ptrs[slot].load(Relaxed),
            child: self.children.get(slot).map_or(0, |c| c.load(Relaxed)),
        })
    }

    /// The deciphered content of `slot`. The first call on a slot hands
    /// its cryptogram to `unseal` and memoises the answer; later calls —
    /// from any thread sharing the entry — read it back. A failed unseal
    /// is returned and never memoised.
    #[inline]
    pub fn triplet(
        &self,
        slot: usize,
        unseal: impl FnOnce(&[u8]) -> Result<Triplet, CodecError>,
    ) -> Result<Triplet, CodecError> {
        // The memoised case is the whole hot path of a cached search: keep
        // it a bit test and three loads, with the first touch out of line.
        match self.content(slot) {
            Some(t) => Ok(t),
            None => self.unseal_slot(slot, unseal, &mut self.obs.start()),
        }
    }

    /// First touch of `slot`: deciphers its cryptogram, writes the answer
    /// into the columns and then marks the slot known, closing one
    /// [`Stage::NodeUnseal`] sample that runs from `clock` ([`Obs::lap`]).
    /// An answer with a field the layout keeps no column for — a tree
    /// pointer in a leaf, a key where keys sit outside the slots — only a
    /// damaged cryptogram gives: it is returned but never memoised, so
    /// the slot lends nothing to a write and completes no node.
    #[cold]
    fn unseal_slot(
        &self,
        slot: usize,
        unseal: impl FnOnce(&[u8]) -> Result<Triplet, CodecError>,
        clock: &mut Option<Instant>,
    ) -> Result<Triplet, CodecError> {
        let missing = || CodecError::Corrupt(format!("node {} has no slot {slot}", self.id));
        let t = unseal(self.cryptogram(slot).ok_or_else(missing)?)?;
        self.obs.lap(Stage::NodeUnseal, clock);
        let fits = (t.child == 0 || !self.is_leaf) && (t.key == 0 || self.keys_in_slots());
        if fits {
            if self.keys_in_slots() {
                self.keys[slot].store(t.key, Relaxed);
            }
            self.data_ptrs[slot].store(t.data_ptr, Relaxed);
            if let Some(child) = self.children.get(slot) {
                child.store(t.child, Relaxed);
            }
            // Release, after the columns: a reader that sees the bit
            // (Acquire, in `content`) sees them too.
            self.known[slot / 64].fetch_or(1 << (slot % 64), Release);
        }
        Ok(t)
    }

    /// Completes the entry and returns its plaintext keys: every slot not
    /// yet known is unsealed (and memoised) first, then `key_of(i, t)`
    /// gives triplet `i`'s key from its slot's content `t` — codecs that
    /// keep keys outside the cryptograms recover them from
    /// [`CachedNode::raw_key`] — and the entry is marked complete, so
    /// later calls return the keys at once. The first failure is returned
    /// and nothing after it runs: the keys count as known only once all
    /// are.
    pub fn fill_keys(
        &self,
        mut unseal: impl FnMut(&[u8]) -> Result<Triplet, CodecError>,
        mut key_of: impl FnMut(usize, &Triplet) -> Result<u64, CodecError>,
    ) -> Result<Keys<'_>, CodecError> {
        if let Some(keys) = self.keys() {
            return Ok(keys);
        }
        // One clock read per slot deciphered: each sample starts where the
        // previous one ended, so together they time the whole loop.
        let mut clock = None;
        for slot in 0..self.slots() {
            if self.content(slot).is_none() {
                clock = clock.or_else(|| self.obs.start());
                self.unseal_slot(slot, &mut unseal, &mut clock)?;
            }
        }
        for slot in 0..self.slots() {
            let stray = || CodecError::Corrupt(format!("node {} slot {slot} is stray", self.id));
            let t = self.content(slot).ok_or_else(stray)?;
            if let Some(i) = slot.checked_sub(self.key_slot(0)) {
                self.keys[slot].store(key_of(i, &t)?, Relaxed);
            }
        }
        // Release, after every key: pairs with the Acquire in `keys`.
        self.complete.store(true, Release);
        Ok(self.keys().unwrap_or_default())
    }

    /// The data pointer of triplet `i`, once its slot is known.
    #[inline]
    pub fn data_ptr(&self, i: usize) -> Option<RecordPtr> {
        let t = self.content(self.key_slot(i))?;
        Some(RecordPtr(t.data_ptr))
    }

    /// Child `c` of an internal node, once its slot is known.
    #[inline]
    pub fn child(&self, c: usize) -> Option<BlockId> {
        let t = self.content(c).filter(|_| !self.is_leaf)?;
        Some(BlockId(t.child))
    }

    /// The plaintext node of a complete entry, built from its columns with
    /// no cryptography; an entry not yet complete is an error.
    pub fn to_node(&self) -> Result<Node, CodecError> {
        let incomplete = || CodecError::Corrupt(format!("node {} is not complete", self.id));
        let keys = self.keys().ok_or_else(incomplete)?;
        let data_ptrs = self.data_ptrs.get(self.key_slot(0)..).unwrap_or_default();
        let data_ptrs = data_ptrs.iter().map(|a| RecordPtr(a.load(Relaxed)));
        let children = self.children.iter().map(|c| BlockId(c.load(Relaxed)));
        Ok(Node {
            id: self.id,
            keys: keys.to_vec(),
            data_ptrs: data_ptrs.collect(),
            children: children.collect(),
        })
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
        let slot = (*from..self.slots()).find(|&slot| self.content(slot) == Some(*want))?;
        let ct = self.cryptogram(slot)?;
        *from = slot + 1;
        Some(ct)
    }

    /// The stored key field of the first triplet at or after `*from` whose
    /// plaintext key is `key`, advancing `*from` past it — so a rewritten
    /// node's keys, ascending, are matched against this image in key
    /// order, as [`CachedNode::stored_cryptogram`] matches slots. The walk
    /// stops at the first larger key. `None`, and `*from` unmoved, when no
    /// such triplet remains, the keys are not known yet, or the scheme
    /// keeps no key fields outside its slots.
    #[inline]
    pub fn stored_key(&self, from: &mut usize, key: u64) -> Option<u64> {
        let keys = self.keys()?;
        let ahead = Keys(keys.0.get(*from..)?).iter();
        let i = *from + ahead.take_while(|&k| k < key).count();
        let raw = self.raw_key(i).filter(|_| keys.get(i) == Some(key))?;
        *from = i + 1;
        Some(raw)
    }

    /// Zeroes in place what the entry holds in plaintext: the columns of
    /// every slot the bitmap marks known. That is every word that ever
    /// held a deciphered key, pointer or child: a slot's columns are
    /// written only as it becomes known, a completion recovers keys into
    /// known slots only (and marks the entry complete only once every slot
    /// is), and the other slots' columns are still the zeros they were
    /// born as — so a lazy entry a probe or two deciphered wipes those few
    /// slots, not the whole node. The stored columns, the raw key fields
    /// and cryptograms, are the page as it lies on the medium and in the
    /// pool frame it was read from: as public as both, and left as they
    /// are.
    fn scrub(&mut self) {
        for (w, word) in self.known.iter_mut().enumerate() {
            let mut bits = *word.get_mut();
            while bits != 0 {
                let slot = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wipe::words(std::slice::from_mut(self.keys[slot].get_mut()));
                wipe::words(std::slice::from_mut(self.data_ptrs[slot].get_mut()));
                if let Some(child) = self.children.get_mut(slot) {
                    wipe::words(std::slice::from_mut(child.get_mut()));
                }
            }
        }
    }
}

impl Drop for CachedNode {
    fn drop(&mut self) {
        self.scrub();
    }
}

/// A complete entry's plaintext keys in triplet order, read off its key
/// column ([`CachedNode::keys`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Keys<'a>(&'a [AtomicU64]);

impl<'a> Keys<'a> {
    /// Key `i`, if the node has that many.
    #[inline]
    pub fn get(self, i: usize) -> Option<u64> {
        self.0.get(i).map(|k| k.load(Relaxed))
    }

    pub fn iter(self) -> impl Iterator<Item = u64> + 'a {
        self.0.iter().map(|k| k.load(Relaxed))
    }

    pub fn to_vec(self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Where `key` lies among the (strictly ascending) keys, as
    /// [`slice::binary_search`] answers: `Ok(i)` when triplet `i` holds
    /// it, else `Err(c)`, the child slot it belongs under.
    #[inline]
    pub fn binary_search(self, key: u64) -> Result<usize, usize> {
        self.0.binary_search_by(|k| k.load(Relaxed).cmp(&key))
    }

    /// How many leading keys are below `key`, as
    /// [`slice::partition_point`] counts them.
    pub fn count_below(self, key: u64) -> usize {
        self.0.partition_point(|k| k.load(Relaxed) < key)
    }
}

impl PartialEq for Keys<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
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

    /// A complete one-triplet leaf image whose raw key field is its key.
    fn entry(id: u32, key: u64) -> CachedNode {
        let node = Node {
            id: BlockId(id),
            keys: vec![key],
            data_ptrs: vec![RecordPtr(key * 10)],
            children: vec![],
        };
        CachedNode::written(&node, 256, key.to_be_bytes().to_vec(), true, 0, true)
    }

    /// Slots laid out as a substitution page lays them, `width`-byte
    /// cryptograms from `cts` (one per slot): an internal node's leftmost
    /// cryptogram, then each triplet's key field followed by its slot's.
    fn laid_out(is_leaf: bool, keys: &[u64], cts: &[u8], width: usize) -> Vec<u8> {
        let ct = |slot: usize| &cts[slot * width..(slot + 1) * width];
        let lead = usize::from(!is_leaf);
        let mut out = Vec::with_capacity(cts.len() + 8 * keys.len());
        out.extend_from_slice(if is_leaf { &[] } else { ct(0) });
        for (i, key) in keys.iter().enumerate() {
            out.extend_from_slice(&key.to_be_bytes());
            out.extend_from_slice(ct(i + lead));
        }
        out
    }

    /// The keys of every test node below.
    const KEYS: [u64; 3] = [10, 20, 30];

    /// A lazy node with keys 10, 20, 30 whose one-byte "cryptograms" name
    /// what they hold: 0 an internal node's leftmost pointer, `i + 1`
    /// triplet `i` ([`unseal_for`] deciphers them). Where `keyed` the keys
    /// are sealed inside the cryptograms (Bayer–Metzger-shaped: no raw key
    /// fields); otherwise they sit beside them (substitution-shaped: the
    /// raw key fields are the keys themselves).
    fn lazy(is_leaf: bool, keyed: bool) -> CachedNode {
        let cts: Vec<u8> = (u8::from(is_leaf)..4).collect();
        let stored = match keyed {
            true => cts,
            false => laid_out(is_leaf, &KEYS, &cts, 1),
        };
        CachedNode::sealed(BlockId(7), is_leaf, 256, stored, !keyed, 1)
    }

    /// A lazy internal node, substitution-shaped.
    fn lazy_internal() -> CachedNode {
        lazy(false, false)
    }

    /// The node [`lazy`] deciphers to: triplet `i` holds data pointer
    /// `100 (i + 1)`, and child `c` of an internal node is `40 + c`.
    fn node(is_leaf: bool) -> Node {
        Node {
            id: BlockId(7),
            keys: KEYS.to_vec(),
            data_ptrs: [100, 200, 300].map(RecordPtr).to_vec(),
            children: match is_leaf {
                true => Vec::new(),
                false => [40, 41, 42, 43].map(BlockId).to_vec(),
            },
        }
    }

    fn internal() -> Node {
        node(false)
    }

    /// The unseal of [`lazy`]'s cryptograms, counting its calls:
    /// cryptogram `s` holds data pointer `100 s`, in an internal node child
    /// `40 + s`, and where `keyed` key `10 s`.
    fn unseal_for(
        is_leaf: bool,
        keyed: bool,
        calls: &AtomicUsize,
    ) -> impl Fn(&[u8]) -> Result<Triplet, CodecError> + '_ {
        move |ct| {
            calls.fetch_add(1, Ordering::Relaxed);
            let s = ct[0];
            Ok(Triplet {
                key: if keyed { u64::from(s) * 10 } else { 0 },
                data_ptr: u64::from(s) * 100,
                child: if is_leaf { 0 } else { u32::from(s) + 40 },
            })
        }
    }

    /// [`unseal_for`] a substitution-shaped internal node.
    fn unseal_counting(calls: &AtomicUsize) -> impl Fn(&[u8]) -> Result<Triplet, CodecError> + '_ {
        unseal_for(false, false, calls)
    }

    /// Triplet `i`'s key in `e` from its slot's content `t`: its raw field
    /// where the entry has raw fields, else the slot's key.
    fn key_of(e: &CachedNode) -> impl FnMut(usize, &Triplet) -> Result<u64, CodecError> + '_ {
        move |i, t| Ok(e.raw_key(i).unwrap_or(t.key))
    }

    /// The whole node of `e`: completed through `unseal`, then built.
    fn whole(
        e: &CachedNode,
        unseal: impl FnMut(&[u8]) -> Result<Triplet, CodecError>,
    ) -> Result<Node, CodecError> {
        e.fill_keys(unseal, key_of(e))?;
        e.to_node()
    }

    /// An entry's heap bytes: its stored and deciphered columns.
    fn heap_bytes(e: &CachedNode) -> usize {
        use std::mem::size_of_val;
        let stored = e.stored.capacity();
        let columns = [size_of_val(&*e.keys), size_of_val(&*e.data_ptrs)];
        stored + columns.iter().sum::<usize>() + size_of_val(&*e.children) + size_of_val(&*e.known)
    }

    #[test]
    fn hit_miss_and_invalidate() {
        let cache = NodeCache::new(16);
        assert!(cache.get(BlockId(3)).is_none());
        cache.insert(BlockId(3), entry(3, 7));
        let got = cache.get(BlockId(3)).unwrap();
        assert_eq!(got.raw_keys().collect::<Vec<_>>(), [7]);
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
        assert_eq!(cache.get(BlockId(4)).unwrap().raw_key(0), Some(2));
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
        let tenth = |i: usize, _: &Triplet| Ok(KEYS[i] / 10);
        // A failed recovery leaves the keys unknown, though every slot is
        // unsealed.
        let failed = e.fill_keys(unseal_counting(&calls), |i, t| match i {
            2 => Err(CodecError::Corrupt("bad key".into())),
            _ => tenth(i, t),
        });
        assert!(failed.is_err());
        assert_eq!((e.keys(), calls.load(Ordering::Relaxed)), (None, 4));
        assert!(e.to_node().is_err(), "not complete");
        assert_eq!(
            e.fill_keys(never_sealed, tenth).unwrap().to_vec(),
            [1, 2, 3]
        );
        assert_eq!(e.to_node().unwrap().keys, [1, 2, 3]);
        let again = e.fill_keys(never_sealed, |_, _| Ok(9)).unwrap();
        assert_eq!(again.to_vec(), [1, 2, 3]);

        // The stored field of a known key, found at or after the cursor.
        let mut from = 0;
        assert_eq!(e.stored_key(&mut from, 2), Some(20));
        assert_eq!(e.stored_key(&mut from, 1), None, "behind the cursor");
        assert_eq!(e.stored_key(&mut from, 2), None, "already lent");
        assert_eq!((e.stored_key(&mut from, 3), from), (Some(30), 3));
        assert_eq!(lazy_internal().stored_key(&mut 0, 1), None, "no keys yet");

        // A write's image knows every slot at birth, and takes the node's
        // keys only when told they are what a completion would recover.
        let (node, sealed) = (internal(), (0u8..4).collect::<Vec<_>>());
        let image = |keys_known| {
            let stored = laid_out(false, &[1, 2, 3], &sealed, 1);
            CachedNode::written(&node, 256, stored, true, 1, keys_known)
        };
        let written = image(true);
        assert_eq!(written.keys().map(Keys::to_vec), Some(node.keys.clone()));
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
        assert_eq!(recovered.unwrap().to_vec(), node.keys, "no unseal needed");
        assert_eq!(unknown.to_node().unwrap(), node);
    }

    #[test]
    fn a_failed_unseal_is_surfaced_and_never_memoised() {
        let calls = AtomicUsize::new(0);
        let e = lazy_internal();
        let err = e.triplet(1, |_| Err(CodecError::Corrupt("bad seal".into())));
        assert_eq!(err, Err(CodecError::Corrupt("bad seal".into())));
        assert!(whole(&e, never_sealed).is_err(), "slot 0 is not known yet");
        assert_eq!(e.triplet(1, unseal_counting(&calls)).unwrap().child, 41);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "the retry did unseal");
        assert!(e.triplet(4, unseal_counting(&calls)).is_err(), "no slot 4");

        // A leaf slot that deciphers to a tree pointer, or a key where the
        // keys sit outside the cryptograms, is answered as deciphered but
        // never memoised, and completes no node.
        let stray_child = |_: &[u8]| {
            Ok(Triplet {
                key: 10,
                data_ptr: 100,
                child: 9,
            })
        };
        let leaf = lazy(true, true);
        assert_eq!(leaf.triplet(0, stray_child).unwrap().child, 9);
        assert!(leaf.triplet(0, never_sealed).is_err(), "not memoised");
        assert!(leaf.fill_keys(stray_child, key_of(&leaf)).is_err());
        let stray_key = |_: &[u8]| {
            Ok(Triplet {
                key: 10,
                data_ptr: 100,
                child: 0,
            })
        };
        let leaf = lazy(true, false);
        assert_eq!(leaf.triplet(0, stray_key).unwrap().key, 10);
        assert!(leaf.fill_keys(stray_key, key_of(&leaf)).is_err());
        assert_eq!(leaf.keys(), None);
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

    /// Threads sharing an entry agree with one thread alone, for a leaf
    /// and an internal node, keys beside the cryptograms
    /// (substitution-shaped) and inside them (Bayer–Metzger-shaped): two
    /// probers read every slot in opposite orders while a third thread
    /// completes the entry and a fourth watches it. Every read finds a
    /// slot unknown or holding its final value, never part of one.
    #[test]
    fn two_threads_sharing_an_entry_agree_with_one() {
        for (is_leaf, keyed) in [(false, false), (false, true), (true, false), (true, true)] {
            let what = format!("leaf {is_leaf}, keys sealed {keyed}");
            let expect = node(is_leaf);
            let alone = lazy(is_leaf, keyed);
            let unseals = AtomicUsize::new(0);
            let unseal = || unseal_for(is_leaf, keyed, &unseals);
            assert_eq!(whole(&alone, unseal()).unwrap(), expect, "{what}");
            let slots: Vec<Triplet> = (0..alone.slots())
                .map(|slot| alone.triplet(slot, never_sealed).unwrap())
                .collect();

            unseals.store(0, Ordering::Relaxed);
            let shared = Arc::new(lazy(is_leaf, keyed));
            let (shared, slots, expect, start) = (&shared, &slots, &expect, &Barrier::new(4));
            std::thread::scope(|s| {
                let probers = [false, true].map(|backward| {
                    s.spawn(move || {
                        start.wait();
                        let mut order: Vec<usize> = (0..slots.len()).collect();
                        if backward {
                            order.reverse();
                        }
                        for slot in order {
                            let t = shared.triplet(slot, unseal()).unwrap();
                            assert_eq!(t, slots[slot], "slot {slot}");
                        }
                    })
                });
                let completer = s.spawn(move || {
                    start.wait();
                    shared.fill_keys(unseal(), key_of(shared)).map(Keys::to_vec)
                });
                let watcher = s.spawn(move || {
                    start.wait();
                    let unknown = |_: &[u8]| Err(CodecError::Corrupt("unknown".into()));
                    for _ in 0..10_000 {
                        for (slot, want) in slots.iter().enumerate() {
                            if let Ok(t) = shared.triplet(slot, unknown) {
                                assert_eq!(t, *want, "slot {slot}");
                            }
                        }
                        for (i, want) in expect.data_ptrs.iter().enumerate() {
                            assert!(shared.data_ptr(i).is_none_or(|a| a == *want));
                        }
                        for (c, want) in expect.children.iter().enumerate() {
                            assert!(shared.child(c).is_none_or(|b| b == *want));
                        }
                        if let Some(keys) = shared.keys() {
                            assert_eq!(keys.to_vec(), expect.keys);
                            break;
                        }
                    }
                });
                for prober in probers {
                    prober.join().expect("prober");
                }
                watcher.join().expect("watcher");
                let keys = completer.join().expect("completer");
                assert_eq!(keys.unwrap(), expect.keys, "{what}");
            });
            let unsealed = unseals.load(Ordering::Relaxed);
            let range = slots.len()..=3 * slots.len();
            assert!(
                range.contains(&unsealed),
                "{what}: a lost race may repeat one"
            );
            assert_eq!(whole(shared, never_sealed).unwrap(), *expect, "{what}");
        }
    }

    /// Each fact is held once. A full 4 KiB node, laid out as each
    /// scheme's codec lays it out, costs its stored columns plus one word
    /// per slot for each deciphered column and one bitmap word per 64
    /// slots, whether it was completed from the medium or born as a
    /// write's image: for a sealed scheme's leaf at most 40 B a slot —
    /// under Oval an 8-byte key field and a 16-byte pointer cryptogram,
    /// under Bayer–Metzger a 24-byte triplet cryptogram, then a pointer
    /// and a key — 4 B more in an internal node (its tree pointer), and
    /// 16 B for a plaintext leaf.
    #[test]
    fn an_entry_holds_each_fact_once() {
        let full = |n: u64, is_leaf: bool| Node {
            id: BlockId(7),
            keys: (1..=n).map(|k| 3 * k).collect(),
            data_ptrs: (1..=n).map(RecordPtr).collect(),
            children: match is_leaf {
                true => Vec::new(),
                false => (0..=n as u32).map(BlockId).collect(),
            },
        };
        // (node, cryptogram width, raw key fields, bytes per slot)
        let shapes = [
            ("Oval leaf", full(169, true), 16, true, 40),
            ("Oval internal node", full(169, false), 16, true, 44),
            ("Bayer–Metzger leaf", full(169, true), 24, false, 40),
            ("plaintext leaf", full(204, true), 0, false, 16),
        ];
        for (what, node, width, raw_fields, per_slot) in shapes {
            let slots = node.n() + usize::from(!node.is_leaf());
            let cts = vec![0xA5; slots * width];
            let stored = || match raw_fields {
                true => laid_out(node.is_leaf(), &node.keys, &cts, width),
                false => cts.clone(),
            };
            let image = match width {
                0 => CachedNode::complete(&node, 4096),
                _ => CachedNode::written(&node, 4096, stored(), raw_fields, width, true),
            };
            let bound = per_slot * slots + slots.div_ceil(64) * 8;
            let bytes = heap_bytes(&image);
            assert!(bytes <= bound, "{what}: {bytes} B over {bound}");
            if width > 0 {
                // Completed from the medium: the slots unsealed in page
                // order, the keys recovered from the raw fields or read
                // out of the slots.
                let filled =
                    CachedNode::sealed(node.id, node.is_leaf(), 4096, stored(), raw_fields, width);
                let mut contents = node.slots().map(|t| match raw_fields {
                    true => Triplet { key: 0, ..t },
                    false => t,
                });
                let unseal = |_: &[u8]| {
                    contents
                        .next()
                        .ok_or_else(|| never_sealed(&[]).unwrap_err())
                };
                assert_eq!(whole(&filled, unseal).unwrap(), node, "{what}");
                assert_eq!(heap_bytes(&filled), bytes, "{what}: one layout");
            }
            if what == "Oval leaf" {
                assert_eq!(bytes, 6784, "{what}");
            }
        }
    }

    #[test]
    fn entries_zeroize_on_drop() {
        // What `Drop` runs (on every eviction above too), run in place so
        // its effect can be read back.
        let mut e = lazy_internal();
        e.triplet(2, unseal_counting(&AtomicUsize::new(0))).unwrap();
        e.scrub();
        assert_eq!(e.triplet(2, never_sealed).unwrap(), Triplet::default());
        let stored: Vec<u64> = e.raw_keys().collect();
        assert_eq!(stored, KEYS, "the stored fields, as on the medium");
        assert!(e.triplet(1, never_sealed).is_err(), "never deciphered");
        assert_eq!(e.keys(), None, "never completed");
        // A completed entry's plaintext keys are zeroed with the rest.
        let mut e = lazy_internal();
        let keys = e.fill_keys(unseal_counting(&AtomicUsize::new(0)), |i, _| {
            Ok(KEYS[i] + i as u64)
        });
        assert_eq!(keys.unwrap().to_vec(), [10, 21, 32]);
        e.scrub();
        assert_eq!(e.keys().map(Keys::to_vec), Some(vec![0; 3]));
        assert!((0..4).all(|s| e.triplet(s, never_sealed) == Ok(Triplet::default())));
        // Lazy entries, a leaf and an internal node, with a few slots
        // probed and a completion that recovered some keys before a stray
        // slot failed it: every word that held a deciphered key, pointer or
        // child is zeroed, though the entry was never complete.
        let stray_at = |is_leaf: bool, stray: u8| {
            move |ct: &[u8]| {
                let s = ct[0];
                Ok(Triplet {
                    key: u64::from(s == stray && !is_leaf),
                    data_ptr: u64::from(s) * 100,
                    child: if is_leaf {
                        u32::from(s == stray)
                    } else {
                        u32::from(s) + 40
                    },
                })
            }
        };
        // (is_leaf, probed slots, the stray cryptogram, slots keyed before
        // it, non-zero column words)
        let cases = [(true, [0, 2], 2, [0, 0], 3), (false, [1, 2], 3, [1, 2], 7)];
        for (is_leaf, probed, stray, keyed, words) in cases {
            let mut e = lazy(is_leaf, false);
            for slot in probed {
                e.triplet(slot, unseal_for(is_leaf, false, &AtomicUsize::new(0)))
                    .unwrap();
            }
            let failed = e.fill_keys(stray_at(is_leaf, stray), key_of(&e));
            assert!(failed.is_err(), "leaf {is_leaf}: the stray slot fails it");
            assert_eq!(e.keys(), None);
            for slot in keyed {
                assert_ne!(e.keys[slot].load(Relaxed), 0, "leaf {is_leaf}: key {slot}");
            }
            let held = |e: &CachedNode| {
                let words = e.keys.iter().chain(e.data_ptrs.iter());
                let children = e.children.iter().map(|c| u64::from(c.load(Relaxed)));
                words
                    .map(|w| w.load(Relaxed))
                    .chain(children)
                    .filter(|&w| w != 0)
                    .count()
            };
            assert_eq!(held(&e), words, "leaf {is_leaf}: plaintext to wipe");
            e.scrub();
            assert_eq!(held(&e), 0, "leaf {is_leaf}: every column word");
        }
        // Entries born whole hold the same columns: a write's image, as an
        // encoder builds it, and a plaintext decode's entry.
        let node = internal();
        let stored = laid_out(false, &[1, 2, 3], &[9; 4], 1);
        let image = CachedNode::written(&node, 256, stored, true, 1, true);
        for mut e in [image, CachedNode::complete(&node, 256), entry(1, 42)] {
            assert!(e.triplet(e.slots() - 1, never_sealed).unwrap() != Triplet::default());
            e.scrub();
            let zero = (0..e.slots()).all(|s| e.triplet(s, never_sealed) == Ok(Triplet::default()));
            assert!(zero, "every slot");
            assert!(e.keys().unwrap().iter().all(|k| k == 0), "the keys");
        }
    }
}
