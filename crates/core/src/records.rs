//! Data blocks: slotted pages of enciphered records.
//!
//! §5: "The encryption algorithm used for the encryption of data blocks can
//! be different and independent to that used for the tree and data pointers
//! in the node blocks." Records here are CTR-enciphered under their own key
//! with a per-(page-generation, slot) nonce; compromising node blocks
//! yields only the *location* of data blocks, never their content.
//!
//! Two engine-grade facilities sit on top of the paper's static view:
//!
//! * **Tombstone accounting + compaction support** — deletes tombstone
//!   slots and track the dead set per block; the compactor
//!   ([`crate::EncipheredBTree::compact_step`]) rewrites a block's live
//!   records into fresh slots and returns the block to the store's free
//!   list. Because freed blocks are recycled, record nonces derive from a
//!   monotonically increasing *page generation* (persisted in the store's
//!   superblock and stamped into each page header), never from the block
//!   number: a recycled block enciphers under fresh keystream, so stale
//!   ciphertext left on the medium can never be XOR-correlated with a
//!   later record.
//! * **A bounded decoded-record LRU** above the CTR unseal — read-mostly
//!   `get`s of hot records pay zero physical unseals while the *logical*
//!   `data_decrypts` counter keeps reporting the paper's per-get cost.
//!   It is the workspace's one [`LruMap`] behind a mutex, keyed by record
//!   pointer: a hit is an O(1) look-up-and-touch, a store over its bound
//!   drops its least recently used record. Entries are RAM-only,
//!   invalidated on delete/compaction, and zeroized when the last
//!   reference drops. Each store (engine partition) has its own, so the
//!   plaintext-record RAM of a process is `record_cache × partitions`.
//! * **A persistent `block → (slot, key)` reverse index** — maintained
//!   incrementally on every keyed insert/delete/compaction move, persisted
//!   at flush as a chain of *sealed* index pages hanging off the
//!   superblock, and reloaded on open. A compaction pass repoints the tree
//!   for exactly the victims' live slots — O(victims), never a full tree
//!   scan — and victim choice is *dead-ratio first* (deadest blocks
//!   reclaim the most space per budget unit). Staleness is impossible by
//!   construction: the first mutation after a flush bumps a persisted
//!   `mut_epoch` past the index's `index_epoch`, so an index that does not
//!   exactly describe the pages (a crash between flushes on an unbuffered
//!   medium) is detected on open and rebuilt instead of trusted; on the
//!   journaled no-steal backend the index and the pages commit atomically
//!   and the epochs always match.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use sks_btree_core::RecordPtr;
use sks_crypto::modes::ctr_xor;
use sks_crypto::speck::Speck64;
use sks_storage::{wipe, BlockId, BlockStore, LruMap, PageReader, PageWriter};

use crate::error::CoreError;

/// Page layout: `[generation u64][n_slots u16][free_off u16]` then the slot
/// directory (`off u16, len u16` per slot) growing forward; record bytes
/// packed at the tail, growing backward.
const PAGE_HEADER: usize = 12;
const SLOT_ENTRY: usize = 4;
/// Tombstone marker in the slot directory.
const TOMBSTONE: u16 = u16::MAX;

/// Superblock (block 0) layout: magic, format version, next page
/// generation, reverse-index chain head, and the index/mutation epoch
/// pair that detects a stale index. Rewritten in place whenever a fresh
/// page is initialised; on buffered backends it rides the same checkpoint
/// as the pages it governs.
const SUPER_MAGIC: &[u8; 8] = b"SKSRECS1";
const SUPER_VERSION: u32 = 2;
/// magic, version, next_gen, index_root, index_epoch, mut_epoch,
/// persisted_complete, delta-segment count. The trailing count rides the
/// same version: pre-delta superblocks hold zeros there, which reads as
/// "zero delta segments since the last full rewrite" — exactly right for
/// a single-segment chain.
const SUPER_LEN: usize = 8 + 4 + 8 + 4 + 8 + 8 + 1 + 4;

/// "No block" sentinel for the index chain head / next links.
const NO_BLOCK: u32 = u32::MAX;

/// Index pages carry this marker where record pages store their slot
/// count. Record pages can never collide: a slot directory of 0xFFFF
/// entries would need a 256 KiB page, far past the u16 offsets the layout
/// runs on.
const INDEX_MARKER: u16 = u16::MAX;

/// Index page layout: `[generation u64][marker u16][chunk_len u16]
/// [next u32]` then `chunk_len` sealed bytes of the index stream.
const INDEX_HEADER: usize = 16;

/// CTR nonce slot for index-page payloads. Record slots are bounded far
/// below this by the u16 page offsets, so `(generation, INDEX_SLOT)`
/// never collides with a record nonce.
const INDEX_SLOT: u16 = u16::MAX;

/// Delta segments the reverse-index chain may grow by before the next
/// persist rewrites it whole, bounding load-time chain walks and
/// reclaiming superseded segments.
const INDEX_REWRITE_PERIOD: u32 = 16;

/// A decoded record held by the [`RecordCache`]. The plaintext is wiped
/// when the last reference drops (eviction, invalidation, cache drop), so
/// heap re-use cannot scrape record bytes out of dead memory.
#[derive(Debug)]
struct CachedRecord {
    bytes: Vec<u8>,
}

impl Drop for CachedRecord {
    fn drop(&mut self) {
        wipe::bytes(&mut self.bytes);
    }
}

/// Bounded LRU of *decoded* records keyed by record pointer,
/// interior-mutable so the read path can fill it behind `&self`. Capacity
/// is a record count. Entries are RAM-only and zeroized on drop.
#[derive(Debug)]
struct RecordCache(Mutex<LruMap<u64, Arc<CachedRecord>>>);

impl RecordCache {
    fn new(capacity: usize) -> Self {
        RecordCache(Mutex::new(LruMap::new(capacity)))
    }

    fn lock(&self) -> MutexGuard<'_, LruMap<u64, Arc<CachedRecord>>> {
        self.0.lock().expect("record cache")
    }

    fn get(&self, ptr: RecordPtr) -> Option<Arc<CachedRecord>> {
        self.lock().get(&ptr.0).map(Arc::clone)
    }

    fn insert(&self, ptr: RecordPtr, bytes: Vec<u8>) {
        let mut lru = self.lock();
        lru.insert(ptr.0, Arc::new(CachedRecord { bytes }));
        while lru.evict().is_some() {}
    }

    fn invalidate(&self, ptr: RecordPtr) {
        self.lock().remove(&ptr.0);
    }

    /// Drops every entry living in `block` (the block is being freed; its
    /// slots will be reincarnated under a fresh generation).
    fn invalidate_block(&self, block: BlockId) {
        let mut lru = self.lock();
        let doomed: Vec<u64> = lru
            .iter()
            .map(|(&ptr, _)| ptr)
            .filter(|&ptr| RecordPtr(ptr).block() == block)
            .collect();
        for ptr in doomed {
            lru.remove(&ptr);
        }
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// A slotted-page record store with per-record encipherment.
pub struct RecordStore<S: BlockStore> {
    store: S,
    cipher: Speck64,
    /// Block currently being filled.
    open_block: Option<BlockId>,
    /// Next page generation (mirrors the superblock).
    next_gen: u64,
    /// Decoded-record LRU (None = disabled).
    cache: Option<RecordCache>,
    /// Tombstoned-slot count per block. Complete only when
    /// `accounting_complete`.
    dead: HashMap<u32, u32>,
    /// Live-record count per block (drives dead-ratio victim choice).
    /// Complete only when `accounting_complete`.
    live: HashMap<u32, u32>,
    /// Whether `dead`/`live` cover the whole store (a reopened store
    /// without a trusted index rebuilds them lazily on the first
    /// compaction pass).
    accounting_complete: bool,
    /// The reverse index: block → slot → owning tree key, live slots only.
    /// Complete only when `rindex_complete`; kept incrementally by the
    /// keyed mutation paths and persisted at flush.
    rindex: HashMap<u32, HashMap<u16, u64>>,
    rindex_complete: bool,
    /// Head of the persisted index chain (`NO_BLOCK` = none — which a
    /// *complete* empty index legitimately has: zero live records need
    /// zero chain pages).
    index_root: u32,
    /// Whether the persisted index was complete when written (an
    /// incomplete one is recorded as such so a reopen rebuilds instead of
    /// trusting a partial map).
    index_persisted_complete: bool,
    /// Epoch of the persisted index chain.
    index_epoch: u64,
    /// Persisted mutation epoch: equals `index_epoch` exactly when the
    /// on-medium pages match the on-medium index.
    mut_epoch: u64,
    /// Whether anything mutated since the last index persist (drives the
    /// one-time `mut_epoch` bump per epoch and skips no-op persists).
    index_dirty: bool,
    /// Chain blocks of the currently loaded/persisted index (used by
    /// [`RecordStore::reconcile_unreferenced_blocks`]).
    chain_blocks: Vec<u32>,
    /// Blocks whose `dead`/`live`/`rindex` entry changed since the last
    /// persist — the dirty-entry set behind delta persistence. `Some`
    /// means the set is exact (a delta segment covering exactly these
    /// blocks brings the chain current); `None` means changes are
    /// unbounded or unknown (wholesale index adoption, distrust) and the
    /// next persist must rewrite the whole chain.
    index_dirty_blocks: Option<HashSet<u32>>,
    /// Delta segments written since the last full chain rewrite
    /// (persisted in the superblock so reopens keep bounding the chain).
    index_delta_epochs: u32,
    /// Blocks compaction reclaimed but whose free-list push is deferred
    /// until the caller's *node* device has committed its repointed
    /// image ([`RecordStore::apply_pending_frees`]). While quarantined a
    /// block is neither allocatable nor a compaction candidate, and the
    /// committed data image keeps it allocated — so a crash between the
    /// two device checkpoints leaves the old tree pointers aimed at
    /// intact victim content, never at a freed or recycled block.
    pending_free: Vec<u32>,
}

impl<S: BlockStore> RecordStore<S> {
    /// Creates a fresh record store on an *empty* block store, allocating
    /// its superblock. `data_key` is the independent data-block key of §5;
    /// `cache_capacity` bounds the decoded-record LRU (0 disables it).
    pub fn create(mut store: S, data_key: u128, cache_capacity: usize) -> Result<Self, CoreError> {
        if store.block_size() < SUPER_LEN.max(INDEX_HEADER + 18) {
            return Err(CoreError::Record(format!(
                "record store needs blocks of at least {} bytes",
                SUPER_LEN.max(INDEX_HEADER + 18)
            )));
        }
        let sb = store.allocate()?;
        debug_assert_eq!(sb, BlockId(0), "superblock must be the first block");
        let mut this = RecordStore {
            store,
            cipher: Speck64::from_u128(data_key),
            open_block: None,
            next_gen: 1,
            cache: (cache_capacity > 0).then(|| RecordCache::new(cache_capacity)),
            dead: HashMap::new(),
            live: HashMap::new(),
            accounting_complete: true,
            rindex: HashMap::new(),
            rindex_complete: true,
            index_root: NO_BLOCK,
            index_persisted_complete: true,
            index_epoch: 0,
            mut_epoch: 0,
            index_dirty: false,
            chain_blocks: Vec::new(),
            index_dirty_blocks: Some(HashSet::new()),
            index_delta_epochs: 0,
            pending_free: Vec::new(),
        };
        this.write_superblock()?;
        Ok(this)
    }

    /// Reopens a record store persisted on `store` (reads the superblock).
    /// When the persisted reverse index matches the pages (its epoch pair
    /// agrees — always true after a clean flush or a journaled-checkpoint
    /// recovery), accounting and the reverse index load in O(index);
    /// otherwise both are rebuilt lazily, so reopening stays O(1).
    pub fn open(store: S, data_key: u128, cache_capacity: usize) -> Result<Self, CoreError> {
        let page = store.read_block_vec(BlockId(0))?;
        // The fixed-offset reads below need the whole 45-byte superblock;
        // a device with a smaller block cannot hold one.
        if page.len() < 45 || &page[0..8] != SUPER_MAGIC {
            return Err(CoreError::Record(
                "data store has no record superblock".into(),
            ));
        }
        let version = u32::from_be_bytes(page[8..12].try_into().expect("fixed width"));
        if version != SUPER_VERSION {
            return Err(CoreError::Record(format!(
                "unknown record-store version {version}"
            )));
        }
        let next_gen = u64::from_be_bytes(page[12..20].try_into().expect("fixed width"));
        let index_root = u32::from_be_bytes(page[20..24].try_into().expect("fixed width"));
        let index_epoch = u64::from_be_bytes(page[24..32].try_into().expect("fixed width"));
        let mut_epoch = u64::from_be_bytes(page[32..40].try_into().expect("fixed width"));
        let index_persisted_complete = page[40] != 0;
        let index_delta_epochs = u32::from_be_bytes(page[41..45].try_into().expect("fixed width"));
        let mut this = RecordStore {
            store,
            cipher: Speck64::from_u128(data_key),
            open_block: None,
            next_gen,
            cache: (cache_capacity > 0).then(|| RecordCache::new(cache_capacity)),
            dead: HashMap::new(),
            live: HashMap::new(),
            accounting_complete: false,
            rindex: HashMap::new(),
            rindex_complete: false,
            index_root,
            index_persisted_complete,
            index_epoch,
            mut_epoch,
            index_dirty: false,
            chain_blocks: Vec::new(),
            index_dirty_blocks: None,
            index_delta_epochs,
            pending_free: Vec::new(),
        };
        // Trust the persisted index only when it was written complete and
        // the epochs prove the pages have not mutated past it; a parse
        // failure (impossible short of medium corruption) degrades to the
        // lazy rebuild, never to trusting garbage.
        let trusted_chain = (mut_epoch == index_epoch && index_persisted_complete)
            .then(|| this.load_index().ok())
            .flatten();
        match trusted_chain {
            Some(chain) => {
                this.accounting_complete = true;
                this.rindex_complete = true;
                this.chain_blocks = chain;
                // The loaded maps match the persisted chain exactly, so
                // delta tracking starts from a clean slate.
                this.index_dirty_blocks = Some(HashSet::new());
            }
            None => {
                this.rindex.clear();
                this.live.clear();
                this.dead.clear();
            }
        }
        Ok(this)
    }

    fn write_superblock(&mut self) -> Result<(), CoreError> {
        let mut page = vec![0u8; self.store.block_size()];
        page[0..8].copy_from_slice(SUPER_MAGIC);
        page[8..12].copy_from_slice(&SUPER_VERSION.to_be_bytes());
        page[12..20].copy_from_slice(&self.next_gen.to_be_bytes());
        page[20..24].copy_from_slice(&self.index_root.to_be_bytes());
        page[24..32].copy_from_slice(&self.index_epoch.to_be_bytes());
        page[32..40].copy_from_slice(&self.mut_epoch.to_be_bytes());
        page[40] = self.index_persisted_complete as u8;
        page[41..45].copy_from_slice(&self.index_delta_epochs.to_be_bytes());
        Ok(self.store.write_block(BlockId(0), &page)?)
    }

    /// Records that `block`'s index entry changed since the last persist.
    /// A `None` set stays `None`: the next persist already rewrites the
    /// whole chain, so nothing finer-grained needs remembering.
    fn mark_index_block(&mut self, block: u32) {
        if let Some(set) = self.index_dirty_blocks.as_mut() {
            set.insert(block);
        }
    }

    /// First mutation of an epoch: advance the persisted `mut_epoch` past
    /// the index epoch *before* the mutation lands, so an index that no
    /// longer describes the pages can never be mistaken for current. One
    /// superblock write per epoch; a crash between the bump and the
    /// mutation is safe (the index is merely distrusted and rebuilt).
    fn note_mutation(&mut self) -> Result<(), CoreError> {
        if !self.index_dirty {
            self.index_dirty = true;
            self.mut_epoch = self.index_epoch + 1;
            self.write_superblock()?;
        }
        Ok(())
    }

    /// Largest storable record.
    pub fn max_record_len(&self) -> usize {
        self.store.block_size() - PAGE_HEADER - SLOT_ENTRY
    }

    pub fn store(&self) -> &S {
        &self.store
    }

    pub fn into_store(self) -> S {
        self.store
    }

    /// Persists the reverse index (sealed chain + matched epoch pair) and
    /// flushes the underlying store (a checkpoint on buffered backends).
    pub fn flush(&mut self) -> Result<(), CoreError> {
        self.persist_index()?;
        Ok(self.store.flush()?)
    }

    /// Records currently held decoded in the record cache.
    pub fn cached_records(&self) -> usize {
        self.cache.as_ref().map(RecordCache::len).unwrap_or(0)
    }

    /// The generation ceiling: a nonce is `gen << 16 | slot`, so
    /// generations must fit 48 bits for the keystream-uniqueness
    /// guarantee to hold. Unreachable in practice (2^48 page initialisations
    /// of >= 32 bytes each is multiple petabytes of churn); hitting it is
    /// a loud error, never silent nonce reuse.
    const MAX_GENERATION: u64 = 1 << 48;

    /// CTR nonce: the page's generation (unique per block *incarnation*,
    /// never reused even when compaction recycles the block) plus the
    /// slot.
    fn nonce(generation: u64, slot: u16) -> u64 {
        (generation << 16) | slot as u64
    }

    fn read_page_meta(page: &[u8]) -> Result<(u64, u16, u16), CoreError> {
        let mut r = PageReader::new(page);
        let generation = r.get_u64().map_err(|e| CoreError::Record(e.to_string()))?;
        let n_slots = r.get_u16().map_err(|e| CoreError::Record(e.to_string()))?;
        let free_off = r.get_u16().map_err(|e| CoreError::Record(e.to_string()))?;
        // Both counts are medium-controlled; every consumer derives slice
        // offsets from them, so reject geometry the page cannot hold (the
        // slot directory below the header, payloads above `free_off`).
        if PAGE_HEADER + n_slots as usize * SLOT_ENTRY > page.len()
            || free_off as usize > page.len()
        {
            return Err(CoreError::Record(format!(
                "corrupt page geometry: {n_slots} slots / free_off {free_off} on a {}-byte page",
                page.len()
            )));
        }
        Ok((generation, n_slots, free_off))
    }

    fn slot_entry(page: &[u8], slot: u16) -> Result<(u16, u16), CoreError> {
        let mut r = PageReader::new(page);
        r.seek(PAGE_HEADER + slot as usize * SLOT_ENTRY)
            .map_err(|e| CoreError::Record(e.to_string()))?;
        let off = r.get_u16().map_err(|e| CoreError::Record(e.to_string()))?;
        let len = r.get_u16().map_err(|e| CoreError::Record(e.to_string()))?;
        Ok((off, len))
    }

    /// Free bytes left in a page with the given metadata.
    fn free_space(&self, n_slots: u16, free_off: u16) -> usize {
        let dir_end = PAGE_HEADER + n_slots as usize * SLOT_ENTRY;
        (free_off as usize).saturating_sub(dir_end + SLOT_ENTRY)
    }

    /// Inserts a record with no owning key, returning its pointer. The
    /// reverse index cannot cover such a record, so the store falls back
    /// to scan-rebuilt maintenance; prefer [`RecordStore::insert_keyed`]
    /// wherever the tree key is in hand.
    pub fn insert(&mut self, record: &[u8]) -> Result<RecordPtr, CoreError> {
        let ptr = self.insert_inner(record, true, None)?;
        // Downgrade only once the record actually landed — a rejected
        // insert (oversized, generation space exhausted) must not cost
        // the keyed hot path its O(victims) guarantee.
        self.rindex_complete = false;
        Ok(ptr)
    }

    /// Inserts a record owned by tree key `key`, maintaining the reverse
    /// index incrementally.
    pub fn insert_keyed(&mut self, key: u64, record: &[u8]) -> Result<RecordPtr, CoreError> {
        self.insert_inner(record, true, Some(key))
    }

    /// The compactor's insert: identical placement logic, but the
    /// encipherment is charged to `compact_moved_records` instead of the
    /// paper's `data_encrypts` — moving an already-stored record is
    /// storage maintenance, not a logical write.
    fn insert_moved(&mut self, record: &[u8], key: Option<u64>) -> Result<RecordPtr, CoreError> {
        let ptr = self.insert_inner(record, false, key)?;
        if key.is_none() {
            self.rindex_complete = false;
        }
        Ok(ptr)
    }

    fn insert_inner(
        &mut self,
        record: &[u8],
        logical: bool,
        key: Option<u64>,
    ) -> Result<RecordPtr, CoreError> {
        self.note_mutation()?;
        if record.len() > self.max_record_len() {
            return Err(CoreError::Record(format!(
                "record of {} bytes exceeds max {}",
                record.len(),
                self.max_record_len()
            )));
        }
        let t = self.store.counters().obs().start();
        // Find or open a block with room.
        let block_size = self.store.block_size();
        let (block, mut page) = match self.open_block {
            Some(b) => {
                let page = self.store.read_block_vec(b)?;
                let (_, n_slots, free_off) = Self::read_page_meta(&page)?;
                if self.free_space(n_slots, free_off) >= record.len() {
                    (b, page)
                } else {
                    let nb = self.store.allocate_min()?;
                    let fresh = self.init_page(block_size)?;
                    self.open_block = Some(nb);
                    (nb, fresh)
                }
            }
            None => {
                let nb = self.store.allocate_min()?;
                let fresh = self.init_page(block_size)?;
                self.open_block = Some(nb);
                (nb, fresh)
            }
        };
        let (generation, n_slots, free_off) = Self::read_page_meta(&page)?;
        let slot = n_slots;
        let new_off = free_off as usize - record.len();
        // Encrypt under the per-(generation, slot) nonce.
        if logical {
            self.store.counters().bump(|c| &c.data_encrypts);
        } else {
            self.store.counters().bump(|c| &c.compact_moved_records);
        }
        let ct = ctr_xor(&self.cipher, Self::nonce(generation, slot), record);
        page[new_off..new_off + ct.len()].copy_from_slice(&ct);
        // Slot directory entry.
        {
            let mut w = PageWriter::new(&mut page);
            w.put_u64(generation)
                .map_err(|e| CoreError::Record(e.to_string()))?;
            w.put_u16(n_slots + 1)
                .map_err(|e| CoreError::Record(e.to_string()))?;
            w.put_u16(new_off as u16)
                .map_err(|e| CoreError::Record(e.to_string()))?;
        }
        {
            let dir_off = PAGE_HEADER + slot as usize * SLOT_ENTRY;
            page[dir_off..dir_off + 2].copy_from_slice(&(new_off as u16).to_be_bytes());
            page[dir_off + 2..dir_off + 4].copy_from_slice(&(ct.len() as u16).to_be_bytes());
        }
        self.store.write_block(block, &page)?;
        let ptr = RecordPtr::pack(block, slot);
        *self.live.entry(block.0).or_default() += 1;
        self.mark_index_block(block.0);
        if let Some(key) = key {
            self.rindex.entry(block.0).or_default().insert(slot, key);
        }
        if logical {
            if let Some(cache) = &self.cache {
                // The plaintext is in hand: pre-warm read-after-write
                // gets. Compaction moves skip this — flooding the bounded
                // cache with relocated records would evict the genuinely
                // hot set.
                cache.insert(ptr, record.to_vec());
            }
        }
        self.store
            .counters()
            .obs()
            .stage(sks_storage::Stage::RecordSeal, t);
        Ok(ptr)
    }

    /// Hands out the next page generation, bumping and persisting the
    /// superblock's counter *before* the generation is used. Fails loudly
    /// if the generation space is ever exhausted — silent reuse would
    /// repeat CTR keystream.
    fn next_generation(&mut self) -> Result<u64, CoreError> {
        let generation = self.next_gen;
        if generation >= Self::MAX_GENERATION {
            return Err(CoreError::Record(
                "page-generation space exhausted; refusing to reuse CTR keystream".into(),
            ));
        }
        self.next_gen += 1;
        self.write_superblock()?;
        Ok(generation)
    }

    /// Initialises a fresh record page under the next generation.
    fn init_page(&mut self, block_size: usize) -> Result<Vec<u8>, CoreError> {
        let generation = self.next_generation()?;
        let mut page = vec![0u8; block_size];
        page[0..8].copy_from_slice(&generation.to_be_bytes());
        page[8..10].copy_from_slice(&0u16.to_be_bytes());
        page[10..12].copy_from_slice(&(block_size as u16).to_be_bytes());
        Ok(page)
    }

    /// Fetches and deciphers a record. `None` for tombstoned slots.
    ///
    /// The logical `data_decrypts` counter is bumped per live get — the
    /// paper's per-scheme cost — whether the plaintext comes from the
    /// physical CTR unseal or from the decoded-record cache (which only
    /// skips the *physical* work, tracked by `record_cache_hits`).
    pub fn get(&self, ptr: RecordPtr) -> Result<Option<Vec<u8>>, CoreError> {
        if let Some(cache) = &self.cache {
            if let Some(entry) = cache.get(ptr) {
                self.store.counters().bump(|c| &c.record_cache_hits);
                self.store.counters().bump(|c| &c.data_decrypts);
                return Ok(Some(entry.bytes.clone()));
            }
        }
        let t = self.store.counters().obs().start();
        let page = self.store.read_block_vec(ptr.block())?;
        let (generation, n_slots, _) = Self::read_page_meta(&page)?;
        if ptr.slot() >= n_slots {
            return Err(CoreError::Record(format!(
                "slot {} out of range (page has {n_slots})",
                ptr.slot()
            )));
        }
        let (off, len) = Self::slot_entry(&page, ptr.slot())?;
        if off == TOMBSTONE {
            return Ok(None);
        }
        // The slot directory is medium-controlled: a corrupt page can
        // point anywhere. Fail closed instead of slicing out of bounds.
        let ct = page
            .get(off as usize..(off as usize).saturating_add(len as usize))
            .ok_or_else(|| {
                CoreError::Record(format!(
                    "slot {} payload ({off}+{len}) overruns its page",
                    ptr.slot()
                ))
            })?;
        self.store.counters().bump(|c| &c.data_decrypts);
        let plain = ctr_xor(&self.cipher, Self::nonce(generation, ptr.slot()), ct);
        if let Some(cache) = &self.cache {
            self.store.counters().bump(|c| &c.record_cache_misses);
            cache.insert(ptr, plain.clone());
        }
        self.store
            .counters()
            .obs()
            .stage(sks_storage::Stage::RecordUnseal, t);
        Ok(Some(plain))
    }

    /// Tombstones a record. Space is reclaimed by the compaction sweep
    /// ([`crate::EncipheredBTree::compact_step`]), not here.
    pub fn delete(&mut self, ptr: RecordPtr) -> Result<bool, CoreError> {
        self.note_mutation()?;
        let mut page = self.store.read_block_vec(ptr.block())?;
        let (_, n_slots, _) = Self::read_page_meta(&page)?;
        if ptr.slot() >= n_slots {
            return Err(CoreError::Record(format!(
                "slot {} out of range (page has {n_slots})",
                ptr.slot()
            )));
        }
        let dir_off = PAGE_HEADER + ptr.slot() as usize * SLOT_ENTRY;
        if dir_off + 2 > page.len() {
            // n_slots is medium-controlled; a corrupt count must not let
            // the directory write run off the page.
            return Err(CoreError::Record(format!(
                "slot {} directory entry overruns its page",
                ptr.slot()
            )));
        }
        let was_live = page[dir_off..dir_off + 2] != TOMBSTONE.to_be_bytes();
        page[dir_off..dir_off + 2].copy_from_slice(&TOMBSTONE.to_be_bytes());
        self.store.write_block(ptr.block(), &page)?;
        if let Some(cache) = &self.cache {
            cache.invalidate(ptr);
        }
        if was_live {
            let b = ptr.block().0;
            *self.dead.entry(b).or_default() += 1;
            if let Some(n) = self.live.get_mut(&b) {
                *n = n.saturating_sub(1);
            }
            if let Some(slots) = self.rindex.get_mut(&b) {
                slots.remove(&ptr.slot());
            }
            self.mark_index_block(b);
        }
        Ok(was_live)
    }

    // ---- compaction support -------------------------------------------

    /// Whether a page image is a reverse-index chain page (vs a record
    /// page).
    fn is_index_page(page: &[u8]) -> bool {
        // Length-guarded: callers hand this raw medium pages, which a
        // corrupt device may deliver shorter than the 16-byte header.
        page.len() >= INDEX_HEADER && page[8..10] == INDEX_MARKER.to_be_bytes()
    }

    /// Ensures the dead/live accounting covers the whole store. Fresh
    /// stores (and reopens that loaded a trusted index) are complete by
    /// construction; otherwise one O(blocks) sweep here, on the first
    /// compaction pass after restart (which also picks up garbage left by
    /// a pre-crash epoch). The sweep cannot learn *keys*, so it completes
    /// the accounting but not the reverse index.
    fn ensure_accounting(&mut self) -> Result<(), CoreError> {
        if self.accounting_complete {
            return Ok(());
        }
        self.dead.clear();
        self.live.clear();
        for b in 1..self.store.num_blocks() {
            let page = match self.store.read_block_vec(BlockId(b)) {
                Ok(page) => page,
                Err(sks_storage::StorageError::FreedBlock { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            if Self::is_index_page(&page) {
                continue;
            }
            let (_, n_slots, _) = Self::read_page_meta(&page)?;
            let mut dead = 0u32;
            for slot in 0..n_slots {
                if Self::slot_entry(&page, slot)?.0 == TOMBSTONE {
                    dead += 1;
                }
            }
            if dead > 0 {
                self.dead.insert(b, dead);
            }
            let live = n_slots as u32 - dead;
            if live > 0 {
                self.live.insert(b, live);
            }
        }
        self.accounting_complete = true;
        Ok(())
    }

    /// Total tombstoned slots awaiting compaction (rebuilds the accounting
    /// if this store was reopened).
    pub fn pending_tombstones(&mut self) -> Result<u64, CoreError> {
        self.ensure_accounting()?;
        Ok(self.dead.values().map(|&d| d as u64).sum())
    }

    /// Cheap pre-check: `true` when tombstones *may* exist (always true on
    /// a freshly reopened store until the first sweep rebuilds the map).
    pub fn may_have_tombstones(&self) -> bool {
        !self.accounting_complete || !self.dead.is_empty()
    }

    /// Whether the in-memory reverse index covers every live record (so a
    /// compaction pass can repoint the tree in O(victims)).
    pub fn reverse_index_complete(&self) -> bool {
        self.rindex_complete
    }

    /// The key owning `ptr`, per the reverse index.
    pub(crate) fn key_of(&self, ptr: RecordPtr) -> Option<u64> {
        self.rindex
            .get(&ptr.block().0)
            .and_then(|slots| slots.get(&ptr.slot()))
            .copied()
    }

    /// Up to `limit` reverse-index rows strictly after the `(block, slot)`
    /// cursor, ascending — the orphan sweep's bounded window. O(index)
    /// scan, but the caller's budget keeps the returned set small.
    pub fn reverse_index_rows_after(
        &self,
        cursor: (u32, u16),
        limit: usize,
    ) -> Vec<(u32, u16, u64)> {
        if limit == 0 {
            return Vec::new();
        }
        let mut rows: Vec<(u32, u16, u64)> = self
            .rindex
            .iter()
            .flat_map(|(&b, slots)| slots.iter().map(move |(&s, &k)| (b, s, k)))
            .filter(|&(b, s, _)| (b, s) > cursor)
            .collect();
        rows.sort_unstable();
        rows.truncate(limit);
        rows
    }

    /// The reverse index as sorted `(block, slot, key)` rows
    /// (observability and equivalence tests).
    pub fn reverse_index_snapshot(&self) -> Vec<(u32, u16, u64)> {
        let mut rows: Vec<(u32, u16, u64)> = self
            .rindex
            .iter()
            .flat_map(|(&b, slots)| slots.iter().map(move |(&s, &k)| (b, s, k)))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Replaces the reverse index wholesale (the tree layer's fallback
    /// rebuild feeds a full scan's `ptr → key` pairs through here) and
    /// marks it complete.
    pub(crate) fn adopt_reverse_index(
        &mut self,
        entries: impl IntoIterator<Item = (RecordPtr, u64)>,
    ) {
        self.rindex.clear();
        for (ptr, key) in entries {
            self.rindex
                .entry(ptr.block().0)
                .or_default()
                .insert(ptr.slot(), key);
        }
        self.rindex_complete = true;
        self.index_dirty = true;
        // Wholesale replacement: no bounded dirty set describes it, so
        // the next persist rewrites the whole chain.
        self.index_dirty_blocks = None;
    }

    /// The next `max_blocks` compaction victims, *deadest ratio first*
    /// (ties broken by ascending block id, so the order is deterministic
    /// across backends), excluding the open fill block. Each budget unit
    /// rewrites the block with the least live data, reclaiming maximal
    /// space per unit.
    ///
    /// `min_dead_pct` keeps the pass proportional to actual churn: a
    /// block qualifies only once at least that percentage of its records
    /// are dead. At 0 every block with a single dead record qualifies —
    /// full drain semantics, where reclaiming a one-dead block can mean
    /// re-sealing a hundred live records (and their node pointers) for a
    /// few bytes of space.
    fn compaction_victims(&self, max_blocks: usize, min_dead_pct: u8) -> Vec<BlockId> {
        let mut victims: Vec<(u32, u32, u32)> = self
            .dead
            .iter()
            .filter(|&(&b, _)| Some(BlockId(b)) != self.open_block)
            .map(|(&b, &dead)| (b, dead, self.live.get(&b).copied().unwrap_or(0)))
            .filter(|&(_, dead, live)| {
                dead as u64 * 100 >= min_dead_pct as u64 * (dead + live) as u64
            })
            .collect();
        // dead_a/(dead_a+live_a) > dead_b/(dead_b+live_b), cross-multiplied
        // to stay in integers.
        victims.sort_unstable_by(|&(ba, da, la), &(bb, db, lb)| {
            let lhs = da as u64 * (db + lb) as u64;
            let rhs = db as u64 * (da + la) as u64;
            rhs.cmp(&lhs).then(ba.cmp(&bb))
        });
        victims.truncate(max_blocks);
        victims.into_iter().map(|(b, _, _)| BlockId(b)).collect()
    }

    /// Deciphers the live records of `block` (silently — compaction is
    /// below the paper's cost model) as `(slot, plaintext)` pairs.
    fn live_records(&self, block: BlockId) -> Result<Vec<(u16, Vec<u8>)>, CoreError> {
        let page = self.store.read_block_vec(block)?;
        let (generation, n_slots, _) = Self::read_page_meta(&page)?;
        let mut out = Vec::new();
        for slot in 0..n_slots {
            let (off, len) = Self::slot_entry(&page, slot)?;
            if off == TOMBSTONE {
                continue;
            }
            let ct = &page[off as usize..off as usize + len as usize];
            out.push((
                slot,
                ctr_xor(&self.cipher, Self::nonce(generation, slot), ct),
            ));
        }
        Ok(out)
    }

    /// Frees `block` through the store's free list, dropping its cache
    /// entries and accounting. `reclaimed` charges the free to the
    /// compaction counters (every compaction-path free is a reclaim,
    /// whether the block had live records to move or was already fully
    /// dead).
    fn free_block(&mut self, block: BlockId, reclaimed: bool) -> Result<(), CoreError> {
        if let Some(cache) = &self.cache {
            cache.invalidate_block(block);
        }
        self.dead.remove(&block.0);
        self.live.remove(&block.0);
        self.rindex.remove(&block.0);
        // The delta segment must carry an explicit "no longer tracked"
        // tombstone for this block, or a reopen would resurrect its old
        // entry from an earlier chain segment.
        self.mark_index_block(block.0);
        if self.open_block == Some(block) {
            self.open_block = None;
        }
        if reclaimed {
            // Compaction reclaim: quarantine — the physical free waits
            // for the node device's checkpoint (see `pending_free`).
            self.pending_free.push(block.0);
            self.store.counters().bump(|c| &c.compact_freed_blocks);
        } else {
            // Index-chain frees stay within this single device's journal
            // (the chain is only referenced by this store's superblock),
            // so they are safe immediately.
            self.store.free(block)?;
        }
        Ok(())
    }

    /// Whether compaction-reclaimed blocks are still quarantined awaiting
    /// [`RecordStore::apply_pending_frees`].
    pub fn has_pending_frees(&self) -> bool {
        !self.pending_free.is_empty()
    }

    /// Pushes every quarantined block onto the store's free list. Call
    /// only once the *node* device has committed the repointed tree (the
    /// enciphered-tree flush sequences this); the frees then become
    /// durable with this device's next checkpoint. Returns how many
    /// blocks were released.
    pub fn apply_pending_frees(&mut self) -> Result<u32, CoreError> {
        let n = self.pending_free.len() as u32;
        for b in std::mem::take(&mut self.pending_free) {
            self.store.free(BlockId(b))?;
        }
        Ok(n)
    }

    /// Compacts one victim block: rewrites its live records into fresh
    /// slots (via the open fill block) and frees it. Returns the moves as
    /// `(old_ptr, new_ptr, owning key when the reverse index knows it)`
    /// so the caller can repoint its tree. A block the accounting says is
    /// fully dead skips the decipher-and-move work entirely — the
    /// tombstone fast path — but is still counted as a reclaimed block.
    /// The caller must ensure no concurrent reader holds `block`'s
    /// pointers (the engine runs this under the partition write lock).
    pub(crate) fn compact_block(
        &mut self,
        block: BlockId,
    ) -> Result<Vec<(RecordPtr, RecordPtr, Option<u64>)>, CoreError> {
        debug_assert_ne!(self.open_block, Some(block), "never compact the fill block");
        self.note_mutation()?;
        if self.accounting_complete && self.live.get(&block.0).copied().unwrap_or(0) == 0 {
            // Fully dead: free without a single unseal.
            self.free_block(block, true)?;
            return Ok(Vec::new());
        }
        let live = self.live_records(block)?;
        let mut moves = Vec::with_capacity(live.len());
        for (slot, plain) in live {
            let old = RecordPtr::pack(block, slot);
            let key = self.key_of(old);
            let new_ptr = self.insert_moved(&plain, key)?;
            moves.push((old, new_ptr, key));
        }
        self.free_block(block, true)?;
        Ok(moves)
    }

    /// Blocks the compactor would examine next (deadest first, bounded,
    /// filtered to blocks at least `min_dead_pct` percent dead).
    pub(crate) fn victims(
        &mut self,
        max_blocks: usize,
        min_dead_pct: u8,
    ) -> Result<Vec<BlockId>, CoreError> {
        self.ensure_accounting()?;
        Ok(self.compaction_victims(max_blocks, min_dead_pct))
    }

    /// Releases every freed block at the data device's tail (the record
    /// analogue of the node store's high-water truncation). Returns the
    /// number of blocks released.
    pub(crate) fn truncate_tail(&mut self) -> Result<u32, CoreError> {
        Ok(self.store.truncate_free_tail()?)
    }

    // ---- persistent reverse index -------------------------------------

    /// Serialises the index entries of the given blocks (ascending, plus
    /// the dead/live accounting, so a trusted reopen needs no page sweep)
    /// as one deterministic segment: a block count, then per block its
    /// accounting and sorted slot map. A block absent from every map
    /// serialises as the all-zero entry — the explicit "no longer
    /// tracked" tombstone a delta segment needs.
    fn stream_for_blocks(&self, blocks: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(blocks.len() as u32).to_be_bytes());
        for &b in blocks {
            let dead = self.dead.get(&b).copied().unwrap_or(0);
            let live = self.live.get(&b).copied().unwrap_or(0);
            let mut slots: Vec<(u16, u64)> = self
                .rindex
                .get(&b)
                .map(|m| m.iter().map(|(&s, &k)| (s, k)).collect())
                .unwrap_or_default();
            slots.sort_unstable();
            out.extend_from_slice(&b.to_be_bytes());
            out.extend_from_slice(&dead.to_be_bytes());
            out.extend_from_slice(&live.to_be_bytes());
            out.extend_from_slice(&(slots.len() as u32).to_be_bytes());
            for (s, k) in slots {
                out.extend_from_slice(&s.to_be_bytes());
                out.extend_from_slice(&k.to_be_bytes());
            }
        }
        out
    }

    /// Exact byte size of a full-rewrite segment, without serialising:
    /// the header plus each tracked block's fixed entry and slot rows.
    fn full_stream_len(&self) -> usize {
        let mut tracked: HashSet<u32> = self.rindex.keys().copied().collect();
        tracked.extend(self.dead.keys());
        tracked.extend(self.live.keys());
        let slots: usize = self.rindex.values().map(|m| m.len()).sum();
        4 + tracked.len() * 16 + slots * 10
    }

    /// The full-rewrite segment: every tracked block.
    fn index_stream(&self) -> Vec<u8> {
        let mut blocks: Vec<u32> = self
            .rindex
            .keys()
            .chain(self.dead.keys())
            .chain(self.live.keys())
            .copied()
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        self.stream_for_blocks(&blocks)
    }

    /// Parses a chain's concatenated segments. The chain head holds the
    /// newest segment, so the *first* entry seen for a block is current
    /// truth and later (older-segment) entries for it are superseded; an
    /// all-zero entry is a tombstone — the block is no longer tracked.
    fn parse_index_stream(&mut self, stream: &[u8]) -> Result<(), CoreError> {
        let corrupt = || CoreError::Record("reverse-index stream is corrupt".into());
        let at = std::cell::Cell::new(0usize);
        let take = |n: usize| -> Result<&[u8], CoreError> {
            let end = at.get().checked_add(n).ok_or_else(corrupt)?;
            let s = stream.get(at.get()..end).ok_or_else(corrupt)?;
            at.set(end);
            Ok(s)
        };
        let mut seen = HashSet::new();
        while at.get() < stream.len() {
            let n_blocks = u32::from_be_bytes(take(4)?.try_into().expect("fixed width"));
            for _ in 0..n_blocks {
                let b = u32::from_be_bytes(take(4)?.try_into().expect("fixed width"));
                let dead = u32::from_be_bytes(take(4)?.try_into().expect("fixed width"));
                let live = u32::from_be_bytes(take(4)?.try_into().expect("fixed width"));
                let n_slots = u32::from_be_bytes(take(4)?.try_into().expect("fixed width"));
                let current = seen.insert(b);
                if current && dead > 0 {
                    self.dead.insert(b, dead);
                }
                if current && live > 0 {
                    self.live.insert(b, live);
                }
                for _ in 0..n_slots {
                    let s = u16::from_be_bytes(take(2)?.try_into().expect("fixed width"));
                    let k = u64::from_be_bytes(take(8)?.try_into().expect("fixed width"));
                    if current {
                        self.rindex.entry(b).or_default().insert(s, k);
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads the persisted index chain into the in-memory maps. Only
    /// called when the epoch pair proves it current.
    fn load_index(&mut self) -> Result<Vec<u32>, CoreError> {
        if self.index_root == NO_BLOCK {
            // A complete index over zero live records: nothing to load.
            return Ok(Vec::new());
        }
        let mut chain = Vec::new();
        let mut stream = Vec::new();
        let mut cur = self.index_root;
        let mut hops = 0u32;
        while cur != NO_BLOCK {
            hops += 1;
            if hops > self.store.num_blocks() {
                return Err(CoreError::Record("reverse-index chain loops".into()));
            }
            chain.push(cur);
            let page = self.store.read_block_vec(BlockId(cur))?;
            if !Self::is_index_page(&page) {
                return Err(CoreError::Record(format!(
                    "block {cur} on the index chain is not an index page"
                )));
            }
            let generation = u64::from_be_bytes(page[0..8].try_into().expect("fixed width"));
            let chunk_len =
                u16::from_be_bytes(page[10..12].try_into().expect("fixed width")) as usize;
            let next = u32::from_be_bytes(page[12..16].try_into().expect("fixed width"));
            if INDEX_HEADER + chunk_len > page.len() {
                return Err(CoreError::Record("index chunk overruns its page".into()));
            }
            let sealed = &page[INDEX_HEADER..INDEX_HEADER + chunk_len];
            stream.extend_from_slice(&ctr_xor(
                &self.cipher,
                Self::nonce(generation, INDEX_SLOT),
                sealed,
            ));
            cur = next;
        }
        self.parse_index_stream(&stream)?;
        Ok(chain)
    }

    /// Epoch of the persisted reverse index (the enciphered-tree layer
    /// stamps this into the node superblock at flush to detect the two
    /// devices committing out of step).
    pub fn index_epoch(&self) -> u64 {
        self.index_epoch
    }

    /// Drops all trust in the in-memory index and accounting (the caller
    /// detected that this device's committed image is out of step with
    /// the node device); everything is rebuilt lazily by the next
    /// maintenance pass.
    pub fn distrust_index(&mut self) {
        self.rindex.clear();
        self.live.clear();
        self.dead.clear();
        self.rindex_complete = false;
        self.accounting_complete = false;
        self.index_dirty_blocks = None;
    }

    /// Frees every allocated block the trusted index does not describe:
    /// exactly the compaction victims whose deferred free was lost to a
    /// crash between the node checkpoint and the free-commit (plus the
    /// odd empty fill page). Only sound when the index is trusted *and*
    /// the node device provably committed against this index epoch (the
    /// enciphered-tree layer checks its superblock stamp first) — an
    /// older tree image may still reference blocks the newer index no
    /// longer describes.
    pub fn reconcile_unreferenced_blocks(&mut self) -> Result<(), CoreError> {
        if !self.rindex_complete {
            return Ok(());
        }
        let chain = std::mem::take(&mut self.chain_blocks);
        let mut referenced: std::collections::HashSet<u32> = chain.iter().copied().collect();
        referenced.insert(0);
        referenced.extend(self.dead.keys());
        referenced.extend(self.live.keys());
        referenced.extend(self.rindex.keys());
        referenced.extend(self.store.free_block_ids());
        for b in 1..self.store.num_blocks() {
            if !referenced.contains(&b) {
                self.store.free(BlockId(b))?;
            }
        }
        self.chain_blocks = chain;
        Ok(())
    }

    /// Writes `stream` as a run of sealed chain pages (fresh generations
    /// — recycled chain blocks never repeat keystream), the run's last
    /// page pointing at `next_root`. Returns the page ids, head first.
    fn write_chain_segment(
        &mut self,
        stream: &[u8],
        next_root: u32,
    ) -> Result<Vec<BlockId>, CoreError> {
        let capacity = self.store.block_size() - INDEX_HEADER;
        let chunks: Vec<&[u8]> = stream.chunks(capacity.max(1)).collect();
        // Allocate the whole run first so each page can name its
        // successor.
        let mut ids = Vec::with_capacity(chunks.len());
        for _ in &chunks {
            ids.push(self.store.allocate_min()?);
        }
        for (i, chunk) in chunks.iter().enumerate().rev() {
            let generation = self.next_generation()?;
            let next = ids.get(i + 1).map(|b| b.0).unwrap_or(next_root);
            let mut page = vec![0u8; self.store.block_size()];
            page[0..8].copy_from_slice(&generation.to_be_bytes());
            page[8..10].copy_from_slice(&INDEX_MARKER.to_be_bytes());
            page[10..12].copy_from_slice(&(chunk.len() as u16).to_be_bytes());
            page[12..16].copy_from_slice(&next.to_be_bytes());
            let sealed = ctr_xor(&self.cipher, Self::nonce(generation, INDEX_SLOT), chunk);
            page[INDEX_HEADER..INDEX_HEADER + sealed.len()].copy_from_slice(&sealed);
            self.store.write_block(ids[i], &page)?;
        }
        Ok(ids)
    }

    /// Persists the reverse index and commits the superblock with a
    /// matched epoch pair. When the persisted chain is a complete image
    /// and the dirty-entry set is exact, only the *changed* block entries
    /// are written, as a delta segment prepended to the chain —
    /// O(changed blocks) per epoch instead of O(live) — with a full
    /// rewrite every [`INDEX_REWRITE_PERIOD`] delta epochs to bound chain
    /// length.
    /// Otherwise the previous chain is freed and rewritten wholesale;
    /// when the index is incomplete (unkeyed inserts happened) the chain
    /// is cleared instead, so a reopen rebuilds rather than trusting a
    /// partial map. Called by [`RecordStore::flush`]; skipped entirely
    /// when nothing mutated.
    fn persist_index(&mut self) -> Result<(), CoreError> {
        if !self.index_dirty && self.index_persisted_complete == self.rindex_complete {
            return Ok(());
        }
        let t = self.store.counters().obs().start();
        // Delta eligibility: the persisted chain must be a complete image
        // whose distance from the current maps the dirty set measures
        // exactly.
        let delta_ok = self.rindex_complete
            && self.index_persisted_complete
            && self.index_delta_epochs < INDEX_REWRITE_PERIOD
            && self.index_dirty_blocks.is_some();
        let mut wrote_delta = false;
        if delta_ok {
            let mut dirty: Vec<u32> = self
                .index_dirty_blocks
                .as_ref()
                .expect("eligibility checked the set is Some")
                .iter()
                .copied()
                .collect();
            dirty.sort_unstable();
            if dirty.is_empty() {
                // An epoch whose net index state is unchanged (e.g. only
                // no-op deletes) just re-stamps the superblock; no pages.
                wrote_delta = true;
            } else {
                let stream = self.stream_for_blocks(&dirty);
                let capacity = (self.store.block_size() - INDEX_HEADER).max(1);
                let delta_pages = stream.len().div_ceil(capacity);
                let full_len = self.full_stream_len();
                let full_pages = full_len.div_ceil(capacity).max(1);
                // Only worth it while the delta is genuinely smaller than
                // a rewrite and the chain stays bounded (≤ ~2× the full
                // image): churn that dirties most blocks falls through to
                // the rewrite, which also reclaims the superseded chain.
                if stream.len() * 2 <= full_len
                    && self.chain_blocks.len() + delta_pages <= full_pages * 2 + 1
                {
                    let ids = self.write_chain_segment(&stream, self.index_root)?;
                    let mut chain: Vec<u32> = ids.iter().map(|b| b.0).collect();
                    chain.extend_from_slice(&self.chain_blocks);
                    self.chain_blocks = chain;
                    self.index_root = ids.first().map(|b| b.0).unwrap_or(self.index_root);
                    self.index_delta_epochs += 1;
                    self.store.counters().bump(|c| &c.index_delta_flushes);
                    self.store
                        .counters()
                        .bump_by(|c| &c.index_flush_bytes, stream.len() as u64);
                    wrote_delta = true;
                }
            }
        }
        if !wrote_delta {
            // Free the superseded chain (also when it is stale from a
            // crashed epoch — the head survives in the superblock either
            // way).
            let mut cur = self.index_root;
            let mut hops = 0u32;
            while cur != NO_BLOCK {
                hops += 1;
                if hops > self.store.num_blocks() {
                    break; // stale garbage; stop following it
                }
                let Ok(page) = self.store.read_block_vec(BlockId(cur)) else {
                    break;
                };
                if !Self::is_index_page(&page) {
                    break;
                }
                let next = u32::from_be_bytes(page[12..16].try_into().expect("fixed width"));
                self.free_block(BlockId(cur), false)?;
                cur = next;
            }
            self.index_root = NO_BLOCK;
            self.chain_blocks.clear();
            // An empty stream (zero tracked blocks) persists as a bare
            // `complete` flag with no chain pages, so a fresh store's first
            // checkpoint does not disturb the data device's block layout.
            if self.rindex_complete && !(self.rindex.is_empty() && self.dead.is_empty()) {
                let stream = self.index_stream();
                let ids = self.write_chain_segment(&stream, NO_BLOCK)?;
                self.chain_blocks = ids.iter().map(|b| b.0).collect();
                self.index_root = ids.first().map(|b| b.0).unwrap_or(NO_BLOCK);
                self.store
                    .counters()
                    .bump_by(|c| &c.index_flush_bytes, stream.len() as u64);
            }
            self.index_delta_epochs = 0;
            self.store.counters().bump(|c| &c.index_full_flushes);
        }
        self.index_dirty_blocks = Some(HashSet::new());
        self.index_persisted_complete = self.rindex_complete;
        self.index_epoch += 1;
        self.mut_epoch = self.index_epoch;
        self.index_dirty = false;
        self.write_superblock()?;
        self.store
            .counters()
            .obs()
            .stage(sks_storage::Stage::IndexFlush, t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_storage::MemDisk;

    fn store() -> RecordStore<MemDisk> {
        RecordStore::create(
            MemDisk::new(256),
            0xAABB_CCDD_EEFF_0011_2233_4455_6677_8899,
            0,
        )
        .unwrap()
    }

    fn cached_store() -> RecordStore<MemDisk> {
        RecordStore::create(
            MemDisk::new(256),
            0xAABB_CCDD_EEFF_0011_2233_4455_6677_8899,
            64,
        )
        .unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut rs = store();
        let p1 = rs.insert(b"alpha").unwrap();
        let p2 = rs.insert(b"beta record with more bytes").unwrap();
        assert_eq!(rs.get(p1).unwrap().unwrap(), b"alpha");
        assert_eq!(rs.get(p2).unwrap().unwrap(), b"beta record with more bytes");
    }

    #[test]
    fn records_are_enciphered_on_disk() {
        let mut rs = store();
        let ptr = rs.insert(b"TOPSECRET-SALARY-90000").unwrap();
        let image = rs.store().raw_image();
        let found = image
            .iter()
            .any(|b| b.windows(8).any(|w| w == &b"TOPSECRE"[..]));
        assert!(!found, "plaintext leaked into the data block");
        assert_eq!(rs.get(ptr).unwrap().unwrap(), b"TOPSECRET-SALARY-90000");
    }

    #[test]
    fn fills_multiple_blocks() {
        let mut rs = store();
        let rec = vec![7u8; 100];
        let ptrs: Vec<RecordPtr> = (0..10).map(|_| rs.insert(&rec).unwrap()).collect();
        let blocks: std::collections::HashSet<u32> =
            ptrs.iter().map(|p| p.block().as_u32()).collect();
        assert!(
            blocks.len() >= 5,
            "100-byte records, 256-byte pages: ~2/page"
        );
        for p in ptrs {
            assert_eq!(rs.get(p).unwrap().unwrap(), rec);
        }
    }

    #[test]
    fn delete_tombstones() {
        let mut rs = store();
        let p = rs.insert(b"gone").unwrap();
        assert!(rs.delete(p).unwrap());
        assert_eq!(rs.get(p).unwrap(), None);
        assert!(!rs.delete(p).unwrap(), "double delete reports false");
        assert_eq!(rs.pending_tombstones().unwrap(), 1);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut rs = store();
        let too_big = vec![0u8; 10_000];
        assert!(matches!(rs.insert(&too_big), Err(CoreError::Record(_))));
        // Exactly max fits.
        let max = rs.max_record_len();
        let p = rs.insert(&vec![1u8; max]).unwrap();
        assert_eq!(rs.get(p).unwrap().unwrap().len(), max);
    }

    #[test]
    fn bad_slot_is_error() {
        let mut rs = store();
        let p = rs.insert(b"x").unwrap();
        let bogus = RecordPtr::pack(p.block(), 99);
        assert!(matches!(rs.get(bogus), Err(CoreError::Record(_))));
    }

    #[test]
    fn same_plaintext_different_slots_different_ciphertext() {
        let mut rs = store();
        let p1 = rs.insert(b"same-bytes").unwrap();
        let p2 = rs.insert(b"same-bytes").unwrap();
        assert_ne!(p1, p2);
        assert_eq!(rs.get(p1).unwrap(), rs.get(p2).unwrap());
    }

    #[test]
    fn counters_track_data_crypto() {
        let mut rs = store();
        let p = rs.insert(b"counted").unwrap();
        let _ = rs.get(p).unwrap();
        let s = rs.store().counters().snapshot();
        assert_eq!((s.data_encrypts, s.data_decrypts), (1, 1));
    }

    #[test]
    fn superblock_survives_reopen_and_generations_advance() {
        let mut rs = store();
        let rec = vec![3u8; 100];
        for _ in 0..6 {
            rs.insert(&rec).unwrap();
        }
        let gen_before = rs.next_gen;
        assert!(gen_before > 3, "several pages initialised");
        let disk = rs.into_store();
        let mut rs = RecordStore::open(disk, 0xAABB_CCDD_EEFF_0011_2233_4455_6677_8899, 0).unwrap();
        assert_eq!(rs.next_gen, gen_before, "generation counter persisted");
        // Fresh pages after reopen keep advancing, never reusing keystream.
        for _ in 0..4 {
            rs.insert(&rec).unwrap();
        }
        assert!(rs.next_gen > gen_before);
    }

    #[test]
    fn open_rejects_a_non_record_store() {
        let mut disk = MemDisk::new(256);
        disk.allocate().unwrap(); // block 0 exists but holds no superblock
        assert!(matches!(
            RecordStore::open(disk, 1, 0),
            Err(CoreError::Record(_))
        ));
    }

    #[test]
    fn record_cache_hits_skip_physical_work_but_count_logically() {
        let mut rs = cached_store();
        let p = rs.insert(b"hot record").unwrap();
        rs.store().counters().reset();
        for _ in 0..10 {
            assert_eq!(rs.get(p).unwrap().unwrap(), b"hot record");
        }
        let s = rs.store().counters().snapshot();
        assert_eq!(s.data_decrypts, 10, "logical cost reported per get");
        assert_eq!(s.record_cache_hits, 10, "insert pre-warmed the cache");
        assert_eq!(s.block_reads, 0, "no physical page reads on hits");
    }

    #[test]
    fn record_cache_invalidated_on_delete() {
        let mut rs = cached_store();
        let p = rs.insert(b"soon gone").unwrap();
        assert_eq!(rs.get(p).unwrap().unwrap(), b"soon gone");
        rs.delete(p).unwrap();
        assert_eq!(rs.get(p).unwrap(), None, "stale cache entry must not serve");
    }

    #[test]
    fn record_cache_is_bounded() {
        let mut rs = cached_store(); // capacity 64
        let rec = vec![9u8; 40];
        for _ in 0..200 {
            rs.insert(&rec).unwrap();
        }
        assert!(rs.cached_records() <= 64);
    }

    #[test]
    fn compaction_reclaims_fully_dead_blocks() {
        let mut rs = store();
        let rec = vec![5u8; 100]; // 2 per 256-byte page
        let ptrs: Vec<RecordPtr> = (0..10).map(|_| rs.insert(&rec).unwrap()).collect();
        let blocks_before = rs.store().num_blocks();
        for &p in &ptrs {
            rs.delete(p).unwrap();
        }
        let victims = rs.victims(64, 0).unwrap();
        assert!(!victims.is_empty());
        let mut moves = 0;
        for v in victims {
            moves += rs.compact_block(v).unwrap().len();
        }
        assert_eq!(moves, 0, "every record was dead");
        // Reclaims are quarantined until the caller's node device has
        // committed; apply them as the enciphered-tree flush would.
        assert!(rs.has_pending_frees());
        rs.apply_pending_frees().unwrap();
        use sks_storage::BlockStore as _;
        assert!(
            rs.store().free_blocks() >= blocks_before - 2,
            "dead blocks returned to the free list ({} of {blocks_before})",
            rs.store().free_blocks()
        );
        // Reuse: new inserts pop freed blocks instead of growing the device.
        for _ in 0..8 {
            rs.insert(&rec).unwrap();
        }
        assert_eq!(rs.store().num_blocks(), blocks_before, "no growth");
    }

    #[test]
    fn compaction_moves_live_records_and_preserves_content() {
        let mut rs = store();
        // ~100-byte records: two per 256-byte page, so the set spans
        // several blocks and the open block keeps moving.
        let mk = |i: u64| format!("live-record-{i:03}-{}", "x".repeat(81)).into_bytes();
        let ptrs: Vec<RecordPtr> = (0..12).map(|i| rs.insert(&mk(i)).unwrap()).collect();
        // Kill every other record so most blocks are half dead.
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 2 == 0 {
                rs.delete(p).unwrap();
            }
        }
        let victims = rs.victims(64, 0).unwrap();
        assert!(!victims.is_empty(), "half-dead blocks are victims");
        let mut moved = 0u64;
        for v in victims {
            for (old, new, _) in rs.compact_block(v).unwrap() {
                // Record i sits at block 1 + i/2 (block 0 is the
                // superblock), slot i%2; its content must survive the move
                // byte for byte.
                let i = (old.block().as_u32() as u64 - 1) * 2 + old.slot() as u64;
                assert_eq!(rs.get(new).unwrap().unwrap(), mk(i), "record {i}");
                moved += 1;
            }
        }
        assert!(moved >= 4, "live slots of the victims were rewritten");
        assert!(
            rs.pending_tombstones().unwrap() <= 1,
            "only the open fill block may still hold a tombstone"
        );
    }

    #[test]
    fn recycled_blocks_never_reuse_keystream() {
        // CTR nonce reuse across a block's incarnations would let an
        // opponent XOR old (stale, still on the medium) and new ciphertext
        // into plaintext. Generations make every incarnation's keystream
        // fresh: same block, same slot, different bytes for the *same*
        // plaintext.
        let mut rs = store();
        let rec = vec![0xAA; 100];
        let p0 = rs.insert(&rec).unwrap(); // block 1, slot 0
        let p1 = rs.insert(&rec).unwrap(); // block 1, slot 1 (page now full)
        let _p2 = rs.insert(&rec).unwrap(); // block 2 becomes the open block
        let block = p0.block();
        assert_eq!(p1.block(), block);
        let before = rs.store().raw_image()[block.as_u32() as usize].clone();
        rs.delete(p0).unwrap();
        rs.delete(p1).unwrap();
        for v in rs.victims(64, 0).unwrap() {
            rs.compact_block(v).unwrap();
        }
        rs.apply_pending_frees().unwrap();
        // Fill the open block, then the next insert recycles the freed one.
        let _p3 = rs.insert(&rec).unwrap();
        let p4 = rs.insert(&rec).unwrap();
        assert_eq!(p4.block(), block, "block recycled");
        assert_eq!(p4.slot(), 0, "slot recycled");
        let after = rs.store().raw_image()[block.as_u32() as usize].clone();
        let payload_differs = before
            .iter()
            .zip(&after)
            .skip(PAGE_HEADER + SLOT_ENTRY)
            .any(|(a, b)| a != b);
        assert!(
            payload_differs,
            "identical plaintext re-enciphered in a recycled slot must not repeat keystream"
        );
        assert_eq!(rs.get(p4).unwrap().unwrap(), rec);
    }

    const KEY: u128 = 0xAABB_CCDD_EEFF_0011_2233_4455_6677_8899;

    #[test]
    fn reverse_index_tracks_keyed_churn_and_survives_flush_reopen() {
        let mut rs = store();
        let rec = vec![2u8; 100]; // 2 per 256-byte page
        let mut ptrs = Vec::new();
        for k in 0..10u64 {
            ptrs.push(rs.insert_keyed(1000 + k, &rec).unwrap());
        }
        rs.delete(ptrs[3]).unwrap();
        rs.delete(ptrs[4]).unwrap();
        assert!(rs.reverse_index_complete());
        let want: Vec<(u32, u16, u64)> = ptrs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 3 && i != 4)
            .map(|(i, p)| (p.block().as_u32(), p.slot(), 1000 + i as u64))
            .collect();
        let mut want_sorted = want.clone();
        want_sorted.sort_unstable();
        assert_eq!(rs.reverse_index_snapshot(), want_sorted);
        // Persist + reopen: the index loads from the sealed chain, no
        // page sweep, accounting included.
        rs.flush().unwrap();
        let disk = rs.into_store();
        let mut rs = RecordStore::open(disk, KEY, 0).unwrap();
        assert!(rs.reverse_index_complete(), "trusted after clean flush");
        assert_eq!(rs.reverse_index_snapshot(), want_sorted);
        assert_eq!(rs.pending_tombstones().unwrap(), 2, "accounting loaded");
    }

    #[test]
    fn index_chain_is_sealed_on_the_medium() {
        let mut rs = store();
        // Keys with a recognisable plaintext pattern.
        for k in 0..6u64 {
            rs.insert_keyed(0xDEAD_BEEF_0000_0000 | k, &[1u8; 100])
                .unwrap();
        }
        rs.flush().unwrap();
        let image = rs.store().raw_image();
        let needle = 0xDEAD_BEEF_0000_0001u64.to_be_bytes();
        let found = image.iter().any(|b| b.windows(8).any(|w| w == needle));
        assert!(!found, "plaintext tree keys leaked into the index chain");
        // And the chain really is on the medium (some page carries the
        // marker).
        let marked = image
            .iter()
            .any(|b| b.len() >= 10 && b[8..10] == INDEX_MARKER.to_be_bytes());
        assert!(marked, "no index page found on the medium");
    }

    #[test]
    fn mutations_after_flush_distrust_the_persisted_index() {
        let mut rs = store();
        let rec = vec![7u8; 100];
        let mut ptrs = Vec::new();
        for k in 0..6u64 {
            ptrs.push(rs.insert_keyed(k, &rec).unwrap());
        }
        rs.flush().unwrap();
        // Post-flush mutations reach the (unbuffered) medium, the index
        // chain does not: the epoch guard must refuse the stale chain.
        rs.delete(ptrs[0]).unwrap();
        let disk = rs.into_store();
        let mut rs = RecordStore::open(disk, KEY, 0).unwrap();
        assert!(
            !rs.reverse_index_complete(),
            "stale index must not be trusted"
        );
        assert_eq!(
            rs.pending_tombstones().unwrap(),
            1,
            "lazy sweep sees the post-flush tombstone"
        );
        // The next flush persists a fresh, trustworthy state.
        rs.adopt_reverse_index(ptrs.iter().enumerate().skip(1).map(|(i, &p)| (p, i as u64)));
        rs.flush().unwrap();
        let disk = rs.into_store();
        let rs = RecordStore::open(disk, KEY, 0).unwrap();
        assert!(rs.reverse_index_complete());
        assert_eq!(rs.reverse_index_snapshot().len(), 5);
    }

    #[test]
    fn unkeyed_inserts_mark_the_index_incomplete_and_unpersisted() {
        let mut rs = store();
        rs.insert_keyed(1, b"keyed").unwrap();
        rs.insert(b"unkeyed").unwrap();
        assert!(!rs.reverse_index_complete());
        rs.flush().unwrap();
        let disk = rs.into_store();
        let rs = RecordStore::open(disk, KEY, 0).unwrap();
        assert!(
            !rs.reverse_index_complete(),
            "an incomplete index must not round-trip as complete"
        );
    }

    #[test]
    fn victims_are_ordered_deadest_first() {
        let mut rs = store();
        let rec = vec![9u8; 56]; // 4 per 256-byte page
        let mut ptrs = Vec::new();
        for k in 0..16u64 {
            ptrs.push(rs.insert_keyed(k, &rec).unwrap());
        }
        let blocks: Vec<u32> = {
            let mut b: Vec<u32> = ptrs.iter().map(|p| p.block().as_u32()).collect();
            b.dedup();
            b
        };
        assert!(blocks.len() >= 4);
        // Block 0: 1 dead; block 1: 3 dead; block 2: 2 dead; block 3 open.
        rs.delete(ptrs[0]).unwrap();
        for p in &ptrs[4..7] {
            rs.delete(*p).unwrap();
        }
        for p in &ptrs[8..10] {
            rs.delete(*p).unwrap();
        }
        let victims = rs.victims(10, 0).unwrap();
        assert_eq!(
            victims[..3],
            [BlockId(blocks[1]), BlockId(blocks[2]), BlockId(blocks[0])],
            "deadest ratio first"
        );
    }

    #[test]
    fn dead_ratio_floor_filters_lightly_dead_blocks() {
        let mut rs = store();
        let rec = vec![9u8; 56]; // 4 per 256-byte page
        let mut ptrs = Vec::new();
        for k in 0..16u64 {
            ptrs.push(rs.insert_keyed(k, &rec).unwrap());
        }
        let blocks: Vec<u32> = {
            let mut b: Vec<u32> = ptrs.iter().map(|p| p.block().as_u32()).collect();
            b.dedup();
            b
        };
        assert!(blocks.len() >= 4);
        // Block 0: 1 of 4 dead (25%); block 1: 3 of 4 dead (75%).
        rs.delete(ptrs[0]).unwrap();
        for p in &ptrs[4..7] {
            rs.delete(*p).unwrap();
        }
        // Floor 0 drains both; floor 25 keeps the exactly-at-floor block;
        // floor 50 defers the quarter-dead block until churn concentrates.
        assert_eq!(
            rs.victims(10, 0).unwrap(),
            [BlockId(blocks[1]), BlockId(blocks[0])]
        );
        assert_eq!(
            rs.victims(10, 25).unwrap(),
            [BlockId(blocks[1]), BlockId(blocks[0])],
            "a block exactly at the floor qualifies"
        );
        assert_eq!(
            rs.victims(10, 50).unwrap(),
            [BlockId(blocks[1])],
            "a lightly-dead block is deferred by the floor"
        );
        assert_eq!(rs.victims(10, 80).unwrap(), []);
    }

    #[test]
    fn compact_block_returns_owning_keys_from_the_index() {
        let mut rs = store();
        let rec = vec![4u8; 100];
        let p0 = rs.insert_keyed(500, &rec).unwrap();
        let p1 = rs.insert_keyed(501, &rec).unwrap();
        let _p2 = rs.insert_keyed(502, &rec).unwrap(); // new open block
        rs.delete(p0).unwrap();
        let moves = rs.compact_block(p1.block()).unwrap();
        assert_eq!(moves.len(), 1);
        let (old, new, key) = moves[0];
        assert_eq!(old, p1);
        assert_eq!(key, Some(501), "reverse index knew the owner");
        assert_eq!(rs.get(new).unwrap().unwrap(), rec);
    }

    #[test]
    fn reopened_store_rebuilds_tombstone_accounting() {
        let mut rs = store();
        let rec = vec![1u8; 100];
        let ptrs: Vec<RecordPtr> = (0..6).map(|_| rs.insert(&rec).unwrap()).collect();
        rs.delete(ptrs[0]).unwrap();
        rs.delete(ptrs[3]).unwrap();
        let disk = rs.into_store();
        let mut rs = RecordStore::open(disk, 0xAABB_CCDD_EEFF_0011_2233_4455_6677_8899, 0).unwrap();
        assert!(rs.may_have_tombstones());
        assert_eq!(
            rs.pending_tombstones().unwrap(),
            2,
            "lazy sweep found the pre-restart tombstones"
        );
    }
}
