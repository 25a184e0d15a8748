//! Data blocks: slotted pages of enciphered records.
//!
//! §5: "The encryption algorithm used for the encryption of data blocks can
//! be different and independent to that used for the tree and data pointers
//! in the node blocks." Records here are CTR-enciphered under their own key
//! with a per-(page-generation, slot) nonce whose low bits count the slot's
//! cipher blocks, so no two slots share keystream; compromising node blocks
//! yields only the *location* of data blocks, never their content.
//!
//! Because that seal is independent of the node seal, a record carries its
//! owning tree key inside it: a slot holds `E(key ‖ value)` under one CTR
//! pass, so the key costs 8 bytes of sealed payload and no visible field.
//! The key occupies exactly the first cipher block, so a reader deciphers
//! the value alone (a `get`) or the key alone (the orphan sweep) without
//! touching the other. Nothing else maps a slot to its key: compaction
//! reads each owner from the record it is already unsealing to move it.
//!
//! Two engine-grade facilities sit on top of the paper's static view:
//!
//! * **Tombstone accounting + compaction support** — deletes tombstone
//!   slots and track the dead set per block; the compactor
//!   ([`crate::EncipheredBTree::compact_step`]) rewrites a block's live
//!   records into fresh slots and returns the block to the store's free
//!   list, victims deadest ratio first. The per-block live/dead counts
//!   come from the slot directory, which marks tombstones in plaintext:
//!   complete from `create`, and rebuilt after a reopen by one header-only
//!   sweep with no cryptography on the first pass that needs them.
//!   Because freed blocks are recycled, record nonces derive from a
//!   monotonically increasing *page generation* (persisted in the store's
//!   superblock and stamped into each page header), never from the block
//!   number: a recycled block enciphers under fresh keystream, so stale
//!   ciphertext left on the medium can never be XOR-correlated with a
//!   later record.
//! * **A bounded decoded-record LRU** above the CTR unseal — read-mostly
//!   `get`s of hot records pay zero physical unseals while the *logical*
//!   `data_decrypts` counter keeps reporting the paper's per-get cost.
//!   It is the workspace's one [`LruMap`] behind a mutex, keyed by record
//!   pointer and holding only the value: a hit is an O(1)
//!   look-up-and-touch, a store over its bound drops its least recently
//!   used record. Entries are RAM-only, invalidated on delete/compaction,
//!   and zeroized when the last reference drops. Each store (engine
//!   partition) has its own, so the plaintext-record RAM of a process is
//!   `record_cache × partitions`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use sks_btree_core::RecordPtr;
use sks_crypto::modes::{ctr_xor, ctr_xor_in_place};
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
/// The owning tree key every sealed record starts with: one cipher block.
const KEY_LEN: usize = 8;
/// Low nonce bits reserved for a slot's CTR block index. A slot's sealed
/// length is a `u16`, so it spans at most 2^16 / 8 = 2^13 cipher blocks.
const SLOT_CTR_BITS: u32 = 13;

/// Superblock (block 0) layout: magic, format version, next page
/// generation. Rewritten in place whenever a fresh page is initialised; on
/// buffered backends it rides the same checkpoint as the pages it governs.
const SUPER_MAGIC: &[u8; 8] = b"SKSRECS1";
/// Version 3 seals `key ‖ value` in every slot. Version 2 stores (records
/// without their key, plus a sealed reverse-index chain) are refused.
const SUPER_VERSION: u32 = 3;
const SUPER_LEN: usize = 8 + 4 + 8;

/// A decoded record value held by the [`RecordCache`]. The plaintext is
/// wiped when the last reference drops (eviction, invalidation, cache
/// drop), so heap re-use cannot scrape record bytes out of dead memory.
#[derive(Debug)]
struct CachedRecord {
    bytes: Vec<u8>,
}

impl Drop for CachedRecord {
    fn drop(&mut self) {
        wipe::bytes(&mut self.bytes);
    }
}

/// Bounded LRU of *decoded* record values keyed by record pointer,
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
    /// Live-record count per block (drives dead-ratio victim choice and
    /// the orphan sweep's walk). Complete only when `accounting_complete`.
    live: HashMap<u32, u32>,
    /// Whether `dead`/`live` cover the whole store (a reopened store
    /// rebuilds them from the slot directories on first use).
    accounting_complete: bool,
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
        // Page offsets and slot lengths are `u16`s, which also bounds the
        // cipher blocks a slot's nonce has room for.
        let min = SUPER_LEN.max(PAGE_HEADER + SLOT_ENTRY + KEY_LEN);
        if !(min..=u16::MAX as usize).contains(&store.block_size()) {
            return Err(CoreError::Record(format!(
                "record store needs blocks of {min} to {} bytes",
                u16::MAX
            )));
        }
        let sb = store.allocate()?;
        debug_assert_eq!(sb, BlockId(0), "superblock must be the first block");
        let mut this = Self::with_state(store, data_key, cache_capacity, 1, true);
        this.write_superblock()?;
        Ok(this)
    }

    /// Reopens a record store persisted on `store` (reads the superblock).
    /// O(1): the dead/live accounting is rebuilt lazily, by the first
    /// maintenance pass that needs it. A store of any other format version
    /// is refused.
    pub fn open(store: S, data_key: u128, cache_capacity: usize) -> Result<Self, CoreError> {
        let page = store.read_block_vec(BlockId(0))?;
        if page.len() < SUPER_LEN || &page[0..8] != SUPER_MAGIC {
            return Err(CoreError::Record(
                "data store has no record superblock".into(),
            ));
        }
        let version = u32::from_be_bytes(page[8..12].try_into().expect("fixed width"));
        if version != SUPER_VERSION {
            return Err(CoreError::Record(format!(
                "record-store version {version} is not the supported {SUPER_VERSION}"
            )));
        }
        let next_gen = u64::from_be_bytes(page[12..20].try_into().expect("fixed width"));
        Ok(Self::with_state(
            store,
            data_key,
            cache_capacity,
            next_gen,
            false,
        ))
    }

    fn with_state(
        store: S,
        data_key: u128,
        cache_capacity: usize,
        next_gen: u64,
        accounting_complete: bool,
    ) -> Self {
        RecordStore {
            store,
            cipher: Speck64::from_u128(data_key),
            open_block: None,
            next_gen,
            cache: (cache_capacity > 0).then(|| RecordCache::new(cache_capacity)),
            dead: HashMap::new(),
            live: HashMap::new(),
            accounting_complete,
            pending_free: Vec::new(),
        }
    }

    fn write_superblock(&mut self) -> Result<(), CoreError> {
        let mut page = vec![0u8; self.store.block_size()];
        page[0..8].copy_from_slice(SUPER_MAGIC);
        page[8..12].copy_from_slice(&SUPER_VERSION.to_be_bytes());
        page[12..20].copy_from_slice(&self.next_gen.to_be_bytes());
        Ok(self.store.write_block(BlockId(0), &page)?)
    }

    /// Largest storable record value (a slot also seals its 8-byte key).
    pub fn max_record_len(&self) -> usize {
        self.store.block_size() - PAGE_HEADER - SLOT_ENTRY - KEY_LEN
    }

    pub fn store(&self) -> &S {
        &self.store
    }

    pub fn into_store(self) -> S {
        self.store
    }

    /// Flushes the underlying store (a checkpoint on buffered backends).
    pub fn flush(&mut self) -> Result<(), CoreError> {
        Ok(self.store.flush()?)
    }

    /// Records currently held decoded in the record cache.
    pub fn cached_records(&self) -> usize {
        self.cache.as_ref().map(RecordCache::len).unwrap_or(0)
    }

    /// The generation ceiling: a nonce is `(gen << 16 | slot) << 13`, so
    /// generations must fit 35 bits for the keystream-uniqueness
    /// guarantee to hold. Unreachable in practice (2^35 page
    /// initialisations of >= 32 bytes each is a terabyte of churn even at
    /// the smallest page); hitting it is a loud error, never silent nonce
    /// reuse.
    const MAX_GENERATION: u64 = 1 << (64 - 16 - SLOT_CTR_BITS);

    /// CTR nonce of a slot's first cipher block: the page's generation
    /// (unique per block *incarnation*, never reused even when compaction
    /// recycles the block) and the slot, above [`SLOT_CTR_BITS`] low bits
    /// the slot's own block counter runs through. No two slots of any page
    /// incarnation ever share a counter, however long their records.
    fn nonce(generation: u64, slot: u16) -> u64 {
        ((generation << 16) | slot as u64) << SLOT_CTR_BITS
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

    /// Reads `ptr`'s page and checks its slot exists, returning the page
    /// and its generation.
    fn read_slot_page(&self, ptr: RecordPtr) -> Result<(Vec<u8>, u64), CoreError> {
        let page = self.store.read_block_vec(ptr.block())?;
        let (generation, n_slots, _) = Self::read_page_meta(&page)?;
        if ptr.slot() >= n_slots {
            return Err(CoreError::Record(format!(
                "slot {} out of range (page has {n_slots})",
                ptr.slot()
            )));
        }
        Ok((page, generation))
    }

    fn slot_entry(page: &[u8], slot: u16) -> Result<(u16, u16), CoreError> {
        let mut r = PageReader::new(page);
        r.seek(PAGE_HEADER + slot as usize * SLOT_ENTRY)
            .map_err(|e| CoreError::Record(e.to_string()))?;
        let off = r.get_u16().map_err(|e| CoreError::Record(e.to_string()))?;
        let len = r.get_u16().map_err(|e| CoreError::Record(e.to_string()))?;
        Ok((off, len))
    }

    /// The sealed `key ‖ value` bytes of `slot`, or `None` for a
    /// tombstone. The slot directory is medium-controlled, so an entry
    /// that overruns its page or is too short to hold the key fails
    /// closed instead of slicing out of bounds.
    fn sealed_slot(page: &[u8], slot: u16) -> Result<Option<&[u8]>, CoreError> {
        let (off, len) = Self::slot_entry(page, slot)?;
        if off == TOMBSTONE {
            return Ok(None);
        }
        let sealed = page
            .get(off as usize..off as usize + len as usize)
            .ok_or_else(|| {
                CoreError::Record(format!(
                    "slot {slot} payload ({off}+{len}) overruns its page"
                ))
            })?;
        if sealed.len() < KEY_LEN {
            return Err(CoreError::Record(format!(
                "slot {slot} holds {len} bytes, fewer than its {KEY_LEN}-byte key"
            )));
        }
        Ok(Some(sealed))
    }

    /// Deciphers only the key a sealed slot starts with (its first CTR
    /// block).
    fn open_key(&self, generation: u64, slot: u16, sealed: &[u8]) -> u64 {
        let key = ctr_xor(
            &self.cipher,
            Self::nonce(generation, slot),
            &sealed[..KEY_LEN],
        );
        u64::from_be_bytes(key.try_into().expect("one cipher block"))
    }

    /// Deciphers only the value of a sealed slot: it starts at the second
    /// CTR block, so its keystream starts one counter later.
    fn open_value(&self, generation: u64, slot: u16, sealed: &[u8]) -> Vec<u8> {
        let nonce = Self::nonce(generation, slot).wrapping_add(1);
        ctr_xor(&self.cipher, nonce, &sealed[KEY_LEN..])
    }

    /// Free bytes left in a page with the given metadata.
    fn free_space(&self, n_slots: u16, free_off: u16) -> usize {
        let dir_end = PAGE_HEADER + n_slots as usize * SLOT_ENTRY;
        (free_off as usize).saturating_sub(dir_end + SLOT_ENTRY)
    }

    /// Inserts a record owned by tree key `key`, sealing `key ‖ value`,
    /// and returns its pointer.
    pub fn insert_keyed(&mut self, key: u64, value: &[u8]) -> Result<RecordPtr, CoreError> {
        self.insert_inner(key, value, true)
    }

    /// Shared placement for logical inserts and the compactor's moves. A
    /// move's encipherment is charged to `compact_moved_records` instead
    /// of the paper's `data_encrypts` — moving an already-stored record is
    /// storage maintenance, not a logical write.
    fn insert_inner(
        &mut self,
        key: u64,
        value: &[u8],
        logical: bool,
    ) -> Result<RecordPtr, CoreError> {
        if value.len() > self.max_record_len() {
            return Err(CoreError::Record(format!(
                "record of {} bytes exceeds max {}",
                value.len(),
                self.max_record_len()
            )));
        }
        let len = KEY_LEN + value.len();
        let t = self.store.counters().obs().start();
        // Find or open a block with room.
        let block_size = self.store.block_size();
        let open = match self.open_block {
            Some(b) => {
                let page = self.store.read_block_vec(b)?;
                let (_, n_slots, free_off) = Self::read_page_meta(&page)?;
                (self.free_space(n_slots, free_off) >= len).then_some((b, page))
            }
            None => None,
        };
        let (block, mut page) = match open {
            Some(open) => open,
            None => {
                let nb = self.store.allocate_min()?;
                let fresh = self.init_page(block_size)?;
                self.open_block = Some(nb);
                (nb, fresh)
            }
        };
        let (generation, n_slots, free_off) = Self::read_page_meta(&page)?;
        let slot = n_slots;
        let new_off = free_off as usize - len;
        // Seal `key ‖ value` in place under the per-(generation, slot)
        // nonce: the page buffer never holds the plaintext afterwards.
        if logical {
            self.store.counters().bump(|c| &c.data_encrypts);
        } else {
            self.store.counters().bump(|c| &c.compact_moved_records);
        }
        let sealed = &mut page[new_off..new_off + len];
        sealed[..KEY_LEN].copy_from_slice(&key.to_be_bytes());
        sealed[KEY_LEN..].copy_from_slice(value);
        ctr_xor_in_place(&self.cipher, Self::nonce(generation, slot), sealed);
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
            page[dir_off + 2..dir_off + 4].copy_from_slice(&(len as u16).to_be_bytes());
        }
        self.store.write_block(block, &page)?;
        let ptr = RecordPtr::pack(block, slot);
        *self.live.entry(block.0).or_default() += 1;
        if logical {
            if let Some(cache) = &self.cache {
                // The plaintext is in hand: pre-warm read-after-write
                // gets. Compaction moves skip this — flooding the bounded
                // cache with relocated records would evict the genuinely
                // hot set.
                cache.insert(ptr, value.to_vec());
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

    /// Fetches and deciphers a record's value. `None` for tombstoned
    /// slots.
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
        let (page, generation) = self.read_slot_page(ptr)?;
        let Some(sealed) = Self::sealed_slot(&page, ptr.slot())? else {
            return Ok(None);
        };
        self.store.counters().bump(|c| &c.data_decrypts);
        let value = self.open_value(generation, ptr.slot(), sealed);
        if let Some(cache) = &self.cache {
            self.store.counters().bump(|c| &c.record_cache_misses);
            cache.insert(ptr, value.clone());
        }
        self.store
            .counters()
            .obs()
            .stage(sks_storage::Stage::RecordUnseal, t);
        Ok(Some(value))
    }

    /// Tombstones a record. Space is reclaimed by the compaction sweep
    /// ([`crate::EncipheredBTree::compact_step`]), not here.
    pub fn delete(&mut self, ptr: RecordPtr) -> Result<bool, CoreError> {
        // `read_slot_page` proved the directory entry lies on the page.
        let (mut page, _) = self.read_slot_page(ptr)?;
        let dir_off = PAGE_HEADER + ptr.slot() as usize * SLOT_ENTRY;
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
        }
        Ok(was_live)
    }

    // ---- compaction support -------------------------------------------

    /// Ensures the dead/live accounting covers the whole store. Fresh
    /// stores are complete by construction; a reopened one pays one
    /// O(blocks) sweep of the slot directories here — headers only, no
    /// cryptography — on the first maintenance pass after restart (which
    /// also picks up garbage left by a pre-crash epoch).
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

    /// Live record slots across the store, from the accounting (rebuilt if
    /// this store was reopened). Quarantined victims are not counted.
    pub(crate) fn live_record_slots(&mut self) -> Result<u64, CoreError> {
        self.ensure_accounting()?;
        Ok(self.live.values().map(|&l| l as u64).sum())
    }

    /// Cheap pre-check: `true` when tombstones *may* exist (always true on
    /// a freshly reopened store until the first sweep rebuilds the map).
    pub fn may_have_tombstones(&self) -> bool {
        !self.accounting_complete || !self.dead.is_empty()
    }

    /// Up to `limit` live slots strictly after the `(block, slot)` cursor,
    /// ascending, each with the key its record seals — the orphan sweep's
    /// bounded window. Walks the data pages the accounting lists as
    /// holding live records and deciphers only each slot's first CTR
    /// block, silently (maintenance is below the paper's cost model).
    pub(crate) fn keyed_slots_after(
        &mut self,
        cursor: (u32, u16),
        limit: usize,
    ) -> Result<Vec<(RecordPtr, u64)>, CoreError> {
        self.ensure_accounting()?;
        let mut blocks: Vec<u32> = self
            .live
            .iter()
            .filter(|&(&b, &n)| n > 0 && b >= cursor.0)
            .map(|(&b, _)| b)
            .collect();
        blocks.sort_unstable();
        let mut out = Vec::new();
        for b in blocks {
            let page = self.store.read_block_vec(BlockId(b))?;
            let (generation, n_slots, _) = Self::read_page_meta(&page)?;
            for slot in 0..n_slots {
                if out.len() == limit {
                    return Ok(out);
                }
                if (b, slot) <= cursor {
                    continue;
                }
                if let Some(sealed) = Self::sealed_slot(&page, slot)? {
                    let key = self.open_key(generation, slot, sealed);
                    out.push((RecordPtr::pack(BlockId(b), slot), key));
                }
            }
        }
        Ok(out)
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
    /// below the paper's cost model) as `(slot, key, value)`.
    fn live_records(&self, block: BlockId) -> Result<Vec<(u16, u64, Vec<u8>)>, CoreError> {
        let page = self.store.read_block_vec(block)?;
        let (generation, n_slots, _) = Self::read_page_meta(&page)?;
        let mut out = Vec::new();
        for slot in 0..n_slots {
            if let Some(sealed) = Self::sealed_slot(&page, slot)? {
                out.push((
                    slot,
                    self.open_key(generation, slot, sealed),
                    self.open_value(generation, slot, sealed),
                ));
            }
        }
        Ok(out)
    }

    /// Quarantines compaction victim `block`, dropping its cache entries
    /// and accounting: the physical free waits for the node device's
    /// checkpoint (see `pending_free`).
    fn free_block(&mut self, block: BlockId) {
        if let Some(cache) = &self.cache {
            cache.invalidate_block(block);
        }
        self.dead.remove(&block.0);
        self.live.remove(&block.0);
        if self.open_block == Some(block) {
            self.open_block = None;
        }
        self.pending_free.push(block.0);
        self.store.counters().bump(|c| &c.compact_freed_blocks);
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
    /// slots (via the open fill block) and quarantines it. Returns the
    /// moves as `(old_ptr, new_ptr, owning key)`, the key read from the
    /// record itself, so the caller can repoint its tree. A block the
    /// accounting says is fully dead skips the decipher-and-move work
    /// entirely — the tombstone fast path — but is still counted as a
    /// reclaimed block. The caller must ensure no concurrent reader holds
    /// `block`'s pointers (the engine runs this under the partition write
    /// lock).
    pub(crate) fn compact_block(
        &mut self,
        block: BlockId,
    ) -> Result<Vec<(RecordPtr, RecordPtr, u64)>, CoreError> {
        debug_assert_ne!(self.open_block, Some(block), "never compact the fill block");
        if self.accounting_complete && self.live.get(&block.0).copied().unwrap_or(0) == 0 {
            // Fully dead: free without a single unseal.
            self.free_block(block);
            return Ok(Vec::new());
        }
        let live = self.live_records(block)?;
        let mut moves = Vec::with_capacity(live.len());
        for (slot, key, value) in live {
            let new_ptr = self.insert_inner(key, &value, false)?;
            moves.push((RecordPtr::pack(block, slot), new_ptr, key));
        }
        self.free_block(block);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_storage::MemDisk;

    const KEY: u128 = 0xAABB_CCDD_EEFF_0011_2233_4455_6677_8899;

    fn store() -> RecordStore<MemDisk> {
        RecordStore::create(MemDisk::new(256), KEY, 0).unwrap()
    }

    fn cached_store() -> RecordStore<MemDisk> {
        RecordStore::create(MemDisk::new(256), KEY, 64).unwrap()
    }

    /// Inserts `n` copies of `rec` under keys `0..n`.
    fn fill(rs: &mut RecordStore<MemDisk>, n: u64, rec: &[u8]) -> Vec<RecordPtr> {
        (0..n).map(|k| rs.insert_keyed(k, rec).unwrap()).collect()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut rs = store();
        let p1 = rs.insert_keyed(1, b"alpha").unwrap();
        let p2 = rs.insert_keyed(2, b"beta record with more bytes").unwrap();
        assert_eq!(rs.get(p1).unwrap().unwrap(), b"alpha");
        assert_eq!(rs.get(p2).unwrap().unwrap(), b"beta record with more bytes");
    }

    #[test]
    fn records_are_enciphered_on_disk() {
        let mut rs = store();
        let key = 0xDEAD_BEEF_0000_0001u64;
        let ptr = rs.insert_keyed(key, b"TOPSECRET-SALARY-90000").unwrap();
        let image = rs.store().raw_image();
        for needle in [&b"TOPSECRE"[..], &key.to_be_bytes()[..]] {
            let found = image.iter().any(|b| b.windows(8).any(|w| w == needle));
            assert!(!found, "plaintext {needle:?} leaked into the data block");
        }
        assert_eq!(rs.get(ptr).unwrap().unwrap(), b"TOPSECRET-SALARY-90000");
    }

    /// The key is exactly the first cipher block of one CTR pass over
    /// `key ‖ value`: deciphering either half alone agrees with the whole
    /// seal on the medium.
    #[test]
    fn key_and_value_open_separately_from_one_seal() {
        let mut rs = store();
        let (key, value) = (0x0102_0304_0506_0708u64, b"value spanning three blocks");
        let ptr = rs.insert_keyed(key, value).unwrap();
        let page = rs.store().raw_image()[ptr.block().as_u32() as usize].clone();
        let (generation, _, _) = RecordStore::<MemDisk>::read_page_meta(&page).unwrap();
        let sealed = RecordStore::<MemDisk>::sealed_slot(&page, ptr.slot())
            .unwrap()
            .unwrap();
        let mut plain = key.to_be_bytes().to_vec();
        plain.extend_from_slice(value);
        let nonce = RecordStore::<MemDisk>::nonce(generation, ptr.slot());
        assert_eq!(sealed, ctr_xor(&rs.cipher, nonce, &plain));
        assert_eq!(rs.keyed_slots_after((0, 0), 8).unwrap(), [(ptr, key)]);
        assert_eq!(rs.get(ptr).unwrap().unwrap(), value);
    }

    /// A slot's CTR counters never run into another slot's, however many
    /// cipher blocks its record spans. With `gen << 16 | slot` as the first
    /// counter, slot s's key block reused the keystream of slot s-1's first
    /// value block, so the medium showed `key_s ⊕ value_{s-1}`.
    #[test]
    fn no_two_slots_share_a_ctr_counter() {
        let mut rs = store();
        let zeros = [0u8; 40]; // key ‖ value = 6 cipher blocks per slot
        let ptrs = fill(&mut rs, 4, &zeros);
        let block = ptrs[0].block();
        assert!(ptrs.iter().all(|p| p.block() == block), "one page");
        let page = rs.store().raw_image()[block.as_u32() as usize].clone();
        let mut keystream = std::collections::HashSet::new();
        for (key, p) in (0u64..).zip(&ptrs) {
            let sealed = RecordStore::<MemDisk>::sealed_slot(&page, p.slot())
                .unwrap()
                .unwrap();
            let mut plain = key.to_be_bytes().to_vec();
            plain.extend_from_slice(&zeros);
            for (c, m) in sealed.chunks(8).zip(plain.chunks(8)) {
                let ks: Vec<u8> = c.iter().zip(m).map(|(c, m)| c ^ m).collect();
                assert!(keystream.insert(ks), "slot {} reuses keystream", p.slot());
            }
        }
        // The counter ranges stay disjoint for the longest slot a page can
        // describe, across slots and generations, up to the ceiling.
        let nonce = RecordStore::<MemDisk>::nonce;
        let span = (u16::MAX as u64).div_ceil(KEY_LEN as u64);
        let top = RecordStore::<MemDisk>::MAX_GENERATION - 1;
        for generation in [0, 1, top] {
            for slot in 0..u16::MAX {
                assert!(nonce(generation, slot) + span <= nonce(generation, slot + 1));
            }
        }
        assert!(nonce(0, u16::MAX) + span <= nonce(1, 0));
        assert!(nonce(top, u16::MAX).checked_add(span - 1).is_some());
    }

    #[test]
    fn fills_multiple_blocks() {
        let mut rs = store();
        let rec = vec![7u8; 100];
        let ptrs = fill(&mut rs, 10, &rec);
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
        let p = rs.insert_keyed(1, b"gone").unwrap();
        assert!(rs.delete(p).unwrap());
        assert_eq!(rs.get(p).unwrap(), None);
        assert!(!rs.delete(p).unwrap(), "double delete reports false");
        assert_eq!(rs.pending_tombstones().unwrap(), 1);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut rs = store();
        let too_big = vec![0u8; 10_000];
        assert!(matches!(
            rs.insert_keyed(1, &too_big),
            Err(CoreError::Record(_))
        ));
        // Exactly max fits, key included.
        let max = rs.max_record_len();
        let p = rs.insert_keyed(2, &vec![1u8; max]).unwrap();
        assert_eq!(rs.get(p).unwrap().unwrap().len(), max);
        assert!(rs.insert_keyed(3, &vec![1u8; max + 1]).is_err());
    }

    #[test]
    fn bad_slot_is_error() {
        let mut rs = store();
        let p = rs.insert_keyed(1, b"x").unwrap();
        let bogus = RecordPtr::pack(p.block(), 99);
        assert!(matches!(rs.get(bogus), Err(CoreError::Record(_))));
    }

    /// A slot directory entry too short to hold the key prefix fails
    /// closed on every path that reads a slot: get, the orphan sweep's
    /// key read and a compaction move.
    #[test]
    fn a_slot_shorter_than_its_key_fails_closed() {
        for short in 0..KEY_LEN as u16 {
            let mut rs = store();
            let ptrs = fill(&mut rs, 3, &[6u8; 100]);
            rs.delete(ptrs[1]).unwrap(); // block of ptrs[0] becomes a victim
            let mut disk = rs.into_store();
            let block = ptrs[0].block();
            let mut page = disk.raw_image()[block.as_u32() as usize].clone();
            let len_off = PAGE_HEADER + ptrs[0].slot() as usize * SLOT_ENTRY + 2;
            page[len_off..len_off + 2].copy_from_slice(&short.to_be_bytes());
            disk.write_block(block, &page).unwrap();
            let mut rs = RecordStore::open(disk, KEY, 0).unwrap();
            assert!(matches!(rs.get(ptrs[0]), Err(CoreError::Record(_))));
            assert!(matches!(
                rs.keyed_slots_after((0, 0), 8),
                Err(CoreError::Record(_))
            ));
            assert_eq!(rs.victims(8, 0).unwrap(), [block]);
            assert!(matches!(rs.compact_block(block), Err(CoreError::Record(_))));
            assert_eq!(rs.get(ptrs[2]).unwrap().unwrap(), [6u8; 100]);
        }
    }

    #[test]
    fn same_plaintext_different_slots_different_ciphertext() {
        let mut rs = store();
        let p1 = rs.insert_keyed(1, b"same-bytes").unwrap();
        let p2 = rs.insert_keyed(1, b"same-bytes").unwrap();
        assert_ne!(p1, p2);
        assert_eq!(rs.get(p1).unwrap(), rs.get(p2).unwrap());
    }

    #[test]
    fn counters_track_data_crypto() {
        let mut rs = store();
        let p = rs.insert_keyed(1, b"counted").unwrap();
        let _ = rs.get(p).unwrap();
        let s = rs.store().counters().snapshot();
        assert_eq!((s.data_encrypts, s.data_decrypts), (1, 1));
    }

    #[test]
    fn superblock_survives_reopen_and_generations_advance() {
        let mut rs = store();
        let rec = vec![3u8; 100];
        fill(&mut rs, 6, &rec);
        let gen_before = rs.next_gen;
        assert!(gen_before > 3, "several pages initialised");
        let disk = rs.into_store();
        let mut rs = RecordStore::open(disk, KEY, 0).unwrap();
        assert_eq!(rs.next_gen, gen_before, "generation counter persisted");
        // Fresh pages after reopen keep advancing, never reusing keystream.
        fill(&mut rs, 4, &rec);
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
        let p = rs.insert_keyed(1, b"hot record").unwrap();
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
        let p = rs.insert_keyed(1, b"soon gone").unwrap();
        assert_eq!(rs.get(p).unwrap().unwrap(), b"soon gone");
        rs.delete(p).unwrap();
        assert_eq!(rs.get(p).unwrap(), None, "stale cache entry must not serve");
    }

    #[test]
    fn record_cache_is_bounded() {
        let mut rs = cached_store(); // capacity 64
        fill(&mut rs, 200, &[9u8; 40]);
        assert!(rs.cached_records() <= 64);
    }

    #[test]
    fn compaction_reclaims_fully_dead_blocks() {
        let mut rs = store();
        let rec = vec![5u8; 100]; // 2 per 256-byte page
        let ptrs = fill(&mut rs, 10, &rec);
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
        fill(&mut rs, 8, &rec);
        assert_eq!(rs.store().num_blocks(), blocks_before, "no growth");
    }

    #[test]
    fn compaction_moves_live_records_and_preserves_content() {
        let mut rs = store();
        // ~100-byte records: two per 256-byte page, so the set spans
        // several blocks and the open block keeps moving.
        let mk = |i: u64| format!("live-record-{i:03}-{}", "x".repeat(81)).into_bytes();
        let ptrs: Vec<RecordPtr> = (0..12)
            .map(|i| rs.insert_keyed(i, &mk(i)).unwrap())
            .collect();
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
            for (old, new, key) in rs.compact_block(v).unwrap() {
                // Each move names the owner its record sealed, and the
                // content survives byte for byte.
                assert_eq!(old, ptrs[key as usize], "record {key}");
                assert_eq!(rs.get(new).unwrap().unwrap(), mk(key), "record {key}");
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
        let p0 = rs.insert_keyed(1, &rec).unwrap(); // block 1, slot 0
        let p1 = rs.insert_keyed(1, &rec).unwrap(); // block 1, slot 1 (page now full)
        let _p2 = rs.insert_keyed(1, &rec).unwrap(); // block 2 becomes the open block
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
        let _p3 = rs.insert_keyed(1, &rec).unwrap();
        let p4 = rs.insert_keyed(1, &rec).unwrap();
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

    #[test]
    fn victims_are_ordered_deadest_first() {
        let mut rs = store();
        let ptrs = fill(&mut rs, 16, &[9u8; 48]); // 4 per 256-byte page
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
        let ptrs = fill(&mut rs, 16, &[9u8; 48]); // 4 per 256-byte page
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
    fn compact_block_reads_owning_keys_from_the_records() {
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
        assert_eq!(key, 501, "the record sealed its owner");
        assert_eq!(rs.get(new).unwrap().unwrap(), rec);
    }

    /// The sweep window walks live slots in `(block, slot)` order from a
    /// cursor, skipping tombstones and quarantined victims.
    #[test]
    fn keyed_slots_after_walks_live_slots_from_the_cursor() {
        let mut rs = store();
        let ptrs = fill(&mut rs, 8, &[3u8; 48]); // 4 per 256-byte page
        rs.delete(ptrs[1]).unwrap();
        let all: Vec<(RecordPtr, u64)> = ptrs
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != 1)
            .map(|(k, &p)| (p, k as u64))
            .collect();
        assert_eq!(rs.keyed_slots_after((0, 0), 100).unwrap(), all);
        assert_eq!(rs.keyed_slots_after((0, 0), 2).unwrap(), all[..2]);
        let cursor = (ptrs[2].block().as_u32(), ptrs[2].slot());
        assert_eq!(rs.keyed_slots_after(cursor, 100).unwrap(), all[2..]);
        rs.compact_block(ptrs[0].block()).unwrap();
        assert_eq!(rs.keyed_slots_after((0, 0), 100).unwrap().len(), all.len());
        assert!(rs
            .keyed_slots_after((0, 0), 100)
            .unwrap()
            .iter()
            .all(|(p, _)| p.block() != ptrs[0].block()));
    }

    #[test]
    fn reopened_store_rebuilds_accounting_from_the_slot_directory() {
        let mut rs = store();
        let ptrs = fill(&mut rs, 6, &[1u8; 100]);
        rs.delete(ptrs[0]).unwrap();
        rs.delete(ptrs[3]).unwrap();
        let disk = rs.into_store();
        let mut rs = RecordStore::open(disk, KEY, 0).unwrap();
        assert!(rs.may_have_tombstones());
        rs.store().counters().reset();
        assert_eq!(
            rs.pending_tombstones().unwrap(),
            2,
            "lazy sweep found the pre-restart tombstones"
        );
        assert_eq!(rs.live_record_slots().unwrap(), 4);
        let s = rs.store().counters().snapshot();
        assert_eq!(s.data_decrypts, 0, "the sweep reads headers only");
    }
}
