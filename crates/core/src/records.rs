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
//! the key alone (a read's owner check) or the value alone without
//! touching the other. A read on a tree key's behalf
//! ([`RecordStore::get_keyed`], [`RecordStore::peek_keyed`]) refuses a
//! record sealed under another key, so a data pointer aimed at the wrong
//! slot fails closed instead of serving that slot. Nothing else maps a
//! slot to its key: compaction reads each owner from the record it is
//! already unsealing to move it.
//!
//! Records are sealed and unsealed against the page the store lends
//! ([`BlockStore::read_with`], [`BlockStore::update_with`]) — on the file
//! backend, the buffer-pool frame itself. Every read goes through one run
//! reader: a range scan's `(key, pointer)` pairs are split into runs on
//! one data block, and a point get is a run of one. A run takes one
//! record-cache lock for its hits and one page lend for the rest, which
//! copies only each sealed key block and value out of the page, the value
//! straight into the buffer the read returns. Once the store is let go,
//! one keystream pass ([`ctr_xor_each`], drawing the counters of every
//! record of the run through the cipher's wide lanes) opens the key
//! blocks, every owner is checked, and only then a second pass opens the
//! values. An insert seals its slot, and a delete writes its tombstone,
//! inside the page. No operation copies the whole page out and back: the
//! maintenance reads (compaction's victim read, the reopen-time accounting
//! sweep) borrow the page too, and open keys and values through the same
//! two passes.
//!
//! Two engine-grade facilities sit on top of the paper's static view:
//!
//! * **Tombstone accounting + compaction support** (`records::compact`)
//!   — deletes tombstone slots, and the compactor rewrites a block's live
//!   records into fresh slots and returns the block to the free list.
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
//!   pointer and holding the value and its owning key, which a keyed hit
//!   checks as a physical read does: a hit is an O(1) look-up-and-touch,
//!   a store over its bound drops its least recently used record. Point
//!   gets and logical inserts add records; range scans, the priors an
//!   overwrite or delete returns ([`RecordStore::peek_keyed`]) and
//!   compaction moves do not, so none of them evicts the point-get hot
//!   set. Entries are RAM-only, invalidated on delete/compaction, and
//!   zeroized when the last reference drops. Each store (engine
//!   partition) has its own, so the plaintext-record RAM of a process is
//!   `SchemeConfig::DEFAULT_RECORD_CACHE × partitions`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use sks_btree_core::RecordPtr;
use sks_crypto::modes::{ctr_xor_each, ctr_xor_in_place};
use sks_crypto::speck::Speck64;
use sks_storage::{wipe, BlockId, BlockStore, LruMap, PageReader};

use crate::error::CoreError;

mod compact;

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
/// The most records one page lend serves. A run of more records on one
/// data block (records under ≈ 50 bytes at 4 KiB) is read this many at a
/// time.
const RUN_BATCH: usize = 64;

/// Superblock (block 0) layout: magic, format version, next page
/// generation. Rewritten in place whenever a fresh page is initialised; on
/// buffered backends it rides the same checkpoint as the pages it governs.
const SUPER_MAGIC: &[u8; 8] = b"SKSRECS1";
/// Version 3 seals `key ‖ value` in every slot. Version 2 stores (records
/// without their key, plus a sealed reverse-index chain) are refused.
const SUPER_VERSION: u32 = 3;
const SUPER_LEN: usize = 8 + 4 + 8;

/// A decoded record held by the [`RecordCache`]: its value and the tree
/// key that owns it. The plaintext is wiped when the last reference drops
/// (eviction, invalidation, cache drop), so heap re-use cannot scrape
/// record bytes out of dead memory.
#[derive(Debug)]
struct CachedRecord {
    owner: u64,
    bytes: Vec<u8>,
}

impl Drop for CachedRecord {
    fn drop(&mut self) {
        wipe::bytes(&mut self.bytes);
        wipe::words(std::slice::from_mut(&mut self.owner));
    }
}

/// How a record read answers to the record's owner and the record cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    /// Owner-blind ([`RecordStore::get`]); admits what it deciphers.
    Blind,
    /// On each key's behalf; admits what it deciphers (point gets).
    Keyed,
    /// On each key's behalf; admits nothing (range scans and priors).
    Peek,
}

/// One record of a run, between the page lend and the answer.
enum Fetched {
    /// A tombstoned slot — and every record the cache did not serve
    /// until the page lend copies it.
    Tombstone,
    /// Served by the record cache: the plaintext, its owner checked.
    Hit(Vec<u8>),
    /// Copied off the page: the key block and the value, sealed until
    /// the run's keystream passes open them in place.
    Sealed([u8; KEY_LEN], Vec<u8>),
}

/// The records of a run copied off the page, as `(slot, key block, value)`.
fn sealed<'a>(
    run: &'a [(u64, RecordPtr)],
    fetched: &'a mut [Fetched],
) -> impl Iterator<Item = (u16, &'a mut [u8; KEY_LEN], &'a mut Vec<u8>)> {
    run.iter()
        .zip(fetched)
        .filter_map(|(&(_, ptr), record)| match record {
            Fetched::Sealed(key, value) => Some((ptr.slot(), key, value)),
            _ => None,
        })
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

    fn insert(&self, ptr: RecordPtr, owner: u64, bytes: Vec<u8>) {
        Self::admit(&mut self.lock(), ptr, owner, bytes);
    }

    /// Adds a record under a lock the caller holds, evicting down to the
    /// bound.
    fn admit(lru: &mut LruMap<u64, Arc<CachedRecord>>, ptr: RecordPtr, owner: u64, bytes: Vec<u8>) {
        lru.insert(ptr.0, Arc::new(CachedRecord { owner, bytes }));
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

/// Who places a record: what its encipherment is charged to, and whether
/// its plaintext pre-warms the record cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// A logical insert: charged to `data_encrypts`, pre-warms the cache.
    Insert,
    /// A bulk load's insert: charged like one, leaves the cache alone.
    Load,
    /// A compaction move: charged to `compact_moved_records`, leaves the
    /// cache alone.
    Move,
}

/// A slotted-page record store with per-record encipherment.
pub struct RecordStore<S: BlockStore> {
    store: S,
    cipher: Speck64,
    /// Block currently being filled.
    open_block: Option<BlockId>,
    /// Free bytes left on `open_block` (what [`RecordStore::seal_into`]
    /// last left there), so an insert that will not fit opens a fresh
    /// block without touching the full one.
    open_free: usize,
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
    /// rebuilds them from the slot directories on first use).
    accounting_complete: bool,
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
            open_free: 0,
            next_gen,
            cache: (cache_capacity > 0).then(|| RecordCache::new(cache_capacity)),
            dead: HashMap::new(),
            live: HashMap::new(),
            accounting_complete,
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

    /// Checks `slot` exists on `page`, returning the page's generation.
    fn check_slot(page: &[u8], slot: u16) -> Result<u64, CoreError> {
        let (generation, n_slots, _) = Self::read_page_meta(page)?;
        if slot >= n_slots {
            return Err(CoreError::Record(format!(
                "slot {slot} out of range (page has {n_slots})"
            )));
        }
        Ok(generation)
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

    /// The sealed key block a sealed slot starts with
    /// ([`RecordStore::sealed_slot`] proves it is there).
    fn key_block(sealed: &[u8]) -> [u8; KEY_LEN] {
        sealed[..KEY_LEN].try_into().expect("one cipher block")
    }

    /// CTR nonce of a slot's value: it starts at the second CTR block, so
    /// its keystream starts one counter after the key's.
    fn value_nonce(generation: u64, slot: u16) -> u64 {
        Self::nonce(generation, slot).wrapping_add(1)
    }

    /// Deciphers in place the key blocks of records sealed on a page of
    /// `generation`, given as `(slot, key block)`: one keystream pass,
    /// with nothing allocated.
    fn open_keys<'a>(
        &self,
        generation: u64,
        keys: impl IntoIterator<Item = (u16, &'a mut [u8; KEY_LEN])>,
    ) {
        let blocks = keys
            .into_iter()
            .map(|(slot, key)| (Self::nonce(generation, slot), &mut key[..]));
        ctr_xor_each(&self.cipher, blocks);
    }

    /// Deciphers in place the values of records sealed on a page of
    /// `generation`, given as `(slot, value)`: one keystream pass.
    fn open_values<'a>(
        &self,
        generation: u64,
        values: impl IntoIterator<Item = (u16, &'a mut [u8])>,
    ) {
        let values = values
            .into_iter()
            .map(|(slot, value)| (Self::value_nonce(generation, slot), value));
        ctr_xor_each(&self.cipher, values);
    }

    /// Free bytes left in a page with the given metadata.
    fn free_space(n_slots: u16, free_off: u16) -> usize {
        let dir_end = PAGE_HEADER + n_slots as usize * SLOT_ENTRY;
        (free_off as usize).saturating_sub(dir_end + SLOT_ENTRY)
    }

    /// Inserts a record owned by tree key `key`, sealing `key ‖ value`,
    /// and returns its pointer.
    pub fn insert_keyed(&mut self, key: u64, value: &[u8]) -> Result<RecordPtr, CoreError> {
        self.insert_inner(key, value, Placement::Insert)
    }

    /// [`RecordStore::insert_keyed`] for a bulk load: counted the same,
    /// but the record cache is left alone. A load places hundreds of
    /// thousands of records no one has asked for yet, and pre-warming the
    /// bounded cache with each would only evict the one before.
    pub(crate) fn load_keyed(&mut self, key: u64, value: &[u8]) -> Result<RecordPtr, CoreError> {
        self.insert_inner(key, value, Placement::Load)
    }

    /// Shared placement for logical inserts and the compactor's moves. A
    /// move's encipherment is charged to `compact_moved_records` instead
    /// of the paper's `data_encrypts` — moving an already-stored record is
    /// storage maintenance, not a logical write.
    ///
    /// The record is sealed straight into the open block's page where the
    /// store lends it ([`BlockStore::update_with`]); a fresh block's page
    /// is built here and written whole.
    fn insert_inner(
        &mut self,
        key: u64,
        value: &[u8],
        placement: Placement,
    ) -> Result<RecordPtr, CoreError> {
        if value.len() > self.max_record_len() {
            return Err(CoreError::Record(format!(
                "record of {} bytes exceeds max {}",
                value.len(),
                self.max_record_len()
            )));
        }
        let t = self.store.counters().obs().start();
        let (block, slot) = match self.open_block {
            Some(b) if self.open_free >= KEY_LEN + value.len() => {
                let cipher = &self.cipher;
                let mut sealed = None;
                self.store.update_with(b, &mut |page| {
                    sealed = Some(Self::seal_into(cipher, page, key, value));
                })?;
                let (slot, free) = sealed.expect("update_with lends the page")?;
                self.open_free = free;
                (b, slot)
            }
            _ => {
                let block_size = self.store.block_size();
                let nb = self.store.allocate_min()?;
                let mut page = self.init_page(block_size)?;
                let (slot, free) = Self::seal_into(&self.cipher, &mut page, key, value)?;
                self.store.write_block(nb, &page)?;
                self.open_block = Some(nb);
                self.open_free = free;
                (nb, slot)
            }
        };
        if placement == Placement::Move {
            self.store.counters().bump(|c| &c.compact_moved_records);
        } else {
            self.store.counters().bump(|c| &c.data_encrypts);
        }
        let ptr = RecordPtr::pack(block, slot);
        *self.live.entry(block.0).or_default() += 1;
        if placement == Placement::Insert {
            if let Some(cache) = &self.cache {
                // The plaintext is in hand: pre-warm read-after-write
                // gets. Compaction moves and bulk loads skip this —
                // flooding the bounded cache with records no one asked
                // for would evict the genuinely hot set.
                cache.insert(ptr, key, value.to_vec());
            }
        }
        self.store
            .counters()
            .obs()
            .stage(sks_storage::Stage::RecordSeal, t);
        Ok(ptr)
    }

    /// Seals `key ‖ value` into the next slot of `page` under the
    /// per-(generation, slot) nonce — the page never holds the plaintext
    /// afterwards — and appends the slot to the directory. Returns the
    /// slot and the free bytes left. A page without room for the record
    /// fails closed, untouched.
    fn seal_into(
        cipher: &Speck64,
        page: &mut [u8],
        key: u64,
        value: &[u8],
    ) -> Result<(u16, usize), CoreError> {
        let (generation, n_slots, free_off) = Self::read_page_meta(page)?;
        let len = KEY_LEN + value.len();
        if Self::free_space(n_slots, free_off) < len {
            return Err(CoreError::Record(format!(
                "open page has no room for a {len}-byte slot"
            )));
        }
        let slot = n_slots;
        let new_off = free_off as usize - len;
        let sealed = &mut page[new_off..new_off + len];
        sealed[..KEY_LEN].copy_from_slice(&key.to_be_bytes());
        sealed[KEY_LEN..].copy_from_slice(value);
        ctr_xor_in_place(cipher, Self::nonce(generation, slot), sealed);
        page[8..10].copy_from_slice(&(n_slots + 1).to_be_bytes());
        page[10..12].copy_from_slice(&(new_off as u16).to_be_bytes());
        let dir_off = PAGE_HEADER + slot as usize * SLOT_ENTRY;
        page[dir_off..dir_off + 2].copy_from_slice(&(new_off as u16).to_be_bytes());
        page[dir_off + 2..dir_off + 4].copy_from_slice(&(len as u16).to_be_bytes());
        Ok((slot, Self::free_space(n_slots + 1, new_off as u16)))
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

    /// Fetches and deciphers a record's value, whatever key owns it.
    /// `None` for tombstoned slots. A record unsealed here joins the
    /// record cache. The tree reads through [`RecordStore::get_keyed`];
    /// this owner-blind read serves the stores that keep no tree key per
    /// record (the §4.3 filter, the §5 multilevel store).
    ///
    /// The logical `data_decrypts` counter is bumped per live get — the
    /// paper's per-scheme cost — whether the plaintext comes from the
    /// physical CTR unseal or from the decoded-record cache (which only
    /// skips the *physical* work, tracked by `record_cache_hits`).
    pub fn get(&self, ptr: RecordPtr) -> Result<Option<Vec<u8>>, CoreError> {
        self.read_one(0, ptr, Read::Blind)
    }

    /// [`RecordStore::get`] on behalf of tree key `key`: a record sealed
    /// under any other key is refused with [`CoreError::Record`], whether
    /// it comes from the page or the cache. Counted exactly as `get` is.
    pub fn get_keyed(&self, ptr: RecordPtr, key: u64) -> Result<Option<Vec<u8>>, CoreError> {
        self.read_one(key, ptr, Read::Keyed)
    }

    /// [`RecordStore::get_keyed`] that looks the cache up but never adds
    /// to it: a prior is deleted right after it is read, so admitting it
    /// would only evict the point-get hot set. Counted exactly as `get`
    /// is.
    pub fn peek_keyed(&self, ptr: RecordPtr, key: u64) -> Result<Option<Vec<u8>>, CoreError> {
        self.read_one(key, ptr, Read::Peek)
    }

    /// The records of a range scan's `(key, pointer)` pairs, in order,
    /// each read on its key's behalf and, as [`RecordStore::peek_keyed`]
    /// reads, never admitted to the cache: a scan touches each record
    /// once. A pointer to a tombstone fails as dangling. Counted exactly
    /// as one `get` per pair is.
    pub(crate) fn scan_keyed(
        &self,
        reads: &[(u64, RecordPtr)],
    ) -> Result<Vec<(u64, Vec<u8>)>, CoreError> {
        let mut out = Vec::with_capacity(reads.len());
        self.read_runs::<RUN_BATCH>(reads, Read::Peek, &mut |key, value| {
            let value = value
                .ok_or_else(|| CoreError::Record("dangling data pointer in a range scan".into()))?;
            out.push((key, value));
            Ok(())
        })?;
        Ok(out)
    }

    fn read_one(&self, key: u64, ptr: RecordPtr, how: Read) -> Result<Option<Vec<u8>>, CoreError> {
        let mut out = None;
        self.read_runs::<1>(&[(key, ptr)], how, &mut |_, value| {
            out = value;
            Ok(())
        })?;
        Ok(out)
    }

    /// The one record-reading path. Reads `(key, pointer)` pairs and hands
    /// `emit` each key with its value, in order (`None` for a tombstoned
    /// slot). Consecutive pairs on one data block form a run, read up to
    /// `N` records at a time ([`RecordStore::read_run`]).
    fn read_runs<const N: usize>(
        &self,
        reads: &[(u64, RecordPtr)],
        how: Read,
        emit: &mut dyn FnMut(u64, Option<Vec<u8>>) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let mut rest = reads;
        while let Some(&(_, first)) = rest.first() {
            let len = rest
                .iter()
                .take(N)
                .take_while(|(_, ptr)| ptr.block() == first.block())
                .count();
            let (run, tail) = rest.split_at(len);
            let mut fetched: [Fetched; N] = std::array::from_fn(|_| Fetched::Tombstone);
            self.read_run(run, how, &mut fetched[..len])?;
            for (&(key, _), record) in run.iter().zip(&mut fetched) {
                match std::mem::replace(record, Fetched::Tombstone) {
                    Fetched::Hit(value) | Fetched::Sealed(_, value) => emit(key, Some(value))?,
                    Fetched::Tombstone => emit(key, None)?,
                }
            }
            rest = tail;
        }
        Ok(())
    }

    /// Reads one run, records on one data block, into `fetched`: one
    /// record-cache lock serves its hits; the rest are copied out of one
    /// page lend ([`BlockStore::read_with`]), and once the store is let
    /// go, one keystream pass opens their key blocks. Every owner is
    /// checked before any value is deciphered, so a run that holds
    /// another key's record fails with no value opened. Then one pass
    /// opens the values. The keystream never leaves the cipher's stack
    /// buffer, which is wiped.
    fn read_run(
        &self,
        run: &[(u64, RecordPtr)],
        how: Read,
        fetched: &mut [Fetched],
    ) -> Result<(), CoreError> {
        let counters = self.store.counters();
        let mut hits = 0u64;
        if let Some(cache) = &self.cache {
            let mut lru = cache.lock();
            for (&(key, ptr), record) in run.iter().zip(fetched.iter_mut()) {
                if let Some(entry) = lru.get(&ptr.0) {
                    Self::check_owner(how, key, entry.owner)?;
                    *record = Fetched::Hit(entry.bytes.clone());
                    hits += 1;
                }
            }
        }
        if hits < run.len() as u64 {
            let t = counters.obs().start();
            let mut lent = None;
            self.store.read_with(run[0].1.block(), &mut |page| {
                lent = Some(Self::copy_sealed(page, run, fetched));
            })?;
            let generation = lent.expect("read_with lends the page")?;
            self.open_keys(
                generation,
                sealed(run, fetched).map(|(slot, key, _)| (slot, key)),
            );
            for (&(key, _), record) in run.iter().zip(fetched.iter()) {
                if let Fetched::Sealed(owner, _) = record {
                    Self::check_owner(how, key, u64::from_be_bytes(*owner))?;
                }
            }
            self.open_values(
                generation,
                sealed(run, fetched).map(|(slot, _, value)| (slot, &mut value[..])),
            );
            let opened = sealed(run, fetched).count() as u64;
            counters.bump_by(|c| &c.data_decrypts, opened);
            if let Some(cache) = &self.cache {
                counters.bump_by(|c| &c.record_cache_misses, opened);
                if how != Read::Peek {
                    let mut lru = cache.lock();
                    let block = run[0].1.block();
                    for (slot, owner, value) in sealed(run, fetched) {
                        let (ptr, owner) =
                            (RecordPtr::pack(block, slot), u64::from_be_bytes(*owner));
                        RecordCache::admit(&mut lru, ptr, owner, value.clone());
                    }
                }
            }
            counters.obs().stage(sks_storage::Stage::RecordUnseal, t);
        }
        if hits > 0 {
            counters.bump_by(|c| &c.record_cache_hits, hits);
            counters.bump_by(|c| &c.data_decrypts, hits);
        }
        Ok(())
    }

    /// Copies, out of the lent `page`, the sealed key block and value of
    /// every record of `run` the cache did not serve (tombstones stay
    /// [`Fetched::Tombstone`]), and returns the page's generation. Only
    /// those bytes leave the page, the value straight into the buffer the
    /// read returns.
    fn copy_sealed(
        page: &[u8],
        run: &[(u64, RecordPtr)],
        fetched: &mut [Fetched],
    ) -> Result<u64, CoreError> {
        let (generation, _, _) = Self::read_page_meta(page)?;
        for (&(_, ptr), record) in run.iter().zip(fetched) {
            if matches!(record, Fetched::Hit(_)) {
                continue;
            }
            Self::check_slot(page, ptr.slot())?;
            if let Some(sealed) = Self::sealed_slot(page, ptr.slot())? {
                *record = Fetched::Sealed(Self::key_block(sealed), sealed[KEY_LEN..].to_vec());
            }
        }
        Ok(generation)
    }

    /// Refuses a record sealed under a key other than the one a keyed
    /// read asks for. The error names no key: keys are plaintext.
    fn check_owner(how: Read, key: u64, sealed_under: u64) -> Result<(), CoreError> {
        if how != Read::Blind && key != sealed_under {
            return Err(CoreError::Record(
                "the data pointer leads to another key's record".into(),
            ));
        }
        Ok(())
    }

    /// Tombstones a record. Space is reclaimed by the compaction sweep
    /// ([`crate::EncipheredBTree::compact_step`]), not here.
    /// The tombstone is written into the page where the store lends it.
    pub fn delete(&mut self, ptr: RecordPtr) -> Result<bool, CoreError> {
        let mut marked = None;
        self.store.update_with(ptr.block(), &mut |page| {
            marked = Some(Self::tombstone(page, ptr.slot()));
        })?;
        let was_live = marked.expect("update_with lends the page")?;
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

    /// Marks `slot` a tombstone in `page`'s directory and reports whether
    /// it was live. A slot the page does not hold fails closed, the page
    /// untouched.
    fn tombstone(page: &mut [u8], slot: u16) -> Result<bool, CoreError> {
        // `check_slot` proves the directory entry lies on the page.
        Self::check_slot(page, slot)?;
        let dir_off = PAGE_HEADER + slot as usize * SLOT_ENTRY;
        let was_live = page[dir_off..dir_off + 2] != TOMBSTONE.to_be_bytes();
        page[dir_off..dir_off + 2].copy_from_slice(&TOMBSTONE.to_be_bytes());
        Ok(was_live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_storage::MemDisk;

    pub(super) const KEY: u128 = 0xAABB_CCDD_EEFF_0011_2233_4455_6677_8899;

    pub(super) fn store() -> RecordStore<MemDisk> {
        RecordStore::create(MemDisk::new(256), KEY, 0).unwrap()
    }

    fn cached_store() -> RecordStore<MemDisk> {
        RecordStore::create(MemDisk::new(256), KEY, 64).unwrap()
    }

    /// Inserts `n` copies of `rec` under keys `0..n`.
    pub(super) fn fill(rs: &mut RecordStore<MemDisk>, n: u64, rec: &[u8]) -> Vec<RecordPtr> {
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
        assert_eq!(
            sealed,
            sks_crypto::modes::ctr_xor(&rs.cipher, nonce, &plain)
        );
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
        assert!(matches!(rs.delete(bogus), Err(CoreError::Record(_))));
        assert_eq!(rs.get(p).unwrap().unwrap(), b"x");
    }

    /// A slot directory entry too short to hold the key prefix fails
    /// closed on every path that reads a slot: get and a compaction move.
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

    /// A keyed read serves only the key the record was sealed under, from
    /// the page and from the cache alike, and names no key when it
    /// refuses. The owner-blind `get` still serves either record.
    #[test]
    fn keyed_reads_refuse_another_keys_record() {
        for mut rs in [store(), cached_store()] {
            let (a, b) = (0x0A0A_1111u64, 0x0B0B_2222u64);
            let pa = rs.insert_keyed(a, b"belongs to a").unwrap();
            let pb = rs.insert_keyed(b, b"belongs to b").unwrap();
            for _ in 0..2 {
                assert_eq!(rs.get_keyed(pa, a).unwrap().unwrap(), b"belongs to a");
                assert_eq!(rs.peek_keyed(pb, b).unwrap().unwrap(), b"belongs to b");
                for (ptr, wrong) in [(pa, b), (pb, a)] {
                    for got in [rs.get_keyed(ptr, wrong), rs.peek_keyed(ptr, wrong)] {
                        let Err(CoreError::Record(msg)) = got else {
                            panic!("served another key's record: {got:?}");
                        };
                        for key in [a, b] {
                            assert!(!msg.contains(&key.to_string()), "{msg}");
                            assert!(!msg.contains(&format!("{key:x}")), "{msg}");
                        }
                    }
                }
                assert_eq!(rs.get(pb).unwrap().unwrap(), b"belongs to b");
            }
        }
    }

    /// A run whose middle pointer leads to another key's record fails
    /// closed, naming no key, before any value of the run is deciphered:
    /// every value the page lend copied is still the ciphertext on the
    /// page, and no logical unseal is counted.
    #[test]
    fn a_run_holding_another_keys_record_deciphers_no_value() {
        for mut rs in [store(), cached_store()] {
            let keys = [0x0A0A_1111u64, 0x0B0B_2222, 0x0C0C_3333, 0x0D0D_4444];
            let ptrs: Vec<RecordPtr> = keys
                .iter()
                .map(|&k| rs.insert_keyed(k, b"twenty bytes a value").unwrap())
                .collect();
            let block = ptrs[0].block();
            assert!(ptrs.iter().all(|p| p.block() == block), "one page");
            let [a, b, c, _] = keys;
            let run = [(a, ptrs[0]), (b, ptrs[3]), (c, ptrs[2])];
            if let Some(cache) = &rs.cache {
                // A hit for the first record, so hits and copies mix.
                cache.lock().remove(&ptrs[2].0);
                cache.lock().remove(&ptrs[3].0);
            }
            rs.store().counters().reset();

            let mut fetched: [Fetched; 3] = std::array::from_fn(|_| Fetched::Tombstone);
            let got = rs.read_run(&run, Read::Peek, &mut fetched);
            let Err(CoreError::Record(msg)) = got else {
                panic!("served another key's record: {got:?}");
            };
            for key in keys {
                assert!(!msg.contains(&key.to_string()), "{msg}");
                assert!(!msg.contains(&format!("{key:x}")), "{msg}");
            }
            let page = rs.store().raw_image()[block.as_u32() as usize].clone();
            let mut copied = 0;
            for (&(_, ptr), record) in run.iter().zip(&fetched) {
                if let Fetched::Sealed(_, value) = record {
                    let sealed = RecordStore::<MemDisk>::sealed_slot(&page, ptr.slot())
                        .unwrap()
                        .unwrap();
                    assert_eq!(&value[..], &sealed[KEY_LEN..], "a value was deciphered");
                    copied += 1;
                }
            }
            assert!(copied >= 2, "the run's misses were copied off the page");
            assert_eq!(rs.store().counters().snapshot().data_decrypts, 0);
            assert!(matches!(rs.scan_keyed(&run), Err(CoreError::Record(_))));
            assert_eq!(rs.scan_keyed(&[run[0], run[2]]).unwrap().len(), 2);
        }
    }

    #[test]
    fn record_cache_invalidated_on_delete() {
        let mut rs = cached_store();
        let p = rs.insert_keyed(1, b"soon gone").unwrap();
        assert_eq!(rs.get(p).unwrap().unwrap(), b"soon gone");
        rs.delete(p).unwrap();
        assert_eq!(rs.get(p).unwrap(), None, "stale cache entry must not serve");
    }

    /// A store fault on the page an operation reads or writes fails the
    /// operation, and the page is as it was: nothing half-sealed or
    /// half-tombstoned reaches the medium.
    #[test]
    fn a_failed_page_read_or_write_fails_the_operation_and_leaves_the_page() {
        use sks_storage::{FailMode, FailPlan, FailStore};
        type Rig = (RecordStore<FailStore<MemDisk>>, FailPlan, RecordPtr);
        let rig = || -> Rig {
            let (disk, plan) = FailStore::new(MemDisk::new(256));
            let mut rs = RecordStore::create(disk, KEY, 0).unwrap();
            let ptr = rs.insert_keyed(1, b"kept").unwrap();
            (rs, plan, ptr)
        };
        let page = |rs: &RecordStore<FailStore<MemDisk>>, ptr: RecordPtr| {
            rs.store().inner().raw_image()[ptr.block().as_u32() as usize].clone()
        };
        for fault in ["read", "write"] {
            let arm = |plan: &FailPlan| match fault {
                "read" => plan.arm_nth_read(1),
                _ => plan.arm_nth_write(1, FailMode::Error),
            };
            let (mut rs, plan, ptr) = rig();
            let before = page(&rs, ptr);
            arm(&plan);
            assert!(rs.insert_keyed(2, b"more").is_err(), "insert, {fault}");
            assert_eq!(page(&rs, ptr), before, "insert, {fault}");

            let (mut rs, plan, ptr) = rig();
            arm(&plan);
            assert!(rs.delete(ptr).is_err(), "delete, {fault}");
            assert_eq!(page(&rs, ptr), before, "delete, {fault}");
            plan.reset();
            assert_eq!(rs.get(ptr).unwrap().unwrap(), b"kept", "{fault}");
        }
        let (rs, plan, ptr) = rig();
        plan.arm_nth_read(1);
        assert!(rs.get(ptr).is_err(), "get, read");
        assert_eq!(rs.store().counters().snapshot().data_decrypts, 0);
        plan.reset();
        assert_eq!(rs.get(ptr).unwrap().unwrap(), b"kept");
    }

    #[test]
    fn record_cache_is_bounded() {
        let mut rs = cached_store(); // capacity 64
        fill(&mut rs, 200, &[9u8; 40]);
        assert!(rs.cached_records() <= 64);
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
}
