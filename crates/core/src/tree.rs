//! [`EncipheredBTree`] — the end-to-end system of the paper: an enciphered
//! node-block B-tree over one block device, enciphered data blocks (with
//! an independent cipher, §5) over another, a single configuration switch
//! between the paper's scheme and both Bayer–Metzger baselines, and exact
//! operation accounting throughout.
//!
//! The devices are pluggable ([`crate::config::StorageBackend`]): the
//! paper's simulated in-RAM medium, or an on-disk [`PagedFileStore`] pair
//! under a directory — `nodes.sks` and `data.sks`, which checkpoint
//! together through one journal (`checkpoint.journal`), and a sealed
//! `manifest.sks` whose key-check lets a reopen with the wrong keys fail
//! closed *before* any page is touched. Either way only enciphered bytes
//! reach the store.

use std::path::Path;
use std::sync::Arc;

use sks_btree_core::{render_with, BTree, RecordPtr};
use sks_crypto::modes::ctr_xor;
use sks_crypto::speck::Speck64;
use sks_storage::{
    BlockStore, DynBlockStore, MemDisk, OpCounters, OpSnapshot, PagedFileStore, Stage,
};

use crate::codec::AnyCodec;
use crate::config::{Scheme, SchemeConfig, StorageBackend};
use crate::disguise::KeyDisguise;
use crate::error::CoreError;
use crate::records::RecordStore;

const NODES_FILE: &str = "nodes.sks";
const DATA_FILE: &str = "data.sks";
const MANIFEST_FILE: &str = "manifest.sks";
/// The one journal both files checkpoint through.
const JOURNAL_FILE: &str = "checkpoint.journal";

const MANIFEST_MAGIC: &[u8; 8] = b"SKSMANF1";
const MANIFEST_VERSION: u32 = 1;
/// Sealed under the manifest key at create; a wrong-key open deciphers it
/// to garbage and is refused before any tree page is read or written.
const KEYCHECK_PLAIN: &[u8; 16] = b"SKS-BACKEND-KEY1";
const KEYCHECK_NONCE: u64 = 0x4B45_5943_4845_434B; // "KEYCHECK"

/// Domain-separated key for the manifest's key-check sentinel: binds both
/// the tree key and the independent data key, so changing either fails the
/// check.
fn manifest_key(config: &SchemeConfig) -> u128 {
    config.data_key
        ^ (((config.tree_key as u128) << 64) | config.tree_key as u128)
        ^ 0x4D41_4E49_4645_5354_u128 // "MANIFEST"
}

fn scheme_id(scheme: Scheme) -> u8 {
    Scheme::ALL
        .iter()
        .position(|&s| s == scheme)
        .expect("every scheme is in ALL") as u8
}

fn write_manifest(dir: &Path, config: &SchemeConfig) -> Result<(), CoreError> {
    let cipher = Speck64::from_u128(manifest_key(config));
    let sealed = ctr_xor(&cipher, KEYCHECK_NONCE, KEYCHECK_PLAIN);
    let mut buf = Vec::with_capacity(8 + 4 + 8 + 1 + sealed.len());
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.extend_from_slice(&MANIFEST_VERSION.to_be_bytes());
    buf.extend_from_slice(&(config.block_size as u64).to_be_bytes());
    buf.push(scheme_id(config.scheme));
    buf.extend_from_slice(&sealed);
    let path = dir.join(MANIFEST_FILE);
    let io = |e: std::io::Error| CoreError::Config(format!("write {}: {e}", path.display()));
    use std::io::Write;
    let mut file = std::fs::File::create(&path).map_err(io)?;
    file.write_all(&buf).map_err(io)?;
    file.sync_all().map_err(io)?;
    drop(file);
    Ok(sks_storage::sync_dir(dir)?)
}

fn verify_manifest(dir: &Path, config: &SchemeConfig) -> Result<(), CoreError> {
    let path = dir.join(MANIFEST_FILE);
    let buf = std::fs::read(&path)
        .map_err(|e| CoreError::Config(format!("no enciphered tree at {}: {e}", dir.display())))?;
    if buf.len() != 8 + 4 + 8 + 1 + 16 || &buf[0..8] != MANIFEST_MAGIC {
        return Err(CoreError::Config(format!(
            "{} is not an sks-tree manifest",
            path.display()
        )));
    }
    let version = u32::from_be_bytes(buf[8..12].try_into().expect("fixed width"));
    if version != MANIFEST_VERSION {
        return Err(CoreError::Config(format!(
            "unknown manifest version {version}"
        )));
    }
    let block_size = u64::from_be_bytes(buf[12..20].try_into().expect("fixed width")) as usize;
    if block_size != config.block_size {
        return Err(CoreError::Config(format!(
            "directory holds {block_size}-byte blocks, config wants {}",
            config.block_size
        )));
    }
    if buf[20] != scheme_id(config.scheme) {
        return Err(CoreError::Config(format!(
            "directory holds a different scheme (id {}) than the configured {}",
            buf[20],
            config.scheme.name()
        )));
    }
    let cipher = Speck64::from_u128(manifest_key(config));
    if ctr_xor(&cipher, KEYCHECK_NONCE, &buf[21..37]) != KEYCHECK_PLAIN[..] {
        return Err(CoreError::Config(
            "key mismatch: the stored tree was enciphered under different tree/data keys".into(),
        ));
    }
    Ok(())
}

/// What one [`EncipheredBTree::compact_step`] /
/// [`EncipheredBTree::compact_nodes`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Live records rewritten into fresh blocks (tree pointers updated).
    pub moved_records: u64,
    /// Data blocks returned to the storage free list — including victims
    /// that were already fully dead and were freed through the tombstone
    /// fast path without moving anything.
    pub freed_blocks: u64,
    /// Live slots no tree pointer referenced (should be 0; counted, not
    /// fatal).
    pub orphaned_records: u64,
    /// Orphaned copies tombstoned by this pass: a victim's live slot the
    /// tree does not point at is moved, found unreferenced, and
    /// tombstoned. Their space returns through later passes.
    pub orphans_collected: u64,
    /// Live sealed nodes slid into lower free slots by node-device
    /// compaction.
    pub moved_nodes: u64,
    /// Node blocks released from the node device's tail (the device
    /// physically shrank).
    pub node_blocks_truncated: u64,
    /// Data blocks released from the data device's tail.
    pub data_blocks_truncated: u64,
}

impl CompactionReport {
    /// Component-wise accumulation (the engine sums per-partition passes).
    pub fn absorb(&mut self, other: CompactionReport) {
        self.moved_records += other.moved_records;
        self.freed_blocks += other.freed_blocks;
        self.orphaned_records += other.orphaned_records;
        self.orphans_collected += other.orphans_collected;
        self.moved_nodes += other.moved_nodes;
        self.node_blocks_truncated += other.node_blocks_truncated;
        self.data_blocks_truncated += other.data_blocks_truncated;
    }
}

/// An enciphered B-tree with attached data blocks, over any block backend.
pub struct EncipheredBTree {
    config: SchemeConfig,
    counters: OpCounters,
    tree: BTree<DynBlockStore, AnyCodec>,
    records: RecordStore<DynBlockStore>,
    disguise: Option<Arc<dyn KeyDisguise>>,
}

/// One node-store/data-store pair, built per the configured backend.
fn build_stores(
    config: &SchemeConfig,
    counters: &OpCounters,
    create: bool,
) -> Result<(DynBlockStore, DynBlockStore), CoreError> {
    match &config.backend {
        StorageBackend::Memory => {
            if !create {
                return Err(CoreError::Config(
                    "the memory backend has no persisted tree to open".into(),
                ));
            }
            Ok((
                Box::new(MemDisk::with_counters(config.block_size, counters.clone())),
                Box::new(MemDisk::with_counters(config.block_size, counters.clone())),
            ))
        }
        StorageBackend::File { dir } => {
            let pool_pages = StorageBackend::DEFAULT_POOL_PAGES;
            let [nodes, data] = if create {
                std::fs::create_dir_all(dir)
                    .map_err(|e| CoreError::Config(format!("create {}: {e}", dir.display())))?;
                // A stale manifest from an older incarnation must not make
                // a later open trust half-truncated stores.
                std::fs::remove_file(dir.join(MANIFEST_FILE)).ok();
                EncipheredBTree::create_file_stores(dir, config.block_size, pool_pages, counters)?
            } else {
                verify_manifest(dir, config)?;
                EncipheredBTree::open_file_stores(dir, pool_pages, counters)?
            };
            Ok((Box::new(nodes), Box::new(data)))
        }
    }
}

impl EncipheredBTree {
    /// Builds the whole stack in memory from a [`SchemeConfig`] (the
    /// paper's simulated-device setup; ignores `config.backend`).
    pub fn create_in_memory(config: SchemeConfig) -> Result<Self, CoreError> {
        Self::create(config.backend(StorageBackend::Memory))
    }

    /// Builds a fresh stack on whatever backend `config.backend` names
    /// (truncating any previous on-disk state for the file backend).
    pub fn create(config: SchemeConfig) -> Result<Self, CoreError> {
        let counters = OpCounters::with_observability(config.observability);
        Self::create_with_shared_disguise(config, counters, None)
    }

    /// [`EncipheredBTree::create`] into an existing counter set, reusing a
    /// prebuilt key disguise (see [`SchemeConfig::build_codec_with`]). An
    /// engine's partitions share one counter set and an identical
    /// disguise, so the engine builds the difference-set design once and
    /// shares it instead of paying the construction per partition.
    pub fn create_with_shared_disguise(
        config: SchemeConfig,
        counters: OpCounters,
        disguise: Option<Arc<dyn KeyDisguise>>,
    ) -> Result<Self, CoreError> {
        let (node_store, data_store) = build_stores(&config, &counters, true)?;
        let mut this = Self::assemble(config, counters, node_store, data_store, true, disguise)?;
        this.seal_backend()?;
        Ok(this)
    }

    /// Shared assembly for every constructor: codec → tree → caches →
    /// record store. The two stores must become durable in one commit
    /// ([`BlockStore::commit_group`]): a checkpoint flushes through the
    /// node store alone, and two files that committed apart could reopen
    /// with a tree pointing at records its data file never received.
    fn assemble(
        config: SchemeConfig,
        counters: OpCounters,
        node_store: DynBlockStore,
        data_store: DynBlockStore,
        create: bool,
        shared_disguise: Option<Arc<dyn KeyDisguise>>,
    ) -> Result<Self, CoreError> {
        if node_store.commit_group() != data_store.commit_group() {
            return Err(CoreError::Config(
                "the node and data stores commit separately; open them as one checkpoint \
                 group (EncipheredBTree::create_file_stores)"
                    .into(),
            ));
        }
        let (codec, disguise) = config.build_codec_with(&counters, shared_disguise)?;
        let mut tree = if create {
            BTree::create(node_store, codec)?
        } else {
            BTree::open(node_store, codec)?
        };
        tree.enable_node_cache(SchemeConfig::DEFAULT_NODE_CACHE);
        let cache = SchemeConfig::DEFAULT_RECORD_CACHE;
        let records = if create {
            RecordStore::create(data_store, config.data_key, cache)?
        } else {
            RecordStore::open(data_store, config.data_key, cache)?
        };
        Ok(EncipheredBTree {
            config,
            counters,
            tree,
            records,
            disguise,
        })
    }

    /// Reopens a tree persisted by the file backend. Fails closed — before
    /// any page is read — when the directory was sealed under different
    /// keys, a different scheme, or a different block size.
    pub fn open(config: SchemeConfig) -> Result<Self, CoreError> {
        let counters = OpCounters::with_observability(config.observability);
        Self::open_with_shared_disguise(config, counters, None)
    }

    /// [`EncipheredBTree::open`] into an existing counter set, reusing a
    /// prebuilt key disguise (see
    /// [`EncipheredBTree::create_with_shared_disguise`]) — the
    /// multi-partition reopen path stays O(1) design constructions instead
    /// of O(partitions).
    pub fn open_with_shared_disguise(
        config: SchemeConfig,
        counters: OpCounters,
        disguise: Option<Arc<dyn KeyDisguise>>,
    ) -> Result<Self, CoreError> {
        let (node_store, data_store) = build_stores(&config, &counters, false)?;
        Self::assemble(config, counters, node_store, data_store, false, disguise)
    }

    /// Builds the stack over caller-supplied node/data stores instead of
    /// the config's backend — custom devices, other pool sizes, or
    /// fault-injection wrappers ([`sks_storage::FailStore`]) for crash
    /// probes. Both stores should share `counters` and must commit
    /// together (on files: the pair [`EncipheredBTree::create_file_stores`]
    /// makes), or the build is refused; no backend manifest is written
    /// (the caller owns the medium's lifecycle).
    pub fn create_on_stores(
        config: SchemeConfig,
        counters: OpCounters,
        node_store: DynBlockStore,
        data_store: DynBlockStore,
    ) -> Result<Self, CoreError> {
        Self::assemble(config, counters, node_store, data_store, true, None)
    }

    /// Reopens a stack persisted on caller-supplied stores (see
    /// [`EncipheredBTree::create_on_stores`]). No manifest key-check runs;
    /// the caller vouches for the keys.
    pub fn open_on_stores(
        config: SchemeConfig,
        counters: OpCounters,
        node_store: DynBlockStore,
        data_store: DynBlockStore,
    ) -> Result<Self, CoreError> {
        Self::assemble(config, counters, node_store, data_store, false, None)
    }

    /// Creates the file backend's stores in the existing `dir`:
    /// `nodes.sks` and `data.sks`, one checkpoint group committing through
    /// `checkpoint.journal`, each behind `pool_pages` frames. No manifest
    /// is written.
    pub fn create_file_stores(
        dir: &Path,
        block_size: usize,
        pool_pages: usize,
        counters: &OpCounters,
    ) -> Result<[PagedFileStore; 2], CoreError> {
        Ok(PagedFileStore::create_group(
            dir.join(JOURNAL_FILE),
            [dir.join(NODES_FILE), dir.join(DATA_FILE)],
            block_size,
            pool_pages,
            counters.clone(),
        )?)
    }

    /// Opens the stores [`EncipheredBTree::create_file_stores`] made. No
    /// manifest key-check runs.
    pub fn open_file_stores(
        dir: &Path,
        pool_pages: usize,
        counters: &OpCounters,
    ) -> Result<[PagedFileStore; 2], CoreError> {
        Ok(PagedFileStore::open_group(
            dir.join(JOURNAL_FILE),
            [dir.join(NODES_FILE), dir.join(DATA_FILE)],
            pool_pages,
            counters.clone(),
        )?)
    }

    /// Whether `dir` holds a persisted enciphered tree (its manifest).
    pub fn exists_on_disk<P: AsRef<Path>>(dir: P) -> bool {
        dir.as_ref().join(MANIFEST_FILE).exists()
    }

    /// Bulk-builds the stack from *strictly ascending* `(key, record)`
    /// pairs: records stream into the data blocks, then the node tree is
    /// built bottom-up with exactly one encipherment pass per node block —
    /// the initial-load path a real deployment would use. Honours
    /// `config.backend` like [`EncipheredBTree::create`].
    pub fn bulk_create(config: SchemeConfig, items: &[(u64, Vec<u8>)]) -> Result<Self, CoreError> {
        let counters = OpCounters::with_observability(config.observability);
        let (node_store, data_store) = build_stores(&config, &counters, true)?;
        let mut this = Self::assemble(config, counters, node_store, data_store, true, None)?;
        this.bulk_load(items)?;
        this.seal_backend()?;
        Ok(this)
    }

    /// In-place [`EncipheredBTree::bulk_create`]: bulk-loads *strictly
    /// ascending* `(key, record)` pairs into a tree that is still empty
    /// (never held a key). Records stream into the data blocks, then the
    /// node tree is built bottom-up with exactly one encipherment pass
    /// per node block — no splits, no rebalancing. The sorted-ingest fast
    /// path for stacks already owned by an engine partition. Unlike
    /// [`EncipheredBTree::insert`], it pre-warms no record in the record
    /// cache.
    pub fn bulk_load(&mut self, items: &[(u64, Vec<u8>)]) -> Result<(), CoreError> {
        if !self.is_empty() {
            return Err(CoreError::Config(format!(
                "bulk_load requires an empty tree ({} keys present)",
                self.len()
            )));
        }
        let mut pairs = Vec::with_capacity(items.len());
        for (key, record) in items {
            pairs.push((*key, self.records.load_keyed(*key, record)?));
        }
        self.tree.bulk_fill(&pairs)?;
        Ok(())
    }

    /// File backend: checkpoint the fresh stores and only then write the
    /// manifest, so a crash mid-create can never leave a manifest pointing
    /// at torn stores. Memory backend: nothing to do.
    fn seal_backend(&mut self) -> Result<(), CoreError> {
        if let StorageBackend::File { dir } = &self.config.backend {
            let dir = dir.clone();
            self.flush()?;
            write_manifest(&dir, &self.config)?;
        }
        Ok(())
    }

    /// Checkpoints both stores as one commit: the node superblock plus
    /// every dirty page of both files reaches the backing medium
    /// atomically (one journal on the file backend), so a reopen finds
    /// both files at the same checkpoint. A memory-backend flush is free.
    pub fn flush(&mut self) -> Result<(), CoreError> {
        Ok(self.tree.flush()?)
    }

    /// [`EncipheredBTree::flush`] that records the log position the pages
    /// cover in the same commit ([`BTree::flush_covering`]).
    pub fn flush_covering(&mut self, covered: u64) -> Result<(), CoreError> {
        Ok(self.tree.flush_covering(covered)?)
    }

    pub fn scheme(&self) -> Scheme {
        self.config.scheme
    }

    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    pub fn snapshot(&self) -> OpSnapshot {
        self.counters.snapshot()
    }

    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    pub fn height(&self) -> u32 {
        self.tree.height()
    }

    /// Maximum triplets per node block under this scheme's layout.
    pub fn max_keys_per_node(&self) -> usize {
        self.tree.max_keys_per_node()
    }

    /// Largest record the data blocks can store.
    pub fn max_record_len(&self) -> usize {
        self.records.max_record_len()
    }

    /// The disguise in effect (None for the baselines).
    pub fn disguise(&self) -> Option<&Arc<dyn KeyDisguise>> {
        self.disguise.as_ref()
    }

    /// Inserts (or replaces) the record stored under `key`. Returns the
    /// previous record if one existed.
    pub fn insert(&mut self, key: u64, record: Vec<u8>) -> Result<Option<Vec<u8>>, CoreError> {
        let ptr = self.records.insert_keyed(key, &record)?;
        match self.tree.insert(key, ptr) {
            Ok(Some(old_ptr)) => {
                let old = self.records.peek_keyed(old_ptr, key)?;
                self.records.delete(old_ptr)?;
                Ok(old)
            }
            Ok(None) => Ok(None),
            Err(e) => {
                // Don't leak the just-inserted record on key-domain errors.
                let _ = self.records.delete(ptr);
                Err(e.into())
            }
        }
    }

    /// Fetches the record stored under `key`.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, CoreError> {
        match self.tree.get(key)? {
            Some(ptr) => self.records.get_keyed(ptr, key),
            None => Ok(None),
        }
    }

    /// Point lookup of the data pointer only (no data-block access) — the
    /// operation the paper's decryption counts are defined over.
    pub fn get_pointer(&self, key: u64) -> Result<Option<RecordPtr>, CoreError> {
        Ok(self.tree.get(key)?)
    }

    /// Removes `key`, returning its record.
    pub fn delete(&mut self, key: u64) -> Result<Option<Vec<u8>>, CoreError> {
        match self.tree.delete(key)? {
            Some(ptr) => {
                let old = self.records.peek_keyed(ptr, key)?;
                self.records.delete(ptr)?;
                Ok(old)
            }
            None => Ok(None),
        }
    }

    /// Range scan: all `(key, record)` pairs with `lo <= key <= hi` in key
    /// order — the operation §1 motivates and §4.3 keeps possible.
    ///
    /// The tree walk collects the range's `(key, pointer)` pairs first;
    /// the records are then read a data-block run at a time, one page
    /// lend and one wide keystream pass per run, and each checked against
    /// its key before any value of its run is deciphered. Memory is the
    /// answer plus 16 bytes a row for the pairs. Node visits are served
    /// from the node cache and records from the record cache when they
    /// are there; the logical counters report the paper's per-scheme cost
    /// either way. A scan never adds a record to the record cache: it
    /// touches each record once, and the cache keeps the point-get set.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, CoreError> {
        let pairs = self.tree.range(lo, hi)?;
        self.records.scan_keyed(&pairs)
    }

    /// Structural validation of the underlying tree.
    pub fn validate(&self) -> Result<(), CoreError> {
        Ok(self.tree.validate()?)
    }

    /// The raw node-block image — the opponent's view of the index medium.
    /// On the file backend this is what is physically in `nodes.sks`
    /// (unflushed cached pages live in RAM, not on the stolen disk).
    pub fn raw_node_image(&self) -> Result<Vec<Vec<u8>>, CoreError> {
        Ok(self.tree.store().raw_image()?)
    }

    /// The raw data-block image.
    pub fn raw_data_image(&self) -> Result<Vec<Vec<u8>>, CoreError> {
        Ok(self.records.store().raw_image()?)
    }

    /// Node block size.
    pub fn block_size(&self) -> usize {
        self.config.block_size
    }

    /// Dirty pages currently buffered across both stores (file backend:
    /// the no-steal pool's pinned set awaiting the next checkpoint; 0 for
    /// unbuffered backends). The engine reports it per partition in its
    /// stats.
    pub fn dirty_pages(&self) -> usize {
        self.tree.store().dirty_pages() + self.records.store().dirty_pages()
    }

    /// Nodes currently held in the node cache.
    pub fn cached_nodes(&self) -> usize {
        self.tree.cached_nodes()
    }

    /// Records currently held decoded in the record cache.
    pub fn cached_records(&self) -> usize {
        self.records.cached_records()
    }

    /// Data-store footprint: `(total blocks ever allocated, blocks on the
    /// free list awaiting reuse)`. Compaction keeps `total - free` bounded
    /// by the live dataset, and tail truncation keeps `total` itself from
    /// pinning the high-water mark.
    pub fn data_block_usage(&self) -> (u32, u32) {
        let store = self.records.store();
        (store.num_blocks(), store.free_blocks())
    }

    /// Live record slots in the data store, from its per-block accounting
    /// (rebuilt from the slot directories after a reopen). Once a drain has
    /// collected every orphan it equals [`EncipheredBTree::len`].
    pub fn live_record_slots(&mut self) -> Result<u64, CoreError> {
        self.records.live_record_slots()
    }

    /// Free-list membership of both devices, as `(node ids, data ids)` —
    /// backend-comparison tests mask these blocks out of the raw images
    /// (MemDisk models a non-scrubbing medium, the file backend rewrites
    /// its intrusive free chain; neither ever holds plaintext).
    pub fn free_block_ids(&self) -> (Vec<u32>, Vec<u32>) {
        (
            self.tree.store().free_block_ids(),
            self.records.store().free_block_ids(),
        )
    }

    /// Tombstoned record slots awaiting compaction.
    pub fn pending_tombstones(&mut self) -> Result<u64, CoreError> {
        self.records.pending_tombstones()
    }

    /// One bounded pass of online record-store compaction: up to
    /// `max_blocks` tombstoned data blocks have their live records
    /// rewritten into fresh blocks (under fresh per-page generations, so
    /// recycled blocks never repeat CTR keystream), the tree's data
    /// pointers are repointed in place, and the dead blocks return to the
    /// storage free list for reuse.
    ///
    /// Crash safety on the file backend comes from the no-steal buffer
    /// pool: nothing the pass does reaches the medium until the next
    /// journaled checkpoint commits, so a crash mid-compaction recovers to
    /// the pre-pass image and a crash after the checkpoint to the
    /// post-pass image — never a mix. The engine runs this inside its
    /// fuzzy checkpoint, per partition, under the partition write lock.
    ///
    /// Cost/accounting: each moved record names its owning key itself —
    /// the key is sealed in the record the move already unseals, so the
    /// pass is O(victims) with no tree scan. The tree repoints the key
    /// only if it still points at the old slot
    /// ([`BTree::replace_ptr`] is a compare-and-swap), so a stale copy
    /// read off the medium can never take its key over; a copy the tree
    /// does not point at is an orphan and is tombstoned at once. The
    /// repointing runs through the normal (counted) tree paths, so the
    /// pass's node visits and decipherments are *visible* in the
    /// operation counters, exactly as real maintenance I/O would be. Only
    /// the record bytes' own re-encipherment is charged to
    /// `compact_moved_records` instead of `data_encrypts` (the record is
    /// moved, not logically written). Counter-sensitive experiments
    /// simply run without deletes or with `compaction(0)`. A pass with no
    /// tombstones is free. Victims return to the free list at once: the
    /// repointed tree and the freed blocks reach the medium in the same
    /// checkpoint.
    ///
    /// This entry point drains: every block with even a single dead
    /// record qualifies as a victim, so looping until `freed_blocks`
    /// reaches zero reclaims all tombstoned space. Checkpoint-integrated
    /// maintenance should use [`EncipheredBTree::compact_step_floored`]
    /// instead, which keeps the pass proportional to churn.
    pub fn compact_step(&mut self, max_blocks: usize) -> Result<CompactionReport, CoreError> {
        self.compact_step_floored(max_blocks, 0)
    }

    /// [`EncipheredBTree::compact_step`] with a dead-ratio floor: only
    /// blocks at least `min_dead_pct` percent dead qualify as victims.
    /// Rewriting a block re-seals every live record in it and repoints
    /// the tree (a node unseal + re-seal per move), so a barely-dead
    /// block costs hundreds of cipher operations to reclaim a few bytes
    /// — work proportional to database size, not to change. The floor
    /// defers those blocks until churn actually concentrates in them,
    /// which is what keeps the steady-state checkpoint change-
    /// proportional. `0` restores drain semantics.
    pub fn compact_step_floored(
        &mut self,
        max_blocks: usize,
        min_dead_pct: u8,
    ) -> Result<CompactionReport, CoreError> {
        let mut report = CompactionReport::default();
        if max_blocks == 0 {
            return Ok(report);
        }
        let t = self.counters.obs().start();
        if !self.records.may_have_tombstones() {
            self.counters.obs().stage(Stage::CompactData, t);
            return Ok(report);
        }
        let victims = self.records.victims(max_blocks, min_dead_pct)?;
        if victims.is_empty() {
            self.counters.obs().stage(Stage::CompactData, t);
            return Ok(report);
        }
        for block in victims {
            for (old, new, key) in self.records.compact_block(block)? {
                if self.tree.replace_ptr(key, old, new)? {
                    report.moved_records += 1;
                } else {
                    // A live slot the tree does not point at: the key is
                    // gone or lives elsewhere (a stale copy read off the
                    // medium). The copy is unreferenced garbage —
                    // tombstone it now so a later pass reclaims the
                    // space, rather than carrying it forever.
                    report.orphaned_records += 1;
                    if self.records.delete(new)? {
                        report.orphans_collected += 1;
                        self.counters.bump(|c| &c.compact_orphans_collected);
                    }
                }
            }
            // Counted whether the block had live records to move or was
            // freed through the tombstone fast path — an empty victim is
            // still a reclaimed block (the PR 4 report under-counted it).
            report.freed_blocks += 1;
        }
        report.data_blocks_truncated = self.records.truncate_tail()? as u64;
        self.counters.obs().stage(Stage::CompactData, t);
        Ok(report)
    }

    /// One bounded pass of node-device compaction: up to `max_moves` live
    /// sealed nodes slide into the lowest free slots (re-sealed at their
    /// new position by the normal node write path) and the node device's
    /// freed tail is released, so a shrunken dataset stops pinning the
    /// node store — `nodes.sks` physically shrinks on the file backend at
    /// the next checkpoint. Crash safety is the same story as
    /// [`EncipheredBTree::compact_step`]: nothing reaches the medium until
    /// the journaled checkpoint commits.
    pub fn compact_nodes(&mut self, max_moves: usize) -> Result<CompactionReport, CoreError> {
        let mut report = CompactionReport::default();
        if max_moves == 0 {
            return Ok(report);
        }
        let t = self.counters.obs().start();
        let (moved, truncated) = self.tree.compact_nodes(max_moves)?;
        self.counters.obs().stage(Stage::CompactNodes, t);
        report.moved_nodes = moved;
        report.node_blocks_truncated = truncated as u64;
        Ok(report)
    }

    /// ASCII rendering of the logical (plaintext) tree — what the legal
    /// user sees.
    pub fn render_logical(&self) -> Result<String, CoreError> {
        Ok(sks_btree_core::render_logical(&self.tree)?)
    }

    /// ASCII rendering of the on-disk view: disguised key values for
    /// substitution schemes, sealed-triplet placeholders for the
    /// Bayer–Metzger baselines — what the opponent sees (modulo the
    /// encrypted pointers, which are unreadable either way).
    pub fn render_disk_view(&self) -> Result<String, CoreError> {
        let disguise = self.disguise.clone();
        let scheme = self.config.scheme;
        let rendered = render_with(&self.tree, move |node| match (&disguise, scheme) {
            (Some(d), _) => {
                let mut s = String::from("[");
                for (i, &k) in node.keys.iter().enumerate() {
                    if i > 0 {
                        s.push(' ');
                    }
                    match d.disguise(k) {
                        Ok(dk) => s.push_str(&dk.to_string()),
                        Err(_) => s.push('?'),
                    }
                }
                s.push(']');
                s
            }
            (None, Scheme::Plaintext) => {
                let keys: Vec<String> = node.keys.iter().map(|k| k.to_string()).collect();
                format!("[{}]", keys.join(" "))
            }
            (None, _) => format!("⟦{} sealed⟧", node.n()),
        })?;
        Ok(rendered)
    }

    /// Access to the underlying tree (benches and the attack harness).
    pub fn tree(&self) -> &BTree<DynBlockStore, AnyCodec> {
        &self.tree
    }
}

impl std::fmt::Debug for EncipheredBTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncipheredBTree")
            .field("scheme", &self.config.scheme)
            .field("backend", &self.config.backend)
            .field("len", &self.len())
            .finish()
    }
}

// The engine shares trees across threads behind `RwLock`s: every handle in
// the stack (disguise and sealer trait objects included) must stay
// `Send + Sync`. Compile-time assertion so a regression fails here, with a
// readable message, instead of deep inside `sks-engine`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EncipheredBTree>();
    assert_send_sync::<SchemeConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, SchemeConfig};

    fn demo_keys(scheme: Scheme) -> Vec<u64> {
        match scheme {
            // Exponentiation schemes exclude 0; the literal paper variant
            // additionally excludes its documented ambiguous keys 1 and 2.
            Scheme::ExponentiationPaper => vec![3, 4, 5, 6, 8, 9, 11],
            Scheme::Exponentiation => (1..=10).collect(),
            _ => (0..=10).collect(),
        }
    }

    #[test]
    fn end_to_end_all_schemes_demo_scale() {
        for scheme in Scheme::ALL {
            let cfg = SchemeConfig::demo(scheme);
            let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
            let keys = demo_keys(scheme);
            for &k in &keys {
                let rec = format!("record-{k}").into_bytes();
                assert_eq!(
                    tree.insert(k, rec).unwrap(),
                    None,
                    "{}: insert {k}",
                    scheme.name()
                );
            }
            assert_eq!(tree.len(), keys.len() as u64, "{}", scheme.name());
            tree.validate().unwrap();
            for &k in &keys {
                let got = tree.get(k).unwrap().unwrap();
                assert_eq!(
                    got,
                    format!("record-{k}").into_bytes(),
                    "{}: get {k}",
                    scheme.name()
                );
            }
            // Absent key.
            let absent = keys.iter().max().unwrap() + 1;
            if scheme != Scheme::Oval && scheme != Scheme::SumOfTreatments {
                // (bounded-domain schemes may reject out-of-domain queries
                // at the probe; in-domain misses checked below instead)
            }
            let miss = keys
                .iter()
                .find(|k| !keys.contains(&(*k + 1)) && keys.contains(k));
            let _ = (absent, miss);
            // Delete half.
            for &k in keys.iter().step_by(2) {
                let got = tree.delete(k).unwrap().unwrap();
                assert_eq!(got, format!("record-{k}").into_bytes());
            }
            tree.validate().unwrap();
            for (i, &k) in keys.iter().enumerate() {
                let want = if i % 2 == 0 { None } else { Some(()) };
                assert_eq!(
                    tree.get(k).unwrap().map(|_| ()),
                    want,
                    "{}: after delete {k}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn replace_returns_old_record() {
        let mut tree = EncipheredBTree::create_in_memory(SchemeConfig::demo(Scheme::Oval)).unwrap();
        assert_eq!(tree.insert(5, b"v1".to_vec()).unwrap(), None);
        assert_eq!(
            tree.insert(5, b"v2".to_vec()).unwrap(),
            Some(b"v1".to_vec())
        );
        assert_eq!(tree.get(5).unwrap().unwrap(), b"v2");
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn range_scans_work_under_every_scheme() {
        for scheme in Scheme::MEASURED {
            let cfg = SchemeConfig::demo(scheme);
            let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
            let keys = demo_keys(scheme);
            for &k in &keys {
                tree.insert(k, vec![k as u8]).unwrap();
            }
            let got: Vec<u64> = tree.range(2, 7).unwrap().iter().map(|&(k, _)| k).collect();
            let want: Vec<u64> = keys
                .iter()
                .copied()
                .filter(|&k| (2..=7).contains(&k))
                .collect();
            assert_eq!(got, want, "{}", scheme.name());
        }
    }

    #[test]
    fn out_of_domain_key_is_a_clean_error() {
        let mut tree = EncipheredBTree::create_in_memory(SchemeConfig::demo(Scheme::Oval)).unwrap();
        let err = tree.insert(999, b"too big".to_vec()).unwrap_err();
        assert!(matches!(err, CoreError::Tree(_)), "got {err}");
        // Tree unchanged and still consistent.
        assert_eq!(tree.len(), 0);
        tree.validate().unwrap();
    }

    #[test]
    fn capacity_scale_oval_tree() {
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, 2000);
        let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
        for k in 0..2000u64 {
            tree.insert(k, k.to_be_bytes().to_vec()).unwrap();
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), 2000);
        for k in (0..2000u64).step_by(191) {
            assert_eq!(tree.get(k).unwrap().unwrap(), k.to_be_bytes().to_vec());
        }
        let mid: Vec<u64> = tree
            .range(500, 520)
            .unwrap()
            .iter()
            .map(|&(k, _)| k)
            .collect();
        assert_eq!(mid, (500..=520).collect::<Vec<u64>>());
    }

    #[test]
    fn disk_view_differs_from_logical_for_oval() {
        let mut tree = EncipheredBTree::create_in_memory(SchemeConfig::demo(Scheme::Oval)).unwrap();
        for k in 0..=10u64 {
            tree.insert(k, vec![0]).unwrap();
        }
        let logical = tree.render_logical().unwrap();
        let disk = tree.render_disk_view().unwrap();
        assert_ne!(logical, disk, "oval disguise must change the visible keys");
    }

    #[test]
    fn disk_view_matches_logical_shape_for_sum() {
        // §4.3: order preserved, so node boundaries coincide; only values
        // change.
        let mut tree =
            EncipheredBTree::create_in_memory(SchemeConfig::demo(Scheme::SumOfTreatments)).unwrap();
        for k in 0..=10u64 {
            tree.insert(k, vec![0]).unwrap();
        }
        let logical = tree.render_logical().unwrap();
        let disk = tree.render_disk_view().unwrap();
        let shape = |s: &str| -> Vec<usize> { s.lines().map(|l| l.matches('[').count()).collect() };
        assert_eq!(shape(&logical), shape(&disk));
    }

    #[test]
    fn counters_demonstrate_the_headline_claim() {
        // One pointer decryption per node visit (substitution) vs log2(n)
        // key decryptions (Bayer–Metzger) on the same workload.
        let n_keys = 400u64;
        let mut sub = EncipheredBTree::create_in_memory(SchemeConfig::with_capacity(
            Scheme::Oval,
            n_keys + 1,
        ))
        .unwrap();
        let mut bm = EncipheredBTree::create_in_memory({
            let mut c = SchemeConfig::with_capacity(Scheme::BayerMetzger, n_keys + 1);
            c.block_size = 4096;
            c
        })
        .unwrap();
        for k in 0..n_keys {
            sub.insert(k, vec![1]).unwrap();
            bm.insert(k, vec![1]).unwrap();
        }
        sub.counters().reset();
        bm.counters().reset();
        for k in (0..n_keys).step_by(7) {
            let _ = sub.get_pointer(k).unwrap();
            let _ = bm.get_pointer(k).unwrap();
        }
        let s_sub = sub.snapshot();
        let s_bm = bm.snapshot();
        let lookups = (n_keys / 7 + 1) as f64;
        let sub_per = s_sub.total_decrypts() as f64 / lookups;
        let bm_per = s_bm.total_decrypts() as f64 / lookups;
        assert!(
            sub_per < bm_per,
            "substitution ({sub_per:.2}/lookup) must beat search-and-decrypt ({bm_per:.2}/lookup)"
        );
        assert_eq!(s_sub.key_decrypts, 0, "substitution never decrypts keys");
    }

    /// `tree` with its fresh record store reopened through its own layer
    /// at a decoded-record cache of `capacity` records (0 disables it).
    fn with_record_cache(mut tree: EncipheredBTree, capacity: usize) -> EncipheredBTree {
        let store = tree.records.into_store();
        tree.records = RecordStore::open(store, tree.config.data_key, capacity).unwrap();
        tree
    }

    /// The cache's load-bearing invariant: with a node cache large enough
    /// to hold the tree, every logical operation counter reads *exactly*
    /// as it does at the floor (`enable_node_cache(0)`: one node per shard), for
    /// every scheme, across hits and misses.
    #[test]
    fn node_cache_preserves_logical_counters_exactly() {
        for scheme in Scheme::MEASURED {
            let n = 300u64;
            let mut cfg = SchemeConfig::with_capacity(scheme, n + 2);
            cfg.block_size = 512;
            let keys: Vec<u64> = (1..n).collect();
            let run = |node_cache: usize| {
                let mut tree = EncipheredBTree::create_in_memory(cfg.clone()).unwrap();
                tree.tree.enable_node_cache(node_cache);
                for &k in &keys {
                    tree.insert(k, vec![k as u8]).unwrap();
                }
                tree.counters().reset();
                // Re-probe-heavy mix: repeated hits, misses, absent keys.
                for _ in 0..3 {
                    for &k in keys.iter().step_by(7) {
                        let _ = tree.get_pointer(k).unwrap();
                    }
                }
                let _ = tree.get_pointer(n + 1);
                (tree.snapshot(), tree.cached_nodes())
            };
            let (off, off_cached) = run(0);
            let (on, on_cached) = run(4096);
            let floor = sks_btree_core::NodeCache::new(0).capacity();
            assert!(off_cached <= floor, "{}: {off_cached}", scheme.name());
            assert!(on_cached > floor, "{}: cache never filled", scheme.name());
            // Compare every *logical* field; the physical-I/O telemetry
            // (block reads, pool and node-cache hit/miss counts) is
            // allowed — and expected — to differ: that is the saving.
            let mut on_masked = on;
            on_masked.block_reads = off.block_reads;
            on_masked.cache_hits = off.cache_hits;
            on_masked.cache_misses = off.cache_misses;
            on_masked.node_cache_hits = off.node_cache_hits;
            on_masked.node_cache_misses = off.node_cache_misses;
            assert_eq!(
                on_masked,
                off,
                "{}: cache changed the logical cost model",
                scheme.name()
            );
            assert!(on.node_cache_hits > 0, "{}", scheme.name());
        }
    }

    /// PR 4 extension of the pinning above: range scans and record `get`s
    /// with *both* caches large (node cache + decoded-record cache) report
    /// logical counters identical to the node cache at its floor and the
    /// record cache off, for every measured scheme.
    #[test]
    fn caches_preserve_logical_counters_on_range_and_get() {
        for scheme in Scheme::MEASURED {
            let n = 300u64;
            let mut cfg = SchemeConfig::with_capacity(scheme, n + 2);
            cfg.block_size = 512;
            let keys: Vec<u64> = (1..n).collect();
            let run = |node_cache: usize, record_cache: usize| {
                let mut tree = EncipheredBTree::create_in_memory(cfg.clone()).unwrap();
                tree.tree.enable_node_cache(node_cache);
                let mut tree = with_record_cache(tree, record_cache);
                for &k in &keys {
                    tree.insert(k, vec![k as u8; 24]).unwrap();
                }
                tree.counters().reset();
                // Re-read-heavy mix: repeated record gets, repeated range
                // scans, an absent key.
                for _ in 0..3 {
                    for &k in keys.iter().step_by(11) {
                        assert!(tree.get(k).unwrap().is_some());
                    }
                    assert!(!tree.range(n / 4, n / 2).unwrap().is_empty());
                }
                let _ = tree.get(n + 1);
                (tree.snapshot(), tree.cached_nodes(), tree.cached_records())
            };
            let (off, off_nodes, off_records) = run(0, 0);
            let (on, on_nodes, on_records) = run(4096, 4096);
            let floor = sks_btree_core::NodeCache::new(0).capacity();
            assert!(off_nodes <= floor, "{}: {off_nodes}", scheme.name());
            assert_eq!(off_records, 0);
            assert!(
                on_nodes > floor,
                "{}: node cache never filled",
                scheme.name()
            );
            assert!(
                on_records > 0,
                "{}: record cache never filled",
                scheme.name()
            );
            // Compare every *logical* field; only the physical-I/O
            // telemetry may differ — that is the saving.
            let mut on_masked = on;
            on_masked.block_reads = off.block_reads;
            on_masked.cache_hits = off.cache_hits;
            on_masked.cache_misses = off.cache_misses;
            on_masked.node_cache_hits = off.node_cache_hits;
            on_masked.node_cache_misses = off.node_cache_misses;
            on_masked.record_cache_hits = off.record_cache_hits;
            on_masked.record_cache_misses = off.record_cache_misses;
            assert_eq!(
                on_masked,
                off,
                "{}: caches changed the logical cost model",
                scheme.name()
            );
            assert!(on.node_cache_hits > 0, "{}", scheme.name());
            assert!(on.record_cache_hits > 0, "{}", scheme.name());
            assert!(
                on.data_decrypts > 0,
                "{}: record gets must still report the paper's unseal cost",
                scheme.name()
            );
        }
    }

    /// Record-cache hits bypass the data blocks entirely: with the whole
    /// working set cached, repeated `get`s stop touching the store while
    /// the logical data_decrypts counter keeps climbing.
    #[test]
    fn record_cache_hits_bypass_physical_reads() {
        let mut cfg = SchemeConfig::with_capacity(Scheme::Oval, 500);
        cfg.block_size = 512;
        let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
        for k in 0..200u64 {
            tree.insert(k, vec![k as u8; 64]).unwrap();
        }
        let _ = tree.get(77).unwrap(); // warm node path + record
        tree.counters().reset();
        for _ in 0..50 {
            assert_eq!(tree.get(77).unwrap().unwrap(), vec![77u8; 64]);
        }
        let s = tree.snapshot();
        assert_eq!(s.block_reads, 0, "no store reads on hits");
        assert_eq!(s.record_cache_misses, 0);
        assert_eq!(s.record_cache_hits, 50);
        assert_eq!(s.data_decrypts, 50, "logical unseals still reported");
    }

    /// Range scans look records up in the record cache but never add to
    /// it; point gets do. Both report the same logical unseals.
    #[test]
    fn range_scans_do_not_fill_the_record_cache_but_point_gets_do() {
        let dir = tmpdir("scan_admission");
        let n = 120u64;
        let mut cfg = SchemeConfig::with_capacity(Scheme::Oval, 500).on_disk(&dir);
        cfg.block_size = 512;
        {
            let mut tree = EncipheredBTree::create(cfg.clone()).unwrap();
            for k in 0..n {
                tree.insert(k, vec![k as u8; 40]).unwrap();
            }
            tree.flush().unwrap();
        }
        // Each reopen starts with an empty record cache.
        let scanned = EncipheredBTree::open(cfg.clone()).unwrap();
        scanned.counters().reset();
        assert_eq!(scanned.range(0, n).unwrap().len(), n as usize);
        let by_scan = scanned.snapshot();
        assert_eq!(scanned.cached_records(), 0, "a scan admits nothing");
        assert_eq!(by_scan.record_cache_misses, n);

        let got = EncipheredBTree::open(cfg).unwrap();
        got.counters().reset();
        for k in 0..n {
            assert_eq!(got.get(k).unwrap().unwrap(), vec![k as u8; 40]);
        }
        let by_get = got.snapshot();
        assert_eq!(got.cached_records(), n as usize, "point gets fill it");
        assert_eq!(by_scan.data_decrypts, n);
        assert_eq!(by_get.data_decrypts, by_scan.data_decrypts);

        // A scan over what point gets cached is served from the cache and
        // leaves it as it was.
        got.counters().reset();
        assert_eq!(got.range(0, n).unwrap().len(), n as usize);
        let warm = got.snapshot();
        assert_eq!((warm.record_cache_hits, warm.data_decrypts), (n, n));
        assert_eq!(got.cached_records(), n as usize);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A bulk load places its records without pre-warming the record
    /// cache (an insert does), so a load churns no cache; the first point
    /// get of each record fills it as usual.
    #[test]
    fn bulk_loads_leave_the_record_cache_empty() {
        let items: Vec<(u64, Vec<u8>)> = (0..300u64).map(|k| (k, vec![k as u8; 24])).collect();
        let config = SchemeConfig::with_capacity(Scheme::Oval, 500);
        let mut loaded = EncipheredBTree::create(config.clone()).unwrap();
        loaded.bulk_load(&items).unwrap();
        assert_eq!(loaded.cached_records(), 0, "bulk_load");
        let created = EncipheredBTree::bulk_create(config.clone(), &items).unwrap();
        assert_eq!(created.cached_records(), 0, "bulk_create");
        assert_eq!(created.get(7).unwrap().unwrap(), vec![7u8; 24]);
        assert_eq!(created.cached_records(), 1, "a get admits its record");

        let mut inserted = EncipheredBTree::create(config).unwrap();
        inserted.insert(1, vec![1; 24]).unwrap();
        assert_eq!(inserted.cached_records(), 1, "an insert pre-warms");
    }

    /// Overwriting or deleting a key reads its prior without admitting it
    /// to the record cache, so the prior (about to be deleted) evicts
    /// none of the hot set.
    #[test]
    fn priors_never_evict_hot_records() {
        let cap = 32u64;
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, 500);
        let tree = EncipheredBTree::create_in_memory(cfg).unwrap();
        let mut tree = with_record_cache(tree, cap as usize);
        // Keys 100.. are written first; the hot set's inserts push them
        // out of the cache.
        for k in (100..110u64).chain(0..cap - 1) {
            tree.insert(k, vec![k as u8; 24]).unwrap();
        }
        for (i, prior) in [100u64, 101].into_iter().enumerate() {
            // The hot set plus the fresh record of the overwrite fill the
            // cache exactly, so an admitted prior would evict one.
            for k in 0..cap - 1 {
                tree.get(k).unwrap();
            }
            if i == 0 {
                tree.insert(prior, vec![0xEE; 24]).unwrap();
            } else {
                // A delete's prior: the deleted record leaves the cache.
                tree.delete(prior).unwrap();
            }
            tree.counters().reset();
            for k in 0..cap - 1 {
                assert_eq!(tree.get(k).unwrap().unwrap(), vec![k as u8; 24]);
            }
            let s = tree.snapshot();
            assert_eq!(
                (s.record_cache_hits, s.record_cache_misses),
                (cap - 1, 0),
                "every hot record is still resident (prior {prior})"
            );
        }
    }

    /// A data pointer aimed at another key's slot fails closed: swapping
    /// two slot-directory entries of a checkpointed `data.sks` page makes
    /// each key's pointer lead to the other's sealed record, and every
    /// read through the tree refuses it instead of serving what the slot
    /// deciphers to under the wrong nonce.
    #[test]
    fn a_pointer_to_another_keys_slot_is_refused() {
        let dir = tmpdir("owner_check");
        let (a, b) = (171u64, 172u64);
        let mut cfg = SchemeConfig::with_capacity(Scheme::Oval, 100).on_disk(&dir);
        cfg.block_size = 512;
        {
            let mut tree = EncipheredBTree::create(cfg.clone()).unwrap();
            tree.insert(a, b"record of a".to_vec()).unwrap();
            tree.insert(b, b"record of b".to_vec()).unwrap();
            assert_eq!(
                tree.get_pointer(a).unwrap().unwrap().block(),
                tree.get_pointer(b).unwrap().unwrap().block()
            );
            tree.flush().unwrap();
        }
        // Data block 1 (after the 8 KiB file header and the superblock)
        // holds both; its slot directory starts after the 12-byte page
        // header, 4 bytes per slot.
        let path = dir.join(DATA_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let dir_at = 8192 + cfg.block_size + 12;
        let (first, second) = bytes[dir_at..dir_at + 8].split_at_mut(4);
        first.swap_with_slice(second);
        std::fs::write(&path, &bytes).unwrap();

        let mut tree = EncipheredBTree::open(cfg).unwrap();
        let refused = |got: Result<Option<Vec<u8>>, CoreError>| match got {
            Err(CoreError::Record(msg)) => {
                for key in [a, b] {
                    assert!(!msg.contains(&key.to_string()), "{msg}");
                }
            }
            other => panic!("served another key's record: {other:?}"),
        };
        for key in [a, b] {
            refused(tree.get(key));
            refused(tree.range(key, key).map(|rows| Some(rows[0].1.clone())));
        }
        refused(tree.insert(a, b"new".to_vec()));
        refused(tree.delete(b));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record's key comes from the medium, so a stale copy of a live key
    /// must never repoint it: the compactor's repoint is a compare-and-
    /// swap against the slot it moved. Here a stale copy of key 5 sits in
    /// a block that becomes a victim.
    #[test]
    fn a_stale_copy_in_a_victim_never_repoints_its_key() {
        let mut cfg = SchemeConfig::with_capacity(Scheme::Oval, 100);
        cfg.block_size = 512;
        let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
        let live = |k: u64| vec![k as u8; 200]; // 2 records per data page
        for k in 0..10u64 {
            tree.insert(k, live(k)).unwrap();
        }
        let stale = tree.records.insert_keyed(5, &[0xEE; 200]).unwrap();
        for k in 20..26u64 {
            tree.insert(k, live(k)).unwrap();
        }
        // Kill the stale copy's neighbour: its block is the only victim.
        let neighbour = (20..26u64)
            .find(|&k| tree.get_pointer(k).unwrap().unwrap().block() == stale.block())
            .expect("the next insert shares the stale copy's page");
        tree.delete(neighbour).unwrap();
        // A one-block pass moves the victim: the stale copy must come out
        // an orphan.
        let r = tree.compact_step(1).unwrap();
        assert_eq!((r.freed_blocks, r.moved_records), (1, 0), "{r:?}");
        assert_eq!(r.orphaned_records, 1, "{r:?}");
        while tree.compact_step(16).unwrap().freed_blocks > 0 {}
        assert_eq!(tree.get(5).unwrap().unwrap(), live(5));
        assert_eq!(tree.live_record_slots().unwrap(), tree.len());
        tree.validate().unwrap();
    }

    /// Online compaction: delete-heavy churn stops leaking space, live
    /// records survive byte for byte, and reclaimed blocks are reused.
    #[test]
    fn compaction_reclaims_space_and_preserves_records() {
        let mut cfg = SchemeConfig::with_capacity(Scheme::Oval, 800);
        cfg.block_size = 512;
        let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
        let rec = |k: u64| vec![k as u8; 100];
        for k in 0..600u64 {
            tree.insert(k, rec(k)).unwrap();
        }
        for k in (0..600u64).filter(|k| k % 3 != 0) {
            tree.delete(k).unwrap();
        }
        let (_, free_before) = tree.data_block_usage();
        let mut freed = 0u64;
        loop {
            let r = tree.compact_step(16).unwrap();
            assert_eq!(r.orphaned_records, 0);
            if r.freed_blocks == 0 {
                break;
            }
            freed += r.freed_blocks;
        }
        assert!(freed > 0, "tombstoned blocks were reclaimed");
        let (_, free_after) = tree.data_block_usage();
        assert!(free_after > free_before);
        tree.validate().unwrap();
        for k in 0..600u64 {
            let want = (k % 3 == 0).then(|| rec(k));
            assert_eq!(tree.get(k).unwrap(), want, "key {k}");
        }
        // Sustained churn: delete/compact/reinsert cycles must reach a
        // bounded steady state instead of leaking space forever (without
        // compaction every cycle would grow the device by ~100 blocks).
        let mut totals = Vec::new();
        for _ in 0..4 {
            for k in 0..600u64 {
                tree.insert(k, rec(k)).unwrap();
            }
            for k in (0..600u64).filter(|k| k % 3 != 0) {
                tree.delete(k).unwrap();
            }
            while tree.compact_step(1_000).unwrap().freed_blocks > 0 {}
            totals.push(tree.data_block_usage().0);
        }
        assert!(
            totals.last().unwrap() <= &(totals[0] + 8),
            "churn cycles must not keep growing the device: {totals:?}"
        );
        tree.validate().unwrap();
    }

    /// A crash mid-compaction recovers to *either* image: before the
    /// checkpoint commits, the no-steal pool keeps every compacted page in
    /// RAM, so the medium still holds the pre-pass image; after the
    /// journaled checkpoint, the post-pass image — never a mix, and never
    /// a lost live record.
    #[test]
    fn crash_mid_compaction_recovers_to_either_image() {
        let dir = tmpdir("compact_crash");
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, 800).on_disk(&dir);
        let rec = |k: u64| format!("compact-crash-{k:04}").into_bytes();
        let check_live = |tree: &EncipheredBTree| {
            for k in 0..400u64 {
                let want = (k % 2 == 0).then(|| rec(k));
                assert_eq!(tree.get(k).unwrap(), want, "key {k}");
            }
        };
        {
            let mut tree = EncipheredBTree::create(cfg.clone()).unwrap();
            for k in 0..400u64 {
                tree.insert(k, rec(k)).unwrap();
            }
            for k in (1..400u64).step_by(2) {
                tree.delete(k).unwrap();
            }
            tree.flush().unwrap(); // image A durable, tombstones included
            let r = tree.compact_step(1_000).unwrap();
            assert!(r.freed_blocks > 0, "the pass did real work");
            // Dropped without flush: the crash. Nothing the pass touched
            // reached the medium.
        }
        {
            let mut tree = EncipheredBTree::open(cfg.clone()).unwrap();
            tree.validate().unwrap();
            check_live(&tree); // image A: zero lost live records
            assert!(
                tree.pending_tombstones().unwrap() > 0,
                "image A still carries the garbage"
            );
            // Compact to quiescence and checkpoint: image B commits.
            while tree.compact_step(1_000).unwrap().freed_blocks > 0 {}
            tree.flush().unwrap();
        }
        {
            let mut tree = EncipheredBTree::open(cfg).unwrap();
            tree.validate().unwrap();
            check_live(&tree); // image B: zero lost live records
            let (_, free) = tree.data_block_usage();
            assert!(free > 0, "the reclaimed free list survived the reopen");
            assert_eq!(tree.pending_tombstones().unwrap(), 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Mutations invalidate cached decodings: a probe after an update or
    /// delete must never serve stale plaintext.
    #[test]
    fn node_cache_invalidated_on_mutation() {
        let mut cfg = SchemeConfig::with_capacity(Scheme::Oval, 500);
        cfg.block_size = 512;
        let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
        for k in 0..400u64 {
            tree.insert(k, format!("v1-{k}").into_bytes()).unwrap();
        }
        // Warm the cache on every probed path.
        for k in 0..400u64 {
            assert_eq!(
                tree.get(k).unwrap().unwrap(),
                format!("v1-{k}").into_bytes()
            );
        }
        assert!(tree.cached_nodes() > 0);
        // Overwrite half, delete a quarter; structure shifts too.
        for k in (0..400u64).step_by(2) {
            tree.insert(k, format!("v2-{k}").into_bytes()).unwrap();
        }
        for k in (0..400u64).step_by(4) {
            tree.delete(k).unwrap();
        }
        tree.validate().unwrap();
        for k in 0..400u64 {
            let want = if k % 4 == 0 {
                None
            } else if k % 2 == 0 {
                Some(format!("v2-{k}").into_bytes())
            } else {
                Some(format!("v1-{k}").into_bytes())
            };
            assert_eq!(tree.get(k).unwrap(), want, "key {k}");
        }
    }

    /// Cache hits skip the physical pointer decipherments: with the whole
    /// probed path cached, repeated lookups stop touching the store at
    /// all while the logical decrypt counters keep climbing.
    #[test]
    fn node_cache_hits_bypass_physical_reads() {
        let mut cfg = SchemeConfig::with_capacity(Scheme::Oval, 500);
        cfg.block_size = 512;
        let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
        for k in 0..400u64 {
            tree.insert(k, vec![1]).unwrap();
        }
        let _ = tree.get_pointer(123).unwrap(); // fill the path
        tree.counters().reset();
        for _ in 0..50 {
            assert!(tree.get_pointer(123).unwrap().is_some());
        }
        let s = tree.snapshot();
        assert_eq!(s.node_cache_misses, 0, "path fully cached");
        assert!(s.node_cache_hits >= 50);
        assert_eq!(s.block_reads, 0, "no store reads on hits");
        assert!(
            s.ptr_decrypts >= 50,
            "logical decrypts still reported: {}",
            s.ptr_decrypts
        );
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sks_core_tree_{}_{}", std::process::id(), name));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn file_backend_round_trips_across_reopen() {
        let dir = tmpdir("roundtrip");
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, 600).on_disk(&dir);
        {
            let mut tree = EncipheredBTree::create(cfg.clone()).unwrap();
            for k in 0..500u64 {
                tree.insert(k, format!("record-{k}").into_bytes()).unwrap();
            }
            for k in (0..500u64).step_by(3) {
                tree.delete(k).unwrap();
            }
            tree.flush().unwrap();
        }
        {
            let tree = EncipheredBTree::open(cfg).unwrap();
            assert_eq!(tree.len(), 500 - 500u64.div_ceil(3));
            tree.validate().unwrap();
            for k in 0..500u64 {
                let got = tree.get(k).unwrap();
                if k % 3 == 0 {
                    assert_eq!(got, None, "deleted key {k}");
                } else {
                    assert_eq!(got.unwrap(), format!("record-{k}").into_bytes());
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backend_wrong_key_fails_closed() {
        let dir = tmpdir("wrong_key");
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, 200).on_disk(&dir);
        {
            let mut tree = EncipheredBTree::create(cfg.clone()).unwrap();
            tree.insert(7, b"sealed".to_vec()).unwrap();
            tree.flush().unwrap();
        }
        let mut bad = cfg.clone();
        bad.data_key ^= 1;
        let err = EncipheredBTree::open(bad).unwrap_err();
        assert!(
            err.to_string().contains("key mismatch"),
            "wrong data key must fail closed, got: {err}"
        );
        let mut bad = cfg.clone();
        bad.tree_key ^= 1;
        assert!(EncipheredBTree::open(bad).is_err(), "wrong tree key");
        let mut bad = cfg.clone();
        bad.scheme = Scheme::SumOfTreatments;
        assert!(EncipheredBTree::open(bad).is_err(), "wrong scheme");
        // The failed opens destroyed nothing.
        let tree = EncipheredBTree::open(cfg).unwrap();
        assert_eq!(tree.get(7).unwrap().unwrap(), b"sealed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backend_images_stay_enciphered_on_the_medium() {
        let dir = tmpdir("sealed_medium");
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, 200).on_disk(&dir);
        let mut tree = EncipheredBTree::create(cfg).unwrap();
        tree.insert(5, b"EXTREMELY-SECRET-PAYLOAD".to_vec())
            .unwrap();
        tree.flush().unwrap();
        for path in [dir.join("nodes.sks"), dir.join("data.sks")] {
            let raw = std::fs::read(&path).unwrap();
            assert!(
                !raw.windows(16).any(|w| w == &b"EXTREMELY-SECRET"[..]),
                "plaintext record leaked into {}",
                path.display()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_backend_refuses_open() {
        let err = EncipheredBTree::open(SchemeConfig::demo(Scheme::Oval)).unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "got {err}");
    }

    #[test]
    fn raw_images_do_not_leak_plaintext_records() {
        let mut tree = EncipheredBTree::create_in_memory(SchemeConfig::demo(Scheme::Oval)).unwrap();
        tree.insert(5, b"EXTREMELY-SECRET-PAYLOAD".to_vec())
            .unwrap();
        for image in [
            tree.raw_node_image().unwrap(),
            tree.raw_data_image().unwrap(),
        ] {
            let leak = image
                .iter()
                .any(|b| b.windows(16).any(|w| w == &b"EXTREMELY-SECRET"[..]));
            assert!(!leak);
        }
    }
}
