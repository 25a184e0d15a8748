//! The disk-resident B-tree of `[search key, data pointer, tree pointer]`
//! triplets.
//!
//! Every node access goes through the [`NodeCache`] and the [`NodeCodec`],
//! so operation counters reflect exactly what a paged, enciphered B-tree
//! would do: searches *probe* nodes (paying only the decryptions the
//! scheme requires), while structure modifications decode and re-encode
//! whole nodes (paying the re-encipherment costs §3 of the paper
//! analyses). A cache miss reads the block from the [`BlockStore`].
//!
//! No node lies deeper than the tree's height, so every root-to-leaf
//! descent stops there: a child pointer that would lead deeper — a
//! corrupt page, possibly one pointing back up the tree — fails the
//! operation as [`CodecError::Corrupt`] instead of looping.
//!
//! The balancing algorithm is the classic preemptive-split/merge B-tree
//! (CLRS ch. 18) with minimum degree `t` derived from the codec's fanout.

use std::sync::Arc;

use sks_storage::{BlockId, BlockStore, OpCounters, PageReader, PageWriter, Stage, StorageError};

use crate::cache::{CachedNode, Keys, NodeCache};
use crate::codec::{CodecError, NodeCodec, Probe};
use crate::node::{Node, RecordPtr};

/// Errors from tree operations.
#[derive(Debug)]
pub enum TreeError {
    Storage(StorageError),
    Codec(CodecError),
    /// The codec cannot fit even a minimal node in the store's block size.
    PageTooSmall {
        page_size: usize,
        max_keys: usize,
    },
    /// Structural invariant violated (returned by [`BTree::validate`]).
    Invalid(String),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Storage(e) => write!(f, "storage error: {e}"),
            TreeError::Codec(e) => write!(f, "codec error: {e}"),
            TreeError::PageTooSmall {
                page_size,
                max_keys,
            } => write!(
                f,
                "page of {page_size} bytes holds only {max_keys} keys; need at least 3"
            ),
            TreeError::Invalid(msg) => write!(f, "tree invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<StorageError> for TreeError {
    fn from(e: StorageError) -> Self {
        TreeError::Storage(e)
    }
}

impl From<CodecError> for TreeError {
    fn from(e: CodecError) -> Self {
        TreeError::Codec(e)
    }
}

const SUPER_MAGIC: u64 = 0x534b_5342_5452_4545; // "SKSBTREE"

/// A disk B-tree parameterised by block store and node codec.
#[derive(Debug)]
pub struct BTree<S: BlockStore, C: NodeCodec> {
    store: S,
    codec: C,
    superblock: BlockId,
    root: BlockId,
    count: u64,
    height: u32,
    /// The log position the last flush covers ([`BTree::flush_covering`]).
    covered: u64,
    /// CLRS minimum degree: nodes hold `t-1 ..= 2t-1` keys (root exempt).
    t: usize,
    /// The node cache every node visit goes through. Every node
    /// re-encode/free takes its block's entry out, and a re-encode that
    /// took one puts back the image of the page it wrote, so a cached
    /// image always matches the page's current content.
    cache: NodeCache,
    /// The buffer every node and superblock write encodes its page into,
    /// reused so that a write allocates no page.
    page: Vec<u8>,
}

impl<S: BlockStore, C: NodeCodec> BTree<S, C> {
    /// Bulk-loads a tree bottom-up from *strictly ascending* `(key, ptr)`
    /// pairs — the standard index-build path a DBMS uses for initial loads.
    /// Compared to repeated inserts this writes every node exactly once
    /// (one encipherment pass per block, no splits) and produces uniform
    /// fill ≥ `t − 1` everywhere.
    pub fn bulk_load(store: S, codec: C, items: &[(u64, RecordPtr)]) -> Result<Self, TreeError> {
        let mut tree = BTree::create(store, codec)?;
        tree.bulk_fill(items)?;
        Ok(tree)
    }

    /// In-place [`BTree::bulk_load`] into a tree that is still *pristine*
    /// (no key was ever inserted: count 0, height 1, the root an empty
    /// leaf) — the shape every freshly created tree has. This is the
    /// sorted-ingest fast path for stacks whose stores are already owned
    /// by a live tree and therefore cannot go through the constructor.
    pub fn bulk_fill(&mut self, items: &[(u64, RecordPtr)]) -> Result<(), TreeError> {
        if self.count != 0 || self.height != 1 {
            return Err(TreeError::Invalid(format!(
                "bulk_fill requires a pristine empty tree (count {}, height {})",
                self.count, self.height
            )));
        }
        if let Some(w) = items.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(TreeError::Invalid(format!(
                "bulk_load requires strictly ascending keys ({} then {})",
                w[0].0, w[1].0
            )));
        }
        let tree = self;
        if items.is_empty() {
            return Ok(());
        }
        let t = tree.t;
        let max = 2 * t - 1;
        if items.len() <= max {
            let mut root = Node::leaf(tree.root);
            root.keys = items.iter().map(|&(k, _)| k).collect();
            root.data_ptrs = items.iter().map(|&(_, p)| p).collect();
            tree.write_node(&root)?;
            tree.count = items.len() as u64;
            tree.write_superblock()?;
            return Ok(());
        }
        // Chunk sizes that keep every node within [t-1, 2t-1] keys, leaving
        // one separator key between adjacent chunks.
        let next_chunk = |remaining: usize| -> usize {
            if remaining <= max {
                remaining
            } else if remaining < max + 1 + (t - 1) {
                // Shrink so the tail chunk still reaches t-1 keys.
                remaining - 1 - (t - 1)
            } else {
                max
            }
        };
        // Build the leaf level. The freshly created empty root is reused as
        // the first leaf block.
        let mut level_blocks: Vec<BlockId> = Vec::new();
        let mut seps: Vec<(u64, RecordPtr)> = Vec::new();
        let mut i = 0usize;
        let mut first = true;
        while i < items.len() {
            let chunk = next_chunk(items.len() - i);
            let id = if first {
                first = false;
                tree.root
            } else {
                tree.allocate_node()?
            };
            let mut leaf = Node::leaf(id);
            leaf.keys = items[i..i + chunk].iter().map(|&(k, _)| k).collect();
            leaf.data_ptrs = items[i..i + chunk].iter().map(|&(_, p)| p).collect();
            tree.write_node(&leaf)?;
            level_blocks.push(id);
            i += chunk;
            if i < items.len() {
                seps.push(items[i]);
                i += 1;
            }
        }
        // Build internal levels until one root remains.
        let mut height = 1u32;
        while level_blocks.len() > 1 {
            debug_assert_eq!(level_blocks.len(), seps.len() + 1);
            let mut next_blocks = Vec::new();
            let mut next_seps = Vec::new();
            let mut child = 0usize;
            let mut j = 0usize;
            loop {
                let chunk = next_chunk(seps.len() - j);
                let id = tree.allocate_node()?;
                let node = Node {
                    id,
                    keys: seps[j..j + chunk].iter().map(|&(k, _)| k).collect(),
                    data_ptrs: seps[j..j + chunk].iter().map(|&(_, p)| p).collect(),
                    children: level_blocks[child..child + chunk + 1].to_vec(),
                };
                tree.write_node(&node)?;
                next_blocks.push(id);
                child += chunk + 1;
                j += chunk;
                if j < seps.len() {
                    next_seps.push(seps[j]);
                    j += 1;
                } else {
                    break;
                }
            }
            debug_assert_eq!(child, level_blocks.len());
            level_blocks = next_blocks;
            seps = next_seps;
            height += 1;
        }
        tree.root = level_blocks[0];
        tree.height = height;
        tree.count = items.len() as u64;
        tree.write_superblock()?;
        Ok(())
    }

    /// Creates a fresh tree on an empty store (allocates the superblock and
    /// an empty root leaf).
    pub fn create(mut store: S, codec: C) -> Result<Self, TreeError> {
        let page_size = store.block_size();
        let max_keys = codec.max_keys(page_size);
        if max_keys < 3 {
            return Err(TreeError::PageTooSmall {
                page_size,
                max_keys,
            });
        }
        let t = max_keys.div_ceil(2); // 2t-1 <= max_keys
        let superblock = store.allocate()?;
        let root_id = store.allocate()?;
        let mut tree = BTree {
            store,
            codec,
            superblock,
            root: root_id,
            count: 0,
            height: 1,
            covered: 0,
            t,
            cache: NodeCache::new(0),
            page: vec![0; page_size],
        };
        let root = Node::leaf(root_id);
        tree.write_node(&root)?;
        tree.write_superblock()?;
        Ok(tree)
    }

    /// Reopens a tree persisted on `store` (reads the superblock).
    pub fn open(store: S, codec: C) -> Result<Self, TreeError> {
        let page_size = store.block_size();
        let max_keys = codec.max_keys(page_size);
        let superblock = BlockId(0);
        let page = store.read_block_vec(superblock)?;
        let mut r = PageReader::new(&page);
        let magic = r.get_u64().map_err(CodecError::from)?;
        if magic != SUPER_MAGIC {
            return Err(TreeError::Codec(CodecError::Corrupt(
                "bad superblock magic".into(),
            )));
        }
        let root = BlockId(r.get_u32().map_err(CodecError::from)?);
        let count = r.get_u64().map_err(CodecError::from)?;
        let height = r.get_u32().map_err(CodecError::from)?;
        let t = r.get_u32().map_err(CodecError::from)? as usize;
        if t < 2 || 2 * t - 1 > max_keys {
            return Err(TreeError::Codec(CodecError::Corrupt(format!(
                "superblock degree t={t} incompatible with codec fanout {max_keys}"
            ))));
        }
        // Each level holds at least one node, so a larger height is forged
        // — and would lift the bound every descent stops at.
        let blocks = store.num_blocks();
        if height == 0 || height > blocks {
            return Err(TreeError::Codec(CodecError::Corrupt(format!(
                "superblock height {height} impossible on a store of {blocks} blocks"
            ))));
        }
        let covered = r.get_u64().map_err(CodecError::from)?;
        Ok(BTree {
            store,
            codec,
            superblock,
            root,
            count,
            height,
            covered,
            t,
            cache: NodeCache::new(0),
            page: vec![0; page_size],
        })
    }

    /// Resizes the node cache to `capacity` nodes, dropping what it
    /// holds. A tree starts at the floor, one node per shard, which is
    /// also what `0` asks for. The logical operation counters are the same
    /// at every size.
    pub fn enable_node_cache(&mut self, capacity: usize) {
        self.cache = NodeCache::new(capacity);
    }

    /// Nodes currently held in the node cache.
    pub fn cached_nodes(&self) -> usize {
        self.cache.len()
    }

    /// The node cache — for tests that inspect its entries against the
    /// medium. Not part of the data-path API.
    #[doc(hidden)]
    pub fn node_cache(&self) -> &NodeCache {
        &self.cache
    }

    fn write_superblock(&mut self) -> Result<(), TreeError> {
        {
            let mut w = PageWriter::new(&mut self.page);
            w.put_u64(SUPER_MAGIC).map_err(CodecError::from)?;
            w.put_u32(self.root.0).map_err(CodecError::from)?;
            w.put_u64(self.count).map_err(CodecError::from)?;
            w.put_u32(self.height).map_err(CodecError::from)?;
            w.put_u32(self.t as u32).map_err(CodecError::from)?;
            w.put_u64(self.covered).map_err(CodecError::from)?;
            w.pad_remaining();
        }
        self.store.write_block(self.superblock, &self.page)?;
        Ok(())
    }

    /// Flushes the store. Every change of root, count or height writes
    /// the superblock at once, so a flush leaves it as it is.
    pub fn flush(&mut self) -> Result<(), TreeError> {
        Ok(self.store.flush()?)
    }

    /// [`BTree::flush`] that records `covered` in the superblock: the log
    /// position through which every logged operation is in the pages it
    /// makes durable (0 in a tree no log stands behind).
    pub fn flush_covering(&mut self, covered: u64) -> Result<(), TreeError> {
        if covered != self.covered {
            self.covered = covered;
            self.write_superblock()?;
        }
        self.flush()
    }

    /// The log position the superblock records.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    // ---- node I/O ------------------------------------------------------

    /// Reads a node to rewrite it: [`BTree::visit`], then the node built
    /// from the completed entry ([`BTree::node_of`]).
    fn read_node(&self, id: BlockId) -> Result<Node, TreeError> {
        self.node_of(&*self.visit(id)?)
    }

    /// A whole-node visit: the codec completes the cached entry —
    /// deciphering whatever its probes have not yet and recovering its
    /// keys, once — while charging a whole-node decode's exact logical
    /// counter profile ([`NodeCodec::complete`]); a miss first caches the
    /// page as stored ([`BTree::fill`]). Returns the completed entry, for
    /// update descents, range scans and validation walks to read keys,
    /// children and data pointers from: they thus report the scheme's
    /// logical cost at any cache size, and pay a node's decipherment and
    /// key recovery at most once while it stays cached.
    fn visit(&self, id: BlockId) -> Result<Arc<CachedNode>, TreeError> {
        self.counters().bump(|c| &c.node_visits);
        let (entry, hit) = match self.cache.get(id) {
            Some(entry) => {
                self.counters().bump(|c| &c.node_cache_hits);
                (entry, true)
            }
            None => (Arc::new(self.fill(id)?), false),
        };
        // A whole entry deciphers nothing, but its visit still charges
        // the decode: one `NodeSeal` sample, so the write path's breakdown
        // holds it. (An entry with slots left times its unseals as
        // `NodeUnseal` laps instead; timing it here too would count them
        // twice.)
        let obs = self.counters().obs();
        let t = obs.start().filter(|_| hit && entry.keys().is_some());
        self.codec.complete(&entry)?;
        obs.stage(Stage::NodeSeal, t);
        if entry.keys().is_none() {
            return Err(CodecError::Corrupt(format!("node {id} is not complete")).into());
        }
        if !hit {
            self.cache.insert(id, Arc::clone(&entry));
        }
        Ok(entry)
    }

    /// [`BTree::visit`] of a node a root-to-leaf walk reached at `depth`
    /// (the root's is 1). No node lies deeper than the tree's height, so a
    /// walk that would has followed a corrupt child pointer — perhaps one
    /// back up the tree — and fails closed.
    fn visit_at(&self, id: BlockId, depth: u32) -> Result<Arc<CachedNode>, TreeError> {
        self.check_depth(depth)?;
        self.visit(id)
    }

    fn check_depth(&self, depth: u32) -> Result<(), TreeError> {
        if depth > self.height {
            return Err(TreeError::Codec(CodecError::Corrupt(format!(
                "a descent reached depth {depth} of a tree of height {}",
                self.height
            ))));
        }
        Ok(())
    }

    /// The node of a visited entry, built to be rewritten with no
    /// cryptography ([`CachedNode::to_node`]). Timed as a
    /// [`Stage::NodeSeal`] sample, with the write it is built for.
    fn node_of(&self, entry: &CachedNode) -> Result<Node, TreeError> {
        let obs = self.counters().obs();
        let t = obs.start();
        let node = entry.to_node()?;
        obs.stage(Stage::NodeSeal, t);
        Ok(node)
    }

    /// An entry standing for `node`, which a descent has just written and
    /// goes on from: born complete from it, read like a visited entry, and
    /// never cached.
    fn written(&self, node: &Node) -> Arc<CachedNode> {
        Arc::new(CachedNode::complete(node, self.page.len()))
    }

    /// The cache-miss half of a node visit: wraps page `id`, as stored, in
    /// a cache entry ([`NodeCodec::decode_for_cache`] — counter-silent, and
    /// for per-triplet schemes free of cryptography), decoded straight
    /// from the page the store lends ([`BlockStore::read_with`]: on the
    /// file backend the pool frame the page was read into), so the page
    /// is never copied on its way to the entry. The caller inserts the
    /// entry once its own probe or decode of it succeeded, so a page that
    /// fails either is never cached. Timing: the fill is one
    /// [`Stage::NodeUnseal`] sample and every physical unseal the entry
    /// performs from here on another, so nothing on a memoised path reads
    /// a clock.
    fn fill(&self, id: BlockId) -> Result<CachedNode, TreeError> {
        self.counters().bump(|c| &c.node_cache_misses);
        let obs = self.counters().obs();
        let t = obs.start();
        let mut decoded = None;
        self.store.read_with(id, &mut |page| {
            decoded = Some(self.codec.decode_for_cache(id, page));
        })?;
        let entry = decoded.expect("read_with lends the page")?.timed(obs);
        obs.stage(Stage::NodeUnseal, t);
        Ok(entry)
    }

    fn write_node(&mut self, node: &Node) -> Result<(), TreeError> {
        // Re-encoding changes the page's version: the old image must
        // never serve another probe. It is still the image this write
        // replaces — completed by the update path's visit — so the codec
        // may copy from it the cryptograms of unchanged triplets.
        let t = self.counters().obs().start();
        let prev = self.cache.invalidate(node.id);
        let image = self
            .codec
            .encode_over(node, prev.as_deref(), &mut self.page)?;
        self.store.write_block(node.id, &self.page)?;
        // The new page is on the medium: the image the encoder built as it
        // wrote it takes the old one's place, so the next visit deciphers
        // nothing. It is born whole and never unseals, so it needs no
        // timing channel. Only a block that had an entry gets one back
        // (writes never grow the cache); a failed write caches nothing.
        if prev.is_some() {
            self.cache.insert(node.id, image);
        }
        self.counters().obs().stage(Stage::NodeSeal, t);
        Ok(())
    }

    fn allocate_node(&mut self) -> Result<BlockId, TreeError> {
        // Min-first allocation packs new nodes toward the front of the
        // device, keeping the tail reclaimable by the compaction pass.
        Ok(self.store.allocate_min()?)
    }

    fn free_node(&mut self, id: BlockId) -> Result<(), TreeError> {
        self.cache.invalidate(id);
        Ok(self.store.free(id)?)
    }

    // ---- accessors -----------------------------------------------------

    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Height in levels (1 = a single leaf root).
    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn root_id(&self) -> BlockId {
        self.root
    }

    /// Maximum keys per node (`2t − 1`).
    pub fn max_keys_per_node(&self) -> usize {
        2 * self.t - 1
    }

    /// CLRS minimum degree.
    pub fn min_degree(&self) -> usize {
        self.t
    }

    pub fn counters(&self) -> &OpCounters {
        self.store.counters()
    }

    pub fn store(&self) -> &S {
        &self.store
    }

    pub fn codec(&self) -> &C {
        &self.codec
    }

    /// Consumes the tree, flushing metadata and returning the store (for
    /// attack experiments that want the raw medium).
    pub fn into_store(mut self) -> Result<S, TreeError> {
        self.flush()?;
        Ok(self.store)
    }

    // ---- search --------------------------------------------------------

    /// Point lookup via node probes — the paper's search path. Costs
    /// exactly the decryptions the codec's scheme requires per node
    /// *logically*; physically a cached node serves the probe from RAM,
    /// deciphering a triplet only the first time a probe reads it.
    pub fn get(&self, key: u64) -> Result<Option<RecordPtr>, TreeError> {
        let (mut cur, mut depth) = (self.root, 1);
        loop {
            self.check_depth(depth)?;
            self.counters().bump(|c| &c.node_visits);
            match self.probe_node(cur, key)? {
                Probe::Found { data_ptr } => return Ok(Some(data_ptr)),
                Probe::Missing => return Ok(None),
                Probe::Descend { child } => (cur, depth) = (child, depth + 1),
            }
        }
    }

    /// One node visit of the search path: a cached entry serves the probe
    /// (deciphering at most the slots it reads, once), and a miss caches
    /// the page as stored first.
    fn probe_node(&self, id: BlockId, key: u64) -> Result<Probe, TreeError> {
        if let Some(entry) = self.cache.get(id) {
            self.counters().bump(|c| &c.node_cache_hits);
            return Ok(self.codec.probe_cached(&entry, key)?);
        }
        let entry = self.fill(id)?;
        let probe = self.codec.probe_cached(&entry, key)?;
        self.cache.insert(id, entry);
        Ok(probe)
    }

    // ---- insert --------------------------------------------------------

    /// Inserts (or replaces) `key → ptr`. Returns the previous pointer when
    /// the key was already present.
    pub fn insert(&mut self, key: u64, ptr: RecordPtr) -> Result<Option<RecordPtr>, TreeError> {
        let root = self.visit(self.root)?;
        let root = if root.n() == self.max_keys_per_node() {
            // Grow upward: new root over the old one, then split.
            let new_root_id = self.allocate_node()?;
            let mut new_root = Node {
                id: new_root_id,
                keys: Vec::new(),
                data_ptrs: Vec::new(),
                children: vec![self.root],
            };
            self.split_child(&mut new_root, 0)?;
            self.write_node(&new_root)?;
            self.root = new_root_id;
            self.height += 1;
            self.written(&new_root)
        } else {
            root
        };
        let res = self.insert_nonfull(root, key, ptr)?;
        self.write_superblock()?;
        Ok(res)
    }

    /// Splits the full child at slot `i` of `parent`. Writes both child
    /// halves; the caller is responsible for writing `parent`.
    fn split_child(&mut self, parent: &mut Node, i: usize) -> Result<(), TreeError> {
        let t = self.t;
        let mut child = self.read_node(parent.children[i])?;
        debug_assert_eq!(child.n(), 2 * t - 1, "split requires a full child");
        let right_id = self.allocate_node()?;
        let right = Node {
            id: right_id,
            keys: child.keys.split_off(t),
            data_ptrs: child.data_ptrs.split_off(t),
            children: if child.is_leaf() {
                Vec::new()
            } else {
                child.children.split_off(t)
            },
        };
        let median_key = child.keys.pop().expect("t-1 keys remain after pop");
        let median_ptr = child.data_ptrs.pop().expect("t-1 ptrs remain after pop");
        parent.keys.insert(i, median_key);
        parent.data_ptrs.insert(i, median_ptr);
        parent.children.insert(i + 1, right_id);
        self.write_node(&child)?;
        self.write_node(&right)?;
        self.counters().bump(|c| &c.splits);
        Ok(())
    }

    /// Inserts below `node`, the root, descending with preemptive splits.
    /// Each level is read from its cache entry; only a node the insert
    /// rewrites is built.
    fn insert_nonfull(
        &mut self,
        mut node: Arc<CachedNode>,
        key: u64,
        ptr: RecordPtr,
    ) -> Result<Option<RecordPtr>, TreeError> {
        debug_assert!(node.n() < self.max_keys_per_node());
        let mut depth = 1;
        loop {
            match keys(&node).binary_search(key) {
                Ok(i) => {
                    let mut node = self.node_of(&node)?;
                    let old = node.data_ptrs[i];
                    node.data_ptrs[i] = ptr;
                    self.write_node(&node)?;
                    return Ok(Some(old));
                }
                Err(i) => {
                    if node.is_leaf() {
                        let mut node = self.node_of(&node)?;
                        node.keys.insert(i, key);
                        node.data_ptrs.insert(i, ptr);
                        self.write_node(&node)?;
                        self.count += 1;
                        return Ok(None);
                    }
                    depth += 1;
                    let child = self.visit_at(child(&node, i), depth)?;
                    if child.n() == self.max_keys_per_node() {
                        let mut parent = self.node_of(&node)?;
                        self.split_child(&mut parent, i)?;
                        self.write_node(&parent)?;
                        // The promoted median may be the key itself.
                        node = match key.cmp(&parent.keys[i]) {
                            std::cmp::Ordering::Equal => {
                                let old = parent.data_ptrs[i];
                                parent.data_ptrs[i] = ptr;
                                self.write_node(&parent)?;
                                return Ok(Some(old));
                            }
                            std::cmp::Ordering::Greater => self.visit(parent.children[i + 1])?,
                            std::cmp::Ordering::Less => self.visit(parent.children[i])?,
                        };
                    } else {
                        node = child;
                    }
                }
            }
        }
    }

    /// Repoints `key` from `expected` to `new` without touching the tree
    /// structure (no splits, no balancing): a compare-and-swap in one
    /// descent. The record-store compactor uses this after rewriting a
    /// record into a fresh block; it learnt the key from the record on
    /// the medium, so a stale copy of a key must never take the key over.
    /// Returns whether the key was repointed — an absent key, or one
    /// pointing anywhere but `expected`, changes nothing.
    pub fn replace_ptr(
        &mut self,
        key: u64,
        expected: RecordPtr,
        new: RecordPtr,
    ) -> Result<bool, TreeError> {
        let (mut node, mut depth) = (self.visit(self.root)?, 1);
        loop {
            match keys(&node).binary_search(key) {
                Ok(i) => {
                    if data_ptr(&node, i) != expected {
                        return Ok(false);
                    }
                    let mut node = self.node_of(&node)?;
                    node.data_ptrs[i] = new;
                    self.write_node(&node)?;
                    return Ok(true);
                }
                Err(i) => {
                    if node.is_leaf() {
                        return Ok(false);
                    }
                    depth += 1;
                    node = self.visit_at(child(&node, i), depth)?;
                }
            }
        }
    }

    // ---- node-device compaction ----------------------------------------

    /// Moves the live node at `from` into the free block `to` (claimed off
    /// the store's free list), repointing its parent — or the tree root —
    /// and freeing `from`. The node is re-encoded at its new id by the
    /// normal write path, so position-keyed codecs re-seal it under the
    /// destination page's key material. O(height): the parent is found by
    /// descending from the root toward one of the moved node's own keys
    /// (keys are unique across the tree, so the descent cannot stray).
    pub fn relocate_node(&mut self, from: BlockId, to: BlockId) -> Result<(), TreeError> {
        if from == self.superblock {
            return Err(TreeError::Invalid("cannot relocate the superblock".into()));
        }
        let moved = self.visit(from)?;
        if from == self.root {
            self.store.claim_free(to)?;
            let mut node = self.node_of(&moved)?;
            node.id = to;
            self.write_node(&node)?;
            self.root = to;
            self.free_node(from)?;
            self.write_superblock()?;
            self.counters().bump(|c| &c.compact_moved_nodes);
            return Ok(());
        }
        let Some(guide) = keys(&moved).get(0) else {
            return Err(TreeError::Invalid(format!(
                "non-root node {from} has no keys"
            )));
        };
        // Locate the parent before mutating anything.
        let (mut cur, mut depth) = (self.visit(self.root)?, 1);
        loop {
            let i = match keys(&cur).binary_search(guide) {
                Err(i) => i,
                Ok(_) => {
                    return Err(TreeError::Invalid(format!(
                        "key {guide} of node {from} duplicated in ancestor {}",
                        cur.id()
                    )))
                }
            };
            if cur.is_leaf() {
                return Err(TreeError::Invalid(format!(
                    "node {from} is unreachable from the root"
                )));
            }
            if child(&cur, i) == from {
                self.store.claim_free(to)?;
                let mut node = self.node_of(&moved)?;
                node.id = to;
                self.write_node(&node)?;
                let mut parent = self.node_of(&cur)?;
                parent.children[i] = to;
                self.write_node(&parent)?;
                self.free_node(from)?;
                self.counters().bump(|c| &c.compact_moved_nodes);
                return Ok(());
            }
            depth += 1;
            cur = self.visit_at(child(&cur, i), depth)?;
        }
    }

    /// One bounded sliding pass of node-device compaction: up to
    /// `max_moves` times, the highest-numbered live node slides into the
    /// lowest free slot, then every freed block at the device tail is
    /// released ([`BlockStore::truncate_free_tail`]) so a shrunken dataset
    /// stops pinning the node device at its high-water mark. Returns
    /// `(nodes moved, tail blocks released)`.
    pub fn compact_nodes(&mut self, max_moves: usize) -> Result<(u64, u32), TreeError> {
        // One snapshot of the free set, updated incrementally per move
        // (each move frees `hi` and claims `min_free`), so the pass costs
        // O(num_blocks + free + moves) instead of re-scanning the device
        // per move — this runs under the partition write lock.
        let mut free: std::collections::BTreeSet<u32> =
            self.store.free_block_ids().into_iter().collect();
        let mut hi = self.store.num_blocks();
        let mut moved = 0u64;
        while (moved as usize) < max_moves {
            let Some(&min_free) = free.first() else {
                break;
            };
            let hi_live = loop {
                if hi == 0 {
                    break None;
                }
                hi -= 1;
                if !free.contains(&hi) {
                    break Some(hi);
                }
            };
            let Some(hi_live) = hi_live else { break };
            // Packed already (or only the superblock remains): done.
            if min_free >= hi_live || BlockId(hi_live) == self.superblock {
                break;
            }
            self.relocate_node(BlockId(hi_live), BlockId(min_free))?;
            free.remove(&min_free);
            free.insert(hi_live);
            moved += 1;
        }
        let truncated = self.store.truncate_free_tail()?;
        Ok((moved, truncated))
    }

    // ---- delete --------------------------------------------------------

    /// Removes `key`, returning its data pointer if it was present.
    pub fn delete(&mut self, key: u64) -> Result<Option<RecordPtr>, TreeError> {
        let root = self.visit(self.root)?;
        let result = self.delete_from(root, key, 1)?;
        // Shrink the root if it became an empty internal node.
        let root = self.visit(self.root)?;
        if root.n() == 0 && !root.is_leaf() {
            let old_root = self.root;
            self.root = child(&root, 0);
            self.free_node(old_root)?;
            self.height -= 1;
        }
        self.write_superblock()?;
        Ok(result)
    }

    /// Deletes `key` from the subtree of `node`, which sits at `depth`.
    /// Each level is read from its cache entry; only a node the delete
    /// rewrites is built.
    fn delete_from(
        &mut self,
        node: Arc<CachedNode>,
        key: u64,
        depth: u32,
    ) -> Result<Option<RecordPtr>, TreeError> {
        match keys(&node).binary_search(key) {
            Ok(i) => {
                if node.is_leaf() {
                    let mut node = self.node_of(&node)?;
                    let _ = node.keys.remove(i);
                    let old = node.data_ptrs.remove(i);
                    self.write_node(&node)?;
                    self.count -= 1;
                    return Ok(Some(old));
                }
                let left_id = child(&node, i);
                let right_id = child(&node, i + 1);
                let left = self.visit_at(left_id, depth + 1)?;
                if left.n() >= self.t {
                    // Replace with predecessor, then delete it below.
                    let (pk, pp) = self.end_entry_under(left, depth + 1, true)?;
                    let mut node = self.node_of(&node)?;
                    let old = node.data_ptrs[i];
                    node.keys[i] = pk;
                    node.data_ptrs[i] = pp;
                    self.write_node(&node)?;
                    let next = self.visit(left_id)?;
                    let removed = self.delete_from(next, pk, depth + 1)?;
                    debug_assert!(removed.is_some());
                    return Ok(Some(old));
                }
                let right = self.visit_at(right_id, depth + 1)?;
                if right.n() >= self.t {
                    let (sk, sp) = self.end_entry_under(right, depth + 1, false)?;
                    let mut node = self.node_of(&node)?;
                    let old = node.data_ptrs[i];
                    node.keys[i] = sk;
                    node.data_ptrs[i] = sp;
                    self.write_node(&node)?;
                    let next = self.visit(right_id)?;
                    let removed = self.delete_from(next, sk, depth + 1)?;
                    debug_assert!(removed.is_some());
                    return Ok(Some(old));
                }
                // Both children minimal: merge around the key, then recurse.
                let mut node = self.node_of(&node)?;
                self.merge_children(&mut node, i)?;
                let merged = self.visit(node.children[i])?;
                self.delete_from(merged, key, depth + 1)
            }
            Err(i) => {
                if node.is_leaf() {
                    return Ok(None); // absent
                }
                let child = self.visit_at(child(&node, i), depth + 1)?;
                let child = if child.n() < self.t {
                    let mut parent = self.node_of(&node)?;
                    self.fill_child(&mut parent, i, child)?
                } else {
                    child
                };
                self.delete_from(child, key, depth + 1)
            }
        }
    }

    /// Ensures the child being descended into has at least `t` keys, by
    /// borrowing from a sibling or merging. Returns the node to descend
    /// into (which may be a merged node at a different slot).
    fn fill_child(
        &mut self,
        parent: &mut Node,
        i: usize,
        child: Arc<CachedNode>,
    ) -> Result<Arc<CachedNode>, TreeError> {
        debug_assert_eq!(child.n(), self.t - 1);
        // Borrow from the left sibling.
        if i > 0 {
            let left = self.visit(parent.children[i - 1])?;
            if left.n() >= self.t {
                let mut left = self.node_of(&left)?;
                let mut child = self.node_of(&child)?;
                child.keys.insert(0, parent.keys[i - 1]);
                child.data_ptrs.insert(0, parent.data_ptrs[i - 1]);
                parent.keys[i - 1] = left.keys.pop().expect("left has >= t keys");
                parent.data_ptrs[i - 1] = left.data_ptrs.pop().expect("left has >= t ptrs");
                if !left.is_leaf() {
                    let moved = left.children.pop().expect("internal left has children");
                    child.children.insert(0, moved);
                }
                self.write_node(&left)?;
                self.write_node(&child)?;
                self.write_node(parent)?;
                self.counters().bump(|c| &c.borrows);
                return Ok(self.written(&child));
            }
        }
        // Borrow from the right sibling.
        if i + 1 < parent.children.len() {
            let right = self.visit(parent.children[i + 1])?;
            if right.n() >= self.t {
                let mut right = self.node_of(&right)?;
                let mut child = self.node_of(&child)?;
                child.keys.push(parent.keys[i]);
                child.data_ptrs.push(parent.data_ptrs[i]);
                parent.keys[i] = right.keys.remove(0);
                parent.data_ptrs[i] = right.data_ptrs.remove(0);
                if !right.is_leaf() {
                    child.children.push(right.children.remove(0));
                }
                self.write_node(&right)?;
                self.write_node(&child)?;
                self.write_node(parent)?;
                self.counters().bump(|c| &c.borrows);
                return Ok(self.written(&child));
            }
        }
        // Merge with a sibling.
        let at = i.saturating_sub(1);
        self.merge_children(parent, at)?;
        self.visit(parent.children[at])
    }

    /// Merges `children[i]`, separator key `i`, and `children[i+1]` into a
    /// single node at slot `i`. Writes the merged child and the parent;
    /// frees the right child's block, which is read from its entry.
    fn merge_children(&mut self, parent: &mut Node, i: usize) -> Result<(), TreeError> {
        let mut left = self.read_node(parent.children[i])?;
        let right = self.visit(parent.children[i + 1])?;
        left.keys.push(parent.keys.remove(i));
        left.data_ptrs.push(parent.data_ptrs.remove(i));
        let n = right.n();
        left.keys.extend(keys(&right).iter());
        left.data_ptrs.extend((0..n).map(|j| data_ptr(&right, j)));
        if !right.is_leaf() {
            left.children.extend((0..=n).map(|c| child(&right, c)));
        }
        parent.children.remove(i + 1);
        self.write_node(&left)?;
        self.write_node(parent)?;
        self.free_node(right.id())?;
        self.counters().bump(|c| &c.merges);
        Ok(())
    }

    /// The greatest `(key, ptr)` in the subtree rooted at `node`, at
    /// `depth`, when `last`; otherwise the least.
    fn end_entry_under(
        &self,
        mut node: Arc<CachedNode>,
        mut depth: u32,
        last: bool,
    ) -> Result<(u64, RecordPtr), TreeError> {
        while !node.is_leaf() {
            depth += 1;
            node = self.visit_at(child(&node, if last { node.n() } else { 0 }), depth)?;
        }
        // Only a corrupt medium puts an empty leaf below a separator.
        let i = if last {
            node.n().checked_sub(1)
        } else {
            (node.n() > 0).then_some(0)
        };
        let empty = || CodecError::Corrupt(format!("leaf {} holds no key", node.id()));
        let i = i.ok_or_else(empty)?;
        let key = keys(&node).get(i).ok_or_else(empty)?;
        Ok((key, data_ptr(&node, i)))
    }

    /// Smallest entry in the tree.
    pub fn first(&self) -> Result<Option<(u64, RecordPtr)>, TreeError> {
        if self.is_empty() {
            return Ok(None);
        }
        let root = self.visit(self.root)?;
        self.end_entry_under(root, 1, false).map(Some)
    }

    /// Largest entry in the tree.
    pub fn last(&self) -> Result<Option<(u64, RecordPtr)>, TreeError> {
        if self.is_empty() {
            return Ok(None);
        }
        let root = self.visit(self.root)?;
        self.end_entry_under(root, 1, true).map(Some)
    }

    // ---- range scans ---------------------------------------------------

    /// Streaming range scan: yields every `(key, ptr)` pair with
    /// `lo <= key <= hi` in key order *without* materialising the result —
    /// memory stays O(tree height) however wide the range. This is the
    /// operation §1 motivates and §4.3 preserves: whole-subtree access
    /// works because triplet *positions* are never based on disguised
    /// values.
    pub fn iter_range(&self, lo: u64, hi: u64) -> RangeIter<'_, S, C> {
        let mut iter = RangeIter {
            tree: self,
            stack: Vec::new(),
            lo,
            hi,
            pending_err: None,
        };
        if lo <= hi && !self.is_empty() {
            iter.push_node(self.root);
        }
        iter
    }

    /// Collects all `(key, ptr)` pairs with `lo <= key <= hi`, in key
    /// order. Convenience over [`BTree::iter_range`] for small ranges;
    /// large scans should iterate.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, RecordPtr)>, TreeError> {
        self.iter_range(lo, hi).collect()
    }

    /// Full ordered scan (see [`BTree::iter_range`] for the streaming
    /// form).
    pub fn scan_all(&self) -> Result<Vec<(u64, RecordPtr)>, TreeError> {
        self.range(0, u64::MAX)
    }

    // ---- validation ----------------------------------------------------

    /// Exhaustively checks structural invariants: shape, strict key order,
    /// separator bounds, uniform leaf depth, minimum fill, and that the
    /// entry count matches the metadata.
    pub fn validate(&self) -> Result<(), TreeError> {
        let mut counted = 0u64;
        let mut leaf_depth: Option<u32> = None;
        self.validate_walk(
            self.root,
            None,
            None,
            1,
            true,
            &mut counted,
            &mut leaf_depth,
        )?;
        if counted != self.count {
            return Err(TreeError::Invalid(format!(
                "metadata count {} != walked count {counted}",
                self.count
            )));
        }
        if let Some(d) = leaf_depth {
            if d != self.height {
                return Err(TreeError::Invalid(format!(
                    "metadata height {} != leaf depth {d}",
                    self.height
                )));
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_walk(
        &self,
        id: BlockId,
        lower: Option<u64>,
        upper: Option<u64>,
        depth: u32,
        is_root: bool,
        counted: &mut u64,
        leaf_depth: &mut Option<u32>,
    ) -> Result<(), TreeError> {
        self.check_depth(depth)?;
        let node = self.read_node(id)?;
        node.check_shape().map_err(TreeError::Invalid)?;
        node.check_sorted().map_err(TreeError::Invalid)?;
        if !is_root && node.n() < self.t - 1 {
            return Err(TreeError::Invalid(format!(
                "node {id} underfull: {} < {}",
                node.n(),
                self.t - 1
            )));
        }
        if node.n() > self.max_keys_per_node() {
            return Err(TreeError::Invalid(format!(
                "node {id} overfull: {} > {}",
                node.n(),
                self.max_keys_per_node()
            )));
        }
        for &k in &node.keys {
            if let Some(lo) = lower {
                if k <= lo {
                    return Err(TreeError::Invalid(format!(
                        "node {id}: key {k} <= separator lower bound {lo}"
                    )));
                }
            }
            if let Some(hi) = upper {
                if k >= hi {
                    return Err(TreeError::Invalid(format!(
                        "node {id}: key {k} >= separator upper bound {hi}"
                    )));
                }
            }
        }
        *counted += node.n() as u64;
        if node.is_leaf() {
            match *leaf_depth {
                None => *leaf_depth = Some(depth),
                Some(d) if d != depth => {
                    return Err(TreeError::Invalid(format!(
                        "leaves at different depths: {d} and {depth}"
                    )))
                }
                _ => {}
            }
            return Ok(());
        }
        for i in 0..node.children.len() {
            let lo = if i == 0 {
                lower
            } else {
                Some(node.keys[i - 1])
            };
            let hi = if i == node.n() {
                upper
            } else {
                Some(node.keys[i])
            };
            self.validate_walk(
                node.children[i],
                lo,
                hi,
                depth + 1,
                false,
                counted,
                leaf_depth,
            )?;
        }
        Ok(())
    }

    /// Reads a node for inspection (rendering, attack setup). Public but
    /// not part of the data-path API.
    pub fn inspect_node(&self, id: BlockId) -> Result<Node, TreeError> {
        self.read_node(id)
    }
}

/// Why reads of a visited entry cannot fail: [`BTree::visit`] returns only
/// complete entries, and a complete entry has its keys and every slot
/// memoised.
const COMPLETE: &str = "a visited entry has its keys and every slot memoised";

/// The keys of a visited entry.
fn keys(entry: &CachedNode) -> Keys<'_> {
    entry.keys().expect(COMPLETE)
}

/// Child `c` of a visited internal entry.
fn child(entry: &CachedNode, c: usize) -> BlockId {
    entry.child(c).expect(COMPLETE)
}

/// The data pointer of triplet `i` of a visited entry.
fn data_ptr(entry: &CachedNode, i: usize) -> RecordPtr {
    entry.data_ptr(i).expect(COMPLETE)
}

/// One in-flight node of a [`RangeIter`]: the node's completed cache entry
/// plus the next event index. For an internal node with `n` keys the
/// events are `child₀, key₀, child₁, key₁, …, childₙ` (event `2i` =
/// descend child `i`, event `2i+1` = yield key `i`); a leaf's events are
/// just its keys.
struct RangeFrame {
    entry: Arc<CachedNode>,
    event: usize,
}

/// Streaming in-order range iterator over a [`BTree`] (see
/// [`BTree::iter_range`]). Holds at most one node entry per tree level,
/// reading keys and pointers from it with no node built; errors are
/// yielded once and end the iteration.
pub struct RangeIter<'a, S: BlockStore, C: NodeCodec> {
    tree: &'a BTree<S, C>,
    stack: Vec<RangeFrame>,
    lo: u64,
    hi: u64,
    /// A node-read failure, yielded exactly once before iteration ends —
    /// including one hit while positioning on the root, so `range()` and
    /// `scan_all()` surface it instead of returning an empty result.
    pending_err: Option<TreeError>,
}

impl<S: BlockStore, C: NodeCodec> RangeIter<'_, S, C> {
    /// Visits `id` and pushes its entry positioned at its first in-range
    /// event. The stack holds one frame per level, so its length is the
    /// depth `id` is read at.
    fn push_node(&mut self, id: BlockId) {
        let depth = self.stack.len() as u32 + 1;
        match self.tree.visit_at(id, depth) {
            Ok(entry) => {
                // First key index i with keys[i] >= lo. Child i (spanning
                // strictly below keys[i]) can hold in-range entries only
                // when keys[i] > lo, matching the recursive walk's
                // `i == n || keys[i] > lo` descend predicate exactly.
                let keys = keys(&entry);
                let i = keys.count_below(self.lo);
                let event = if entry.is_leaf() {
                    i
                } else if keys.get(i) == Some(self.lo) {
                    2 * i + 1
                } else {
                    2 * i
                };
                self.stack.push(RangeFrame { entry, event });
            }
            Err(e) => {
                self.stack.clear();
                self.pending_err = Some(e);
            }
        }
    }
}

impl<S: BlockStore, C: NodeCodec> Iterator for RangeIter<'_, S, C> {
    type Item = Result<(u64, RecordPtr), TreeError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.pending_err.take() {
                return Some(Err(e));
            }
            let frame = self.stack.last_mut()?;
            let entry = &frame.entry;
            let (keys, n) = (keys(entry), entry.n());
            // Key `i`, if it is in range.
            let in_range = |i: usize| keys.get(i).filter(|&k| k <= self.hi);
            if entry.is_leaf() {
                let i = frame.event;
                if let Some(key) = in_range(i) {
                    frame.event += 1;
                    return Some(Ok((key, data_ptr(entry, i))));
                }
                self.stack.pop();
                continue;
            }
            let e = frame.event;
            if e > 2 * n {
                self.stack.pop();
                continue;
            }
            frame.event += 1;
            if e % 2 == 1 {
                // Key event.
                let i = (e - 1) / 2;
                let Some(key) = in_range(i) else {
                    self.stack.pop();
                    continue;
                };
                return Some(Ok((key, data_ptr(entry, i))));
            }
            // Child event: child i spans the open interval
            // (keys[i-1], keys[i]); descend only if it intersects [lo, hi].
            let i = e / 2;
            if i > 0 && keys.get(i - 1).is_some_and(|k| k >= self.hi) {
                self.stack.pop();
                continue;
            }
            let child = child(entry, i);
            self.push_node(child);
            // A failed push left pending_err set; the loop head yields it.
        }
    }
}
