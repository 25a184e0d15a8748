//! The Bayer–Metzger baseline with §3's *binary search-and-decrypt*.
//!
//! Every triplet `(kᵢ, aᵢ, pᵢ)` is one cryptogram under the page key
//! `K_{P} = PK(K_E, P_id)` (so identical triplets in different nodes yield
//! different cryptograms), and navigating a node costs up to `log₂ n`
//! triplet decryptions. Reorganisation (split/merge) must decrypt and
//! re-encrypt every moved triplet *including its never-changing search key*
//! — the overhead the paper's scheme removes.

use sks_btree_core::{
    CachedNode, CodecError, Node, NodeCodec, Probe, RecordPtr, Triplet, NODE_HEADER_LEN,
};
use sks_crypto::cipher::BlockCipher64;
use sks_crypto::pagekey::PageKeyScheme;
use sks_storage::{BlockId, OpCounters, PageReader, PageWriter};

const TAG: u8 = 0x42; // 'B'

/// Triplet cryptogram width: `k(8) ‖ a(8) ‖ p(4) ‖ check(4)` = 24 bytes
/// (three cipher blocks, CBC, zero IV — uniqueness comes from the page key).
const SEALED_TRIPLET_LEN: usize = 24;

/// The Bayer–Metzger per-triplet codec.
pub struct BayerMetzgerCodec {
    pages: PageKeyScheme,
    counters: OpCounters,
}

impl BayerMetzgerCodec {
    pub fn new(pages: PageKeyScheme, counters: OpCounters) -> Self {
        BayerMetzgerCodec { pages, counters }
    }

    fn seal_triplet(
        &self,
        cipher: &dyn BlockCipher64,
        t: Triplet,
        block: u32,
    ) -> [u8; SEALED_TRIPLET_LEN] {
        let mut pt = [0u8; SEALED_TRIPLET_LEN];
        pt[0..8].copy_from_slice(&t.key.to_be_bytes());
        pt[8..16].copy_from_slice(&t.data_ptr.to_be_bytes());
        pt[16..20].copy_from_slice(&t.child.to_be_bytes());
        pt[20..24].copy_from_slice(&block.to_be_bytes());
        let mut out = [0u8; SEALED_TRIPLET_LEN];
        let mut prev = 0u64;
        for i in 0..3 {
            let b = u64::from_be_bytes(pt[i * 8..(i + 1) * 8].try_into().expect("fixed"));
            let c = cipher.encrypt_block(b ^ prev);
            out[i * 8..(i + 1) * 8].copy_from_slice(&c.to_be_bytes());
            prev = c;
        }
        out
    }

    /// Deciphers one triplet cryptogram of block `id` (the physical work;
    /// callers charge the counters), keying the page cipher into `cipher`
    /// the first time one is needed. The block number sealed inside must
    /// be `id`.
    fn unseal_triplet(
        &self,
        cipher: &mut Option<PageCipher>,
        id: BlockId,
        ct: &[u8],
    ) -> Result<Triplet, CodecError> {
        if ct.len() != SEALED_TRIPLET_LEN {
            return Err(CodecError::Corrupt(format!(
                "triplet cryptogram must be {SEALED_TRIPLET_LEN} bytes, got {}",
                ct.len()
            )));
        }
        let cipher = cipher.get_or_insert_with(|| self.pages.page_cipher(id.as_u64()));
        let mut pt = [0u8; SEALED_TRIPLET_LEN];
        let mut prev = 0u64;
        for i in 0..3 {
            let c = u64::from_be_bytes(ct[i * 8..(i + 1) * 8].try_into().expect("fixed"));
            let b = cipher.decrypt_block(c) ^ prev;
            pt[i * 8..(i + 1) * 8].copy_from_slice(&b.to_be_bytes());
            prev = c;
        }
        let check = u32::from_be_bytes(pt[20..24].try_into().expect("fixed"));
        if check != id.0 {
            return Err(CodecError::BindingMismatch {
                expected: id.0,
                got: check,
            });
        }
        Ok(Triplet {
            key: u64::from_be_bytes(pt[0..8].try_into().expect("fixed")),
            data_ptr: u64::from_be_bytes(pt[8..16].try_into().expect("fixed")),
            child: u32::from_be_bytes(pt[16..20].try_into().expect("fixed")),
        })
    }

    /// Offset of sealed triplet `i` (slot 0 = the leftmost-pointer seal for
    /// internal nodes; keyed triplets follow).
    fn triplet_offset(is_leaf: bool, i: usize) -> usize {
        let base = NODE_HEADER_LEN + if is_leaf { 0 } else { SEALED_TRIPLET_LEN };
        base + i * SEALED_TRIPLET_LEN
    }

    /// §3's binary search-and-decrypt over slots read through `slot`: the
    /// cache entry for `probe_cached`, the raw page for the test oracle,
    /// charged alike. A binary search never revisits a triplet, so each step is
    /// one key decryption; the descent pointer rides in the last triplet
    /// that compared below `key` (already deciphered), or in the keyless
    /// leftmost seal when none did — the one extra pointer decryption.
    fn search(
        &self,
        n: usize,
        is_leaf: bool,
        key: u64,
        mut slot: impl FnMut(usize) -> Result<Triplet, CodecError>,
    ) -> Result<Probe, CodecError> {
        let (mut lo, mut hi) = (0usize, n);
        let mut below = None;
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.counters.bump(|c| &c.key_compares);
            self.counters.bump(|c| &c.key_decrypts);
            let t = slot(mid + usize::from(!is_leaf))?;
            match t.key.cmp(&key) {
                std::cmp::Ordering::Equal => {
                    return Ok(Probe::Found {
                        data_ptr: RecordPtr(t.data_ptr),
                    })
                }
                std::cmp::Ordering::Less => (lo, below) = (mid + 1, Some(t)),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        if is_leaf {
            return Ok(Probe::Missing);
        }
        let t = match below {
            Some(t) => t,
            None => {
                self.counters.bump(|c| &c.ptr_decrypts);
                slot(0)?
            }
        };
        Ok(Probe::Descend {
            child: BlockId(t.child),
        })
    }

    /// The search straight off the raw page, deciphering each triplet it
    /// crosses: the oracle [`NodeCodec::probe_cached`] is checked against.
    #[cfg(test)]
    pub(crate) fn raw_probe(
        &self,
        id: BlockId,
        page: &[u8],
        key: u64,
    ) -> Result<Probe, CodecError> {
        let mut r = PageReader::new(page);
        let (is_leaf, n) = sks_btree_core::codec::read_header(&mut r, TAG, id)?;
        let mut cipher = None;
        self.search(n, is_leaf, key, |slot| {
            let mut r = PageReader::new(page);
            r.seek(NODE_HEADER_LEN + slot * SEALED_TRIPLET_LEN)?;
            self.unseal_triplet(&mut cipher, id, r.get_bytes(SEALED_TRIPLET_LEN)?)
        })
    }
}

type PageCipher = Box<dyn BlockCipher64 + Send + Sync>;

impl NodeCodec for BayerMetzgerCodec {
    fn encode_over(
        &self,
        node: &Node,
        prev: Option<&CachedNode>,
        page: &mut [u8],
    ) -> Result<CachedNode, CodecError> {
        // One ptr_encrypts for the lone leftmost pointer, and one
        // key_encrypts per triplet — the whole triplet, key included, is
        // one cryptogram: the key re-encipherment §3 complains about —
        // copied or sealed alike.
        node.check_shape().map_err(CodecError::Corrupt)?;
        if !node.is_leaf() {
            self.counters.bump(|c| &c.ptr_encrypts);
        }
        self.counters.bump_by(|c| &c.key_encrypts, node.n() as u64);
        // Header, then one cryptogram per slot — the keyless leftmost
        // pointer of an internal node, then every triplet — copied from
        // `prev` where that image of this block holds a slot deciphered to
        // the same triplet, sealed otherwise (the page cipher is keyed only
        // if something is). The image is the page as laid down, each slot
        // known, key included.
        let mut w = PageWriter::new(page);
        sks_btree_core::codec::write_header(&mut w, TAG, node)?;
        let prev = prev.filter(|image| image.id() == node.id);
        let mut cipher: Option<PageCipher> = None;
        let (len, mut from, mut reused) = (SEALED_TRIPLET_LEN, 0, 0);
        for t in node.slots() {
            match prev.and_then(|image| image.stored_cryptogram(&mut from, &t, len)) {
                Some(ct) => {
                    reused += 1;
                    w.put_bytes(ct)?;
                }
                None => {
                    let cipher =
                        cipher.get_or_insert_with(|| self.pages.page_cipher(node.id.as_u64()));
                    w.put_bytes(&self.seal_triplet(cipher.as_ref(), t, node.id.0))?;
                }
            }
        }
        w.pad_remaining();
        self.counters.bump_by(|c| &c.triplet_seals_reused, reused);
        // The cryptograms lie back to back on the page.
        let sealed = page[NODE_HEADER_LEN..Self::triplet_offset(node.is_leaf(), node.n())].to_vec();
        Ok(CachedNode::written(
            node,
            page.len(),
            sealed,
            false,
            len,
            true,
        ))
    }

    fn max_keys(&self, page_size: usize) -> usize {
        let fixed = NODE_HEADER_LEN + SEALED_TRIPLET_LEN; // header + leftmost
        if page_size <= fixed {
            return 0;
        }
        (page_size - fixed) / SEALED_TRIPLET_LEN
    }

    fn name(&self) -> &'static str {
        "bayer-metzger"
    }

    fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError> {
        // The node as stored: the triplet cryptograms copied out. No raw
        // keys — they are sealed inside the triplets.
        let mut r = PageReader::new(page);
        let (is_leaf, n) = sks_btree_core::codec::read_header(&mut r, TAG, id)?;
        let sealed = page
            .get(NODE_HEADER_LEN..Self::triplet_offset(is_leaf, n))
            .ok_or_else(|| {
                CodecError::Corrupt(format!(
                    "entry count {n} overruns the {}-byte page",
                    page.len()
                ))
            })?;
        Ok(CachedNode::sealed(
            id,
            is_leaf,
            page.len(),
            sealed.to_vec(),
            false,
            SEALED_TRIPLET_LEN,
        ))
    }

    fn probe_cached(&self, entry: &CachedNode, key: u64) -> Result<Probe, CodecError> {
        // Physically, only the slots the binary search crosses that no
        // earlier probe of this entry deciphered. One that does not
        // unseal is never memoised, so it fails again on every probe that
        // crosses it.
        let mut cipher = None;
        self.search(entry.n(), entry.is_leaf(), key, |slot| {
            entry.triplet(slot, |ct| self.unseal_triplet(&mut cipher, entry.id(), ct))
        })
    }

    fn complete(&self, entry: &CachedNode) -> Result<(), CodecError> {
        // A whole-node decode decrypts every keyed triplet (one
        // key_decrypt each) plus the keyless leftmost-pointer seal on
        // internal nodes; physically, whatever this entry has not
        // deciphered yet. The keys come out of the triplets.
        if !entry.is_leaf() {
            self.counters.bump(|c| &c.ptr_decrypts);
        }
        self.counters.bump_by(|c| &c.key_decrypts, entry.n() as u64);
        let mut cipher = None;
        let unseal = |ct: &[u8]| self.unseal_triplet(&mut cipher, entry.id(), ct);
        entry.fill_keys(unseal, |_, t| Ok(t.key)).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_btree_core::never_sealed;
    use sks_crypto::pagekey::PageCipherKind;

    fn codec() -> (BayerMetzgerCodec, OpCounters) {
        let counters = OpCounters::new();
        (
            BayerMetzgerCodec::new(
                PageKeyScheme::new(0xDEAD_BEEF_F00D_CAFE, PageCipherKind::Des),
                counters.clone(),
            ),
            counters,
        )
    }

    fn sample_internal() -> Node {
        Node {
            id: BlockId(7),
            keys: vec![10, 20, 30, 40, 50],
            data_ptrs: (1..=5).map(RecordPtr).collect(),
            children: (11..=16).map(BlockId).collect(),
        }
    }

    #[test]
    fn roundtrip() {
        let (codec, _) = codec();
        let node = sample_internal();
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        assert_eq!(codec.decode(BlockId(7), &page).unwrap(), node);
    }

    #[test]
    fn keys_are_not_visible_on_disk() {
        let (codec, _) = codec();
        let node = sample_internal();
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        // No plaintext key value may appear anywhere in the page body.
        for &k in &node.keys {
            let needle = k.to_be_bytes();
            let hits = page.windows(8).filter(|w| *w == needle).count();
            assert_eq!(hits, 0, "plaintext key {k} leaked to the page");
        }
    }

    #[test]
    fn probe_costs_log2_decryptions() {
        let (codec, counters) = codec();
        let node = sample_internal(); // n = 5
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        counters.reset();
        let p = codec.probe(BlockId(7), &page, 30).unwrap();
        assert_eq!(
            p,
            Probe::Found {
                data_ptr: RecordPtr(3)
            }
        );
        let s = counters.snapshot();
        // Midpoint found immediately: exactly 1 decryption here; worst case
        // checked below.
        assert!(s.key_decrypts >= 1);

        counters.reset();
        let p = codec.probe(BlockId(7), &page, 15).unwrap();
        assert_eq!(p, Probe::Descend { child: BlockId(12) });
        let s = counters.snapshot();
        assert!(
            s.key_decrypts as f64 <= (5f64).log2().ceil() + 1.0,
            "binary search-and-decrypt must stay ~log2(n): {}",
            s.key_decrypts
        );
    }

    #[test]
    fn memoisation_avoids_double_decrypting_a_triplet() {
        let (codec, counters) = codec();
        let node = sample_internal();
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        counters.reset();
        // Descending between keys 20 and 30 needs triplet 1 both as a probe
        // and as the pointer source; it must be decrypted once.
        let p = codec.probe(BlockId(7), &page, 25).unwrap();
        assert_eq!(p, Probe::Descend { child: BlockId(13) });
        let s = counters.snapshot();
        assert!(
            s.key_decrypts <= 3,
            "memoised probe decrypted {}",
            s.key_decrypts
        );
    }

    #[test]
    fn identical_triplets_different_blocks_different_cryptograms() {
        // The page-key property of §2.
        let (codec, _) = codec();
        let mut a = Node::leaf(BlockId(1));
        a.keys = vec![42];
        a.data_ptrs = vec![RecordPtr(7)];
        let mut b = a.clone();
        b.id = BlockId(2);
        let mut pa = vec![0u8; 128];
        let mut pb = vec![0u8; 128];
        codec.encode(&a, &mut pa).unwrap();
        codec.encode(&b, &mut pb).unwrap();
        assert_ne!(
            pa[NODE_HEADER_LEN..NODE_HEADER_LEN + SEALED_TRIPLET_LEN],
            pb[NODE_HEADER_LEN..NODE_HEADER_LEN + SEALED_TRIPLET_LEN],
            "same triplet in different blocks must differ on disk"
        );
    }

    #[test]
    fn encode_counts_key_encryptions() {
        // §3: every triplet moved = one key re-encipherment. The counter is
        // how experiment E4 measures reorganisation overhead.
        let (codec, counters) = codec();
        let node = sample_internal();
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.key_encrypts, 5, "one per triplet");
        assert_eq!(s.ptr_encrypts, 1, "the lone leftmost pointer");
    }

    #[test]
    fn wrong_page_key_detected() {
        let (codec, _) = codec();
        let other = BayerMetzgerCodec::new(
            PageKeyScheme::new(0x1111, PageCipherKind::Des),
            OpCounters::new(),
        );
        let node = sample_internal();
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        assert!(other.decode(BlockId(7), &page).is_err());
    }

    #[test]
    fn relocated_page_detected() {
        let (codec, _) = codec();
        let node = sample_internal();
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        page[4..8].copy_from_slice(&9u32.to_be_bytes());
        assert!(codec.decode(BlockId(9), &page).is_err());
    }

    /// Slots of `entry` that hold a deciphered triplet.
    fn memoised(entry: &CachedNode) -> usize {
        (0..entry.slots())
            .filter(|&slot| entry.triplet(slot, never_sealed).is_ok())
            .count()
    }

    #[test]
    fn a_probe_memoises_exactly_the_triplets_its_search_crosses() {
        let (codec, counters) = codec();
        let node = sample_internal();
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        let entry = codec.decode_for_cache(BlockId(7), &page).unwrap();
        assert_eq!(memoised(&entry), 0, "caching a node deciphers nothing");

        // (logical key + pointer decipherments, slots newly memoised).
        let probe = |key: u64| {
            let (before, held) = (counters.snapshot(), memoised(&entry));
            codec.probe_cached(&entry, key).unwrap();
            let d = counters.snapshot().delta(&before);
            (d.key_decrypts + d.ptr_decrypts, memoised(&entry) - held)
        };
        // Below every key: ⌈log₂ n⌉ triplets, then the leftmost pointer.
        let (logical, physical) = probe(5);
        assert_eq!((logical, physical), (4, 4));
        assert_eq!(probe(5), (logical, 0), "the same key deciphers nothing");
        // Another key pays only for the steps no earlier probe crossed.
        let (logical, physical) = probe(45);
        assert_eq!((logical, physical), (3, 2), "the root step is shared");

        assert_eq!(codec.decode_cached(&entry).unwrap(), node);
        assert_eq!(memoised(&entry), entry.slots());
    }

    #[test]
    fn a_corrupt_triplet_fails_where_the_raw_probe_does() {
        let (codec, _) = codec();
        let node = sample_internal();
        let mut page = vec![0u8; 512];
        codec.encode(&node, &mut page).unwrap();
        // Corrupt the last triplet (key 50) in the cipher block that holds
        // its binding check: the fill still succeeds, and only a probe
        // whose binary search crosses it fails — as raw.
        page[BayerMetzgerCodec::triplet_offset(false, 4) + 20] ^= 1;
        let entry = codec.decode_for_cache(BlockId(7), &page).unwrap();
        for key in [5, 10, 25, 30, 45, 50, 55] {
            let raw = codec.raw_probe(BlockId(7), &page, key);
            let cached = codec.probe_cached(&entry, key);
            assert_eq!(format!("{raw:?}"), format!("{cached:?}"), "key {key}");
        }
        assert!(codec.probe_cached(&entry, 55).is_err());
        assert!(codec.probe_cached(&entry, 5).is_ok());
        assert!(entry.triplet(5, never_sealed).is_err(), "never memoised");
    }

    /// §3's baseline as physical work: through the node cache a search
    /// deciphers the triplets its binary searches cross, each at most once
    /// while its node stays cached, and only completing a node deciphers
    /// the rest.
    #[test]
    fn cached_gets_physically_decipher_only_the_triplets_searches_cross() {
        use sks_btree_core::BTree;
        use sks_storage::{MemDisk, ObsLevel, Stage};

        let counters = OpCounters::with_observability(ObsLevel::Histograms);
        let codec = BayerMetzgerCodec::new(
            PageKeyScheme::new(0xDEAD_BEEF_F00D_CAFE, PageCipherKind::Des),
            counters.clone(),
        );
        let items: Vec<(u64, RecordPtr)> = (1..=500).map(|k| (2 * k, RecordPtr(k))).collect();
        let disk = MemDisk::with_counters(256, counters.clone());
        let mut tree = BTree::bulk_load(disk, codec, &items).unwrap();
        tree.enable_node_cache(1024);
        assert_eq!(tree.height(), 3);

        // Every triplet deciphered so far: a timed entry records one
        // `NodeUnseal` sample per slot it memoises, a miss one per fill.
        let deciphered = || {
            let stages = counters.obs().stages_snapshot();
            stages[Stage::NodeUnseal as usize].1.count - counters.snapshot().node_cache_misses
        };
        // (triplets deciphered, logical counter delta) of one get.
        let get = |key: u64| {
            let (held, before) = (deciphered(), counters.snapshot());
            assert!(tree.get(key).unwrap().is_some());
            (deciphered() - held, counters.snapshot().delta(&before))
        };
        // Cold entries: physical = logical, ~log₂ n per node visited.
        let (physical, logical) = get(2 * 137);
        assert_eq!(physical, logical.key_decrypts + logical.ptr_decrypts);
        assert!(physical > logical.node_visits);
        // The same key again: the same logical cost, no physical work.
        let (physical, again) = get(2 * 137);
        assert_eq!(physical, 0);
        assert_eq!(
            (again.key_decrypts, again.ptr_decrypts),
            (logical.key_decrypts, logical.ptr_decrypts)
        );

        // Two whole-tree walks complete every entry, once: one cryptogram
        // per key, plus each internal node's leftmost.
        tree.validate().unwrap();
        let complete = deciphered();
        tree.validate().unwrap();
        assert_eq!(deciphered(), complete);
        let (mut cryptograms, mut todo) = (items.len() as u64, vec![tree.root_id()]);
        while let Some(id) = todo.pop() {
            let node = tree.inspect_node(id).unwrap();
            cryptograms += u64::from(!node.is_leaf());
            todo.extend(node.children.iter().copied());
        }
        assert_eq!(deciphered(), cryptograms);
    }

    /// The write side: through the node cache a write physically seals
    /// only the triplets it changed. This codec has no sealer seam to
    /// count at, so seals are the logical encipherments charged minus the
    /// cryptograms reported copied.
    #[test]
    fn cached_writes_physically_seal_only_the_triplets_they_change() {
        crate::codec::tests::check_writes_seal_only_what_they_change(&|| {
            let (codec, counters) = codec();
            let sealed = {
                let counters = counters.clone();
                move || {
                    let s = counters.snapshot();
                    s.key_encrypts + s.ptr_encrypts - s.triplet_seals_reused
                }
            };
            (codec, counters, Box::new(sealed))
        });
    }

    #[test]
    fn max_keys_consistent_with_encode() {
        let (codec, _) = codec();
        for page_size in [128usize, 256, 512] {
            let m = codec.max_keys(page_size);
            let node = Node {
                id: BlockId(1),
                keys: (0..m as u64).collect(),
                data_ptrs: (0..m as u64).map(RecordPtr).collect(),
                children: (0..=m as u32).map(BlockId).collect(),
            };
            let mut page = vec![0u8; page_size];
            codec.encode(&node, &mut page).unwrap();
        }
    }
}
