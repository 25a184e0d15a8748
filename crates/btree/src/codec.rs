//! The node-codec boundary: how a plaintext [`Node`] becomes a disk page.
//!
//! This is the paper's entire design space in one trait. §2/§3 (Bayer &
//! Metzger) encipher everything; §4 disguises keys and enciphers only
//! pointers; a plaintext codec is the no-security baseline. The codec owns
//! the page layout, all cryptography, *and the in-node search procedure* —
//! because the number of decryptions a search costs (`log₂n` for
//! search-and-decrypt vs. one for substitution) depends on how the probe
//! walks the ciphertext. Every node visit goes through the node cache, so
//! there is one read path: a page is wrapped as stored, with no counter
//! moved ([`NodeCodec::decode_for_cache`]), and the probe or completion of
//! that entry charges what walking the raw page would
//! ([`NodeCodec::probe_cached`], [`NodeCodec::complete`]).

use sks_storage::{BlockId, OpCounters, PageOverflow, PageReader, PageWriter};

use crate::cache::{never_sealed, CachedNode};
use crate::node::{Node, RecordPtr, Triplet};

/// Errors from node encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Node does not fit the page (too many triplets for this codec).
    Overflow(PageOverflow),
    /// Page bytes are structurally invalid.
    Corrupt(String),
    /// Decryption produced data inconsistent with the block binding `b`
    /// (wrong key, moved block, or tampering).
    BindingMismatch { expected: u32, got: u32 },
    /// A key is outside the disguise's domain (e.g. `k ≥ v`).
    KeyDomain { key: u64, limit: u64 },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Overflow(o) => write!(f, "node too large for page: {o}"),
            CodecError::Corrupt(msg) => write!(f, "corrupt node page: {msg}"),
            CodecError::BindingMismatch { expected, got } => write!(
                f,
                "block binding mismatch: page claims {got}, expected {expected}"
            ),
            CodecError::KeyDomain { key, limit } => {
                write!(f, "key {key} outside disguise domain (limit {limit})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<PageOverflow> for CodecError {
    fn from(o: PageOverflow) -> Self {
        CodecError::Overflow(o)
    }
}

/// Outcome of probing a node page for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The key is present with this data pointer.
    Found { data_ptr: RecordPtr },
    /// Descend into this child.
    Descend { child: BlockId },
    /// Leaf reached and the key is absent.
    Missing,
}

impl Probe {
    /// Turns an in-node search outcome — `Ok(i)`: triplet `i` holds the
    /// key; `Err(c)`: it belongs under child `c` — into the probe's answer,
    /// reading (deciphering) only the one slot that answer lives in. Slots
    /// number the page's cryptograms as [`CachedNode`] does; a leaf that
    /// lacks the key reads none.
    pub fn resolve(
        found: Result<usize, usize>,
        is_leaf: bool,
        slot: impl FnOnce(usize) -> Result<Triplet, CodecError>,
    ) -> Result<Probe, CodecError> {
        match found {
            Ok(i) => Ok(Probe::Found {
                data_ptr: RecordPtr(slot(i + usize::from(!is_leaf))?.data_ptr),
            }),
            Err(_) if is_leaf => Ok(Probe::Missing),
            Err(c) => Ok(Probe::Descend {
                child: BlockId(slot(c)?.child),
            }),
        }
    }
}

/// Encodes nodes to pages, wraps pages in cache entries, and searches and
/// decodes those entries.
pub trait NodeCodec {
    /// Serialises (and enciphers/disguises) `node` into `page`. A write
    /// that replaces a page whose image `prev` the caller still holds gets
    /// the same page bytes and the same counters charged as one with no
    /// image, but a scheme that seals triplet by triplet copies from `prev`
    /// the stored cryptogram of every triplet the write leaves unchanged
    /// ([`CachedNode::stored_cryptogram`], matched in key order) and seals
    /// only the rest. That is sound because such a cryptogram is a
    /// deterministic function of the block number and the triplet's
    /// content, and fail-closed: a slot `prev` never deciphered, one whose
    /// unseal failed, and every slot of an image of another block are
    /// sealed afresh. A scheme that disguises keys copies the stored field
    /// of every key `prev` has memoised ([`CachedNode::stored_key`]) the
    /// same way. Schemes with nothing to copy ignore `prev`.
    ///
    /// Returns the cache entry of the page as written, the image the tree
    /// puts back in place of the one the write replaced. It equals what a
    /// fill of `page` from the medium becomes once fully deciphered, but it
    /// is built from what the encoder laid down (key fields, cryptograms)
    /// and the plaintext it laid them down from, so it is born whole
    /// ([`CachedNode::written`]; [`CachedNode::complete`] for a whole-page
    /// or plaintext scheme) at no counter, no cryptography and no re-parse
    /// of the page. A failed write returns no image.
    fn encode_over(
        &self,
        node: &Node,
        prev: Option<&CachedNode>,
        page: &mut [u8],
    ) -> Result<CachedNode, CodecError>;

    /// Wraps a page in a cacheable entry *without bumping any operation
    /// counters*: cache maintenance is physical work outside the paper's
    /// cost model, which charges only the probes themselves. A scheme whose
    /// triplets are sealed one by one returns the node *as stored* —
    /// header, raw key fields and cryptograms copied out, no cryptography —
    /// and leaves the deciphering to the two hooks below; a scheme with
    /// nothing to be lazy about (whole-page, plaintext) returns an entry
    /// born complete. A page whose header does not parse, or whose entry
    /// count outruns the page, is an error and is never cached.
    fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError>;

    /// Searches a cached node for `key`, bumping *exactly* the counters a
    /// search of the raw page costs — the paper's per-node decryption
    /// counts — and returning its [`Probe`], error cases included.
    /// Physically it deciphers only the slots the search reads that the
    /// entry has not memoised yet ([`CachedNode::triplet`]): under key
    /// substitution the one pointer followed, once per entry lifetime.
    fn probe_cached(&self, entry: &CachedNode, key: u64) -> Result<Probe, CodecError>;

    /// Completes a cached entry, bumping *exactly* the counters a
    /// whole-page decode costs — so range scans and update-path descents
    /// report the scheme's logical cost — and leaving its plaintext keys
    /// memoised ([`CachedNode::keys`]). Physically it deciphers only what
    /// the entry still lacks and recovers the keys once
    /// ([`CachedNode::fill_keys`]); on an entry already complete it only
    /// charges, computing nothing, where the scheme can charge by count.
    fn complete(&self, entry: &CachedNode) -> Result<(), CodecError>;

    /// Maximum number of triplets that fit a page of `page_size` bytes.
    fn max_keys(&self, page_size: usize) -> usize;

    /// Human-readable scheme name for reports.
    fn name(&self) -> &'static str;

    /// [`NodeCodec::encode_over`] with no previous image: every triplet
    /// sealed from scratch.
    fn encode(&self, node: &Node, page: &mut [u8]) -> Result<CachedNode, CodecError> {
        self.encode_over(node, None, page)
    }

    /// The plaintext node of a cached entry: [`NodeCodec::complete`], then
    /// the node built from the entry's memos ([`CachedNode::to_node`]).
    fn decode_cached(&self, entry: &CachedNode) -> Result<Node, CodecError> {
        self.complete(entry)?;
        entry.to_node()
    }

    /// The plaintext node a page holds: a fresh entry, decoded.
    fn decode(&self, id: BlockId, page: &[u8]) -> Result<Node, CodecError> {
        self.decode_cached(&self.decode_for_cache(id, page)?)
    }

    /// One search of a page for `key`: a fresh entry, probed.
    fn probe(&self, id: BlockId, page: &[u8], key: u64) -> Result<Probe, CodecError> {
        self.probe_cached(&self.decode_for_cache(id, page)?, key)
    }
}

/// Header layout shared by the provided codecs:
/// `[u8 tag, u8 is_leaf, u16 n, u32 block_id]` (8 bytes).
pub const NODE_HEADER_LEN: usize = 8;

/// Writes the common header. `tag` identifies the codec that produced the
/// page (decoding with the wrong codec fails fast).
pub fn write_header(w: &mut PageWriter<'_>, tag: u8, node: &Node) -> Result<(), CodecError> {
    w.put_u8(tag)?;
    w.put_u8(node.is_leaf() as u8)?;
    w.put_u16(node.n() as u16)?;
    w.put_u32(node.id.0)?;
    Ok(())
}

/// Reads and validates the common header; returns `(is_leaf, n)`.
pub fn read_header(
    r: &mut PageReader<'_>,
    tag: u8,
    id: BlockId,
) -> Result<(bool, usize), CodecError> {
    let got_tag = r.get_u8()?;
    if got_tag != tag {
        return Err(CodecError::Corrupt(format!(
            "codec tag mismatch: page has {got_tag:#x}, codec expects {tag:#x}"
        )));
    }
    let is_leaf = match r.get_u8()? {
        0 => false,
        1 => true,
        other => return Err(CodecError::Corrupt(format!("bad leaf flag {other}"))),
    };
    let n = r.get_u16()? as usize;
    let got_id = r.get_u32()?;
    if got_id != id.0 {
        return Err(CodecError::BindingMismatch {
            expected: id.0,
            got: got_id,
        });
    }
    // The entry count is medium-controlled. No codec packs an entry into
    // less than one byte, so a count beyond the page's remaining capacity
    // is corrupt — reject it here, before any decoder sizes an allocation
    // or walks fixed-stride offsets from it.
    if n > r.remaining() {
        return Err(CodecError::Corrupt(format!(
            "entry count {n} exceeds page capacity ({} bytes)",
            r.remaining()
        )));
    }
    Ok((is_leaf, n))
}

/// Lays `node` out in the clear under codec `tag`: the header, a key and
/// a data pointer per triplet, then the children. The plaintext codec's
/// page, and the one the whole-page scheme enciphers.
pub fn write_plain(tag: u8, node: &Node, page: &mut [u8]) -> Result<(), CodecError> {
    node.check_shape().map_err(CodecError::Corrupt)?;
    let mut w = PageWriter::new(page);
    write_header(&mut w, tag, node)?;
    for (&k, &a) in node.keys.iter().zip(&node.data_ptrs) {
        w.put_u64(k)?;
        w.put_u64(a.0)?;
    }
    for &c in &node.children {
        w.put_u32(c.0)?;
    }
    w.pad_remaining();
    Ok(())
}

/// The node [`write_plain`] laid out on the page of block `id`.
pub fn read_plain(tag: u8, id: BlockId, page: &[u8]) -> Result<Node, CodecError> {
    let mut r = PageReader::new(page);
    let (is_leaf, n) = read_header(&mut r, tag, id)?;
    let mut node = Node {
        id,
        keys: Vec::with_capacity(n),
        data_ptrs: Vec::with_capacity(n),
        children: Vec::with_capacity(if is_leaf { 0 } else { n + 1 }),
    };
    for _ in 0..n {
        node.keys.push(r.get_u64()?);
        node.data_ptrs.push(RecordPtr(r.get_u64()?));
    }
    if !is_leaf {
        for _ in 0..=n {
            node.children.push(BlockId(r.get_u32()?));
        }
    }
    node.check_shape().map_err(CodecError::Corrupt)?;
    Ok(node)
}

/// The plaintext codec: no cryptography at all. This is the "no security"
/// baseline every enciphered scheme is compared against, and the codec used
/// for trees *behind* a high-level security filter (§4.3), where protection
/// happens above the DBMS.
#[derive(Debug, Clone)]
pub struct PlainCodec {
    counters: OpCounters,
}

const PLAIN_TAG: u8 = 0x00;

impl PlainCodec {
    pub fn new(counters: OpCounters) -> Self {
        PlainCodec { counters }
    }

    /// The binary search `probe_cached` runs over an entry's keys (and
    /// the raw-page oracle over the page's), compare for compare: `Ok(i)`
    /// when triplet `i` holds `key`, else `Err(c)`, the child slot it
    /// belongs under.
    fn search(
        &self,
        n: usize,
        key: u64,
        key_at: impl Fn(usize) -> Result<u64, CodecError>,
    ) -> Result<Result<usize, usize>, CodecError> {
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.counters.bump(|c| &c.key_compares);
            match key_at(mid)?.cmp(&key) {
                std::cmp::Ordering::Equal => return Ok(Ok(mid)),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(Err(lo))
    }

    /// The search straight off the raw page, reading only the fields it
    /// compares and follows: the oracle [`NodeCodec::probe_cached`] is
    /// checked against.
    #[cfg(test)]
    fn raw_probe(&self, id: BlockId, page: &[u8], key: u64) -> Result<Probe, CodecError> {
        let mut r = PageReader::new(page);
        let (is_leaf, n) = read_header(&mut r, PLAIN_TAG, id)?;
        let at = |offset: usize| -> Result<PageReader<'_>, CodecError> {
            let mut rr = PageReader::new(page);
            rr.seek(offset)?;
            Ok(rr)
        };
        let found = self.search(n, key, |i| Ok(at(NODE_HEADER_LEN + i * 16)?.get_u64()?))?;
        match found {
            Ok(i) => Ok(Probe::Found {
                data_ptr: RecordPtr(at(NODE_HEADER_LEN + i * 16 + 8)?.get_u64()?),
            }),
            Err(_) if is_leaf => Ok(Probe::Missing),
            Err(c) => Ok(Probe::Descend {
                child: BlockId(at(NODE_HEADER_LEN + n * 16 + c * 4)?.get_u32()?),
            }),
        }
    }
}

impl NodeCodec for PlainCodec {
    fn encode_over(
        &self,
        node: &Node,
        _prev: Option<&CachedNode>,
        page: &mut [u8],
    ) -> Result<CachedNode, CodecError> {
        write_plain(PLAIN_TAG, node, page)?;
        Ok(CachedNode::complete(node, page.len()))
    }

    fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError> {
        // Nothing to be lazy about, and plain decoding touches no
        // counters: the entry is born complete.
        Ok(CachedNode::complete(
            &read_plain(PLAIN_TAG, id, page)?,
            page.len(),
        ))
    }

    fn probe_cached(&self, entry: &CachedNode, key: u64) -> Result<Probe, CodecError> {
        // The entry was born complete: its keys are the page's.
        let keys = entry.keys().unwrap_or_default();
        let found = self.search(entry.n(), key, |i| Ok(keys.get(i).unwrap_or_default()))?;
        Probe::resolve(found, entry.is_leaf(), |slot| {
            entry.triplet(slot, never_sealed)
        })
    }

    fn complete(&self, entry: &CachedNode) -> Result<(), CodecError> {
        // A plaintext decode touches no counters, and the entry was born
        // complete.
        entry.fill_keys(never_sealed, |_, t| Ok(t.key)).map(drop)
    }

    fn max_keys(&self, page_size: usize) -> usize {
        // header + n*(8 key + 8 data ptr) + (n+1)*4 child ptr <= page
        if page_size <= NODE_HEADER_LEN + 4 {
            return 0;
        }
        (page_size - NODE_HEADER_LEN - 4) / 20
    }

    fn name(&self) -> &'static str {
        "plaintext"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u32) -> Node {
        Node {
            id: BlockId(id),
            keys: vec![10, 20, 30],
            data_ptrs: vec![RecordPtr(100), RecordPtr(200), RecordPtr(300)],
            children: vec![BlockId(1), BlockId(2), BlockId(3), BlockId(4)],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert_eq!(codec.decode(BlockId(9), &page).unwrap(), node);
    }

    #[test]
    fn leaf_roundtrip() {
        let codec = PlainCodec::new(OpCounters::new());
        let mut leaf = Node::leaf(BlockId(3));
        leaf.keys = vec![5];
        leaf.data_ptrs = vec![RecordPtr(55)];
        let mut page = vec![0u8; 64];
        codec.encode(&leaf, &mut page).unwrap();
        let back = codec.decode(BlockId(3), &page).unwrap();
        assert!(back.is_leaf());
        assert_eq!(back, leaf);
    }

    #[test]
    fn binding_mismatch_detected() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert!(matches!(
            codec.decode(BlockId(10), &page),
            Err(CodecError::BindingMismatch {
                expected: 10,
                got: 9
            })
        ));
    }

    #[test]
    fn tag_mismatch_detected() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        page[0] = 0x77;
        assert!(matches!(
            codec.decode(BlockId(9), &page),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn probe_found_descend_missing() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert_eq!(
            codec.probe(BlockId(9), &page, 20).unwrap(),
            Probe::Found {
                data_ptr: RecordPtr(200)
            }
        );
        assert_eq!(
            codec.probe(BlockId(9), &page, 15).unwrap(),
            Probe::Descend { child: BlockId(2) }
        );
        assert_eq!(
            codec.probe(BlockId(9), &page, 5).unwrap(),
            Probe::Descend { child: BlockId(1) }
        );
        assert_eq!(
            codec.probe(BlockId(9), &page, 99).unwrap(),
            Probe::Descend { child: BlockId(4) }
        );

        let mut leaf = Node::leaf(BlockId(2));
        leaf.keys = vec![7];
        leaf.data_ptrs = vec![RecordPtr(70)];
        let mut lp = vec![0u8; 256];
        codec.encode(&leaf, &mut lp).unwrap();
        assert_eq!(codec.probe(BlockId(2), &lp, 8).unwrap(), Probe::Missing);
    }

    #[test]
    fn probe_counts_comparisons_not_decryptions() {
        let counters = OpCounters::new();
        let codec = PlainCodec::new(counters.clone());
        let node = sample(9);
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        let _ = codec.probe(BlockId(9), &page, 20).unwrap();
        let s = counters.snapshot();
        assert!(s.key_compares >= 1);
        assert_eq!(s.total_decrypts(), 0);
    }

    /// The cached search answers and charges what the raw page's does:
    /// for seeded nodes, and seeded corruptions of their pages that still
    /// fill an entry, every probe of the entry equals the raw-page
    /// oracle's, counters included.
    #[test]
    fn cached_probes_replay_the_raw_page_search_exactly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let counters = OpCounters::new();
        let codec = PlainCodec::new(counters.clone());
        let charged = |probe: &dyn Fn() -> Result<Probe, CodecError>| {
            let before = counters.snapshot();
            let out = probe();
            (out, counters.snapshot().delta(&before))
        };
        let mut rng = StdRng::seed_from_u64(37);
        let (mut compared, mut corrupt) = (0, 0);
        for round in 0..400u32 {
            let keys: Vec<u64> = (1..=12).filter(|_| rng.gen_bool(0.6)).collect();
            let node = Node {
                id: BlockId(round),
                data_ptrs: keys.iter().map(|k| RecordPtr(k * 100 + 7)).collect(),
                children: match round % 2 {
                    0 => Vec::new(),
                    _ => (0..=keys.len() as u32).map(|c| BlockId(50 + c)).collect(),
                },
                keys: keys.iter().map(|k| 10 * k).collect(),
            };
            let mut page = vec![0u8; 256];
            codec.encode(&node, &mut page).unwrap();
            if round % 4 >= 2 {
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..page.len());
                    page[at] ^= rng.gen_range(1..256u16) as u8;
                }
            }
            let Ok(entry) = codec.decode_for_cache(node.id, &page) else {
                continue;
            };
            for key in (0..135).step_by(5) {
                let cached = charged(&|| codec.probe_cached(&entry, key));
                let raw = charged(&|| codec.raw_probe(node.id, &page, key));
                assert_eq!(cached, raw, "round {round}, key {key}");
            }
            compared += 1;
            corrupt += usize::from(round % 4 >= 2);
        }
        assert!(compared > 250 && corrupt > 50, "{compared} / {corrupt}");
    }

    #[test]
    fn max_keys_consistent_with_encode() {
        let codec = PlainCodec::new(OpCounters::new());
        for page_size in [64usize, 128, 256, 512, 4096] {
            let m = codec.max_keys(page_size);
            // A node with exactly m keys (internal, worst case) must fit.
            let node = Node {
                id: BlockId(1),
                keys: (0..m as u64).collect(),
                data_ptrs: (0..m as u64).map(RecordPtr).collect(),
                children: (0..=m as u32).map(BlockId).collect(),
            };
            let mut page = vec![0u8; page_size];
            codec.encode(&node, &mut page).unwrap_or_else(|e| {
                panic!("m={m} should fit page {page_size}: {e}");
            });
            // m+1 must not fit.
            let node_big = Node {
                id: BlockId(1),
                keys: (0..=m as u64).collect(),
                data_ptrs: (0..=m as u64).map(RecordPtr).collect(),
                children: (0..=m as u32 + 1).map(BlockId).collect(),
            };
            assert!(codec.encode(&node_big, &mut page).is_err());
        }
    }

    #[test]
    fn overflow_reported_for_tiny_page() {
        let codec = PlainCodec::new(OpCounters::new());
        let node = sample(9);
        let mut page = vec![0u8; 32];
        assert!(matches!(
            codec.encode(&node, &mut page),
            Err(CodecError::Overflow(_))
        ));
    }
}
