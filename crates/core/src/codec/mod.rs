//! Node-block encipherment codecs — §3 and §5 of the paper.
//!
//! Four on-disk formats, all implementing
//! [`NodeCodec`]:
//!
//! * [`SubstitutionCodec`] — **the paper's format**: per triplet,
//!   `f(k), E(b ‖ a ‖ p)` — disguised key in plaintext, pointers sealed with
//!   the block number bound inside. One pointer decryption per node visit.
//! * [`BayerMetzgerCodec`] — the 1976 baseline refined with §3's "binary
//!   search-and-decrypt": each whole triplet `(k, a, p)` is one cryptogram
//!   under the page key; search decrypts `~log₂ n` triplets per node.
//! * [`FullPageCodec`] — the plain Bayer–Metzger page scheme: the entire
//!   node block is one CBC cryptogram under the page key; any access
//!   decrypts the whole page.
//! * `PlainCodec` (re-exported from `sks-btree-core`) — no cryptography.
//!
//! Pointer cryptograms go through a pluggable [`TripletSealer`] (DES, Speck
//! or secret-parameter RSA — §5 explicitly leaves the cipher open), which is
//! how experiment E7 swaps ciphers and E3 measures RSA-sized fields.

mod bayer_metzger;
mod fullpage;
mod substitution;

pub use bayer_metzger::BayerMetzgerCodec;
pub use fullpage::FullPageCodec;
pub use substitution::SubstitutionCodec;

use sks_btree_core::{CachedNode, CodecError, Node, NodeCodec, Probe};
use sks_crypto::cipher::BlockCipher64;
use sks_crypto::des::Des;
use sks_crypto::rsa::RsaKey;
use sks_crypto::speck::Speck64;
use sks_crypto::BigUint;
use sks_storage::BlockId;

/// Fixed pointer-seal payload: `b(4) ‖ a(8) ‖ p(4)` = 16 bytes.
pub const SEAL_PAYLOAD_LEN: usize = 16;

/// Seals/unseals 16-byte triplet-pointer payloads into fixed-width
/// cryptograms.
pub trait TripletSealer: Send + Sync {
    /// Cryptogram width in bytes.
    fn sealed_len(&self) -> usize;

    fn seal(&self, payload: &[u8; SEAL_PAYLOAD_LEN]) -> Vec<u8>;

    fn unseal(&self, ct: &[u8]) -> Result<[u8; SEAL_PAYLOAD_LEN], CodecError>;

    fn name(&self) -> &'static str;
}

/// Deterministic two-block CBC (zero IV) under a 64-bit block cipher. The
/// block number inside the payload provides cross-block cryptogram
/// uniqueness, mirroring the paper's `E(b ‖ a ‖ p)`.
#[derive(Clone)]
pub struct BlockCipherSealer<C> {
    cipher: C,
    name: &'static str,
}

impl BlockCipherSealer<Des> {
    pub fn des(key: u64) -> Self {
        BlockCipherSealer {
            cipher: Des::new(key),
            name: "des",
        }
    }
}

impl BlockCipherSealer<Speck64> {
    pub fn speck(key: u128) -> Self {
        BlockCipherSealer {
            cipher: Speck64::from_u128(key),
            name: "speck",
        }
    }
}

impl<C: BlockCipher64 + Send + Sync> TripletSealer for BlockCipherSealer<C> {
    fn sealed_len(&self) -> usize {
        SEAL_PAYLOAD_LEN
    }

    fn seal(&self, payload: &[u8; SEAL_PAYLOAD_LEN]) -> Vec<u8> {
        let b0 = u64::from_be_bytes(payload[0..8].try_into().expect("fixed width"));
        let b1 = u64::from_be_bytes(payload[8..16].try_into().expect("fixed width"));
        let c0 = self.cipher.encrypt_block(b0);
        let c1 = self.cipher.encrypt_block(b1 ^ c0);
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&c0.to_be_bytes());
        out.extend_from_slice(&c1.to_be_bytes());
        out
    }

    fn unseal(&self, ct: &[u8]) -> Result<[u8; SEAL_PAYLOAD_LEN], CodecError> {
        if ct.len() != 16 {
            return Err(CodecError::Corrupt(format!(
                "{} seal must be 16 bytes, got {}",
                self.name,
                ct.len()
            )));
        }
        let c0 = u64::from_be_bytes(ct[0..8].try_into().expect("fixed width"));
        let c1 = u64::from_be_bytes(ct[8..16].try_into().expect("fixed width"));
        let b0 = self.cipher.decrypt_block(c0);
        let b1 = self.cipher.decrypt_block(c1) ^ c0;
        let mut out = [0u8; SEAL_PAYLOAD_LEN];
        out[0..8].copy_from_slice(&b0.to_be_bytes());
        out[8..16].copy_from_slice(&b1.to_be_bytes());
        Ok(out)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Secret-parameter RSA sealer (§5). Cryptograms are modulus-width, which is
/// exactly the node-layout cost experiment E3 measures.
pub struct RsaSealer {
    key: RsaKey,
}

impl RsaSealer {
    /// Requires a modulus of at least 160 bits so the 16-byte payload plus
    /// framing fits below `n`.
    pub fn new(key: RsaKey) -> Result<Self, CodecError> {
        if key.max_plaintext_len() < SEAL_PAYLOAD_LEN + 1 {
            return Err(CodecError::Corrupt(format!(
                "RSA modulus too small: {} plaintext bytes available, need {}",
                key.max_plaintext_len(),
                SEAL_PAYLOAD_LEN + 1
            )));
        }
        Ok(RsaSealer { key })
    }
}

impl TripletSealer for RsaSealer {
    fn sealed_len(&self) -> usize {
        self.key.ciphertext_len()
    }

    fn seal(&self, payload: &[u8; SEAL_PAYLOAD_LEN]) -> Vec<u8> {
        self.key
            .encrypt_bytes(payload)
            .expect("payload verified to fit at construction")
    }

    fn unseal(&self, ct: &[u8]) -> Result<[u8; SEAL_PAYLOAD_LEN], CodecError> {
        if ct.len() != self.sealed_len() {
            return Err(CodecError::Corrupt(format!(
                "rsa seal must be {} bytes, got {}",
                self.sealed_len(),
                ct.len()
            )));
        }
        let frame = self
            .key
            .decrypt_value(&BigUint::from_bytes_be(ct))
            .map_err(|e| CodecError::Corrupt(format!("rsa unseal: {e}")))?
            .to_bytes_be();
        // Only the frame `seal` builds is accepted — the length byte, then
        // the payload — so unseal is seal's exact inverse: a cryptogram
        // that unseals is the one its payload seals to, which is what lets
        // a node write copy it instead of sealing the payload again.
        match frame.split_first() {
            Some((&len, payload)) if usize::from(len) == SEAL_PAYLOAD_LEN => {
                payload.try_into().ok()
            }
            _ => None,
        }
        .ok_or_else(|| CodecError::Corrupt("rsa unseal produced wrong payload width".into()))
    }

    fn name(&self) -> &'static str {
        "rsa"
    }
}

/// Packs the paper's pointer payload `b ‖ a ‖ p`.
pub(crate) fn pack_payload(block: u32, a: u64, p: u32) -> [u8; SEAL_PAYLOAD_LEN] {
    let mut out = [0u8; SEAL_PAYLOAD_LEN];
    out[0..4].copy_from_slice(&block.to_be_bytes());
    out[4..12].copy_from_slice(&a.to_be_bytes());
    out[12..16].copy_from_slice(&p.to_be_bytes());
    out
}

/// Unpacks and validates the block binding.
pub(crate) fn unpack_payload(
    payload: &[u8; SEAL_PAYLOAD_LEN],
    expected_block: u32,
) -> Result<(u64, u32), CodecError> {
    let b = u32::from_be_bytes(payload[0..4].try_into().expect("fixed width"));
    if b != expected_block {
        return Err(CodecError::BindingMismatch {
            expected: expected_block,
            got: b,
        });
    }
    let a = u64::from_be_bytes(payload[4..12].try_into().expect("fixed width"));
    let p = u32::from_be_bytes(payload[12..16].try_into().expect("fixed width"));
    Ok((a, p))
}

/// Type-erased codec so one tree type can run every scheme (enum dispatch —
/// the codec is chosen once at tree construction).
pub enum AnyCodec {
    Plain(sks_btree_core::PlainCodec),
    Substitution(SubstitutionCodec),
    BayerMetzger(BayerMetzgerCodec),
    FullPage(FullPageCodec),
}

/// `call` on whichever codec `self` holds, bound to `c`.
macro_rules! each {
    ($self:ident, $c:ident => $call:expr) => {
        match $self {
            AnyCodec::Plain($c) => $call,
            AnyCodec::Substitution($c) => $call,
            AnyCodec::BayerMetzger($c) => $call,
            AnyCodec::FullPage($c) => $call,
        }
    };
}

impl NodeCodec for AnyCodec {
    fn encode_over(
        &self,
        node: &Node,
        prev: Option<&CachedNode>,
        page: &mut [u8],
    ) -> Result<CachedNode, CodecError> {
        each!(self, c => c.encode_over(node, prev, page))
    }

    fn max_keys(&self, page_size: usize) -> usize {
        each!(self, c => c.max_keys(page_size))
    }

    fn name(&self) -> &'static str {
        each!(self, c => c.name())
    }

    fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError> {
        each!(self, c => c.decode_for_cache(id, page))
    }

    fn probe_cached(&self, entry: &CachedNode, key: u64) -> Result<Probe, CodecError> {
        each!(self, c => c.probe_cached(entry, key))
    }

    fn complete(&self, entry: &CachedNode) -> Result<(), CodecError> {
        each!(self, c => c.complete(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheme, SchemeConfig, SealerKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sks_btree_core::{
        never_sealed, BTree, CachedNode, Node, NodeCache, NodeCodec, RecordPtr, TreeError,
    };
    use sks_crypto::pagekey::{PageCipherKind, PageKeyScheme};
    use sks_storage::{BlockId, BlockStore, MemDisk, OpCounters, OpSnapshot};

    fn sealers() -> Vec<Box<dyn TripletSealer>> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            Box::new(BlockCipherSealer::des(0x0123456789ABCDEF)),
            Box::new(BlockCipherSealer::speck(
                0xFEEDFACE_CAFEBEEF_00112233_44556677,
            )),
            Box::new(RsaSealer::new(RsaKey::generate(&mut rng, 256)).unwrap()),
        ]
    }

    #[test]
    fn all_sealers_roundtrip() {
        for sealer in sealers() {
            let payload = pack_payload(42, 0xdeadbeef, 7);
            let ct = sealer.seal(&payload);
            assert_eq!(ct.len(), sealer.sealed_len(), "{}", sealer.name());
            let back = sealer.unseal(&ct).unwrap();
            assert_eq!(back, payload, "{}", sealer.name());
            let (a, p) = unpack_payload(&back, 42).unwrap();
            assert_eq!((a, p), (0xdeadbeef, 7));
        }
    }

    #[test]
    fn binding_mismatch_detected_after_unseal() {
        let payload = pack_payload(42, 1, 2);
        assert!(matches!(
            unpack_payload(&payload, 43),
            Err(CodecError::BindingMismatch {
                expected: 43,
                got: 42
            })
        ));
    }

    #[test]
    fn same_pointers_different_blocks_different_cryptograms() {
        // The paper's motivation for including b in the cryptogram.
        let sealer = BlockCipherSealer::des(0x1122334455667788);
        let c1 = sealer.seal(&pack_payload(1, 99, 5));
        let c2 = sealer.seal(&pack_payload(2, 99, 5));
        assert_ne!(c1, c2);
    }

    #[test]
    fn wrong_length_rejected() {
        let sealer = BlockCipherSealer::des(1);
        assert!(sealer.unseal(&[0u8; 15]).is_err());
        let mut rng = StdRng::seed_from_u64(8);
        let rsa = RsaSealer::new(RsaKey::generate(&mut rng, 256)).unwrap();
        assert!(rsa.unseal(&[0u8; 16]).is_err());
    }

    #[test]
    fn rsa_sealer_rejects_tiny_modulus() {
        let mut rng = StdRng::seed_from_u64(9);
        let key = RsaKey::generate(&mut rng, 64);
        assert!(RsaSealer::new(key).is_err());
    }

    #[test]
    fn rsa_cryptograms_are_modulus_width() {
        let mut rng = StdRng::seed_from_u64(10);
        for bits in [192usize, 256, 512] {
            let sealer = RsaSealer::new(RsaKey::generate(&mut rng, bits)).unwrap();
            assert_eq!(sealer.sealed_len(), bits / 8);
            let ct = sealer.seal(&pack_payload(3, 4, 5));
            assert_eq!(ct.len(), bits / 8);
        }
    }

    /// Runs `op` and returns its result with the counters it moved.
    fn charged<T>(counters: &OpCounters, op: impl FnOnce() -> T) -> (T, OpSnapshot) {
        let before = counters.snapshot();
        let out = op();
        (out, counters.snapshot().delta(&before))
    }

    /// The raw-page search a scheme's cached probe is checked against,
    /// where it has one of its own: straight off the page, deciphering
    /// only what the search reads.
    fn raw_probe(codec: &AnyCodec, id: BlockId, page: &[u8], key: u64) -> Option<ProbeResult> {
        match codec {
            AnyCodec::Substitution(c) => Some(c.raw_probe(id, page, key)),
            AnyCodec::BayerMetzger(c) => Some(c.raw_probe(id, page, key)),
            _ => None,
        }
    }

    /// The raw-page decode a scheme's cached decode is checked against,
    /// where it has one of its own.
    fn raw_decode(codec: &AnyCodec, id: BlockId, page: &[u8]) -> Option<Result<Node, CodecError>> {
        match codec {
            AnyCodec::FullPage(c) => Some(c.raw_decode(id, page)),
            _ => None,
        }
    }

    type ProbeResult = Result<sks_btree_core::Probe, CodecError>;

    /// The cache entry's contract, for every scheme: whatever mix of
    /// probes and whole-node decodes an entry has served, each answer and
    /// each counter delta is the raw page operation's — the scheme's own
    /// raw-page oracle where it has one, a fresh entry of the page where
    /// it does not. Half the pages are damaged first (a few bytes of the
    /// node flipped): where such a page still fills an entry, the entry
    /// fails exactly where, and as, the oracle does.
    #[test]
    fn cached_entries_replay_raw_probe_and_decode_exactly_for_every_scheme() {
        let mut rng = StdRng::seed_from_u64(21);
        let (mut damaged_compared, mut damaged_failures) = (0, 0);
        for scheme in Scheme::ALL {
            let counters = OpCounters::new();
            let config = SchemeConfig::with_capacity(scheme, 64);
            let (codec, _) = config.build_codec(&counters).unwrap();
            for round in 0..20u32 {
                // Keys inside every scheme's disguise domain (the
                // figure-literal ExponentiationPaper caps it at 13).
                let keys: Vec<u64> = (1..=12).filter(|_| rng.gen_bool(0.6)).collect();
                let children = match round % 2 {
                    0 => Vec::new(),
                    _ => (0..=keys.len() as u32).map(|c| BlockId(100 + c)).collect(),
                };
                let node = Node {
                    id: BlockId(5 + round),
                    data_ptrs: keys.iter().map(|k| RecordPtr(k * 1000 + 7)).collect(),
                    keys,
                    children,
                };
                let mut page = vec![0u8; config.block_size];
                codec.encode(&node, &mut page).unwrap();
                let damaged = round % 4 >= 2;
                if damaged {
                    // Within the first 384 bytes, which hold every node
                    // here.
                    for _ in 0..rng.gen_range(1..4) {
                        page[rng.gen_range(0..384)] ^= rng.gen_range(1..256u16) as u8;
                    }
                }
                // A page that does not fill an entry is never cached.
                let Ok(entry) = codec.decode_for_cache(node.id, &page) else {
                    assert!(damaged, "{scheme:?} round {round}");
                    continue;
                };
                damaged_compared += usize::from(damaged);
                for step in 0..40 {
                    let what = format!("{scheme:?} round {round} step {step}");
                    if rng.gen_bool(0.15) {
                        let raw = charged(&counters, || {
                            raw_decode(&codec, node.id, &page)
                                .unwrap_or_else(|| codec.decode(node.id, &page))
                        });
                        // (Not `== node`: the figure-literal construction
                        // is not injective.)
                        assert!(damaged || raw.0.is_ok(), "{what}");
                        damaged_failures += usize::from(raw.0.is_err());
                        let cached = charged(&counters, || codec.decode_cached(&entry));
                        assert_eq!(cached, raw, "{what}: decode");
                    } else {
                        let key = rng.gen_range(0..15u64);
                        let raw = charged(&counters, || {
                            raw_probe(&codec, node.id, &page, key)
                                .unwrap_or_else(|| codec.probe(node.id, &page, key))
                        });
                        damaged_failures += usize::from(raw.0.is_err());
                        let cached = charged(&counters, || codec.probe_cached(&entry, key));
                        assert_eq!(cached, raw, "{what}: probe {key}");
                    }
                }
            }
        }
        assert!(
            damaged_compared > 15,
            "{damaged_compared} damaged pages filled"
        );
        assert!(
            damaged_failures > 15,
            "{damaged_failures} failures compared"
        );
    }

    /// A codec that seals every write from scratch: its `encode_over`
    /// ignores the image of the page the write replaces, so a tree over it
    /// writes what one with no images to copy from would.
    struct FromScratch<C>(C);

    impl<C: NodeCodec> NodeCodec for FromScratch<C> {
        fn encode_over(
            &self,
            node: &Node,
            _prev: Option<&CachedNode>,
            page: &mut [u8],
        ) -> Result<CachedNode, CodecError> {
            self.0.encode_over(node, None, page)
        }

        fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError> {
            self.0.decode_for_cache(id, page)
        }

        fn probe_cached(&self, entry: &CachedNode, key: u64) -> ProbeResult {
            self.0.probe_cached(entry, key)
        }

        fn complete(&self, entry: &CachedNode) -> Result<(), CodecError> {
            self.0.complete(entry)
        }

        fn max_keys(&self, page_size: usize) -> usize {
            self.0.max_keys(page_size)
        }

        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    type CodecMaker = Box<dyn Fn() -> (AnyCodec, OpCounters)>;

    /// Every scheme that seals triplet by triplet, along each axis: every
    /// disguise under DES, the paper's oval scheme under each sealer, and
    /// Bayer–Metzger under both page ciphers. Each entry builds a fresh
    /// codec on a fresh counter set for a page of the given size (small,
    /// so a few hundred keys make a height-3 tree).
    fn per_triplet_codecs() -> Vec<(String, usize, CodecMaker)> {
        let substitution = |scheme: Scheme, sealer: SealerKind| {
            let mut config = SchemeConfig::with_capacity(scheme, 700);
            config.sealer = sealer;
            config.block_size = 256;
            let maker: CodecMaker = Box::new({
                let config = config.clone();
                move || {
                    let counters = OpCounters::new();
                    (config.build_codec(&counters).unwrap().0, counters)
                }
            });
            (format!("{scheme:?}/{sealer:?}"), config.block_size, maker)
        };
        let bayer_metzger = |kind: PageCipherKind| {
            let maker: CodecMaker = Box::new(move || {
                let counters = OpCounters::new();
                let pages = PageKeyScheme::new(0xDEAD_BEEF_F00D_CAFE, kind);
                let codec = BayerMetzgerCodec::new(pages, counters.clone());
                (AnyCodec::BayerMetzger(codec), counters)
            });
            (format!("BayerMetzger/{kind:?}"), 256, maker)
        };
        vec![
            substitution(Scheme::Oval, SealerKind::Des),
            substitution(Scheme::Exponentiation, SealerKind::Des),
            substitution(Scheme::SumOfTreatments, SealerKind::Des),
            substitution(Scheme::ConversionTable, SealerKind::Des),
            substitution(Scheme::Oval, SealerKind::Speck),
            substitution(Scheme::Oval, SealerKind::Rsa(192)),
            bayer_metzger(PageCipherKind::Des),
            bayer_metzger(PageCipherKind::Speck),
        ]
    }

    /// `snapshot` with the physical telemetry a node cache is allowed to
    /// move zeroed, leaving the logical cost model.
    fn logical(mut snapshot: OpSnapshot) -> OpSnapshot {
        snapshot.block_reads = 0;
        snapshot.node_cache_hits = 0;
        snapshot.node_cache_misses = 0;
        snapshot.triplet_seals_reused = 0;
        snapshot.key_disguises_reused = 0;
        snapshot
    }

    /// The write side of the entry's contract: encoding a node over the
    /// image of the page it replaces writes the from-scratch page and
    /// charges the from-scratch logical cost — whatever was edited, and
    /// however much of the image had been deciphered — and what it copied
    /// it reports.
    #[test]
    fn encoding_over_the_replaced_image_equals_encoding_from_scratch() {
        let mut rng = StdRng::seed_from_u64(23);
        for (name, block_size, make) in per_triplet_codecs() {
            let (codec, counters) = make();
            let rounds = if name.contains("Rsa") { 6 } else { 40 };
            for round in 0..rounds {
                let what = format!("{name} round {round}");
                let keys: Vec<u64> = (1..=5).map(|k| 3 * k).collect();
                let is_leaf = round % 2 == 0;
                let before = Node {
                    id: BlockId(5 + round),
                    data_ptrs: keys.iter().map(|k| RecordPtr(k * 1000 + 7)).collect(),
                    children: match is_leaf {
                        true => Vec::new(),
                        false => (0..=keys.len() as u32).map(|c| BlockId(100 + c)).collect(),
                    },
                    keys,
                };
                let mut page = vec![0u8; block_size];
                codec.encode(&before, &mut page).unwrap();
                let image = codec.decode_for_cache(before.id, &page).unwrap();
                // An update completes the image; otherwise only what a
                // few probes happened to read is deciphered.
                let complete = round % 4 < 3;
                if complete {
                    assert_eq!(codec.decode_cached(&image).unwrap(), before, "{what}");
                } else {
                    for _ in 0..3 {
                        codec.probe_cached(&image, rng.gen_range(0..20)).unwrap();
                    }
                }

                // One to three edits: overwrites, inserts, deletes and (in
                // an internal node) repointed children, keys kept sorted.
                let mut after = before.clone();
                let (mut overwrites, mut other_edits) = (0, 0);
                for _ in 0..rng.gen_range(1..4) {
                    let i = rng.gen_range(0..after.n());
                    match rng.gen_range(0..4) {
                        0 => {
                            after.data_ptrs[i] = RecordPtr(rng.gen());
                            overwrites += 1;
                            continue;
                        }
                        1 if after.keys[i].is_multiple_of(3) => {
                            after.keys.insert(i + 1, after.keys[i] + 1);
                            after.data_ptrs.insert(i + 1, RecordPtr(rng.gen()));
                            if !is_leaf {
                                after.children.insert(i + 1, BlockId(rng.gen()));
                            }
                        }
                        2 if after.n() > 2 => {
                            after.keys.remove(i);
                            after.data_ptrs.remove(i);
                            if !is_leaf {
                                after.children.remove(i);
                            }
                        }
                        _ if !is_leaf => after.children[i] = BlockId(rng.gen()),
                        _ => continue,
                    }
                    other_edits += 1;
                }

                let mut scratch = vec![0u8; block_size];
                let (_, from_scratch) = charged(&counters, || {
                    codec.encode(&after, &mut scratch).unwrap();
                });
                let mut over = vec![0u8; block_size];
                let (_, copied) = charged(&counters, || {
                    codec.encode_over(&after, Some(&image), &mut over).unwrap();
                });
                assert!(over == scratch, "{what}: the medium differs");
                assert_eq!(logical(copied), logical(from_scratch), "{what}");
                assert_eq!(from_scratch.triplet_seals_reused, 0, "{what}");
                assert_eq!(codec.decode(after.id, &over).unwrap(), after, "{what}");
                let slots = after.slots().count() as u64;
                assert!(copied.triplet_seals_reused <= slots, "{what}");
                if complete && other_edits == 0 {
                    // Only the overwritten slots are sealed (one slot may
                    // have been overwritten twice).
                    let sealed = slots - copied.triplet_seals_reused;
                    assert!(sealed <= overwrites, "{what}: sealed {sealed}");
                    assert_eq!(sealed > 0, overwrites > 0, "{what}");
                }

                // Nothing is copied from an image of another block.
                let mut moved = after.clone();
                moved.id = BlockId(after.id.0 + 1);
                codec.encode(&moved, &mut scratch).unwrap();
                let (_, copied) = charged(&counters, || {
                    codec.encode_over(&moved, Some(&image), &mut over).unwrap();
                });
                assert!(over == scratch, "{what}: the medium differs");
                assert_eq!(copied.triplet_seals_reused, 0, "{what}");
            }
        }
    }

    /// An empty tree over `codec` on a fresh store of `block_size` blocks
    /// that charges `counters`.
    fn empty_tree<C: NodeCodec>(
        codec: C,
        counters: OpCounters,
        block_size: usize,
    ) -> BTree<MemDisk, C> {
        BTree::create(MemDisk::with_counters(block_size, counters), codec).unwrap()
    }

    /// One operation of the seeded sequences below on `tree`: 0–2 insert
    /// `key`, 3 repoints it with `replace_ptr`, 4–5 delete it, and 6 runs a
    /// node-device compaction pass. Returns the key's previous pointer.
    fn apply<C: NodeCodec>(
        tree: &mut BTree<MemDisk, C>,
        op: u32,
        key: u64,
        ptr: RecordPtr,
    ) -> Result<Option<RecordPtr>, TreeError> {
        match op {
            0..=2 => tree.insert(key, ptr),
            3 => match tree.get(key) {
                Ok(Some(cur)) => tree
                    .replace_ptr(key, cur, ptr)
                    .map(|done| done.then_some(cur)),
                other => other,
            },
            4 | 5 => tree.delete(key),
            _ => tree.compact_nodes(2).map(|_| None),
        }
    }

    /// The optimisation is invisible on the medium: one seeded sequence of
    /// inserts, overwrites, `replace_ptr`s, deletes (borrows, merges, a
    /// shrinking root), splits and node relocations, driven through two
    /// trees — one over [`FromScratch`], so every write seals its whole
    /// node, and one that seals only what a write changed — leaves every
    /// block of the two media byte-identical after every operation, and
    /// the two logical cost models equal.
    #[test]
    fn the_medium_is_bit_identical_with_and_without_per_triplet_reseal() {
        for (name, block_size, make) in per_triplet_codecs() {
            let (codec, counters) = make();
            let mut sealed_whole = empty_tree(FromScratch(codec), counters, block_size);
            let (codec, counters) = make();
            let mut resealed = empty_tree(codec, counters, block_size);
            resealed.enable_node_cache(1024);
            let mut rng = StdRng::seed_from_u64(29);
            let mut live: Vec<u64> = Vec::new();
            // (A debug-build RSA seal costs a millisecond: that leg is short.)
            let rsa = name.contains("Rsa");
            let (grow, churn) = if rsa { (24, 16) } else { (200, 250) };
            for step in 0..grow + churn + 10_000 {
                let what = format!("{name} step {step}");
                // Grow to height 3, churn, then drain to an empty root,
                // sliding nodes into freed blocks along the way.
                let op = match step {
                    s if s < grow => 0,
                    s if s % 8 == 0 => 6,
                    s if s < grow + churn => rng.gen_range(0..6),
                    _ if live.is_empty() => break,
                    _ => rng.gen_range(3..6),
                };
                let (key, ptr) = match op {
                    0 | 1 => (rng.gen_range(1..600), RecordPtr(rng.gen())),
                    _ if live.is_empty() => continue,
                    _ => (live[rng.gen_range(0..live.len())], RecordPtr(rng.gen())),
                };
                let olds = [
                    apply(&mut sealed_whole, op, key, ptr),
                    apply(&mut resealed, op, key, ptr),
                ];
                for old in olds {
                    let was_live = op == 6 || old.expect(&what).is_some();
                    assert_eq!(was_live, op == 6 || live.contains(&key), "{what}");
                }
                match op {
                    0 | 1 if !live.contains(&key) => live.push(key),
                    4 | 5 => live.retain(|&k| k != key),
                    _ => {}
                }
                assert!(
                    sealed_whole.store().raw_image() == resealed.store().raw_image(),
                    "{what}: the media differ"
                );
                if step == grow {
                    assert_eq!(resealed.height(), if rsa { 2 } else { 3 }, "{name}");
                }
            }
            sealed_whole.validate().unwrap();
            resealed.validate().unwrap();
            let (whole, reused) = (
                sealed_whole.counters().snapshot(),
                resealed.counters().snapshot(),
            );
            assert_eq!(logical(reused), logical(whole), "{name}");
            assert_eq!(whole.triplet_seals_reused, 0, "{name}");
            assert!(reused.triplet_seals_reused > 0, "{name}");
            let exercised = [reused.splits, reused.merges, reused.borrows];
            assert!(exercised.iter().all(|&n| n > 0), "{name}: {exercised:?}");
            assert!(reused.compact_moved_nodes > 0, "{name}");
            assert_eq!(resealed.len(), 0, "{name}: drained");
        }
    }

    /// The image a write leaves in the node cache is its page's fresh fill,
    /// deciphered: for every cache-supporting scheme, after a seeded mix of
    /// inserts, overwrites, `replace_ptr`s, deletes and node-device passes,
    /// every resident entry holds each slot's real unseal and the keys
    /// completing a fresh fill recovers, answers every probe and decode
    /// with the fresh entry's results and logical counters, and as the
    /// `prev` of a later write yields the from-scratch page. And the image
    /// `encode_over` returns is that fill, completed, for every scheme the
    /// literal exponentiation construction included: written from scratch
    /// or over an image, it holds the same slots, raw key fields,
    /// cryptograms and memoised keys — none where the disguise cannot
    /// charge by count, which leaves the keys to the first completion.
    #[test]
    fn a_written_image_is_the_fresh_fill_of_its_page_for_every_scheme() {
        for scheme in Scheme::MEASURED {
            let mut config = SchemeConfig::with_capacity(scheme, 700);
            config.block_size = 256;
            let counters = OpCounters::new();
            let (codec, _) = config.build_codec(&counters).unwrap();
            let disk = MemDisk::with_counters(config.block_size, counters.clone());
            let mut tree = BTree::create(disk, codec).unwrap();
            tree.enable_node_cache(1024);
            // No get: every entry is an update path's complete read or a
            // written image.
            let mut rng = StdRng::seed_from_u64(31);
            let mut model = std::collections::BTreeMap::new();
            for step in 0..600 {
                let what = format!("{scheme:?} step {step}");
                let live: Vec<u64> = model.keys().copied().collect();
                let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
                let ptr = RecordPtr(rng.gen());
                match rng.gen_range(0..8) {
                    _ if step < 200 || live.is_empty() => {
                        let key = rng.gen_range(1..600);
                        assert_eq!(tree.insert(key, ptr).expect(&what), model.insert(key, ptr));
                    }
                    0..=2 => {
                        let key = match rng.gen_bool(0.5) {
                            true => pick(&mut rng),
                            false => rng.gen_range(1..600),
                        };
                        assert_eq!(tree.insert(key, ptr).expect(&what), model.insert(key, ptr));
                    }
                    3 | 4 => {
                        let key = pick(&mut rng);
                        assert!(tree.replace_ptr(key, model[&key], ptr).expect(&what));
                        model.insert(key, ptr);
                    }
                    5 | 6 => {
                        let key = pick(&mut rng);
                        assert_eq!(tree.delete(key).expect(&what), model.remove(&key));
                    }
                    _ => {
                        tree.compact_nodes(2).expect(&what);
                    }
                }
            }
            // The last write replaces its leaf's entry rather than drop it.
            let (&key, &ptr) = model.iter().next().unwrap();
            let resident = tree.cached_nodes();
            assert!(tree.replace_ptr(key, ptr, RecordPtr(1)).unwrap());
            assert_eq!(tree.cached_nodes(), resident, "{scheme:?}");
            assert!(tree.counters().snapshot().compact_moved_nodes > 0);

            let (cache, codec) = (tree.node_cache(), tree.codec());
            let mut checked = 0;
            for id in (0..tree.store().num_blocks()).map(BlockId) {
                let Some(kept) = cache.get(id) else { continue };
                let what = format!("{scheme:?} block {id}");
                let page = tree.store().read_block_vec(id).unwrap();
                let fresh = || codec.decode_for_cache(id, &page).unwrap();
                let whole = fresh();
                codec.complete(&whole).unwrap();
                assert!(kept.raw_keys().eq(whole.raw_keys()), "{what}");
                // Every resident entry is complete, its keys the fresh
                // fill's recoveries.
                assert!(kept.keys().is_some(), "{what}");
                assert_eq!(kept.keys(), whole.keys(), "{what}");
                assert_eq!(
                    (kept.is_leaf(), kept.slots(), kept.page_len()),
                    (whole.is_leaf(), whole.slots(), whole.page_len()),
                    "{what}"
                );
                for slot in 0..whole.slots() {
                    let unsealed = whole.triplet(slot, never_sealed);
                    assert_eq!(kept.triplet(slot, never_sealed), unsealed, "{what}");
                }

                let decode = |entry: &CachedNode| charged(&counters, || codec.decode_cached(entry));
                let (node, charge) = decode(&kept);
                assert_eq!((node.clone(), charge), decode(&fresh()), "{what}: decode");
                let node = node.unwrap();
                let probes = node.keys.iter().flat_map(|&k| [k - 1, k, k + 1]);
                let (lazy, warm) = (fresh(), fresh());
                codec.decode_cached(&warm).unwrap();
                for key in probes.chain([0, 700]) {
                    let want = charged(&counters, || codec.probe_cached(&lazy, key));
                    let got = charged(&counters, || codec.probe_cached(&kept, key));
                    assert_eq!(got, want, "{what}: probe {key}");
                    let warm = charged(&counters, || codec.probe_cached(&warm, key));
                    assert_eq!(got, warm, "{what}: probe {key}");
                }

                // Re-encoding the node over its image rebuilds the page;
                // an edited node over it writes the from-scratch page.
                let mut over = vec![0u8; config.block_size];
                codec.encode_over(&node, Some(&kept), &mut over).unwrap();
                assert!(over == page, "{what}: the page differs");
                let mut edited = node;
                if let Some(a) = edited.data_ptrs.first_mut() {
                    *a = RecordPtr(a.0 ^ 0x5A5A);
                }
                let mut scratch = vec![0u8; config.block_size];
                codec.encode(&edited, &mut scratch).unwrap();
                codec.encode_over(&edited, Some(&kept), &mut over).unwrap();
                assert!(over == scratch, "{what}: the edited page differs");
                checked += 1;
            }
            assert_eq!(checked, tree.cached_nodes(), "{scheme:?}");
            assert!(checked > 10, "{scheme:?}: {checked} entries");
            tree.validate().unwrap();
        }

        let mut rng = StdRng::seed_from_u64(37);
        let literal = [Scheme::ExponentiationPaper];
        for scheme in Scheme::MEASURED.into_iter().chain(literal) {
            let mut config = SchemeConfig::with_capacity(scheme, 64);
            config.block_size = 512;
            let (codec, _) = config.build_codec(&OpCounters::new()).unwrap();
            // Cryptogram width: whole triplets, pointer pairs, or none kept.
            let width = match scheme {
                Scheme::BayerMetzger => 24,
                Scheme::Plaintext | Scheme::BayerMetzgerPage => 0,
                _ => 16,
            };
            let fresh_fill = |image: &CachedNode, page: &[u8], what: &str| {
                let whole = codec.decode_for_cache(image.id(), page).unwrap();
                codec.complete(&whole).unwrap();
                let shape = |e: &CachedNode| (e.is_leaf(), e.slots(), e.page_len());
                assert_eq!(shape(image), shape(&whole), "{what}");
                assert!(image.raw_keys().eq(whole.raw_keys()), "{what}");
                for slot in 0..whole.slots() {
                    let t = whole.triplet(slot, never_sealed).unwrap();
                    assert_eq!(image.triplet(slot, never_sealed), Ok(t), "{what}");
                    let ct = |e: &CachedNode| {
                        e.stored_cryptogram(&mut { slot }, &t, width)
                            .map(<[u8]>::to_vec)
                    };
                    assert_eq!(ct(image), ct(&whole), "{what}: slot {slot}");
                }
                match scheme {
                    Scheme::ExponentiationPaper => assert_eq!(image.keys(), None, "{what}"),
                    _ => assert_eq!(image.keys(), whole.keys(), "{what}"),
                }
            };
            for round in 0..20u32 {
                let what = format!("{scheme:?} round {round}");
                // Keys inside the literal construction's domain of 13.
                let keys: Vec<u64> = (1..=12).filter(|_| rng.gen_bool(0.6)).collect();
                let node = Node {
                    id: BlockId(5 + round),
                    data_ptrs: keys.iter().map(|k| RecordPtr(k * 1000 + 7)).collect(),
                    children: match round % 2 {
                        0 => Vec::new(),
                        _ => (0..=keys.len() as u32).map(|c| BlockId(100 + c)).collect(),
                    },
                    keys,
                };
                let mut page = vec![0u8; config.block_size];
                let scratch = codec.encode(&node, &mut page).unwrap();
                fresh_fill(&scratch, &page, &format!("{what}, from scratch"));
                let mut edited = node;
                if let Some(a) = edited.data_ptrs.first_mut() {
                    *a = RecordPtr(a.0 ^ 0x5A5A);
                }
                let over = codec.encode_over(&edited, Some(&scratch), &mut page);
                fresh_fill(&over.unwrap(), &page, &format!("{what}, over an image"));
            }
        }
    }

    /// One range scan as `RangeIter` walked it before it read cache
    /// entries: whole `Node`s (each visit a completion and a node build,
    /// through `inspect_node`), the same descend and stop rules, the first
    /// error ending the scan. Appends to `out`; `false` once it is over.
    fn node_walk<C: NodeCodec>(
        tree: &BTree<MemDisk, C>,
        id: BlockId,
        (lo, hi): (u64, u64),
        out: &mut Vec<Result<(u64, RecordPtr), String>>,
    ) -> bool {
        let node = match tree.inspect_node(id) {
            Ok(node) => node,
            Err(e) => {
                out.push(Err(e.to_string()));
                return false;
            }
        };
        let first = node.keys.partition_point(|&k| k < lo);
        for i in first..=node.n() {
            // Child i, unless key i is `lo` itself; then key i.
            let starts_at_key = i == first && node.keys.get(i) == Some(&lo);
            let child = !node.is_leaf() && !starts_at_key;
            if child && i > 0 && node.keys[i - 1] >= hi {
                return true;
            }
            if child && !node_walk(tree, node.children[i], (lo, hi), out) {
                return false;
            }
            match node.keys.get(i) {
                Some(&k) if k <= hi => out.push(Ok((k, node.data_ptrs[i]))),
                _ => return true,
            }
        }
        true
    }

    /// Range scans walk cache entries and build no node: for every
    /// measured scheme, and the literal exponentiation construction that
    /// cannot charge by count, seeded ranges over a tree — as written,
    /// then with a third of its leaves damaged on the medium — yield what
    /// the whole-`Node` walk yields, an error once and then nothing, and
    /// charge the same logical counters, over fresh and completed entries.
    #[test]
    fn range_scans_over_entries_replay_the_node_walk_for_every_scheme() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut failed_scans = 0;
        for scheme in Scheme::MEASURED
            .into_iter()
            .chain([Scheme::ExponentiationPaper])
        {
            // (The literal construction's domain is 1..13.)
            let (keys, span, block_size) = match scheme {
                Scheme::ExponentiationPaper => (12, 13, 128),
                _ => (300, 700, 256),
            };
            let mut config = SchemeConfig::with_capacity(scheme, 700);
            config.block_size = block_size;
            let counters = OpCounters::new();
            let items: Vec<(u64, RecordPtr)> = (1..=keys)
                .map(|k| (k * span / (keys + 1), RecordPtr(k * 7 + 1)))
                .collect();
            let codec = config.build_codec(&counters).unwrap().0;
            let disk = MemDisk::with_counters(block_size, counters.clone());
            let mut tree = BTree::bulk_load(disk, codec, &items).unwrap();
            for damaged in [false, true] {
                if damaged {
                    let mut leaves = vec![];
                    let mut todo = vec![tree.root_id()];
                    while let Some(id) = todo.pop() {
                        let node = tree.inspect_node(id).unwrap();
                        match node.is_leaf() {
                            true => leaves.push(id),
                            false => todo.extend(node.children.iter().copied()),
                        }
                    }
                    let mut store = tree.into_store().unwrap();
                    for &id in leaves.iter().step_by(3) {
                        let mut page = store.read_block_vec(id).unwrap();
                        page[rng.gen_range(8..48)] ^= rng.gen_range(1..256u16) as u8;
                        store.write_block(id, &page).unwrap();
                    }
                    let codec = config.build_codec(&counters).unwrap().0;
                    tree = BTree::open(store, codec).unwrap();
                }
                tree.enable_node_cache(1024);
                for round in 0..60 {
                    let what = format!("{scheme:?} damaged {damaged} round {round}");
                    let (lo, hi) = (rng.gen_range(0..span + 9), rng.gen_range(0..span + 9));
                    let scan = || {
                        charged(&counters, || {
                            let iter = tree.iter_range(lo, hi);
                            iter.map(|r| r.map_err(|e| e.to_string())).collect()
                        })
                    };
                    let (entries, cost): (Vec<_>, _) = scan();
                    let (walked, walk_cost) = charged(&counters, || {
                        let mut out = Vec::new();
                        if lo <= hi {
                            node_walk(&tree, tree.root_id(), (lo, hi), &mut out);
                        }
                        out
                    });
                    assert_eq!(entries, walked, "{what}");
                    assert_eq!(logical(cost), logical(walk_cost), "{what}");
                    let failures = entries.iter().filter(|r| r.is_err()).count();
                    assert!(failures == 0 || entries.last().unwrap().is_err(), "{what}");
                    assert!(failures <= 1, "{what}");
                    failed_scans += failures;
                    let (again, again_cost) = scan();
                    assert_eq!(again, entries, "{what}");
                    assert_eq!(logical(again_cost), logical(cost), "{what}");
                }
            }
        }
        assert!(failed_scans > 20, "{failed_scans} failed scans compared");
    }

    /// What a node write costs in physical seals, pinned on a height-3
    /// tree for any per-triplet codec: `make` builds the codec, its
    /// counters and a reader of the triplets physically sealed so far.
    /// A write seals only the triplets it changed — at the floor cache
    /// size too — while one over [`FromScratch`] seals its whole node.
    pub(super) fn check_writes_seal_only_what_they_change<C: NodeCodec>(
        make: &dyn Fn() -> (C, OpCounters, Box<dyn Fn() -> u64>),
    ) {
        /// 250 keys into a tree over `codec` with a node cache of
        /// `node_cache` nodes: height 3.
        fn grown<D: NodeCodec>(
            codec: D,
            counters: OpCounters,
            node_cache: usize,
        ) -> BTree<MemDisk, D> {
            let mut tree = empty_tree(codec, counters, 256);
            tree.enable_node_cache(node_cache);
            // Even keys in a scattered order, so odd ones are free and
            // nodes fill unevenly.
            for i in 1..=250u64 {
                let key = 2 * (i * 211 % 503);
                tree.insert(key, RecordPtr(key)).unwrap();
            }
            assert_eq!(tree.height(), 3);
            tree
        }
        /// A leaf an update reaches without rebalancing anything — neither
        /// full nor minimal (or, for the split, full), under such a parent
        /// and a root with room — with its parent's key count.
        fn quiet_leaf<D: NodeCodec>(tree: &BTree<MemDisk, D>, full: bool) -> (u64, Node) {
            let (t, max) = (tree.min_degree(), tree.max_keys_per_node());
            let roomy = |n: usize| (t..max).contains(&n);
            let root = tree.inspect_node(tree.root_id()).unwrap();
            assert!(root.n() < max);
            let parents = root.children.iter().map(|&c| tree.inspect_node(c).unwrap());
            let leaves = parents.filter(|p| roomy(p.n())).flat_map(|p| {
                let n = p.n() as u64;
                (p.children.clone().into_iter()).map(move |c| (n, tree.inspect_node(c).unwrap()))
            });
            let wanted = |leaf: &Node| match full {
                true => leaf.n() == max,
                false => roomy(leaf.n()),
            };
            let mut leaves = leaves.filter(|(_, leaf)| wanted(leaf));
            leaves.next().expect("250 scattered keys leave such a leaf")
        }
        /// (triplets physically sealed, logical encipherments) of `op`.
        fn cost<D: NodeCodec>(
            tree: &mut BTree<MemDisk, D>,
            sealed: &dyn Fn() -> u64,
            op: impl FnOnce(&mut BTree<MemDisk, D>),
        ) -> (u64, u64) {
            let (held, before) = (sealed(), tree.counters().snapshot());
            op(tree);
            let delta = tree.counters().snapshot().delta(&before);
            let (physical, logical) = (sealed() - held, delta.key_encrypts + delta.ptr_encrypts);
            assert_eq!(physical, logical - delta.triplet_seals_reused);
            (physical, logical)
        }

        let (codec, counters, sealed) = make();
        let mut tree = grown(codec, counters, 1024);
        let (_, leaf) = quiet_leaf(&tree, false);
        let (key, n) = (leaf.keys[0], leaf.n() as u64);
        let overwrite = cost(&mut tree, &sealed, |tree| {
            assert!(tree.insert(key, RecordPtr(1)).unwrap().is_some());
        });
        assert_eq!(overwrite, (1, n), "an overwrite seals its one triplet");
        let fresh = cost(&mut tree, &sealed, |tree| {
            assert!(tree.insert(key + 1, RecordPtr(2)).unwrap().is_none());
        });
        assert_eq!(fresh, (1, n + 1), "an insert seals the new triplet");
        let delete = cost(&mut tree, &sealed, |tree| {
            assert!(tree.delete(key + 1).unwrap().is_some());
        });
        assert_eq!(
            delete,
            (0, n),
            "a delete that rebalances nothing seals none"
        );
        let repoint = cost(&mut tree, &sealed, |tree| {
            assert!(tree.replace_ptr(key, RecordPtr(1), RecordPtr(3)).unwrap());
        });
        assert_eq!(repoint, (1, n), "replace_ptr seals its one triplet");

        // A leaf split: the right half changes block and is sealed under
        // the new one (t − 1 triplets), the parent gains one triplet — the
        // separator with its pointers — and the key lands in one half. The
        // kept half is copied whole.
        let (parent_n, leaf) = quiet_leaf(&tree, true);
        let t = tree.min_degree() as u64;
        let splits = tree.counters().snapshot().splits;
        let split = cost(&mut tree, &sealed, |tree| {
            assert!(tree
                .insert(leaf.keys[0] + 1, RecordPtr(4))
                .unwrap()
                .is_none());
        });
        let rewritten = (t - 1) + (t - 1) + (parent_n + 2) + t;
        assert_eq!(split, ((t - 1) + 1 + 1, rewritten), "a leaf split");
        assert_eq!(tree.counters().snapshot().splits, splits + 1);
        tree.validate().unwrap();

        // At the floor — one node per shard — the leaf an overwrite has
        // just read is still cached when it is written: one triplet again.
        let (codec, counters, sealed) = make();
        let mut tree = grown(codec, counters, 0);
        assert!(tree.cached_nodes() <= NodeCache::new(0).capacity());
        let (_, leaf) = quiet_leaf(&tree, false);
        let overwrite = cost(&mut tree, &sealed, |tree| {
            assert!(tree.insert(leaf.keys[0], RecordPtr(1)).unwrap().is_some());
        });
        assert_eq!(overwrite, (1, leaf.n() as u64), "an overwrite at the floor");

        // With nothing copied from the replaced image, every write seals
        // its whole node.
        let (codec, counters, sealed) = make();
        let mut tree = grown(FromScratch(codec), counters, 1024);
        let (_, leaf) = quiet_leaf(&tree, false);
        let overwrite = cost(&mut tree, &sealed, |tree| {
            assert!(tree.insert(leaf.keys[0], RecordPtr(1)).unwrap().is_some());
        });
        let n = leaf.n() as u64;
        assert_eq!(overwrite, (n, n), "an overwrite sealed from scratch");
    }
}
