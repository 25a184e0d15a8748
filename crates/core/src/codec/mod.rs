//! Node-block encipherment codecs — §3 and §5 of the paper.
//!
//! Four on-disk formats, all implementing
//! [`NodeCodec`](sks_btree_core::NodeCodec):
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

use sks_btree_core::CodecError;
use sks_crypto::cipher::BlockCipher64;
use sks_crypto::des::Des;
use sks_crypto::rsa::RsaKey;
use sks_crypto::speck::Speck64;

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
        let pt = self
            .key
            .decrypt_bytes(ct)
            .map_err(|e| CodecError::Corrupt(format!("rsa unseal: {e}")))?;
        pt.try_into()
            .map_err(|_| CodecError::Corrupt("rsa unseal produced wrong payload width".into()))
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

impl sks_btree_core::NodeCodec for AnyCodec {
    fn encode(&self, node: &sks_btree_core::Node, page: &mut [u8]) -> Result<(), CodecError> {
        match self {
            AnyCodec::Plain(c) => c.encode(node, page),
            AnyCodec::Substitution(c) => c.encode(node, page),
            AnyCodec::BayerMetzger(c) => c.encode(node, page),
            AnyCodec::FullPage(c) => c.encode(node, page),
        }
    }

    fn decode(
        &self,
        id: sks_storage::BlockId,
        page: &[u8],
    ) -> Result<sks_btree_core::Node, CodecError> {
        match self {
            AnyCodec::Plain(c) => c.decode(id, page),
            AnyCodec::Substitution(c) => c.decode(id, page),
            AnyCodec::BayerMetzger(c) => c.decode(id, page),
            AnyCodec::FullPage(c) => c.decode(id, page),
        }
    }

    fn probe(
        &self,
        id: sks_storage::BlockId,
        page: &[u8],
        key: u64,
    ) -> Result<sks_btree_core::Probe, CodecError> {
        match self {
            AnyCodec::Plain(c) => c.probe(id, page, key),
            AnyCodec::Substitution(c) => c.probe(id, page, key),
            AnyCodec::BayerMetzger(c) => c.probe(id, page, key),
            AnyCodec::FullPage(c) => c.probe(id, page, key),
        }
    }

    fn max_keys(&self, page_size: usize) -> usize {
        match self {
            AnyCodec::Plain(c) => c.max_keys(page_size),
            AnyCodec::Substitution(c) => c.max_keys(page_size),
            AnyCodec::BayerMetzger(c) => c.max_keys(page_size),
            AnyCodec::FullPage(c) => c.max_keys(page_size),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyCodec::Plain(c) => c.name(),
            AnyCodec::Substitution(c) => c.name(),
            AnyCodec::BayerMetzger(c) => c.name(),
            AnyCodec::FullPage(c) => c.name(),
        }
    }

    fn supports_node_cache(&self) -> bool {
        match self {
            AnyCodec::Plain(c) => c.supports_node_cache(),
            AnyCodec::Substitution(c) => c.supports_node_cache(),
            AnyCodec::BayerMetzger(c) => c.supports_node_cache(),
            AnyCodec::FullPage(c) => c.supports_node_cache(),
        }
    }

    fn decode_for_cache(
        &self,
        id: sks_storage::BlockId,
        page: &[u8],
    ) -> Result<sks_btree_core::CachedNode, CodecError> {
        match self {
            AnyCodec::Plain(c) => c.decode_for_cache(id, page),
            AnyCodec::Substitution(c) => c.decode_for_cache(id, page),
            AnyCodec::BayerMetzger(c) => c.decode_for_cache(id, page),
            AnyCodec::FullPage(c) => c.decode_for_cache(id, page),
        }
    }

    fn probe_cached(
        &self,
        entry: &sks_btree_core::CachedNode,
        key: u64,
    ) -> Result<sks_btree_core::Probe, CodecError> {
        match self {
            AnyCodec::Plain(c) => c.probe_cached(entry, key),
            AnyCodec::Substitution(c) => c.probe_cached(entry, key),
            AnyCodec::BayerMetzger(c) => c.probe_cached(entry, key),
            AnyCodec::FullPage(c) => c.probe_cached(entry, key),
        }
    }

    fn decode_cached(
        &self,
        entry: &sks_btree_core::CachedNode,
    ) -> Result<sks_btree_core::Node, CodecError> {
        match self {
            AnyCodec::Plain(c) => c.decode_cached(entry),
            AnyCodec::Substitution(c) => c.decode_cached(entry),
            AnyCodec::BayerMetzger(c) => c.decode_cached(entry),
            AnyCodec::FullPage(c) => c.decode_cached(entry),
        }
    }

    fn supports_write_behind(&self) -> bool {
        match self {
            AnyCodec::Plain(c) => c.supports_write_behind(),
            AnyCodec::Substitution(c) => c.supports_write_behind(),
            AnyCodec::BayerMetzger(c) => c.supports_write_behind(),
            AnyCodec::FullPage(c) => c.supports_write_behind(),
        }
    }

    fn encode_to_cache(
        &self,
        node: &sks_btree_core::Node,
        page_len: usize,
    ) -> Result<sks_btree_core::CachedNode, CodecError> {
        match self {
            AnyCodec::Plain(c) => c.encode_to_cache(node, page_len),
            AnyCodec::Substitution(c) => c.encode_to_cache(node, page_len),
            AnyCodec::BayerMetzger(c) => c.encode_to_cache(node, page_len),
            AnyCodec::FullPage(c) => c.encode_to_cache(node, page_len),
        }
    }

    fn encode_from_cache(
        &self,
        entry: &sks_btree_core::CachedNode,
        page: &mut [u8],
    ) -> Result<(), CodecError> {
        match self {
            AnyCodec::Plain(c) => c.encode_from_cache(entry, page),
            AnyCodec::Substitution(c) => c.encode_from_cache(entry, page),
            AnyCodec::BayerMetzger(c) => c.encode_from_cache(entry, page),
            AnyCodec::FullPage(c) => c.encode_from_cache(entry, page),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheme, SchemeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sks_btree_core::{Node, NodeCodec, RecordPtr};
    use sks_storage::{BlockId, OpCounters, OpSnapshot};

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

    /// The cache entry's contract, for every scheme: whatever mix of
    /// probes and whole-node decodes an entry has served, each answer and
    /// each counter delta is the raw page operation's — for an entry
    /// filled lazily from the page and for one born complete alike.
    #[test]
    fn cached_entries_replay_raw_probe_and_decode_exactly_for_every_scheme() {
        let mut rng = StdRng::seed_from_u64(21);
        for scheme in Scheme::ALL {
            let counters = OpCounters::new();
            let config = SchemeConfig::with_capacity(scheme, 64);
            let (codec, _) = config.build_codec(&counters).unwrap();
            for round in 0..10u32 {
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
                let lazy = codec.decode_for_cache(node.id, &page).unwrap();
                let born = codec.encode_to_cache(&node, page.len()).unwrap();
                for step in 0..40 {
                    let what = format!("{scheme:?} round {round} step {step}");
                    if rng.gen_bool(0.15) {
                        let raw = charged(&counters, || codec.decode(node.id, &page));
                        // (Not `== node`: the figure-literal construction
                        // is not injective, with or without a cache.)
                        assert!(raw.0.is_ok(), "{what}");
                        for entry in [&lazy, &born] {
                            let cached = charged(&counters, || codec.decode_cached(entry));
                            assert_eq!(cached, raw, "{what}: decode");
                        }
                    } else {
                        let key = rng.gen_range(0..15u64);
                        let raw = charged(&counters, || codec.probe(node.id, &page, key));
                        for entry in [&lazy, &born] {
                            let cached = charged(&counters, || codec.probe_cached(entry, key));
                            assert_eq!(cached, raw, "{what}: probe {key}");
                        }
                    }
                }
            }
        }
    }
}
