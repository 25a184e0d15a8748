//! The original Bayer–Metzger *page* scheme (§2): the whole node block is a
//! single cryptogram under the page key.
//!
//! Simple and maximally opaque, but any access — even probing a single key —
//! decrypts the entire page. Counters record one `page_decrypt` per cipher
//! block processed (the honest hardware-unit cost), so for a `B`-byte page
//! each probe pays `B/8` block decryptions versus `log₂ n` triplets
//! (Bayer–Metzger refined) versus one pointer seal (the paper's scheme).

use sks_btree_core::codec::{read_plain, write_plain};
use sks_btree_core::{never_sealed, CachedNode, CodecError, Node, NodeCodec, Probe};
use sks_crypto::cipher::BlockCipher64;
use sks_crypto::pagekey::PageKeyScheme;
use sks_storage::{BlockId, OpCounters};

const TAG: u8 = 0x50; // 'P'

/// Whole-page encipherment codec.
pub struct FullPageCodec {
    pages: PageKeyScheme,
    counters: OpCounters,
}

impl FullPageCodec {
    pub fn new(pages: PageKeyScheme, counters: OpCounters) -> Self {
        FullPageCodec { pages, counters }
    }

    fn cipher_blocks(page_len: usize) -> u64 {
        (page_len / 8) as u64
    }

    fn encrypt_page(&self, cipher: &dyn BlockCipher64, page: &mut [u8]) {
        // CBC over the whole page, zero IV (the page key is unique per
        // block, which is what provides cross-page distinctness).
        let mut prev = 0u64;
        for chunk in page.chunks_exact_mut(8) {
            let b = u64::from_be_bytes(chunk.try_into().expect("exact chunk"));
            let c = cipher.encrypt_block(b ^ prev);
            chunk.copy_from_slice(&c.to_be_bytes());
            prev = c;
        }
        self.counters
            .bump_by(|c| &c.page_encrypts, Self::cipher_blocks(page.len()));
    }

    /// Deciphers the whole page (the physical work; callers charge
    /// `page_decrypts`).
    fn decrypt_page(cipher: &dyn BlockCipher64, page: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; page.len()];
        let mut prev = 0u64;
        for (i, chunk) in page.chunks_exact(8).enumerate() {
            let c = u64::from_be_bytes(chunk.try_into().expect("exact chunk"));
            let b = cipher.decrypt_block(c) ^ prev;
            out[i * 8..(i + 1) * 8].copy_from_slice(&b.to_be_bytes());
            prev = c;
        }
        out
    }

    /// A whole-page decode straight off the medium, charged as it goes:
    /// the oracle [`NodeCodec::decode_cached`] is checked against.
    #[cfg(test)]
    pub(crate) fn raw_decode(&self, id: BlockId, page: &[u8]) -> Result<Node, CodecError> {
        self.counters
            .bump_by(|c| &c.page_decrypts, Self::cipher_blocks(page.len()));
        let cipher = self.pages.page_cipher(id.as_u64());
        read_plain(TAG, id, &Self::decrypt_page(cipher.as_ref(), page))
    }
}

impl NodeCodec for FullPageCodec {
    fn encode_over(
        &self,
        node: &Node,
        _prev: Option<&CachedNode>,
        page: &mut [u8],
    ) -> Result<CachedNode, CodecError> {
        if !page.len().is_multiple_of(8) {
            return Err(CodecError::Corrupt(
                "page size must be a multiple of the cipher block (8)".into(),
            ));
        }
        write_plain(TAG, node, page)?;
        let cipher = self.pages.page_cipher(node.id.as_u64());
        self.encrypt_page(cipher.as_ref(), page);
        // The node just enciphered is the whole image: nothing is
        // deciphered back.
        Ok(CachedNode::complete(node, page.len()))
    }

    fn max_keys(&self, page_size: usize) -> usize {
        if page_size <= sks_btree_core::NODE_HEADER_LEN + 4 {
            return 0;
        }
        (page_size - sks_btree_core::NODE_HEADER_LEN - 4) / 20
    }

    fn name(&self) -> &'static str {
        "bm-full-page"
    }

    fn decode_for_cache(&self, id: BlockId, page: &[u8]) -> Result<CachedNode, CodecError> {
        // Nothing to be lazy about — one cryptogram holds everything — so
        // the entry is born complete.
        if !page.len().is_multiple_of(8) {
            return Err(CodecError::Corrupt(
                "page size must be a multiple of the cipher block (8)".into(),
            ));
        }
        let cipher = self.pages.page_cipher(id.as_u64());
        let plain = Self::decrypt_page(cipher.as_ref(), page);
        let node = read_plain(TAG, id, &plain)?;
        Ok(CachedNode::complete(&node, page.len()))
    }

    fn complete(&self, entry: &CachedNode) -> Result<(), CodecError> {
        // A decode deciphers the whole page; the entry was born complete.
        self.counters
            .bump_by(|c| &c.page_decrypts, Self::cipher_blocks(entry.page_len()));
        entry.fill_keys(never_sealed, |_, t| Ok(t.key)).map(drop)
    }

    fn probe_cached(&self, entry: &CachedNode, key: u64) -> Result<Probe, CodecError> {
        // No partial access: a probe always charges the whole page's worth
        // of block decryptions before searching.
        self.counters
            .bump_by(|c| &c.page_decrypts, Self::cipher_blocks(entry.page_len()));
        // The entry was born complete: its keys are the page's.
        let found = entry.keys().unwrap_or_default().binary_search(key);
        if found.is_err() {
            self.counters.bump(|c| &c.key_compares);
        }
        Probe::resolve(found, entry.is_leaf(), |slot| {
            entry.triplet(slot, never_sealed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_btree_core::RecordPtr;
    use sks_crypto::pagekey::PageCipherKind;

    fn codec() -> (FullPageCodec, OpCounters) {
        let counters = OpCounters::new();
        (
            FullPageCodec::new(
                PageKeyScheme::new(0xFACE_0FF0_1234_5678, PageCipherKind::Des),
                counters.clone(),
            ),
            counters,
        )
    }

    fn sample() -> Node {
        Node {
            id: BlockId(4),
            keys: vec![3, 6, 9],
            data_ptrs: vec![RecordPtr(30), RecordPtr(60), RecordPtr(90)],
            children: vec![BlockId(10), BlockId(11), BlockId(12), BlockId(13)],
        }
    }

    #[test]
    fn roundtrip() {
        let (codec, _) = codec();
        let node = sample();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert_eq!(codec.decode(BlockId(4), &page).unwrap(), node);
    }

    #[test]
    fn nothing_is_plaintext_on_disk() {
        let (codec, _) = codec();
        let node = sample();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert_ne!(page[0], TAG, "even the header is enciphered");
        for &k in &node.keys {
            let needle = k.to_be_bytes();
            assert_eq!(page.windows(8).filter(|w| *w == needle).count(), 0);
        }
    }

    #[test]
    fn probe_pays_whole_page_decryption() {
        let (codec, counters) = codec();
        let node = sample();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        counters.reset();
        let p = codec.probe(BlockId(4), &page, 6).unwrap();
        assert_eq!(
            p,
            Probe::Found {
                data_ptr: RecordPtr(60)
            }
        );
        let s = counters.snapshot();
        assert_eq!(s.page_decrypts, 256 / 8, "every cipher block of the page");
    }

    #[test]
    fn wrong_block_or_key_fails() {
        let (codec, _) = codec();
        let node = sample();
        let mut page = vec![0u8; 256];
        codec.encode(&node, &mut page).unwrap();
        assert!(codec.decode(BlockId(5), &page).is_err());
        let other = FullPageCodec::new(
            PageKeyScheme::new(0x999, PageCipherKind::Des),
            OpCounters::new(),
        );
        assert!(other.decode(BlockId(4), &page).is_err());
    }

    #[test]
    fn ragged_page_rejected() {
        let (codec, _) = codec();
        let node = sample();
        let mut page = vec![0u8; 255];
        assert!(matches!(
            codec.encode(&node, &mut page),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn same_node_content_different_blocks_differ() {
        let (codec, _) = codec();
        let mut a = Node::leaf(BlockId(1));
        a.keys = vec![5];
        a.data_ptrs = vec![RecordPtr(50)];
        let mut b = a.clone();
        b.id = BlockId(2);
        let mut pa = vec![0u8; 128];
        let mut pb = vec![0u8; 128];
        codec.encode(&a, &mut pa).unwrap();
        codec.encode(&b, &mut pb).unwrap();
        assert_ne!(pa, pb);
    }
}
