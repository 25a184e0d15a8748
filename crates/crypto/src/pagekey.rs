//! The Bayer–Metzger page-key scheme (§2 of the paper; Bayer & Metzger,
//! TODS 1976).
//!
//! Every page `P_i` of a file has an id `P_id`; its page key is derived from
//! the file (tree) key `K_E` as `K_{P_i} = PK(K_E, P_id)`, and the page
//! contents are enciphered under `K_{P_i}`. Two identical data items stored
//! in different pages therefore produce different cryptograms — the property
//! the attacker experiments verify — at the cost that moving a triplet to
//! another page forces re-encipherment (the overhead §3 sets out to remove).

use crate::cipher::BlockCipher64;
use crate::des::Des;
use crate::speck::Speck64;

/// Which block cipher instantiates `T` (the text-encryption function).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCipherKind {
    Des,
    Speck,
}

/// Derives per-page keys and ciphers from a single secret file key.
#[derive(Clone)]
pub struct PageKeyScheme {
    file: FileKey,
}

/// `K_E` in the form `PK` uses it.
#[derive(Clone)]
enum FileKey {
    /// DES keyed under `K_E`, once: `PK` is one block encipherment.
    Des(Des),
    /// Speck's `PK` folds the page id into the cipher key, so it keys
    /// per page.
    Speck(u64),
}

impl std::fmt::Debug for PageKeyScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = self.kind();
        write!(
            f,
            "PageKeyScheme {{ kind: {kind:?}, file_key: <redacted> }}"
        )
    }
}

impl PageKeyScheme {
    pub fn new(file_key: u64, kind: PageCipherKind) -> Self {
        let file = match kind {
            PageCipherKind::Des => FileKey::Des(Des::new(file_key)),
            PageCipherKind::Speck => FileKey::Speck(file_key),
        };
        PageKeyScheme { file }
    }

    /// `PK(K_E, P_id)`: the page key is the encipherment of the page id
    /// under the file key (a standard realisation of Bayer–Metzger's `PK`).
    pub fn page_key(&self, page_id: u64) -> u64 {
        match &self.file {
            FileKey::Des(file_cipher) => file_cipher.encrypt_block(page_id),
            FileKey::Speck(file_key) => {
                Speck64::from_u128(((*file_key as u128) << 64) | page_id as u128 ^ 0x5a5a)
                    .encrypt_block(page_id)
            }
        }
    }

    /// Builds the text cipher `T` keyed for page `page_id`.
    pub fn page_cipher(&self, page_id: u64) -> Box<dyn BlockCipher64 + Send + Sync> {
        let key = self.page_key(page_id);
        match self.kind() {
            PageCipherKind::Des => Box::new(Des::new(key)),
            PageCipherKind::Speck => {
                Box::new(Speck64::from_u128(((key as u128) << 64) | (!key as u128)))
            }
        }
    }

    pub fn kind(&self) -> PageCipherKind {
        match self.file {
            FileKey::Des(_) => PageCipherKind::Des,
            FileKey::Speck(_) => PageCipherKind::Speck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_pages_get_different_keys() {
        let scheme = PageKeyScheme::new(0xA5A5_5A5A_DEAD_BEEF, PageCipherKind::Des);
        let k1 = scheme.page_key(1);
        let k2 = scheme.page_key(2);
        assert_ne!(k1, k2);
        // And deterministic.
        assert_eq!(k1, scheme.page_key(1));
    }

    #[test]
    fn identical_plaintext_different_pages_different_cryptograms() {
        // The core Bayer–Metzger property quoted in §3 of the paper.
        let scheme = PageKeyScheme::new(42, PageCipherKind::Des);
        let c1 = scheme.page_cipher(10).encrypt_block(0x1234);
        let c2 = scheme.page_cipher(11).encrypt_block(0x1234);
        assert_ne!(c1, c2);
    }

    #[test]
    fn different_file_keys_isolate_files() {
        let a = PageKeyScheme::new(1, PageCipherKind::Des);
        let b = PageKeyScheme::new(2, PageCipherKind::Des);
        assert_ne!(a.page_key(7), b.page_key(7));
    }

    #[test]
    fn debug_redacts_the_file_key() {
        let key = 0xA5A5_5A5A_DEAD_BEEFu64;
        for kind in [PageCipherKind::Des, PageCipherKind::Speck] {
            let shown = format!("{:?}", PageKeyScheme::new(key, kind)).to_lowercase();
            assert!(shown.contains("redacted"), "{shown}");
            assert!(!shown.contains(&key.to_string()), "{shown}");
            assert!(!shown.contains(&format!("{key:x}")), "{shown}");
        }
    }

    #[test]
    fn page_cipher_roundtrips_for_both_kinds() {
        for kind in [PageCipherKind::Des, PageCipherKind::Speck] {
            let scheme = PageKeyScheme::new(0x0F0F_F0F0, kind);
            let cipher = scheme.page_cipher(99);
            for pt in [0u64, 7, u64::MAX] {
                assert_eq!(cipher.decrypt_block(cipher.encrypt_block(pt)), pt);
            }
        }
    }
}
