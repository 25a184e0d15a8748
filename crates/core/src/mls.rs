//! Multilevel-secure records — §5's closing suggestion: "It may also allow
//! each triplet in a node block to be assigned a security level,
//! restricting access to data by users of lower security clearances."
//!
//! Every record carries a security level; its body is enciphered under a
//! key derived from the Akl–Taylor hierarchy
//! ([`sks_crypto::multilevel::KeyHierarchy`]). A user holding a clearance
//! at level `c` can open records at levels `c..=L` (derivation walks
//! *down* the hierarchy only); opening a more sensitive record fails with
//! a typed error, without any per-record key distribution.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sks_btree_core::RecordPtr;
use sks_crypto::multilevel::{ClearanceKey, KeyHierarchy, Level};
use sks_crypto::speck::Speck64;
use sks_storage::BlockStore;

use crate::error::CoreError;
use crate::records::RecordStore;

/// A record store where every record is bound to a security level.
pub struct MultilevelRecordStore<S: BlockStore> {
    store: RecordStore<S>,
    hierarchy: KeyHierarchy,
}

impl<S: BlockStore> MultilevelRecordStore<S> {
    /// Builds the store with a fresh `levels`-deep hierarchy (deterministic
    /// from `seed`; real deployments would persist the authority's secret).
    pub fn new(store: S, levels: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let hierarchy = KeyHierarchy::generate(&mut rng, 192, levels);
        // The outer RecordStore layer uses a fixed key and provides no
        // secrecy here; all protection comes from the per-level cipher
        // applied to the frame body below.
        MultilevelRecordStore {
            store: RecordStore::create(store, 0, 0).expect("fresh store for the MLS layer"),
            hierarchy,
        }
    }

    /// The central authority view (minting clearances for users).
    pub fn hierarchy(&self) -> &KeyHierarchy {
        &self.hierarchy
    }

    fn level_cipher(&self, clearance: &ClearanceKey, level: Level) -> Result<Speck64, CoreError> {
        let key = clearance
            .derive(level)
            .map_err(|e| CoreError::Integrity(format!("clearance check failed: {e}")))?
            .cipher_key64();
        Ok(Speck64::from_u128(((key as u128) << 64) | (!key as u128)))
    }

    /// Stores `record` at `level`, enciphered under the level key. The
    /// caller must present a clearance able to *write* at that level (same
    /// dominance rule as reads).
    pub fn insert(
        &mut self,
        clearance: &ClearanceKey,
        level: Level,
        record: &[u8],
    ) -> Result<RecordPtr, CoreError> {
        let cipher = self.level_cipher(clearance, level)?;
        // Frame: [level u32][ciphertext…] — the level tag is public
        // metadata (clearance labels usually are). There is no tree here
        // and nothing ever compacts, so the record's owning key is just
        // its level tag.
        let mut framed = Vec::with_capacity(4 + record.len());
        framed.extend_from_slice(&level.to_be_bytes());
        framed.extend_from_slice(&sks_crypto::modes::ctr_xor(&cipher, level as u64, record));
        self.store.insert_keyed(level as u64, &framed)
    }

    /// The level tag of a stored record (readable by anyone — labels are
    /// public; contents are not), as `repro`'s E10 prints it (§5).
    pub fn level_of(&self, ptr: RecordPtr) -> Result<Option<Level>, CoreError> {
        let Some(framed) = self.store.get(ptr)? else {
            return Ok(None);
        };
        if framed.len() < 4 {
            return Err(CoreError::Record("truncated multilevel frame".into()));
        }
        Ok(Some(u32::from_be_bytes(
            framed[0..4].try_into().expect("length checked"),
        )))
    }

    /// Opens a record with the presented clearance. Fails with
    /// [`CoreError::Integrity`] when the record's level dominates the
    /// clearance.
    pub fn get(
        &self,
        clearance: &ClearanceKey,
        ptr: RecordPtr,
    ) -> Result<Option<Vec<u8>>, CoreError> {
        let Some(framed) = self.store.get(ptr)? else {
            return Ok(None);
        };
        if framed.len() < 4 {
            return Err(CoreError::Record("truncated multilevel frame".into()));
        }
        let level = u32::from_be_bytes(framed[0..4].try_into().expect("length checked"));
        let cipher = self.level_cipher(clearance, level)?;
        Ok(Some(sks_crypto::modes::ctr_xor(
            &cipher,
            level as u64,
            &framed[4..],
        )))
    }

    pub fn delete(&mut self, ptr: RecordPtr) -> Result<bool, CoreError> {
        self.store.delete(ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_storage::MemDisk;

    fn store() -> MultilevelRecordStore<MemDisk> {
        MultilevelRecordStore::new(MemDisk::new(512), 4, 2026)
    }

    #[test]
    fn clearance_dominance_enforced() {
        let mut mls = store();
        let authority = mls.hierarchy().clearance(1).unwrap();
        // One record per level, written by the authority.
        let ptrs: Vec<(Level, RecordPtr)> = (1..=4u32)
            .map(|level| {
                let rec = format!("level-{level} contents");
                (
                    level,
                    mls.insert(&authority, level, rec.as_bytes()).unwrap(),
                )
            })
            .collect();

        // A level-3 user reads levels 3 and 4, is refused 1 and 2.
        let user = mls.hierarchy().clearance(3).unwrap();
        for &(level, ptr) in &ptrs {
            let result = mls.get(&user, ptr);
            if level >= 3 {
                assert_eq!(
                    result.unwrap().unwrap(),
                    format!("level-{level} contents").into_bytes()
                );
            } else {
                assert!(
                    matches!(result, Err(CoreError::Integrity(_))),
                    "level {level}"
                );
            }
        }
    }

    #[test]
    fn level_tags_are_public_contents_are_not() {
        let mut mls = store();
        let authority = mls.hierarchy().clearance(1).unwrap();
        let ptr = mls.insert(&authority, 2, b"classified payload").unwrap();
        // Anyone can read the label…
        assert_eq!(mls.level_of(ptr).unwrap(), Some(2));
        // …but the payload is not in the raw frame.
        let low_user = mls.hierarchy().clearance(4).unwrap();
        assert!(mls.get(&low_user, ptr).is_err());
    }

    #[test]
    fn delete_and_missing() {
        let mut mls = store();
        let authority = mls.hierarchy().clearance(1).unwrap();
        let ptr = mls.insert(&authority, 1, b"x").unwrap();
        assert!(mls.delete(ptr).unwrap());
        assert_eq!(mls.get(&authority, ptr).unwrap(), None);
        assert_eq!(mls.level_of(ptr).unwrap(), None);
    }

    #[test]
    fn same_plaintext_different_levels_differ_on_disk() {
        let mut mls = store();
        let authority = mls.hierarchy().clearance(1).unwrap();
        let p1 = mls.insert(&authority, 1, b"identical-body!!").unwrap();
        let p2 = mls.insert(&authority, 2, b"identical-body!!").unwrap();
        let a = mls.get(&authority, p1).unwrap().unwrap();
        let b = mls.get(&authority, p2).unwrap().unwrap();
        assert_eq!(a, b, "plaintexts agree");
        // Raw frames differ beyond the level tag (different level keys).
        let u1 = mls.store.get(p1).unwrap().unwrap();
        let u2 = mls.store.get(p2).unwrap().unwrap();
        assert_ne!(u1[4..], u2[4..]);
    }
}
