//! The high-level security filter of §4.3.
//!
//! A *security filter* (Denning's commutative filters, refs \[2\]/\[10\]) sits
//! between users and a commercial off-the-shelf DBMS that offers no access
//! to its low-level record routines. The filter (i) substitutes the search
//! field with the order-preserving sum-of-treatments value, (ii) enciphers
//! the record body, and (iii) binds both with a cryptographic checksum —
//! then hands the result to the *unmodified* DBMS. "Since the substitution
//! using the sum of treatments preserves the ordering of the original
//! search keys, the shape of the B-Tree would be the same as in the case
//! when no substitution was performed" — so the DBMS below is a perfectly
//! ordinary plaintext B-tree.

use sks_btree_core::{BTree, PlainCodec};
use sks_crypto::des::Des;
use sks_crypto::modes::{cbc_mac, ctr_xor};
use sks_crypto::speck::Speck64;
use sks_storage::{MemDisk, OpCounters, OpSnapshot};

use crate::disguise::{KeyDisguise, SumSubstitution};
use crate::error::CoreError;
use crate::records::RecordStore;

/// Secret material held by the filter (never by the DBMS).
pub struct FilterSecrets {
    /// Order-preserving key substitution (design + `w`).
    pub substitution: SumSubstitution,
    /// Record-body cipher key.
    pub record_key: u128,
    /// Checksum (CBC-MAC) key.
    pub checksum_key: u64,
}

/// The retrofit filter in front of a COTS DBMS stand-in.
pub struct SecurityFilter {
    substitution: SumSubstitution,
    record_cipher: Speck64,
    mac_cipher: Des,
    /// The unmodified DBMS: a *plaintext* B-tree — it never sees real keys
    /// or plaintext records.
    dbms: BTree<MemDisk, PlainCodec>,
    store: RecordStore<MemDisk>,
    counters: OpCounters,
}

impl SecurityFilter {
    pub fn new(secrets: FilterSecrets, block_size: usize) -> Result<Self, CoreError> {
        let counters = OpCounters::new();
        let disk = MemDisk::with_counters(block_size, counters.clone());
        let dbms = BTree::create(disk, PlainCodec::new(counters.clone()))?;
        // No record cache: the filter seals record bodies itself above
        // this layer, so cached plaintext here would only hold ciphertext.
        let store = RecordStore::create(
            MemDisk::with_counters(block_size, counters.clone()),
            secrets.record_key,
            0,
        )?;
        Ok(SecurityFilter {
            substitution: secrets.substitution,
            record_cipher: Speck64::from_u128(secrets.record_key ^ 0x5157),
            mac_cipher: Des::new(secrets.checksum_key),
            dbms,
            store,
            counters,
        })
    }

    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    pub fn snapshot(&self) -> OpSnapshot {
        self.counters.snapshot()
    }

    pub fn len(&self) -> u64 {
        self.dbms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dbms.is_empty()
    }

    fn checksum(&self, disguised_key: u64, ciphertext: &[u8]) -> u64 {
        let mut material = Vec::with_capacity(8 + ciphertext.len());
        material.extend_from_slice(&disguised_key.to_be_bytes());
        material.extend_from_slice(ciphertext);
        cbc_mac(&self.mac_cipher, &material)
    }

    /// Stores a record under `key`. The DBMS below only ever sees
    /// `(k̂, pointer)` and an opaque byte blob.
    pub fn insert(&mut self, key: u64, record: &[u8]) -> Result<(), CoreError> {
        let k_hat = self.substitution.disguise(key)?;
        self.counters.bump(|c| &c.data_encrypts);
        let ct = ctr_xor(&self.record_cipher, k_hat, record);
        let mac = self.checksum(k_hat, &ct);
        // Stored blob: mac ‖ ciphertext.
        let mut blob = Vec::with_capacity(8 + ct.len());
        blob.extend_from_slice(&mac.to_be_bytes());
        blob.extend_from_slice(&ct);
        let ptr = self.store.insert_keyed(k_hat, &blob)?;
        if let Some(old) = self.dbms.insert(k_hat, ptr)? {
            self.store.delete(old)?;
        }
        Ok(())
    }

    /// Retrieves and verifies the record stored under `key`.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, CoreError> {
        let k_hat = self.substitution.disguise(key)?;
        let Some(ptr) = self.dbms.get(k_hat)? else {
            return Ok(None);
        };
        let Some(blob) = self.store.get(ptr)? else {
            return Err(CoreError::Record("dangling pointer in DBMS index".into()));
        };
        self.open_blob(k_hat, &blob).map(Some)
    }

    /// Verifies a stored `mac ‖ ciphertext` blob against its disguised key
    /// and deciphers the record body.
    fn open_blob(&self, k_hat: u64, blob: &[u8]) -> Result<Vec<u8>, CoreError> {
        if blob.len() < 8 {
            return Err(CoreError::Integrity("blob too short for checksum".into()));
        }
        let stored_mac = u64::from_be_bytes(blob[0..8].try_into().expect("checked"));
        let ct = &blob[8..];
        if self.checksum(k_hat, ct) != stored_mac {
            return Err(CoreError::Integrity(format!(
                "checksum mismatch at disguised key {k_hat}: record tampered or swapped"
            )));
        }
        self.counters.bump(|c| &c.data_decrypts);
        Ok(ctr_xor(&self.record_cipher, k_hat, ct))
    }

    /// Deletes the record under `key`.
    pub fn delete(&mut self, key: u64) -> Result<bool, CoreError> {
        let k_hat = self.substitution.disguise(key)?;
        match self.dbms.delete(k_hat)? {
            Some(ptr) => {
                self.store.delete(ptr)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Range query — works because the substitution is order-preserving:
    /// the filter substitutes the *bounds* and the unmodified DBMS does an
    /// ordinary range scan over disguised values.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, CoreError> {
        if lo > hi {
            return Ok(Vec::new());
        }
        let cap = self.substitution.capacity();
        let lo_hat = self.substitution.disguise(lo.min(cap - 1))?;
        let hi_hat = self.substitution.disguise(hi.min(cap - 1))?;
        let mut out = Vec::new();
        for (k_hat, ptr) in self.dbms.range(lo_hat, hi_hat)? {
            let key = self.substitution.recover(k_hat)?;
            if key < lo || key > hi {
                continue;
            }
            let Some(blob) = self.store.get(ptr)? else {
                continue;
            };
            out.push((key, self.open_blob(k_hat, &blob)?));
        }
        Ok(out)
    }

    /// What the DBMS (and any attacker compromising it) actually sees:
    /// the disguised keys in index order.
    pub fn dbms_visible_keys(&self) -> Result<Vec<u64>, CoreError> {
        Ok(self.dbms.scan_all()?.into_iter().map(|(k, _)| k).collect())
    }

    /// The DBMS's tree height: the plaintext tree's (§4.3's claim), as
    /// `repro`'s E9 prints it.
    pub fn dbms_height(&self) -> u32 {
        self.dbms.height()
    }

    /// Tamper with the stored blob of `key` (test hook for the integrity
    /// experiment): flips one byte in the record store.
    pub fn tamper_with(&mut self, key: u64) -> Result<(), CoreError> {
        let k_hat = self.substitution.disguise(key)?;
        let Some(ptr) = self.dbms.get(k_hat)? else {
            return Err(CoreError::Record("no such key".into()));
        };
        let Some(mut blob) = self.store.get(ptr)? else {
            return Err(CoreError::Record("dangling pointer".into()));
        };
        let last = blob.len() - 1;
        blob[last] ^= 0xFF;
        self.store.delete(ptr)?;
        let new_ptr = self.store.insert_keyed(k_hat, &blob)?;
        self.dbms.insert(k_hat, new_ptr)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_designs::diffset::DifferenceSet;

    fn filter() -> SecurityFilter {
        let counters = OpCounters::new();
        let substitution = SumSubstitution::new(
            DifferenceSet::singer(13).unwrap(), // v = 183
            9,
            150,
            counters,
        )
        .unwrap();
        SecurityFilter::new(
            FilterSecrets {
                substitution,
                record_key: 0x0123_4567_89AB_CDEF_1122_3344_5566_7788,
                checksum_key: 0xA1B2C3D4E5F60708,
            },
            512,
        )
        .unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut f = filter();
        for k in 0..100u64 {
            f.insert(k, format!("employee #{k}: salary {}", 1000 * k).as_bytes())
                .unwrap();
        }
        for k in 0..100u64 {
            let got = f.get(k).unwrap().unwrap();
            assert_eq!(
                got,
                format!("employee #{k}: salary {}", 1000 * k).into_bytes()
            );
        }
        assert_eq!(f.get(149).unwrap(), None);
    }

    #[test]
    fn dbms_never_sees_real_keys_or_plaintext() {
        let mut f = filter();
        for k in 0..50u64 {
            f.insert(k, b"CONFIDENTIAL-BODY").unwrap();
        }
        let visible = f.dbms_visible_keys().unwrap();
        // No real key (0..50) appears among visible index keys.
        for k in 0..50u64 {
            assert!(!visible.contains(&k), "real key {k} leaked to DBMS");
        }
        // Visible keys are ascending (the DBMS is an ordinary ordered index).
        assert!(visible.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_queries_survive_the_filter() {
        let mut f = filter();
        for k in (0..120u64).step_by(2) {
            f.insert(k, &k.to_be_bytes()).unwrap();
        }
        let got: Vec<u64> = f.range(10, 31).unwrap().iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = (10..=31).filter(|k| k % 2 == 0).collect();
        assert_eq!(got, want);
        // Full range.
        assert_eq!(f.range(0, 149).unwrap().len(), 60);
        // Empty and inverted.
        assert!(f.range(11, 11).unwrap().is_empty());
        assert!(f.range(31, 10).unwrap().is_empty());
    }

    #[test]
    fn tampering_is_detected() {
        let mut f = filter();
        f.insert(7, b"original payroll row").unwrap();
        f.tamper_with(7).unwrap();
        let err = f.get(7).unwrap_err();
        assert!(matches!(err, CoreError::Integrity(_)), "got: {err}");
    }

    #[test]
    fn delete_works() {
        let mut f = filter();
        f.insert(3, b"x").unwrap();
        assert!(f.delete(3).unwrap());
        assert!(!f.delete(3).unwrap());
        assert_eq!(f.get(3).unwrap(), None);
    }

    #[test]
    fn replacement_updates_record() {
        let mut f = filter();
        f.insert(5, b"v1").unwrap();
        f.insert(5, b"v2").unwrap();
        assert_eq!(f.get(5).unwrap().unwrap(), b"v2");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn shape_equals_plaintext_shape() {
        // Build a plaintext tree over the same keys and compare heights:
        // order preservation means identical shape (§4.3).
        let mut f = filter();
        let keys: Vec<u64> = (0..150).collect();
        for &k in &keys {
            f.insert(k, b"r").unwrap();
        }
        let counters = OpCounters::new();
        let disk = MemDisk::with_counters(512, counters.clone());
        let mut plain = BTree::create(disk, PlainCodec::new(counters)).unwrap();
        for &k in &keys {
            plain.insert(k, sks_btree_core::RecordPtr(k)).unwrap();
        }
        assert_eq!(f.dbms_height(), plain.height());
    }
}
