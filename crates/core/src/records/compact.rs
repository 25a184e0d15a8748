//! Record-store compaction: the dead/live accounting, victim choice and
//! `compact_block`.
//!
//! Deletes tombstone slots and the store tracks the dead set per block; the
//! compactor ([`crate::EncipheredBTree::compact_step`]) rewrites a block's
//! live records into fresh slots and returns the block to the store's free
//! list at once, victims deadest ratio first. Nothing of that reaches the
//! medium before the next checkpoint, which commits the data file and the
//! node file holding the repointed tree together, so no reopen sees a
//! freed block that a committed pointer still names. The per-block
//! live/dead counts come from the slot directory, which marks tombstones in
//! plaintext: complete from `create`, and rebuilt after a reopen by one
//! header-only sweep with no cryptography on the first pass that needs
//! them. Both maintenance reads borrow the page where the store holds it.

use sks_btree_core::RecordPtr;
use sks_storage::{BlockId, BlockStore};

use super::{Placement, RecordStore, KEY_LEN, TOMBSTONE};
use crate::error::CoreError;

impl<S: BlockStore> RecordStore<S> {
    /// Ensures the dead/live accounting covers the whole store. Fresh
    /// stores are complete by construction; a reopened one pays one
    /// O(blocks) sweep of the slot directories here — headers only, no
    /// cryptography — on the first maintenance pass after restart (which
    /// also picks up garbage left by a pre-crash epoch).
    fn ensure_accounting(&mut self) -> Result<(), CoreError> {
        if self.accounting_complete {
            return Ok(());
        }
        self.dead.clear();
        self.live.clear();
        for b in 1..self.store.num_blocks() {
            let mut counted = Ok((0, 0));
            let read = self.store.read_with(BlockId(b), &mut |page| {
                counted = Self::count_slots(page);
            });
            let (n_slots, dead) = match read {
                Ok(()) => counted?,
                Err(sks_storage::StorageError::FreedBlock { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            if dead > 0 {
                self.dead.insert(b, dead);
            }
            let live = n_slots as u32 - dead;
            if live > 0 {
                self.live.insert(b, live);
            }
        }
        self.accounting_complete = true;
        Ok(())
    }

    /// A data page's slot count and how many of its slots are tombstones.
    fn count_slots(page: &[u8]) -> Result<(u16, u32), CoreError> {
        let (_, n_slots, _) = Self::read_page_meta(page)?;
        let mut dead = 0u32;
        for slot in 0..n_slots {
            if Self::slot_entry(page, slot)?.0 == TOMBSTONE {
                dead += 1;
            }
        }
        Ok((n_slots, dead))
    }

    /// Total tombstoned slots awaiting compaction (rebuilds the accounting
    /// if this store was reopened).
    pub fn pending_tombstones(&mut self) -> Result<u64, CoreError> {
        self.ensure_accounting()?;
        Ok(self.dead.values().map(|&d| d as u64).sum())
    }

    /// Live record slots across the store, from the accounting (rebuilt if
    /// this store was reopened).
    pub(crate) fn live_record_slots(&mut self) -> Result<u64, CoreError> {
        self.ensure_accounting()?;
        Ok(self.live.values().map(|&l| l as u64).sum())
    }

    /// Cheap pre-check: `true` when tombstones *may* exist (always true on
    /// a freshly reopened store until the first sweep rebuilds the map).
    pub fn may_have_tombstones(&self) -> bool {
        !self.accounting_complete || !self.dead.is_empty()
    }

    /// The next `max_blocks` compaction victims, *deadest ratio first*
    /// (ties broken by ascending block id, so the order is deterministic
    /// across backends), excluding the open fill block. Each budget unit
    /// rewrites the block with the least live data, reclaiming maximal
    /// space per unit.
    ///
    /// `min_dead_pct` keeps the pass proportional to actual churn: a
    /// block qualifies only once at least that percentage of its records
    /// are dead. At 0 every block with a single dead record qualifies —
    /// full drain semantics, where reclaiming a one-dead block can mean
    /// re-sealing a hundred live records (and their node pointers) for a
    /// few bytes of space.
    fn compaction_victims(&self, max_blocks: usize, min_dead_pct: u8) -> Vec<BlockId> {
        let mut victims: Vec<(u32, u32, u32)> = self
            .dead
            .iter()
            .filter(|&(&b, _)| Some(BlockId(b)) != self.open_block)
            .map(|(&b, &dead)| (b, dead, self.live.get(&b).copied().unwrap_or(0)))
            .filter(|&(_, dead, live)| {
                dead as u64 * 100 >= min_dead_pct as u64 * (dead + live) as u64
            })
            .collect();
        // dead_a/(dead_a+live_a) > dead_b/(dead_b+live_b), cross-multiplied
        // to stay in integers.
        victims.sort_unstable_by(|&(ba, da, la), &(bb, db, lb)| {
            let lhs = da as u64 * (db + lb) as u64;
            let rhs = db as u64 * (da + la) as u64;
            rhs.cmp(&lhs).then(ba.cmp(&bb))
        });
        victims.truncate(max_blocks);
        victims.into_iter().map(|(b, _, _)| BlockId(b)).collect()
    }

    /// Deciphers the live records of `block` (silently — compaction is
    /// below the paper's cost model) as `(slot, key, value)`. The sealed
    /// records are copied out of the lent page, not the page itself.
    fn live_records(&self, block: BlockId) -> Result<Vec<(u16, u64, Vec<u8>)>, CoreError> {
        let mut copied = Ok((0, Vec::new()));
        self.store.read_with(block, &mut |page| {
            copied = Self::sealed_records(page);
        })?;
        let (generation, mut sealed) = copied?;
        self.open_keys(
            generation,
            sealed.iter_mut().map(|(slot, key, _)| (*slot, key)),
        );
        self.open_values(
            generation,
            sealed
                .iter_mut()
                .map(|(slot, _, value)| (*slot, &mut value[..])),
        );
        Ok(sealed
            .into_iter()
            .map(|(slot, key, value)| (slot, u64::from_be_bytes(key), value))
            .collect())
    }

    /// A data page's generation and its live records as `(slot, sealed
    /// key block, sealed value)`.
    #[allow(clippy::type_complexity)]
    fn sealed_records(page: &[u8]) -> Result<(u64, Vec<(u16, [u8; KEY_LEN], Vec<u8>)>), CoreError> {
        let (generation, n_slots, _) = Self::read_page_meta(page)?;
        let mut sealed = Vec::new();
        for slot in 0..n_slots {
            if let Some(record) = Self::sealed_slot(page, slot)? {
                sealed.push((slot, Self::key_block(record), record[KEY_LEN..].to_vec()));
            }
        }
        Ok((generation, sealed))
    }

    /// Returns compaction victim `block` to the store's free list,
    /// dropping its cache entries and accounting.
    fn free_block(&mut self, block: BlockId) -> Result<(), CoreError> {
        if let Some(cache) = &self.cache {
            cache.invalidate_block(block);
        }
        self.dead.remove(&block.0);
        self.live.remove(&block.0);
        if self.open_block == Some(block) {
            self.open_block = None;
        }
        self.store.free(block)?;
        self.store.counters().bump(|c| &c.compact_freed_blocks);
        Ok(())
    }

    /// Compacts one victim block: rewrites its live records into fresh
    /// slots (via the open fill block) and frees it. Returns the
    /// moves as `(old_ptr, new_ptr, owning key)`, the key read from the
    /// record itself, so the caller can repoint its tree. A block the
    /// accounting says is fully dead skips the decipher-and-move work
    /// entirely — the tombstone fast path — but is still counted as a
    /// reclaimed block. The caller must ensure no concurrent reader holds
    /// `block`'s pointers (the engine runs this under the partition write
    /// lock).
    pub(crate) fn compact_block(
        &mut self,
        block: BlockId,
    ) -> Result<Vec<(RecordPtr, RecordPtr, u64)>, CoreError> {
        debug_assert_ne!(self.open_block, Some(block), "never compact the fill block");
        if self.accounting_complete && self.live.get(&block.0).copied().unwrap_or(0) == 0 {
            // Fully dead: free without a single unseal.
            self.free_block(block)?;
            return Ok(Vec::new());
        }
        let live = self.live_records(block)?;
        let mut moves = Vec::with_capacity(live.len());
        for (slot, key, value) in live {
            let new_ptr = self.insert_inner(key, &value, Placement::Move)?;
            moves.push((RecordPtr::pack(block, slot), new_ptr, key));
        }
        self.free_block(block)?;
        Ok(moves)
    }

    /// Blocks the compactor would examine next (deadest first, bounded,
    /// filtered to blocks at least `min_dead_pct` percent dead).
    pub(crate) fn victims(
        &mut self,
        max_blocks: usize,
        min_dead_pct: u8,
    ) -> Result<Vec<BlockId>, CoreError> {
        self.ensure_accounting()?;
        Ok(self.compaction_victims(max_blocks, min_dead_pct))
    }

    /// Releases every freed block at the data device's tail (the record
    /// analogue of the node store's high-water truncation). Returns the
    /// number of blocks released.
    pub(crate) fn truncate_tail(&mut self) -> Result<u32, CoreError> {
        Ok(self.store.truncate_free_tail()?)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{fill, store, KEY};
    use super::*;

    #[test]
    fn compaction_reclaims_fully_dead_blocks() {
        let mut rs = store();
        let rec = vec![5u8; 100]; // 2 per 256-byte page
        let ptrs = fill(&mut rs, 10, &rec);
        let blocks_before = rs.store().num_blocks();
        for &p in &ptrs {
            rs.delete(p).unwrap();
        }
        let victims = rs.victims(64, 0).unwrap();
        assert!(!victims.is_empty());
        let mut moves = 0;
        for v in victims {
            moves += rs.compact_block(v).unwrap().len();
        }
        assert_eq!(moves, 0, "every record was dead");
        use sks_storage::BlockStore as _;
        assert!(
            rs.store().free_blocks() >= blocks_before - 2,
            "dead blocks returned to the free list ({} of {blocks_before})",
            rs.store().free_blocks()
        );
        // Reuse: new inserts pop freed blocks instead of growing the device.
        fill(&mut rs, 8, &rec);
        assert_eq!(rs.store().num_blocks(), blocks_before, "no growth");
    }

    #[test]
    fn compaction_moves_live_records_and_preserves_content() {
        let mut rs = store();
        // ~100-byte records: two per 256-byte page, so the set spans
        // several blocks and the open block keeps moving.
        let mk = |i: u64| format!("live-record-{i:03}-{}", "x".repeat(81)).into_bytes();
        let ptrs: Vec<RecordPtr> = (0..12)
            .map(|i| rs.insert_keyed(i, &mk(i)).unwrap())
            .collect();
        // Kill every other record so most blocks are half dead.
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 2 == 0 {
                rs.delete(p).unwrap();
            }
        }
        let victims = rs.victims(64, 0).unwrap();
        assert!(!victims.is_empty(), "half-dead blocks are victims");
        let mut moved = 0u64;
        for v in victims {
            for (old, new, key) in rs.compact_block(v).unwrap() {
                // Each move names the owner its record sealed, and the
                // content survives byte for byte.
                assert_eq!(old, ptrs[key as usize], "record {key}");
                assert_eq!(rs.get(new).unwrap().unwrap(), mk(key), "record {key}");
                moved += 1;
            }
        }
        assert!(moved >= 4, "live slots of the victims were rewritten");
        assert!(
            rs.pending_tombstones().unwrap() <= 1,
            "only the open fill block may still hold a tombstone"
        );
    }

    #[test]
    fn victims_are_ordered_deadest_first() {
        let mut rs = store();
        let ptrs = fill(&mut rs, 16, &[9u8; 48]); // 4 per 256-byte page
        let blocks: Vec<u32> = {
            let mut b: Vec<u32> = ptrs.iter().map(|p| p.block().as_u32()).collect();
            b.dedup();
            b
        };
        assert!(blocks.len() >= 4);
        // Block 0: 1 dead; block 1: 3 dead; block 2: 2 dead; block 3 open.
        rs.delete(ptrs[0]).unwrap();
        for p in &ptrs[4..7] {
            rs.delete(*p).unwrap();
        }
        for p in &ptrs[8..10] {
            rs.delete(*p).unwrap();
        }
        let victims = rs.victims(10, 0).unwrap();
        assert_eq!(
            victims[..3],
            [BlockId(blocks[1]), BlockId(blocks[2]), BlockId(blocks[0])],
            "deadest ratio first"
        );
    }

    #[test]
    fn dead_ratio_floor_filters_lightly_dead_blocks() {
        let mut rs = store();
        let ptrs = fill(&mut rs, 16, &[9u8; 48]); // 4 per 256-byte page
        let blocks: Vec<u32> = {
            let mut b: Vec<u32> = ptrs.iter().map(|p| p.block().as_u32()).collect();
            b.dedup();
            b
        };
        assert!(blocks.len() >= 4);
        // Block 0: 1 of 4 dead (25%); block 1: 3 of 4 dead (75%).
        rs.delete(ptrs[0]).unwrap();
        for p in &ptrs[4..7] {
            rs.delete(*p).unwrap();
        }
        // Floor 0 drains both; floor 25 keeps the exactly-at-floor block;
        // floor 50 defers the quarter-dead block until churn concentrates.
        assert_eq!(
            rs.victims(10, 0).unwrap(),
            [BlockId(blocks[1]), BlockId(blocks[0])]
        );
        assert_eq!(
            rs.victims(10, 25).unwrap(),
            [BlockId(blocks[1]), BlockId(blocks[0])],
            "a block exactly at the floor qualifies"
        );
        assert_eq!(
            rs.victims(10, 50).unwrap(),
            [BlockId(blocks[1])],
            "a lightly-dead block is deferred by the floor"
        );
        assert_eq!(rs.victims(10, 80).unwrap(), []);
    }

    #[test]
    fn compact_block_reads_owning_keys_from_the_records() {
        let mut rs = store();
        let rec = vec![4u8; 100];
        let p0 = rs.insert_keyed(500, &rec).unwrap();
        let p1 = rs.insert_keyed(501, &rec).unwrap();
        let _p2 = rs.insert_keyed(502, &rec).unwrap(); // new open block
        rs.delete(p0).unwrap();
        let moves = rs.compact_block(p1.block()).unwrap();
        assert_eq!(moves.len(), 1);
        let (old, new, key) = moves[0];
        assert_eq!(old, p1);
        assert_eq!(key, 501, "the record sealed its owner");
        assert_eq!(rs.get(new).unwrap().unwrap(), rec);
    }

    #[test]
    fn reopened_store_rebuilds_accounting_from_the_slot_directory() {
        let mut rs = store();
        let ptrs = fill(&mut rs, 6, &[1u8; 100]);
        rs.delete(ptrs[0]).unwrap();
        rs.delete(ptrs[3]).unwrap();
        let disk = rs.into_store();
        let mut rs = RecordStore::open(disk, KEY, 0).unwrap();
        assert!(rs.may_have_tombstones());
        rs.store().counters().reset();
        assert_eq!(
            rs.pending_tombstones().unwrap(),
            2,
            "lazy sweep found the pre-restart tombstones"
        );
        assert_eq!(rs.live_record_slots().unwrap(), 4);
        let s = rs.store().counters().snapshot();
        assert_eq!(s.data_decrypts, 0, "the sweep reads headers only");
    }
}
