//! An in-memory simulated disk with exact operation accounting.
//!
//! This is the "sequential set of disk blocks" the opponent of §4.1 sees:
//! [`MemDisk::raw_image`] hands the attacker exactly the bytes a stolen disk
//! would contain, while the legal path goes through [`BlockStore`].

use crate::block::{BlockId, BlockStore, StorageError};
use crate::counters::OpCounters;

/// In-memory block device.
#[derive(Debug, Clone)]
pub struct MemDisk {
    block_size: usize,
    blocks: Vec<Vec<u8>>,
    freed: Vec<u32>,
    counters: OpCounters,
}

impl MemDisk {
    pub fn new(block_size: usize) -> Self {
        assert!(block_size >= 32, "blocks below 32 bytes are not useful");
        MemDisk {
            block_size,
            blocks: Vec::new(),
            freed: Vec::new(),
            counters: OpCounters::new(),
        }
    }

    /// Creates a disk sharing an existing counter set (so a tree store and a
    /// record store can account into one ledger).
    pub fn with_counters(block_size: usize, counters: OpCounters) -> Self {
        MemDisk {
            block_size,
            blocks: Vec::new(),
            freed: Vec::new(),
            counters,
        }
    }

    fn check(&self, id: BlockId) -> Result<(), StorageError> {
        let idx = id.0 as usize;
        if idx >= self.blocks.len() {
            return Err(StorageError::OutOfRange {
                id: id.0,
                len: self.blocks.len() as u32,
            });
        }
        if self.freed.contains(&id.0) {
            return Err(StorageError::FreedBlock { id: id.0 });
        }
        Ok(())
    }

    /// The raw disk image: every block's bytes in block-number order —
    /// exactly what an opponent with access to the physical medium obtains.
    /// Freed blocks are included (real disks do not scrub).
    pub fn raw_image(&self) -> Vec<Vec<u8>> {
        self.blocks.clone()
    }
}

/// Index of the smallest id on a free stack (shared by the in-memory and
/// paged stores so their `allocate_min` pick — and thus the post-pick
/// stack layout after `swap_remove` — is identical across backends).
pub(crate) fn lowest_free(freed: &[u32]) -> Option<usize> {
    freed
        .iter()
        .enumerate()
        .min_by_key(|&(_, &id)| id)
        .map(|(pos, _)| pos)
}

impl BlockStore for MemDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        self.counters.bump(|c| &c.allocs);
        if let Some(id) = self.freed.pop() {
            self.blocks[id as usize].fill(0);
            return Ok(BlockId(id));
        }
        let id = self.blocks.len() as u32;
        self.blocks.push(vec![0u8; self.block_size]);
        Ok(BlockId(id))
    }

    fn allocate_min(&mut self) -> Result<BlockId, StorageError> {
        let Some(pos) = lowest_free(&self.freed) else {
            return self.allocate();
        };
        self.counters.bump(|c| &c.allocs);
        let id = self.freed.swap_remove(pos);
        self.blocks[id as usize].fill(0);
        Ok(BlockId(id))
    }

    fn free(&mut self, id: BlockId) -> Result<(), StorageError> {
        self.check(id)?;
        self.counters.bump(|c| &c.frees);
        self.freed.push(id.0);
        Ok(())
    }

    fn claim_free(&mut self, id: BlockId) -> Result<(), StorageError> {
        let Some(pos) = self.freed.iter().position(|&f| f == id.0) else {
            return Err(StorageError::Io(format!("block {} is not free", id.0)));
        };
        self.counters.bump(|c| &c.allocs);
        self.freed.swap_remove(pos);
        self.blocks[id.0 as usize].fill(0);
        Ok(())
    }

    fn truncate_free_tail(&mut self) -> Result<u32, StorageError> {
        let mut released = 0u32;
        while let Some(last) = self.blocks.len().checked_sub(1) {
            let Some(pos) = self.freed.iter().position(|&f| f as usize == last) else {
                break;
            };
            self.freed.swap_remove(pos);
            self.blocks.pop();
            released += 1;
        }
        self.counters
            .bump_by(|c| &c.device_truncated_blocks, released as u64);
        Ok(released)
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.check(id)?;
        if buf.len() != self.block_size {
            return Err(StorageError::WrongBlockSize {
                expected: self.block_size,
                got: buf.len(),
            });
        }
        self.counters.bump(|c| &c.block_reads);
        buf.copy_from_slice(&self.blocks[id.0 as usize]);
        Ok(())
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        self.check(id)?;
        if data.len() != self.block_size {
            return Err(StorageError::WrongBlockSize {
                expected: self.block_size,
                got: data.len(),
            });
        }
        self.counters.bump(|c| &c.block_writes);
        self.blocks[id.0 as usize].copy_from_slice(data);
        Ok(())
    }

    fn read_with(&self, id: BlockId, f: &mut dyn FnMut(&[u8])) -> Result<(), StorageError> {
        self.check(id)?;
        self.counters.bump(|c| &c.block_reads);
        f(&self.blocks[id.0 as usize]);
        Ok(())
    }

    fn update_with(
        &mut self,
        id: BlockId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        self.check(id)?;
        self.counters.bump(|c| &c.block_reads);
        self.counters.bump(|c| &c.block_writes);
        f(&mut self.blocks[id.0 as usize]);
        Ok(())
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn free_blocks(&self) -> u32 {
        self.freed.len() as u32
    }

    fn free_block_ids(&self) -> Vec<u32> {
        self.freed.clone()
    }

    fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        Ok(MemDisk::raw_image(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_roundtrip() {
        let mut disk = MemDisk::new(64);
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_ne!(a, b);
        let data = vec![7u8; 64];
        disk.write_block(a, &data).unwrap();
        assert_eq!(disk.read_block_vec(a).unwrap(), data);
        assert_eq!(disk.read_block_vec(b).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn free_blocks_are_recycled_zeroed() {
        let mut disk = MemDisk::new(64);
        let a = disk.allocate().unwrap();
        disk.write_block(a, &[9u8; 64]).unwrap();
        disk.free(a).unwrap();
        assert!(disk.read_block_vec(a).is_err());
        let again = disk.allocate().unwrap();
        assert_eq!(again, a);
        assert_eq!(disk.read_block_vec(again).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn errors_on_bad_access() {
        let mut disk = MemDisk::new(64);
        assert!(matches!(
            disk.read_block_vec(BlockId(0)),
            Err(StorageError::OutOfRange { .. })
        ));
        let a = disk.allocate().unwrap();
        assert!(matches!(
            disk.write_block(a, &[0u8; 63]),
            Err(StorageError::WrongBlockSize { .. })
        ));
        let mut small = [0u8; 12];
        assert!(matches!(
            disk.read_block(a, &mut small),
            Err(StorageError::WrongBlockSize { .. })
        ));
    }

    #[test]
    fn counters_account_io() {
        let mut disk = MemDisk::new(64);
        let a = disk.allocate().unwrap();
        disk.write_block(a, &[1u8; 64]).unwrap();
        let _ = disk.read_block_vec(a).unwrap();
        let _ = disk.read_block_vec(a).unwrap();
        let s = disk.counters().snapshot();
        assert_eq!((s.allocs, s.block_writes, s.block_reads), (1, 1, 2));
    }

    #[test]
    fn allocate_min_packs_low_and_truncate_drops_the_tail() {
        let mut disk = MemDisk::new(64);
        let ids: Vec<BlockId> = (0..6).map(|_| disk.allocate().unwrap()).collect();
        disk.write_block(ids[3], &[3u8; 64]).unwrap();
        disk.free(ids[1]).unwrap();
        disk.free(ids[4]).unwrap();
        disk.free(ids[5]).unwrap();
        // Min-first allocation picks 1, not the LIFO 5.
        assert_eq!(disk.allocate_min().unwrap(), BlockId(1));
        assert_eq!(disk.truncate_free_tail().unwrap(), 2);
        assert_eq!(disk.num_blocks(), 4);
        assert_eq!(disk.free_blocks(), 0);
        assert_eq!(disk.read_block_vec(ids[3]).unwrap(), vec![3u8; 64]);
        // Claiming a specific live or missing block errors.
        assert!(disk.claim_free(BlockId(3)).is_err());
        disk.free(ids[2]).unwrap();
        disk.claim_free(BlockId(2)).unwrap();
        assert_eq!(disk.read_block_vec(BlockId(2)).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn raw_image_exposes_freed_blocks() {
        let mut disk = MemDisk::new(64);
        let a = disk.allocate().unwrap();
        disk.write_block(a, &[0xAB; 64]).unwrap();
        disk.free(a).unwrap();
        let image = disk.raw_image();
        assert_eq!(image.len(), 1);
        assert_eq!(image[0], vec![0xAB; 64], "freed data is not scrubbed");
    }
}
