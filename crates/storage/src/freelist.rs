//! [`FreeList`] — the one allocation policy behind [`crate::MemDisk`],
//! [`crate::PagedFileStore`] and [`crate::FileDisk`], so every backend
//! hands out the same ids in the same order and leaves the same image.
//! Pops are LIFO; the lowest-first pick and a chosen-block claim
//! swap-remove (the top of the stack fills the hole); truncation drops the
//! free blocks at the high-water mark. A map from each free block to its
//! place in the stack makes the freed-block check and every removal O(1);
//! it is sized by the free blocks, not by ids the medium names.

use std::collections::HashMap;

use crate::block::{BlockId, StorageError};

/// A device's allocation state: its high-water mark and its free stack.
#[derive(Debug, Clone, Default)]
pub(crate) struct FreeList {
    num_blocks: u32,
    /// Pop order: `last()` is the next block `allocate` hands out.
    stack: Vec<u32>,
    /// Each free id's index in `stack`.
    slot: HashMap<u32, usize>,
}

impl FreeList {
    /// A device of `num_blocks` blocks whose free stack is `stack` (pop
    /// order). A stack naming a block past the device, or one block twice,
    /// is corrupt.
    pub(crate) fn new(num_blocks: u32, stack: Vec<u32>) -> Result<Self, StorageError> {
        let mut list = FreeList {
            num_blocks,
            ..FreeList::default()
        };
        for id in stack {
            if id >= num_blocks || list.is_free(id) {
                return Err(StorageError::Corrupt(format!(
                    "free list names block {id} twice or past the device's {num_blocks}"
                )));
            }
            list.push(id);
        }
        Ok(list)
    }

    pub(crate) fn num_blocks(&self) -> u32 {
        self.num_blocks
    }

    /// The free ids in pop order.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.stack
    }

    fn is_free(&self, id: u32) -> bool {
        self.slot.contains_key(&id)
    }

    /// The check every block access makes: `id` is on the device and live.
    pub(crate) fn check(&self, id: BlockId) -> Result<(), StorageError> {
        if id.0 >= self.num_blocks {
            let len = self.num_blocks;
            return Err(StorageError::OutOfRange { id: id.0, len });
        }
        if self.is_free(id.0) {
            return Err(StorageError::FreedBlock { id: id.0 });
        }
        Ok(())
    }

    /// Pops the most recently freed block, or grows the device by one.
    pub(crate) fn allocate(&mut self) -> BlockId {
        let Some(&id) = self.stack.last() else {
            self.num_blocks += 1;
            return BlockId(self.num_blocks - 1);
        };
        self.remove(id);
        BlockId(id)
    }

    /// Takes the lowest free block, or grows the device when none is free.
    pub(crate) fn allocate_min(&mut self) -> BlockId {
        let Some(&id) = self.stack.iter().min() else {
            return self.allocate();
        };
        self.remove(id);
        BlockId(id)
    }

    /// Puts a live block on top of the stack.
    pub(crate) fn free(&mut self, id: BlockId) -> Result<(), StorageError> {
        self.check(id)?;
        self.push(id.0);
        Ok(())
    }

    /// Takes the free block `id` off the stack.
    pub(crate) fn claim(&mut self, id: BlockId) -> Result<(), StorageError> {
        if !self.is_free(id.0) {
            return Err(StorageError::Io(format!("block {} is not free", id.0)));
        }
        self.remove(id.0);
        Ok(())
    }

    /// Lowers the high-water mark past every free block at the top of the
    /// device and returns how many went; interior free blocks stay.
    pub(crate) fn truncate_tail(&mut self) -> u32 {
        let before = self.num_blocks;
        while self.num_blocks > 0 && self.is_free(self.num_blocks - 1) {
            self.num_blocks -= 1;
            self.remove(self.num_blocks);
        }
        before - self.num_blocks
    }

    fn push(&mut self, id: u32) {
        self.slot.insert(id, self.stack.len());
        self.stack.push(id);
    }

    /// Swap-removes the free block `id`.
    fn remove(&mut self, id: u32) {
        let pos = self.slot.remove(&id).expect("a free block has a slot");
        let top = self.stack.pop().expect("a free block is on the stack");
        if pos < self.stack.len() {
            self.stack[pos] = top;
            self.slot.insert(top, pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_lifo_and_takes_the_lowest_by_swap_remove() {
        let mut list = FreeList::new(6, vec![4, 1, 5, 3]).unwrap();
        assert_eq!(list.allocate_min(), BlockId(1));
        // The top (3) filled the hole the lowest left.
        assert_eq!(list.ids(), &[4, 3, 5]);
        assert_eq!(list.allocate(), BlockId(5));
        list.claim(BlockId(4)).unwrap();
        assert_eq!(list.ids(), &[3]);
        assert!(list.claim(BlockId(4)).is_err(), "already claimed");
        assert_eq!(list.allocate(), BlockId(3));
        assert_eq!(list.allocate(), BlockId(6), "grows when nothing is free");
        assert_eq!(list.num_blocks(), 7);
    }

    #[test]
    fn checks_range_and_membership() {
        let mut list = FreeList::new(3, vec![1]).unwrap();
        assert!(list.check(BlockId(0)).is_ok());
        assert_eq!(
            list.check(BlockId(1)),
            Err(StorageError::FreedBlock { id: 1 })
        );
        assert_eq!(
            list.check(BlockId(3)),
            Err(StorageError::OutOfRange { id: 3, len: 3 })
        );
        assert!(list.free(BlockId(1)).is_err(), "double free");
        list.free(BlockId(2)).unwrap();
        assert_eq!(list.ids(), &[1, 2]);
    }

    #[test]
    fn truncates_only_the_free_tail() {
        let mut list = FreeList::new(6, vec![5, 1, 4]).unwrap();
        assert_eq!(list.truncate_tail(), 2);
        assert_eq!((list.num_blocks(), list.ids()), (4, &[1][..]));
        assert_eq!(list.truncate_tail(), 0);
        assert!(list.check(BlockId(4)).is_err());
        assert_eq!(list.allocate(), BlockId(1));
        assert_eq!(list.allocate(), BlockId(4));
    }

    #[test]
    fn refuses_a_corrupt_stack() {
        for stack in [vec![3], vec![1, 2, 1]] {
            assert!(matches!(
                FreeList::new(3, stack),
                Err(StorageError::Corrupt(_))
            ));
        }
    }
}
