//! The block-device abstraction: fixed-size blocks addressed by [`BlockId`].
//!
//! The paper's storage model (§3, following Elmasri & Navathe) is a
//! sequential set of fixed-size *blocks* on secondary storage: node blocks
//! hold `[search key, data pointer, tree pointer]` triplets, data blocks
//! hold records. Everything above (B-tree, record store, encipherment)
//! speaks [`BlockStore`]; everything below ([`crate::MemDisk`],
//! [`crate::FileDisk`]) simulates the device.

/// Identifier of a block on the device. Block 0 is conventionally the
/// superblock of whatever structure lives on the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    pub const fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Errors from block-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Block id past the end of the device.
    OutOfRange { id: u32, len: u32 },
    /// Access to a block that is currently on the free list.
    FreedBlock { id: u32 },
    /// Payload length does not match the device block size.
    WrongBlockSize { expected: usize, got: usize },
    /// Underlying I/O failure (file-backed stores).
    Io(String),
    /// On-disk structure is inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::OutOfRange { id, len } => {
                write!(f, "block {id} out of range (device has {len} blocks)")
            }
            StorageError::FreedBlock { id } => write!(f, "block {id} is freed"),
            StorageError::WrongBlockSize { expected, got } => {
                write!(f, "expected {expected}-byte block, got {got}")
            }
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Corrupt(e) => write!(f, "corrupt store: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// A device of fixed-size blocks.
///
/// Reads take `&self` (concurrent readers are fine for the in-memory
/// stores); mutation takes `&mut self`. All implementations must count
/// operations on their [`crate::OpCounters`].
pub trait BlockStore {
    /// Fixed block size in bytes.
    fn block_size(&self) -> usize;

    /// Number of blocks ever allocated (the device length; includes freed
    /// blocks still on the free list).
    fn num_blocks(&self) -> u32;

    /// Allocates a zeroed block: the most recently freed one when any is
    /// free, else a new one at the end of the device.
    fn allocate(&mut self) -> Result<BlockId, StorageError>;

    /// Allocates the *lowest-numbered* free block (growing the device only
    /// when the free list is empty). Space-governance layers use this so
    /// refills pack toward the front of the device and the tail becomes
    /// reclaimable.
    fn allocate_min(&mut self) -> Result<BlockId, StorageError>;

    /// Returns a block to the free list.
    fn free(&mut self, id: BlockId) -> Result<(), StorageError>;

    /// Claims a *specific* block off the free list (zeroed, exactly as
    /// [`Self::allocate`] would hand it out). Node-device compaction uses
    /// this to slide a live node into a chosen low slot. Errors when `id`
    /// is not currently free.
    fn claim_free(&mut self, id: BlockId) -> Result<(), StorageError>;

    /// Releases every freed block at the device's tail, lowering the
    /// high-water mark (`num_blocks` shrinks; file-backed devices cut the
    /// store file). Returns how many blocks were released. Interior free
    /// blocks stay on the free list untouched.
    fn truncate_free_tail(&mut self) -> Result<u32, StorageError>;

    /// Reads a whole block into `buf` (`buf.len()` must equal
    /// [`Self::block_size`]).
    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<(), StorageError>;

    /// Overwrites a whole block (`data.len()` must equal block size).
    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError>;

    /// Shared operation counters.
    fn counters(&self) -> &crate::OpCounters;

    /// Convenience: read into a fresh vector.
    fn read_block_vec(&self, id: BlockId) -> Result<Vec<u8>, StorageError> {
        let mut buf = vec![0u8; self.block_size()];
        self.read_block(id, &mut buf)?;
        Ok(buf)
    }

    /// Calls `f` with block `id`'s bytes. A store that holds the page in
    /// memory lends it in place; the default reads a copy. Either way the
    /// counters move as one [`Self::read_block`] moves them.
    fn read_with(&self, id: BlockId, f: &mut dyn FnMut(&[u8])) -> Result<(), StorageError> {
        let page = self.read_block_vec(id)?;
        f(&page);
        Ok(())
    }

    /// Lets `f` rewrite block `id` in place: the counters move as one
    /// [`Self::read_block`] then one [`Self::write_block`] move them, and
    /// the default is exactly that read-modify-write of a copy (so a
    /// wrapper that intercepts writes sees this one). A failed read calls
    /// nothing; a failed write leaves what the store's write leaves.
    fn update_with(
        &mut self,
        id: BlockId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        let mut page = self.read_block_vec(id)?;
        f(&mut page);
        self.write_block(id, &page)
    }

    /// Flushes buffered state to the backing medium (no-op by default).
    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Identifies the commit [`Self::flush`] makes durable: stores
    /// reporting the same group become durable together. `None` (the
    /// default) for a store with no medium to make durable.
    fn commit_group(&self) -> Option<usize> {
        None
    }

    /// Number of dirty pages buffered in memory awaiting the next flush.
    /// Unbuffered stores (where every write hits the medium) report 0; the
    /// no-steal [`crate::PagedFileStore`] reports its pinned dirty set,
    /// which only its next flush releases.
    fn dirty_pages(&self) -> usize {
        0
    }

    /// Number of blocks currently on the free list (space reclaimed and
    /// awaiting reuse). Observability for compaction: `num_blocks() -
    /// free_blocks()` is the live footprint of the device.
    fn free_blocks(&self) -> u32;

    /// The ids currently on the free list, in pop order: the last is the
    /// next block [`Self::allocate`] hands out. Free-list membership is
    /// not a secret — the file backend's intrusive chain is plainly
    /// visible on the stolen medium — so exposing it costs nothing and
    /// lets tests compare the *live* images across backends.
    fn free_block_ids(&self) -> Vec<u32>;

    /// The opponent's view of the medium: every block's raw bytes in block
    /// order, freed blocks included. For buffered stores this is what is
    /// physically *on the device*, not what the cache holds.
    fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError>;
}

/// A boxed store is a store — this is what lets the enciphered tree hold a
/// `Box<dyn BlockStore + Send + Sync>` and stay backend-agnostic.
impl<S: BlockStore + ?Sized> BlockStore for Box<S> {
    fn block_size(&self) -> usize {
        (**self).block_size()
    }

    fn num_blocks(&self) -> u32 {
        (**self).num_blocks()
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        (**self).allocate()
    }

    fn allocate_min(&mut self) -> Result<BlockId, StorageError> {
        (**self).allocate_min()
    }

    fn free(&mut self, id: BlockId) -> Result<(), StorageError> {
        (**self).free(id)
    }

    fn claim_free(&mut self, id: BlockId) -> Result<(), StorageError> {
        (**self).claim_free(id)
    }

    fn truncate_free_tail(&mut self) -> Result<u32, StorageError> {
        (**self).truncate_free_tail()
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<(), StorageError> {
        (**self).read_block(id, buf)
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        (**self).write_block(id, data)
    }

    fn counters(&self) -> &crate::OpCounters {
        (**self).counters()
    }

    fn read_block_vec(&self, id: BlockId) -> Result<Vec<u8>, StorageError> {
        (**self).read_block_vec(id)
    }

    fn read_with(&self, id: BlockId, f: &mut dyn FnMut(&[u8])) -> Result<(), StorageError> {
        (**self).read_with(id, f)
    }

    fn update_with(
        &mut self,
        id: BlockId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        (**self).update_with(id, f)
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        (**self).flush()
    }

    fn commit_group(&self) -> Option<usize> {
        (**self).commit_group()
    }

    fn dirty_pages(&self) -> usize {
        (**self).dirty_pages()
    }

    fn free_blocks(&self) -> u32 {
        (**self).free_blocks()
    }

    fn free_block_ids(&self) -> Vec<u32> {
        (**self).free_block_ids()
    }

    fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        (**self).raw_image()
    }
}

/// The boxed-store type the backend-agnostic layers above hold.
pub type DynBlockStore = Box<dyn BlockStore + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_display_and_conversions() {
        let id = BlockId(42);
        assert_eq!(id.to_string(), "b42");
        assert_eq!(id.as_u32(), 42);
        assert_eq!(id.as_u64(), 42);
    }

    #[test]
    fn error_display() {
        let e = StorageError::OutOfRange { id: 9, len: 4 };
        assert!(e.to_string().contains("block 9"));
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(matches!(e, StorageError::Io(_)));
    }
}
