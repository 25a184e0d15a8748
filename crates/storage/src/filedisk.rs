//! A file-backed block device so that enciphered trees survive process
//! restarts (and so the attack tooling can be pointed at an actual file).
//!
//! Layout: an 8-KiB header (magic, version, block size, block count, free
//! list head) followed by the blocks. Freed blocks form an intrusive linked
//! list: the first four bytes of a freed block store the next free block id.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::block::{BlockId, BlockStore, StorageError};
use crate::counters::OpCounters;
use crate::failstore::FailPlan;

const MAGIC: &[u8; 8] = b"SKSBTRE1";
const HEADER_LEN: u64 = 8192;
const NO_FREE: u32 = u32::MAX;

/// Makes directory-entry mutations (create, remove, rename) durable.
/// Opening a directory for fsync is a unix concept; on Windows directory
/// entries are synced with the volume and `File::open` on a directory
/// fails outright, so this is a no-op there.
pub fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

// IEEE CRC-32, table built at compile time. Shared by the paged store's
// checkpoint journal and the engine's WAL framing.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_fold(CRC32_INIT, data)
}

/// The CRC-32 register before any input; its complement after the last
/// [`crc32_fold`] is the checksum.
pub(crate) const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Folds `data` into a running CRC-32 register, for input that arrives in
/// pieces.
pub(crate) fn crc32_fold(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// An fsync-only handle to a [`FileDisk`]'s file (see
/// [`FileDisk::sync_handle`]). One taken from a
/// [`crate::FailStore`]`<FileDisk>` counts each sync against that store's
/// [`FailPlan`], so a killed flush reaches this path too.
#[derive(Debug)]
pub struct SyncHandle {
    file: File,
    plan: Option<FailPlan>,
}

impl SyncHandle {
    /// Forces every byte written to the file so far to stable storage.
    pub fn sync(&self) -> Result<(), StorageError> {
        if let Some(plan) = &self.plan {
            plan.on_flush()?;
        }
        self.file.sync_all()?;
        Ok(())
    }

    /// This handle with its syncs counted against `plan`.
    pub(crate) fn with_plan(self, plan: FailPlan) -> Self {
        SyncHandle {
            plan: Some(plan),
            ..self
        }
    }
}

/// File-backed block device.
#[derive(Debug)]
pub struct FileDisk {
    file: File,
    block_size: usize,
    num_blocks: u32,
    free_head: u32,
    counters: OpCounters,
}

impl FileDisk {
    /// Creates a new store file (truncating any existing content).
    pub fn create<P: AsRef<Path>>(path: P, block_size: usize) -> Result<Self, StorageError> {
        Self::create_with_counters(path, block_size, OpCounters::new())
    }

    /// [`FileDisk::create`] sharing an existing counter set (so a WAL or an
    /// engine aggregates its devices into one account).
    pub fn create_with_counters<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        counters: OpCounters,
    ) -> Result<Self, StorageError> {
        assert!(block_size >= 32, "blocks below 32 bytes are not useful");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut disk = FileDisk {
            file,
            block_size,
            num_blocks: 0,
            free_head: NO_FREE,
            counters,
        };
        disk.write_header()?;
        Ok(disk)
    }

    /// [`FileDisk::open`] sharing an existing counter set.
    pub fn open_with_counters<P: AsRef<Path>>(
        path: P,
        counters: OpCounters,
    ) -> Result<Self, StorageError> {
        let mut disk = Self::open(path)?;
        disk.counters = counters;
        Ok(disk)
    }

    /// Re-points this device at a different shared counter set.
    pub fn set_counters(&mut self, counters: OpCounters) {
        self.counters = counters;
    }

    /// Opens an existing store file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = [0u8; 28];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        if &header[0..8] != MAGIC {
            return Err(StorageError::Corrupt("bad magic".into()));
        }
        let version = u32::from_be_bytes(header[8..12].try_into().unwrap());
        if version != 1 {
            return Err(StorageError::Corrupt(format!("unknown version {version}")));
        }
        let block_size = u64::from_be_bytes(header[12..20].try_into().unwrap()) as usize;
        let num_blocks = u32::from_be_bytes(header[20..24].try_into().unwrap());
        let free_head = u32::from_be_bytes(header[24..28].try_into().unwrap());
        Ok(FileDisk {
            file,
            block_size,
            num_blocks,
            free_head,
            counters: OpCounters::new(),
        })
    }

    fn write_header(&mut self) -> Result<(), StorageError> {
        let mut header = vec![0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&1u32.to_be_bytes());
        header[12..20].copy_from_slice(&(self.block_size as u64).to_be_bytes());
        header[20..24].copy_from_slice(&self.num_blocks.to_be_bytes());
        header[24..28].copy_from_slice(&self.free_head.to_be_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        Ok(())
    }

    fn offset(&self, id: BlockId) -> u64 {
        HEADER_LEN + id.0 as u64 * self.block_size as u64
    }

    fn check(&self, id: BlockId) -> Result<(), StorageError> {
        if id.0 >= self.num_blocks {
            return Err(StorageError::OutOfRange {
                id: id.0,
                len: self.num_blocks,
            });
        }
        Ok(())
    }

    fn read_raw(&self, id: BlockId) -> Result<Vec<u8>, StorageError> {
        let mut buf = vec![0u8; self.block_size];
        // Positioned read keeps `&self` reads safe without seeking the
        // shared cursor.
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(&mut buf, self.offset(id))?;
        }
        #[cfg(not(unix))]
        {
            let mut f = &self.file;
            f.seek(SeekFrom::Start(self.offset(id)))?;
            f.read_exact(&mut buf)?;
        }
        Ok(buf)
    }

    fn write_raw(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(data, self.offset(id))?;
        }
        #[cfg(not(unix))]
        {
            self.file.seek(SeekFrom::Start(self.offset(id)))?;
            self.file.write_all(data)?;
        }
        Ok(())
    }

    /// Raw image (for the attacker tooling), freed blocks included.
    pub fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        (0..self.num_blocks)
            .map(|i| self.read_raw(BlockId(i)))
            .collect()
    }

    /// Best-effort block read for crash recovery: returns however many of
    /// the block's bytes actually exist on the medium (zero-padding the
    /// rest), instead of failing on a torn tail block whose file range was
    /// cut short. A WAL replays through this so a truncated final block
    /// still yields its leading records.
    pub fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError> {
        self.check(id)?;
        self.counters.bump(|c| &c.block_reads);
        let t = self.counters.obs().start();
        let mut buf = vec![0u8; self.block_size];
        let offset = self.offset(id);
        let mut have = 0usize;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            while have < buf.len() {
                match self.file.read_at(&mut buf[have..], offset + have as u64) {
                    Ok(0) => break,
                    Ok(n) => have += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        #[cfg(not(unix))]
        {
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            loop {
                match std::io::Read::read(&mut f, &mut buf[have..]) {
                    Ok(0) => break,
                    Ok(n) => {
                        have += n;
                        if have == buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        self.counters.obs().stage(sks_obs::Stage::BlockRead, t);
        Ok((buf, have))
    }

    /// Forces all written blocks to stable storage. (Callers that track
    /// fsync counts — e.g. a WAL's group-commit accounting — count at
    /// their own layer; the physical sync duration is timed here under
    /// [`sks_obs::Stage::StoreFsync`].)
    pub fn sync(&mut self) -> Result<(), StorageError> {
        let t = self.counters.obs().start();
        self.file.sync_all()?;
        self.counters.obs().stage(sks_obs::Stage::StoreFsync, t);
        Ok(())
    }

    /// A second handle to this device's file that can only fsync it, for
    /// a caller that makes what it wrote durable without holding the lock
    /// its writes go through (a log's group commit). A sync through it
    /// covers every write this device made before the sync began.
    pub fn sync_handle(&self) -> Result<SyncHandle, StorageError> {
        Ok(SyncHandle {
            file: self.file.try_clone()?,
            plan: None,
        })
    }

    /// Walks the persisted free chain into pop order: `result.last()` is
    /// the next block [`FileDisk::allocate`] would hand out. A layer that
    /// shadows allocation in memory (the paged store) reads its free stack
    /// from here on open.
    pub fn free_list_chain(&self) -> Result<Vec<u32>, StorageError> {
        let mut chain = Vec::new();
        let mut cur = self.free_head;
        while cur != NO_FREE {
            if cur >= self.num_blocks || chain.len() as u32 >= self.num_blocks {
                return Err(StorageError::Corrupt(format!(
                    "free chain escapes the device at block {cur}"
                )));
            }
            chain.push(cur);
            let block = self.read_raw(BlockId(cur))?;
            cur = u32::from_be_bytes(block[0..4].try_into().expect("4-byte link"));
        }
        chain.reverse();
        Ok(chain)
    }

    /// Imposes a complete allocation state: grows or *shrinks* the device
    /// to `num_blocks` (a shrink cuts the file at the new high-water mark)
    /// and rebuilds the intrusive free chain so that pops come off the
    /// *end* of `free_stack`. Idempotent for fixed arguments — a
    /// checkpoint journal can re-apply it after a crash mid-way through a
    /// previous application. The header is left to the caller's
    /// [`BlockStore::flush`].
    pub fn restore_allocation(
        &mut self,
        num_blocks: u32,
        free_stack: &[u32],
    ) -> Result<(), StorageError> {
        while self.num_blocks < num_blocks {
            let id = BlockId(self.num_blocks);
            self.write_raw(id, &vec![0u8; self.block_size])?;
            self.num_blocks += 1;
        }
        if self.num_blocks > num_blocks {
            self.file
                .set_len(HEADER_LEN + num_blocks as u64 * self.block_size as u64)?;
            self.num_blocks = num_blocks;
        }
        let mut next = NO_FREE;
        for &id in free_stack {
            if id >= num_blocks {
                return Err(StorageError::OutOfRange {
                    id,
                    len: num_blocks,
                });
            }
            let mut block = vec![0u8; self.block_size];
            block[0..4].copy_from_slice(&next.to_be_bytes());
            self.write_raw(BlockId(id), &block)?;
            next = id;
        }
        self.free_head = next;
        self.write_header()?;
        Ok(())
    }
}

impl BlockStore for FileDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u32 {
        self.num_blocks
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        self.counters.bump(|c| &c.allocs);
        if self.free_head != NO_FREE {
            let id = BlockId(self.free_head);
            let block = self.read_raw(id)?;
            self.free_head = u32::from_be_bytes(block[0..4].try_into().unwrap());
            self.write_raw(id, &vec![0u8; self.block_size])?;
            self.write_header()?;
            return Ok(id);
        }
        let id = BlockId(self.num_blocks);
        self.num_blocks += 1;
        self.write_raw(id, &vec![0u8; self.block_size])?;
        self.write_header()?;
        Ok(id)
    }

    fn allocate_min(&mut self) -> Result<BlockId, StorageError> {
        if self.free_head == NO_FREE {
            return self.allocate();
        }
        // One walk: find the minimum id plus its predecessor and
        // successor, then splice it out with a single link rewrite.
        let mut prev: Option<u32> = None;
        let mut cur = self.free_head;
        let mut min = u32::MAX;
        let mut min_prev: Option<u32> = None;
        let mut min_next = NO_FREE;
        let mut hops = 0u32;
        while cur != NO_FREE {
            hops += 1;
            if cur >= self.num_blocks || hops > self.num_blocks {
                return Err(StorageError::Corrupt(format!(
                    "free chain escapes the device at block {cur}"
                )));
            }
            let next = u32::from_be_bytes(
                self.read_raw(BlockId(cur))?[0..4]
                    .try_into()
                    .expect("4-byte link"),
            );
            if cur < min {
                min = cur;
                min_prev = prev;
                min_next = next;
            }
            prev = Some(cur);
            cur = next;
        }
        self.counters.bump(|c| &c.allocs);
        match min_prev {
            None => {
                self.free_head = min_next;
                self.write_header()?;
            }
            Some(p) => {
                let mut block = self.read_raw(BlockId(p))?;
                block[0..4].copy_from_slice(&min_next.to_be_bytes());
                self.write_raw(BlockId(p), &block)?;
            }
        }
        self.write_raw(BlockId(min), &vec![0u8; self.block_size])?;
        Ok(BlockId(min))
    }

    fn free(&mut self, id: BlockId) -> Result<(), StorageError> {
        self.check(id)?;
        self.counters.bump(|c| &c.frees);
        let mut block = vec![0u8; self.block_size];
        block[0..4].copy_from_slice(&self.free_head.to_be_bytes());
        self.write_raw(id, &block)?;
        self.free_head = id.0;
        self.write_header()?;
        Ok(())
    }

    fn claim_free(&mut self, id: BlockId) -> Result<(), StorageError> {
        // Walk the intrusive chain and splice `id` out of it: one link
        // rewrite (predecessor or header), not a whole-chain rebuild.
        let mut prev: Option<u32> = None;
        let mut cur = self.free_head;
        let mut hops = 0u32;
        while cur != NO_FREE {
            hops += 1;
            if cur >= self.num_blocks || hops > self.num_blocks {
                return Err(StorageError::Corrupt(format!(
                    "free chain escapes the device at block {cur}"
                )));
            }
            let next = u32::from_be_bytes(
                self.read_raw(BlockId(cur))?[0..4]
                    .try_into()
                    .expect("4-byte link"),
            );
            if cur == id.0 {
                self.counters.bump(|c| &c.allocs);
                match prev {
                    None => {
                        self.free_head = next;
                        self.write_header()?;
                    }
                    Some(p) => {
                        let mut block = self.read_raw(BlockId(p))?;
                        block[0..4].copy_from_slice(&next.to_be_bytes());
                        self.write_raw(BlockId(p), &block)?;
                    }
                }
                self.write_raw(id, &vec![0u8; self.block_size])?;
                return Ok(());
            }
            prev = Some(cur);
            cur = next;
        }
        Err(StorageError::Io(format!("block {} is not free", id.0)))
    }

    fn truncate_free_tail(&mut self) -> Result<u32, StorageError> {
        let chain = self.free_list_chain()?;
        let free: std::collections::HashSet<u32> = chain.iter().copied().collect();
        let mut new_num = self.num_blocks;
        while new_num > 0 && free.contains(&(new_num - 1)) {
            new_num -= 1;
        }
        let released = self.num_blocks - new_num;
        if released > 0 {
            let kept: Vec<u32> = chain.into_iter().filter(|&f| f < new_num).collect();
            self.restore_allocation(new_num, &kept)?;
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
        let t = self.counters.obs().start();
        buf.copy_from_slice(&self.read_raw(id)?);
        self.counters.obs().stage(sks_obs::Stage::BlockRead, t);
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
        let t = self.counters.obs().start();
        let out = self.write_raw(id, data);
        self.counters.obs().stage(sks_obs::Stage::BlockWrite, t);
        out
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.write_header()?;
        let t = self.counters.obs().start();
        self.file.sync_all()?;
        self.counters.obs().stage(sks_obs::Stage::StoreFsync, t);
        Ok(())
    }

    fn free_blocks(&self) -> u32 {
        self.free_list_chain().map(|c| c.len() as u32).unwrap_or(0)
    }

    fn free_block_ids(&self) -> Vec<u32> {
        // The intrusive chain *is* the free list; layers that reason
        // about free membership (reconciliation, node compaction) must
        // see it, or they would mistake free blocks for live ones.
        self.free_list_chain().unwrap_or_default()
    }

    fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        FileDisk::raw_image(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sks_filedisk_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn create_write_reopen_read() {
        let path = tmpfile("reopen");
        {
            let mut disk = FileDisk::create(&path, 128).unwrap();
            let a = disk.allocate().unwrap();
            let b = disk.allocate().unwrap();
            disk.write_block(a, &[0x11; 128]).unwrap();
            disk.write_block(b, &[0x22; 128]).unwrap();
            disk.flush().unwrap();
        }
        {
            let disk = FileDisk::open(&path).unwrap();
            assert_eq!(disk.block_size(), 128);
            assert_eq!(disk.num_blocks(), 2);
            assert_eq!(disk.read_block_vec(BlockId(0)).unwrap(), vec![0x11; 128]);
            assert_eq!(disk.read_block_vec(BlockId(1)).unwrap(), vec![0x22; 128]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn free_list_survives_reopen() {
        let path = tmpfile("freelist");
        {
            let mut disk = FileDisk::create(&path, 64).unwrap();
            let a = disk.allocate().unwrap();
            let _b = disk.allocate().unwrap();
            disk.free(a).unwrap();
            disk.flush().unwrap();
        }
        {
            let mut disk = FileDisk::open(&path).unwrap();
            let again = disk.allocate().unwrap();
            assert_eq!(again, BlockId(0), "freed block is reused after reopen");
            assert_eq!(disk.num_blocks(), 2);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // The same input folded in pieces.
        let pieces = [&b"1234"[..], b"", b"56789"];
        let folded = pieces.iter().fold(CRC32_INIT, |c, p| crc32_fold(c, p));
        assert_eq!(!folded, 0xCBF4_3926);
    }

    #[test]
    fn restore_allocation_round_trips_the_free_chain() {
        let path = tmpfile("restore_alloc");
        let mut disk = FileDisk::create(&path, 64).unwrap();
        disk.restore_allocation(5, &[3, 1, 4]).unwrap();
        disk.flush().unwrap();
        assert_eq!(disk.num_blocks(), 5);
        assert_eq!(disk.free_list_chain().unwrap(), vec![3, 1, 4]);
        // Idempotent: applying the same end state again changes nothing.
        disk.restore_allocation(5, &[3, 1, 4]).unwrap();
        assert_eq!(disk.free_list_chain().unwrap(), vec![3, 1, 4]);
        drop(disk);
        let mut disk = FileDisk::open(&path).unwrap();
        assert_eq!(disk.free_list_chain().unwrap(), vec![3, 1, 4]);
        // Pop order: 4 first (end of the stack).
        assert_eq!(disk.allocate().unwrap(), BlockId(4));
        assert_eq!(disk.allocate().unwrap(), BlockId(1));
        assert_eq!(disk.allocate().unwrap(), BlockId(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupt_magic() {
        let path = tmpfile("magic");
        std::fs::write(&path, b"NOTAMAGICHEADERxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            FileDisk::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_image_matches_block_content() {
        let path = tmpfile("image");
        let mut disk = FileDisk::create(&path, 64).unwrap();
        let a = disk.allocate().unwrap();
        disk.write_block(a, &[0xEE; 64]).unwrap();
        let image = disk.raw_image().unwrap();
        assert_eq!(image, vec![vec![0xEE; 64]]);
        std::fs::remove_file(&path).ok();
    }
}
