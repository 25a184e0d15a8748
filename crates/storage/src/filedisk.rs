//! A file-backed block device so that enciphered trees survive process
//! restarts (and so the attack tooling can be pointed at an actual file).
//!
//! Layout: an 8-KiB header (magic, version, block size, block count, free
//! list head) followed by the blocks. Freed blocks form an intrusive linked
//! list: the first four bytes of a freed block store the next free block id.
//! The chain is read once, at open, into the crate's one allocator
//! (`freelist.rs`); from then on the device answers every allocation
//! question from memory and writes the chain only where it changes.
//!
//! A block read is one positioned read (`pread`) straight into the
//! caller's buffer — under the buffer pool, the frame a miss evicted — so
//! the device itself allocates and copies nothing on the read path.
//! That positioned read and its write twin are this crate's one platform
//! split for file I/O; the engine's write-ahead log, a plain byte file
//! rather than a block device ([`crate::LogFile`]), goes through them too.

use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::block::{BlockId, BlockStore, StorageError};
use crate::counters::OpCounters;
use crate::freelist::FreeList;

const MAGIC: &[u8; 8] = b"SKSBTRE1";
const HEADER_LEN: u64 = 8192;
const NO_FREE: u32 = u32::MAX;
/// The most blocks one [`FileDisk::write_run`] writes.
pub(crate) const MAX_RUN_BLOCKS: usize = 64;

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

/// Fills `buf` from `file` at `offset` with one positioned read (more
/// only if the kernel returns short): no seek of the shared cursor, so
/// `&self` readers stay safe, and the bytes land in the caller's buffer.
/// The one platform split for positioned reads, shared by [`FileDisk`]
/// and [`crate::LogFile`].
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> Result<(), StorageError> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)?;
    }
    #[cfg(not(unix))]
    {
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)?;
    }
    Ok(())
}

/// Writes all of `data` to `file` at `offset`: [`read_exact_at`]'s
/// counterpart.
pub(crate) fn write_all_at(file: &File, data: &[u8], offset: u64) -> Result<(), StorageError> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(data, offset)?;
    }
    #[cfg(not(unix))]
    {
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(data)?;
    }
    Ok(())
}

// IEEE CRC-32, slice-by-16: tables built at compile time. Shared by the
// paged store's checkpoint journal and the engine's WAL framing.
//
// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
// is the register after byte `b` followed by `k` zero bytes, so sixteen
// input bytes fold into the register with sixteen independent look-ups.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_fold(CRC32_INIT, data)
}

/// The CRC-32 register before any input; its complement after the last
/// [`crc32_fold`] is the checksum.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Folds `data` into a running CRC-32 register, for input that arrives in
/// pieces: sixteen bytes a step, then the ragged end a byte at a time.
pub fn crc32_fold(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize];
        for (i, &b) in chunk[4..].iter().enumerate() {
            c ^= t[11 - i][b as usize];
        }
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// File-backed block device.
#[derive(Debug)]
pub struct FileDisk {
    file: File,
    block_size: usize,
    /// The persisted allocation state, mirrored: the header's block count
    /// and the intrusive chain in pop order.
    alloc: FreeList,
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
        let disk = FileDisk {
            file,
            block_size,
            alloc: FreeList::default(),
            counters,
        };
        // The whole header region once; later updates rewrite only the
        // fields, the rest of the region staying zeros.
        write_all_at(&disk.file, &[0u8; HEADER_LEN as usize], 0)?;
        disk.write_header()?;
        Ok(disk)
    }

    /// [`FileDisk::open`] sharing an existing counter set.
    pub fn open_with_counters<P: AsRef<Path>>(
        path: P,
        counters: OpCounters,
    ) -> Result<Self, StorageError> {
        let (mut disk, mut cur) = Self::open_unchained(path.as_ref(), counters)?;
        let num_blocks = disk.alloc.num_blocks();
        // Walk the chain from its head (the next pop) to its end.
        let mut chain = Vec::new();
        while cur != NO_FREE {
            if cur >= num_blocks || chain.len() as u32 >= num_blocks {
                return Err(StorageError::Corrupt(format!(
                    "free chain escapes the device at block {cur}"
                )));
            }
            chain.push(cur);
            let mut link = [0u8; 4];
            read_exact_at(&disk.file, &mut link, disk.offset(BlockId(cur)))?;
            cur = u32::from_be_bytes(link);
        }
        chain.reverse();
        disk.alloc = FreeList::new(num_blocks, chain)?;
        Ok(disk)
    }

    /// Opens an existing store file, loading its free chain. A chain that
    /// leaves the device or loops is refused as corrupt.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        Self::open_with_counters(path, OpCounters::new())
    }

    /// Opens a store file without reading its free chain, for a caller
    /// about to impose the whole allocation state with
    /// [`FileDisk::restore_allocation`]; until then no block reads as
    /// free. Also returns the header's chain head.
    pub(crate) fn open_unchained(
        path: &Path,
        counters: OpCounters,
    ) -> Result<(Self, u32), StorageError> {
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
        if block_size < 32 {
            return Err(StorageError::Corrupt(format!("block size {block_size}")));
        }
        let num_blocks = u32::from_be_bytes(header[20..24].try_into().unwrap());
        let disk = FileDisk {
            file,
            block_size,
            alloc: FreeList::new(num_blocks, Vec::new())?,
            counters,
        };
        Ok((disk, u32::from_be_bytes(header[24..28].try_into().unwrap())))
    }

    /// Rewrites the header's fields (the first 28 bytes of its region):
    /// one positioned write, with nothing allocated.
    fn write_header(&self) -> Result<(), StorageError> {
        let mut header = [0u8; 28];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&1u32.to_be_bytes());
        header[12..20].copy_from_slice(&(self.block_size as u64).to_be_bytes());
        header[20..24].copy_from_slice(&self.alloc.num_blocks().to_be_bytes());
        let free_head = self.alloc.ids().last().copied().unwrap_or(NO_FREE);
        header[24..28].copy_from_slice(&free_head.to_be_bytes());
        write_all_at(&self.file, &header, 0)
    }

    fn offset(&self, id: BlockId) -> u64 {
        HEADER_LEN + id.0 as u64 * self.block_size as u64
    }

    fn write_raw(&self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        write_all_at(&self.file, data, self.offset(id))
    }

    /// Writes a free block as the chain stores it: zeros after the link to
    /// the `next` block down the stack.
    fn write_link(&self, id: u32, next: u32) -> Result<(), StorageError> {
        let mut block = vec![0u8; self.block_size];
        block[0..4].copy_from_slice(&next.to_be_bytes());
        self.write_raw(BlockId(id), &block)
    }

    /// Rewrites every link of the chain, and the header, from the
    /// allocator: what a removal from the middle of the stack costs.
    fn write_chain(&mut self) -> Result<(), StorageError> {
        let mut next = NO_FREE;
        for &id in self.alloc.ids() {
            self.write_link(id, next)?;
            next = id;
        }
        self.write_header()
    }

    /// Zeroes a block the allocator just handed out, from a static page
    /// of zeros, so handing out a block allocates nothing.
    fn zero(&self, id: BlockId) -> Result<(), StorageError> {
        static ZEROS: [u8; 4096] = [0; 4096];
        let (mut at, end) = (self.offset(id), self.offset(id) + self.block_size as u64);
        while at < end {
            let n = ((end - at) as usize).min(ZEROS.len());
            write_all_at(&self.file, &ZEROS[..n], at)?;
            at += n as u64;
        }
        Ok(())
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

    /// Writes `blocks` over the consecutive blocks from `first` with one
    /// vectored write from where the images lie (at most
    /// [`MAX_RUN_BLOCKS`]). Counted as one `block_writes` per block,
    /// timed as one [`sks_obs::Stage::BlockWrite`] sample.
    pub(crate) fn write_run(
        &mut self,
        first: BlockId,
        blocks: &[&[u8]],
    ) -> Result<(), StorageError> {
        assert!(
            blocks.len() <= MAX_RUN_BLOCKS,
            "a run is at most {MAX_RUN_BLOCKS} blocks"
        );
        let mut slices = [IoSlice::new(&[]); MAX_RUN_BLOCKS];
        for (i, block) in blocks.iter().enumerate() {
            self.alloc.check(BlockId(first.0 + i as u32))?;
            if block.len() != self.block_size {
                return Err(StorageError::WrongBlockSize {
                    expected: self.block_size,
                    got: block.len(),
                });
            }
            slices[i] = IoSlice::new(block);
        }
        self.counters
            .bump_by(|c| &c.block_writes, blocks.len() as u64);
        let t = self.counters.obs().start();
        let mut rest = &mut slices[..blocks.len()];
        self.file.seek(SeekFrom::Start(self.offset(first)))?;
        while !rest.is_empty() {
            let n = self.file.write_vectored(rest)?;
            if n == 0 {
                return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into());
            }
            IoSlice::advance_slices(&mut rest, n);
        }
        self.counters.obs().stage(sks_obs::Stage::BlockWrite, t);
        Ok(())
    }

    /// The allocation state the device holds, for a layer that shadows
    /// allocation in memory (the paged store) to start from.
    pub(crate) fn free_list(&self) -> &FreeList {
        &self.alloc
    }

    /// Imposes a complete allocation state: grows or *shrinks* the device
    /// to `num_blocks` (a shrink cuts the file at the new high-water mark)
    /// and rebuilds the intrusive free chain so that pops come off the
    /// *end* of `free_stack`. A stack naming a block past `num_blocks`, or
    /// one twice, is refused as corrupt before anything is written.
    /// Idempotent for fixed arguments — a checkpoint journal can re-apply
    /// it after a crash mid-way through a previous application.
    pub fn restore_allocation(
        &mut self,
        num_blocks: u32,
        free_stack: &[u32],
    ) -> Result<(), StorageError> {
        self.alloc = FreeList::new(num_blocks, free_stack.to_vec())?;
        self.fit_file()?;
        self.write_chain()
    }

    /// Fits the file to the allocator's high-water mark: a cut, or a grow
    /// that reads as zeros.
    fn fit_file(&self) -> Result<(), StorageError> {
        let len = HEADER_LEN + self.alloc.num_blocks() as u64 * self.block_size as u64;
        Ok(self.file.set_len(len)?)
    }
}

impl BlockStore for FileDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u32 {
        self.alloc.num_blocks()
    }

    /// Writes the block it hands out and the header, and no other block:
    /// a pop only moves the chain's head.
    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        self.counters.bump(|c| &c.allocs);
        let id = self.alloc.allocate();
        self.zero(id)?;
        self.write_header()?;
        Ok(id)
    }

    fn allocate_min(&mut self) -> Result<BlockId, StorageError> {
        self.counters.bump(|c| &c.allocs);
        let id = self.alloc.allocate_min();
        self.zero(id)?;
        self.write_chain()?;
        Ok(id)
    }

    /// Writes the freed block (its link to the old head) and the header.
    fn free(&mut self, id: BlockId) -> Result<(), StorageError> {
        self.alloc.free(id)?;
        self.counters.bump(|c| &c.frees);
        let ids = self.alloc.ids();
        let next = ids.len().checked_sub(2).map_or(NO_FREE, |i| ids[i]);
        self.write_link(id.0, next)?;
        self.write_header()
    }

    fn claim_free(&mut self, id: BlockId) -> Result<(), StorageError> {
        self.alloc.claim(id)?;
        self.counters.bump(|c| &c.allocs);
        self.zero(id)?;
        self.write_chain()
    }

    fn truncate_free_tail(&mut self) -> Result<u32, StorageError> {
        let released = self.alloc.truncate_tail();
        if released > 0 {
            self.fit_file()?;
            self.write_chain()?;
        }
        self.counters
            .bump_by(|c| &c.device_truncated_blocks, released as u64);
        Ok(released)
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.alloc.check(id)?;
        if buf.len() != self.block_size {
            return Err(StorageError::WrongBlockSize {
                expected: self.block_size,
                got: buf.len(),
            });
        }
        self.counters.bump(|c| &c.block_reads);
        let t = self.counters.obs().start();
        read_exact_at(&self.file, buf, self.offset(id))?;
        self.counters.obs().stage(sks_obs::Stage::BlockRead, t);
        Ok(())
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        self.alloc.check(id)?;
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

    /// A group of one, named by where the device lives.
    fn commit_group(&self) -> Option<usize> {
        Some(self as *const FileDisk as usize)
    }

    fn free_blocks(&self) -> u32 {
        self.alloc.ids().len() as u32
    }

    fn free_block_ids(&self) -> Vec<u32> {
        self.alloc.ids().to_vec()
    }

    /// Freed blocks included: the attacker tooling's view of the file.
    fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        (0..self.alloc.num_blocks())
            .map(|i| {
                let mut block = vec![0u8; self.block_size];
                read_exact_at(&self.file, &mut block, self.offset(BlockId(i)))?;
                Ok(block)
            })
            .collect()
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

    /// The byte-at-a-time register update the sliced tables must equal.
    fn crc32_fold_bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        #[test]
        fn crc32_fold_equals_the_bytewise_reference_at_every_length(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 65..200),
            start in proptest::arbitrary::any::<u32>(),
        ) {
            for len in 0..=64 {
                proptest::prop_assert_eq!(
                    crc32_fold(start, &data[..len]),
                    crc32_fold_bytewise(start, &data[..len]),
                    "length {}", len
                );
            }
        }

        #[test]
        fn crc32_fold_is_split_invariant(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let (mut c, mut at) = (CRC32_INIT, 0);
            for cut in cuts.into_iter().chain([data.len()]) {
                c = crc32_fold(c, &data[at..cut]);
                at = cut;
            }
            proptest::prop_assert_eq!(c, crc32_fold_bytewise(CRC32_INIT, &data));
            proptest::prop_assert_eq!(!c, crc32(&data));
        }
    }

    #[test]
    fn restore_allocation_round_trips_the_free_chain() {
        let path = tmpfile("restore_alloc");
        let mut disk = FileDisk::create(&path, 64).unwrap();
        disk.restore_allocation(5, &[3, 1, 4]).unwrap();
        disk.flush().unwrap();
        assert_eq!(disk.num_blocks(), 5);
        assert_eq!(disk.free_block_ids(), vec![3, 1, 4]);
        // Idempotent: applying the same end state again changes nothing.
        disk.restore_allocation(5, &[3, 1, 4]).unwrap();
        assert_eq!(disk.free_block_ids(), vec![3, 1, 4]);
        drop(disk);
        let mut disk = FileDisk::open(&path).unwrap();
        assert_eq!(disk.free_block_ids(), vec![3, 1, 4]);
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
