//! [`PagedFileStore`] — the file backend's node/record store: a
//! [`BufferPool`] over a [`FileDisk`] with *checkpoint semantics*.
//!
//! The engine's recovery contract is "on-disk tree image = the state of the
//! last checkpoint; everything since lives in the WAL tail". That only
//! holds if nothing dribbles onto the file between checkpoints, so this
//! store enforces three disciplines on top of the plain pool:
//!
//! 1. **No-steal caching** — dirty pages are pinned in memory (the
//!    [`BufferPool`]'s one policy); eviction drops clean frames only.
//! 2. **Shadowed allocation** — `allocate`/`free` mutate an in-memory
//!    mirror of the device's free list; the [`FileDisk`] header and
//!    intrusive free chain are rewritten only at checkpoint.
//! 3. **Journaled checkpoints** — [`BlockStore::flush`] first writes every
//!    dirty page plus the allocation end-state to a sidecar journal
//!    (fsynced), then applies them in place, then truncates the journal in
//!    place. A crash at any point leaves either the old image (journal
//!    absent, empty, or torn → ignored), a stale journal over the image it
//!    already produced (re-applied on open — idempotent full-page images),
//!    or enough to finish the new one (journal intact → re-applied on
//!    open). Truncating instead of unlinking keeps the journal's directory
//!    entry stable, so the steady-state checkpoint pays no directory
//!    fsyncs — the change-proportional cost is the dirty pages themselves.
//!
//! Pages are cached and journaled in their *enciphered* form — the pool
//! sits below the crypto boundary, exactly where Bayer–Metzger put the
//! hardware unit, so neither the cache nor the journal ever holds
//! plaintext key or record bytes.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::block::{BlockId, BlockStore, StorageError};
use crate::bufferpool::BufferPool;
use crate::counters::OpCounters;
use crate::filedisk::{crc32, crc32_fold, sync_dir, FileDisk, CRC32_INIT};

const JOURNAL_MAGIC: &[u8; 8] = b"SKSJRNL1";
const JOURNAL_VERSION: u32 = 1;

/// A checkpointing, thread-safe block store over one `FileDisk` file.
///
/// Reads lock an internal mutex (the pool must update LRU state), so the
/// store is `Sync` and a tree on top can sit behind an `RwLock` in the
/// engine. `flush` *is* the checkpoint.
#[derive(Debug)]
pub struct PagedFileStore {
    inner: Mutex<Inner>,
    block_size: usize,
    counters: OpCounters,
    journal_path: PathBuf,
    dir: PathBuf,
}

#[derive(Debug)]
struct Inner {
    pool: BufferPool<FileDisk>,
    /// Logical device length (>= the file's until the next checkpoint).
    num_blocks: u32,
    /// Free stack mirror: `pop()` yields the next allocation.
    free: Vec<u32>,
    /// Membership mirror of `free`, so the per-I/O freed-block check is
    /// O(1) instead of a scan of the stack.
    free_set: std::collections::HashSet<u32>,
    /// Whether allocation state diverged from the file since checkpoint.
    alloc_dirty: bool,
}

impl Inner {
    fn new(pool: BufferPool<FileDisk>, num_blocks: u32, free: Vec<u32>) -> Self {
        let free_set = free.iter().copied().collect();
        Inner {
            pool,
            num_blocks,
            free,
            free_set,
            alloc_dirty: false,
        }
    }

    fn check(&self, id: BlockId) -> Result<(), StorageError> {
        if id.0 >= self.num_blocks {
            return Err(StorageError::OutOfRange {
                id: id.0,
                len: self.num_blocks,
            });
        }
        if self.free_set.contains(&id.0) {
            return Err(StorageError::FreedBlock { id: id.0 });
        }
        Ok(())
    }
}

fn journal_path_for(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".journal");
    path.with_file_name(name)
}

fn parent_dir(path: &Path) -> PathBuf {
    path.parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

impl PagedFileStore {
    /// Creates a fresh store file (truncating existing content and
    /// discarding any stale checkpoint journal).
    pub fn create<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        pool_pages: usize,
        counters: OpCounters,
    ) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let journal_path = journal_path_for(path);
        std::fs::remove_file(&journal_path).ok();
        let disk = FileDisk::create_with_counters(path, block_size, counters.clone())?;
        Ok(PagedFileStore {
            inner: Mutex::new(Inner::new(BufferPool::new(disk, pool_pages), 0, Vec::new())),
            block_size,
            counters,
            journal_path,
            dir: parent_dir(path),
        })
    }

    /// Opens an existing store: finishes (or discards) an interrupted
    /// checkpoint via its journal, then adopts the persisted allocation
    /// state.
    pub fn open<P: AsRef<Path>>(
        path: P,
        pool_pages: usize,
        counters: OpCounters,
    ) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let journal_path = journal_path_for(path);
        let dir = parent_dir(path);
        if journal_path.exists() {
            // An intact journal means the previous checkpoint reached its
            // commit point: finish applying it (idempotent). A torn or
            // already-retired (empty) one never needs replay — the file
            // holds the previous consistent image. Either way the entry
            // is retired by truncation, matching `flush`: the directory
            // entry stays, so a clean open pays no directory fsync (and
            // an already-empty journal costs nothing at all).
            if let Some(journal) = Journal::read(&journal_path)? {
                let mut disk = FileDisk::open_with_counters(path, counters.clone())?;
                if journal.block_size != disk.block_size() {
                    return Err(StorageError::Corrupt(format!(
                        "journal block size {} != device block size {}",
                        journal.block_size,
                        disk.block_size()
                    )));
                }
                journal.apply(&mut disk)?;
            }
            let meta = std::fs::metadata(&journal_path)?;
            if meta.len() > 0 {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&journal_path)?
                    .set_len(0)?;
            }
        }
        let disk = FileDisk::open_with_counters(path, counters.clone())?;
        let num_blocks = disk.num_blocks();
        let free = disk.free_list_chain()?;
        let block_size = disk.block_size();
        Ok(PagedFileStore {
            inner: Mutex::new(Inner::new(
                BufferPool::new(disk, pool_pages),
                num_blocks,
                free,
            )),
            block_size,
            counters,
            journal_path,
            dir,
        })
    }

    /// Number of dirty (pinned) frames awaiting the next checkpoint.
    pub fn dirty_frames(&self) -> usize {
        self.inner
            .lock()
            .expect("paged store lock")
            .pool
            .dirty_count()
    }
}

impl BlockStore for PagedFileStore {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u32 {
        self.inner.lock().expect("paged store lock").num_blocks
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        self.counters.bump(|c| &c.allocs);
        let inner = self.inner.get_mut().expect("paged store lock");
        let id = match inner.free.pop() {
            Some(id) => {
                inner.free_set.remove(&id);
                BlockId(id)
            }
            None => {
                let id = BlockId(inner.num_blocks);
                inner.num_blocks += 1;
                id
            }
        };
        // A fresh (or recycled) block reads as zeros *through the cache*;
        // the file keeps whatever stale bytes it had until checkpoint.
        inner.pool.write(id, &vec![0u8; self.block_size])?;
        inner.alloc_dirty = true;
        Ok(id)
    }

    fn allocate_min(&mut self) -> Result<BlockId, StorageError> {
        let has_free = {
            let inner = self.inner.get_mut().expect("paged store lock");
            !inner.free.is_empty()
        };
        if !has_free {
            return self.allocate();
        }
        self.counters.bump(|c| &c.allocs);
        let inner = self.inner.get_mut().expect("paged store lock");
        let pos = crate::memdisk::lowest_free(&inner.free).expect("free list non-empty");
        let id = inner.free.swap_remove(pos);
        inner.free_set.remove(&id);
        inner.pool.write(BlockId(id), &vec![0u8; self.block_size])?;
        inner.alloc_dirty = true;
        Ok(BlockId(id))
    }

    fn free(&mut self, id: BlockId) -> Result<(), StorageError> {
        let inner = self.inner.get_mut().expect("paged store lock");
        inner.check(id)?;
        self.counters.bump(|c| &c.frees);
        inner.pool.discard(id);
        inner.free.push(id.0);
        inner.free_set.insert(id.0);
        inner.alloc_dirty = true;
        Ok(())
    }

    fn claim_free(&mut self, id: BlockId) -> Result<(), StorageError> {
        let inner = self.inner.get_mut().expect("paged store lock");
        let Some(pos) = inner.free.iter().position(|&f| f == id.0) else {
            return Err(StorageError::Io(format!("block {} is not free", id.0)));
        };
        self.counters.bump(|c| &c.allocs);
        inner.free.swap_remove(pos);
        inner.free_set.remove(&id.0);
        inner.pool.write(id, &vec![0u8; self.block_size])?;
        inner.alloc_dirty = true;
        Ok(())
    }

    fn truncate_free_tail(&mut self) -> Result<u32, StorageError> {
        let inner = self.inner.get_mut().expect("paged store lock");
        let mut released = 0u32;
        while inner.num_blocks > 0 && inner.free_set.contains(&(inner.num_blocks - 1)) {
            let id = inner.num_blocks - 1;
            let pos = inner
                .free
                .iter()
                .position(|&f| f == id)
                .expect("free_set mirrors free");
            inner.free.swap_remove(pos);
            inner.free_set.remove(&id);
            inner.pool.discard(BlockId(id));
            inner.num_blocks -= 1;
            released += 1;
        }
        if released > 0 {
            inner.alloc_dirty = true;
        }
        self.counters
            .bump_by(|c| &c.device_truncated_blocks, released as u64);
        Ok(released)
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<(), StorageError> {
        if buf.len() != self.block_size {
            return Err(StorageError::WrongBlockSize {
                expected: self.block_size,
                got: buf.len(),
            });
        }
        let mut inner = self.inner.lock().expect("paged store lock");
        inner.check(id)?;
        let data = inner.pool.read(id)?;
        buf.copy_from_slice(data);
        Ok(())
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        let inner = self.inner.get_mut().expect("paged store lock");
        inner.check(id)?;
        inner.pool.write(id, data)
    }

    /// Lends the pool frame itself, under the store's lock.
    fn read_with(&self, id: BlockId, f: &mut dyn FnMut(&[u8])) -> Result<(), StorageError> {
        let mut inner = self.inner.lock().expect("paged store lock");
        inner.check(id)?;
        f(inner.pool.read(id)?);
        Ok(())
    }

    /// Rewrites the pool frame in place: it turns dirty and, under the
    /// no-steal policy, pinned, as a written frame does.
    fn update_with(
        &mut self,
        id: BlockId,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), StorageError> {
        let inner = self.inner.get_mut().expect("paged store lock");
        inner.check(id)?;
        inner.pool.update(id, f)
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn dirty_pages(&self) -> usize {
        self.dirty_frames()
    }

    fn free_blocks(&self) -> u32 {
        self.inner.lock().expect("paged store lock").free.len() as u32
    }

    fn free_block_ids(&self) -> Vec<u32> {
        self.inner.lock().expect("paged store lock").free.clone()
    }

    /// The checkpoint: journal → apply in place → clear the journal.
    fn flush(&mut self) -> Result<(), StorageError> {
        let inner = self.inner.get_mut().expect("paged store lock");
        let dirty = inner.pool.dirty_ids();
        if dirty.is_empty() && !inner.alloc_dirty {
            // Nothing changed since the last checkpoint; still push the
            // header + fsync so callers get the durability they asked for.
            return inner.pool.store_mut().flush();
        }
        // The dirty set is journaled and applied from the pool's frames,
        // never copied: a bulk load checkpoints tens of megabytes of
        // pages, and a copy of them sets the process's peak memory.
        let pool = &inner.pool;
        let pages = dirty
            .iter()
            .map(|&id| (id, pool.peek(id).expect("a dirty frame is resident")));
        Journal::write_pages(
            &self.journal_path,
            &self.dir,
            self.block_size,
            inner.num_blocks,
            &inner.free,
            pages,
        )?;
        inner
            .pool
            .store_mut()
            .restore_allocation(inner.num_blocks, &inner.free)?;
        inner.pool.write_through(&dirty)?;
        inner.pool.store_mut().flush()?;
        inner.pool.mark_all_clean();
        inner.alloc_dirty = false;
        // Retire the journal by truncating it in place instead of
        // unlinking it. An empty file fails the magic/CRC parse and is
        // ignored on open; a *stale* journal (truncate lost to a crash)
        // replays full page images of the checkpoint that already
        // committed, which is idempotent. Keeping the directory entry
        // stable makes the steady-state checkpoint cost zero directory
        // fsyncs instead of two (journal create + unlink).
        std::fs::OpenOptions::new()
            .write(true)
            .open(&self.journal_path)?
            .set_len(0)?;
        Ok(())
    }

    /// What is physically on the medium — unflushed dirty frames live in
    /// RAM and are deliberately *not* part of the stolen-disk view.
    fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        self.inner
            .lock()
            .expect("paged store lock")
            .pool
            .store()
            .raw_image()
    }
}

/// A writer that folds every byte it passes on into a CRC-32 register.
struct CrcWriter<W> {
    inner: W,
    crc: u32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_fold(self.crc, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The checkpoint journal: allocation end-state plus full images of every
/// dirty page, committed by a trailing CRC. Torn writes fail the CRC and
/// the whole journal is discarded — the previous checkpoint still stands.
struct Journal {
    block_size: usize,
    num_blocks: u32,
    free: Vec<u32>,
    pages: Vec<(BlockId, Vec<u8>)>,
}

impl Journal {
    /// Writes and fsyncs a journal of `pages` (block order) and the
    /// allocation end-state.
    fn write_pages<'a>(
        path: &Path,
        dir: &Path,
        block_size: usize,
        num_blocks: u32,
        free: &[u32],
        pages: impl ExactSizeIterator<Item = (BlockId, &'a [u8])>,
    ) -> Result<(), StorageError> {
        let entry_is_new = !path.exists();
        // Streamed, never assembled: a bulk load journals tens of
        // megabytes of page images, and a buffer holding them a second
        // time sets the process's peak memory.
        let mut out = CrcWriter {
            inner: std::io::BufWriter::with_capacity(1 << 16, std::fs::File::create(path)?),
            crc: CRC32_INIT,
        };
        out.write_all(JOURNAL_MAGIC)?;
        out.write_all(&JOURNAL_VERSION.to_be_bytes())?;
        out.write_all(&(block_size as u64).to_be_bytes())?;
        out.write_all(&num_blocks.to_be_bytes())?;
        out.write_all(&(free.len() as u32).to_be_bytes())?;
        for &id in free {
            out.write_all(&id.to_be_bytes())?;
        }
        out.write_all(&(pages.len() as u32).to_be_bytes())?;
        for (id, data) in pages {
            debug_assert_eq!(data.len(), block_size);
            out.write_all(&id.0.to_be_bytes())?;
            out.write_all(data)?;
        }
        let CrcWriter { mut inner, crc } = out;
        inner.write_all(&(!crc).to_be_bytes())?;
        // `into_inner` flushes and, unlike a drop, reports a failed flush.
        let file = inner.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        // The journal's directory entry must be durable before any
        // in-place write, or a crash could leave a half-applied image with
        // no journal to finish it from. Once the entry exists it is kept
        // (commit truncates in place rather than unlinking), so steady-
        // state checkpoints skip this directory fsync entirely.
        if entry_is_new {
            sync_dir(dir)?;
        }
        Ok(())
    }

    /// `Ok(None)` = torn/invalid journal (checkpoint never committed).
    fn read(path: &Path) -> Result<Option<Journal>, StorageError> {
        let buf = std::fs::read(path)?;
        Ok(Self::parse(&buf))
    }

    fn parse(buf: &[u8]) -> Option<Journal> {
        if buf.len() < 8 + 4 + 8 + 4 + 4 + 4 + 4 || &buf[0..8] != JOURNAL_MAGIC {
            return None;
        }
        let body = &buf[..buf.len() - 4];
        let crc_stored = u32::from_be_bytes(buf[buf.len() - 4..].try_into().ok()?);
        if crc32(body) != crc_stored {
            return None;
        }
        let mut at = 8usize;
        let mut take = |n: usize| -> Option<&[u8]> {
            let end = at.checked_add(n)?;
            let s = body.get(at..end)?;
            at = end;
            Some(s)
        };
        let version = u32::from_be_bytes(take(4)?.try_into().ok()?);
        if version != JOURNAL_VERSION {
            return None;
        }
        let block_size = u64::from_be_bytes(take(8)?.try_into().ok()?) as usize;
        let num_blocks = u32::from_be_bytes(take(4)?.try_into().ok()?);
        let free_len = u32::from_be_bytes(take(4)?.try_into().ok()?) as usize;
        // The length words are inside the CRC, but a CRC-colliding corrupt
        // journal must not be able to demand a multi-GB allocation: clamp
        // every pre-allocation by what the remaining bytes could encode.
        // (Fixed fields consumed so far: magic 8 + version 4 + block_size 8
        // + num_blocks 4 + free_len 4.)
        let after_free_len = body.len().saturating_sub(8 + 4 + 8 + 4 + 4);
        let mut free = Vec::with_capacity(free_len.min(after_free_len / 4));
        for _ in 0..free_len {
            free.push(u32::from_be_bytes(take(4)?.try_into().ok()?));
        }
        let page_count = u32::from_be_bytes(take(4)?.try_into().ok()?) as usize;
        let entry_len = 4usize.saturating_add(block_size).max(1);
        let after_page_count = after_free_len.saturating_sub(free_len.saturating_mul(4) + 4);
        let mut pages = Vec::with_capacity(page_count.min(after_page_count / entry_len));
        for _ in 0..page_count {
            let id = u32::from_be_bytes(take(4)?.try_into().ok()?);
            pages.push((BlockId(id), take(block_size)?.to_vec()));
        }
        if at != body.len() {
            return None; // trailing garbage
        }
        Some(Journal {
            block_size,
            num_blocks,
            free,
            pages,
        })
    }

    fn apply(&self, disk: &mut FileDisk) -> Result<(), StorageError> {
        disk.restore_allocation(self.num_blocks, &self.free)?;
        for (id, data) in &self.pages {
            disk.write_block(*id, data)?;
        }
        disk.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Journal {
        fn write(&self, path: &Path, dir: &Path) -> Result<(), StorageError> {
            let pages = self.pages.iter().map(|(id, data)| (*id, data.as_slice()));
            Self::write_pages(
                path,
                dir,
                self.block_size,
                self.num_blocks,
                &self.free,
                pages,
            )
        }
    }

    fn tmpfile(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sks_paged_{}_{}", std::process::id(), name));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(journal_path_for(&p)).ok();
        p
    }

    #[test]
    fn roundtrip_survives_checkpoint_and_reopen() {
        let path = tmpfile("roundtrip");
        {
            let mut store = PagedFileStore::create(&path, 64, 4, OpCounters::new()).unwrap();
            let a = store.allocate().unwrap();
            let b = store.allocate().unwrap();
            store.write_block(a, &[0x11; 64]).unwrap();
            store.write_block(b, &[0x22; 64]).unwrap();
            store.flush().unwrap();
        }
        {
            let store = PagedFileStore::open(&path, 4, OpCounters::new()).unwrap();
            assert_eq!(store.num_blocks(), 2);
            assert_eq!(store.read_block_vec(BlockId(0)).unwrap(), vec![0x11; 64]);
            assert_eq!(store.read_block_vec(BlockId(1)).unwrap(), vec![0x22; 64]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nothing_reaches_the_file_before_checkpoint() {
        let path = tmpfile("nosteal");
        {
            let mut store = PagedFileStore::create(&path, 64, 2, OpCounters::new()).unwrap();
            for i in 0..6u8 {
                let id = store.allocate().unwrap();
                store.write_block(id, &[i; 64]).unwrap();
            }
            // Dirty pages exceed the pool capacity yet stay pinned.
            assert_eq!(store.dirty_frames(), 6);
            let s = store.counters().snapshot();
            assert_eq!(s.block_writes, 0, "no physical write before checkpoint");
            // Dropped without flush: the "crash".
        }
        {
            let store = PagedFileStore::open(&path, 2, OpCounters::new()).unwrap();
            assert_eq!(store.num_blocks(), 0, "unflushed epoch fully discarded");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn free_list_round_trips_through_checkpoint() {
        let path = tmpfile("freelist");
        {
            let mut store = PagedFileStore::create(&path, 64, 4, OpCounters::new()).unwrap();
            let a = store.allocate().unwrap();
            let b = store.allocate().unwrap();
            let c = store.allocate().unwrap();
            store.write_block(c, &[3; 64]).unwrap();
            store.free(a).unwrap();
            store.free(b).unwrap();
            store.flush().unwrap();
        }
        {
            let mut store = PagedFileStore::open(&path, 4, OpCounters::new()).unwrap();
            assert_eq!(store.num_blocks(), 3);
            assert!(store.read_block_vec(BlockId(0)).is_err(), "freed");
            // Pops come back in LIFO order, zeroed.
            assert_eq!(store.allocate().unwrap(), BlockId(1));
            assert_eq!(store.read_block_vec(BlockId(1)).unwrap(), vec![0u8; 64]);
            assert_eq!(store.allocate().unwrap(), BlockId(0));
            assert_eq!(store.allocate().unwrap(), BlockId(3));
            assert_eq!(store.read_block_vec(BlockId(2)).unwrap(), vec![3; 64]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_journal_is_discarded_and_old_image_stands() {
        let path = tmpfile("torn_journal");
        {
            let mut store = PagedFileStore::create(&path, 64, 4, OpCounters::new()).unwrap();
            let a = store.allocate().unwrap();
            store.write_block(a, &[0xAA; 64]).unwrap();
            store.flush().unwrap();
        }
        // A torn (CRC-less) journal left by a crash mid-checkpoint-write.
        std::fs::write(journal_path_for(&path), b"SKSJRNL1 but cut off").unwrap();
        {
            let store = PagedFileStore::open(&path, 4, OpCounters::new()).unwrap();
            assert_eq!(store.read_block_vec(BlockId(0)).unwrap(), vec![0xAA; 64]);
        }
        let retired = std::fs::metadata(journal_path_for(&path)).unwrap();
        assert_eq!(retired.len(), 0, "torn journal retired by truncation");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(journal_path_for(&path)).ok();
    }

    #[test]
    fn intact_journal_is_applied_on_open() {
        let path = tmpfile("intact_journal");
        {
            let mut store = PagedFileStore::create(&path, 64, 4, OpCounters::new()).unwrap();
            let a = store.allocate().unwrap();
            store.write_block(a, &[0x01; 64]).unwrap();
            store.flush().unwrap();
        }
        // Simulate a crash *after* the journal committed but before the
        // in-place application: hand-write a complete journal that blocks
        // 0 and a new block 1 should end up with new content.
        Journal {
            block_size: 64,
            num_blocks: 2,
            free: vec![],
            pages: vec![(BlockId(0), vec![0xEE; 64]), (BlockId(1), vec![0xFF; 64])],
        }
        .write(&journal_path_for(&path), &parent_dir(&path))
        .unwrap();
        {
            let store = PagedFileStore::open(&path, 4, OpCounters::new()).unwrap();
            assert_eq!(store.num_blocks(), 2);
            assert_eq!(store.read_block_vec(BlockId(0)).unwrap(), vec![0xEE; 64]);
            assert_eq!(store.read_block_vec(BlockId(1)).unwrap(), vec![0xFF; 64]);
        }
        let retired = std::fs::metadata(journal_path_for(&path)).unwrap();
        assert_eq!(retired.len(), 0, "applied journal retired by truncation");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(journal_path_for(&path)).ok();
    }

    #[test]
    fn committed_journal_is_truncated_in_place_and_ignored_on_open() {
        let path = tmpfile("retired_journal");
        {
            let mut store = PagedFileStore::create(&path, 64, 4, OpCounters::new()).unwrap();
            let a = store.allocate().unwrap();
            store.write_block(a, &[0x10; 64]).unwrap();
            store.flush().unwrap();
            // Commit retires the journal by truncation, not unlinking:
            // the directory entry stays (so later checkpoints skip the
            // directory fsyncs) and the empty file parses as "no journal".
            let jp = journal_path_for(&path);
            assert!(jp.exists(), "journal entry kept after commit");
            assert_eq!(std::fs::metadata(&jp).unwrap().len(), 0);
            store.write_block(a, &[0x11; 64]).unwrap();
            store.flush().unwrap();
            assert_eq!(std::fs::metadata(&jp).unwrap().len(), 0);
        }
        let store = PagedFileStore::open(&path, 4, OpCounters::new()).unwrap();
        assert_eq!(store.read_block_vec(BlockId(0)).unwrap(), vec![0x11; 64]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_committed_journal_replays_idempotently() {
        // A crash can lose the commit-time truncation: the image already
        // holds the checkpoint's result AND the journal that produced it.
        // Re-applying full page images over their own output must be a
        // no-op.
        let path = tmpfile("stale_journal");
        {
            let mut store = PagedFileStore::create(&path, 64, 4, OpCounters::new()).unwrap();
            let a = store.allocate().unwrap();
            store.write_block(a, &[0x77; 64]).unwrap();
            store.flush().unwrap();
        }
        // Resurrect the journal exactly as the committed checkpoint wrote
        // it (truncation lost), then reopen twice: both opens must land on
        // the same image.
        Journal {
            block_size: 64,
            num_blocks: 1,
            free: vec![],
            pages: vec![(BlockId(0), vec![0x77; 64])],
        }
        .write(&journal_path_for(&path), &parent_dir(&path))
        .unwrap();
        for _ in 0..2 {
            let store = PagedFileStore::open(&path, 4, OpCounters::new()).unwrap();
            assert_eq!(store.num_blocks(), 1);
            assert_eq!(store.read_block_vec(BlockId(0)).unwrap(), vec![0x77; 64]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_image_shows_the_medium_not_the_cache() {
        let path = tmpfile("raw_image");
        let mut store = PagedFileStore::create(&path, 64, 4, OpCounters::new()).unwrap();
        let a = store.allocate().unwrap();
        store.write_block(a, &[0x42; 64]).unwrap();
        assert!(
            BlockStore::raw_image(&store).unwrap().is_empty(),
            "dirty frames are in RAM, not on the stolen medium"
        );
        store.flush().unwrap();
        assert_eq!(BlockStore::raw_image(&store).unwrap(), vec![vec![0x42; 64]]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_free_tail_shrinks_the_file_at_checkpoint() {
        let path = tmpfile("shrink");
        {
            let mut store = PagedFileStore::create(&path, 64, 8, OpCounters::new()).unwrap();
            let ids: Vec<BlockId> = (0..6).map(|_| store.allocate().unwrap()).collect();
            for (i, &id) in ids.iter().enumerate() {
                store.write_block(id, &[i as u8 + 1; 64]).unwrap();
            }
            store.flush().unwrap();
            let full_len = std::fs::metadata(&path).unwrap().len();
            // Free the tail half plus one interior block.
            store.free(ids[5]).unwrap();
            store.free(ids[4]).unwrap();
            store.free(ids[1]).unwrap();
            assert_eq!(store.truncate_free_tail().unwrap(), 2);
            assert_eq!(store.num_blocks(), 4, "interior free block retained");
            assert_eq!(store.free_blocks(), 1);
            store.flush().unwrap();
            let cut_len = std::fs::metadata(&path).unwrap().len();
            assert!(cut_len < full_len, "{cut_len} !< {full_len}");
            assert_eq!(store.counters().snapshot().device_truncated_blocks, 2);
        }
        {
            // The shrink survives reopen; the interior free block still pops.
            let mut store = PagedFileStore::open(&path, 8, OpCounters::new()).unwrap();
            assert_eq!(store.num_blocks(), 4);
            assert_eq!(store.allocate_min().unwrap(), BlockId(1));
            assert_eq!(store.read_block_vec(BlockId(2)).unwrap(), vec![3u8; 64]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn claim_free_takes_a_chosen_block() {
        let path = tmpfile("claim");
        let mut store = PagedFileStore::create(&path, 64, 8, OpCounters::new()).unwrap();
        let ids: Vec<BlockId> = (0..4).map(|_| store.allocate().unwrap()).collect();
        store.free(ids[1]).unwrap();
        store.free(ids[2]).unwrap();
        store.claim_free(BlockId(1)).unwrap();
        assert!(store.claim_free(BlockId(3)).is_err(), "live block");
        assert!(store.claim_free(BlockId(1)).is_err(), "already claimed");
        store.write_block(BlockId(1), &[9u8; 64]).unwrap();
        assert_eq!(store.free_block_ids(), vec![2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_parse_rejects_mutations() {
        let j = Journal {
            block_size: 64,
            num_blocks: 3,
            free: vec![2],
            pages: vec![(BlockId(0), vec![9; 64])],
        };
        let path = tmpfile("parse");
        j.write(&path, &parent_dir(&path)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(Journal::parse(&bytes).is_some());
        bytes[20] ^= 1;
        assert!(Journal::parse(&bytes).is_none(), "CRC catches bit flips");
        std::fs::remove_file(&path).ok();
    }
}
