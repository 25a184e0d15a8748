//! [`PagedFileStore`] — the file backend's page store: a *checkpoint
//! group* of files, each a [`BufferPool`] over a [`FileDisk`], that become
//! durable together.
//!
//! The engine's recovery contract is "on-disk tree image = the state of the
//! last checkpoint; everything since lives in the WAL tail". That only
//! holds if nothing dribbles onto a file between checkpoints, and if the
//! files one structure spans — a partition's node file and data file —
//! never reopen at different checkpoints. So the files of a group are
//! opened together, one handle each, under three disciplines:
//!
//! 1. **No-steal caching** — dirty pages are pinned in memory (the
//!    [`BufferPool`]'s one policy); eviction drops clean frames only.
//! 2. **Shadowed allocation** — `allocate`/`free` mutate an in-memory
//!    copy of each file's allocation state (`freelist.rs`, the one policy
//!    [`FileDisk`] and [`crate::MemDisk`] run too); a [`FileDisk`] header
//!    and intrusive free chain are rewritten only at checkpoint.
//! 3. **One journaled commit** — [`BlockStore::flush`] through any handle
//!    first writes every file's dirty pages and allocation end-state to
//!    the group's one journal (fsynced), then applies them in place and
//!    fsyncs every file, then truncates the journal in place. A crash at
//!    any point leaves either every file's old image (journal absent,
//!    empty, or torn → ignored), a stale journal over the images it
//!    already produced (re-applied on open — idempotent full-page
//!    images), or enough to finish every new one (journal intact →
//!    re-applied on open). Truncating instead of unlinking keeps the
//!    journal's directory entry stable, so the steady-state checkpoint
//!    pays no directory fsyncs.
//!
//! Each file keeps its own pool and lock. Pages are cached and journaled
//! in their *enciphered* form — the pool sits below the crypto boundary,
//! exactly where Bayer–Metzger put the hardware unit, so neither the cache
//! nor the journal ever holds plaintext key or record bytes.

use std::borrow::Cow;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::block::{BlockId, BlockStore, StorageError};
use crate::bufferpool::BufferPool;
use crate::counters::OpCounters;
use crate::filedisk::{crc32, crc32_fold, sync_dir, FileDisk, CRC32_INIT};
use crate::freelist::FreeList;
use crate::pagerw::PageReader;

const JOURNAL_MAGIC: &[u8; 8] = b"SKSJRNL1";
/// Version 2 journals any number of files. Version 1 — one file, no file
/// count — is what older engines left beside each file; it parses as a
/// group of one.
const JOURNAL_VERSION: u32 = 2;

/// A handle onto one file of a checkpoint group: a thread-safe block
/// store whose `flush` *is* the group's checkpoint. Reads lock the file's
/// mutex (the pool must update LRU state), so a tree on top can sit
/// behind an `RwLock` in the engine.
#[derive(Debug)]
pub struct PagedFileStore {
    group: Arc<Group>,
    file: usize,
}

/// The files that commit together, and their one journal.
#[derive(Debug)]
struct Group {
    files: Vec<Mutex<Inner>>,
    block_size: usize,
    counters: OpCounters,
    journal: PathBuf,
}

#[derive(Debug)]
struct Inner {
    pool: BufferPool<FileDisk>,
    /// Allocation state, ahead of the file's until the next checkpoint.
    alloc: FreeList,
}

impl Inner {
    /// Hands out `id` zeroed. A fresh (or recycled) block reads as zeros
    /// *through the cache*; the file keeps whatever stale bytes it had
    /// until checkpoint.
    fn zero(&mut self, id: BlockId, block_size: usize) -> Result<BlockId, StorageError> {
        self.pool.write(id, &vec![0u8; block_size])?;
        Ok(id)
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
    /// Creates a fresh store file: a group of one, its journal beside it
    /// (`<path>.journal`).
    pub fn create<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        pool_pages: usize,
        counters: OpCounters,
    ) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let journal = journal_path_for(path);
        let [store] = Self::create_group(journal, [path], block_size, pool_pages, counters)?;
        Ok(store)
    }

    /// Opens a store file made by [`PagedFileStore::create`].
    pub fn open<P: AsRef<Path>>(
        path: P,
        pool_pages: usize,
        counters: OpCounters,
    ) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let [store] = Self::open_group(journal_path_for(path), [path], pool_pages, counters)?;
        Ok(store)
    }

    /// Creates the files of one checkpoint group, committing through
    /// `journal`, each behind a pool of `pool_pages` frames; one handle per
    /// file, in `paths` order. Existing content and stale journals are
    /// discarded.
    pub fn create_group<P: AsRef<Path>, const N: usize>(
        journal: impl AsRef<Path>,
        paths: [P; N],
        block_size: usize,
        pool_pages: usize,
        counters: OpCounters,
    ) -> Result<[Self; N], StorageError> {
        let journal = journal.as_ref();
        std::fs::remove_file(journal).ok();
        let mut disks = Vec::with_capacity(N);
        for path in &paths {
            std::fs::remove_file(journal_path_for(path.as_ref())).ok();
            let disk = FileDisk::create_with_counters(path, block_size, counters.clone())?;
            disks.push(disk);
        }
        Ok(Group::handles(journal, disks, pool_pages, counters))
    }

    /// Opens a group made by [`PagedFileStore::create_group`] (same
    /// `journal`, same `paths` in the same order). An intact journal is
    /// first applied to every file; a torn or empty one is ignored. A
    /// journal an older engine left beside one file (`<path>.journal`,
    /// from when each file checkpointed alone) is applied to that file
    /// first if intact, then removed.
    pub fn open_group<P: AsRef<Path>, const N: usize>(
        journal: impl AsRef<Path>,
        paths: [P; N],
        pool_pages: usize,
        counters: OpCounters,
    ) -> Result<[Self; N], StorageError> {
        let (journal, paths) = (journal.as_ref(), paths.each_ref().map(AsRef::as_ref));
        for path in paths {
            let legacy = journal_path_for(path);
            if legacy != journal && legacy.exists() {
                replay(&legacy, &[path], &counters)?;
                std::fs::remove_file(&legacy)?;
                // Durably gone, or a crash could resurrect it over the
                // checkpoints that follow.
                sync_dir(&parent_dir(path))?;
            }
        }
        if journal.exists() {
            replay(journal, &paths, &counters)?;
            // Retired by truncation, as a commit retires it.
            if std::fs::metadata(journal)?.len() > 0 {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(journal)?
                    .set_len(0)?;
            }
        }
        let mut disks = Vec::with_capacity(N);
        for path in paths {
            disks.push(FileDisk::open_with_counters(path, counters.clone())?);
        }
        Ok(Group::handles(journal, disks, pool_pages, counters))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.group.files[self.file]
            .lock()
            .expect("paged store lock")
    }
}

/// Finishes the checkpoint `journal` holds onto `paths` if it reached its
/// commit point; a torn or empty journal changes nothing.
fn replay(journal: &Path, paths: &[&Path], counters: &OpCounters) -> Result<(), StorageError> {
    let Some(parsed) = Journal::parse(&std::fs::read(journal)?) else {
        return Ok(());
    };
    if parsed.files.len() != paths.len() {
        return Err(StorageError::Corrupt(format!(
            "{} journals {} files, not {}",
            journal.display(),
            parsed.files.len(),
            paths.len()
        )));
    }
    for (image, path) in parsed.files.iter().zip(paths) {
        // The journal's allocation state replaces the chain, which the
        // interrupted checkpoint may have half rewritten.
        let (mut disk, _) = FileDisk::open_unchained(path, counters.clone())?;
        if parsed.block_size != disk.block_size() {
            return Err(StorageError::Corrupt(format!(
                "{} holds {}-byte pages for {}-byte blocks",
                journal.display(),
                parsed.block_size,
                disk.block_size()
            )));
        }
        disk.restore_allocation(image.num_blocks, &image.free)?;
        for (id, data) in &image.pages {
            disk.write_block(*id, data)?;
        }
        disk.flush()?;
    }
    Ok(())
}

impl Group {
    /// Pools `disks` and hands out one handle per file.
    fn handles<const N: usize>(
        journal: &Path,
        disks: Vec<FileDisk>,
        pool_pages: usize,
        counters: OpCounters,
    ) -> [PagedFileStore; N] {
        let group = Arc::new(Group {
            block_size: disks[0].block_size(),
            files: disks
                .into_iter()
                .map(|disk| {
                    let alloc = disk.free_list().clone();
                    let pool = BufferPool::new(disk, pool_pages);
                    Mutex::new(Inner { pool, alloc })
                })
                .collect(),
            counters,
            journal: journal.to_path_buf(),
        });
        std::array::from_fn(|file| PagedFileStore {
            group: group.clone(),
            file,
        })
    }

    /// The checkpoint: one journal for every file → apply in place and
    /// fsync every file → clear the journal.
    fn commit(&self) -> Result<(), StorageError> {
        // The only place more than one file's lock is held: all of them,
        // in file order.
        let mut files: Vec<MutexGuard<'_, Inner>> = self
            .files
            .iter()
            .map(|f| f.lock().expect("paged store lock"))
            .collect();
        let dirty: Vec<Vec<BlockId>> = files.iter().map(|f| f.pool.dirty_ids()).collect();
        let journaled = files
            .iter()
            .zip(&dirty)
            .any(|(f, ids)| !ids.is_empty() || f.alloc != *f.pool.store().free_list());
        if journaled {
            // Journaled and applied from the pools' frames, never copied:
            // a bulk load checkpoints tens of megabytes of pages, and a
            // copy of them sets the process's peak memory.
            let journal = Journal {
                block_size: self.block_size,
                files: files
                    .iter()
                    .zip(&dirty)
                    .map(|(f, ids)| FileImage {
                        num_blocks: f.alloc.num_blocks(),
                        free: Cow::Borrowed(f.alloc.ids()),
                        pages: ids
                            .iter()
                            .map(|&id| (id, Cow::Borrowed(f.pool.peek(id).expect("resident"))))
                            .collect(),
                    })
                    .collect(),
            };
            journal.write(&self.journal)?;
            let pages = dirty.iter().map(|ids| ids.len() as u64).sum();
            self.counters.obs().note(
                sks_obs::EventKind::PageCommit,
                sks_obs::NO_PARTITION,
                pages,
                files.len() as u64,
                0,
            );
        }
        for (f, ids) in files.iter_mut().zip(&dirty) {
            let f = &mut **f;
            if journaled {
                f.pool
                    .store_mut()
                    .restore_allocation(f.alloc.num_blocks(), f.alloc.ids())?;
                f.pool.write_through(ids)?;
            }
            // Header + fsync, even with nothing journaled: callers get the
            // durability they asked for.
            f.pool.store_mut().flush()?;
        }
        for f in &mut files {
            f.pool.mark_all_clean();
        }
        if journaled {
            // Retire the journal by truncation: an empty file fails the
            // parse and is ignored on open, and a *stale* one (the
            // truncation lost to a crash) replays full page images of a
            // checkpoint that already committed, which is idempotent.
            std::fs::OpenOptions::new()
                .write(true)
                .open(&self.journal)?
                .set_len(0)?;
        }
        Ok(())
    }
}

impl BlockStore for PagedFileStore {
    fn block_size(&self) -> usize {
        self.group.block_size
    }

    fn num_blocks(&self) -> u32 {
        self.lock().alloc.num_blocks()
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        self.group.counters.bump(|c| &c.allocs);
        let mut inner = self.lock();
        let id = inner.alloc.allocate();
        inner.zero(id, self.group.block_size)
    }

    fn allocate_min(&mut self) -> Result<BlockId, StorageError> {
        self.group.counters.bump(|c| &c.allocs);
        let mut inner = self.lock();
        let id = inner.alloc.allocate_min();
        inner.zero(id, self.group.block_size)
    }

    fn free(&mut self, id: BlockId) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.alloc.free(id)?;
        self.group.counters.bump(|c| &c.frees);
        inner.pool.discard(id);
        Ok(())
    }

    fn claim_free(&mut self, id: BlockId) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.alloc.claim(id)?;
        self.group.counters.bump(|c| &c.allocs);
        inner.zero(id, self.group.block_size)?;
        Ok(())
    }

    /// A free block holds no frame (`free` discards it), so the cut
    /// touches only the allocator.
    fn truncate_free_tail(&mut self) -> Result<u32, StorageError> {
        let released = self.lock().alloc.truncate_tail();
        self.group
            .counters
            .bump_by(|c| &c.device_truncated_blocks, released as u64);
        Ok(released)
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<(), StorageError> {
        if buf.len() != self.group.block_size {
            return Err(StorageError::WrongBlockSize {
                expected: self.group.block_size,
                got: buf.len(),
            });
        }
        self.read_with(id, &mut |page| buf.copy_from_slice(page))
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.alloc.check(id)?;
        inner.pool.write(id, data)
    }

    /// Lends the pool frame itself, under the file's lock.
    fn read_with(&self, id: BlockId, f: &mut dyn FnMut(&[u8])) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.alloc.check(id)?;
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
        let mut inner = self.lock();
        inner.alloc.check(id)?;
        inner.pool.update(id, f)
    }

    fn counters(&self) -> &OpCounters {
        &self.group.counters
    }

    fn dirty_pages(&self) -> usize {
        self.lock().pool.dirty_count()
    }

    fn free_blocks(&self) -> u32 {
        self.lock().alloc.ids().len() as u32
    }

    fn free_block_ids(&self) -> Vec<u32> {
        self.lock().alloc.ids().to_vec()
    }

    /// The group's checkpoint: every file of the group commits.
    fn flush(&mut self) -> Result<(), StorageError> {
        self.group.commit()
    }

    fn commit_group(&self) -> Option<usize> {
        Some(Arc::as_ptr(&self.group) as usize)
    }

    /// What is physically on the medium — unflushed dirty frames live in
    /// RAM and are deliberately *not* part of the stolen-disk view.
    fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        self.lock().pool.store().raw_image()
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

/// The checkpoint journal: each file's allocation end-state plus full
/// images of its dirty pages, committed by one trailing CRC. Torn writes
/// fail the CRC and the whole journal is discarded — the previous
/// checkpoint still stands, in every file. Written from borrowed pages,
/// read back into owned ones.
struct Journal<'a> {
    block_size: usize,
    files: Vec<FileImage<'a>>,
}

/// One file's part of a [`Journal`] (pages in block order).
struct FileImage<'a> {
    num_blocks: u32,
    free: Cow<'a, [u32]>,
    pages: Vec<(BlockId, Cow<'a, [u8]>)>,
}

impl Journal<'_> {
    /// Writes and fsyncs the journal to `path`.
    fn write(&self, path: &Path) -> Result<(), StorageError> {
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
        out.write_all(&(self.block_size as u64).to_be_bytes())?;
        out.write_all(&(self.files.len() as u32).to_be_bytes())?;
        for file in &self.files {
            out.write_all(&file.num_blocks.to_be_bytes())?;
            out.write_all(&(file.free.len() as u32).to_be_bytes())?;
            for &id in file.free.iter() {
                out.write_all(&id.to_be_bytes())?;
            }
            out.write_all(&(file.pages.len() as u32).to_be_bytes())?;
            for (id, data) in &file.pages {
                debug_assert_eq!(data.len(), self.block_size);
                out.write_all(&id.0.to_be_bytes())?;
                out.write_all(data)?;
            }
        }
        let CrcWriter { mut inner, crc } = out;
        inner.write_all(&(!crc).to_be_bytes())?;
        // `into_inner` flushes and, unlike a drop, reports a failed flush.
        let file = inner.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        // The journal's directory entry must be durable before any
        // in-place write, or a crash could leave a half-applied image with
        // no journal to finish it from. Commits truncate rather than
        // unlink, so only the first one pays this directory fsync.
        if entry_is_new {
            sync_dir(&parent_dir(path))?;
        }
        Ok(())
    }

    /// `None` = torn/invalid journal (checkpoint never committed).
    fn parse(buf: &[u8]) -> Option<Journal<'static>> {
        if buf.len() < 8 + 4 + 8 + 4 || &buf[0..8] != JOURNAL_MAGIC {
            return None;
        }
        let (body, crc_stored) = buf.split_at(buf.len() - 4);
        if crc32(body).to_be_bytes() != crc_stored {
            return None;
        }
        let mut r = PageReader::new(&body[8..]);
        let version = r.get_u32().ok()?;
        let block_size = r.get_u64().ok()? as usize;
        let file_count = match version {
            1 => 1,
            JOURNAL_VERSION => r.get_u32().ok()? as usize,
            _ => return None,
        };
        // The length words are inside the CRC, but a CRC-colliding corrupt
        // journal must not be able to demand a multi-GB allocation: clamp
        // every pre-allocation by what the bytes left could encode.
        let mut files = Vec::with_capacity(file_count.min(r.remaining() / 12));
        for _ in 0..file_count {
            let num_blocks = r.get_u32().ok()?;
            let free_len = r.get_u32().ok()? as usize;
            let mut free = Vec::with_capacity(free_len.min(r.remaining() / 4));
            for _ in 0..free_len {
                free.push(r.get_u32().ok()?);
            }
            let page_count = r.get_u32().ok()? as usize;
            let entry_len = block_size.saturating_add(4);
            let mut pages = Vec::with_capacity(page_count.min(r.remaining() / entry_len));
            for _ in 0..page_count {
                let id = BlockId(r.get_u32().ok()?);
                pages.push((id, Cow::Owned(r.get_bytes(block_size).ok()?.to_vec())));
            }
            files.push(FileImage {
                num_blocks,
                free: Cow::Owned(free),
                pages,
            });
        }
        // Trailing garbage fails the parse.
        (r.remaining() == 0).then_some(Journal { block_size, files })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FileImage<'static> {
        fn owned(num_blocks: u32, free: Vec<u32>, pages: Vec<(BlockId, Vec<u8>)>) -> Self {
            FileImage {
                num_blocks,
                free: Cow::Owned(free),
                pages: pages
                    .into_iter()
                    .map(|(id, d)| (id, Cow::Owned(d)))
                    .collect(),
            }
        }
    }

    impl Journal<'static> {
        /// A journal of one file of 64-byte blocks, as a crash could leave
        /// it.
        fn of_one(num_blocks: u32, free: Vec<u32>, pages: Vec<(BlockId, Vec<u8>)>) -> Self {
            Journal {
                block_size: 64,
                files: vec![FileImage::owned(num_blocks, free, pages)],
            }
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
            assert_eq!(store.dirty_pages(), 6);
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
        Journal::of_one(
            2,
            vec![],
            vec![(BlockId(0), vec![0xEE; 64]), (BlockId(1), vec![0xFF; 64])],
        )
        .write(&journal_path_for(&path))
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

    /// A crash inside a checkpoint's chain rewrite can leave the file's
    /// free chain looping. The intact journal's allocation state replaces
    /// that chain unread, so the open recovers instead of refusing it.
    #[test]
    fn an_intact_journal_recovers_a_half_rewritten_chain() {
        let path = tmpfile("half_chain");
        {
            let mut store = PagedFileStore::create(&path, 64, 4, OpCounters::new()).unwrap();
            for _ in 0..4 {
                store.allocate().unwrap();
            }
            store.free(BlockId(1)).unwrap();
            store.free(BlockId(2)).unwrap();
            store.flush().unwrap();
        }
        // The chain runs 2 → 1; aim block 1's link back at 2.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8192 + 64..8192 + 68].copy_from_slice(&2u32.to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileDisk::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        Journal::of_one(4, vec![1, 2], vec![])
            .write(&journal_path_for(&path))
            .unwrap();
        let mut store = PagedFileStore::open(&path, 4, OpCounters::new()).unwrap();
        assert_eq!(store.free_block_ids(), vec![1, 2]);
        assert_eq!(store.allocate().unwrap(), BlockId(2));
        drop(store);
        let disk = FileDisk::open(&path).unwrap();
        assert_eq!(
            disk.free_block_ids(),
            vec![1, 2],
            "the chain is whole again"
        );
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
        Journal::of_one(1, vec![], vec![(BlockId(0), vec![0x77; 64])])
            .write(&journal_path_for(&path))
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
        let j = Journal::of_one(3, vec![2], vec![(BlockId(0), vec![9; 64])]);
        let path = tmpfile("parse");
        j.write(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(Journal::parse(&bytes).is_some());
        bytes[20] ^= 1;
        assert!(Journal::parse(&bytes).is_none(), "CRC catches bit flips");
        std::fs::remove_file(&path).ok();
    }

    /// A fresh directory for a two-file group, the file paths and the
    /// group's journal path.
    fn group_paths(name: &str) -> (PathBuf, [PathBuf; 2], PathBuf) {
        let dir = std::env::temp_dir().join(format!("sks_paged_{}_{}", std::process::id(), name));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let files = [dir.join("a.sks"), dir.join("b.sks")];
        let journal = dir.join("group.journal");
        (dir, files, journal)
    }

    fn page_commits(counters: &OpCounters) -> Vec<(u64, u64)> {
        counters
            .obs()
            .recent_events()
            .iter()
            .filter(|e| e.kind == sks_obs::EventKind::PageCommit)
            .map(|e| (e.a, e.b))
            .collect()
    }

    fn store_fsyncs(counters: &OpCounters) -> u64 {
        counters
            .obs()
            .stages_snapshot()
            .into_iter()
            .find(|(stage, _)| *stage == sks_obs::Stage::StoreFsync)
            .map_or(0, |(_, h)| h.count)
    }

    /// A flush through either handle commits both files: one journal
    /// holding both files' pages, then one fsync per file, and no journal
    /// beside either file.
    #[test]
    fn a_flush_through_either_handle_commits_every_file() {
        let (dir, files, journal) = group_paths("either_handle");
        let counters = OpCounters::with_observability(sks_obs::Level::Histograms);
        {
            let [mut a, mut b] =
                PagedFileStore::create_group(&journal, files.clone(), 64, 4, counters.clone())
                    .unwrap();
            assert_eq!(a.commit_group(), b.commit_group());
            let (x, y) = (a.allocate().unwrap(), b.allocate().unwrap());
            a.write_block(x, &[0xA1; 64]).unwrap();
            b.write_block(y, &[0xB1; 64]).unwrap();
            let fsyncs = store_fsyncs(&counters);
            a.flush().unwrap();
            assert_eq!(page_commits(&counters), [(2, 2)], "one journal, both files");
            assert_eq!(store_fsyncs(&counters) - fsyncs, 2, "one fsync per file");
            assert_eq!((a.dirty_pages(), b.dirty_pages()), (0, 0));
            b.write_block(y, &[0xB2; 64]).unwrap();
            a.write_block(x, &[0xA2; 64]).unwrap();
            b.flush().unwrap();
            assert_eq!(page_commits(&counters).len(), 2);
        }
        for path in &files {
            assert!(!journal_path_for(path).exists(), "no per-file journal");
        }
        assert_eq!(std::fs::metadata(&journal).unwrap().len(), 0, "retired");
        let [a, b] = PagedFileStore::open_group(&journal, files, 4, OpCounters::new()).unwrap();
        assert_eq!(a.read_block_vec(BlockId(0)).unwrap(), vec![0xA2; 64]);
        assert_eq!(b.read_block_vec(BlockId(0)).unwrap(), vec![0xB2; 64]);
        assert_ne!(
            a.commit_group(),
            PagedFileStore::create(dir.join("c.sks"), 64, 4, OpCounters::new())
                .unwrap()
                .commit_group(),
            "another group is another commit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash-mid-checkpoint rig: a two-file group holding checkpoint A,
    /// the journal of the checkpoint that takes both files to B, and both
    /// files' bytes at A and at B.
    struct KillRig {
        dir: PathBuf,
        files: [PathBuf; 2],
        journal: PathBuf,
        pre: [Vec<u8>; 2],
        post: [Vec<u8>; 2],
        committed: Journal<'static>,
    }

    impl KillRig {
        fn new(name: &str) -> Self {
            let (dir, files, journal) = group_paths(name);
            let [mut a, mut b] =
                PagedFileStore::create_group(&journal, files.clone(), 64, 8, OpCounters::new())
                    .unwrap();
            for i in 0..4u8 {
                let id = a.allocate().unwrap();
                a.write_block(id, &[0x10 + i; 64]).unwrap();
                let id = b.allocate().unwrap();
                b.write_block(id, &[0x20 + i; 64]).unwrap();
            }
            a.flush().unwrap();
            let pre = files.clone().map(|f| std::fs::read(f).unwrap());
            // Epoch B touches both files: rewrites, a free, a grow, and a
            // tail cut in one of them.
            a.write_block(BlockId(1), &[0x31; 64]).unwrap();
            a.free(BlockId(2)).unwrap();
            let grown = a.allocate_min().unwrap();
            a.write_block(grown, &[0x32; 64]).unwrap();
            b.write_block(BlockId(0), &[0x41; 64]).unwrap();
            b.free(BlockId(3)).unwrap();
            b.free(BlockId(2)).unwrap();
            assert_eq!(b.truncate_free_tail().unwrap(), 2);
            let id = b.allocate().unwrap();
            b.write_block(id, &[0x42; 64]).unwrap();
            // The journal this checkpoint writes, captured before it runs.
            let committed = Journal {
                block_size: 64,
                files: [&a, &b]
                    .iter()
                    .map(|store| {
                        let inner = store.lock();
                        FileImage::owned(
                            inner.alloc.num_blocks(),
                            inner.alloc.ids().to_vec(),
                            inner
                                .pool
                                .dirty_ids()
                                .into_iter()
                                .map(|id| (id, inner.pool.peek(id).unwrap().to_vec()))
                                .collect(),
                        )
                    })
                    .collect(),
            };
            b.flush().unwrap();
            let post = files.clone().map(|f| std::fs::read(f).unwrap());
            assert_ne!(pre, post);
            KillRig {
                dir,
                files,
                journal,
                pre,
                post,
                committed,
            }
        }

        /// Puts both files back at checkpoint A.
        fn restore_pre(&self) {
            for (path, bytes) in self.files.iter().zip(&self.pre) {
                std::fs::write(path, bytes).unwrap();
            }
        }

        /// Opens the group as a reboot would and returns both files' bytes.
        fn reopen(&self) -> [Vec<u8>; 2] {
            let [a, b] =
                PagedFileStore::open_group(&self.journal, self.files.clone(), 8, OpCounters::new())
                    .unwrap();
            drop((a, b));
            self.files.clone().map(|f| std::fs::read(f).unwrap())
        }
    }

    /// A crash after the journal's fsync, at every point of the in-place
    /// application — before it, between any two page writes of either
    /// file, after either file's allocation rewrite, and after both files
    /// (the stale journal) — opens to checkpoint B in both files.
    #[test]
    fn an_intact_group_journal_over_half_applied_files_opens_to_the_post_image() {
        let rig = KillRig::new("intact_kill");
        // The application, step by step: each file's allocation state,
        // then its pages.
        let steps: Vec<(usize, Option<usize>)> = rig
            .committed
            .files
            .iter()
            .enumerate()
            .flat_map(|(f, image)| {
                std::iter::once((f, None)).chain((0..image.pages.len()).map(move |p| (f, Some(p))))
            })
            .collect();
        for kill in 0..=steps.len() {
            rig.restore_pre();
            let mut disks: Vec<Option<FileDisk>> = vec![None, None];
            for &(f, page) in &steps[..kill] {
                let image = &rig.committed.files[f];
                match page {
                    None => {
                        let (mut disk, _) =
                            FileDisk::open_unchained(&rig.files[f], OpCounters::new()).unwrap();
                        disk.restore_allocation(image.num_blocks, &image.free)
                            .unwrap();
                        disks[f] = Some(disk);
                    }
                    Some(p) => {
                        let (id, data) = &image.pages[p];
                        disks[f].as_mut().unwrap().write_block(*id, data).unwrap();
                    }
                }
            }
            drop(disks);
            rig.committed.write(&rig.journal).unwrap();
            assert_eq!(rig.reopen(), rig.post, "killed after step {kill}");
            assert_eq!(std::fs::metadata(&rig.journal).unwrap().len(), 0);
        }
        std::fs::remove_dir_all(&rig.dir).ok();
    }

    /// A crash while the journal is being written — cut at every byte, or
    /// with a flipped bit — opens to checkpoint A in both files.
    #[test]
    fn a_torn_group_journal_opens_to_the_pre_image() {
        let rig = KillRig::new("torn_kill");
        rig.committed.write(&rig.journal).unwrap();
        let whole = std::fs::read(&rig.journal).unwrap();
        let flipped = {
            let mut bytes = whole.clone();
            bytes[whole.len() / 2] ^= 0x04;
            bytes
        };
        let cuts = (0..whole.len()).map(|n| whole[..n].to_vec());
        for (i, torn) in cuts.chain([flipped]).enumerate() {
            rig.restore_pre();
            std::fs::write(&rig.journal, &torn).unwrap();
            assert_eq!(rig.reopen(), rig.pre, "torn journal {i}");
        }
        std::fs::remove_dir_all(&rig.dir).ok();
    }

    /// A journal an older engine left beside one file is finished onto
    /// that file when intact, ignored when empty or torn, and removed
    /// either way; one that cannot be that file's is refused.
    #[test]
    fn a_per_file_journal_of_an_older_engine_is_applied_then_removed() {
        let (dir, files, journal) = group_paths("legacy");
        {
            let [mut a, mut b] =
                PagedFileStore::create_group(&journal, files.clone(), 64, 4, OpCounters::new())
                    .unwrap();
            a.allocate().unwrap();
            b.allocate().unwrap();
            a.flush().unwrap();
        }
        // The older format: version 1, one file, no file count.
        let mut v1 = JOURNAL_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_be_bytes());
        v1.extend_from_slice(&64u64.to_be_bytes());
        v1.extend_from_slice(&1u32.to_be_bytes()); // num_blocks
        v1.extend_from_slice(&0u32.to_be_bytes()); // free
        v1.extend_from_slice(&1u32.to_be_bytes()); // pages
        v1.extend_from_slice(&0u32.to_be_bytes());
        v1.extend_from_slice(&[0x5A; 64]);
        v1.extend_from_slice(&crc32(&v1).to_be_bytes());
        std::fs::write(journal_path_for(&files[0]), &v1).unwrap();
        std::fs::write(journal_path_for(&files[1]), b"").unwrap();
        let [a, b] =
            PagedFileStore::open_group(&journal, files.clone(), 4, OpCounters::new()).unwrap();
        assert_eq!(a.read_block_vec(BlockId(0)).unwrap(), vec![0x5A; 64]);
        assert_eq!(b.read_block_vec(BlockId(0)).unwrap(), vec![0; 64]);
        for path in &files {
            assert!(!journal_path_for(path).exists());
        }
        // A torn one is ignored, and removed all the same.
        drop((a, b));
        std::fs::write(journal_path_for(&files[0]), &v1[..v1.len() - 1]).unwrap();
        let [a, b] =
            PagedFileStore::open_group(&journal, files.clone(), 4, OpCounters::new()).unwrap();
        assert_eq!(a.read_block_vec(BlockId(0)).unwrap(), vec![0x5A; 64]);
        assert!(!journal_path_for(&files[0]).exists());
        // One whose pages cannot be this file's is refused by name.
        drop((a, b));
        let mut two = Journal::of_one(1, vec![], vec![]);
        two.files.push(FileImage::owned(1, vec![], vec![]));
        two.write(&journal_path_for(&files[1])).unwrap();
        match PagedFileStore::open_group(&journal, files.clone(), 4, OpCounters::new()) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("b.sks.journal"), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
