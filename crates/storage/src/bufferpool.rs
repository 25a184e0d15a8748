//! An LRU buffer pool layered over any [`BlockStore`].
//!
//! Bayer & Metzger encipher pages *between* main memory and disk; the buffer
//! pool marks that boundary. Pages cached here are the (encrypted) disk
//! images — decryption happens above, in the node codecs — so cache hits
//! save physical I/O but **not** decryption work, exactly as in the paper's
//! model where the hardware crypto unit sits at the disk interface.
//!
//! The pool has one policy, no-steal: a dirty frame is never written back
//! by eviction, only by [`BufferPool::flush`] (or a checkpoint's own
//! write path), so the store behind the pool changes only at those
//! points — the discipline a checkpointed file store needs, where the
//! on-disk image must stay a consistent snapshot between checkpoints.
//! The pool exceeds its capacity rather than write a dirty frame early.
//!
//! Frames live in one [`LruMap`]: a hit, a miss, a discard and the choice
//! of a victim are O(1) whatever the pool holds. A dirty frame is
//! *pinned* — in the map, off the recency list — so the least recently
//! used clean frame is simply the head of the list, however many thousand
//! dirty pages a bulk load has parked between checkpoints.
//!
//! A miss costs one positioned read. It makes room first, and the store
//! reads the page straight into the buffer of the frame it evicted; the
//! map has room made for the pool's capacity up front. So once the pool
//! is full a miss allocates nothing, zero-fills nothing and copies
//! nothing: the page goes from the file into the frame, and callers read
//! it there ([`BlockStore::read_with`] on the paged store). A read that
//! fails leaves its victim evicted and inserts nothing; the victim was
//! clean, so nothing is lost.

use crate::block::{BlockId, BlockStore, StorageError};
use crate::filedisk::{FileDisk, MAX_RUN_BLOCKS};
use crate::lru::LruMap;

/// No-steal LRU cache of whole blocks.
#[derive(Debug)]
pub struct BufferPool<S: BlockStore> {
    store: S,
    /// Cached frames in recency order; dirty frames are pinned.
    frames: LruMap<BlockId, Frame>,
    /// Frames with `dirty` set.
    dirty: usize,
}

#[derive(Debug)]
struct Frame {
    data: Vec<u8>,
    dirty: bool,
}

impl<S: BlockStore> BufferPool<S> {
    /// A pool of `capacity` frames over `store`. Eviction only ever drops
    /// clean frames, so `store` is written exclusively at
    /// [`BufferPool::flush`] and [`BufferPool::write_through`].
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity >= 1);
        BufferPool {
            store,
            frames: LruMap::with_room(capacity),
            dirty: 0,
        }
    }

    /// The frame of `id`, read in on a miss (one look-up on a hit), with
    /// the hit or miss counted. A miss makes room before the new frame
    /// goes in, which evicts what inserting it and then evicting down to
    /// capacity around it would, and the store reads the page straight
    /// into the last victim's buffer: a miss in a full pool allocates
    /// nothing. A failed read inserts nothing; the victims stay evicted,
    /// and they were clean, so nothing is lost.
    fn resident<'a>(
        store: &mut S,
        frames: &'a mut LruMap<BlockId, Frame>,
        id: BlockId,
    ) -> Result<&'a mut Frame, StorageError> {
        let (frame, hit) =
            frames.get_or_try_insert_with(id, |frames| -> Result<_, StorageError> {
                store.counters().bump(|c| &c.cache_misses);
                let mut data = evict(frames, store, 1)
                    .map(|victim| victim.data)
                    .unwrap_or_else(|| vec![0u8; store.block_size()]);
                store.read_block(id, &mut data)?;
                Ok(Frame { data, dirty: false })
            })?;
        if hit {
            store.counters().bump(|c| &c.cache_hits);
        }
        Ok(frame)
    }

    /// Reads through the cache.
    pub fn read(&mut self, id: BlockId) -> Result<&[u8], StorageError> {
        Ok(&Self::resident(&mut self.store, &mut self.frames, id)?.data)
    }

    /// Read-modify-write of `id`'s frame in place: counted and evicted
    /// exactly as a [`BufferPool::read`] followed by a
    /// [`BufferPool::write`] of the modified page, with no copy of it.
    pub fn update<R>(
        &mut self,
        id: BlockId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, StorageError> {
        let frame = Self::resident(&mut self.store, &mut self.frames, id)?;
        let out = f(&mut frame.data);
        if !std::mem::replace(&mut frame.dirty, true) {
            self.dirty += 1;
        }
        self.frames.pin(&id);
        evict(&mut self.frames, &self.store, 0);
        Ok(out)
    }

    /// Writes into the cache: the frame stays dirty, and pinned, until
    /// [`BufferPool::flush`]. A resident frame takes the bytes in place.
    pub fn write(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        if data.len() != self.store.block_size() {
            return Err(StorageError::WrongBlockSize {
                expected: self.store.block_size(),
                got: data.len(),
            });
        }
        let was_dirty = match self.frames.get_mut(&id) {
            Some(frame) => {
                frame.data.copy_from_slice(data);
                std::mem::replace(&mut frame.dirty, true)
            }
            None => {
                let frame = Frame {
                    data: data.to_vec(),
                    dirty: true,
                };
                self.frames.insert(id, frame);
                false
            }
        };
        if !was_dirty {
            self.dirty += 1;
        }
        self.frames.pin(&id);
        evict(&mut self.frames, &self.store, 0);
        Ok(())
    }

    /// Flushes all dirty frames to the store.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        for id in self.dirty_ids() {
            let frame = self.frames.peek_mut(&id).expect("collected above");
            self.store.write_block(id, &frame.data)?;
            frame.dirty = false;
            self.dirty -= 1;
            self.frames.unpin(&id);
        }
        self.store.flush()
    }

    /// Drops a block from the cache without writing it back (used after
    /// `free`).
    pub fn discard(&mut self, id: BlockId) {
        if self.frames.remove(&id).is_some_and(|f| f.dirty) {
            self.dirty -= 1;
        }
    }

    /// The dirty frames' ids, in block order — the write set a journaled
    /// checkpoint must make durable. Ids, not images: a bulk load leaves
    /// tens of megabytes dirty, and the checkpoint reads them in place
    /// ([`BufferPool::peek`], [`BufferPool::write_through`]).
    pub fn dirty_ids(&self) -> Vec<BlockId> {
        let mut dirty: Vec<BlockId> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&id, _)| id)
            .collect();
        dirty.sort_unstable();
        dirty
    }

    /// The cached image of `id`, recency and counters untouched.
    pub fn peek(&self, id: BlockId) -> Option<&[u8]> {
        self.frames.peek(&id).map(|f| f.data.as_slice())
    }

    /// Number of dirty frames (the cheap form of
    /// [`BufferPool::dirty_ids`] for high-water checks).
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Declares every cached frame clean *without* writing anything — the
    /// checkpoint already persisted the dirty set through its own path.
    pub fn mark_all_clean(&mut self) {
        for (_, frame) in self.frames.iter_mut() {
            frame.dirty = false;
        }
        self.dirty = 0;
        self.frames.unpin_all();
    }

    /// Number of cached frames (may exceed `capacity`: dirty frames are
    /// never evicted).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.frames.capacity()
    }

    pub fn store(&self) -> &S {
        &self.store
    }

    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the pool, flushing and returning the underlying store.
    pub fn into_store(mut self) -> Result<S, StorageError> {
        self.flush()?;
        Ok(self.store)
    }
}

impl BufferPool<FileDisk> {
    /// Writes the cached images of `ids` (ascending) to the file as they
    /// are; the frames stay as dirty and as recent as they were. Each run
    /// of consecutive resident ids goes out as one vectored write, from
    /// the frames themselves: a bulk load's checkpoint applies thousands
    /// of adjacent pages, and a system call per page was most of it.
    pub fn write_through(&mut self, ids: &[BlockId]) -> Result<(), StorageError> {
        let mut run: [&[u8]; MAX_RUN_BLOCKS] = [&[]; MAX_RUN_BLOCKS];
        let (mut first, mut len) = (BlockId(0), 0);
        for id in ids {
            let Some(frame) = self.frames.peek(id) else {
                continue;
            };
            if len > 0 && (first.0 + len as u32 != id.0 || len == MAX_RUN_BLOCKS) {
                self.store.write_run(first, &run[..len])?;
                len = 0;
            }
            if len == 0 {
                first = *id;
            }
            run[len] = &frame.data;
            len += 1;
        }
        if len > 0 {
            self.store.write_run(first, &run[..len])?;
        }
        Ok(())
    }
}

/// Drops least-recently-used frames until `incoming` more would fit the
/// capacity, and returns the last one dropped, whose buffer a miss reads
/// into. Only clean frames are on the recency list, so a victim is never
/// written back, and a frame just written (pinned) is never one; when
/// every frame is dirty the pool stays over capacity until the next flush.
fn evict<S: BlockStore>(
    frames: &mut LruMap<BlockId, Frame>,
    store: &S,
    incoming: usize,
) -> Option<Frame> {
    let mut last = None;
    while frames.len() + incoming > frames.capacity() {
        let Some((_, frame)) = frames.pop_lru() else {
            break;
        };
        debug_assert!(!frame.dirty, "dirty frames are pinned");
        store.counters().bump(|c| &c.cache_evicts);
        last = Some(frame);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::MemDisk;

    fn disk_with_blocks(n: u32) -> MemDisk {
        let mut disk = MemDisk::new(64);
        for i in 0..n {
            let id = disk.allocate().unwrap();
            disk.write_block(id, &[i as u8; 64]).unwrap();
        }
        disk
    }

    #[test]
    fn read_hits_after_first_miss() {
        let disk = disk_with_blocks(4);
        let mut pool = BufferPool::new(disk, 2);
        let _ = pool.read(BlockId(0)).unwrap();
        let _ = pool.read(BlockId(0)).unwrap();
        let s = pool.store().counters().snapshot();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.block_reads, 1, "only one physical read");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let disk = disk_with_blocks(3);
        let mut pool = BufferPool::new(disk, 2);
        let _ = pool.read(BlockId(0)).unwrap();
        let _ = pool.read(BlockId(1)).unwrap();
        let _ = pool.read(BlockId(0)).unwrap(); // 1 is now LRU
        let _ = pool.read(BlockId(2)).unwrap(); // evicts 1
        let _ = pool.read(BlockId(0)).unwrap(); // still cached
        let s = pool.store().counters().snapshot();
        assert_eq!(s.block_reads, 3, "0,1,2 read once each; 0 stayed cached");
    }

    #[test]
    fn a_dirty_frame_outlives_eviction_and_only_flush_writes_it() {
        let disk = disk_with_blocks(3);
        let mut pool = BufferPool::new(disk, 1);
        pool.write(BlockId(0), &[0xAA; 64]).unwrap();
        // Reading block 1 cannot evict the dirty block 0.
        let _ = pool.read(BlockId(1)).unwrap();
        assert_eq!(pool.read(BlockId(0)).unwrap(), &[0xAA; 64][..]);
        assert_eq!(
            pool.store().read_block_vec(BlockId(0)).unwrap(),
            vec![0u8; 64],
            "eviction never writes a dirty frame back"
        );
        pool.write(BlockId(2), &[0xBB; 64]).unwrap();
        pool.flush().unwrap();
        assert_eq!(
            pool.store().read_block_vec(BlockId(0)).unwrap(),
            vec![0xAA; 64]
        );
        assert_eq!(
            pool.store().read_block_vec(BlockId(2)).unwrap(),
            vec![0xBB; 64]
        );
    }

    #[test]
    fn cached_read_returns_written_data_before_flush() {
        let disk = disk_with_blocks(1);
        let mut pool = BufferPool::new(disk, 2);
        pool.write(BlockId(0), &[0xCC; 64]).unwrap();
        assert_eq!(pool.read(BlockId(0)).unwrap(), &[0xCC; 64][..]);
        // Physical store still has the old content (write-back).
        assert_eq!(
            pool.store().read_block_vec(BlockId(0)).unwrap(),
            vec![0x00; 64]
        );
    }

    #[test]
    fn discard_forgets_without_writeback() {
        let disk = disk_with_blocks(1);
        let mut pool = BufferPool::new(disk, 2);
        pool.write(BlockId(0), &[0xDD; 64]).unwrap();
        pool.discard(BlockId(0));
        pool.flush().unwrap();
        assert_eq!(
            pool.store().read_block_vec(BlockId(0)).unwrap(),
            vec![0x00; 64],
            "discarded dirty frame never hits the store"
        );
    }

    #[test]
    fn into_store_flushes() {
        let disk = disk_with_blocks(1);
        let mut pool = BufferPool::new(disk, 2);
        pool.write(BlockId(0), &[0xEE; 64]).unwrap();
        let store = pool.into_store().unwrap();
        assert_eq!(store.read_block_vec(BlockId(0)).unwrap(), vec![0xEE; 64]);
    }

    #[test]
    fn dirty_frames_stay_pinned_past_capacity() {
        let disk = disk_with_blocks(4);
        let mut pool = BufferPool::new(disk, 2);
        pool.write(BlockId(0), &[0xA0; 64]).unwrap();
        pool.write(BlockId(1), &[0xA1; 64]).unwrap();
        pool.write(BlockId(2), &[0xA2; 64]).unwrap();
        assert_eq!(pool.len(), 3, "dirty frames must not be evicted");
        let s = pool.store().counters().snapshot();
        assert_eq!(s.block_writes, 4, "only the fixture writes hit the disk");
        // Clean frames are still evictable: mark clean and trigger eviction.
        pool.mark_all_clean();
        let _ = pool.read(BlockId(3)).unwrap();
        assert!(pool.len() <= 2, "clean frames shrink back to capacity");
        // Nothing was ever written back.
        assert_eq!(
            pool.store().read_block_vec(BlockId(0)).unwrap(),
            vec![0u8; 64]
        );
    }

    #[test]
    fn a_read_miss_into_an_all_dirty_pool_survives() {
        // Regression: with the pool full of pinned dirty frames, a read
        // miss inserts a clean frame that is the *only* eviction
        // candidate; it must not be evicted out from under the caller.
        let disk = disk_with_blocks(4);
        let mut pool = BufferPool::new(disk, 2);
        pool.write(BlockId(0), &[0xA0; 64]).unwrap();
        pool.write(BlockId(1), &[0xA1; 64]).unwrap();
        assert_eq!(pool.read(BlockId(2)).unwrap(), &[2u8; 64][..]);
        assert_eq!(pool.read(BlockId(3)).unwrap(), &[3u8; 64][..]);
        // Dirty frames never hit the store.
        assert_eq!(
            pool.store().read_block_vec(BlockId(0)).unwrap(),
            vec![0u8; 64]
        );
    }

    /// A miss makes room before it reads, so a read that fails comes after
    /// its victim is gone: the pool then holds less, never more, than its
    /// capacity, no dirty frame was a victim or was written back, nothing
    /// of the failed block went in, and a retry reads the right bytes.
    #[test]
    fn a_failed_miss_inserts_nothing_and_evicts_no_dirty_frame() {
        let (store, plan) = crate::FailStore::new(disk_with_blocks(5));
        let mut pool = BufferPool::new(store, 3);
        pool.write(BlockId(0), &[0xD0; 64]).unwrap();
        for id in [1, 2] {
            let _ = pool.read(BlockId(id)).unwrap();
        }
        let before = pool.store().counters().snapshot();
        plan.arm_nth_read(1);
        assert!(pool.read(BlockId(3)).is_err());
        let delta = pool.store().counters().snapshot().delta(&before);
        assert_eq!((delta.cache_misses, delta.cache_evicts), (1, 1));
        assert_eq!((delta.block_reads, delta.block_writes), (0, 0));
        assert!(pool.len() <= pool.capacity());
        assert_eq!(pool.peek(BlockId(3)), None, "the failed block is not in");
        assert_eq!(pool.peek(BlockId(1)), None, "the victim, least recent");
        assert_eq!(pool.dirty_count(), 1);
        assert_eq!(pool.peek(BlockId(0)), Some(&[0xD0; 64][..]));
        assert_eq!(pool.peek(BlockId(2)), Some(&[2u8; 64][..]));
        assert_eq!(pool.read(BlockId(3)).unwrap(), &[3u8; 64][..], "retry");
        assert_eq!(pool.read(BlockId(1)).unwrap(), &[1u8; 64][..]);
        assert!(pool.len() <= pool.capacity());
        assert_eq!(pool.read(BlockId(0)).unwrap(), &[0xD0; 64][..]);
        assert_eq!(
            pool.store().inner().read_block_vec(BlockId(0)).unwrap(),
            vec![0u8; 64],
            "the dirty frame never reached the store"
        );
    }

    #[test]
    fn dirty_frames_reports_the_write_set() {
        let disk = disk_with_blocks(3);
        let mut pool = BufferPool::new(disk, 4);
        pool.write(BlockId(2), &[2; 64]).unwrap();
        pool.write(BlockId(0), &[0; 64]).unwrap();
        let _ = pool.read(BlockId(1)).unwrap();
        let dirty: Vec<u32> = pool.dirty_ids().iter().map(|id| id.0).collect();
        assert_eq!(dirty, vec![0, 2], "sorted, clean read frame excluded");
        pool.mark_all_clean();
        assert!(pool.dirty_ids().is_empty());
    }

    #[test]
    fn a_trace_replays_exactly_like_the_vec_scan_lru_with_dirty_frames_pinned() {
        use crate::lru::tests::{splitmix64, VecLru};
        const BLOCKS: u32 = 40;
        const CAPACITY: usize = 7;
        let mut pool = BufferPool::new(disk_with_blocks(BLOCKS), CAPACITY);
        // The oracle holds each resident block's dirty bit and contents;
        // `disk` what the store holds.
        let mut model = VecLru::<(bool, u8)>::new();
        let mut disk: Vec<u8> = (0..BLOCKS).map(|i| i as u8).collect();
        let mut rng = 0x5EED;
        let mut before = pool.store().counters().snapshot();
        for step in 0..10_000 {
            let r = splitmix64(&mut rng);
            let id = (r >> 8) as u32 % BLOCKS;
            let (mut hits, mut misses, mut evicts, mut writes) = (0, 0, 0, 0);
            // Evicts clean frames, least recent first, until `incoming`
            // more fit; a dirty frame is pinned, never a victim.
            let mut evict = |model: &mut VecLru<(bool, u8)>, incoming: usize| {
                while model.map.len() + incoming > CAPACITY {
                    let Some((_, (dirty, _))) = model.pop_lru() else {
                        break;
                    };
                    assert!(!dirty, "step {step}: a dirty frame was a victim");
                    evicts += 1;
                }
            };
            match r % 16 {
                0..=9 => {
                    let got = pool.read(BlockId(id)).unwrap()[0];
                    let want = match model.get(id) {
                        Some(&(_, byte)) => {
                            hits = 1;
                            byte
                        }
                        None => {
                            misses = 1;
                            evict(&mut model, 1);
                            model.insert(id, (false, disk[id as usize]));
                            disk[id as usize]
                        }
                    };
                    assert_eq!(got, want, "step {step}: read of block {id}");
                }
                10..=12 => {
                    let byte = step as u8;
                    pool.write(BlockId(id), &[byte; 64]).unwrap();
                    model.insert(id, (true, byte));
                    model.pin(id);
                    evict(&mut model, 0);
                }
                13 | 14 => {
                    pool.discard(BlockId(id));
                    model.remove(id);
                }
                _ => {
                    pool.flush().unwrap();
                    let mut dirty: Vec<u32> = model
                        .map
                        .iter()
                        .filter(|(_, &(d, _))| d)
                        .map(|(&id, _)| id)
                        .collect();
                    dirty.sort_unstable();
                    for id in dirty {
                        let frame = model.map.get_mut(&id).expect("listed");
                        frame.0 = false;
                        disk[id as usize] = frame.1;
                        model.unpin(id);
                        writes += 1;
                    }
                }
            }
            let after = pool.store().counters().snapshot();
            assert_eq!(
                (
                    after.cache_hits - before.cache_hits,
                    after.cache_misses - before.cache_misses,
                    after.cache_evicts - before.cache_evicts,
                    after.block_writes - before.block_writes,
                ),
                (hits, misses, evicts, writes),
                "step {step}"
            );
            assert_eq!(pool.len(), model.map.len(), "step {step}");
            let dirty = model.map.values().filter(|&&(d, _)| d).count();
            assert_eq!(pool.dirty_count(), dirty, "step {step}");
            before = after;
        }
        for id in 0..BLOCKS {
            assert_eq!(
                pool.store().read_block_vec(BlockId(id)).unwrap()[0],
                disk[id as usize],
                "block {id} on the store"
            );
        }
    }

    #[test]
    fn the_pool_holds_fifty_thousand_pinned_frames_and_sheds_them_after_flush() {
        const N: u32 = 50_000;
        let mut disk = MemDisk::new(64);
        for _ in 0..=N {
            disk.allocate().unwrap();
        }
        let mut pool = BufferPool::new(disk, 16);
        let page = |i: u32, round: u8| {
            let mut p = [round; 64];
            p[..4].copy_from_slice(&i.to_be_bytes());
            p
        };
        for i in 0..N {
            pool.write(BlockId(i), &page(i, 1)).unwrap();
        }
        assert_eq!(pool.len(), N as usize, "every dirty frame stays resident");
        assert_eq!(pool.dirty_count(), N as usize);
        for i in 0..N {
            pool.write(BlockId(i), &page(i, 2)).unwrap();
        }
        assert_eq!(pool.len(), N as usize);
        assert_eq!(pool.dirty_count(), N as usize);
        assert_eq!(pool.store().counters().snapshot().block_writes, 0);
        pool.flush().unwrap();
        assert_eq!(pool.dirty_count(), 0);
        assert_eq!(pool.store().counters().snapshot().block_writes, N as u64);
        // Unpinned by the flush, the frames are ordinary clean victims of
        // the next miss.
        assert_eq!(pool.read(BlockId(N)).unwrap(), &[0u8; 64][..]);
        assert!(pool.len() <= pool.capacity());
        for i in 0..N {
            assert_eq!(pool.read(BlockId(i)).unwrap(), &page(i, 2)[..], "block {i}");
            assert!(pool.len() <= pool.capacity());
        }
        assert_eq!(pool.dirty_count(), 0);
    }

    /// Runs of adjacent dirty ids go out as one write each, capped at
    /// `MAX_RUN_BLOCKS`; every block is still counted, and the file ends
    /// up as block-by-block writes would leave it.
    #[test]
    fn write_through_coalesces_adjacent_blocks_into_one_write() {
        let path = std::env::temp_dir().join(format!("sks_pool_{}_runs", std::process::id()));
        let bs = 64;
        let counters = crate::OpCounters::with_observability(sks_obs::Level::Histograms);
        let mut disk = FileDisk::create_with_counters(&path, bs, counters.clone()).unwrap();
        let n = MAX_RUN_BLOCKS as u32 + 12;
        for _ in 0..n {
            disk.allocate().unwrap();
        }
        let mut pool = BufferPool::new(disk, 1);
        // Runs: 0..MAX (one full run) and MAX..MAX+2, then MAX+3,
        // then MAX+5..MAX+12.
        let max = MAX_RUN_BLOCKS as u32;
        let ids: Vec<BlockId> = (0..max + 2)
            .chain([max + 3])
            .chain(max + 5..n)
            .map(BlockId)
            .collect();
        for id in &ids {
            pool.write(*id, &vec![id.0 as u8 + 1; bs]).unwrap();
        }
        let before = counters.snapshot();
        pool.write_through(&ids).unwrap();
        let writes = counters.snapshot().delta(&before).block_writes;
        assert_eq!(writes, ids.len() as u64, "every block is counted");
        let samples = counters
            .obs()
            .stages_snapshot()
            .into_iter()
            .find(|(stage, _)| *stage == sks_obs::Stage::BlockWrite)
            .map_or(0, |(_, h)| h.count);
        assert_eq!(samples, 4, "one write per run");
        let image = pool.store().raw_image().unwrap();
        for (i, block) in image.iter().enumerate() {
            let want = if ids.contains(&BlockId(i as u32)) {
                i as u8 + 1
            } else {
                0
            };
            assert!(block.iter().all(|&b| b == want), "block {i}");
        }
        assert_eq!(pool.dirty_count(), ids.len(), "the frames stay dirty");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_sized_write() {
        let disk = disk_with_blocks(1);
        let mut pool = BufferPool::new(disk, 2);
        assert!(matches!(
            pool.write(BlockId(0), &[0u8; 7]),
            Err(StorageError::WrongBlockSize { .. })
        ));
    }
}
