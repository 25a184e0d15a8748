//! Multi-thread (barrier-based, loom-free) tests of the storage layer
//! under the kind of access the engine generates: a shared buffer pool
//! absorbing writes and flushes from many threads, and a `FileDisk`
//! free list being hammered by concurrent allocate/free cycles.
//!
//! `BufferPool` and `FileDisk` are `&mut self` APIs — the engine shares
//! them behind locks, never lock-free — so these tests drive them through
//! a `Mutex` exactly as a caller would, and assert the *data* invariants
//! that matter across threads: no lost writes across eviction and flush,
//! no double-handed-out blocks, free-list reuse instead of file growth.

use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex};

use sks_storage::{BlockId, BlockStore, BufferPool, FileDisk, MemDisk, OpCounters};

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sks_storage_ct_{}_{}", std::process::id(), name));
    p
}

/// Every thread owns a disjoint set of blocks and rewrites them through a
/// pool far smaller than the working set, flushing the pool after each of
/// its rounds while other threads interleave. A dirty frame stays pinned
/// however far the pool runs over capacity, so nothing reaches the store
/// but a flush; a flushed frame is clean and the next miss evicts it.
/// After the storm, every block's final content must be the last value
/// its owner wrote — nothing lost in eviction or flush, nothing
/// cross-written.
#[test]
fn bufferpool_pins_dirty_frames_until_flush_under_contention() {
    const THREADS: usize = 8;
    const BLOCKS_PER_THREAD: u32 = 16;
    const ROUNDS: u8 = 25;
    const BLOCK_SIZE: usize = 64;
    let total_blocks = THREADS as u32 * BLOCKS_PER_THREAD;

    let mut disk = MemDisk::new(BLOCK_SIZE);
    for _ in 0..total_blocks {
        disk.allocate().unwrap();
    }
    // Capacity 7: far below 128 live blocks, and coprime to the stride so
    // eviction picks victims from every thread's range.
    let pool = Arc::new(Mutex::new(BufferPool::new(disk, 7)));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let my_first = t as u32 * BLOCKS_PER_THREAD;
                barrier.wait();
                for round in 0..ROUNDS {
                    for b in my_first..my_first + BLOCKS_PER_THREAD {
                        let fill = fill_byte(t, b, round);
                        let mut pool = pool.lock().unwrap();
                        let writes = pool.store().counters().snapshot().block_writes;
                        pool.write(BlockId(b), &[fill; BLOCK_SIZE]).unwrap();
                        // Read-your-writes through the cache, interleaved
                        // with everyone else's evictions and flushes.
                        let got = pool.read(BlockId(b)).unwrap();
                        assert_eq!(got, &[fill; BLOCK_SIZE][..], "thread {t} block {b}");
                        assert_eq!(
                            pool.store().counters().snapshot().block_writes,
                            writes,
                            "only a flush writes to the store"
                        );
                    }
                    pool.lock().unwrap().flush().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panics");
    }

    let mut pool = Arc::try_unwrap(pool)
        .expect("all threads joined")
        .into_inner()
        .unwrap();
    // Eviction must have actually happened for this test to mean anything.
    let flushed = {
        let s = pool.store().counters().snapshot();
        assert!(
            s.cache_evicts > 0,
            "a 7-frame pool over 128 hot blocks must evict"
        );
        assert_eq!(pool.dirty_count(), 0, "every round ended in a flush");
        s.block_writes
    };
    pool.flush().unwrap();
    let disk = pool.into_store().unwrap();
    for t in 0..THREADS {
        let my_first = t as u32 * BLOCKS_PER_THREAD;
        for b in my_first..my_first + BLOCKS_PER_THREAD {
            let want = vec![fill_byte(t, b, ROUNDS - 1); BLOCK_SIZE];
            assert_eq!(
                disk.read_block_vec(BlockId(b)).unwrap(),
                want,
                "final content of block {b} (owner {t}) survived {flushed} flushed writes"
            );
        }
    }
}

fn fill_byte(thread: usize, block: u32, round: u8) -> u8 {
    (thread as u8)
        .wrapping_mul(31)
        .wrapping_add(block as u8)
        .wrapping_add(round.wrapping_mul(97))
}

/// Threads allocate a block, stamp it, verify their stamp, free it, in a
/// tight loop. Invariants: the free list never hands the same block to
/// two holders at once, stamps never tear, and the file stays near the
/// high-water mark of concurrent holders (reuse, not growth).
#[test]
fn filedisk_free_list_reuse_under_contention() {
    const THREADS: usize = 8;
    const ITERS: usize = 60;
    const BLOCK_SIZE: usize = 64;

    let path = tmpfile("freelist_reuse");
    let disk = FileDisk::create_with_counters(&path, BLOCK_SIZE, OpCounters::new()).unwrap();
    let disk = Arc::new(Mutex::new(disk));
    let held: Arc<Mutex<HashSet<u32>>> = Arc::new(Mutex::new(HashSet::new()));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let disk = Arc::clone(&disk);
            let held = Arc::clone(&held);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..ITERS {
                    let id = {
                        let mut disk = disk.lock().unwrap();
                        let id = disk.allocate().unwrap();
                        let stamp = [(t as u8) ^ (i as u8); BLOCK_SIZE];
                        disk.write_block(id, &stamp).unwrap();
                        id
                    };
                    {
                        let mut held = held.lock().unwrap();
                        assert!(
                            held.insert(id.0),
                            "block {} handed to two holders at once",
                            id.0
                        );
                    }
                    // Hold briefly while others churn, then verify + free.
                    std::thread::yield_now();
                    {
                        let mut disk = disk.lock().unwrap();
                        let back = disk.read_block_vec(id).unwrap();
                        assert_eq!(
                            back,
                            vec![(t as u8) ^ (i as u8); BLOCK_SIZE],
                            "stamp torn on block {}",
                            id.0
                        );
                        // Give the block up in `held` before the free list
                        // can hand it on: once the disk lock drops, another
                        // thread may legitimately be allocated this id.
                        held.lock().unwrap().remove(&id.0);
                        disk.free(id).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panics");
    }

    let disk = Arc::try_unwrap(disk).expect("joined").into_inner().unwrap();
    // 480 allocate/free cycles with at most 8 concurrent holders: the
    // free list must have kept the file small instead of growing per
    // allocation.
    assert!(
        disk.num_blocks() <= THREADS as u32 * 2,
        "free list not reused: file grew to {} blocks for {} holders",
        disk.num_blocks(),
        THREADS
    );
    let s = disk.counters().snapshot();
    assert_eq!(s.allocs, (THREADS * ITERS) as u64);
    assert_eq!(s.frees, (THREADS * ITERS) as u64);

    // The reuse survives reopen: allocations keep coming off the list.
    drop(disk);
    let mut disk = FileDisk::open(&path).unwrap();
    let before = disk.num_blocks();
    let a = disk.allocate().unwrap();
    assert!(a.0 < before, "reopened free list still feeds allocations");
    std::fs::remove_file(&path).ok();
}

/// Concurrent readers over a shared `FileDisk` (positioned reads take
/// `&self`): all threads see consistent block content while a writer
/// rewrites other blocks.
#[test]
fn filedisk_concurrent_readers_with_writer() {
    const READERS: usize = 6;
    const BLOCKS: u32 = 32;
    const BLOCK_SIZE: usize = 64;

    let path = tmpfile("concurrent_readers");
    let mut disk = FileDisk::create(&path, BLOCK_SIZE).unwrap();
    for i in 0..BLOCKS {
        let id = disk.allocate().unwrap();
        disk.write_block(id, &[i as u8; BLOCK_SIZE]).unwrap();
    }
    let disk = Arc::new(std::sync::RwLock::new(disk));
    let barrier = Arc::new(Barrier::new(READERS + 1));

    let mut handles = Vec::new();
    for r in 0..READERS {
        let disk = Arc::clone(&disk);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for pass in 0..50u32 {
                // Even blocks are immutable in this test; readers pin them.
                let b = ((r as u32 + pass) * 2) % BLOCKS;
                let disk = disk.read().unwrap();
                let got = disk.read_block_vec(BlockId(b)).unwrap();
                assert_eq!(got, vec![b as u8; BLOCK_SIZE], "reader {r} block {b}");
            }
        }));
    }
    {
        let disk_w = Arc::clone(&disk);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for pass in 0..50u32 {
                let b = (pass * 2 + 1) % BLOCKS; // odd blocks only
                let mut disk = disk_w.write().unwrap();
                disk.write_block(BlockId(b), &[0xF0 ^ pass as u8; BLOCK_SIZE])
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panics");
    }
    std::fs::remove_file(&path).ok();
}
