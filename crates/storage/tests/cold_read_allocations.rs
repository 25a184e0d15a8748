//! A cold read on the file backend costs one positioned read into memory
//! that is kept: once the buffer pool of a `PagedFileStore` is full, a
//! miss reads the page straight into the frame it evicts, so reading
//! block after uncached block through `read_with` makes no heap
//! allocation at all.
//!
//! The binary installs a counting global allocator that counts only on a
//! thread that asks it to, so the test harness's own threads and output
//! add nothing to the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sks_storage::{BlockId, BlockStore, OpCounters, PagedFileStore};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations (and reallocations) of
/// the threads that have switched counting on.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    // `try_with`: a thread being torn down has no thread-locals left.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

const BLOCK: usize = 4096;
const POOL: usize = 16;
const BLOCKS: u32 = 8 * POOL as u32;

#[test]
fn uncached_reads_through_a_full_pool_allocate_nothing() {
    let path = std::env::temp_dir().join(format!("sks_cold_alloc_{}", std::process::id()));
    let counters = OpCounters::new();
    let mut store = PagedFileStore::create(&path, BLOCK, POOL, counters.clone()).unwrap();
    for b in 0..BLOCKS {
        let id = store.allocate().unwrap();
        store.write_block(id, &[b as u8; BLOCK]).unwrap();
    }
    store.flush().unwrap();
    drop(store);
    let store = PagedFileStore::open(&path, POOL, counters.clone()).unwrap();
    let read = |b: u32| {
        let mut first = None;
        store
            .read_with(BlockId(b), &mut |page| first = Some(page[0]))
            .unwrap();
        assert_eq!(first, Some(b as u8), "block {b}");
    };
    // Fill the pool: from here on every miss evicts.
    (0..POOL as u32).for_each(read);
    let before = counters.snapshot();
    let allocations = allocations_of(|| (POOL as u32..BLOCKS).for_each(read));
    let delta = counters.snapshot().delta(&before);
    let misses = u64::from(BLOCKS) - POOL as u64;
    assert_eq!((delta.cache_misses, delta.block_reads), (misses, misses));
    assert_eq!(delta.cache_evicts, misses, "every miss evicted a frame");
    assert_eq!(allocations, 0, "{misses} misses through a full pool");
    drop(store);
    let mut journal = path.clone().into_os_string();
    journal.push(".journal");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(journal).ok();
}

/// A block handed out is zeroed in its frame: allocating `k` blocks
/// allocates `k` frames while the pool has room, and once it is full of
/// pages past the file's end, which it writes back early and sheds, the
/// frames it evicts are the next blocks' frames.
#[test]
fn allocating_k_blocks_allocates_k_frames() {
    let path = std::env::temp_dir().join(format!("sks_alloc_frames_{}", std::process::id()));
    let counters = OpCounters::new();
    let mut store = PagedFileStore::create(&path, BLOCK, POOL, counters.clone()).unwrap();
    let k = POOL as u64;
    let allocations = allocations_of(|| {
        for _ in 0..k {
            store.allocate().unwrap();
        }
    });
    assert_eq!(allocations, k, "{k} blocks into a pool with room");
    assert_eq!(counters.snapshot().pages_written_early, 0);
    let more = 8 * k;
    let allocations = allocations_of(|| {
        for _ in 0..more {
            store.allocate().unwrap();
        }
    });
    let early = counters.snapshot().pages_written_early;
    assert!(early > 0 && store.resident_pages() <= POOL);
    // What is left: per write-back, the frame of the block that pushed
    // the pool over and the list of ids written; and the growth of the
    // set that remembers the pages written early.
    let write_backs = early / (k + 1);
    assert!(
        allocations <= 3 * write_backs && allocations < more / 4,
        "{more} blocks through a full pool: {allocations} allocations, {write_backs} write-backs"
    );
    for b in 0..k + more {
        store.read_block_vec(BlockId(b as u32)).unwrap();
    }
    drop(store);
    let mut journal = path.clone().into_os_string();
    journal.push(".journal");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(journal).ok();
}
