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
