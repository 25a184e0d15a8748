//! What record reads allocate on the file backend, with every node they
//! visit already in the node cache: a range scan its answer — the row
//! vector and one buffer per row — plus a constant, with no scratch per
//! record; a point get exactly what it allocated before reads went
//! through the run reader.
//!
//! The binary installs a counting global allocator that counts only on a
//! thread that asks it to, so the test harness's own threads add nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sks_core::{EncipheredBTree, Scheme, SchemeConfig};

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
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn value(key: u64) -> Vec<u8> {
    (0..100).map(|i| (key as u8).wrapping_add(i)).collect()
}

/// Beyond its answer, a range scan allocates the tree walk's node stack
/// and its `(key, pointer)` vector, which grows by doubling: at most this
/// many blocks for the 25- to 100-row ranges below (5 to 7 on the 64-bit
/// targets this was measured on). Scratch per record would add at least
/// one block a row.
const RANGE_EXTRA_BLOCKS: u64 = 8;

/// A point get that misses the record cache allocates the value it
/// returns, the cache's copy and the `Arc` around that copy; a hit the
/// value it returns.
const GET_MISS_BLOCKS: u64 = 3;
const GET_HIT_BLOCKS: u64 = 1;

#[test]
fn record_reads_allocate_their_answer_and_no_scratch_per_record() {
    let dir = std::env::temp_dir().join(format!("sks_record_read_alloc_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = SchemeConfig::with_capacity(Scheme::Oval, 1_000).on_disk(&dir);
    {
        let mut tree = EncipheredBTree::create(config.clone()).unwrap();
        for key in 1..=400 {
            tree.insert(key, value(key)).unwrap();
        }
        tree.flush().unwrap();
    }
    // Reopened, so the record cache is empty; one full scan fills the
    // node cache and the buffer pool and admits no record.
    let tree = EncipheredBTree::open(config).unwrap();
    assert_eq!(tree.range(1, 400).unwrap().len(), 400);
    assert_eq!(tree.cached_records(), 0);

    for (lo, rows) in [(101, 50u64), (201, 100), (5, 25)] {
        let before = tree.snapshot();
        let (answer, allocations) = allocations_of(|| tree.range(lo, lo + rows - 1).unwrap());
        let delta = tree.snapshot().delta(&before);
        assert_eq!(answer.len() as u64, rows);
        assert_eq!(
            (delta.record_cache_misses, delta.data_decrypts),
            (rows, rows)
        );
        assert_eq!(delta.node_cache_misses, 0, "every node cached");
        let extra = allocations - (rows + 1);
        println!("{rows}-row range: {allocations} heap allocations ({extra} beyond the answer)");
        assert!(
            extra <= RANGE_EXTRA_BLOCKS,
            "{rows} rows: {allocations} allocations, {extra} beyond the answer"
        );
    }

    // One get first, so the record cache's own table and slab exist.
    assert_eq!(tree.get(299).unwrap(), Some(value(299)));
    let key = 300;
    let (got, miss) = allocations_of(|| tree.get(key).unwrap());
    assert_eq!(got, Some(value(key)));
    let (got, hit) = allocations_of(|| tree.get(key).unwrap());
    assert_eq!(got, Some(value(key)));
    println!("point get: {miss} heap allocations on a record-cache miss, {hit} on a hit");
    assert_eq!((miss, hit), (GET_MISS_BLOCKS, GET_HIT_BLOCKS));
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
}
