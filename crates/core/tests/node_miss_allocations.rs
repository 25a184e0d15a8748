//! What one node-cache miss of a point read allocates on the file
//! backend: the cache entry it fills and nothing else. The page is read
//! into the buffer-pool frame the miss evicted and decoded from there, so
//! no copy of it is ever allocated; what remains is the entry's own
//! columns and the `Arc` it is shared through.
//!
//! The binary installs a counting global allocator that counts only on a
//! thread that asks it to, so the test harness's own threads add nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sks_btree_core::{BTree, RecordPtr};
use sks_core::{Scheme, SchemeConfig};
use sks_storage::{OpCounters, PagedFileStore};

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

/// A lazy leaf entry under the oval scheme is four heap blocks — its
/// stored key fields and cryptograms, and its key, data-pointer and
/// bitmap columns (a leaf has no child column) — plus the `Arc` around
/// it.
const LEAF_ENTRY_BLOCKS: u64 = 5;

#[test]
fn a_node_cache_miss_allocates_only_its_entry() {
    let path = std::env::temp_dir().join(format!("sks_node_miss_alloc_{}", std::process::id()));
    let counters = OpCounters::new();
    let config = SchemeConfig::with_capacity(Scheme::Oval, 20_000);
    let codec = || config.build_codec(&counters).unwrap().0;
    let store = PagedFileStore::create(&path, 4096, 4, counters.clone()).unwrap();
    let items: Vec<(u64, RecordPtr)> = (1..=6_000).map(|k| (k, RecordPtr(k * 7))).collect();
    let tree = BTree::bulk_load(store, codec(), &items).unwrap();
    drop(tree.into_store().unwrap());
    // Reopened, so every page comes in through a pool miss.
    let store = PagedFileStore::open(&path, 4, counters.clone()).unwrap();
    let mut tree = BTree::open(store, codec()).unwrap();
    tree.enable_node_cache(1 << 10);
    assert_eq!(tree.height(), 2, "a root over leaves");
    let root = tree.inspect_node(tree.root_id()).unwrap();
    // Every leaf visited once: the root and every leaf are cached, and the
    // four-frame pool has evicted all but the last leaves' pages.
    for &key in &root.keys {
        assert!(tree.get(key - 1).unwrap().is_some());
    }
    let (leaf, key) = (root.children[1], root.keys[0] + 1);
    tree.node_cache().invalidate(leaf);
    let before = counters.snapshot();
    let (found, allocations) = allocations_of(|| tree.get(key).unwrap());
    assert_eq!(found, Some(RecordPtr(key * 7)));
    let delta = counters.snapshot().delta(&before);
    assert_eq!(
        (
            delta.node_cache_misses,
            delta.cache_misses,
            delta.cache_evicts
        ),
        (1, 1, 1),
        "one node miss, read through a full pool"
    );
    println!("one node-cache miss through BTree::get: {allocations} heap allocations");
    assert_eq!(
        allocations, LEAF_ENTRY_BLOCKS,
        "the entry, and no page copy"
    );
    drop(tree);
    let mut journal = path.clone().into_os_string();
    journal.push(".journal");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(journal).ok();
}
