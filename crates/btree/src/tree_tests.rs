//! Exhaustive tests of the B-tree over the plaintext codec. (The enciphered
//! codecs get the same treatment in `sks-core`, reusing these behaviours.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use sks_storage::{BlockId, BlockStore, MemDisk, OpCounters};

use crate::codec::{CodecError, NodeCodec, PlainCodec};
use crate::node::RecordPtr;
use crate::tree::{BTree, TreeError};

fn make_tree(block_size: usize) -> BTree<MemDisk, PlainCodec> {
    let counters = OpCounters::new();
    let disk = MemDisk::with_counters(block_size, counters.clone());
    BTree::create(disk, PlainCodec::new(counters)).unwrap()
}

#[test]
fn empty_tree_properties() {
    let tree = make_tree(256);
    assert!(tree.is_empty());
    assert_eq!(tree.len(), 0);
    assert_eq!(tree.height(), 1);
    assert_eq!(tree.get(42).unwrap(), None);
    assert_eq!(tree.first().unwrap(), None);
    assert_eq!(tree.last().unwrap(), None);
    assert!(tree.scan_all().unwrap().is_empty());
    tree.validate().unwrap();
}

#[test]
fn insert_and_get_sequential() {
    let mut tree = make_tree(256);
    for k in 0..500u64 {
        assert_eq!(tree.insert(k, RecordPtr(k * 10)).unwrap(), None);
    }
    assert_eq!(tree.len(), 500);
    for k in 0..500u64 {
        assert_eq!(tree.get(k).unwrap(), Some(RecordPtr(k * 10)), "key {k}");
    }
    assert_eq!(tree.get(500).unwrap(), None);
    assert!(tree.height() > 1, "tree must have split");
    tree.validate().unwrap();
}

#[test]
fn insert_reverse_and_shuffled() {
    for seed in 0..3u64 {
        let mut tree = make_tree(256);
        let mut keys: Vec<u64> = (0..400).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        keys.shuffle(&mut rng);
        for &k in &keys {
            tree.insert(k, RecordPtr(k)).unwrap();
        }
        tree.validate().unwrap();
        let scanned: Vec<u64> = tree.scan_all().unwrap().iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = (0..400).collect();
        assert_eq!(scanned, want, "seed {seed}");
    }
}

#[test]
fn upsert_replaces_pointer() {
    let mut tree = make_tree(256);
    assert_eq!(tree.insert(7, RecordPtr(1)).unwrap(), None);
    assert_eq!(tree.insert(7, RecordPtr(2)).unwrap(), Some(RecordPtr(1)));
    assert_eq!(tree.len(), 1, "upsert must not double-count");
    assert_eq!(tree.get(7).unwrap(), Some(RecordPtr(2)));
    tree.validate().unwrap();
}

#[test]
fn upsert_at_full_node_boundary() {
    // Replacing a key that is the promoted median of a split exercises the
    // equal-median path in insert_nonfull.
    let mut tree = make_tree(256);
    let max = tree.max_keys_per_node() as u64;
    for k in 0..max * 4 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    for k in 0..max * 4 {
        assert_eq!(
            tree.insert(k, RecordPtr(k + 1000)).unwrap(),
            Some(RecordPtr(k))
        );
    }
    assert_eq!(tree.len(), max * 4);
    tree.validate().unwrap();
}

#[test]
fn delete_from_leaf_simple() {
    let mut tree = make_tree(256);
    for k in [10u64, 20, 30] {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    assert_eq!(tree.delete(20).unwrap(), Some(RecordPtr(20)));
    assert_eq!(tree.delete(20).unwrap(), None);
    assert_eq!(tree.len(), 2);
    assert_eq!(tree.get(20).unwrap(), None);
    assert_eq!(tree.get(10).unwrap(), Some(RecordPtr(10)));
    tree.validate().unwrap();
}

#[test]
fn delete_everything_ascending_and_descending() {
    for ascending in [true, false] {
        let mut tree = make_tree(256);
        let n = 300u64;
        for k in 0..n {
            tree.insert(k, RecordPtr(k)).unwrap();
        }
        let order: Vec<u64> = if ascending {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for (i, &k) in order.iter().enumerate() {
            assert_eq!(tree.delete(k).unwrap(), Some(RecordPtr(k)), "delete {k}");
            if i % 37 == 0 {
                tree.validate().unwrap();
            }
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1, "tree must shrink back to a single leaf");
        tree.validate().unwrap();
    }
}

#[test]
fn delete_random_interleaved_with_inserts() {
    let mut tree = make_tree(256);
    let mut rng = StdRng::seed_from_u64(99);
    let mut model = std::collections::BTreeMap::new();
    for round in 0..2000u64 {
        let k = rng.gen_range(0..500u64);
        if rng.gen_bool(0.6) {
            let expected = model.insert(k, k + round);
            let got = tree.insert(k, RecordPtr(k + round)).unwrap();
            assert_eq!(got.map(|p| p.0), expected, "insert {k} round {round}");
        } else {
            let expected = model.remove(&k);
            let got = tree.delete(k).unwrap();
            assert_eq!(got.map(|p| p.0), expected, "delete {k} round {round}");
        }
        if round % 250 == 0 {
            tree.validate().unwrap();
        }
    }
    tree.validate().unwrap();
    assert_eq!(tree.len(), model.len() as u64);
    let scanned: Vec<(u64, u64)> = tree
        .scan_all()
        .unwrap()
        .iter()
        .map(|&(k, p)| (k, p.0))
        .collect();
    let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(scanned, want);
}

#[test]
fn range_queries_match_model() {
    let mut tree = make_tree(256);
    let keys: Vec<u64> = (0..300).map(|i| i * 3).collect(); // 0,3,6,...
    for &k in &keys {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    for (lo, hi) in [
        (0u64, 0u64),
        (1, 2),
        (0, 897),
        (10, 100),
        (450, 460),
        (897, 2000),
        (5, 5),
        (6, 6),
    ] {
        let got: Vec<u64> = tree
            .range(lo, hi)
            .unwrap()
            .iter()
            .map(|&(k, _)| k)
            .collect();
        let want: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| k >= lo && k <= hi)
            .collect();
        assert_eq!(got, want, "range [{lo}, {hi}]");
    }
    // Inverted range is empty.
    assert!(tree.range(10, 5).unwrap().is_empty());
}

#[test]
fn first_and_last() {
    let mut tree = make_tree(256);
    for k in [50u64, 10, 90, 30, 70] {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    assert_eq!(tree.first().unwrap(), Some((10, RecordPtr(10))));
    assert_eq!(tree.last().unwrap(), Some((90, RecordPtr(90))));
}

#[test]
fn persistence_across_reopen() {
    let counters = OpCounters::new();
    let disk = MemDisk::with_counters(256, counters.clone());
    let mut tree = BTree::create(disk, PlainCodec::new(counters.clone())).unwrap();
    for k in 0..100u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    let store = tree.into_store().unwrap();
    let tree = BTree::open(store, PlainCodec::new(counters)).unwrap();
    assert_eq!(tree.len(), 100);
    for k in 0..100u64 {
        assert_eq!(tree.get(k).unwrap(), Some(RecordPtr(k)));
    }
    tree.validate().unwrap();
}

#[test]
fn range_scan_surfaces_unreadable_pages_as_errors() {
    // A corrupt page anywhere on the scan path — the root included —
    // must yield an Err, never a silently shortened (or empty) result:
    // the engine's checkpoint snapshot and the compactor's reverse map
    // both trust this scan.
    let counters = OpCounters::new();
    let disk = MemDisk::with_counters(256, counters.clone());
    let mut tree = BTree::create(disk, PlainCodec::new(counters.clone())).unwrap();
    for k in 0..300u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    let root = tree.root_id();
    let mut store = tree.into_store().unwrap();
    store.write_block(root, &[0xEE; 256]).unwrap();
    let tree = BTree::open(store, PlainCodec::new(counters)).unwrap();
    assert!(tree.range(0, u64::MAX).is_err(), "corrupt root must error");
    let items: Vec<_> = tree.iter_range(0, u64::MAX).collect();
    assert_eq!(items.len(), 1, "exactly one error item, then termination");
    assert!(items[0].is_err());
}

#[test]
fn open_rejects_garbage_superblock() {
    let mut disk = MemDisk::new(256);
    let b = disk.allocate().unwrap();
    disk.write_block(b, &[0xAB; 256]).unwrap();
    let counters = disk.counters().clone();
    assert!(matches!(
        BTree::open(disk, PlainCodec::new(counters)),
        Err(TreeError::Codec(_))
    ));
}

#[test]
fn create_rejects_tiny_pages() {
    let counters = OpCounters::new();
    let disk = MemDisk::with_counters(32, counters.clone());
    assert!(matches!(
        BTree::create(disk, PlainCodec::new(counters)),
        Err(TreeError::PageTooSmall { .. })
    ));
}

#[test]
fn height_grows_logarithmically() {
    let mut tree = make_tree(128); // small pages -> small fanout
    for k in 0..1000u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    tree.validate().unwrap();
    let t = tree.min_degree() as f64;
    let bound = ((1000f64).ln() / t.ln()).ceil() as u32 + 2;
    assert!(
        tree.height() <= bound,
        "height {} exceeds O(log_t n) bound {bound}",
        tree.height()
    );
}

#[test]
fn splits_and_merges_are_counted() {
    let mut tree = make_tree(128);
    for k in 0..200u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    let s = tree.counters().snapshot();
    assert!(s.splits > 0, "insertions at this scale must split");
    for k in 0..200u64 {
        tree.delete(k).unwrap();
    }
    let s = tree.counters().snapshot();
    assert!(s.merges > 0, "deletions at this scale must merge");
}

#[test]
fn freed_blocks_are_reused_after_merges() {
    let mut tree = make_tree(128);
    for k in 0..500u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    let peak = tree.store().num_blocks();
    for k in 100..500u64 {
        tree.delete(k).unwrap();
    }
    for k in 100..500u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    tree.validate().unwrap();
    // Reinsertion must largely reuse freed blocks rather than keep growing.
    let after = tree.store().num_blocks();
    assert!(
        after <= peak + peak / 4,
        "block leak: peak {peak}, after churn {after}"
    );
}

#[test]
fn duplicate_monotonic_pointers_data_integrity() {
    // Pointer payloads unrelated to keys survive splits/merges unchanged.
    let mut tree = make_tree(256);
    for k in 0..300u64 {
        tree.insert(k, RecordPtr(u64::MAX - k)).unwrap();
    }
    for k in (0..300u64).step_by(3) {
        tree.delete(k).unwrap();
    }
    for k in 0..300u64 {
        let want = if k % 3 == 0 {
            None
        } else {
            Some(RecordPtr(u64::MAX - k))
        };
        assert_eq!(tree.get(k).unwrap(), want, "key {k}");
    }
}

#[test]
fn extreme_keys() {
    let mut tree = make_tree(256);
    for k in [0u64, 1, u64::MAX, u64::MAX - 1, u64::MAX / 2] {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    assert_eq!(tree.get(u64::MAX).unwrap(), Some(RecordPtr(u64::MAX)));
    assert_eq!(tree.get(0).unwrap(), Some(RecordPtr(0)));
    let all: Vec<u64> = tree.scan_all().unwrap().iter().map(|&(k, _)| k).collect();
    assert_eq!(all, vec![0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX]);
    tree.validate().unwrap();
}

#[test]
fn inspect_node_exposes_root() {
    let mut tree = make_tree(256);
    tree.insert(5, RecordPtr(5)).unwrap();
    let root = tree.inspect_node(tree.root_id()).unwrap();
    assert_eq!(root.keys, vec![5]);
    assert_eq!(root.id, BlockId(1), "root allocated after superblock");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_matches_btreemap_model(
        ops in proptest::collection::vec((any::<bool>(), 0u64..200), 1..300),
        block_size in prop_oneof![Just(128usize), Just(256), Just(512)],
    ) {
        let counters = OpCounters::new();
        let disk = MemDisk::with_counters(block_size, counters.clone());
        let mut tree = BTree::create(disk, PlainCodec::new(counters)).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (i, &(is_insert, k)) in ops.iter().enumerate() {
            if is_insert {
                let want = model.insert(k, i as u64);
                let got = tree.insert(k, RecordPtr(i as u64)).unwrap();
                prop_assert_eq!(got.map(|p| p.0), want);
            } else {
                let want = model.remove(&k);
                let got = tree.delete(k).unwrap();
                prop_assert_eq!(got.map(|p| p.0), want);
            }
        }
        tree.validate().unwrap();
        prop_assert_eq!(tree.len(), model.len() as u64);
        let scanned: Vec<(u64, u64)> =
            tree.scan_all().unwrap().iter().map(|&(k, p)| (k, p.0)).collect();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(scanned, want);
    }

    #[test]
    fn prop_range_equals_filtered_scan(
        keys in proptest::collection::btree_set(0u64..1000, 0..120),
        lo in 0u64..1000,
        width in 0u64..500,
    ) {
        let mut tree = make_tree(256);
        for &k in &keys {
            tree.insert(k, RecordPtr(k)).unwrap();
        }
        let hi = lo.saturating_add(width);
        let got: Vec<u64> = tree.range(lo, hi).unwrap().iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = keys.iter().copied().filter(|&k| k >= lo && k <= hi).collect();
        prop_assert_eq!(got, want);
    }
}

// ---- bulk loading --------------------------------------------------------

fn bulk(items: &[(u64, u64)], block_size: usize) -> BTree<MemDisk, PlainCodec> {
    let counters = OpCounters::new();
    let disk = MemDisk::with_counters(block_size, counters.clone());
    let pairs: Vec<(u64, RecordPtr)> = items.iter().map(|&(k, p)| (k, RecordPtr(p))).collect();
    BTree::bulk_load(disk, PlainCodec::new(counters), &pairs).unwrap()
}

#[test]
fn bulk_load_empty_and_tiny() {
    let tree = bulk(&[], 256);
    assert!(tree.is_empty());
    tree.validate().unwrap();

    let tree = bulk(&[(5, 50)], 256);
    assert_eq!(tree.len(), 1);
    assert_eq!(tree.get(5).unwrap(), Some(RecordPtr(50)));
    tree.validate().unwrap();
}

#[test]
fn bulk_load_matches_insert_built_tree_contents() {
    for n in [1u64, 7, 20, 100, 500, 2_000] {
        let items: Vec<(u64, u64)> = (0..n).map(|k| (k * 3, k)).collect();
        let tree = bulk(&items, 256);
        assert_eq!(tree.len(), n, "n={n}");
        tree.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        let scanned: Vec<(u64, u64)> = tree
            .scan_all()
            .unwrap()
            .iter()
            .map(|&(k, p)| (k, p.0))
            .collect();
        assert_eq!(scanned, items, "n={n}");
        // Spot lookups.
        assert_eq!(tree.get(0).unwrap(), Some(RecordPtr(0)));
        assert_eq!(tree.get(3 * (n - 1)).unwrap(), Some(RecordPtr(n - 1)));
        assert_eq!(tree.get(3 * n + 1).unwrap(), None);
    }
}

#[test]
fn bulk_load_rejects_unsorted_or_duplicate_keys() {
    let counters = OpCounters::new();
    let disk = MemDisk::with_counters(256, counters.clone());
    let err = BTree::bulk_load(
        disk,
        PlainCodec::new(counters.clone()),
        &[(3, RecordPtr(1)), (2, RecordPtr(2))],
    )
    .unwrap_err();
    assert!(matches!(err, TreeError::Invalid(_)));
    let disk = MemDisk::with_counters(256, counters.clone());
    assert!(BTree::bulk_load(
        disk,
        PlainCodec::new(counters),
        &[(3, RecordPtr(1)), (3, RecordPtr(2))],
    )
    .is_err());
}

#[test]
fn bulk_load_writes_each_block_once() {
    let items: Vec<(u64, RecordPtr)> = (0..3_000u64).map(|k| (k, RecordPtr(k))).collect();
    let counters = OpCounters::new();
    let disk = MemDisk::with_counters(256, counters.clone());
    let tree = BTree::bulk_load(disk, PlainCodec::new(counters), &items).unwrap();
    let s = tree.counters().snapshot();
    // Block writes ≈ node count + superblock writes; far below the ~2 writes
    // per insert an incremental build costs.
    let nodes = tree.store().num_blocks() as u64;
    assert!(
        s.block_writes <= nodes + 4,
        "bulk load wrote {} blocks for {} nodes",
        s.block_writes,
        nodes
    );
    assert_eq!(s.splits, 0, "no splits during bulk load");
    tree.validate().unwrap();
}

#[test]
fn bulk_load_supports_mutation_afterwards() {
    let items: Vec<(u64, u64)> = (0..800u64).map(|k| (k * 2, k)).collect();
    let mut tree = bulk(&items, 256);
    // Insert odd keys, delete some evens.
    for k in 0..200u64 {
        tree.insert(k * 2 + 1, RecordPtr(k + 10_000)).unwrap();
    }
    for k in (0..800u64).step_by(5) {
        tree.delete(k * 2).unwrap();
    }
    tree.validate().unwrap();
    assert_eq!(tree.len(), 800 + 200 - 160);
}

#[test]
fn relocate_node_moves_root_and_interior_nodes() {
    let mut tree = make_tree(256);
    for k in 0..400u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    // Free some blocks by deleting (merges return node blocks).
    for k in 0..300u64 {
        tree.delete(k).unwrap();
    }
    let free = tree.store().free_block_ids();
    assert!(!free.is_empty(), "merges freed node blocks");
    // Relocate the root into a chosen free slot.
    let root = tree.root_id();
    let target = BlockId(free[0]);
    tree.relocate_node(root, target).unwrap();
    assert_eq!(tree.root_id(), target);
    tree.validate().unwrap();
    // Relocate a non-root node.
    let free = tree.store().free_block_ids();
    if let Some(&slot) = free.first() {
        let victim = (0..tree.store().num_blocks())
            .map(BlockId)
            .find(|&b| {
                b.0 != 0 && b != tree.root_id() && !tree.store().free_block_ids().contains(&b.0)
            })
            .unwrap();
        tree.relocate_node(victim, BlockId(slot)).unwrap();
        tree.validate().unwrap();
    }
    for k in 300..400u64 {
        assert_eq!(tree.get(k).unwrap(), Some(RecordPtr(k)), "key {k}");
    }
}

#[test]
fn compact_nodes_packs_and_truncates_the_device() {
    let mut tree = make_tree(256);
    for k in 0..2_000u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    let grown = tree.store().num_blocks();
    // Shrink to 5% of the dataset.
    for k in 0..1_900u64 {
        tree.delete(k).unwrap();
    }
    let mut moved_total = 0u64;
    loop {
        let (moved, _) = tree.compact_nodes(64).unwrap();
        if moved == 0 {
            break;
        }
        moved_total += moved;
    }
    assert!(moved_total > 0, "sliding pass moved live nodes down");
    let packed = tree.store().num_blocks();
    assert!(
        packed < grown / 4,
        "device should shrink well below the high-water mark: {packed} vs {grown}"
    );
    assert_eq!(
        tree.store().free_blocks(),
        0,
        "a fully packed device has no interior free blocks"
    );
    tree.validate().unwrap();
    for k in 1_900..2_000u64 {
        assert_eq!(tree.get(k).unwrap(), Some(RecordPtr(k)), "key {k}");
    }
    let s = tree.counters().snapshot();
    assert_eq!(s.compact_moved_nodes, moved_total);
    assert!(s.device_truncated_blocks > 0);
}

#[test]
fn compact_nodes_is_a_noop_on_a_packed_device() {
    let mut tree = make_tree(256);
    for k in 0..500u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    // A freshly grown device may already be packed (no frees yet).
    let before = tree.store().num_blocks();
    let (moved, truncated) = tree.compact_nodes(1_000).unwrap();
    assert_eq!((moved, truncated), (0, 0));
    assert_eq!(tree.store().num_blocks(), before);
    tree.validate().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_compact_nodes_preserves_content(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = make_tree(256);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..600 {
            let k = rng.gen_range(0..800u64);
            if rng.gen_bool(0.6) {
                tree.insert(k, RecordPtr(k)).unwrap();
                model.insert(k, RecordPtr(k));
            } else {
                let got = tree.delete(k).unwrap();
                prop_assert_eq!(got, model.remove(&k));
            }
            if rng.gen_bool(0.05) {
                tree.compact_nodes(8).unwrap();
            }
        }
        while tree.compact_nodes(64).unwrap().0 > 0 {}
        tree.validate().unwrap();
        let got: Vec<(u64, RecordPtr)> = tree.scan_all().unwrap();
        let want: Vec<(u64, RecordPtr)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// Node cache entries
// ---------------------------------------------------------------------------

/// The block of the node holding `key`.
fn node_of<S: BlockStore>(tree: &BTree<S, PlainCodec>, key: u64) -> BlockId {
    let mut node = tree.inspect_node(tree.root_id()).unwrap();
    loop {
        match node.keys.binary_search(&key) {
            Ok(_) => return node.id,
            Err(i) => node = tree.inspect_node(node.children[i]).unwrap(),
        }
    }
}

#[test]
fn a_rewritten_nodes_entry_is_replaced_by_its_new_pages_image() {
    let mut tree = make_tree(256);
    tree.enable_node_cache(64);
    for k in 0..100u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    let misses = |tree: &BTree<_, _>| tree.counters().snapshot().node_cache_misses;
    assert_eq!(tree.get(42).unwrap(), Some(RecordPtr(42)));
    let warm = misses(&tree);
    assert_eq!(tree.get(42).unwrap(), Some(RecordPtr(42)));
    assert_eq!(misses(&tree), warm, "second probe is all hits");

    // Rewriting the leaf swaps its entry for the image of the new page:
    // the next probe is a hit, and it answers with the new pointer.
    let cached = tree.cached_nodes();
    let leaf = node_of(&tree, 42);
    let old = tree.node_cache().get(leaf).unwrap();
    assert!(tree
        .replace_ptr(42, RecordPtr(42), RecordPtr(4242))
        .unwrap());
    assert_eq!(tree.cached_nodes(), cached);
    let new = tree.node_cache().get(leaf).unwrap();
    assert!(!std::sync::Arc::ptr_eq(&old, &new), "a new entry");
    let page = tree.store().read_block_vec(leaf).unwrap();
    let on_medium = tree.codec().decode(leaf, &page).unwrap();
    assert_eq!(new.to_node().unwrap(), on_medium);
    let before = misses(&tree);
    assert_eq!(tree.get(42).unwrap(), Some(RecordPtr(4242)));
    assert_eq!(misses(&tree), before, "no refill");
    tree.validate().unwrap();
}

/// Writes replace entries and never add them: a block with no entry —
/// here every block, after a bulk load — gets none from being written.
#[test]
fn a_write_to_an_uncached_block_caches_nothing() {
    let items: Vec<(u64, RecordPtr)> = (0..300u64).map(|k| (k, RecordPtr(k))).collect();
    let counters = OpCounters::new();
    let disk = MemDisk::with_counters(256, counters.clone());
    let mut tree = BTree::create(disk, PlainCodec::new(counters)).unwrap();
    tree.enable_node_cache(1024);
    tree.bulk_fill(&items).unwrap();
    assert_eq!(tree.cached_nodes(), 0, "a bulk load caches nothing");
    assert_eq!(tree.get(7).unwrap(), Some(RecordPtr(7)));
    let path = tree.cached_nodes();
    assert_eq!(path as u32, tree.height());
    // Inserts past the end split the rightmost leaf: each new right half
    // is a fresh block.
    for k in 1_000..1_050u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    // No eviction and no free: one entry per miss, none from a write.
    let s = tree.counters().snapshot();
    assert!(s.splits > 0);
    assert_eq!(tree.cached_nodes(), s.node_cache_misses as usize);
}

/// A failed write fails closed: the block's old entry is gone, no image
/// of the page that never reached the medium takes its place, and the
/// next visit refills from what the medium holds.
#[test]
fn a_failed_node_write_leaves_no_entry_and_the_next_get_refills() {
    use sks_storage::{FailMode, FailStore};
    let counters = OpCounters::new();
    let (disk, plan) = FailStore::new(MemDisk::with_counters(256, counters.clone()));
    let mut tree = BTree::create(disk, PlainCodec::new(counters)).unwrap();
    tree.enable_node_cache(64);
    for k in 0..100u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    assert_eq!(tree.get(42).unwrap(), Some(RecordPtr(42)));
    let leaf = node_of(&tree, 42);
    let cache = |tree: &BTree<_, PlainCodec>| tree.node_cache().get(leaf);
    assert!(cache(&tree).is_some());
    let cached = tree.cached_nodes();

    // The overwrite's first write is its leaf's.
    plan.arm_nth_write(1, FailMode::Error);
    assert!(tree.insert(42, RecordPtr(4242)).is_err());
    assert!(plan.tripped());
    assert!(cache(&tree).is_none(), "the failed write left no entry");
    assert_eq!(tree.cached_nodes(), cached - 1);

    plan.reset();
    let misses = tree.counters().snapshot().node_cache_misses;
    assert_eq!(tree.get(42).unwrap(), Some(RecordPtr(42)), "the medium's");
    assert_eq!(tree.counters().snapshot().node_cache_misses, misses + 1);
    let refilled = cache(&tree).expect("refilled from the medium");
    let data_ptrs = refilled.to_node().unwrap().data_ptrs.clone();
    assert!(data_ptrs.contains(&RecordPtr(42)));
    assert!(!data_ptrs.contains(&RecordPtr(4242)));
    tree.validate().unwrap();
}

/// Runs `op` on `tree` on a thread of its own and returns its result,
/// failing the test if it has not returned within 10 s.
fn within_10s<T: Send + 'static>(
    tree: BTree<MemDisk, PlainCodec>,
    op: impl FnOnce(&mut BTree<MemDisk, PlainCodec>) -> T + Send + 'static,
) -> (BTree<MemDisk, PlainCodec>, T) {
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut tree = tree;
        let out = op(&mut tree);
        let _ = done.send((tree, out));
    });
    outcome
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the operation did not return")
}

/// A child pointer back up the tree must fail the descent, not loop: a
/// leaf page rewritten as an internal node whose children are all the root
/// turns every root-to-leaf walk through it into a cycle. Each operation
/// that descends stops at the tree's height and fails closed.
#[test]
fn a_cyclic_child_pointer_fails_every_descent_closed() {
    let mut tree = make_tree(256);
    for k in 0..200u64 {
        tree.insert(2 * k, RecordPtr(k)).unwrap();
    }
    let mut leaf = tree.inspect_node(tree.root_id()).unwrap();
    while !leaf.is_leaf() {
        leaf = tree.inspect_node(leaf.children[0]).unwrap();
    }
    assert!(tree.height() >= 2);
    // The leaf's keys over children that are all the root: an absent key
    // between its first two descends into the second child.
    let key = leaf.keys[0] + 1;
    let (root, counters) = (tree.root_id(), tree.counters().clone());
    let mut forged = leaf.clone();
    forged.children = vec![root; leaf.n() + 1];
    let mut page = vec![0u8; 256];
    tree.codec().encode(&forged, &mut page).unwrap();
    let mut store = tree.into_store().unwrap();
    store.write_block(leaf.id, &page).unwrap();
    let tree = BTree::open(store, PlainCodec::new(counters.clone())).unwrap();
    let too_deep = |result: Result<(), TreeError>| match result {
        Err(TreeError::Codec(CodecError::Corrupt(msg))) => msg.contains("depth"),
        _ => false,
    };

    let (tree, got) = within_10s(tree, move |tree| tree.get(key).map(drop));
    assert!(too_deep(got), "get");
    let (tree, got) = within_10s(tree, |tree| tree.range(0, u64::MAX).map(drop));
    assert!(too_deep(got), "range");
    let (tree, got) = within_10s(tree, |tree| tree.validate());
    assert!(too_deep(got), "validate");
    let (tree, got) = within_10s(tree, move |tree| tree.insert(key, RecordPtr(1)).map(drop));
    assert!(too_deep(got), "insert");

    // A superblock claiming more levels than the store has blocks would
    // lift that bound: the open refuses it.
    let mut store = tree.into_store().unwrap();
    let mut superblock = store.read_block_vec(BlockId(0)).unwrap();
    let height_at = 8 + 4 + 8; // after the magic, the root and the count
    superblock[height_at..height_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    store.write_block(BlockId(0), &superblock).unwrap();
    assert!(matches!(
        BTree::open(store, PlainCodec::new(counters)),
        Err(TreeError::Codec(CodecError::Corrupt(msg))) if msg.contains("height")
    ));
}

#[test]
fn replace_ptr_repoints_only_from_the_expected_pointer() {
    let mut tree = make_tree(256);
    for k in 0..100u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    let writes = |tree: &BTree<_, _>| tree.counters().snapshot().block_writes;
    let before = writes(&tree);
    // A stale expectation and an absent key change nothing, write nothing.
    assert!(!tree.replace_ptr(42, RecordPtr(7), RecordPtr(4242)).unwrap());
    assert!(!tree
        .replace_ptr(1_000, RecordPtr(1_000), RecordPtr(1))
        .unwrap());
    assert_eq!(tree.get(42).unwrap(), Some(RecordPtr(42)));
    assert_eq!(writes(&tree), before);
    assert!(tree
        .replace_ptr(42, RecordPtr(42), RecordPtr(4242))
        .unwrap());
    assert_eq!(tree.get(42).unwrap(), Some(RecordPtr(4242)));
    tree.validate().unwrap();
}
