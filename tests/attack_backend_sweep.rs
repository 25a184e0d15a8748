//! Backend sweep for the attack harness: the opponent's view of the
//! medium must be *the same medium* whether the enciphered blocks live in
//! simulated RAM or in `nodes.sks` on disk — and the plaintext node cache
//! must leak nothing into either. Leakage metrics computed from the file
//! backend's raw image must match the MemDisk image's.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use sks_btree::attack::{AttackReport, DiskImage, Edge, FormatKnowledge, GroundTruth};
use sks_btree::core::{EncipheredBTree, Scheme, SchemeConfig};

const N_KEYS: u64 = 250;
const BLOCK: usize = 512;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sks_atk_sweep_{}_{}_{}",
        std::process::id(),
        name,
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn build(scheme: Scheme, dir: Option<&std::path::Path>) -> EncipheredBTree {
    let mut cfg = SchemeConfig::with_capacity(scheme, N_KEYS + 2);
    cfg.block_size = BLOCK;
    if let Some(dir) = dir {
        cfg = cfg.on_disk(dir);
    }
    let mut tree = if dir.is_some() {
        EncipheredBTree::create(cfg).unwrap()
    } else {
        EncipheredBTree::create_in_memory(cfg).unwrap()
    };
    let start = matches!(scheme, Scheme::Exponentiation) as u64;
    for k in start..start + N_KEYS {
        tree.insert(k, format!("secret-{k}").into_bytes()).unwrap();
    }
    // Exercise the plaintext node cache so its (RAM-only) entries exist
    // while the images are taken.
    for k in (start..start + N_KEYS).step_by(3) {
        assert!(tree.get(k).unwrap().is_some());
    }
    // The stolen disk holds the *flushed* state: checkpoint the file
    // backend so both images describe the same dataset.
    tree.flush().unwrap();
    tree
}

fn truth_of(tree: &EncipheredBTree) -> GroundTruth {
    let mut edges = Vec::new();
    let mut keys = Vec::new();
    let mut stack = vec![tree.tree().root_id()];
    while let Some(id) = stack.pop() {
        let node = tree.tree().inspect_node(id).unwrap();
        keys.extend_from_slice(&node.keys);
        for &c in &node.children {
            edges.push(Edge {
                parent: id.as_u32(),
                child: c.as_u32(),
            });
            stack.push(c);
        }
    }
    let key_pairs = tree
        .disguise()
        .map(|d| {
            keys.iter()
                .filter_map(|&k| d.disguise(k).ok().map(|dk| (k, dk)))
                .collect()
        })
        .unwrap_or_default();
    GroundTruth { edges, key_pairs }
}

/// The file backend's `nodes.sks` image is block-for-block the MemDisk
/// image: identical insertion order drives identical allocation and
/// deterministic encipherment, and nothing RAM-side (buffer pool frames,
/// plaintext node cache) dribbles extra state onto either medium.
#[test]
fn file_backend_node_image_matches_memdisk() {
    for scheme in [Scheme::Oval, Scheme::SumOfTreatments, Scheme::BayerMetzger] {
        let dir = tmpdir(scheme.name());
        let mem = build(scheme, None);
        let file = build(scheme, Some(&dir));
        let mem_img = mem.raw_node_image().unwrap();
        let file_img = file.raw_node_image().unwrap();
        assert_eq!(
            mem_img.len(),
            file_img.len(),
            "{}: device lengths differ",
            scheme.name()
        );
        for (i, (m, f)) in mem_img.iter().zip(&file_img).enumerate() {
            assert_eq!(m, f, "{}: block {i} differs across backends", scheme.name());
        }
        drop(file);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Full attack run against both backends: every leakage metric the
/// harness computes must agree — the backend changes *where* the
/// opponent's view lives, never what it contains (ROADMAP PR-2 open
/// item).
#[test]
fn leakage_metrics_agree_across_backends() {
    for scheme in [Scheme::Oval, Scheme::SumOfTreatments] {
        let dir = tmpdir(&format!("metrics_{}", scheme.name()));
        let mem = build(scheme, None);
        let file = build(scheme, Some(&dir));
        let report = |tree: &EncipheredBTree, name: &str| {
            let image = DiskImage::new(BLOCK, tree.raw_node_image().unwrap());
            AttackReport::run(name, &image, &FormatKnowledge::default(), &truth_of(tree))
        };
        let rm = report(&mem, "memory");
        let rf = report(&file, "file");
        assert_eq!(
            rm.shape.recall,
            rf.shape.recall,
            "{}: shape recall diverged",
            scheme.name()
        );
        assert_eq!(
            rm.shape.precision,
            rf.shape.precision,
            "{}: shape precision diverged",
            scheme.name()
        );
        // The paper's scheme resists shape recovery on disk exactly as it
        // does in RAM.
        if scheme == Scheme::Oval {
            assert!(rf.shape.recall < 0.2, "oval recall {}", rf.shape.recall);
        }
        drop(file);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One deterministic delete/reinsert churn workload with compaction and
/// the record cache enabled; compacts every `COMPACT_EVERY` ops and to
/// quiescence at the end, then checkpoints.
fn churn(tree: &mut EncipheredBTree, ops: &[(u8, u64, usize)]) -> BTreeMap<u64, Vec<u8>> {
    const COMPACT_EVERY: usize = 40;
    let mut model = BTreeMap::new();
    for (i, &(op, key, vlen)) in ops.iter().enumerate() {
        if op < 2 {
            let mut v = format!("churn-{key}-").into_bytes();
            let fill = v.len() + vlen;
            v.resize(fill, 0xC3 ^ key as u8);
            tree.insert(key, v.clone()).unwrap();
            model.insert(key, v);
        } else {
            assert_eq!(tree.delete(key).unwrap(), model.remove(&key));
        }
        if i % COMPACT_EVERY == COMPACT_EVERY - 1 {
            tree.compact_step(8).unwrap();
        }
    }
    // Roll the open fill block before the final sweep: compaction never
    // touches the block currently being filled, so a delete that landed
    // there would otherwise survive every pass. A max-size sentinel
    // record (key 285, outside the ops' 0..280 key range) forces a fresh
    // fill block; the old one becomes an ordinary compaction victim.
    let sentinel = vec![0x5E; tree.max_record_len()];
    tree.insert(285, sentinel.clone()).unwrap();
    model.insert(285, sentinel);
    while tree.compact_step(64).unwrap().freed_blocks > 0 {}
    tree.flush().unwrap();
    model
}

fn churn_config(scheme: Scheme, dir: Option<&std::path::Path>) -> SchemeConfig {
    let mut cfg = SchemeConfig::with_capacity(scheme, 300)
        .node_cache(512)
        .record_cache(512);
    cfg.block_size = BLOCK;
    if let Some(dir) = dir {
        cfg = cfg.on_disk(dir);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Delete/reinsert-heavy workloads on the file backend: compaction
    /// keeps the data device bounded by the live set (tombstones are
    /// reclaimed, reclaimed blocks are reused), the logical contents
    /// equal the model, and the medium never holds record plaintext.
    #[test]
    fn compaction_bounds_file_backend_space(
        ops in proptest::collection::vec((0u8..4, 0u64..280, 1usize..60), 50..400),
    ) {
        let dir = tmpdir("space_bound");
        let mut tree = EncipheredBTree::create(churn_config(Scheme::Oval, Some(&dir))).unwrap();
        let model = churn(&mut tree, &ops);
        prop_assert_eq!(tree.pending_tombstones().unwrap(), 0,
            "full compaction leaves no reclaimable garbage");
        // Bounded space: a fully compacted store is at worst ~2x as many
        // live blocks as a fresh bulk build of the same live set (packing
        // slack), plus the superblock and one open fill block.
        let (total, free) = tree.data_block_usage();
        let used = total - free;
        let fresh_cfg = churn_config(Scheme::Oval, None);
        let mut fresh = EncipheredBTree::create_in_memory(fresh_cfg).unwrap();
        for (&k, v) in &model {
            fresh.insert(k, v.clone()).unwrap();
        }
        let (fresh_total, fresh_free) = fresh.data_block_usage();
        let fresh_used = fresh_total - fresh_free;
        prop_assert!(used <= 2 * fresh_used + 2,
            "space leak: {} used blocks for a live set a fresh build stores in {}",
            used, fresh_used);
        // Contents equal the model, byte for byte.
        for (&k, v) in &model {
            prop_assert_eq!(tree.get(k).unwrap().as_ref(), Some(v), "key {}", k);
        }
        tree.validate().unwrap();
        // The stolen files still leak no record plaintext.
        for name in ["nodes.sks", "data.sks"] {
            let raw = std::fs::read(dir.join(name)).unwrap();
            prop_assert!(!raw.windows(6).any(|w| w == b"churn-"),
                "record plaintext leaked into {}", name);
        }
        drop(tree);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// With the record cache and compaction enabled, the raw images stay
/// identical across backends on every *live* block, and the free sets
/// coincide — the backend changes where the opponent's view lives, never
/// what the live medium contains. (Freed blocks are masked: MemDisk
/// models a non-scrubbing medium that keeps stale ciphertext, while the
/// file backend rewrites its intrusive free chain through them; neither
/// ever holds plaintext, which the sweep above pins.)
#[test]
fn images_agree_across_backends_with_compaction_and_record_cache() {
    // Deterministic churn: build, delete a stripe, reinsert a stripe.
    let ops: Vec<(u8, u64, usize)> = (0..N_KEYS)
        .map(|k| (0u8, k, 20 + (k % 30) as usize))
        .chain((0..N_KEYS).filter(|k| k % 3 != 0).map(|k| (2u8, k, 0)))
        .chain((0..N_KEYS).filter(|k| k % 6 == 1).map(|k| (1u8, k, 45)))
        .collect();
    let dir = tmpdir("image_agree");
    let mut mem = EncipheredBTree::create_in_memory(churn_config(Scheme::Oval, None)).unwrap();
    let mut file = EncipheredBTree::create(churn_config(Scheme::Oval, Some(&dir))).unwrap();
    let model_mem = churn(&mut mem, &ops);
    let model_file = churn(&mut file, &ops);
    assert_eq!(model_mem, model_file);

    let (mem_node_free, mem_data_free) = mem.free_block_ids();
    let (file_node_free, file_data_free) = file.free_block_ids();
    let sorted = |mut v: Vec<u32>| {
        v.sort_unstable();
        v
    };
    assert_eq!(
        sorted(mem_node_free.clone()),
        sorted(file_node_free),
        "node free sets diverged"
    );
    assert_eq!(
        sorted(mem_data_free.clone()),
        sorted(file_data_free),
        "data free sets diverged"
    );
    assert!(
        !mem_data_free.is_empty(),
        "the workload must actually exercise compaction"
    );

    for (label, mem_img, file_img, free) in [
        (
            "nodes",
            mem.raw_node_image().unwrap(),
            file.raw_node_image().unwrap(),
            sorted(mem_node_free),
        ),
        (
            "data",
            mem.raw_data_image().unwrap(),
            file.raw_data_image().unwrap(),
            sorted(mem_data_free),
        ),
    ] {
        assert_eq!(
            mem_img.len(),
            file_img.len(),
            "{label}: device lengths differ"
        );
        for (i, (m, f)) in mem_img.iter().zip(&file_img).enumerate() {
            if free.binary_search(&(i as u32)).is_ok() {
                continue;
            }
            assert_eq!(m, f, "{label}: live block {i} differs across backends");
        }
    }
    drop(file);
    std::fs::remove_dir_all(&dir).ok();
}

/// No plaintext record bytes or raw key-field plaintext in the on-disk
/// files, with the node cache enabled and warm — cached plaintext is
/// RAM-only.
#[test]
fn warm_cache_leaks_nothing_to_the_files() {
    let dir = tmpdir("warm_cache_files");
    let tree = build(Scheme::Oval, Some(&dir));
    assert!(tree.cached_nodes() > 0, "cache should be warm");
    for name in ["nodes.sks", "data.sks", "manifest.sks"] {
        let raw = std::fs::read(dir.join(name)).unwrap();
        assert!(
            !raw.windows(7).any(|w| w == b"secret-"),
            "record plaintext leaked into {name}"
        );
    }
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
}
