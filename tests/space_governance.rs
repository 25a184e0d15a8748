//! Space & memory governance, proven by a fault-injection test layer:
//!
//! * crash probes — [`FailStore`] kills the stack at the partition's
//!   checkpoint, mid node-relocation and mid deadest-first compaction
//!   pass (plus a seeded kill-point sweep); every reopen recovers to a
//!   consistent image, and after a drain the data store holds exactly
//!   one live record slot per tree key;
//! * the checkpoint is one commit of both files, shown with forged
//!   journals: an intact partition journal over half-applied files opens
//!   to the post-image in both files, a torn one to the pre-image;
//! * the same slot ≡ key invariant under arbitrary
//!   insert/delete/compact/reopen/crash churn, on both tree backends;
//! * the compaction report counts victims freed through the tombstone
//!   fast path (the PR 4 under-count regression);
//! * sustained churn + shrink-to-10% keeps `nodes.sks` + `data.sks`
//!   within 2× a fresh build of the live set;
//! * every logical counter reads identically with governance on vs off,
//!   for every measured scheme;
//! * a data store of an older format version is refused at open.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sks_btree::core::{CoreError, EncipheredBTree, Scheme, SchemeConfig};
use sks_btree::storage::{
    crc32, BlockId, BlockStore, FailMode, FailPlan, FailStore, FileDisk, OpCounters, PagedFileStore,
};

const BLOCK: usize = 512;
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sks_space_gov_{}_{}_{}",
        std::process::id(),
        name,
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(capacity: u64) -> SchemeConfig {
    let mut cfg = SchemeConfig::with_capacity(Scheme::Oval, capacity);
    cfg.block_size = BLOCK;
    cfg
}

fn rec(k: u64) -> Vec<u8> {
    format!("space-governance-record-{k:06}-{}", "x".repeat(64)).into_bytes()
}

/// Compacts until two passes in a row free and collect nothing: every
/// tombstone is reclaimed, and every live slot is a tree key's.
fn drain(tree: &mut EncipheredBTree) {
    let mut idle = 0;
    while idle < 2 {
        let r = tree.compact_step(1_000).unwrap();
        idle = if r.freed_blocks == 0 && r.orphans_collected == 0 {
            idle + 1
        } else {
            0
        };
    }
    assert_eq!(
        tree.live_record_slots().unwrap(),
        tree.len(),
        "a drained store holds one live slot per key"
    );
}

// ---------------------------------------------------------------------
// Fault-injection crash probes
// ---------------------------------------------------------------------

/// A file-backed stack whose node and data files are wrapped in
/// [`FailStore`]s, built over the partition's one checkpoint group so a
/// "kill" (fault + drop without flush) recovers to the last checkpoint.
/// The tree's checkpoint flushes through the node handle, so
/// `node_plan`'s flushes are the partition's commits.
struct ProbeRig {
    dir: std::path::PathBuf,
    node_plan: FailPlan,
    data_plan: FailPlan,
}

impl ProbeRig {
    fn create(name: &str) -> (Self, EncipheredBTree) {
        let dir = tmpdir(name);
        std::fs::create_dir_all(&dir).unwrap();
        let counters = OpCounters::new();
        let [nodes, data] =
            EncipheredBTree::create_file_stores(&dir, BLOCK, 128, &counters).unwrap();
        let (nodes, node_plan) = FailStore::new(nodes);
        let (data, data_plan) = FailStore::new(data);
        let tree = EncipheredBTree::create_on_stores(
            config(4_096),
            counters,
            Box::new(nodes),
            Box::new(data),
        )
        .unwrap();
        (
            ProbeRig {
                dir,
                node_plan,
                data_plan,
            },
            tree,
        )
    }

    /// "Reboot": reopen the same files through the normal recovery path
    /// (journal replay inside `PagedFileStore::open_group`).
    fn reopen(&self) -> EncipheredBTree {
        let counters = OpCounters::new();
        let [nodes, data] = EncipheredBTree::open_file_stores(&self.dir, 128, &counters).unwrap();
        EncipheredBTree::open_on_stores(config(4_096), counters, Box::new(nodes), Box::new(data))
            .unwrap()
    }

    fn cleanup(&self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A bulk load whose pages outgrow the pool, and its checkpoint, killed
/// at each physical step in turn: every write the group makes (the early
/// write-backs, the pages written in place before the journal, the
/// journal, each file's allocation rewrite and page runs, the journal's
/// truncation) failed cleanly and torn, and every fsync (the one made for
/// the pages written early, the journal's, each file's). Each reopen
/// validates and holds all of the load or none of it — all of it when
/// the checkpoint returned — and takes a write and a checkpoint over
/// whatever the kill left past the committed end.
#[test]
fn a_spilling_bulk_load_killed_at_each_physical_step_recovers() {
    const POOL: usize = 8;
    let items: Vec<(u64, Vec<u8>)> = (1..=240u64).map(|k| (k * 3, rec(k))).collect();
    let reopen = |dir: &std::path::Path| {
        let counters = OpCounters::new();
        let [nodes, data] = EncipheredBTree::open_file_stores(dir, POOL, &counters).unwrap();
        EncipheredBTree::open_on_stores(config(4_096), counters, Box::new(nodes), Box::new(data))
            .unwrap()
    };
    // Runs the load under `arm`; returns whether it was acknowledged,
    // the writes and fsyncs the plan saw, and the pages written early,
    // and whether the reopen held the load.
    let run = |name: String, arm: &dyn Fn(&FailPlan)| -> (bool, u64, u64, u64, bool) {
        let dir = tmpdir(&name);
        std::fs::create_dir_all(&dir).unwrap();
        let counters = OpCounters::new();
        let [nodes, data] =
            EncipheredBTree::create_file_stores(&dir, BLOCK, POOL, &counters).unwrap();
        let plan = FailPlan::new();
        nodes.inject_faults(plan.clone());
        let mut tree = EncipheredBTree::create_on_stores(
            config(4_096),
            counters.clone(),
            Box::new(nodes),
            Box::new(data),
        )
        .unwrap();
        tree.flush().unwrap();
        arm(&plan);
        let outcome = tree.bulk_load(&items).and_then(|()| tree.flush());
        assert_eq!(outcome.is_err(), plan.tripped(), "{name}: {outcome:?}");
        let seen = (plan.writes_seen(), plan.flushes_seen());
        let early = counters.snapshot().pages_written_early;
        drop(tree); // the kill

        let mut tree = reopen(&dir);
        tree.validate().unwrap();
        let len = tree.len();
        assert!(
            len == 0 || len == items.len() as u64,
            "{name}: {len} records"
        );
        assert!(
            outcome.is_err() || len > 0,
            "{name}: an acknowledged load is lost"
        );
        for (k, v) in &items {
            assert_eq!(
                tree.get(*k).unwrap(),
                (len > 0).then(|| v.clone()),
                "{name}"
            );
        }
        tree.insert(1, rec(1)).unwrap();
        tree.flush().unwrap();
        drop(tree);
        let tree = reopen(&dir);
        tree.validate().unwrap();
        assert_eq!(tree.get(1).unwrap(), Some(rec(1)), "{name}");
        assert_eq!(tree.len(), len + 1, "{name}");
        drop(tree);
        std::fs::remove_dir_all(&dir).ok();
        (outcome.is_ok(), seen.0, seen.1, early, len > 0)
    };
    let (ok, writes, flushes, early, _) = run("spill_dry".into(), &|plan| plan.reset());
    assert!(ok && early > 2 * POOL as u64, "{early} pages written early");
    // Both files wrote early: their fsyncs, the journal's, one per file.
    assert_eq!(flushes, 2 + 1 + 2);
    let mut held = Vec::new();
    for n in 1..=writes {
        for mode in [FailMode::Error, FailMode::Torn] {
            let (ok, .., kept) = run(format!("spill_w{n}_{mode:?}"), &|plan| {
                plan.arm_nth_write(n, mode)
            });
            held.push((ok, kept));
        }
    }
    for n in 1..=flushes {
        let (ok, .., kept) = run(format!("spill_f{n}"), &|plan| plan.arm_nth_flush(n));
        held.push((ok, kept));
    }
    // Kills before the journal's commit point reopen without the load,
    // kills after it with it.
    assert!(held.iter().all(|&(ok, _)| !ok), "every kill point fired");
    assert!(held.contains(&(false, false)) && held.contains(&(false, true)));
}

/// Checks a reopened probe tree against the model of committed state.
fn assert_consistent(tree: &mut EncipheredBTree, model: &std::collections::BTreeMap<u64, Vec<u8>>) {
    tree.validate().unwrap();
    for (k, v) in model {
        assert_eq!(tree.get(*k).unwrap().as_ref(), Some(v), "key {k}");
    }
    assert_eq!(tree.len(), model.len() as u64);
    // Compaction still works after the crash, and reclaims whatever
    // orphans it left.
    drain(tree);
    tree.compact_nodes(1_000).unwrap();
    tree.validate().unwrap();
    for (k, v) in model {
        assert_eq!(
            tree.get(*k).unwrap().as_ref(),
            Some(v),
            "key {k} post-compact"
        );
    }
}

/// Kill at the partition's checkpoint, after a committed one: neither
/// file commits the epoch.
#[test]
fn crash_at_data_device_checkpoint_recovers() {
    let (rig, mut tree) = ProbeRig::create("data_flush_crash");
    let mut model = std::collections::BTreeMap::new();
    for k in 0..300u64 {
        tree.insert(k, rec(k)).unwrap();
        model.insert(k, rec(k));
    }
    tree.flush().unwrap(); // committed image A
    for k in 300..400u64 {
        tree.insert(k, rec(k)).unwrap();
    }
    rig.node_plan.arm_nth_flush(1);
    assert!(tree.flush().is_err(), "injected fault must surface");
    drop(tree); // the kill: buffered epoch discarded
    let mut tree = rig.reopen();
    assert_eq!(tree.live_record_slots().unwrap(), 300, "image A's records");
    assert_consistent(&mut tree, &model);
    rig.cleanup();
}

/// Kill mid node-relocation: the fault fires on a node-device write while
/// the sliding pass is repointing parents and moving sealed nodes.
#[test]
fn crash_mid_node_relocation_recovers() {
    let (rig, mut tree) = ProbeRig::create("reloc_crash");
    let mut model = std::collections::BTreeMap::new();
    for k in 0..600u64 {
        tree.insert(k, rec(k)).unwrap();
        model.insert(k, rec(k));
    }
    // Shrink so the node device has interior free blocks to slide into.
    for k in 0..500u64 {
        tree.delete(k).unwrap();
        model.remove(&k);
    }
    while tree.compact_step(64).unwrap().freed_blocks > 0 {}
    tree.flush().unwrap(); // committed image A
    rig.node_plan.arm_nth_write(3, FailMode::Error);
    let err = tree.compact_nodes(1_000);
    assert!(err.is_err(), "relocation hit the injected fault");
    drop(tree);
    let mut tree = rig.reopen();
    // The pass completes fine after the reboot (before assert_consistent
    // packs the device itself).
    let moved = tree.compact_nodes(1_000).unwrap();
    assert!(
        moved.moved_nodes + moved.node_blocks_truncated > 0,
        "the re-run pass does the crashed pass's work: {moved:?}"
    );
    assert_consistent(&mut tree, &model);
    rig.cleanup();
}

/// Kill mid deadest-first pass: the fault fires on a data-device write
/// while victims are being rewritten.
#[test]
fn crash_mid_deadest_first_pass_recovers() {
    let (rig, mut tree) = ProbeRig::create("compact_crash");
    let mut model = std::collections::BTreeMap::new();
    for k in 0..400u64 {
        tree.insert(k, rec(k)).unwrap();
        model.insert(k, rec(k));
    }
    for k in (0..400u64).step_by(2) {
        tree.delete(k).unwrap();
        model.remove(&k);
    }
    tree.flush().unwrap(); // committed image A, tombstones included
    rig.data_plan.arm_nth_write(5, FailMode::Error);
    assert!(tree.compact_step(1_000).is_err());
    drop(tree);
    let mut tree = rig.reopen();
    assert_consistent(&mut tree, &model);
    rig.cleanup();
}

/// Seeded kill-point sweep: a deterministic fault somewhere in a fixed
/// churn + governance workload, ten different seeds; every reopen is
/// consistent with the last committed image.
#[test]
fn seeded_kill_point_sweep_recovers_everywhere() {
    for seed in 0..10u64 {
        let (rig, mut tree) = ProbeRig::create(&format!("sweep_{seed}"));
        let mut model = std::collections::BTreeMap::new();
        for k in 0..200u64 {
            tree.insert(k, rec(k)).unwrap();
            model.insert(k, rec(k));
        }
        for k in (0..200u64).step_by(3) {
            tree.delete(k).unwrap();
            model.remove(&k);
        }
        tree.flush().unwrap(); // the committed image
                               // Everything after this flush dies with the kill.
        let plan = if seed % 2 == 0 {
            &rig.data_plan
        } else {
            &rig.node_plan
        };
        let nth = plan.arm_from_seed(seed, 40, FailMode::Error);
        // Post-commit workload racing toward the kill point.
        let result: Result<(), sks_btree::core::CoreError> = (|| {
            for k in 200..260u64 {
                tree.insert(k, rec(k))?;
            }
            for k in (100..200u64).step_by(2) {
                tree.delete(k)?;
            }
            tree.compact_step(64)?;
            tree.compact_nodes(64)?;
            tree.flush()?;
            Ok(())
        })();
        if result.is_ok() {
            // The kill point landed beyond the workload's writes (or the
            // flush committed image B); fold the survivors into the model.
            assert!(plan.tripped() || plan.writes_seen() < nth);
            for k in 200..260u64 {
                model.insert(k, rec(k));
            }
            for k in (100..200u64).step_by(2) {
                model.remove(&k);
            }
        }
        drop(tree);
        let mut tree = rig.reopen();
        assert_consistent(&mut tree, &model);
        rig.cleanup();
    }
}

// ---------------------------------------------------------------------
// Live record slots ≡ tree keys (proptests over both tree backends)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Without crashes nothing ever leaves an orphan, so the accounting
    /// holds one live slot per key at every checkpoint and clean reopen
    /// (rebuilt there from the slot directories), not only after a drain.
    #[test]
    fn prop_live_record_slots_equal_len_under_churn(seed in any::<u64>()) {
        for on_disk in [false, true] {
            let dir = tmpdir(&format!("slots_prop_{seed}"));
            let mut cfg = config(2_048);
            if on_disk {
                cfg = cfg.on_disk(&dir);
            }
            let mut tree = if on_disk {
                EncipheredBTree::create(cfg.clone()).unwrap()
            } else {
                EncipheredBTree::create_in_memory(cfg.clone()).unwrap()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..400 {
                let k = rng.gen_range(0..1_000u64);
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        tree.insert(k, rec(k)).unwrap();
                        model.insert(k, rec(k));
                    }
                    6..=8 => {
                        let got = tree.delete(k).unwrap();
                        prop_assert_eq!(got, model.remove(&k));
                    }
                    _ => {
                        let r = tree.compact_step(rng.gen_range(1..16)).unwrap();
                        prop_assert_eq!(r.orphaned_records, 0);
                        prop_assert_eq!(r.orphans_collected, 0);
                        tree.compact_nodes(8).unwrap();
                    }
                }
                // File backend: occasionally checkpoint and reopen mid-churn.
                if on_disk && rng.gen_bool(0.02) {
                    tree.flush().unwrap();
                    drop(tree);
                    tree = EncipheredBTree::open(cfg.clone()).unwrap();
                    prop_assert_eq!(tree.live_record_slots().unwrap(), tree.len());
                }
            }
            prop_assert_eq!(tree.live_record_slots().unwrap(), tree.len());
            drain(&mut tree);
            for (k, v) in &model {
                prop_assert_eq!(tree.get(*k).unwrap().as_ref(), Some(v));
            }
            drop(tree);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Live record slots ≡ tree keys after a drain, under arbitrary
    /// churn, checkpoints, crashes (reopen to the last committed image)
    /// and clean reopens, on both tree backends.
    #[test]
    fn prop_live_record_slots_equal_len_after_drain_under_crashes(seed in any::<u64>()) {
        for on_disk in [false, true] {
            let dir = tmpdir(&format!("crash_prop_{seed}"));
            let mut cfg = config(2_048);
            if on_disk {
                cfg = cfg.on_disk(&dir);
            }
            let mut tree = if on_disk {
                EncipheredBTree::create(cfg.clone()).unwrap()
            } else {
                EncipheredBTree::create_in_memory(cfg.clone()).unwrap()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = std::collections::BTreeMap::new();
            let mut committed = model.clone();
            for _ in 0..400 {
                let k = rng.gen_range(0..1_000u64);
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        tree.insert(k, rec(k)).unwrap();
                        model.insert(k, rec(k));
                    }
                    6..=8 => {
                        let got = tree.delete(k).unwrap();
                        prop_assert_eq!(got, model.remove(&k));
                    }
                    _ => {
                        let r = tree.compact_step(rng.gen_range(1..16)).unwrap();
                        prop_assert_eq!(r.orphaned_records, 0);
                        tree.compact_nodes(8).unwrap();
                    }
                }
                if on_disk && rng.gen_bool(0.03) {
                    // Checkpoint, sometimes followed by a clean reopen.
                    tree.flush().unwrap();
                    committed = model.clone();
                    if rng.gen_bool(0.5) {
                        drop(tree);
                        tree = EncipheredBTree::open(cfg.clone()).unwrap();
                    }
                } else if on_disk && rng.gen_bool(0.01) {
                    // Crash: the buffered epoch dies; the reopen serves the
                    // last committed image.
                    drop(tree);
                    tree = EncipheredBTree::open(cfg.clone()).unwrap();
                    model = committed.clone();
                }
            }
            drain(&mut tree);
            prop_assert_eq!(tree.len(), model.len() as u64);
            for (k, v) in &model {
                prop_assert_eq!(tree.get(*k).unwrap().as_ref(), Some(v));
            }
            drop(tree);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Builds a probe rig whose committed image B ends in a small epoch on
/// top of image A, with a further uncommitted batch of inserts pending —
/// the setup both two-epoch crash probes share.
fn two_epoch_rig(
    name: &str,
) -> (
    ProbeRig,
    EncipheredBTree,
    std::collections::BTreeMap<u64, Vec<u8>>,
) {
    let (rig, mut tree) = ProbeRig::create(name);
    let mut model = std::collections::BTreeMap::new();
    for k in 0..300u64 {
        tree.insert(k, rec(k)).unwrap();
        model.insert(k, rec(k));
    }
    tree.flush().unwrap(); // image A
    for k in 300..320u64 {
        tree.insert(k, rec(k)).unwrap();
        model.insert(k, rec(k));
    }
    tree.flush().unwrap(); // image B: a small epoch
                           // The doomed epoch: records that never reach a committed tree.
    for k in 320..340u64 {
        tree.insert(k, rec(k)).unwrap();
    }
    (rig, tree, model)
}

/// Kill at the partition's checkpoint after a small epoch, with deletes
/// and a compaction pass in the doomed epoch: the reopen must serve image
/// B as if the doomed epoch never happened, and the next epoch must
/// commit cleanly on top of it.
#[test]
fn crash_at_data_device_checkpoint_after_a_small_epoch_recovers() {
    let (rig, mut tree, mut model) = two_epoch_rig("small_epoch_crash");
    for k in 0..40u64 {
        tree.delete(k).unwrap();
    }
    assert!(tree.compact_step(64).unwrap().freed_blocks > 0);
    rig.node_plan.arm_nth_flush(1);
    assert!(tree.flush().is_err(), "the checkpoint must fail");
    drop(tree);
    let mut tree = rig.reopen();
    assert_eq!(tree.live_record_slots().unwrap(), 320, "image B's records");
    assert_consistent(&mut tree, &model);
    // The next epoch commits cleanly on top of the recovered image.
    for k in 400..410u64 {
        tree.insert(k, rec(k)).unwrap();
        model.insert(k, rec(k));
    }
    tree.flush().unwrap();
    drop(tree);
    let mut tree = rig.reopen();
    assert_consistent(&mut tree, &model);
    rig.cleanup();
}

// ---------------------------------------------------------------------
// Compaction-report under-count regression
// ---------------------------------------------------------------------

/// A victim that is already fully dead is freed through the tombstone
/// fast path (no unseals, no moves) — and must still be counted, both in
/// the report and in the `compact_freed_blocks` counter (the PR 4 report
/// under-counted such blocks).
#[test]
fn report_counts_empty_victims_freed_via_tombstone_path() {
    let mut tree = EncipheredBTree::create_in_memory(config(2_048)).unwrap();
    let payload = vec![7u8; 200]; // 2 records per 512-byte page
    for k in 0..12u64 {
        tree.insert(k, payload.clone()).unwrap();
    }
    // Keys 0..=3 fill two whole blocks: delete all four → two fully dead
    // victims. Keys 4,6 half-kill two more blocks.
    for k in [0u64, 1, 2, 3, 4, 6] {
        tree.delete(k).unwrap();
    }
    let before = tree.snapshot();
    let mut report = sks_btree::core::CompactionReport::default();
    loop {
        let r = tree.compact_step(64).unwrap();
        if r.freed_blocks == 0 {
            break;
        }
        report.absorb(r);
    }
    let delta = tree.snapshot().delta(&before);
    assert!(
        report.freed_blocks >= 4,
        "two empty + two half-dead victims: {report:?}"
    );
    assert_eq!(
        report.freed_blocks, delta.compact_freed_blocks,
        "report and counter must agree"
    );
    // The two fully-dead blocks moved nothing — proof the fast path ran —
    // yet were counted above.
    assert_eq!(report.moved_records, 2, "only the half-dead blocks moved");
    assert_eq!(
        delta.compact_moved_records, 2,
        "tombstone path paid zero move-crypto for empty victims"
    );
    assert_eq!(report.orphaned_records, 0);
    tree.validate().unwrap();
    for k in [5u64, 7, 8, 9, 10, 11] {
        assert_eq!(tree.get(k).unwrap().unwrap(), payload, "key {k}");
    }
}

// ---------------------------------------------------------------------
// Churn space bound (file backend): devices ≤ 2× a fresh build
// ---------------------------------------------------------------------

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn prop_churn_and_shrink_bound_both_devices(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = tmpdir(&format!("churn_bound_{seed}"));
        let cfg = config(4_096).on_disk(&dir);
        let n = 1_000u64;
        let mut tree = EncipheredBTree::create(cfg).unwrap();
        // Sustained delete/reinsert churn…
        for k in 0..n {
            tree.insert(k, rec(k)).unwrap();
        }
        for _ in 0..3 {
            for k in 0..n {
                if rng.gen_bool(0.5) {
                    tree.delete(k).unwrap();
                    tree.insert(k, rec(k)).unwrap();
                }
            }
            // Governance + checkpoint, exactly as an engine checkpoint
            // runs it.
            while tree.compact_step(64).unwrap().freed_blocks > 0 {}
            tree.compact_nodes(10_000).unwrap();
            tree.flush().unwrap();
        }
        // …then shrink to 10% of the dataset.
        let live: Vec<u64> = (0..n).filter(|k| k % 10 == 0).collect();
        for k in 0..n {
            if k % 10 != 0 {
                tree.delete(k).unwrap();
            }
        }
        // Compact-and-checkpoint to quiescence, as the engine's
        // checkpoints would.
        loop {
            let mut did = 0u64;
            loop {
                let r = tree.compact_step(64).unwrap();
                if r.freed_blocks == 0 {
                    break;
                }
                did += r.freed_blocks;
            }
            let moved = tree.compact_nodes(10_000).unwrap();
            did += moved.moved_nodes + moved.node_blocks_truncated;
            let before = tree.data_block_usage().0;
            tree.flush().unwrap();
            did += (before - tree.data_block_usage().0) as u64;
            if did == 0 {
                break;
            }
        }
        // No orphan ever appeared: one live record slot per key.
        prop_assert_eq!(tree.live_record_slots().unwrap(), tree.len());
        for &k in &live {
            prop_assert_eq!(tree.get(k).unwrap().unwrap(), rec(k));
        }
        tree.validate().unwrap();
        drop(tree);

        // A fresh build of exactly the live set.
        let fresh_dir = tmpdir(&format!("churn_fresh_{seed}"));
        let fresh_cfg = config(4_096).on_disk(&fresh_dir);
        let items: Vec<(u64, Vec<u8>)> = live.iter().map(|&k| (k, rec(k))).collect();
        let mut fresh = EncipheredBTree::bulk_create(fresh_cfg, &items).unwrap();
        fresh.flush().unwrap();
        drop(fresh);

        for name in ["nodes.sks", "data.sks"] {
            let churned = file_len(&dir.join(name));
            let built = file_len(&fresh_dir.join(name));
            prop_assert!(
                churned <= built * 2,
                "{name}: churned {churned} > 2x fresh {built}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&fresh_dir).ok();
    }
}

// ---------------------------------------------------------------------
// Governance on vs off: logical counters pinned, every measured scheme
// ---------------------------------------------------------------------

/// With full space governance on (dead-ratio compaction, node-device
/// sliding, tail truncation, both caches) every *logical* operation
/// counter reads exactly as it does with governance off, for every
/// measured scheme — the paper's cost model is untouched by maintenance.
#[test]
fn governance_preserves_logical_counters_exactly() {
    for scheme in Scheme::MEASURED {
        let n = 240u64;
        let mut cfg = SchemeConfig::with_capacity(scheme, n + 2);
        cfg.block_size = 512;
        let keys: Vec<u64> = (1..n).collect();
        let run = |governed: bool| {
            let cfg = cfg.clone();
            let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
            for &k in &keys {
                tree.insert(k, vec![k as u8; 40]).unwrap();
            }
            for &k in keys.iter().filter(|k| *k % 3 == 0) {
                tree.delete(k).unwrap();
            }
            if governed {
                // The whole governance suite runs between the write phase
                // and the measured read phase.
                while tree.compact_step(32).unwrap().freed_blocks > 0 {}
                while tree.compact_nodes(1_000).unwrap().moved_nodes > 0 {}
            }
            tree.counters().reset();
            for _ in 0..3 {
                for &k in keys.iter().step_by(5) {
                    let want = k % 3 != 0;
                    assert_eq!(tree.get(k).unwrap().is_some(), want, "key {k}");
                }
                assert!(!tree.range(n / 4, n / 2).unwrap().is_empty());
            }
            tree.snapshot()
        };
        let off = run(false);
        let on = run(true);
        // Physical telemetry may differ (that is the point); every
        // logical field must not.
        let mut on_masked = on;
        on_masked.block_reads = off.block_reads;
        on_masked.cache_hits = off.cache_hits;
        on_masked.cache_misses = off.cache_misses;
        on_masked.node_cache_hits = off.node_cache_hits;
        on_masked.node_cache_misses = off.node_cache_misses;
        on_masked.record_cache_hits = off.record_cache_hits;
        on_masked.record_cache_misses = off.record_cache_misses;
        assert_eq!(
            on_masked,
            off,
            "{}: governance changed the logical cost model",
            scheme.name()
        );
    }
}

/// Two committed checkpoints of a probe partition, A and B, with a
/// compaction pass (moves, victims freed, the tail cut), a node-device
/// pass, inserts and deletes between them; both files' bytes at each, and
/// the model each serves. Image B's tree points at records in blocks
/// image A never allocated, and image A's pointers name blocks image B
/// freed: a reopen that mixed the two files would lose records.
struct TwoCheckpoints {
    rig: ProbeRig,
    model_a: std::collections::BTreeMap<u64, Vec<u8>>,
    model_b: std::collections::BTreeMap<u64, Vec<u8>>,
    files_a: [Vec<u8>; 2],
    files_b: [Vec<u8>; 2],
}

const FILES: [&str; 2] = ["nodes.sks", "data.sks"];

impl TwoCheckpoints {
    fn new(name: &str) -> Self {
        let (rig, mut tree) = ProbeRig::create(name);
        let mut model = std::collections::BTreeMap::new();
        for k in 0..300u64 {
            tree.insert(k, rec(k)).unwrap();
            model.insert(k, rec(k));
        }
        for k in (0..300u64).step_by(2) {
            tree.delete(k).unwrap();
            model.remove(&k);
        }
        tree.flush().unwrap();
        let model_a = model.clone();
        let files_a = FILES.map(|f| std::fs::read(rig.dir.join(f)).unwrap());
        let r = tree.compact_step(1_000).unwrap();
        assert!(r.moved_records > 0 && r.freed_blocks > 0, "{r:?}");
        tree.compact_nodes(1_000).unwrap();
        for k in 300..340u64 {
            tree.insert(k, rec(k)).unwrap();
            model.insert(k, rec(k));
        }
        for k in (1..60u64).step_by(4) {
            tree.delete(k).unwrap();
            model.remove(&k);
        }
        tree.flush().unwrap();
        drop(tree);
        let files_b = FILES.map(|f| std::fs::read(rig.dir.join(f)).unwrap());
        TwoCheckpoints {
            rig,
            model_a,
            model_b: model,
            files_a,
            files_b,
        }
    }

    /// The bytes of a partition journal that takes both files to image
    /// B, forged the way a checkpoint lays one out: magic, version 2, the
    /// block size and the file count; then per file its block count, its
    /// free stack and its pages (here every allocated block); a CRC over
    /// it all.
    fn journal_to_b(&self) -> Vec<u8> {
        let mut out = b"SKSJRNL1".to_vec();
        out.extend_from_slice(&2u32.to_be_bytes());
        out.extend_from_slice(&(BLOCK as u64).to_be_bytes());
        out.extend_from_slice(&(FILES.len() as u32).to_be_bytes());
        let forge = self.rig.dir.join("forge.sks");
        for bytes in &self.files_b {
            std::fs::write(&forge, bytes).unwrap();
            let disk = FileDisk::open(&forge).unwrap();
            let free = disk.free_block_ids();
            out.extend_from_slice(&disk.num_blocks().to_be_bytes());
            out.extend_from_slice(&(free.len() as u32).to_be_bytes());
            for id in &free {
                out.extend_from_slice(&id.to_be_bytes());
            }
            let live: Vec<u32> = (0..disk.num_blocks())
                .filter(|b| !free.contains(b))
                .collect();
            out.extend_from_slice(&(live.len() as u32).to_be_bytes());
            for b in live {
                out.extend_from_slice(&b.to_be_bytes());
                out.extend_from_slice(&disk.read_block_vec(BlockId(b)).unwrap());
            }
        }
        std::fs::remove_file(&forge).unwrap();
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Lays a crash's leftovers down: both files' bytes and the journal.
    fn crash_state(&self, files: [&[u8]; 2], journal: &[u8]) {
        for (name, bytes) in FILES.iter().zip(files) {
            std::fs::write(self.rig.dir.join(name), bytes).unwrap();
        }
        std::fs::write(self.rig.dir.join("checkpoint.journal"), journal).unwrap();
    }

    fn files_now(&self) -> [Vec<u8>; 2] {
        FILES.map(|f| std::fs::read(self.rig.dir.join(f)).unwrap())
    }
}

/// A crash after the partition journal reached the disk, wherever the
/// in-place writes stopped: each file at image A, half written (the
/// first half of its bytes B's, the rest A's), or at B (a journal whose
/// retirement was lost), in every combination. The reopen finishes the
/// commit: both files hold image B byte for byte, and the tree serves
/// model B.
#[test]
fn an_intact_partition_journal_over_half_applied_files_opens_to_the_post_image() {
    let cp = TwoCheckpoints::new("intact_journal");
    let journal = cp.journal_to_b();
    let half = |i: usize| -> Vec<u8> {
        let (a, b) = (&cp.files_a[i], &cp.files_b[i]);
        let cut = b.len() / 2;
        let mut mixed = b[..cut].to_vec();
        mixed.extend_from_slice(a.get(cut..).unwrap_or_default());
        mixed
    };
    let states = |i: usize| [cp.files_a[i].clone(), half(i), cp.files_b[i].clone()];
    for (n, nodes) in states(0).iter().enumerate() {
        for (d, data) in states(1).iter().enumerate() {
            cp.crash_state([nodes, data], &journal);
            let mut tree = cp.rig.reopen();
            assert_eq!(
                cp.files_now(),
                cp.files_b,
                "nodes state {n}, data state {d}"
            );
            assert_consistent(&mut tree, &cp.model_b);
        }
    }
    cp.rig.cleanup();
}

/// A crash while the partition journal was being written leaves both
/// files at image A and a torn journal — cut short anywhere, or with a
/// flipped bit. The reopen discards it: both files stay at image A byte
/// for byte, and the tree serves model A.
#[test]
fn a_torn_partition_journal_opens_to_the_pre_image() {
    let cp = TwoCheckpoints::new("torn_journal");
    let journal = cp.journal_to_b();
    let mut torn: Vec<Vec<u8>> = [0, 1, 8, 12, 20, 24, 28, 40]
        .into_iter()
        .chain((1..16).map(|i| journal.len() * i / 16))
        .chain([journal.len() - 4, journal.len() - 1])
        .map(|n| journal[..n].to_vec())
        .collect();
    let mut flipped = journal.clone();
    flipped[journal.len() / 3] ^= 0x10;
    torn.push(flipped);
    for (i, bytes) in torn.iter().enumerate() {
        cp.crash_state([&cp.files_a[0], &cp.files_a[1]], bytes);
        let mut tree = cp.rig.reopen();
        assert_eq!(cp.files_now(), cp.files_a, "torn journal {i}");
        assert_consistent(&mut tree, &cp.model_a);
    }
    cp.rig.cleanup();
}

/// A data store written before records carried their key (format version
/// 2) is refused at open, fail-closed: a typed error naming the version,
/// and the file left exactly as it was.
#[test]
fn open_refuses_a_version_2_store() {
    let dir = tmpdir("v2_store");
    let cfg = config(256).on_disk(&dir);
    {
        let mut tree = EncipheredBTree::create(cfg.clone()).unwrap();
        for k in 0..20u64 {
            tree.insert(k, rec(k)).unwrap();
        }
        tree.flush().unwrap();
    }
    let data = dir.join("data.sks");
    {
        let mut store = PagedFileStore::open(&data, 8, OpCounters::new()).unwrap();
        let mut superblock = store.read_block_vec(BlockId(0)).unwrap();
        assert_eq!(&superblock[0..8], b"SKSRECS1");
        superblock[8..12].copy_from_slice(&2u32.to_be_bytes());
        store.write_block(BlockId(0), &superblock).unwrap();
        store.flush().unwrap();
    }
    let before = std::fs::read(&data).unwrap();
    match EncipheredBTree::open(cfg) {
        Err(CoreError::Record(msg)) => assert!(msg.contains("version 2"), "{msg}"),
        other => panic!("a version-2 store must be refused, got {other:?}"),
    }
    assert_eq!(
        std::fs::read(&data).unwrap(),
        before,
        "refusal wrote nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}
