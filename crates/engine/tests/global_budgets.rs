//! Process-wide governance at the engine level: one dirty-page budget for
//! the whole process, and node-device compaction riding every checkpoint.

use sks_core::{Scheme, SchemeConfig, StorageBackend};
use sks_engine::{EngineConfig, SksDb};
use sks_storage::SyncPolicy;

const CAPACITY: u64 = 8_192;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_glob_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn file_config(dir: &std::path::Path, partitions: usize) -> EngineConfig {
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, CAPACITY)
        .partitions(partitions)
        .backend(StorageBackend::File {
            dir: dir.to_path_buf(),
            pool_pages: 256,
        });
    EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32))
}

fn rec(k: u64) -> Vec<u8> {
    format!("global-budget-record-{k:06}").into_bytes()
}

/// The process-wide dirty budget sheds pinned pages in the background:
/// under the same write load, an engine with a global budget ends up
/// pinning strictly fewer dirty pages (and paying extra physical page
/// writes for the background flushes), while an unbudgeted engine pins
/// everything until checkpoint.
#[test]
fn global_dirty_budget_flushes_the_dirtiest_partition() {
    let run = |budget: usize, name: &str| -> (u64, usize) {
        let dir = tmpdir(name);
        let mut cfg = file_config(&dir, 4);
        cfg.scheme = cfg.scheme.global_dirty_budget(budget);
        let db = SksDb::open(&dir, cfg).unwrap();
        let session = db.session();
        for k in 0..1_500u64 {
            session.insert(k, rec(k)).unwrap();
        }
        db.wait_for_auto_checkpoint();
        assert_eq!(db.take_auto_checkpoint_error(), None);
        let writes = db.snapshot().block_writes;
        let pinned = db.global_dirty_pages();
        // Engine state stays fully correct under background flushing.
        for k in (0..1_500u64).step_by(13) {
            assert_eq!(session.get(k).unwrap().unwrap(), rec(k));
        }
        db.validate().unwrap();
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
        (writes, pinned)
    };
    let (unbudgeted_writes, unbudgeted_pinned) = run(0, "no_budget");
    let (budgeted_writes, budgeted_pinned) = run(16, "with_budget");
    // Identical workloads pay identical WAL writes; only the background
    // page flushes add physical block writes on top.
    assert!(
        budgeted_writes > unbudgeted_writes,
        "the global budget must trigger background page flushes \
         ({budgeted_writes} vs {unbudgeted_writes})"
    );
    assert!(
        budgeted_pinned < unbudgeted_pinned,
        "budgeted engine pins fewer dirty pages ({budgeted_pinned} vs {unbudgeted_pinned})"
    );
}

/// The proportional controller: one governance kick flushes partitions
/// dirtiest-first *until the process is back under budget*, instead of
/// shedding a single partition per breach. With eight partitions all
/// dirty at once, the old one-flush-per-kick controller needed ~one kick
/// per partition; the proportional sweep must converge within a couple
/// of settle rounds.
#[test]
fn global_dirty_budget_converges_proportionally() {
    const BUDGET: usize = 64;
    let dir = tmpdir("converge");
    let mut cfg = file_config(&dir, 8);
    cfg.scheme = cfg.scheme.global_dirty_budget(BUDGET);
    let db = SksDb::open(&dir, cfg).unwrap();
    let session = db.session();
    // Dirty every partition well beyond the budget.
    for k in 0..4_000u64 {
        session.insert(k, rec(k)).unwrap();
    }
    db.wait_for_auto_checkpoint();
    // Settle: each round performs just enough mutations to guarantee the
    // sampled budget probe fires, then joins the background sweep. One
    // sweep flushes dirtiest-first until under budget, so convergence
    // must not take anywhere near one round per dirty partition.
    let mut rounds = 0;
    while db.global_dirty_pages() > BUDGET {
        rounds += 1;
        assert!(
            rounds <= 3,
            "proportional controller failed to converge: {} dirty pages \
             after {rounds} rounds (budget {BUDGET})",
            db.global_dirty_pages()
        );
        for k in 0..16u64 {
            session.insert(k, b"nudge".to_vec()).unwrap();
        }
        db.wait_for_auto_checkpoint();
    }
    assert_eq!(db.take_auto_checkpoint_error(), None);
    // Correctness is untouched by the sweeps.
    for k in (16..4_000u64).step_by(37) {
        assert_eq!(session.get(k).unwrap().unwrap(), rec(k));
    }
    db.validate().unwrap();
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Node-device compaction rides the checkpoint: after a shrink-heavy
/// workload, a checkpoint reports moved/truncated node blocks and the
/// partitions' `nodes.sks` files physically shrink.
#[test]
fn checkpoint_compacts_and_shrinks_the_node_device() {
    let dir = tmpdir("node_shrink");
    let db = SksDb::open(&dir, file_config(&dir, 2)).unwrap();
    let session = db.session();
    for k in 0..4_000u64 {
        session.insert(k, rec(k)).unwrap();
    }
    db.checkpoint().unwrap();
    let nodes_len = |dir: &std::path::Path| -> u64 {
        (0..2)
            .map(|i| {
                let p = dir.join(format!("part-{i:03}")).join("nodes.sks");
                std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
            })
            .sum()
    };
    let high_water = nodes_len(&dir);
    // Shrink to 10%, deleting the *early-inserted* key range: the
    // surviving late keys live in high-numbered node blocks, so packing
    // them needs real relocations, not just tail truncation.
    for k in 0..3_600u64 {
        session.delete(k).unwrap();
    }
    // Checkpoints run the budgeted passes; loop until quiescent.
    let mut governed = sks_core::CompactionReport::default();
    for _ in 0..200 {
        db.checkpoint().unwrap();
        let r = db.last_compaction_report();
        governed.absorb(r);
        if r.freed_blocks == 0 && r.moved_nodes == 0 && r.node_blocks_truncated == 0 {
            break;
        }
    }
    assert!(governed.moved_nodes > 0, "sliding passes ran: {governed:?}");
    assert!(governed.node_blocks_truncated > 0, "{governed:?}");
    assert!(governed.freed_blocks > 0, "{governed:?}");
    let shrunk = nodes_len(&dir);
    assert!(
        shrunk * 4 < high_water,
        "nodes.sks should shrink well below the high-water mark: {shrunk} vs {high_water}"
    );
    for k in 3_600..4_000u64 {
        assert_eq!(session.get(k).unwrap().unwrap(), rec(k), "key {k}");
    }
    db.validate().unwrap();
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Reopening after governed churn tail-replays and serves everything —
/// the shrunken devices are a valid persisted image.
#[test]
fn shrunken_database_reopens_cleanly() {
    let dir = tmpdir("shrunk_reopen");
    {
        let db = SksDb::open(&dir, file_config(&dir, 2)).unwrap();
        let session = db.session();
        for k in 0..1_000u64 {
            session.insert(k, rec(k)).unwrap();
        }
        for k in 0..900u64 {
            session.delete(k).unwrap();
        }
        for _ in 0..50 {
            db.checkpoint().unwrap();
            let r = db.last_compaction_report();
            if r.freed_blocks == 0 && r.moved_nodes == 0 {
                break;
            }
        }
    }
    {
        let db = SksDb::open(&dir, file_config(&dir, 2)).unwrap();
        assert_eq!(db.len(), 100);
        let session = db.session();
        for k in 900..1_000u64 {
            assert_eq!(session.get(k).unwrap().unwrap(), rec(k));
        }
        db.validate().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
