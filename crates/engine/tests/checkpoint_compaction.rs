//! The compaction every checkpoint runs, at the engine level: a
//! shrink-heavy workload makes the checkpoints' budgeted passes relocate
//! nodes and truncate the freed tail until `nodes.sks` physically shrinks,
//! and the shrunken devices reopen as a valid image that serves every
//! surviving record.

use sks_core::{Scheme, SchemeConfig};
use sks_engine::{EngineConfig, SksDb};
use sks_storage::SyncPolicy;

const CAPACITY: u64 = 8_192;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sks_ckpt_compact_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn file_config(partitions: usize) -> EngineConfig {
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, CAPACITY).partitions(partitions);
    EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32))
}

fn rec(k: u64) -> Vec<u8> {
    format!("compaction-record-{k:06}").into_bytes()
}

/// Node-device compaction rides the checkpoint: after a shrink-heavy
/// workload, a checkpoint reports moved/truncated node blocks and the
/// partitions' `nodes.sks` files physically shrink.
#[test]
fn checkpoint_compacts_and_shrinks_the_node_device() {
    let dir = tmpdir("node_shrink");
    let db = SksDb::open(&dir, file_config(2)).unwrap();
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
        let db = SksDb::open(&dir, file_config(2)).unwrap();
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
        let db = SksDb::open(&dir, file_config(2)).unwrap();
        assert_eq!(db.len(), 100);
        let session = db.session();
        for k in 900..1_000u64 {
            assert_eq!(session.get(k).unwrap().unwrap(), rec(k));
        }
        db.validate().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
