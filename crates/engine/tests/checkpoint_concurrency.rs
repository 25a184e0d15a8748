//! The fuzzy-checkpoint contract, end to end: clients read and write
//! between a checkpoint's steps, writes racing the checkpoint are never
//! lost, and a crash at any phase boundary recovers a consistent image.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sks_core::{Scheme, SchemeConfig};
use sks_engine::{EngineConfig, SksDb};
use sks_storage::SyncPolicy;

const CAPACITY: u64 = 20_000;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_ckpt_conc_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else if entry.file_name() != "engine.lock" {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Four partitions, each with the engine's fixed buffer pool.
fn config() -> EngineConfig {
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, CAPACITY).partitions(4);
    EngineConfig::new(scheme).sync(SyncPolicy::EveryN(16))
}

/// A worker thread reads and writes while a checkpoint runs, and the
/// checkpointing thread itself reads and writes between every two of the
/// checkpoint's steps. Under a stop-the-world checkpoint (all partitions
/// write-locked for the duration) the hook's writes deadlock; the fuzzy
/// checkpoint holds no partition lock between its steps.
#[test]
fn file_backend_clients_progress_during_checkpoint() {
    let dir = tmpdir("file_progress");
    let db = SksDb::open(&dir, config()).expect("open");
    let session = db.session();
    // Values of about a page each, about 1 500 per partition: more than
    // a partition's record cache (1 024) and pool (256 frames) hold, so
    // the first keys loaded are in neither by the time the load ends.
    const LOADED: u64 = 6_000;
    for k in 0..LOADED {
        let mut value = format!("base-{k}").into_bytes();
        value.resize(3_000, b'.');
        session.insert(k, value).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let session = session.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                // The last keys loaded: never the hook's.
                let read_key = LOADED - 1 - i % 2_000;
                assert!(session.get(read_key).unwrap().is_some(), "key {read_key}");
                let write_key = 10_000 + (i % 5_000);
                session
                    .insert(write_key, format!("during-{write_key}").into_bytes())
                    .unwrap();
                i += 1;
            }
            i
        })
    };

    // Between the steps, cold reads of page-sized values and fresh
    // writes, 8 of each per step. Each read is of one of the first keys
    // loaded, which nothing has read since: it misses the record cache
    // and its partition's full pool, so it evicts a frame.
    let evicts_before = db.snapshot().cache_evicts;
    let mut hook_writes = Vec::new();
    db.checkpoint_with_hook(|step| {
        for i in 0..8 {
            let k = (step * 8 + i) as u64;
            assert!(session.get(k).unwrap().is_some(), "key {k}");
            session
                .insert(15_000 + k, format!("step-{k}").into_bytes())
                .unwrap();
            hook_writes.push(k);
        }
    })
    .expect("checkpoint");
    assert_eq!(hook_writes.len(), 8 * 5, "the switch and four partitions");

    stop.store(true, Ordering::Release);
    let total = worker.join().expect("worker");
    let evicts = db.snapshot().cache_evicts - evicts_before;
    assert!(evicts > 0, "the checkpoint ran without eviction pressure");
    db.validate().unwrap();

    // Nothing racing the checkpoint was lost — including writes that
    // landed mid-flight (the fuzzy tail) — across a "crash" (drop with
    // no further checkpoint or flush) and reopen.
    let written: Vec<u64> = (10_000..10_000 + total.min(5_000)).collect();
    drop(session);
    drop(db);
    let db = SksDb::open(&dir, config()).expect("reopen");
    for k in written {
        assert_eq!(
            db.get(k).unwrap(),
            Some(format!("during-{k}").into_bytes()),
            "racing write {k} lost"
        );
    }
    for k in hook_writes {
        assert_eq!(
            db.get(15_000 + k).unwrap(),
            Some(format!("step-{k}").into_bytes()),
            "mid-checkpoint write {k} lost"
        );
    }
    assert!(db.len() >= LOADED);
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash *between* the partition commits and the segment removal
/// (pages durable, the retired segment still there) recovers every
/// record and replays nothing: every partition covers the whole log.
#[test]
fn crash_between_flush_and_wal_cut_recovers() {
    let (dir, crashed) = (tmpdir("crash_between_phases"), tmpdir("crash_image"));
    {
        let db = SksDb::open(&dir, config()).expect("open");
        let session = db.session();
        for k in 0..1_000u64 {
            session.insert(k, format!("a-{k}").into_bytes()).unwrap();
        }
        db.checkpoint().expect("first checkpoint");
        for k in 1_000..1_500u64 {
            session.insert(k, format!("b-{k}").into_bytes()).unwrap();
        }
        for k in (0..1_000u64).step_by(5) {
            session.delete(k).unwrap();
        }
        // The crash image after the last partition's commit, before the
        // retired segment goes.
        db.checkpoint_with_hook(|step| {
            if step == 4 {
                copy_dir(&dir, &crashed);
            }
        })
        .expect("checkpoint");
    }
    let segments = std::fs::read_dir(&crashed)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("wal-")
        })
        .count();
    assert_eq!(segments, 2, "the retired segment and the current one");
    let db = SksDb::open(&crashed, config()).expect("recover");
    assert_eq!(db.recovery_report().records_replayed, 0);
    for k in 0..1_000u64 {
        let want = if k % 5 == 0 {
            None
        } else {
            Some(format!("a-{k}").into_bytes())
        };
        assert_eq!(db.get(k).unwrap(), want, "key {k}");
    }
    for k in 1_000..1_500u64 {
        assert_eq!(db.get(k).unwrap(), Some(format!("b-{k}").into_bytes()));
    }
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crashed).ok();
}

/// Readers and writers make progress while *node-device compaction* runs
/// inside the fuzzy checkpoint: after a shrink-heavy prelude, the
/// checkpoint's compaction passes must do real sliding work (relocations
/// and/or tail truncation) while a worker thread reads and writes, and
/// the checkpointing thread reads and writes between every two steps —
/// and nothing racing the governed checkpoints is lost.
#[test]
fn file_backend_clients_progress_during_node_compaction() {
    let dir = tmpdir("file_node_compact");
    let db = SksDb::open(&dir, config()).expect("open");
    let session = db.session();
    // Grow, then delete the early-inserted range: the survivors live in
    // high-numbered node blocks, so the checkpoint's sliding pass has
    // real relocations to do (not just truncation).
    for k in 0..4_000u64 {
        session.insert(k, format!("base-{k}").into_bytes()).unwrap();
    }
    for k in 0..3_200u64 {
        session.delete(k).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let session = session.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let read_key = 3_200 + (i % 800);
                assert!(session.get(read_key).unwrap().is_some(), "key {read_key}");
                let write_key = 10_000 + (i % 5_000);
                session
                    .insert(write_key, format!("during-{write_key}").into_bytes())
                    .unwrap();
                i += 1;
            }
            i
        })
    };

    // Checkpoint until the governance passes go quiescent, a read and a
    // write between every two steps of each.
    let mut governed = sks_core::CompactionReport::default();
    let mut hook_ops = 0u64;
    for _ in 0..200 {
        db.checkpoint_with_hook(|_| {
            let read_key = 3_200 + hook_ops % 800;
            assert!(session.get(read_key).unwrap().is_some(), "key {read_key}");
            let write_key = 16_000 + hook_ops % 2_000;
            session
                .insert(write_key, format!("step-{write_key}").into_bytes())
                .unwrap();
            hook_ops += 1;
        })
        .expect("checkpoint");
        let r = db.last_compaction_report();
        governed.absorb(r);
        if r.freed_blocks == 0 && r.moved_nodes == 0 && r.node_blocks_truncated == 0 {
            break;
        }
    }
    assert!(
        governed.moved_nodes > 0,
        "node compaction never slid a node: {governed:?}"
    );
    assert!(
        governed.node_blocks_truncated > 0,
        "the node device never shrank: {governed:?}"
    );

    stop.store(true, Ordering::Release);
    let total = worker.join().expect("worker");
    db.validate().unwrap();
    // Nothing racing the governed checkpoints was lost.
    for k in 3_200..4_000u64 {
        assert_eq!(db.get(k).unwrap(), Some(format!("base-{k}").into_bytes()));
    }
    for k in 10_000..10_000 + total.min(5_000) {
        assert_eq!(
            db.get(k).unwrap(),
            Some(format!("during-{k}").into_bytes()),
            "racing write {k} lost"
        );
    }
    for k in 16_000..16_000 + hook_ops.min(2_000) {
        assert_eq!(
            db.get(k).unwrap(),
            Some(format!("step-{k}").into_bytes()),
            "mid-checkpoint write {k} lost"
        );
    }
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
