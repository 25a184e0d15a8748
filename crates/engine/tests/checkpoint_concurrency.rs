//! The fuzzy-checkpoint contract, end to end: clients make progress while
//! a checkpoint is in flight, writes racing the checkpoint are never
//! lost, and a crash at any phase boundary recovers a consistent image.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// Four partitions, each with the engine's fixed buffer pool.
fn config() -> EngineConfig {
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, CAPACITY).partitions(4);
    EngineConfig::new(scheme).sync(SyncPolicy::EveryN(16))
}

/// Drives reads and writes from a worker thread while a checkpoint runs,
/// and — crucially — makes the checkpoint *wait* for that progress via
/// the mid-checkpoint hook. Under the old stop-the-world checkpoint
/// (all partitions write-locked for the duration) this deadlocks; the
/// fuzzy checkpoint completes because clients are never globally blocked.
#[test]
fn file_backend_clients_progress_during_checkpoint() {
    let dir = tmpdir("file_progress");
    let db = SksDb::open(&dir, config()).expect("open");
    let session = db.session();
    // Values of about a page each: every partition's record store outgrows
    // its fixed pool, so the checkpoint runs under eviction pressure.
    for k in 0..2_000u64 {
        let mut value = format!("base-{k}").into_bytes();
        value.resize(3_000, b'.');
        session.insert(k, value).unwrap();
    }

    let ops_done = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let session = session.clone();
        let ops_done = Arc::clone(&ops_done);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let read_key = i % 2_000;
                assert!(session.get(read_key).unwrap().is_some(), "key {read_key}");
                let write_key = 10_000 + (i % 5_000);
                session
                    .insert(write_key, format!("during-{write_key}").into_bytes())
                    .unwrap();
                ops_done.fetch_add(1, Ordering::Release);
                i += 1;
            }
            i
        })
    };

    // The checkpoint may only complete after the worker has demonstrably
    // progressed *while it was in flight*.
    let evicts_before = db.snapshot().cache_evicts;
    let before = ops_done.load(Ordering::Acquire);
    db.checkpoint_with_hook(|| {
        while ops_done.load(Ordering::Acquire) < before + 20 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    })
    .expect("checkpoint");

    stop.store(true, Ordering::Release);
    let total = worker.join().expect("worker");
    assert!(total >= before + 20);
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
            "mid-checkpoint write {k} lost"
        );
    }
    assert!(db.len() >= 2_000);
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash *between* the partition-flush phase and the WAL cut (pages
/// durable, log untrimmed) must recover every record: replaying the full
/// old log over the newer images converges.
#[test]
fn crash_between_flush_and_wal_cut_recovers() {
    let dir = tmpdir("crash_between_phases");
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
        // Phase 2 of a checkpoint without its phase 3: pages flushed, WAL
        // left untrimmed. Then crash.
        db.flush_pages().expect("flush pages");
    }
    let db = SksDb::open(&dir, config()).expect("recover");
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
}

/// Readers and writers make progress while *node-device compaction* runs
/// inside the fuzzy checkpoint: after a shrink-heavy prelude, the
/// checkpoint's compaction passes must do real sliding work (relocations
/// and/or tail truncation) while a worker thread demonstrably reads and
/// writes mid-flight — and nothing racing the governed checkpoint is
/// lost.
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

    let ops_done = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let session = session.clone();
        let ops_done = Arc::clone(&ops_done);
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
                ops_done.fetch_add(1, Ordering::Release);
                i += 1;
            }
            i
        })
    };

    // Checkpoint until the governance passes go quiescent, each pass
    // required to overlap demonstrable client progress.
    let mut governed = sks_core::CompactionReport::default();
    for _ in 0..200 {
        let before = ops_done.load(Ordering::Acquire);
        db.checkpoint_with_hook(|| {
            while ops_done.load(Ordering::Acquire) < before + 10 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
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
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
