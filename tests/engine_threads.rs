//! The engine starts no thread: a commit writes and fsyncs on the
//! caller's thread, a bulk load logs and builds on it, and a checkpoint
//! commits its partitions one after another on it, so the process's
//! thread count is the baseline even in the middle of a checkpoint.
//! Linux-only (it counts `/proc/self/task`), and the only test in its
//! binary, so no other test's threads are counted.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use sks_btree::core::{Scheme, SchemeConfig};
use sks_btree::engine::{EngineConfig, SksDb};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The process's thread count once it is back at `baseline`, or the last
/// count seen if it is not within a second (a joined thread can linger in
/// `/proc` for a moment after its join returns).
fn settled(baseline: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let n = threads();
        if n == baseline || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn the_engine_leaves_no_thread_running_between_calls() {
    let dir = std::env::temp_dir().join(format!("sks_it_{}_threads", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 1_000).partitions(2);

    let baseline = threads();
    let db = SksDb::open(&dir, EngineConfig::new(scheme)).unwrap();
    db.bulk_load((200..400u64).map(|k| (k, b"bulk".to_vec())).collect())
        .unwrap();
    for k in 0..64u64 {
        db.insert(k, format!("record-{k}").into_bytes()).unwrap();
    }
    let keys = 100..108u64;
    let partitions: BTreeSet<usize> = keys.clone().map(|k| db.partition_of(k).unwrap()).collect();
    assert_eq!(partitions.len(), 2, "the transaction spans both partitions");
    let mut txn = db.begin();
    for k in keys {
        txn.insert(k, b"txn".to_vec()).unwrap();
    }
    txn.commit().unwrap();
    db.flush().unwrap();
    assert_eq!(
        settled(baseline),
        baseline,
        "after open, a bulk load, inserts, a multi-partition txn commit and flush"
    );

    // Every partition is dirty, so each step follows a commit.
    let mut steps = Vec::new();
    db.checkpoint_with_hook(|step| steps.push((step, threads())))
        .unwrap();
    let expected: Vec<(usize, usize)> = (0..=2).map(|step| (step, baseline)).collect();
    assert_eq!(
        steps, expected,
        "(checkpoint step, threads) inside the checkpoint"
    );
    assert_eq!(settled(baseline), baseline, "after checkpoint");

    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
