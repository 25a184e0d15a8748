//! The write path end to end — stage, then seal, write and (when due)
//! fsync inline at the commit: the plaintext staged in memory (group
//! bodies awaiting their seal) must never reach the medium or the flight
//! recorder. Plus the sorted-ingest `bulk_load` fast path riding the same
//! machinery.

use sks_core::{ObsLevel, Scheme, SchemeConfig};
use sks_engine::{EngineConfig, SksDb};
use sks_storage::{FailMode, FailPlan, SyncPolicy};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_pipe_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn rec(k: u64) -> Vec<u8> {
    format!("pipeline-record-{k:05}").into_bytes()
}

/// Attack sweep over the staging windows of the write path: while
/// record plaintext sits in the batch-staging buffer and dirty pages sit
/// in the no-steal pool, nothing readable may exist on the medium — and
/// nothing readable may ever enter the flight recorder or the stats
/// surface, before or after the checkpoint lands.
#[test]
fn staged_plaintext_never_reaches_medium_or_recorder() {
    let dir = tmpdir("staged_leak");
    let needle = b"EXTREMELY-SECRET-STAGED-ROW";
    let scan_medium = |dir: &std::path::Path| {
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                let raw = std::fs::read(&path).unwrap();
                assert!(
                    !raw.windows(needle.len()).any(|w| w == &needle[..]),
                    "staged plaintext reached the medium: {}",
                    path.display()
                );
            }
        }
    };

    let cfg = SchemeConfig::with_capacity(Scheme::Oval, 4096)
        .partitions(2)
        .observability(ObsLevel::FullTrace);
    let db = SksDb::open(&dir, EngineConfig::new(cfg).sync(SyncPolicy::EveryN(8))).unwrap();

    // Bulk loads and batches seal multi-record plaintext bodies borrowed
    // from the caller, single inserts stage theirs; the small fsync
    // period leaves committed-but-unsynced tails. Scan the medium in
    // exactly that state.
    db.bulk_load((0..30u64).map(|k| (k, needle.to_vec())).collect())
        .unwrap();
    db.insert_batch((30..60u64).map(|k| (k, needle.to_vec())).collect())
        .unwrap();
    for k in 60..90u64 {
        db.insert(k, needle.to_vec()).unwrap();
    }
    scan_medium(&dir);

    // Flush and checkpoint everything and scan again — the
    // checkpointed image must be just as silent.
    db.flush().unwrap();
    db.checkpoint().unwrap();
    scan_medium(&dir);

    // The telemetry surfaces never carry the plaintext either.
    let rendered = db
        .recent_events()
        .iter()
        .map(|e| e.render())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(!rendered.is_empty(), "FullTrace records the workload");
    let json = db.stats().to_json();
    for doc in [&rendered, &json] {
        assert!(
            !doc.contains("EXTREMELY-SECRET") && !doc.contains("STAGED-ROW"),
            "staged plaintext leaked into telemetry:\n{doc}"
        );
    }

    // And the data is all there, readable, through the sealed path.
    for k in 0..90u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), needle.to_vec());
    }
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// `bulk_load` end to end on the file backend: sorted ingest pays one
/// group commit per partition, builds every tree bottom-up, and the
/// result reads, validates, checkpoints and reopens like any other
/// database.
#[test]
fn bulk_load_sorted_ingest_end_to_end() {
    let dir = tmpdir("bulk_load");
    let config = || {
        let scheme = SchemeConfig::with_capacity(Scheme::Oval, 8192).partitions(3);
        EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32))
    };
    let db = SksDb::open(&dir, config()).unwrap();
    let items: Vec<(u64, Vec<u8>)> = (0..1_200u64).map(|k| (k * 3, rec(k))).collect();

    let before = db.snapshot();
    assert_eq!(db.bulk_load(items.clone()).unwrap(), 1_200);
    let delta = db.snapshot().delta(&before);
    assert_eq!(delta.wal_appends, 1_200, "every record hit the log");
    assert!(
        delta.wal_fsyncs <= 3,
        "one group commit per partition, not per record: {} fsyncs",
        delta.wal_fsyncs
    );

    assert_eq!(db.len(), 1_200);
    for (k, v) in &items {
        assert_eq!(db.get(*k).unwrap().unwrap(), *v, "key {k}");
    }
    assert_eq!(db.get(1).unwrap(), None);
    let span = db.range(300, 600).unwrap();
    assert_eq!(span.len(), 101, "lo..=hi over every third key");
    assert!(span.windows(2).all(|w| w[0].0 < w[1].0));
    db.validate().unwrap();

    // Mutations compose on top of a bulk-built tree.
    db.insert(1, b"inserted-after".to_vec()).unwrap();
    db.delete(0).unwrap();
    assert_eq!(db.get(1).unwrap().unwrap(), b"inserted-after".to_vec());
    assert_eq!(db.get(0).unwrap(), None);

    db.checkpoint().unwrap();
    drop(db);
    let db = SksDb::open(&dir, config()).unwrap();
    assert_eq!(db.len(), 1_200);
    for (k, v) in items.iter().step_by(17) {
        if *k != 0 {
            assert_eq!(db.get(*k).unwrap().unwrap(), *v);
        }
    }
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash right after `bulk_load` (no flush, no checkpoint) loses no
/// committed group: the load's WAL records replay into the reopened
/// partitions.
#[test]
fn bulk_load_replays_from_the_log_after_a_crash() {
    let dir = tmpdir("bulk_crash");
    let config = || {
        let scheme = SchemeConfig::with_capacity(Scheme::Oval, 8192).partitions(2);
        EngineConfig::new(scheme).sync(SyncPolicy::Always)
    };
    {
        let db = SksDb::open(&dir, config()).unwrap();
        db.bulk_load((0..500u64).map(|k| (k, rec(k))).collect())
            .unwrap();
        // Simulated kill: drop with dirty pages still pinned.
    }
    let db = SksDb::open(&dir, config()).unwrap();
    assert_eq!(db.recovery_report().records_replayed, 500);
    assert_eq!(db.len(), 500);
    for k in (0..500u64).step_by(11) {
        assert_eq!(db.get(k).unwrap().unwrap(), rec(k));
    }
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// `bulk_load` fails closed: unsorted input and non-empty databases are
/// rejected before anything — log or trees — is touched.
#[test]
fn bulk_load_rejects_unsorted_and_non_empty() {
    let dir = tmpdir("bulk_reject");
    let db = SksDb::open(
        &dir,
        EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 4096)),
    )
    .unwrap();

    let before = db.snapshot();
    let err = db
        .bulk_load(vec![(5, rec(5)), (5, rec(5))])
        .unwrap_err()
        .to_string();
    assert!(err.contains("strictly ascending"), "{err}");
    let err = db
        .bulk_load(vec![(9, rec(9)), (3, rec(3))])
        .unwrap_err()
        .to_string();
    assert!(err.contains("strictly ascending"), "{err}");
    let delta = db.snapshot().delta(&before);
    assert_eq!(delta.wal_appends, 0, "rejection must not touch the log");
    assert_eq!(db.len(), 0);

    db.insert(7, rec(7)).unwrap();
    let err = db
        .bulk_load(vec![(1, rec(1)), (2, rec(2))])
        .unwrap_err()
        .to_string();
    assert!(err.contains("empty"), "{err}");
    assert_eq!(db.len(), 1, "failed load changed nothing");
    assert_eq!(db.get(7).unwrap().unwrap(), rec(7));
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A process killed at any write or fsync of a two-partition `bulk_load`
/// reopens with each partition's group whole or empty: nothing of the
/// trees reaches a store before a checkpoint, and each partition's
/// frame replays all or nothing.
#[test]
fn bulk_load_kill_point_sweep_leaves_each_partition_whole_or_empty() {
    let config = |plan: &FailPlan| {
        let scheme = SchemeConfig::with_capacity(Scheme::Oval, 8192).partitions(2);
        EngineConfig::new(scheme)
            .sync(SyncPolicy::Always)
            .wal_fault(plan.clone())
    };
    // ~45 KB of log: each partition's frame spans several blocks.
    let items: Vec<(u64, Vec<u8>)> = (0..400u64).map(|k| (k, vec![k as u8; 100])).collect();
    let dir = tmpdir("bulk_kill_sweep");
    // Loads under `arm`, then reopens; returns the load's writes and
    // fsyncs (unarmed) and each partition's length after the reopen.
    let run = |arm: &dyn Fn(&FailPlan)| {
        std::fs::remove_dir_all(&dir).ok();
        let plan = FailPlan::new();
        let db = SksDb::open(&dir, config(&plan)).unwrap();
        let groups: Vec<usize> = (0..2)
            .map(|p| {
                let in_p = items
                    .iter()
                    .filter(|(k, _)| db.partition_of(*k).unwrap() == p);
                in_p.count()
            })
            .collect();
        arm(&plan);
        let before = db.snapshot();
        let outcome = db.bulk_load(items.clone());
        assert_eq!(outcome.is_err(), plan.tripped(), "{outcome:?}");
        let seen = (plan.writes_seen(), db.snapshot().delta(&before).wal_fsyncs);
        drop(db);
        plan.reset();
        let db = SksDb::open(&dir, config(&plan)).unwrap();
        let lens = db.partition_lens();
        for (p, (&len, &whole)) in lens.iter().zip(&groups).enumerate() {
            assert!(
                len == 0 || len == whole as u64,
                "partition {p}: {len} of {whole}"
            );
        }
        for (k, v) in &items {
            if lens[db.partition_of(*k).unwrap()] > 0 {
                assert_eq!(db.get(*k).unwrap().as_ref(), Some(v), "key {k}");
            }
        }
        db.validate().unwrap();
        (seen, lens)
    };
    let ((writes, fsyncs), lens) = run(&|plan| plan.arm_nth_write(u64::MAX, FailMode::Error));
    assert!(
        lens.iter().all(|&l| l > 0) && writes >= 8,
        "{writes} writes, {lens:?}"
    );
    for nth in 1..=writes {
        let mode = if nth % 2 == 0 {
            FailMode::Torn
        } else {
            FailMode::Error
        };
        run(&|plan| plan.arm_nth_write(nth, mode));
    }
    for nth in 1..=fsyncs {
        run(&|plan| plan.arm_nth_flush(nth));
    }
    std::fs::remove_dir_all(&dir).ok();
}
