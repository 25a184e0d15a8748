//! End-to-end engine tests: durability without checkpoints, torn-tail
//! recovery, checkpoint compaction, and concurrent sessions over a
//! partitioned tree.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use sks_core::{Scheme, SchemeConfig, StorageBackend};
use sks_engine::{EngineConfig, EngineError, RecoveryPath, SksDb};
use sks_storage::SyncPolicy;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_engine_it_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Whether the CI matrix pinned a backend for the generic tests
/// (`SKS_TEST_BACKEND=memory|file`; unset = memory). The engine re-roots
/// each partition's stores under the database directory, so the file
/// backend's own `dir` is a placeholder.
fn env_backend() -> Option<StorageBackend> {
    match std::env::var("SKS_TEST_BACKEND").as_deref() {
        Ok("file") => Some(StorageBackend::File {
            dir: std::env::temp_dir(),
            pool_pages: 64,
        }),
        Ok("memory") | Err(_) => None,
        Ok(other) => panic!("SKS_TEST_BACKEND must be 'memory' or 'file', got {other:?}"),
    }
}

fn env_is_file_backend() -> bool {
    env_backend().is_some()
}

/// Backend-generic config: runs on the memory backend by default and on
/// whatever the `SKS_TEST_BACKEND` matrix axis selects in CI.
fn config(partitions: usize, capacity: u64) -> EngineConfig {
    let mut scheme = SchemeConfig::with_capacity(Scheme::Oval, capacity).partitions(partitions);
    if let Some(backend) = env_backend() {
        scheme = scheme.backend(backend);
    }
    EngineConfig::new(scheme)
}

/// Memory-backend config for tests that assert memory-specific semantics
/// (full WAL replay, a log no checkpoint cuts, repartitioning) regardless
/// of the matrix axis.
fn memory_config(partitions: usize, capacity: u64) -> EngineConfig {
    EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, capacity).partitions(partitions))
}

/// File-backend config: the engine re-roots each partition's stores under
/// the database directory, so the backend's own `dir` is a placeholder.
fn file_config(dir: &std::path::Path, partitions: usize, capacity: u64) -> EngineConfig {
    EngineConfig::new(
        SchemeConfig::with_capacity(Scheme::Oval, capacity)
            .partitions(partitions)
            .backend(StorageBackend::File {
                dir: dir.to_path_buf(),
                pool_pages: 64,
            }),
    )
}

fn record_for(k: u64) -> Vec<u8> {
    format!("record-{k:06}").into_bytes()
}

#[test]
fn recovery_reopens_everything_without_checkpoint() {
    let dir = tmpdir("recovery");
    const N: u64 = 500;
    {
        let db = SksDb::open(&dir, config(4, N + 64)).unwrap();
        let session = db.session();
        for k in 0..N {
            session.insert(k, record_for(k)).unwrap();
        }
        assert_eq!(db.len(), N);
        // Dropped without checkpoint or explicit flush: durability must
        // come from the per-commit WAL writes alone.
    }
    {
        let db = SksDb::open(&dir, config(4, N + 64)).unwrap();
        let report = db.recovery_report();
        assert!(!report.torn_tail);
        assert_eq!(report.records_replayed, N);
        assert_eq!(report.records_skipped, 0);
        assert_eq!(db.len(), N);
        db.validate().unwrap();
        let session = db.session();
        for k in 0..N {
            assert_eq!(session.get(k).unwrap().unwrap(), record_for(k), "key {k}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replays_deletes_and_overwrites() {
    let dir = tmpdir("replay_mutations");
    {
        let db = SksDb::open(&dir, config(2, 256)).unwrap();
        let s = db.session();
        for k in 0..100u64 {
            s.insert(k, record_for(k)).unwrap();
        }
        for k in (0..100u64).step_by(2) {
            s.delete(k).unwrap();
        }
        for k in (1..100u64).step_by(4) {
            s.insert(k, b"overwritten".to_vec()).unwrap();
        }
    }
    let db = SksDb::open(&dir, config(2, 256)).unwrap();
    let s = db.session();
    assert_eq!(db.len(), 50);
    for k in 0..100u64 {
        let got = s.get(k).unwrap();
        if k % 2 == 0 {
            assert_eq!(got, None, "deleted key {k}");
        } else if (k - 1) % 4 == 0 {
            assert_eq!(got.unwrap(), b"overwritten", "overwritten key {k}");
        } else {
            assert_eq!(got.unwrap(), record_for(k), "untouched key {k}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_recovers_prefix() {
    let dir = tmpdir("torn");
    const N: u64 = 300;
    let logical_len;
    {
        let db = SksDb::open(&dir, config(2, N + 64)).unwrap();
        let s = db.session();
        for k in 0..N {
            s.insert(k, record_for(k)).unwrap();
        }
        logical_len = db.wal_len_bytes();
    }
    // Truncate the WAL mid-record: a crash halfway through a write. The
    // stream starts after the FileDisk's fixed 8 KiB header, and cutting
    // 20 bytes before its logical end lands inside the last record (each
    // record here is 46 bytes).
    let wal_path = dir.join("wal.sks");
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    f.set_len(8192 + logical_len - 20).unwrap();
    drop(f);

    let db = SksDb::open(&dir, config(2, N + 64)).unwrap();
    let report = db.recovery_report();
    assert!(report.torn_tail, "truncation must be reported");
    let survived = report.records_replayed;
    assert!(
        survived < N && survived > 0,
        "a strict, non-empty prefix survives (got {survived})"
    );
    assert_eq!(db.len(), survived);
    db.validate().unwrap();
    // The surviving records are exactly the first `survived` inserts.
    let s = db.session();
    for k in 0..survived {
        assert_eq!(s.get(k).unwrap().unwrap(), record_for(k), "key {k}");
    }
    for k in survived..N {
        assert_eq!(s.get(k).unwrap(), None, "torn-off key {k}");
    }

    // And the recovered engine keeps accepting writes durably.
    for k in survived..N {
        s.insert(k, record_for(k)).unwrap();
    }
    drop(s);
    drop(db);
    let db = SksDb::open(&dir, config(2, N + 64)).unwrap();
    assert!(!db.recovery_report().torn_tail, "scrub left a clean log");
    assert_eq!(db.len(), N);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_compacts_wal_and_survives_reopen() {
    let dir = tmpdir("checkpoint");
    {
        let db = SksDb::open(&dir, config(4, 512)).unwrap();
        let s = db.session();
        // Heavy churn: every key rewritten 8 times then half deleted.
        for round in 0..8u64 {
            for k in 0..200u64 {
                s.insert(k, format!("round-{round}-{k}").into_bytes())
                    .unwrap();
            }
        }
        for k in (0..200u64).step_by(2) {
            s.delete(k).unwrap();
        }
        let before = db.wal_len_bytes();
        db.checkpoint().unwrap();
        let after = db.wal_len_bytes();
        if env_is_file_backend() {
            // Durability lives in the pages: the cut leaves an empty tail.
            assert!(
                after < before / 4,
                "checkpoint must compact ({before} -> {after} bytes)"
            );
        } else {
            // The log is the database: a checkpoint never cuts it.
            assert_eq!(after, before, "memory-backend log must stand");
        }
        // Post-checkpoint writes land in the log the checkpoint left.
        s.insert(499, b"post-checkpoint".to_vec()).unwrap();
    }
    let db = SksDb::open(&dir, config(4, 512)).unwrap();
    assert_eq!(db.len(), 101);
    let s = db.session();
    assert_eq!(s.get(499).unwrap().unwrap(), b"post-checkpoint");
    for k in (1..200u64).step_by(2) {
        assert_eq!(
            s.get(k).unwrap().unwrap(),
            format!("round-7-{k}").into_bytes()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The cut fails closed. If the log device no longer holds the tail the
/// checkpoint is about to carry over (here: one rotted byte in a full,
/// already rotated-out tail block), the checkpoint must error *before*
/// renaming the fresh log over the old one — a short tail would silently
/// drop acknowledged records. The old log stands: with the rot undone, a
/// reopen still replays every acknowledged record. (File backend: the
/// memory backend never cuts its log.)
#[test]
fn checkpoint_cut_fails_closed_when_the_tail_rotted() {
    const WAL_BLOCK: u64 = 4096;
    let dir = tmpdir("cut_fails_closed");
    let wal_path = dir.join("wal.sks");
    let flip = |at: u64| {
        let mut raw = std::fs::read(&wal_path).unwrap();
        raw[at as usize] ^= 0x01;
        std::fs::write(&wal_path, &raw).unwrap();
    };
    let db = SksDb::open(&dir, file_config(&dir, 2, 1024)).unwrap();
    for k in 0..100u64 {
        db.insert(k, record_for(k)).unwrap();
    }
    // The tail is what lands after the checkpoint's mark: write several
    // WAL blocks of it from the mid-checkpoint hook, then rot the first
    // block that lies wholly inside it (past the FileDisk's 8 KiB header).
    let mark = db.wal_len_bytes();
    let mut rotted = 0;
    let err = db
        .checkpoint_with_hook(|| {
            for k in 100..400u64 {
                db.insert(k, record_for(k)).unwrap();
            }
            db.flush().unwrap();
            assert!(db.wal_len_bytes() > mark + 3 * WAL_BLOCK, "tail too short");
            rotted = 8192 + (mark / WAL_BLOCK + 1) * WAL_BLOCK + 100;
            flip(rotted);
        })
        .expect_err("a cut over a rotted tail must fail");
    assert!(
        err.to_string().contains("tail scan stopped"),
        "unexpected error: {err}"
    );
    flip(rotted);
    drop(db);

    let db = SksDb::open(&dir, file_config(&dir, 2, 1024)).unwrap();
    assert!(!db.recovery_report().torn_tail);
    assert_eq!(db.len(), 400);
    for k in 0..400u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), record_for(k), "key {k}");
    }
    // And the recovered database checkpoints cleanly.
    db.checkpoint().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_sessions_readers_and_writers() {
    let dir = tmpdir("concurrent");
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const PER_WRITER: u64 = 150;
    let db = SksDb::open(&dir, config(8, WRITERS as u64 * PER_WRITER + 64)).unwrap();

    // Pre-load half the key space so readers have something to find.
    let preload = db.session();
    for k in 0..(WRITERS as u64 * PER_WRITER) / 2 {
        preload.insert(k, record_for(k)).unwrap();
    }

    let barrier = Arc::new(Barrier::new(WRITERS + READERS));
    let read_hits = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let session = db.session();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let lo = w as u64 * PER_WRITER;
            barrier.wait();
            for k in lo..lo + PER_WRITER {
                session.insert(k, record_for(k)).unwrap();
            }
        }));
    }
    for r in 0..READERS {
        let session = db.session();
        let barrier = Arc::clone(&barrier);
        let read_hits = Arc::clone(&read_hits);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut hits = 0;
            for pass in 0..3u64 {
                for k in 0..WRITERS as u64 * PER_WRITER {
                    if let Some(v) = session
                        .get((k + r as u64 + pass) % (WRITERS as u64 * PER_WRITER))
                        .unwrap()
                    {
                        assert!(v.starts_with(b"record-"));
                        hits += 1;
                    }
                }
            }
            read_hits.fetch_add(hits, Ordering::Relaxed);
        }));
    }
    for h in handles {
        h.join().expect("no thread panics");
    }

    assert_eq!(db.len(), WRITERS as u64 * PER_WRITER);
    db.validate().unwrap();
    assert!(
        read_hits.load(Ordering::Relaxed) > 0,
        "readers observed live data during the write storm"
    );

    // Everything the concurrent writers logged must be recoverable.
    drop(preload);
    drop(db);
    let db = SksDb::open(&dir, config(8, WRITERS as u64 * PER_WRITER + 64)).unwrap();
    assert_eq!(db.len(), WRITERS as u64 * PER_WRITER);
    let s = db.session();
    for k in 0..WRITERS as u64 * PER_WRITER {
        assert_eq!(s.get(k).unwrap().unwrap(), record_for(k), "key {k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn range_merges_across_partitions_in_key_order() {
    let dir = tmpdir("range");
    let db = SksDb::open(&dir, config(8, 1024)).unwrap();
    let s = db.session();
    let mut model = BTreeMap::new();
    // Scattered inserts so every partition holds some of the range.
    for k in (0..1000u64).step_by(3) {
        s.insert(k, record_for(k)).unwrap();
        model.insert(k, record_for(k));
    }
    let got = s.range(100, 700).unwrap();
    let want: Vec<(u64, Vec<u8>)> = model
        .range(100..=700)
        .map(|(&k, v)| (k, v.clone()))
        .collect();
    assert_eq!(got, want, "merged range must be in key order and complete");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn group_commit_amortises_fsyncs_across_sessions() {
    let dir = tmpdir("group");
    let cfg = config(4, 2048).sync(SyncPolicy::EveryN(16));
    let db = SksDb::open(&dir, cfg).unwrap();
    let s = db.session();
    for k in 0..320u64 {
        s.insert(k, record_for(k)).unwrap();
    }
    let snap = db.snapshot();
    assert_eq!(snap.wal_appends, 320);
    assert_eq!(
        snap.wal_fsyncs,
        320 / 16 + 1,
        "EveryN(16) group commit, +1 durable key-check sentinel"
    );
    // fsync-per-commit for comparison.
    let dir2 = tmpdir("group_always");
    let db2 = SksDb::open(&dir2, config(4, 2048).sync(SyncPolicy::Always)).unwrap();
    let s2 = db2.session();
    for k in 0..320u64 {
        s2.insert(k, record_for(k)).unwrap();
    }
    assert_eq!(db2.snapshot().wal_fsyncs, 320 + 1);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn out_of_domain_key_rejected_before_logging() {
    let dir = tmpdir("domain");
    let db = SksDb::open(&dir, config(4, 128)).unwrap();
    let s = db.session();
    let err = s.insert(u64::MAX, b"way out".to_vec()).unwrap_err();
    assert!(format!("{err}").contains("domain"), "got: {err}");
    assert_eq!(
        db.snapshot().wal_appends,
        0,
        "doomed op must not reach the WAL"
    );
    assert_eq!(db.len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_recovers_tail_only_after_checkpoint() {
    let dir = tmpdir("file_tail");
    const N: u64 = 300;
    const TAIL: u64 = 40;
    {
        let db = SksDb::open(&dir, file_config(&dir, 4, 4096)).unwrap();
        assert_eq!(
            db.recovery_report().path,
            RecoveryPath::ColdStart,
            "fresh database"
        );
        let s = db.session();
        for k in 0..N {
            s.insert(k, record_for(k)).unwrap();
        }
        for k in (0..N).step_by(5) {
            s.delete(k).unwrap();
        }
        // Checkpoint flushes the tree pages and truncates the WAL.
        db.checkpoint().unwrap();
        // Post-checkpoint tail: some fresh keys, one overwrite, one delete.
        for k in N..N + TAIL {
            s.insert(k, record_for(k)).unwrap();
        }
        s.insert(1, b"overwritten-after-checkpoint".to_vec())
            .unwrap();
        s.delete(2).unwrap();
        // Dropped without flush: the tree pages on disk are still the
        // checkpoint image; the tail lives only in the WAL.
    }
    let total_writes = N + N / 5 + TAIL + 2;
    {
        let db = SksDb::open(&dir, file_config(&dir, 4, 4096)).unwrap();
        let report = db.recovery_report();
        assert_eq!(report.path, RecoveryPath::TailReplay);
        assert_eq!(
            report.records_replayed,
            TAIL + 2,
            "only the post-checkpoint tail is replayed"
        );
        assert!(
            report.records_replayed < total_writes,
            "tail replay must be cheaper than the full history"
        );
        assert_eq!(report.records_skipped, 0);
        db.validate().unwrap();
        let s = db.session();
        assert_eq!(s.get(1).unwrap().unwrap(), b"overwritten-after-checkpoint");
        assert_eq!(s.get(2).unwrap(), None, "tail delete applied");
        for k in 3..N {
            let got = s.get(k).unwrap();
            if k % 5 == 0 {
                assert_eq!(got, None, "pre-checkpoint delete {k}");
            } else {
                assert_eq!(got.unwrap(), record_for(k), "checkpointed key {k}");
            }
        }
        for k in N..N + TAIL {
            assert_eq!(s.get(k).unwrap().unwrap(), record_for(k), "tail key {k}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_backend_reports_full_replay() {
    let dir = tmpdir("memory_path");
    {
        let db = SksDb::open(&dir, memory_config(2, 256)).unwrap();
        assert_eq!(db.recovery_report().path, RecoveryPath::ColdStart);
        db.session().insert(1, b"x".to_vec()).unwrap();
    }
    let db = SksDb::open(&dir, memory_config(2, 256)).unwrap();
    assert_eq!(db.recovery_report().path, RecoveryPath::FullReplay);
    std::fs::remove_dir_all(&dir).ok();
}

/// On the memory backend the log is the database: no checkpoint cuts it,
/// nothing else is ever written beside it, and a kill + reopen — under a
/// different partition count, even — replays the whole history.
#[test]
fn memory_backend_log_is_the_database() {
    let dir = tmpdir("memory_log_is_db");
    let only_the_log = |when: &str| {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(
                !name.starts_with("snap-") && !name.ends_with(".tmp"),
                "{when}: {name} appeared beside the log"
            );
        }
    };
    let mut model = BTreeMap::new();
    let mut appended = 0u64;
    {
        let db = SksDb::open(&dir, memory_config(3, 1024).sync(SyncPolicy::Always)).unwrap();
        for round in 0..3u64 {
            for k in round * 100..round * 100 + 100 {
                db.insert(k, record_for(k)).unwrap();
                model.insert(k, record_for(k));
                appended += 1;
            }
            for k in (round..round * 100 + 100).step_by(7) {
                db.insert(k, record_for(k + round)).unwrap();
                model.insert(k, record_for(k + round));
                appended += 1;
            }
            for k in (round..round * 100 + 100).step_by(11) {
                db.delete(k).unwrap();
                model.remove(&k);
                appended += 1;
            }
            let before = db.wal_len_bytes();
            db.checkpoint().unwrap();
            assert_eq!(db.wal_len_bytes(), before, "round {round}: log was cut");
            only_the_log(&format!("checkpoint {round}"));
        }
        // The kill: drop without flush (Always made every commit durable).
    }
    let db = SksDb::open(&dir, memory_config(5, 1024)).unwrap();
    let report = db.recovery_report();
    assert_eq!(report.path, RecoveryPath::FullReplay);
    assert_eq!(report.records_replayed, appended, "the whole history");
    assert_eq!(report.records_skipped, 0);
    assert_eq!(db.len(), model.len() as u64);
    for k in 0..300u64 {
        assert_eq!(db.get(k).unwrap(), model.get(&k).cloned(), "key {k}");
    }
    db.validate().unwrap();
    only_the_log("reopen");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill after a checkpoint — with post-checkpoint inserts, overwrites
/// *and deletions of checkpointed keys* in the tail — must converge on
/// exactly the pre-kill state on either backend: the tail's deletes
/// override the checkpointed state (the resurrection hazard), and a second
/// checkpoint cycle over the recovered database survives another reopen.
#[test]
fn tail_overrides_checkpointed_state_after_kill() {
    let dir = tmpdir("tail_overrides");
    let make = || config(3, 4096).sync(SyncPolicy::Always);
    let mut model = BTreeMap::new();
    {
        let db = SksDb::open(&dir, make()).unwrap();
        for k in 0..200u64 {
            db.insert(k, record_for(k)).unwrap();
            model.insert(k, record_for(k));
        }
        for k in (0..200u64).step_by(3) {
            db.delete(k).unwrap();
            model.remove(&k);
        }
        db.checkpoint().unwrap();
        // Post-checkpoint churn that dies with the process: new keys,
        // overwrites of checkpointed keys, and deletes of checkpointed
        // keys — the tail must win for all three.
        for k in 200..260u64 {
            db.insert(k, record_for(k)).unwrap();
            model.insert(k, record_for(k));
        }
        for k in (1..200u64).step_by(10) {
            db.insert(k, record_for(k + 7)).unwrap();
            model.insert(k, record_for(k + 7));
        }
        for k in (2..200u64).step_by(7) {
            if db.delete(k).unwrap().is_some() {
                model.remove(&k);
            } else {
                assert!(!model.contains_key(&k));
            }
        }
        // The kill: drop without checkpoint or flush (SyncPolicy::Always
        // already made every commit durable).
    }
    let db = SksDb::open(&dir, make()).unwrap();
    let want = if env_is_file_backend() {
        RecoveryPath::TailReplay
    } else {
        RecoveryPath::FullReplay
    };
    assert_eq!(db.recovery_report().path, want);
    assert_eq!(db.len(), model.len() as u64);
    for (k, v) in &model {
        assert_eq!(db.get(*k).unwrap().as_ref(), Some(v), "key {k}");
    }
    for k in (0..200u64).step_by(3) {
        if !model.contains_key(&k) {
            assert_eq!(db.get(k).unwrap(), None, "key {k} resurrected");
        }
    }
    db.validate().unwrap();
    // The recovered database checkpoints and survives another reopen.
    db.checkpoint().unwrap();
    drop(db);
    let db = SksDb::open(&dir, make()).unwrap();
    assert_eq!(db.len(), model.len() as u64);
    for (k, v) in model.iter().step_by(7) {
        assert_eq!(db.get(*k).unwrap().as_ref(), Some(v), "key {k}");
    }
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory an older engine's memory backend checkpointed holds
/// `snap-NNN.sks` files and a log cut down to the tail. Replaying that
/// log alone would silently drop everything older than the cut, so any
/// `snap-*` entry refuses the open — on both backends, before the log or
/// anything else in the directory is touched.
#[test]
fn directory_with_legacy_snapshot_is_refused() {
    let dir = tmpdir("legacy_snap");
    {
        let db = SksDb::open(&dir, memory_config(2, 256)).unwrap();
        for k in 0..40u64 {
            db.insert(k, record_for(k)).unwrap();
        }
    }
    let wal_path = dir.join("wal.sks");
    let log = std::fs::read(&wal_path).unwrap();
    let snap = dir.join("snap-000.sks");
    std::fs::write(&snap, b"").unwrap();
    for cfg in [memory_config(2, 256), file_config(&dir, 2, 256)] {
        let err = SksDb::open(&dir, cfg).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, EngineError::Config(_)) && err.to_string().contains("snap-000.sks"),
            "the refusal must name its cause, got: {err}"
        );
        assert_eq!(std::fs::read(&wal_path).unwrap(), log, "log was touched");
        assert!(!dir.join("part-000").exists(), "stores were created");
    }
    // Nothing was damaged: without the stray file the log replays whole.
    std::fs::remove_file(&snap).unwrap();
    let db = SksDb::open(&dir, memory_config(2, 256)).unwrap();
    assert_eq!(db.recovery_report().records_replayed, 40);
    assert_eq!(db.get(7).unwrap().unwrap(), record_for(7));
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replaying_full_log_over_flushed_pages_converges() {
    // A crash *between* "pages flushed" and "WAL truncated" (or a
    // graceful flush with no checkpoint) leaves new pages + the full old
    // log. Re-applying the whole history over its own effects must
    // converge to the same state.
    let dir = tmpdir("file_converge");
    const N: u64 = 150;
    {
        let db = SksDb::open(&dir, file_config(&dir, 2, 2048)).unwrap();
        let s = db.session();
        for k in 0..N {
            s.insert(k, record_for(k)).unwrap();
        }
        for k in (0..N).step_by(3) {
            s.delete(k).unwrap();
        }
        // Pages durable, WAL *not* truncated.
        db.flush_pages().unwrap();
        for k in 0..20u64 {
            s.insert(1000 + k, record_for(1000 + k)).unwrap();
        }
    }
    let db = SksDb::open(&dir, file_config(&dir, 2, 2048)).unwrap();
    let report = db.recovery_report();
    assert_eq!(report.path, RecoveryPath::TailReplay);
    assert_eq!(
        report.records_replayed,
        N + N.div_ceil(3) + 20,
        "the whole (untruncated) log is re-applied"
    );
    db.validate().unwrap();
    let s = db.session();
    assert_eq!(db.len(), N - N.div_ceil(3) + 20);
    for k in 0..N {
        let got = s.get(k).unwrap();
        if k % 3 == 0 {
            assert_eq!(got, None, "deleted key {k}");
        } else {
            assert_eq!(got.unwrap(), record_for(k), "key {k}");
        }
    }
    for k in 0..20u64 {
        assert_eq!(s.get(1000 + k).unwrap().unwrap(), record_for(1000 + k));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_writes_no_plaintext_to_any_disk_file() {
    let dir = tmpdir("file_sealed");
    // Keys with distinctive big-endian byte patterns inside the domain.
    let secret_keys: Vec<u64> = vec![0xBEEF, 0xCAFE, 0xF00D, 0xFACE, 0xD00D, 0xB00B];
    {
        let db = SksDb::open(&dir, file_config(&dir, 2, 70_000)).unwrap();
        let s = db.session();
        for (i, &k) in secret_keys.iter().enumerate() {
            s.insert(k, format!("ENGINE-TOP-SECRET-RECORD-{i:04}").into_bytes())
                .unwrap();
        }
        // Both halves of the lifecycle write to disk: checkpointed pages
        // and a fresh WAL tail.
        db.checkpoint().unwrap();
        for (i, &k) in secret_keys.iter().enumerate() {
            s.insert(k, format!("ENGINE-TOP-SECRET-AGAIN-{i:04}").into_bytes())
                .unwrap();
        }
    }
    let mut scanned = 0usize;
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            scanned += 1;
            let raw = std::fs::read(&path).unwrap();
            assert!(
                !raw.windows(17).any(|w| w == &b"ENGINE-TOP-SECRET"[..]),
                "plaintext record bytes leaked into {}",
                path.display()
            );
            for &k in &secret_keys {
                let needle = k.to_be_bytes();
                assert!(
                    !raw.windows(8).any(|w| w == needle),
                    "plaintext key {k:#x} leaked into {}",
                    path.display()
                );
            }
        }
    }
    assert!(
        scanned >= 7,
        "expected wal + 2 partitions x (nodes, data, manifest), scanned {scanned}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_wrong_key_fails_closed() {
    let dir = tmpdir("file_wrong_key");
    {
        let db = SksDb::open(&dir, file_config(&dir, 2, 1024)).unwrap();
        db.session().insert(3, b"sealed".to_vec()).unwrap();
        db.checkpoint().unwrap();
    }
    let mut bad = file_config(&dir, 2, 1024);
    bad.scheme.data_key ^= 0x100;
    let err = SksDb::open(&dir, bad).map(|_| ()).unwrap_err();
    assert!(
        format!("{err}").contains("key mismatch"),
        "wrong key must fail closed before touching pages, got: {err}"
    );
    // Nothing was damaged: the right key still opens and reads.
    let db = SksDb::open(&dir, file_config(&dir, 2, 1024)).unwrap();
    assert_eq!(db.session().get(3).unwrap().unwrap(), b"sealed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_survives_checkpoint_cycles_with_churn() {
    let dir = tmpdir("file_churn");
    let mut model = BTreeMap::new();
    {
        let db = SksDb::open(&dir, file_config(&dir, 4, 2048)).unwrap();
        let s = db.session();
        for round in 0..4u64 {
            for k in 0..250u64 {
                let v = format!("round-{round}-key-{k}").into_bytes();
                s.insert(k, v.clone()).unwrap();
                model.insert(k, v);
            }
            for k in (round..250u64).step_by(4) {
                s.delete(k).unwrap();
                model.remove(&k);
            }
            db.checkpoint().unwrap();
        }
        for k in 500..540u64 {
            let v = record_for(k);
            s.insert(k, v.clone()).unwrap();
            model.insert(k, v);
        }
    }
    let db = SksDb::open(&dir, file_config(&dir, 4, 2048)).unwrap();
    assert_eq!(db.recovery_report().path, RecoveryPath::TailReplay);
    assert_eq!(
        db.recovery_report().records_replayed,
        40,
        "only the last round's tail"
    );
    db.validate().unwrap();
    assert_eq!(db.len(), model.len() as u64);
    let s = db.session();
    for (&k, v) in &model {
        assert_eq!(s.get(k).unwrap().as_ref(), Some(v), "key {k}");
    }
    let got = s.range(0, 2048).unwrap();
    let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(&k, v)| (k, v.clone())).collect();
    assert_eq!(got, want, "full range matches the model after recovery");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_refuses_incompatible_layouts() {
    let dir = tmpdir("file_layout_guard");
    {
        let db = SksDb::open(&dir, file_config(&dir, 4, 1024)).unwrap();
        let s = db.session();
        for k in 0..100u64 {
            s.insert(k, record_for(k)).unwrap();
        }
        db.checkpoint().unwrap(); // WAL now empty: the pages are the data
    }
    // Different partition count: the on-disk routing no longer matches.
    let err = SksDb::open(&dir, file_config(&dir, 2, 1024))
        .map(|_| ())
        .unwrap_err();
    assert!(format!("{err}").contains("partitions"), "got: {err}");
    let err = SksDb::open(&dir, file_config(&dir, 8, 1024))
        .map(|_| ())
        .unwrap_err();
    assert!(format!("{err}").contains("partitions"), "got: {err}");
    // Memory backend over a file-backed database: would ignore the pages.
    let err = SksDb::open(&dir, memory_config(4, 1024))
        .map(|_| ())
        .unwrap_err();
    assert!(format!("{err}").contains("file backend"), "got: {err}");
    // A damaged partition set must not be silently truncated and rebuilt.
    std::fs::remove_dir_all(dir.join("part-002")).unwrap();
    let err = SksDb::open(&dir, file_config(&dir, 4, 1024))
        .map(|_| ())
        .unwrap_err();
    assert!(
        format!("{err}").contains("missing or damaged"),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_database_upgrades_to_file_backend() {
    // A memory-backend database carries its whole state in the WAL, so
    // reopening the same directory with the file backend is a lossless
    // migration: full replay into fresh on-disk trees, tail replay after.
    let dir = tmpdir("upgrade");
    {
        let db = SksDb::open(&dir, memory_config(4, 512)).unwrap();
        let s = db.session();
        for k in 0..200u64 {
            s.insert(k, record_for(k)).unwrap();
        }
        // A checkpoint before the upgrade changes nothing about that: the
        // memory backend's log is never cut, so it still holds all 200.
        db.checkpoint().unwrap();
    }
    {
        let db = SksDb::open(&dir, file_config(&dir, 4, 512)).unwrap();
        assert_eq!(db.recovery_report().path, RecoveryPath::FullReplay);
        assert_eq!(db.recovery_report().records_replayed, 200);
        assert_eq!(db.len(), 200);
        db.checkpoint().unwrap();
    }
    {
        let db = SksDb::open(&dir, file_config(&dir, 4, 512)).unwrap();
        assert_eq!(db.recovery_report().path, RecoveryPath::TailReplay);
        assert_eq!(db.len(), 200);
        let s = db.session();
        for k in 0..200u64 {
            assert_eq!(s.get(k).unwrap().unwrap(), record_for(k), "key {k}");
        }
        // And the migrated database is now locked to the file backend.
        drop(s);
    }
    let err = SksDb::open(&dir, memory_config(4, 512))
        .map(|_| ())
        .unwrap_err();
    assert!(format!("{err}").contains("file backend"), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_backend_still_reopens_with_different_partition_count() {
    // The WAL replays per key through the router, so the memory backend
    // keeps its layout independence.
    let dir = tmpdir("memory_repartition");
    {
        let db = SksDb::open(&dir, memory_config(2, 512)).unwrap();
        let s = db.session();
        for k in 0..150u64 {
            s.insert(k, record_for(k)).unwrap();
        }
    }
    let db = SksDb::open(&dir, memory_config(6, 512)).unwrap();
    assert_eq!(db.len(), 150);
    db.validate().unwrap();
    let s = db.session();
    for k in 0..150u64 {
        assert_eq!(s.get(k).unwrap().unwrap(), record_for(k), "key {k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_engine_on_same_directory_fails_closed() {
    // Two live engines on one directory would checkpoint over each
    // other's WAL and page stores by path; the directory flock turns
    // that into a clean open-time error — and releases with the holder,
    // so the directory is never wedged.
    let dir = tmpdir("dir_lock");
    let db = SksDb::open(&dir, config(2, 512)).unwrap();
    db.session().insert(1, b"one".to_vec()).unwrap();
    let err = SksDb::open(&dir, config(2, 512)).unwrap_err();
    assert!(
        err.to_string().contains("already open"),
        "second open must fail with the lock error, got: {err}"
    );
    // The failed open must not have damaged the live engine.
    assert_eq!(db.get(1).unwrap().unwrap(), b"one");
    drop(db);
    // Lock released with the holder: reopen works and data survives.
    let db = SksDb::open(&dir, config(2, 512)).unwrap();
    assert_eq!(db.get(1).unwrap().unwrap(), b"one");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_runs_record_compaction_and_reclaims_space() {
    let dir = tmpdir("ckpt_compaction");
    const N: u64 = 400;
    // ~1 KiB records: a 4 KiB data page holds only a few, so the set
    // spans many blocks and delete churn leaves real garbage behind.
    let record_for = |k: u64| {
        let mut v = format!("big-record-{k:06}-").into_bytes();
        v.resize(1000, 0x5A);
        v
    };
    {
        let cfg = file_config(&dir, 2, N + 64);
        let db = SksDb::open(&dir, cfg).unwrap();
        let s = db.session();
        for k in 0..N {
            s.insert(k, record_for(k)).unwrap();
        }
        db.checkpoint().unwrap();
        // Delete-heavy churn leaves tombstoned data blocks behind.
        for k in (0..N).filter(|k| k % 4 != 0) {
            s.delete(k).unwrap();
        }
        let used_before: u32 = db
            .data_block_usage_per_partition()
            .iter()
            .map(|&(total, free)| total - free)
            .sum();
        // Checkpoints run a fixed compaction budget per partition;
        // repeat until the garbage is gone.
        let mut freed = 0u64;
        for _ in 0..32 {
            db.checkpoint().unwrap();
            let r = db.last_compaction_report();
            assert_eq!(r.orphaned_records, 0);
            if r.freed_blocks == 0 && freed > 0 {
                break;
            }
            freed += r.freed_blocks;
        }
        assert!(
            freed > 0,
            "checkpoint-integrated compaction reclaimed blocks"
        );
        let used_after: u32 = db
            .data_block_usage_per_partition()
            .iter()
            .map(|&(total, free)| total - free)
            .sum();
        assert!(
            used_after < used_before,
            "live data-block footprint must shrink ({used_before} -> {used_after})"
        );
        db.validate().unwrap();
    }
    // The compacted image recovers: every live record survives, every
    // deleted one stays dead.
    let db = SksDb::open(&dir, file_config(&dir, 2, N + 64)).unwrap();
    db.validate().unwrap();
    let s = db.session();
    for k in 0..N {
        let got = s.get(k).unwrap();
        if k % 4 == 0 {
            assert_eq!(got.unwrap(), record_for(k), "live key {k}");
        } else {
            assert_eq!(got, None, "deleted key {k}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manual_compact_reclaims_between_checkpoints() {
    let dir = tmpdir("manual_compact");
    let record_for = |k: u64| {
        let mut v = format!("manual-{k:06}-").into_bytes();
        v.resize(1000, 0x3C);
        v
    };
    let db = SksDb::open(&dir, config(2, 1024)).unwrap();
    let s = db.session();
    for k in 0..300u64 {
        s.insert(k, record_for(k)).unwrap();
    }
    for k in 0..300u64 {
        if k % 2 == 1 {
            s.delete(k).unwrap();
        }
    }
    let mut total = sks_core::CompactionReport::default();
    loop {
        let r = db.compact(64).unwrap();
        if r.freed_blocks == 0 {
            break;
        }
        total.absorb(r);
    }
    assert!(total.freed_blocks > 0);
    assert_eq!(total.orphaned_records, 0);
    db.validate().unwrap();
    for k in 0..300u64 {
        let got = s.get(k).unwrap();
        if k % 2 == 0 {
            assert_eq!(got.unwrap(), record_for(k), "key {k}");
        } else {
            assert_eq!(got, None, "key {k}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_spreads_keys_across_partitions() {
    let dir = tmpdir("spread");
    let db = SksDb::open(&dir, config(8, 4096)).unwrap();
    let s = db.session();
    for k in 0..2000u64 {
        s.insert(k, vec![1]).unwrap();
    }
    // With 2000 keys over 8 hash partitions, a partition holding fewer
    // than 100 or more than 450 keys would mean the router is broken.
    let lens = db.partition_lens();
    assert_eq!(lens.len(), 8);
    assert_eq!(lens.iter().sum::<u64>(), 2000);
    for (i, &n) in lens.iter().enumerate() {
        assert!(
            (100..=450).contains(&n),
            "partition {i} holds {n} of 2000 keys"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
