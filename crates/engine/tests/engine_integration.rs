//! End-to-end engine tests: durability without checkpoints, torn-tail
//! recovery, checkpoint compaction, and concurrent sessions over a
//! partitioned tree.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use sks_core::{Scheme, SchemeConfig};
use sks_engine::{EngineConfig, EngineError, RecoveryPath, SksDb, Wal};
use sks_storage::{OpCounters, SyncPolicy};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_engine_it_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The engine keeps each partition's page stores under the database
/// directory, behind its fixed buffer pool.
fn config(partitions: usize, capacity: u64) -> EngineConfig {
    EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, capacity).partitions(partitions))
}

fn record_for(k: u64) -> Vec<u8> {
    format!("record-{k:06}").into_bytes()
}

/// Builds the layout an older engine's log-only design left: a log of
/// `n` single-record commits under `cfg`'s log key that is the whole
/// history, and an `engine.sks` (magic, version 1, partition count,
/// backend byte 0) that records no stores.
fn build_log_only_dir(dir: &std::path::Path, cfg: &EngineConfig, partitions: u32, n: u64) {
    std::fs::create_dir_all(dir).unwrap();
    let mut wal = Wal::create(
        dir.join("wal.sks"),
        4096,
        cfg.wal_key(),
        SyncPolicy::Always,
        OpCounters::new(),
    )
    .unwrap();
    for k in 0..n {
        let value = record_for(k);
        wal.append_group([(k, Some(&value[..]))]).unwrap();
        wal.commit().unwrap();
    }
    let mut meta = b"SKSENGN1".to_vec();
    meta.extend_from_slice(&1u32.to_be_bytes());
    meta.extend_from_slice(&partitions.to_be_bytes());
    meta.push(0);
    std::fs::write(dir.join("engine.sks"), meta).unwrap();
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
    // stream starts after the log file's 12-byte header, and cutting 20
    // bytes before its logical end lands inside the last record (each
    // record here is 46 bytes). No checkpoint ran, so the log is its
    // first segment.
    let wal_path = dir.join("wal-1.sks");
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    f.set_len(12 + logical_len - 20).unwrap();
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
        // Durability lives in the pages: the cut leaves an empty tail.
        assert!(
            after < before / 4,
            "checkpoint must compact ({before} -> {after} bytes)"
        );
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
        320 / 16 + 2,
        "EveryN(16) group commit, +2 for the first segment's durable header \
         and key-check sentinel"
    );
    // fsync-per-commit for comparison.
    let dir2 = tmpdir("group_always");
    let db2 = SksDb::open(&dir2, config(4, 2048).sync(SyncPolicy::Always)).unwrap();
    let s2 = db2.session();
    for k in 0..320u64 {
        s2.insert(k, record_for(k)).unwrap();
    }
    assert_eq!(db2.snapshot().wal_fsyncs, 320 + 2);
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
        let db = SksDb::open(&dir, config(4, 4096)).unwrap();
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
        let db = SksDb::open(&dir, config(4, 4096)).unwrap();
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

/// A kill after a checkpoint — with post-checkpoint inserts, overwrites
/// *and deletions of checkpointed keys* in the tail — must converge on
/// exactly the pre-kill state: the tail's deletes override the
/// checkpointed state (the resurrection hazard), and a second checkpoint
/// cycle over the recovered database survives another reopen.
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
    assert_eq!(db.recovery_report().path, RecoveryPath::TailReplay);
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

/// A checkpoint with no write racing it commits every partition covering
/// the whole log — the graceful shutdown — so a reopen after it replays
/// exactly the writes logged later.
#[test]
fn a_checkpoint_leaves_only_later_writes_to_replay() {
    let dir = tmpdir("file_converge");
    const N: u64 = 150;
    {
        let db = SksDb::open(&dir, config(2, 2048)).unwrap();
        let s = db.session();
        for k in 0..N {
            s.insert(k, record_for(k)).unwrap();
        }
        for k in (0..N).step_by(3) {
            s.delete(k).unwrap();
        }
        db.checkpoint().unwrap();
        for k in 0..20u64 {
            s.insert(1000 + k, record_for(1000 + k)).unwrap();
        }
    }
    let db = SksDb::open(&dir, config(2, 2048)).unwrap();
    let report = db.recovery_report();
    assert_eq!(report.path, RecoveryPath::TailReplay);
    assert_eq!(report.records_replayed, 20, "only the later writes replay");
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
        let db = SksDb::open(&dir, config(2, 70_000)).unwrap();
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
        let db = SksDb::open(&dir, config(2, 1024)).unwrap();
        db.session().insert(3, b"sealed".to_vec()).unwrap();
        db.checkpoint().unwrap();
    }
    let mut bad = config(2, 1024);
    bad.scheme.data_key ^= 0x100;
    let err = SksDb::open(&dir, bad).map(|_| ()).unwrap_err();
    assert!(
        format!("{err}").contains("key mismatch"),
        "wrong key must fail closed before touching pages, got: {err}"
    );
    // Nothing was damaged: the right key still opens and reads.
    let db = SksDb::open(&dir, config(2, 1024)).unwrap();
    assert_eq!(db.session().get(3).unwrap().unwrap(), b"sealed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backend_survives_checkpoint_cycles_with_churn() {
    let dir = tmpdir("file_churn");
    let mut model = BTreeMap::new();
    {
        let db = SksDb::open(&dir, config(4, 2048)).unwrap();
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
    let db = SksDb::open(&dir, config(4, 2048)).unwrap();
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
        let db = SksDb::open(&dir, config(4, 1024)).unwrap();
        let s = db.session();
        for k in 0..100u64 {
            s.insert(k, record_for(k)).unwrap();
        }
        db.checkpoint().unwrap(); // WAL now empty: the pages are the data
    }
    // Different partition count: the on-disk routing no longer matches.
    let err = SksDb::open(&dir, config(2, 1024)).map(|_| ()).unwrap_err();
    assert!(format!("{err}").contains("partitions"), "got: {err}");
    let err = SksDb::open(&dir, config(8, 1024)).map(|_| ()).unwrap_err();
    assert!(format!("{err}").contains("partitions"), "got: {err}");
    // A damaged partition set must not be silently truncated and rebuilt.
    std::fs::remove_dir_all(dir.join("part-002")).unwrap();
    let err = SksDb::open(&dir, config(4, 1024)).map(|_| ()).unwrap_err();
    assert!(
        format!("{err}").contains("missing or damaged"),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An older engine's log-only directory (backend byte 0 in
/// `engine.sks`) is refused with a config error before the open creates
/// anything: no lock file, no partition stores.
#[test]
fn a_log_only_directory_is_refused_before_anything_is_created() {
    let dir = tmpdir("log_only");
    build_log_only_dir(&dir, &config(4, 512), 2, 20);
    let listing = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let before = listing(&dir);
    assert_eq!(before, ["engine.sks", "wal.sks"]);
    let err = SksDb::open(&dir, config(2, 512)).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, EngineError::Config(_)) && err.to_string().contains("log-only"),
        "got: {err}"
    );
    assert_eq!(listing(&dir), before, "the refused open created files");
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
        let cfg = config(2, N + 64);
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
    let db = SksDb::open(&dir, config(2, N + 64)).unwrap();
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
