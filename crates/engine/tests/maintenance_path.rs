//! Change-proportional maintenance end to end: incremental checkpoints
//! must stream only dirty partitions — never moving what the paper's
//! counters say — and the snapshot-plus-tail replay the memory backend
//! now recovers through must converge on exactly the pre-kill state,
//! deletions included.

use sks_core::{Scheme, SchemeConfig};
use sks_engine::{EngineConfig, RecoveryPath, SksDb};
use sks_storage::{OpSnapshot, SyncPolicy};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_maint_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn rec(k: u64) -> Vec<u8> {
    format!("maintenance-record-{k:05}").into_bytes()
}

/// The contract: run the same workload with incremental checkpoints on,
/// then off, for every measured scheme. The second checkpoint over an
/// unchanged database must stream zero records in incremental mode (and
/// the full live set in rewrite mode). And the post-maintenance read
/// phase must cost identically in every logical counter, physical
/// telemetry masked.
#[test]
fn maintenance_preserves_logical_counters_exactly() {
    for scheme in Scheme::MEASURED {
        let run = |maintained: bool| -> (u64, u64, OpSnapshot) {
            let name = format!("pin_{}_{}", scheme.name(), maintained);
            let dir = tmpdir(&name);
            let cfg = SchemeConfig::with_capacity(scheme, 4096).partitions(2);
            let db = SksDb::open(
                &dir,
                EngineConfig::new(cfg)
                    .sync(SyncPolicy::EveryN(4))
                    .incremental_checkpoints(maintained),
            )
            .unwrap();
            // Write phase (keys start at 1: some disguise domains
            // exclude 0).
            for k in 1..200u64 {
                db.insert(k, rec(k)).unwrap();
            }
            db.insert_batch((200..260u64).map(|k| (k, rec(k))).collect())
                .unwrap();
            for k in (1..200u64).step_by(5) {
                db.insert(k, rec(k + 1)).unwrap();
            }
            for k in (1..200u64).step_by(9) {
                db.delete(k).unwrap();
            }
            db.flush().unwrap();
            // First checkpoint: every partition is dirty in both modes.
            let ck1 = db.checkpoint().unwrap();
            // Read-only interlude, then a second checkpoint over the
            // unchanged database.
            for k in (1..260u64).step_by(3) {
                let _ = db.get(k).unwrap();
            }
            let ck2 = db.checkpoint().unwrap();
            // Measured read phase after all maintenance ran.
            let before = db.snapshot();
            for _ in 0..3 {
                for k in (1..260u64).step_by(5) {
                    let _ = db.get(k).unwrap();
                }
                assert!(!db.range(40, 120).unwrap().is_empty());
            }
            let read_delta = db.snapshot().delta(&before);
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
            (ck1, ck2, read_delta)
        };
        let (ck1_on, ck2_on, r_on) = run(true);
        let (ck1_off, ck2_off, r_off) = run(false);

        // Both modes stream everything the first time…
        assert!(ck1_on > 0, "{}", scheme.name());
        assert_eq!(ck1_on, ck1_off, "{}", scheme.name());
        // …then incremental mode streams change-proportionally: zero for
        // an unchanged database, while rewrite mode pays the full set
        // again.
        assert_eq!(
            ck2_on,
            0,
            "{}: a clean checkpoint must stream nothing",
            scheme.name()
        );
        assert_eq!(
            ck2_off,
            ck1_off,
            "{}: rewrite mode re-streams the live set",
            scheme.name()
        );

        // Post-maintenance reads: every logical counter identical, only
        // cache/IO telemetry (the skipped compaction's footprint) masked.
        let mut on_masked = r_on;
        on_masked.block_reads = r_off.block_reads;
        on_masked.block_writes = r_off.block_writes;
        on_masked.cache_hits = r_off.cache_hits;
        on_masked.cache_misses = r_off.cache_misses;
        on_masked.cache_evicts = r_off.cache_evicts;
        on_masked.node_cache_hits = r_off.node_cache_hits;
        on_masked.node_cache_misses = r_off.node_cache_misses;
        on_masked.record_cache_hits = r_off.record_cache_hits;
        on_masked.record_cache_misses = r_off.record_cache_misses;
        assert_eq!(
            on_masked,
            r_off,
            "{}: maintenance changed the logical cost model",
            scheme.name()
        );
    }
}

/// The memory backend's recovery image is now snapshot files plus the
/// WAL tail. A kill after a checkpoint — with post-checkpoint inserts
/// *and deletions of snapshotted keys* in the tail — must converge on
/// exactly the pre-kill state: the tail's deletes override the snapshot
/// (the resurrection hazard), and a second checkpoint cycle re-snaps
/// cleanly.
#[test]
fn snapshots_plus_tail_replay_converges_after_kill() {
    let dir = tmpdir("snap_tail");
    let config = || {
        let scheme = SchemeConfig::with_capacity(Scheme::Oval, 4096).partitions(3);
        EngineConfig::new(scheme).sync(SyncPolicy::Always)
    };
    let mut model = std::collections::BTreeMap::new();
    {
        let db = SksDb::open(&dir, config()).unwrap();
        for k in 0..200u64 {
            db.insert(k, rec(k)).unwrap();
            model.insert(k, rec(k));
        }
        for k in (0..200u64).step_by(3) {
            db.delete(k).unwrap();
            model.remove(&k);
        }
        assert!(db.checkpoint().unwrap() > 0, "the cut snapshots live state");
        // Post-checkpoint churn that dies with the process: new keys,
        // overwrites of snapshotted keys, and deletes of snapshotted
        // keys — the tail must win over the snapshot for all three.
        for k in 200..260u64 {
            db.insert(k, rec(k)).unwrap();
            model.insert(k, rec(k));
        }
        for k in (1..200u64).step_by(10) {
            db.insert(k, rec(k + 7)).unwrap();
            model.insert(k, rec(k + 7));
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
    let db = SksDb::open(&dir, config()).unwrap();
    assert_eq!(db.recovery_report().path, RecoveryPath::FullReplay);
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
    let db = SksDb::open(&dir, config()).unwrap();
    assert_eq!(db.len(), model.len() as u64);
    for (k, v) in model.iter().step_by(7) {
        assert_eq!(db.get(*k).unwrap().as_ref(), Some(v), "key {k}");
    }
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
