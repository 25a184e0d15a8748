//! Crash probes over a fault-injecting WAL device: a [`FailStore`]
//! wrapped around the log's [`LogFile`] tears a commit-record write
//! mid-group-commit, and recovery must cut the torn tail *and* name it
//! in the flight-recorder dump that travels with the [`RecoveryReport`].

use sks_core::{Scheme, SchemeConfig};
use sks_engine::{EngineConfig, EventKind, RecoveryPath, SksDb, Wal};
use sks_storage::{FailMode, FailPlan, FailStore, LogFile, OpCounters, SyncPolicy};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_wal_probe_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn torn_commit_record_mid_group_commit_is_scrubbed_and_named() {
    let dir = tmpdir("torn_commit");
    let config = EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 4096))
        .sync(SyncPolicy::EveryN(8));
    let wal_path = dir.join("wal-1.sks");

    // Build the engine's WAL over a fault-injecting device, with the
    // exact key the engine will later use to recover it.
    const PIECE: usize = 512;
    let counters = OpCounters::new();
    let file = LogFile::create(&wal_path, counters.clone()).unwrap();
    let (fail, plan) = FailStore::new(file);
    let mut wal = Wal::create_on_device(
        fail,
        PIECE,
        config.wal_key(),
        SyncPolicy::EveryN(8),
        counters,
    )
    .unwrap();

    // A short committed prefix, durably flushed.
    for k in 0..3u64 {
        wal.append_insert(k, format!("v-{k}").as_bytes()).unwrap();
        wal.commit().unwrap();
    }
    wal.flush().unwrap();
    let intact = wal.len_bytes();

    // Arm the device: the very next write — the group commit's one write
    // of the doomed record's frame — lands only its first half.
    plan.arm_nth_write(1, FailMode::Torn);
    wal.append_insert(3, &[0xD0; 150]).unwrap(); // the tear cuts the frame
    let err = wal.commit().unwrap_err();
    assert!(plan.tripped(), "the armed write fired: {err}");
    assert!(wal.is_poisoned(), "a torn append fail-stops the handle");
    drop(wal);

    // Recovery through the engine: the intact prefix replays, the torn
    // record is discarded, and the cut is on the recovery timeline.
    let db = SksDb::open(&dir, config).unwrap();
    let report = db.recovery_report();
    assert_eq!(report.path, RecoveryPath::FullReplay);
    assert_eq!(report.records_replayed, 3);
    assert!(report.torn_tail, "the half-written record is a torn tail");
    assert!(report.bytes_discarded > 0);

    let scrub = report
        .events
        .iter()
        .find(|e| e.kind == EventKind::TornTailScrub)
        .expect("the recovery timeline records the scrub");
    assert_eq!(
        scrub.a, intact,
        "the scrub names where the valid stream ended"
    );
    assert_eq!(
        scrub.b, report.bytes_discarded,
        "the scrub names the bytes it discarded"
    );
    let dump = report.render_events();
    assert!(
        dump.contains(&format!("torn_tail_scrub p=* a={} b={}", scrub.a, scrub.b)),
        "the rendered dump names the scrubbed tail:\n{dump}"
    );

    // The committed prefix survived; the torn record did not.
    for k in 0..3u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), format!("v-{k}").into_bytes());
    }
    assert_eq!(db.get(3).unwrap(), None, "the torn record must not replay");

    // The scrubbed log accepts appends again and stays clean on reopen.
    db.insert(3, b"after-recovery".to_vec()).unwrap();
    db.flush().unwrap();
    drop(db);
    let db = SksDb::open(&dir, {
        let scheme = SchemeConfig::with_capacity(Scheme::Oval, 4096);
        EngineConfig::new(scheme).sync(SyncPolicy::EveryN(8))
    })
    .unwrap();
    assert!(!db.recovery_report().torn_tail, "the scrub was durable");
    assert_eq!(db.get(3).unwrap().unwrap(), b"after-recovery".to_vec());
}

/// Crash-probe sweep over the write path: group sealing with a fault —
/// torn write, clean write error, or a killed fsync — armed at a
/// seed-derived stage boundary, twelve seeds. Every reopen must recover a
/// *consistent prefix* of the logical stream: some whole number of
/// leading group commits, never a partial group, never a record out of
/// order, and a log that accepts writes again.
#[test]
fn wal_fault_sweep_recovers_consistent_prefixes() {
    const PIECE: usize = 512;
    const BATCHES: u64 = 30;
    const PER_BATCH: u64 = 3;
    let value = |k: u64| format!("sweep-record-{k:04}").into_bytes();

    let mut faults_fired = 0u32;
    for seed in 0..12u64 {
        let dir = tmpdir(&format!("sweep_{seed}"));
        let config = EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 4096))
            .sync(SyncPolicy::EveryN(4));
        let wal_path = dir.join("wal-1.sks");

        let counters = OpCounters::new();
        let file = LogFile::create(&wal_path, counters.clone()).unwrap();
        let (fail, plan): (FailStore<LogFile>, FailPlan) = FailStore::new(file);
        let mut wal = Wal::create_on_device(
            fail,
            PIECE,
            config.wal_key(),
            SyncPolicy::EveryN(4),
            counters,
        )
        .unwrap();

        // Seed-derived fault: two thirds hit a log write (alternating
        // torn and clean-error — the group-seal/device-write boundary),
        // one third kills an fsync (the group-commit barrier, paid inline
        // by the commit it falls due on).
        match seed % 3 {
            0 => drop(plan.arm_from_seed(seed, 35, FailMode::Torn)),
            1 => drop(plan.arm_from_seed(seed, 35, FailMode::Error)),
            _ => plan.arm_nth_flush(seed / 3 + 1),
        }

        // Drive group commits until the fault surfaces.
        'workload: for batch in 0..BATCHES {
            for i in 0..PER_BATCH {
                let k = batch * PER_BATCH + i;
                if wal.append_insert(k, &value(k)).is_err() {
                    break 'workload;
                }
            }
            if wal.commit().is_err() {
                break 'workload;
            }
        }
        let _ = wal.flush();
        if plan.tripped() {
            faults_fired += 1;
        }
        drop(wal);

        // "Reboot": recover through the engine over whatever the medium
        // holds.
        let db = SksDb::open(&dir, config).unwrap();
        let report = db.recovery_report();
        let n = report.records_replayed;
        assert_eq!(report.path, RecoveryPath::FullReplay, "seed {seed}");
        assert_eq!(
            n % PER_BATCH,
            0,
            "seed {seed}: a sealed group replays all-or-nothing, got {n} records"
        );
        // The replayed set is exactly the leading keys — a prefix, no
        // holes, no reordering, no resurrections past the cut.
        for k in 0..n {
            assert_eq!(
                db.get(k).unwrap().as_deref(),
                Some(value(k).as_slice()),
                "seed {seed}: key {k} inside the recovered prefix"
            );
        }
        for k in n..BATCHES * PER_BATCH {
            assert_eq!(
                db.get(k).unwrap(),
                None,
                "seed {seed}: key {k} past the recovered prefix"
            );
        }
        // The scrubbed log keeps working and the repair is durable.
        db.insert(1_000 + seed, b"post-recovery".to_vec()).unwrap();
        db.flush().unwrap();
        drop(db);
        let db = SksDb::open(
            &dir,
            EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 4096))
                .sync(SyncPolicy::EveryN(4)),
        )
        .unwrap();
        assert!(
            !db.recovery_report().torn_tail,
            "seed {seed}: scrub durable"
        );
        assert_eq!(
            db.get(1_000 + seed).unwrap().unwrap(),
            b"post-recovery".to_vec(),
            "seed {seed}"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        faults_fired >= 10,
        "the sweep must actually exercise the fault plans: {faults_fired}/12 fired"
    );
}

/// A killed group-commit fsync: group 1's inline fsync dies, so its
/// commit returns `Err` (a killed fsync is never acknowledged), the
/// handle fail-stops and the next commit fails too, and the reopened log
/// holds a whole-group prefix containing at least the acknowledged
/// group 0 and nothing past the poison point.
#[test]
fn killed_fsync_fail_stops_and_keeps_the_acked_prefix() {
    const PIECE: usize = 512;
    let dir = tmpdir("fsync_kill");
    let config =
        EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 4096)).sync(SyncPolicy::Always);
    let wal_path = dir.join("wal-1.sks");
    let value = |k: u64| format!("killed-sync-record-{k:04}").into_bytes();

    let counters = OpCounters::new();
    let file = LogFile::create(&wal_path, counters.clone()).unwrap();
    let (fail, plan) = FailStore::new(file);
    let mut wal =
        Wal::create_on_device(fail, PIECE, config.wal_key(), SyncPolicy::Always, counters).unwrap();

    // Group 0: committed and fsynced inline — acknowledged durable.
    for k in 0..3u64 {
        wal.append_insert(k, &value(k)).unwrap();
    }
    wal.commit().unwrap();

    // Arm the kill: the next fsync — group 1's — dies.
    plan.arm_nth_flush(1);
    for k in 3..6u64 {
        wal.append_insert(k, &value(k)).unwrap();
    }
    assert!(
        wal.commit().is_err(),
        "group 1's commit must surface the kill"
    );
    assert!(plan.tripped(), "the armed fsync fired");
    assert!(wal.is_poisoned(), "a killed fsync fail-stops the handle");

    // The handle refuses rather than acks over the hole.
    let _ = wal.append_insert(99, b"must-not-commit");
    assert!(
        wal.commit().is_err(),
        "the stream is poisoned after the kill"
    );
    drop(wal);

    // Reopen through the engine: a whole-group prefix that includes at
    // least the acked group and nothing past the poison point (group 1's
    // frame was written before its fsync died, so it may replay too).
    let db = SksDb::open(&dir, config).unwrap();
    let report = db.recovery_report();
    assert_eq!(report.path, RecoveryPath::FullReplay);
    let n = report.records_replayed;
    assert!(n >= 3, "the acked group is durable: {n} records");
    assert_eq!(n % 3, 0, "whole group commits only, got {n}");
    assert!(n <= 6, "nothing past the poisoned commit replays");
    for k in 0..n {
        assert_eq!(
            db.get(k).unwrap().as_deref(),
            Some(value(k).as_slice()),
            "key {k} inside the recovered prefix"
        );
    }
    for k in n..10 {
        assert_eq!(db.get(k).unwrap(), None, "key {k} past the prefix");
    }
    assert_eq!(
        db.get(99).unwrap(),
        None,
        "the post-poison record must not commit"
    );
    // The log accepts writes again after recovery.
    db.insert(500, b"post-recovery".to_vec()).unwrap();
    db.flush().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
