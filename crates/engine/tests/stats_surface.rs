//! The first-class stats surface end to end: per-op latency histograms,
//! the stage-attributed write-path breakdown (the PR's acceptance bar:
//! the breakdown must explain ≥90% of measured insert wall time on the
//! file backend), the node cache keeping what writes seal, observability
//! levels, the no-plaintext telemetry guarantee, batch commit
//! amortisation, and a checkpoint's stages nesting inside its flush
//! phase.

use std::time::Instant;

use sks_core::{ObsLevel, Scheme, SchemeConfig};
use sks_engine::{EngineConfig, EventKind, SksDb, Stage};
use sks_storage::SyncPolicy;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_stats_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Acceptance: with stage timing on, the write-path breakdown — record
/// seal + WAL append + WAL fsync + node seal + node unseal, each
/// nanosecond counted once — explains at least 90% of the wall time the
/// caller actually measured across inserts on the file backend.
#[test]
fn write_path_breakdown_explains_insert_wall_time() {
    let dir = tmpdir("write_path");
    let scheme =
        SchemeConfig::with_capacity(Scheme::Oval, 4096).observability(ObsLevel::Histograms);
    let db = SksDb::open(&dir, EngineConfig::new(scheme).sync(SyncPolicy::Always)).unwrap();

    const N: u64 = 200;
    // Open fsyncs the log's key-check frame before the clock starts: only
    // stage time recorded inside the measured window counts.
    let before = db.stats().write_path_ns();
    let wall = Instant::now();
    for k in 0..N {
        db.insert(k, vec![k as u8; 256]).unwrap();
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;

    let stats = db.stats();
    let put = stats.op("put").expect("put histogram present");
    assert_eq!(put.count, N, "every insert was measured");
    assert!(put.p50() > 0 && put.p99() >= put.p50() && put.max >= put.p99());

    let attributed = stats.write_path_ns() - before;
    assert!(
        attributed >= wall_ns / 10 * 9,
        "write-path stages explain {attributed} of {wall_ns} ns ({:.1}%); need >= 90%",
        attributed as f64 * 100.0 / wall_ns as f64
    );
    assert!(
        attributed <= wall_ns,
        "stages nest inside the measured wall: {attributed} vs {wall_ns} ns"
    );
    // With per-commit fsync the sync stage dominates, and each top-level
    // stage saw every insert.
    assert!(stats.stage_ns(Stage::WalFsync) > 0);
    // Every insert seals its own group of one.
    assert_eq!(stats.stage(Stage::SealBatch).unwrap().count, N);
    assert_eq!(stats.stage(Stage::RecordSeal).unwrap().count, N);

    // The JSON rendering carries the whole surface.
    let json = stats.to_json();
    for key in [
        "\"write_path\"",
        "\"wal_fsync\"",
        "\"record_seal\"",
        "\"counters\"",
        "\"compact_orphans_collected\"",
        "\"partitions\"",
        "\"p99_ns\"",
    ] {
        assert!(json.contains(key), "stats JSON missing {key}:\n{json}");
    }
}

/// A write keeps the node it sealed: overwriting one key again and again
/// finds its whole path in the node cache every time after the first —
/// no miss, no physical unseal — while the logical pointer decipherments
/// keep climbing by the same amount per overwrite.
#[test]
fn repeated_overwrites_decipher_nothing_after_the_first() {
    let dir = tmpdir("overwrites");
    let scheme =
        SchemeConfig::with_capacity(Scheme::Oval, 4096).observability(ObsLevel::Histograms);
    let db = SksDb::open(&dir, EngineConfig::new(scheme)).unwrap();
    db.insert_batch((0..1_000u64).map(|k| (k, vec![k as u8; 32])).collect())
        .unwrap();
    let unseals = || db.stats().stage(Stage::NodeUnseal).map_or(0, |h| h.count);
    let overwrite = |round: u64| {
        let before = db.snapshot();
        db.insert(500, vec![round as u8; 32]).unwrap();
        db.snapshot().delta(&before)
    };
    let first = overwrite(0);
    assert!(first.ptr_decrypts > 0);
    let (before, unsealed) = (db.snapshot(), unseals());
    for round in 1..100 {
        let delta = overwrite(round);
        assert_eq!(delta.ptr_decrypts, first.ptr_decrypts, "round {round}");
    }
    let delta = db.snapshot().delta(&before);
    assert_eq!(
        delta.node_cache_misses, 0,
        "every visit after the first hits"
    );
    assert_eq!(unseals(), unsealed, "and deciphers nothing");
    assert_eq!(delta.ptr_decrypts, 99 * first.ptr_decrypts);
    assert_eq!(db.get(500).unwrap().unwrap(), vec![99u8; 32]);
}

/// `Off` means off: no histograms, no events — while the logical
/// counters keep counting exactly as always.
#[test]
fn off_level_records_nothing_but_still_counts() {
    let dir = tmpdir("off_level");
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 4096).observability(ObsLevel::Off);
    let db = SksDb::open(&dir, EngineConfig::new(scheme)).unwrap();
    for k in 0..50u64 {
        db.insert(k, vec![k as u8; 32]).unwrap();
        db.get(k).unwrap();
    }
    db.checkpoint().unwrap();

    let stats = db.stats();
    assert_eq!(stats.level, ObsLevel::Off);
    assert!(stats.ops.iter().all(|(_, h)| h.count == 0));
    assert!(stats.stages.iter().all(|(_, h)| h.count == 0));
    assert!(db.recent_events().is_empty());
    assert!(stats.counters.disguise_ops > 0, "paper counters still run");
    assert!(stats.counters.wal_appends >= 50);
}

/// The no-plaintext telemetry guarantee, attack-sweep style: plant a
/// sentinel value and a distinctive key, drive every op and maintenance
/// pass at `FullTrace`, then grep the full stats JSON and the rendered
/// flight recorder for any trace of them.
#[test]
fn telemetry_leaks_no_key_or_value_plaintext() {
    let dir = tmpdir("no_plaintext");
    const SPY_KEY: u64 = 424_242;
    let sentinel = b"TOP-SECRET-PAYROLL-ROW".to_vec();
    let scheme =
        SchemeConfig::with_capacity(Scheme::Oval, 500_000).observability(ObsLevel::FullTrace);
    let db = SksDb::open(&dir, EngineConfig::new(scheme)).unwrap();

    db.insert(SPY_KEY, sentinel.clone()).unwrap();
    for k in 0..40u64 {
        db.insert(k, sentinel.clone()).unwrap();
    }
    db.get(SPY_KEY).unwrap();
    // Overwrites: each copies its leaf's unchanged cryptograms, so the
    // reuse counter is live on the surface being swept.
    for k in 0..10u64 {
        db.insert(k, sentinel.clone()).unwrap();
    }
    db.range(0, 50).unwrap();
    for k in (0..40u64).step_by(2) {
        db.delete(k).unwrap();
    }
    db.insert_batch((100..140).map(|k| (k, sentinel.clone())).collect())
        .unwrap();
    db.compact(8).unwrap();
    db.checkpoint().unwrap();

    let events = db.recent_events();
    assert!(!events.is_empty(), "FullTrace records client ops");
    assert!(events.iter().any(|e| e.kind == EventKind::Put));
    let rendered = events
        .iter()
        .map(|e| e.render())
        .collect::<Vec<_>>()
        .join("\n");
    let stats = db.stats();
    assert!(stats.counters.triplet_seals_reused > 0);
    let json = stats.to_json();
    assert!(json.contains("\"triplet_seals_reused\""), "{json}");

    for doc in [&rendered, &json] {
        assert!(
            !doc.contains("TOP-SECRET"),
            "value plaintext leaked:\n{doc}"
        );
        assert!(!doc.contains("PAYROLL"), "value plaintext leaked:\n{doc}");
        // The key may appear only as a magnitude field, never does: the
        // recorder carries byte lengths and counts, not key material.
        assert!(
            !doc.contains(&format!("={SPY_KEY}")) && !doc.contains(&format!(": {SPY_KEY}")),
            "key material leaked:\n{doc}"
        );
    }
}

/// `insert_batch` pays one group commit per partition group instead of
/// one per record, and the batch histogram sees it.
#[test]
fn insert_batch_amortises_commits() {
    let dir = tmpdir("batch");
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 4096)
        .partitions(2)
        .observability(ObsLevel::Histograms);
    let db = SksDb::open(&dir, EngineConfig::new(scheme).sync(SyncPolicy::Always)).unwrap();

    let before = db.snapshot();
    let written = db
        .insert_batch((0..100u64).map(|k| (k, vec![k as u8; 16])).collect())
        .unwrap();
    assert_eq!(written, 100);
    let delta = db.snapshot().delta(&before);
    assert_eq!(delta.wal_appends, 100, "every record hit the log");
    assert!(
        delta.wal_fsyncs <= 2,
        "one commit per partition group, not per record: {} fsyncs",
        delta.wal_fsyncs
    );
    assert!(
        delta.wal_sealed_batches > 0,
        "insert_batch never sealed a multi-record group"
    );
    for k in 0..100u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), vec![k as u8; 16]);
    }

    let stats = db.stats();
    let batch = stats.op("batch").expect("batch histogram");
    assert!(batch.count >= 1 && batch.count <= 2);
    // Maintenance events (checkpoint begin/end) are visible from the
    // default-adjacent levels up — no FullTrace needed.
    db.checkpoint().unwrap();
    let kinds: Vec<EventKind> = db.recent_events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::CheckpointBegin));
    assert!(kinds.contains(&EventKind::CheckpointEnd));
}

/// An explicit transaction's commit latency is recorded once, as the
/// `TxnCommit` stage, and the stats surface's `txn` op reads that stage.
#[test]
fn txn_op_is_the_commit_stage() {
    let dir = tmpdir("txn_op");
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 1024)
        .partitions(2)
        .observability(ObsLevel::Histograms);
    let db = SksDb::open(&dir, EngineConfig::new(scheme)).unwrap();
    const K: u64 = 7;
    for k in 0..K {
        let mut txn = db.begin();
        txn.insert(2 * k, vec![k as u8; 16]).unwrap();
        txn.insert(2 * k + 1, vec![k as u8; 16]).unwrap();
        txn.commit().unwrap();
    }
    let stats = db.stats();
    let txn = stats.op("txn").expect("txn histogram");
    assert_eq!(txn.count, K);
    assert_eq!(Some(txn), stats.stage(Stage::TxnCommit));
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint compacts, commits and fsyncs its partitions one after
/// another on the calling thread, all inside its flush phase, so the
/// compaction and store-fsync time recorded over one checkpoint is at
/// most that phase's own: here four partitions, each dirty and holding
/// tombstones.
#[test]
fn checkpoint_stage_time_nests_inside_its_flush_phase() {
    let dir = tmpdir("checkpoint_nesting");
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 4096)
        .observability(ObsLevel::Histograms)
        .partitions(4);
    let db = SksDb::open(&dir, EngineConfig::new(scheme)).unwrap();
    for k in 0..2_000u64 {
        db.insert(k, vec![k as u8; 200]).unwrap();
    }
    for k in (0..2_000u64).filter(|k| k % 3 != 0) {
        db.delete(k).unwrap();
    }
    assert!(db.dirty_pages_per_partition().iter().all(|&d| d > 0));
    let inner = [Stage::CompactData, Stage::CompactNodes, Stage::StoreFsync];
    let time = |stages: &[Stage]| {
        let stats = db.stats();
        stages.iter().map(|&s| stats.stage_ns(s)).sum::<u64>()
    };
    let count = |stage| db.stats().stage(stage).map_or(0, |h| h.count);
    let (inner_before, flush_before) = (time(&inner), time(&[Stage::CheckpointFlush]));
    let (passes, fsyncs) = (count(Stage::CompactData), count(Stage::StoreFsync));

    db.checkpoint().unwrap();
    let nested = time(&inner) - inner_before;
    let flush = time(&[Stage::CheckpointFlush]) - flush_before;
    assert!(
        db.last_compaction_report().freed_blocks > 0,
        "the checkpoint's compaction reclaimed nothing"
    );
    assert_eq!(
        count(Stage::CompactData) - passes,
        4,
        "one pass per partition"
    );
    assert_eq!(count(Stage::StoreFsync) - fsyncs, 8, "two per partition");
    assert!(
        0 < nested && nested <= flush,
        "compaction and store fsyncs took {nested} ns inside a {flush} ns flush phase"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
