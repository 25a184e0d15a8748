//! Exact replay: each partition's checkpoint commit records the log
//! position its pages cover, and a reopen replays into it exactly the
//! logged writes past that position — across checkpoints racing writers
//! and transactions, from a crash at every step of a checkpoint, and from
//! a dead log fsync at each of a checkpoint's fsyncs. A checkpoint reads
//! no byte of the log.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sks_core::{EncipheredBTree, ObsLevel, Scheme, SchemeConfig, StorageBackend};
use sks_engine::{EngineConfig, SksDb, Wal, WalOp};
use sks_storage::{FailPlan, OpCounters, SyncPolicy};

const PARTITIONS: usize = 2;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_exact_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn scheme(partitions: usize) -> SchemeConfig {
    SchemeConfig::with_capacity(Scheme::Oval, 8_192)
        .observability(ObsLevel::Histograms)
        .partitions(partitions)
}

fn config_of(partitions: usize) -> EngineConfig {
    EngineConfig::new(scheme(partitions)).sync(SyncPolicy::EveryN(16))
}

fn config() -> EngineConfig {
    config_of(PARTITIONS)
}

fn rec(k: u64, round: u64) -> Vec<u8> {
    format!("exact-{k:05}-{round}").into_bytes()
}

/// The first `n` keys from `from` up that route to `partition`.
fn keys_in(db: &SksDb, partition: usize, from: u64, n: usize) -> Vec<u64> {
    (from..8_192)
        .filter(|&k| db.partition_of(k).unwrap() == partition)
        .take(n)
        .collect()
}

/// Each of `partitions` partitions' covered number, read from its pages
/// (the database is closed, or `dir` is a copy).
fn covered(dir: &Path, partitions: usize) -> Vec<u64> {
    (0..partitions)
        .map(|i| {
            let part = dir.join(format!("part-{i:03}"));
            EncipheredBTree::open(scheme(partitions).backend(StorageBackend::file(part)))
                .unwrap()
                .tree()
                .covered()
        })
        .collect()
}

/// Every record the log's segments hold, read from copies of them.
fn logged(dir: &Path, config: &EngineConfig) -> Vec<(u64, u64)> {
    let mut names: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name()?.to_str()?;
            let n = name
                .strip_prefix("wal-")?
                .strip_suffix(".sks")?
                .parse()
                .ok()?;
            Some((n, path))
        })
        .collect();
    names.sort();
    let copy = dir.with_extension("segment");
    let mut out = Vec::new();
    for (_, path) in names {
        std::fs::copy(&path, &copy).unwrap();
        let (_, replay) = Wal::open(
            &copy,
            config.wal_key(),
            SyncPolicy::Never,
            OpCounters::new(),
        )
        .unwrap();
        for r in replay.records {
            let key = match r.op {
                WalOp::Insert { key, .. } | WalOp::Delete { key } => key,
            };
            out.push((r.seq, key));
        }
    }
    std::fs::remove_file(&copy).ok();
    out
}

/// How many logged records lie past their partition's covered number:
/// what a reopen of the closed database at `dir` must replay.
/// `partition_of` routes every key written.
fn replay_due(dir: &Path, config: &EngineConfig, partition_of: impl Fn(u64) -> usize) -> u64 {
    let covered = covered(dir, config.scheme.partitions);
    logged(dir, config)
        .into_iter()
        .filter(|&(seq, key)| seq > covered[partition_of(key)])
        .count() as u64
}

/// [`replay_due`] on two partitions, where `p0` holds every key written
/// that routes to partition 0.
fn past_covered(p0: &[u64], dir: &Path, config: &EngineConfig) -> u64 {
    replay_due(dir, config, |key| usize::from(!p0.contains(&key)))
}

/// Whether each of `partitions` partitions' checkpoint journal is
/// retired: no commit is half done.
fn journals_retired(dir: &Path, partitions: usize) -> bool {
    (0..partitions).all(|i| {
        let journal = dir.join(format!("part-{i:03}")).join("checkpoint.journal");
        std::fs::metadata(journal).map_or(true, |m| m.len() == 0)
    })
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

fn image(db: &SksDb) -> BTreeMap<u64, Vec<u8>> {
    db.range(0, u64::MAX).unwrap().into_iter().collect()
}

/// A writer and cross-partition transactions race three checkpoints, and
/// at every step of each the checkpointing thread itself writes and
/// commits a transfer, so commits land between two partitions' commits
/// whatever the racing threads do. After a crash (a drop with no flush),
/// the reopen replays exactly the logged writes past each partition's
/// covered number, and holds every write.
#[test]
fn a_reopen_replays_exactly_the_writes_past_each_covered_number() {
    let dir = tmpdir("racing");
    let db = SksDb::open(&dir, config()).unwrap();
    let (p0, p1) = (keys_in(&db, 0, 0, 500), keys_in(&db, 1, 0, 500));
    for (&a, &b) in p0.iter().zip(&p1).take(200) {
        db.insert(a, rec(a, 0)).unwrap();
        db.insert(b, rec(b, 0)).unwrap();
    }
    db.checkpoint().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let spawn = |body: Box<dyn Fn(u64) + Send>| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::Acquire) {
                body(i);
                i += 1;
            }
        })
    };
    let transfer = |db: &Arc<SksDb>, (a, b): (u64, u64), i: u64| {
        let mut t = db.begin();
        t.insert(a, rec(a, 1_000 + i)).unwrap();
        t.delete(b).unwrap();
        t.commit().unwrap();
    };
    let writer = {
        let (db, keys) = (Arc::clone(&db), [&p0[200..400], &p1[200..400]].concat());
        spawn(Box::new(move |i| {
            let k = keys[i as usize % keys.len()];
            db.insert(k, rec(k, i + 1)).unwrap();
        }))
    };
    let transfers = {
        let (db, p0, p1) = (Arc::clone(&db), p0.clone(), p1.clone());
        spawn(Box::new(move |i| {
            transfer(&db, (p0[i as usize % 200], p1[i as usize % 200]), i)
        }))
    };
    // The checkpointing thread writes keys no racing thread writes, so
    // its transfers never conflict.
    for round in 0..3u64 {
        db.checkpoint_with_hook(|step| {
            let (i, j) = (10 * round + step as u64, 400 + step);
            db.insert(p1[j + 50], rec(p1[j + 50], 2_000 + i)).unwrap();
            transfer(&db, (p0[j], p1[j]), 2_000 + i);
        })
        .unwrap();
    }
    // At least one write lies past every covered number.
    db.insert(p0[0], rec(p0[0], 7)).unwrap();
    stop.store(true, Ordering::Release);
    writer.join().unwrap();
    transfers.join().unwrap();
    let want = image(&db);
    let config = db.config().clone();
    drop(db);

    let expected = past_covered(&p0, &dir, &config);
    let db = SksDb::open(&dir, config.clone()).unwrap();
    let replayed = db.recovery_report().records_replayed;
    drop(db);
    assert_eq!(replayed, expected, "replay is exact");
    assert!(
        replayed > 0,
        "writes raced past the last checkpoint's covered numbers"
    );
    let db = SksDb::open(&dir, config).unwrap();
    assert_eq!(image(&db), want);
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash image taken at each step of a checkpoint reopens to every
/// acknowledged write and replays exactly the writes its partitions'
/// pages do not hold: after the segment switch (step 0), all of them;
/// after partition `p`'s commit (step `p + 1`), those of the partitions
/// after it; after the last, none. On two partitions and on three.
#[test]
fn a_crash_at_each_checkpoint_step_replays_exactly_what_the_pages_lack() {
    for partitions in [2, 3] {
        for step in 0..=partitions {
            let name = format!("step_{partitions}_{step}");
            let (dir, crashed) = (tmpdir(&name), tmpdir(&format!("{name}_image")));
            let db = SksDb::open(&dir, config_of(partitions)).unwrap();
            let keys: Vec<Vec<u64>> = (0..partitions).map(|p| keys_in(&db, p, 0, 60)).collect();
            for i in 0..30 {
                for k in keys.iter().map(|part| part[i]) {
                    db.insert(k, rec(k, 0)).unwrap();
                }
            }
            db.checkpoint().unwrap();
            // The writes no page holds yet: 10 in the last partition, 10
            // more in each one before it.
            for (p, part) in keys.iter().enumerate() {
                for &k in &part[30..30 + 10 * (partitions - p)] {
                    db.insert(k, rec(k, 1)).unwrap();
                }
            }
            let want = image(&db);
            db.checkpoint_with_hook(|at| {
                if at == step {
                    assert!(journals_retired(&dir, partitions), "{name}");
                    copy_dir(&dir, &crashed);
                }
            })
            .unwrap();
            let config = db.config().clone();

            let lacking: u64 = (step..partitions)
                .map(|p| 10 * (partitions - p) as u64)
                .sum();
            let due = replay_due(&crashed, &config, |k| db.partition_of(k).unwrap());
            assert_eq!(due, lacking, "{name}: the pages lack these writes");
            let reopened = SksDb::open(&crashed, config).unwrap();
            assert_eq!(
                reopened.recovery_report().records_replayed,
                lacking,
                "{name}: replay is exact"
            );
            assert_eq!(image(&reopened), want, "{name}");
            reopened.validate().unwrap();
            drop((db, reopened));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&crashed).ok();
        }
    }
}

/// A checkpoint reads no byte of the log: with the log device's first
/// read armed to fail, a checkpoint that starts a segment and commits
/// every partition succeeds without tripping it, while a reopen, which
/// does read the log, trips it.
#[test]
fn a_checkpoint_reads_no_log_byte() {
    let dir = tmpdir("no_log_reads");
    let plan = FailPlan::new();
    let config = config().wal_fault(plan.clone());
    let db = SksDb::open(&dir, config.clone()).unwrap();
    for k in 0..300u64 {
        db.insert(k, rec(k, 0)).unwrap();
    }
    for round in 1..3 {
        plan.arm_nth_read(1);
        db.insert(1_000 + round, rec(round, round)).unwrap();
        db.checkpoint().unwrap();
        assert!(!plan.tripped(), "checkpoint {round} read the log");
    }
    drop(db);
    assert!(SksDb::open(&dir, config.clone()).is_err());
    assert!(plan.tripped(), "an open reads the log through the plan");
    plan.reset();
    let db = SksDb::open(&dir, config).unwrap();
    assert_eq!(db.len(), 302);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// What one checkpoint with a dead log fsync left behind.
#[derive(Debug, PartialEq)]
struct Killed {
    error: String,
    /// Whether the write between partition 0's commit and partition 1's
    /// was made (and acknowledged).
    wrote_between: bool,
    covered: Vec<u64>,
    replayed: u64,
}

/// Three partitions under `SyncPolicy::Never`, their log behind `plan`,
/// each with 10 writes past its last checkpoint. Returns the config
/// without the plan, the database and each partition's keys.
fn three_dirty_partitions(
    dir: &Path,
    plan: &FailPlan,
) -> (EngineConfig, Arc<SksDb>, Vec<Vec<u64>>) {
    let config = EngineConfig::new(scheme(3)).sync(SyncPolicy::Never);
    let db = SksDb::open(dir, config.clone().wal_fault(plan.clone())).unwrap();
    let keys: Vec<Vec<u64>> = (0..3).map(|p| keys_in(&db, p, 0, 40)).collect();
    for &k in keys.iter().flat_map(|part| &part[..20]) {
        db.insert(k, rec(k, 0)).unwrap();
    }
    db.checkpoint().unwrap();
    for &k in keys.iter().flat_map(|part| &part[20..30]) {
        db.insert(k, rec(k, 1)).unwrap();
    }
    (config, db, keys)
}

/// A checkpoint that writes `rec(k, 2)` under one key `k` of partition 0
/// once that partition has committed. Returns the checkpoint's result
/// and `k`, when it was written.
fn checkpoint_writing_between(
    db: &SksDb,
    keys: &[Vec<u64>],
) -> (Result<(), sks_engine::EngineError>, Option<u64>) {
    let mut written = None;
    let result = db.checkpoint_with_hook(|step| {
        if step == 1 {
            let k = keys[0][35];
            db.insert(k, rec(k, 2)).unwrap();
            written = Some(k);
        }
    });
    (result, written)
}

/// Runs [`checkpoint_writing_between`] over [`three_dirty_partitions`]
/// with the log's `nth` fsync of the checkpoint dead, and checks that the
/// checkpoint failed, that the log refused a later write, and that the
/// reopen holds every acknowledged write and replays exactly what the
/// pages lack.
fn checkpoint_with_dead_fsync(name: &str, nth: u64) -> Killed {
    let (dir, plan) = (tmpdir(name), FailPlan::new());
    let (config, db, keys) = three_dirty_partitions(&dir, &plan);
    let mut want = image(&db);
    plan.arm_nth_flush(nth);
    let (result, written) = checkpoint_writing_between(&db, &keys);
    let error = result.expect_err("the armed fsync is dead").to_string();
    assert!(plan.tripped(), "{name}: the checkpoint reached fsync {nth}");
    let later = db.insert(keys[1][39], rec(keys[1][39], 3));
    assert!(
        later.is_err(),
        "{name}: the log took a write after a dead fsync"
    );
    drop(db);

    plan.reset();
    want.extend(written.map(|k| (k, rec(k, 2))));
    let due = replay_due(&dir, &config, |k| {
        (0..3).find(|&p| keys[p].contains(&k)).unwrap()
    });
    let reopened = SksDb::open(&dir, config).unwrap();
    let replayed = reopened.recovery_report().records_replayed;
    assert_eq!(replayed, due, "{name}: replay is exact");
    assert_eq!(image(&reopened), want, "{name}: every acknowledged write");
    reopened.validate().unwrap();
    drop(reopened);
    let killed = Killed {
        error,
        wrote_between: written.is_some(),
        covered: covered(&dir, 3),
        replayed,
    };
    std::fs::remove_dir_all(&dir).ok();
    killed
}

/// A checkpoint's log fsyncs come in one order, so each is a kill point
/// a test can name: a dry run counts them, then each is made to fail in
/// turn, twice. Every such checkpoint fails, the log refuses later
/// writes, and the reopen holds every acknowledged write and replays
/// exactly the logged writes its pages lack — the same outcome both
/// times.
#[test]
fn a_dead_log_fsync_at_each_checkpoint_fsync_replays_exactly_what_the_pages_lack() {
    let (dir, plan) = (tmpdir("fsync_dry_run"), FailPlan::new());
    let (_, db, keys) = three_dirty_partitions(&dir, &plan);
    plan.reset();
    checkpoint_writing_between(&db, &keys).0.unwrap();
    let fsyncs = plan.flushes_seen();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        fsyncs, 4,
        "the new segment's header, the retiring segment, partition 0's sync of \
         the new sentinel and partition 1's of the write between"
    );

    let mut outcomes = Vec::new();
    for nth in 1..=fsyncs {
        let first = checkpoint_with_dead_fsync(&format!("fsync_{nth}_a"), nth);
        let again = checkpoint_with_dead_fsync(&format!("fsync_{nth}_b"), nth);
        assert_eq!(first, again, "fsync {nth}: the same kill, the same outcome");
        outcomes.push((first.wrote_between, first.replayed));
    }
    // Until partition 0 commits, every partition lacks its 10 later
    // writes; once it has, partitions 1 and 2 lack theirs and partition 0
    // the write made after its commit.
    assert_eq!(
        outcomes,
        [(false, 30), (false, 30), (false, 30), (true, 21)],
        "(write between made, records replayed) per dead fsync"
    );
}
