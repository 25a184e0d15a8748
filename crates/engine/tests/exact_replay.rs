//! Exact replay: each partition's checkpoint commit records the log
//! position its pages cover, and a reopen replays into it exactly the
//! logged writes past that position — across checkpoints racing writers
//! and transactions, and from a crash at every step of a checkpoint. A
//! checkpoint reads no byte of the log.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use sks_core::{EncipheredBTree, ObsLevel, Scheme, SchemeConfig, StorageBackend};
use sks_engine::{EngineConfig, EventKind, SksDb, Wal, WalOp};
use sks_storage::{FailPlan, OpCounters, SyncPolicy};

const PARTITIONS: usize = 2;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_exact_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn scheme() -> SchemeConfig {
    SchemeConfig::with_capacity(Scheme::Oval, 8_192)
        .observability(ObsLevel::Histograms)
        .partitions(PARTITIONS)
}

fn config() -> EngineConfig {
    EngineConfig::new(scheme()).sync(SyncPolicy::EveryN(16))
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

/// Each partition's covered number, read from its pages (the database is
/// closed).
fn covered(dir: &Path) -> Vec<u64> {
    (0..PARTITIONS)
        .map(|i| {
            let part = dir.join(format!("part-{i:03}"));
            EncipheredBTree::open(scheme().backend(StorageBackend::file(part)))
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
/// what a reopen of the closed database at `dir` must replay. `p0` holds
/// every key written that routes to partition 0.
fn past_covered(p0: &[u64], dir: &Path, config: &EngineConfig) -> u64 {
    let covered = covered(dir);
    logged(dir, config)
        .into_iter()
        .filter(|&(seq, key)| seq > covered[usize::from(!p0.contains(&key))])
        .count() as u64
}

/// Whether every partition's checkpoint journal is retired: no commit is
/// half done.
fn journals_retired(dir: &Path) -> bool {
    (0..PARTITIONS).all(|i| {
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

fn page_commits(db: &SksDb) -> usize {
    db.recent_events()
        .iter()
        .filter(|e| e.kind == EventKind::PageCommit)
        .count()
}

/// A writer and cross-partition transactions race a checkpoint, which
/// may only finish once both have committed while it is in flight. After
/// a crash (a drop with no flush), the reopen replays exactly the logged
/// writes past each partition's covered number, and holds every write.
#[test]
fn a_reopen_replays_exactly_the_writes_past_each_covered_number() {
    let dir = tmpdir("racing");
    let db = SksDb::open(&dir, config()).unwrap();
    let (p0, p1) = (keys_in(&db, 0, 0, 400), keys_in(&db, 1, 0, 400));
    for (&a, &b) in p0.iter().zip(&p1).take(200) {
        db.insert(a, rec(a, 0)).unwrap();
        db.insert(b, rec(b, 0)).unwrap();
    }
    db.checkpoint().unwrap();

    let (writes, txns) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let stop = Arc::new(AtomicBool::new(false));
    let spawn = |body: Box<dyn Fn(u64) + Send>, done: Arc<AtomicU64>| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::Acquire) {
                body(i);
                i += 1;
                done.store(i, Ordering::Release);
            }
        })
    };
    let writer = {
        let (db, keys) = (Arc::clone(&db), [&p0[200..], &p1[200..]].concat());
        spawn(
            Box::new(move |i| {
                let k = keys[i as usize % keys.len()];
                db.insert(k, rec(k, i + 1)).unwrap();
            }),
            Arc::clone(&writes),
        )
    };
    let transfers = {
        let (db, p0, p1) = (Arc::clone(&db), p0.clone(), p1.clone());
        spawn(
            Box::new(move |i| {
                let (a, b) = (p0[i as usize % 200], p1[i as usize % 200]);
                let mut t = db.begin();
                t.insert(a, rec(a, 1_000 + i)).unwrap();
                t.delete(b).unwrap();
                t.commit().unwrap();
            }),
            Arc::clone(&txns),
        )
    };
    for _ in 0..3 {
        let (w, t) = (writes.load(Ordering::Acquire), txns.load(Ordering::Acquire));
        db.checkpoint_with_hook(|| {
            while writes.load(Ordering::Acquire) < w + 20 || txns.load(Ordering::Acquire) < t + 5 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
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

/// Where in a checkpoint a crash strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kill {
    /// After the segment switch, before any partition commits.
    AfterSwitch,
    /// After partition 0 commits, while partition 1 waits on its lock.
    BetweenPartitions,
    /// After every partition committed, before the retired segment goes.
    BeforeRemoval,
}

/// A crash image taken at each step of a checkpoint reopens to every
/// acknowledged write and replays exactly the writes its partitions'
/// pages do not hold: after the switch, all of them; between the two
/// partitions' commits, partition 1's; before the removal, none.
#[test]
fn a_crash_at_each_checkpoint_step_replays_exactly_what_the_pages_lack() {
    for kill in [
        Kill::AfterSwitch,
        Kill::BetweenPartitions,
        Kill::BeforeRemoval,
    ] {
        let (dir, crashed) = (
            tmpdir(&format!("{kill:?}")),
            tmpdir(&format!("{kill:?}_image")),
        );
        let db = SksDb::open(&dir, config()).unwrap();
        let (p0, p1) = (keys_in(&db, 0, 0, 60), keys_in(&db, 1, 0, 60));
        for (&a, &b) in p0.iter().zip(&p1).take(30) {
            db.insert(a, rec(a, 0)).unwrap();
            db.insert(b, rec(b, 0)).unwrap();
        }
        db.checkpoint().unwrap();
        // The writes no page holds yet: 20 in partition 0, 10 in 1.
        for &k in p0[30..50].iter().chain(&p1[30..40]) {
            db.insert(k, rec(k, 1)).unwrap();
        }
        let want = image(&db);
        // A transaction parked under the write locks of the partitions it
        // writes keeps their checkpoint threads from committing; it logs
        // nothing until it is released, after the crash image is taken.
        let parked: &[u64] = match kill {
            Kill::AfterSwitch => &[p0[55], p1[55]],
            Kill::BetweenPartitions => &[p1[55]],
            Kill::BeforeRemoval => &[],
        };
        let (locked, release) = (mpsc::channel(), mpsc::channel::<()>());
        let (locked_tx, release_rx) = (locked.0, release.1);
        let holder = {
            let (db, keys) = (Arc::clone(&db), parked.to_vec());
            std::thread::spawn(move || {
                if keys.is_empty() {
                    return locked_tx.send(()).unwrap();
                }
                let mut t = db.begin();
                for &k in &keys {
                    t.insert(k, rec(k, 2)).unwrap();
                }
                t.commit_with_hook(|| {
                    locked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
                .unwrap();
            })
        };
        locked.1.recv().unwrap();
        let commits = page_commits(&db);
        db.checkpoint_with_hook(|| {
            let committed = match kill {
                Kill::AfterSwitch => 0,
                Kill::BetweenPartitions => 1,
                Kill::BeforeRemoval => 2,
            };
            while page_commits(&db) < commits + committed || !journals_retired(&dir) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            copy_dir(&dir, &crashed);
            release.0.send(()).ok();
        })
        .unwrap();
        holder.join().unwrap();
        let config = db.config().clone();

        let expected = past_covered(&p0, &crashed, &config);
        let lacking = match kill {
            Kill::AfterSwitch => 30,
            Kill::BetweenPartitions => 10,
            Kill::BeforeRemoval => 0,
        };
        assert_eq!(expected, lacking, "{kill:?}: the pages lack these writes");
        let reopened = SksDb::open(&crashed, config).unwrap();
        assert_eq!(
            reopened.recovery_report().records_replayed,
            lacking,
            "{kill:?}: replay is exact"
        );
        assert_eq!(image(&reopened), want, "{kill:?}");
        reopened.validate().unwrap();
        drop((db, reopened));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&crashed).ok();
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
