//! The log's durability point under a lazy `SyncPolicy`: pages never
//! reach their stores ahead of the log, a cross-partition commit is
//! durable when it is acknowledged although it waits for its fsync only
//! after releasing its locks, and commits whose frames are already
//! written share one fsync.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};

use sks_core::{Scheme, SchemeConfig};
use sks_engine::{EngineConfig, EngineError, SksDb};
use sks_storage::{FailPlan, SyncPolicy};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_durable_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Two partitions under a policy that never fsyncs on its own here.
fn config() -> EngineConfig {
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 4096).partitions(2);
    EngineConfig::new(scheme).sync(SyncPolicy::EveryN(1000))
}

fn rec(k: u64, round: u64) -> Vec<u8> {
    format!("durable-{k:05}-{round}").into_bytes()
}

/// The first `n` keys from 1 up that route to `partition`.
fn keys_in(db: &SksDb, partition: usize, n: usize) -> Vec<u64> {
    (1..4096u64)
        .filter(|&k| db.partition_of(k).unwrap() == partition)
        .take(n)
        .collect()
}

/// Commits `writes` as one transaction.
fn txn(db: &Arc<SksDb>, writes: &[(u64, Vec<u8>)]) -> Result<(), EngineError> {
    let mut t = db.begin();
    for (k, v) in writes {
        t.insert(*k, v.clone())?;
    }
    t.commit()
}

fn fsyncs(db: &SksDb) -> u64 {
    db.snapshot().wal_fsyncs
}

/// Every partition's page stores, byte for byte.
fn page_stores(dir: &Path) -> Vec<Vec<u8>> {
    (0..2)
        .flat_map(|i| ["data.sks", "nodes.sks"].map(|f| dir.join(format!("part-{i:03}")).join(f)))
        .map(|p| std::fs::read(p).unwrap())
        .collect()
}

fn image(db: &SksDb) -> BTreeMap<u64, Vec<u8>> {
    db.range(0, u64::MAX).unwrap().into_iter().collect()
}

/// The image after each prefix of `units`, shortest first.
fn prefix_images(units: &[Vec<(u64, Vec<u8>)>]) -> Vec<BTreeMap<u64, Vec<u8>>> {
    let mut image = BTreeMap::new();
    let mut out = vec![image.clone()];
    for unit in units {
        image.extend(unit.iter().cloned());
        out.push(image.clone());
    }
    out
}

/// A checkpoint first makes the log durable through every commit its
/// partitions applied, so a dead log fsync fails it before any page
/// store changes, and a reopen lands on a prefix of the commits.
#[test]
fn pages_never_outrun_the_log() {
    let dir = tmpdir("wal_before_data");
    let plan = FailPlan::new();
    let db = SksDb::open(&dir, config().wal_fault(plan.clone())).unwrap();
    let (p0, p1) = (keys_in(&db, 0, 8), keys_in(&db, 1, 8));
    let mut units: Vec<Vec<(u64, Vec<u8>)>> = Vec::new();
    for round in 0..4u64 {
        let i = round as usize;
        let single = vec![(p0[i], rec(p0[i], round))];
        db.insert(p0[i], rec(p0[i], round)).unwrap();
        units.push(single);
        let cross = vec![
            (p0[i + 4], rec(p0[i + 4], round)),
            (p1[i], rec(p1[i], round)),
        ];
        txn(&db, &cross).unwrap();
        units.push(cross);
    }
    // The last commits are single-partition and left unsynced.
    for &k in &p1[4..] {
        db.insert(k, rec(k, 9)).unwrap();
        units.push(vec![(k, rec(k, 9))]);
    }
    let before = page_stores(&dir);

    plan.arm_nth_flush(1);
    db.checkpoint().expect_err("the log's fsync is dead");
    assert!(plan.tripped(), "the checkpoint reached the log's fsync");
    assert!(
        page_stores(&dir) == before,
        "a page store changed before the log was durable"
    );
    drop(db);

    plan.reset();
    let db = SksDb::open(&dir, config()).unwrap();
    let recovered = image(&db);
    assert!(
        prefix_images(&units).contains(&recovered),
        "the reopened database is not a prefix of the commits"
    );
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Under a lazy policy a cross-partition commit pays exactly one fsync
/// before it is acknowledged, and a single-partition one none. A dead
/// fsync in that wait fails the commit and halts the engine, and the
/// reopened database holds the transaction whole or not at all.
#[test]
fn acknowledged_cross_partition_commits_are_durable() {
    let dir = tmpdir("acked_durable");
    let plan = FailPlan::new();
    let db = SksDb::open(&dir, config().wal_fault(plan.clone())).unwrap();
    let (p0, p1) = (keys_in(&db, 0, 8), keys_in(&db, 1, 8));
    for round in 0..4u64 {
        let i = round as usize;
        let before = fsyncs(&db);
        db.insert(p0[i], rec(p0[i], round)).unwrap();
        txn(&db, &[(p1[i], rec(p1[i], round)), (p1[i + 4], vec![7])]).unwrap();
        assert_eq!(fsyncs(&db), before, "single-partition commits pay none");
        txn(&db, &[(p0[i], rec(p0[i], 10)), (p1[i], rec(p1[i], 10))]).unwrap();
        assert_eq!(fsyncs(&db), before + 1, "a cross-partition commit pays one");
    }

    plan.arm_nth_flush(1);
    let (a, b) = (p0[7], p1[7]);
    let err = txn(&db, &[(a, rec(a, 99)), (b, rec(b, 99))]).expect_err("the wait's fsync dies");
    assert!(plan.tripped());
    assert_ne!(err.to_string(), EngineError::WalPoisoned.to_string());
    let halted = |what: &str, result: Result<(), EngineError>| {
        let err = result.expect_err(what);
        assert_eq!(
            err.to_string(),
            EngineError::WalPoisoned.to_string(),
            "{what}"
        );
    };
    halted("get", db.get(p0[0]).map(drop));
    halted("insert", db.insert(p0[6], rec(p0[6], 1)).map(drop));
    halted("checkpoint", db.checkpoint());
    drop(db);

    plan.reset();
    let db = SksDb::open(&dir, config()).unwrap();
    let present = [a, b].map(|k| db.get(k).unwrap() == Some(rec(k, 99)));
    assert!(
        present[0] == present[1],
        "the transaction replayed partially: {present:?}"
    );
    for i in 0..4 {
        assert_eq!(db.get(p0[i]).unwrap(), Some(rec(p0[i], 10)));
        assert_eq!(db.get(p1[i]).unwrap(), Some(rec(p1[i], 10)));
    }
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two cross-partition commits whose frames are both written before
/// either waits share one fsync, and both survive a reopen.
#[test]
fn commits_written_before_the_fsync_share_it() {
    let dir = tmpdir("group_commit");
    let db = SksDb::open(&dir, config()).unwrap();
    let (p0, p1) = (keys_in(&db, 0, 2), keys_in(&db, 1, 2));
    let first = vec![(p0[0], rec(p0[0], 1)), (p1[0], rec(p1[0], 1))];
    let second = vec![(p0[1], rec(p0[1], 2)), (p1[1], rec(p1[1], 2))];
    let before = fsyncs(&db);

    let (first_written, first_waits) = mpsc::channel();
    let (second_written, second_waits) = mpsc::channel();
    let commit = |writes: &[(u64, Vec<u8>)], before_wait: &dyn Fn()| {
        let mut t = db.begin();
        for (k, v) in writes {
            t.insert(*k, v.clone()).unwrap();
        }
        t.commit_with_wait_hook(before_wait)
    };
    let (commit, first_ref) = (&commit, &first);
    std::thread::scope(|s| {
        let leader = s.spawn(move || {
            commit(first_ref, &|| {
                first_written.send(()).unwrap();
                second_waits.recv().unwrap();
            })
        });
        first_waits.recv().unwrap();
        commit(&second, &|| second_written.send(()).unwrap()).unwrap();
        leader.join().unwrap().unwrap();
    });
    assert_eq!(fsyncs(&db), before + 1, "both frames rode one fsync");
    drop(db);

    let db = SksDb::open(&dir, config()).unwrap();
    for (k, v) in first.iter().chain(&second) {
        assert_eq!(db.get(*k).unwrap().as_ref(), Some(v), "key {k}");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A commit whose wait straddles a checkpoint is acknowledged, and pays
/// no fsync: its frame lands in the checkpoint's new segment after every
/// partition synced and committed, and the checkpoint makes that segment
/// durable before it removes the one it retired.
#[test]
fn a_wait_that_straddles_a_checkpoint_returns_ok() {
    let dir = tmpdir("straddle");
    let db = SksDb::open(&dir, config()).unwrap();
    let (p0, p1) = (keys_in(&db, 0, 2), keys_in(&db, 1, 2));
    db.insert(p0[1], rec(p0[1], 0)).unwrap();
    db.insert(p1[1], rec(p1[1], 0)).unwrap();
    let writes = [(p0[0], rec(p0[0], 3)), (p1[0], rec(p1[0], 3))];
    let before = fsyncs(&db);

    let (go, flushed) = mpsc::channel();
    let (written, frame_written) = mpsc::channel();
    let (cut, cut_done) = mpsc::channel();
    let (db_ref, writes_ref) = (&db, &writes);
    std::thread::scope(|s| {
        let committer = s.spawn(move || {
            flushed.recv().unwrap();
            let mut t = db_ref.begin();
            for (k, v) in writes_ref {
                t.insert(*k, v.clone()).unwrap();
            }
            t.commit_with_wait_hook(|| {
                written.send(()).unwrap();
                cut_done.recv().unwrap();
            })
        });
        db.checkpoint_with_hook(|step| {
            if step == 2 {
                // Both partitions have synced the log and committed.
                assert_eq!(db.dirty_pages_per_partition(), [0, 0]);
                go.send(()).unwrap();
                frame_written.recv().unwrap();
            }
        })
        .unwrap();
        cut.send(()).unwrap();
        committer.join().unwrap().unwrap();
    });
    assert_eq!(
        fsyncs(&db),
        before + 4,
        "the new segment's header, the retiring segment's fsync, partition \
         0's (partition 1 finds nothing new to sync) and the new segment's \
         before the removal, and none for the straddling wait"
    );
    drop(db);

    let db = SksDb::open(&dir, config()).unwrap();
    for (k, v) in &writes {
        assert_eq!(db.get(*k).unwrap().as_ref(), Some(v));
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every fsync a checkpoint makes of the log is counted: `wal_fsyncs`
/// moves by exactly the fsyncs the log's device saw, the new segment's
/// header included.
#[test]
fn a_checkpoint_counts_every_log_fsync_it_makes() {
    let dir = tmpdir("counted_fsyncs");
    let plan = FailPlan::new();
    let db = SksDb::open(&dir, config().wal_fault(plan.clone())).unwrap();
    for p in 0..2 {
        for k in keys_in(&db, p, 3) {
            db.insert(k, rec(k, 0)).unwrap();
        }
    }
    for round in 1..=2usize {
        plan.reset();
        let before = fsyncs(&db);
        db.checkpoint_with_hook(|step| {
            if step == 1 {
                // A write between the partitions' commits, for partition
                // 1's sync to cover.
                let k = keys_in(&db, 1, 1)[0];
                db.insert(k, rec(k, round as u64)).unwrap();
            }
        })
        .unwrap();
        let counted = fsyncs(&db) - before;
        assert_eq!(counted, plan.flushes_seen(), "round {round}");
        // Both rounds: the new segment's header and the retiring
        // segment. Round 1: partition 0's sync of the new sentinel, and
        // partition 1's of the hook's write. Round 2: partition 0 has
        // nothing new to commit, so partition 1's sync covers both.
        assert_eq!(counted, [4, 3][round - 1], "round {round}");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
