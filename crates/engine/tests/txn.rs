//! Multi-key transactions end to end: snapshot isolation semantics,
//! first-committer-wins conflicts, atomic cross-partition commits under
//! concurrency and crash, checkpoint interaction, and the cost-model pin
//! that autocommit ops stayed byte-identical to the pre-transaction
//! engine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use proptest::prelude::*;
use sks_core::{Scheme, SchemeConfig};
use sks_engine::{EngineConfig, EngineError, SksDb, SyncTicket, Wal};
use sks_storage::{FailMode, FailPlan, FailStore, LogFile, OpCounters, OpSnapshot, SyncPolicy};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sks_txn_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `partitions` partitions, each with the engine's fixed buffer pool.
fn config(partitions: usize, capacity: u64) -> EngineConfig {
    EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, capacity).partitions(partitions))
}

fn rec(k: u64) -> Vec<u8> {
    format!("txn-record-{k:05}").into_bytes()
}

fn enc(n: u64) -> Vec<u8> {
    n.to_be_bytes().to_vec()
}

fn dec(v: &[u8]) -> u64 {
    u64::from_be_bytes(v.try_into().expect("8-byte balance"))
}

/// Keys routed to `want` distinct partitions, one key each, scanning up
/// from 1 (0 is outside some disguise domains).
fn keys_in_distinct_partitions(db: &SksDb, want: usize) -> Vec<u64> {
    let mut seen = std::collections::BTreeMap::new();
    for k in 1..2000u64 {
        let p = db.partition_of(k).unwrap();
        seen.entry(p).or_insert(k);
        if seen.len() == want {
            break;
        }
    }
    assert_eq!(
        seen.len(),
        want,
        "router must spread keys over {want} partitions"
    );
    seen.into_values().collect()
}

/// Snapshot isolation basics: read-your-own-writes, snapshot stability
/// against later commits, abort/drop semantics, the finished/poisoned
/// state machine, and an overlay that drains to zero.
#[test]
fn txn_snapshot_reads_and_state_machine() {
    let dir = tmpdir("semantics");
    let db = SksDb::open(&dir, config(4, 4096)).unwrap();
    let session = db.session();
    for k in 1..40u64 {
        session.insert(k, rec(k)).unwrap();
    }

    // Snapshot stability: a txn begun now never sees later autocommit
    // traffic, while read-committed sessions do.
    let t = session.begin();
    assert_eq!(t.get(7).unwrap().unwrap(), rec(7));
    session
        .insert(7, b"overwritten-after-snapshot".to_vec())
        .unwrap();
    session.insert(500, rec(500)).unwrap();
    session.delete(9).unwrap();
    assert_eq!(t.get(7).unwrap().unwrap(), rec(7), "snapshot must not move");
    assert_eq!(t.get(500).unwrap(), None, "post-snapshot insert invisible");
    assert_eq!(
        t.get(9).unwrap().unwrap(),
        rec(9),
        "post-snapshot delete invisible"
    );
    let scan = t.range(1, 40).unwrap();
    assert_eq!(scan.len(), 39, "snapshot scan sees the begin-time key set");
    assert!(
        scan.iter().all(|(k, v)| *v == rec(*k)),
        "scan rewinds overwrites"
    );
    drop(t); // drop-abort
    assert!(
        db.txn_overlay_len() == 0,
        "overlay drains when the last snapshot dies"
    );
    assert_eq!(
        session.get(7).unwrap().unwrap(),
        b"overwritten-after-snapshot".to_vec()
    );

    // Read-your-own-writes + buffered deletes, invisible until commit.
    let mut t = session.begin();
    t.insert(100, b"buffered".to_vec()).unwrap();
    t.delete(11).unwrap();
    assert_eq!(t.get(100).unwrap().unwrap(), b"buffered".to_vec());
    assert_eq!(t.get(11).unwrap(), None);
    let scan = t.range(10, 100).unwrap();
    assert!(
        scan.iter().any(|(k, _)| *k == 100),
        "own insert visible to own scan"
    );
    assert!(
        scan.iter().all(|(k, _)| *k != 11),
        "own delete visible to own scan"
    );
    assert_eq!(
        session.get(100).unwrap(),
        None,
        "buffered writes invisible outside"
    );
    assert_eq!(session.get(11).unwrap().unwrap(), rec(11));
    t.commit().unwrap();
    assert_eq!(session.get(100).unwrap().unwrap(), b"buffered".to_vec());
    assert_eq!(session.get(11).unwrap(), None);

    // The handle is spent after commit.
    assert!(matches!(t.get(1), Err(EngineError::TxnAborted)));
    assert!(matches!(t.insert(1, vec![1]), Err(EngineError::TxnAborted)));
    assert!(matches!(t.commit(), Err(EngineError::TxnAborted)));

    // Explicit abort discards everything.
    let mut t = session.begin();
    t.insert(200, b"doomed".to_vec()).unwrap();
    t.abort().unwrap();
    assert_eq!(session.get(200).unwrap(), None);
    assert!(matches!(t.abort(), Err(EngineError::TxnAborted)));

    // Empty commit is a no-op that still counts.
    let mut t = session.begin();
    t.commit().unwrap();

    let snap = db.snapshot();
    assert_eq!(snap.txn_begins, 4);
    assert_eq!(snap.txn_commits, 2);
    assert_eq!(snap.txn_aborts, 2);
    assert_eq!(db.txn_overlay_len(), 0);

    // Batch commits reach the overlay too: a snapshot held across an
    // insert_batch that overwrites two keys and inserts a third rewinds
    // all three, and a txn whose snapshot predates the batch conflicts
    // on any key it wrote.
    let t = session.begin();
    let mut stale = session.begin();
    let before = t.range(1, 600).unwrap();
    session
        .insert_batch(vec![
            (1, b"batch-1".to_vec()),
            (2, b"batch-2".to_vec()),
            (600, b"batch-600".to_vec()),
        ])
        .unwrap();
    assert_eq!(session.get(600).unwrap().unwrap(), b"batch-600".to_vec());
    assert_eq!(t.get(1).unwrap().unwrap(), rec(1));
    assert_eq!(t.get(2).unwrap().unwrap(), rec(2));
    assert_eq!(t.get(600).unwrap(), None);
    assert_eq!(t.range(1, 600).unwrap(), before, "scan rewinds the batch");
    stale.insert(2, b"stale".to_vec()).unwrap();
    assert!(matches!(
        stale.commit(),
        Err(EngineError::Conflict { key: 2, .. })
    ));
    drop(t);
    assert_eq!(db.txn_overlay_len(), 0);
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();

    // The same for a bulk load into a fresh database.
    let dir = tmpdir("semantics_bulk");
    let db = SksDb::open(&dir, config(4, 4096)).unwrap();
    let t = db.begin();
    let mut stale = db.begin();
    db.bulk_load((1..=20u64).map(|k| (k, rec(k))).collect())
        .unwrap();
    assert_eq!(db.get(5).unwrap().unwrap(), rec(5));
    assert_eq!(t.get(5).unwrap(), None, "loaded keys are invisible");
    assert!(t.range(1, 20).unwrap().is_empty(), "scan rewinds the load");
    stale.insert(5, b"stale".to_vec()).unwrap();
    assert!(matches!(
        stale.commit(),
        Err(EngineError::Conflict { key: 5, .. })
    ));
    drop(t);
    assert_eq!(db.txn_overlay_len(), 0);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// First-committer-wins: a commit whose written key was committed by
/// someone else after its snapshot aborts with the key and partition,
/// nothing is applied, and a fresh txn retries cleanly.
#[test]
fn conflicts_are_first_committer_wins() {
    let dir = tmpdir("conflict");
    let db = SksDb::open(&dir, config(4, 4096)).unwrap();
    let keys = keys_in_distinct_partitions(&db, 2);
    let (a, b) = (keys[0], keys[1]);
    db.insert(a, enc(1)).unwrap();
    db.insert(b, enc(2)).unwrap();

    let mut loser = db.begin();
    let mut winner = db.begin();
    winner.insert(a, enc(10)).unwrap();
    winner.commit().unwrap();

    loser.insert(a, enc(99)).unwrap();
    loser.insert(b, enc(98)).unwrap();
    match loser.commit() {
        Err(EngineError::Conflict { key, partition }) => {
            assert_eq!(key, a);
            assert_eq!(partition, db.partition_of(a).unwrap());
        }
        other => panic!("expected Conflict, got {other:?}"),
    }
    // Nothing from the losing txn landed — not even its non-conflicting
    // write.
    assert_eq!(db.get(a).unwrap().unwrap(), enc(10));
    assert_eq!(db.get(b).unwrap().unwrap(), enc(2));
    // The conflicted handle is finished (retry = new txn), not poisoned.
    assert!(matches!(loser.get(a), Err(EngineError::TxnAborted)));

    let mut retry = db.begin();
    assert_eq!(
        retry.get(a).unwrap().unwrap(),
        enc(10),
        "fresh snapshot sees the winner"
    );
    retry.insert(a, enc(99)).unwrap();
    retry.insert(b, enc(98)).unwrap();
    retry.commit().unwrap();
    assert_eq!(db.get(a).unwrap().unwrap(), enc(99));
    assert_eq!(db.get(b).unwrap().unwrap(), enc(98));

    let snap = db.snapshot();
    assert_eq!(snap.txn_conflicts, 1);
    // Exactly one commit above was multi-key (the retry); the winner's
    // single write is a frame of one, not a sealed batch.
    assert_eq!(snap.wal_sealed_batches, 1, "multi-key commits seal batches");
    assert_eq!(db.txn_overlay_len(), 0);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshot readers never block on a commit in flight: while a
/// cross-partition commit holds its write locks (mid-commit hook), a
/// snapshot read of a *third* partition must complete — the commit is
/// gated on that progress.
#[test]
fn snapshot_reader_progresses_while_commit_holds_its_locks() {
    let dir = tmpdir("progress");
    let db = SksDb::open(&dir, config(4, 4096)).unwrap();
    let keys = keys_in_distinct_partitions(&db, 3);
    let (a, b, c) = (keys[0], keys[1], keys[2]);
    for &k in &[a, b, c] {
        db.insert(k, rec(k)).unwrap();
    }

    // The reader's snapshot exists before the commit starts.
    let reader_txn = db.begin();
    let (start_tx, start_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        start_rx.recv().unwrap();
        let v = reader_txn.get(c).unwrap();
        done_tx.send(v).unwrap();
    });

    let mut writer = db.begin();
    writer.insert(a, b"committed-a".to_vec()).unwrap();
    writer.insert(b, b"committed-b".to_vec()).unwrap();
    writer
        .commit_with_hook(|| {
            // Partitions of `a` and `b` are write-locked right now.
            start_tx.send(()).unwrap();
            let v = done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("snapshot reader must progress while the commit is in flight");
            assert_eq!(v.unwrap(), rec(c));
        })
        .unwrap();
    reader.join().unwrap();
    assert_eq!(db.get(a).unwrap().unwrap(), b"committed-a".to_vec());
    assert_eq!(db.get(b).unwrap().unwrap(), b"committed-b".to_vec());
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A transaction committed in the middle of a checkpoint is one frame in
/// the checkpoint's new segment, and reopening replays it all-or-nothing
/// alongside autocommit traffic.
#[test]
fn checkpoint_cut_preserves_txn_frames_and_reopen_converges() {
    let dir = tmpdir("ckpt");
    let make = || config(3, 4096).sync(SyncPolicy::Always);
    let keys;
    {
        let db = SksDb::open(&dir, make()).unwrap();
        for k in 1..60u64 {
            db.insert(k, rec(k)).unwrap();
        }
        keys = keys_in_distinct_partitions(&db, 3);
        // A multi-partition txn committed before the mark…
        let mut t = db.begin();
        t.insert(keys[0], b"pre-mark-0".to_vec()).unwrap();
        t.insert(keys[1], b"pre-mark-1".to_vec()).unwrap();
        t.commit().unwrap();
        // …and one committed *mid-checkpoint*, right after the segment
        // switch: it lands in the new segment as one txn frame.
        db.checkpoint_with_hook(|step| {
            if step == 0 {
                let mut t = db.begin();
                t.insert(keys[0], b"mid-ckpt-0".to_vec()).unwrap();
                t.insert(keys[2], b"mid-ckpt-2".to_vec()).unwrap();
                t.commit().unwrap();
            }
        })
        .unwrap();
        // Post-checkpoint txn traffic on the fresh log.
        let mut t = db.begin();
        t.insert(keys[1], b"post-ckpt-1".to_vec()).unwrap();
        t.insert(keys[2], b"post-ckpt-2".to_vec()).unwrap();
        t.commit().unwrap();
        assert!(db.snapshot().txn_commits >= 3);
        // Kill: drop without flush (Always already made commits durable).
    }
    let db = SksDb::open(&dir, make()).unwrap();
    assert_eq!(db.get(keys[0]).unwrap().unwrap(), b"mid-ckpt-0".to_vec());
    assert_eq!(db.get(keys[1]).unwrap().unwrap(), b"post-ckpt-1".to_vec());
    assert_eq!(db.get(keys[2]).unwrap().unwrap(), b"post-ckpt-2".to_vec());
    for k in 1..60u64 {
        if !keys.contains(&k) {
            assert_eq!(db.get(k).unwrap().unwrap(), rec(k), "key {k}");
        }
    }
    db.validate().unwrap();
    // A second full cycle over the recovered database.
    db.checkpoint().unwrap();
    drop(db);
    let db = SksDb::open(&dir, make()).unwrap();
    assert_eq!(db.get(keys[0]).unwrap().unwrap(), b"mid-ckpt-0".to_vec());
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash-probe sweep over multi-key commit frames: a fault-injecting
/// device kills the log mid-stream — torn block write, clean write
/// error, or a dead fsync — at seed-derived kill points, and every
/// reopen must observe each transaction either fully applied or fully
/// absent (and the survivors a prefix in commit order). The sweep runs
/// twice: under `Always`, where each commit fsyncs inline, and under the
/// lazy `EveryN(4)`, where each frame is acknowledged once its deferred
/// durability wait returns — the engine's cross-partition path — so the
/// fault seeds reach that wait too. There, every acknowledged transaction
/// must survive, and a failed wait fail-stops the log.
#[test]
fn txn_commit_kill_point_sweep_is_all_or_nothing() {
    const PIECE: usize = 512;
    const TXNS: u64 = 16;
    for policy in [SyncPolicy::Always, SyncPolicy::EveryN(4)] {
        let lazy = policy != SyncPolicy::Always;
        let mut faults_fired = 0u32;
        for run in 0..18u64 {
            let seed = run / 3;
            let dir = tmpdir(&format!("kill_{run}_{lazy}"));
            std::fs::create_dir_all(&dir).unwrap();
            let cfg = config(4, 4096).sync(policy);
            let wal_path = dir.join("wal-1.sks");

            let counters = OpCounters::new();
            let file = LogFile::create(&wal_path, counters.clone()).unwrap();
            let (fail, plan): (FailStore<LogFile>, FailPlan) = FailStore::new(file);
            let mut wal =
                Wal::create_on_device(fail, PIECE, cfg.wal_key(), policy, counters).unwrap();

            // Committed autocommit prelude, then arm the fault and drive txn
            // commit frames into it.
            for k in 1..=4u64 {
                wal.append_insert(k, &rec(k)).unwrap();
                wal.commit().unwrap();
            }
            wal.flush().unwrap();
            match run % 3 {
                0 => drop(plan.arm_from_seed(seed, 12, FailMode::Torn)),
                1 => drop(plan.arm_from_seed(seed, 12, FailMode::Error)),
                _ => plan.arm_nth_flush(seed + 1),
            }
            let mut acked = 0;
            'workload: for t in 0..TXNS {
                let value = enc(t);
                let group = [100 + t, 200 + t, 300 + t].map(|k| (k, Some(&value[..])));
                if wal.append_group(group).is_err() {
                    break 'workload;
                }
                let committed = if lazy {
                    wal.commit_durable()
                        .and_then(|ticket| ticket.map_or(Ok(()), SyncTicket::wait))
                } else {
                    wal.commit()
                };
                if committed.is_err() {
                    if lazy {
                        assert!(wal.is_poisoned(), "run {run}: a failed wait must fail-stop");
                    }
                    break 'workload;
                }
                acked = t + 1;
            }
            let _ = wal.flush();
            if plan.tripped() {
                faults_fired += 1;
            }
            drop(wal);

            // Reboot through the engine over whatever the medium holds.
            let db = SksDb::open(&dir, cfg).unwrap();
            for k in 1..=4u64 {
                assert_eq!(db.get(k).unwrap().unwrap(), rec(k), "run {run}: prelude");
            }
            let mut alive_prefix = true;
            for t in 0..TXNS {
                let present: Vec<bool> = [100 + t, 200 + t, 300 + t]
                    .iter()
                    .map(|&k| db.get(k).unwrap().is_some())
                    .collect();
                assert!(
                    present.iter().all(|&p| p) || present.iter().all(|&p| !p),
                    "run {run}: txn {t} replayed partially: {present:?}"
                );
                if lazy && t < acked {
                    assert!(present[0], "run {run}: acknowledged txn {t} was lost");
                }
                if present[0] {
                    assert!(
                        alive_prefix,
                        "run {run}: txn {t} survived after an earlier txn was lost"
                    );
                    for &k in &[100 + t, 200 + t, 300 + t] {
                        assert_eq!(db.get(k).unwrap().unwrap(), enc(t), "run {run}");
                    }
                } else {
                    alive_prefix = false;
                }
            }
            // The scrubbed log accepts transactional traffic again.
            let mut t = db.begin();
            t.insert(900, b"post-recovery-a".to_vec()).unwrap();
            t.insert(901, b"post-recovery-b".to_vec()).unwrap();
            t.commit().unwrap();
            assert_eq!(db.get(900).unwrap().unwrap(), b"post-recovery-a".to_vec());
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(
            faults_fired >= 15,
            "the sweep must exercise its fault plans: {faults_fired}/18 fired"
        );
    }
}

/// The cost-model pin: autocommit ops through `SksDb`, through a
/// `Session`, and as explicit singleton transactions must agree on every
/// logical counter (the txn bookkeeping counters masked for the explicit
/// run — they are the only thing allowed to move), with no sealed batch
/// but the `insert_batch` groups, for every measured scheme.
#[test]
fn transactions_preserve_logical_counters_exactly() {
    for scheme in Scheme::MEASURED {
        let run = |mode: u8| -> OpSnapshot {
            let dir = tmpdir(&format!("pin_{}_{mode}", scheme.name()));
            let cfg = SchemeConfig::with_capacity(scheme, 4096).partitions(2);
            let db = SksDb::open(&dir, EngineConfig::new(cfg).sync(SyncPolicy::EveryN(4))).unwrap();
            let session = db.session();
            let put = |k: u64, v: Vec<u8>| match mode {
                0 => {
                    db.insert(k, v).unwrap();
                }
                1 => {
                    session.insert(k, v).unwrap();
                }
                _ => {
                    let mut t = session.begin();
                    t.insert(k, v).unwrap();
                    t.commit().unwrap();
                }
            };
            let del = |k: u64| match mode {
                0 => {
                    db.delete(k).unwrap();
                }
                1 => {
                    session.delete(k).unwrap();
                }
                _ => {
                    let mut t = session.begin();
                    t.delete(k).unwrap();
                    t.commit().unwrap();
                }
            };
            let read = |k: u64| match mode {
                0 => {
                    let _ = db.get(k).unwrap();
                }
                1 => {
                    let _ = session.get(k).unwrap();
                }
                _ => {
                    let mut t = session.begin();
                    let _ = t.get(k).unwrap();
                    t.commit().unwrap();
                }
            };
            for k in 1..120u64 {
                put(k, rec(k));
            }
            // Batches ride the same path in every mode (a batch group is
            // one implicit transaction either way).
            session
                .insert_batch((120..160u64).map(|k| (k, rec(k))).collect())
                .unwrap();
            for k in (1..120u64).step_by(4) {
                put(k, rec(k + 1));
            }
            for k in (1..120u64).step_by(7) {
                del(k);
            }
            for k in (1..160u64).step_by(3) {
                read(k);
            }
            let _ = match mode {
                0 => db.range(20, 90).unwrap(),
                1 => session.range(20, 90).unwrap(),
                _ => {
                    let mut t = session.begin();
                    let rows = t.range(20, 90).unwrap();
                    t.commit().unwrap();
                    rows
                }
            };
            let snap = db.snapshot();
            drop(session);
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
            snap
        };
        let direct = run(0);
        let auto = run(1);
        let explicit = run(2);

        assert_eq!(
            direct,
            auto,
            "{}: Session autocommit diverged from SksDb",
            scheme.name()
        );
        assert!(
            (1..=2).contains(&direct.wal_sealed_batches),
            "{}: only the insert_batch partition groups seal batches",
            scheme.name()
        );
        assert_eq!(
            explicit.wal_sealed_batches,
            direct.wal_sealed_batches,
            "{}: singleton txns must seal frames of one",
            scheme.name()
        );
        assert_eq!(direct.txn_begins, 0, "{}", scheme.name());
        assert!(explicit.txn_begins > 0, "{}", scheme.name());
        // The explicit run may move only the txn bookkeeping counters.
        let mut masked = explicit;
        masked.txn_begins = 0;
        masked.txn_commits = 0;
        masked.txn_aborts = 0;
        assert_eq!(
            masked,
            direct,
            "{}: explicit singleton txns changed the logical cost model",
            scheme.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized concurrent transfers: writer threads move value between
    /// accounts under retry-on-conflict while snapshot scanners run
    /// throughout. Every snapshot scan must see the exact conserved total
    /// (an atomicity violation or torn cross-partition commit breaks the
    /// sum), and — because first-committer-wins forbids lost updates —
    /// the final state must equal the initial state plus the net of the
    /// logged successful transfers, i.e. *some* serial order of them.
    #[test]
    fn concurrent_transfers_serialize_and_never_tear(
        seed in 0u64..1_000_000,
        writers in 2usize..5,
        transfers in 4usize..12,
    ) {
        const ACCOUNTS: u64 = 8;
        const INITIAL: u64 = 1_000;
        let dir = tmpdir(&format!("prop_{seed}_{writers}_{transfers}"));
        let db = SksDb::open(&dir, config(4, 4096).sync(SyncPolicy::EveryN(2))).unwrap();
        for k in 1..=ACCOUNTS {
            db.insert(k, enc(INITIAL)).unwrap();
        }
        let total = ACCOUNTS * INITIAL;
        let stop = Arc::new(AtomicBool::new(false));

        // Snapshot scanners: the sum invariant must hold on every scan.
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scans = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let t = db.begin();
                        let rows = t.range(1, ACCOUNTS).unwrap();
                        assert_eq!(rows.len() as u64, ACCOUNTS, "accounts vanished mid-scan");
                        let sum: u64 = rows.iter().map(|(_, v)| dec(v)).sum();
                        assert_eq!(sum, total, "a snapshot scan saw a torn commit");
                        scans += 1;
                    }
                    scans
                })
            })
            .collect();

        let workers: Vec<_> = (0..writers)
            .map(|w| {
                let db = Arc::clone(&db);
                let mut rng = seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                std::thread::spawn(move || {
                    let mut log = Vec::new();
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    for _ in 0..transfers {
                        let from = next() % ACCOUNTS + 1;
                        let mut to = next() % ACCOUNTS + 1;
                        if to == from {
                            to = to % ACCOUNTS + 1;
                        }
                        let amt = next() % 50 + 1;
                        let mut attempts = 0;
                        loop {
                            attempts += 1;
                            let mut t = db.begin();
                            let bal_from = dec(&t.get(from).unwrap().unwrap());
                            if bal_from < amt {
                                break; // insufficient funds: skip
                            }
                            let bal_to = dec(&t.get(to).unwrap().unwrap());
                            t.insert(from, enc(bal_from - amt)).unwrap();
                            t.insert(to, enc(bal_to + amt)).unwrap();
                            match t.commit() {
                                Ok(()) => {
                                    log.push((from, to, amt));
                                    break;
                                }
                                Err(EngineError::Conflict { .. }) if attempts < 100 => continue,
                                Err(e) => panic!("commit failed: {e}"),
                            }
                        }
                    }
                    log
                })
            })
            .collect();

        let mut committed = Vec::new();
        for w in workers {
            committed.extend(w.join().unwrap());
        }
        stop.store(true, Ordering::Release);
        for s in scanners {
            prop_assert!(s.join().unwrap() > 0, "scanners must have run");
        }

        // No lost updates: the final balances are exactly the initial
        // state plus the net of the committed transfers.
        let mut expect: std::collections::BTreeMap<u64, u64> =
            (1..=ACCOUNTS).map(|k| (k, INITIAL)).collect();
        for (from, to, amt) in &committed {
            *expect.get_mut(from).unwrap() -= amt;
            *expect.get_mut(to).unwrap() += amt;
        }
        for (k, want) in &expect {
            prop_assert_eq!(dec(&db.get(*k).unwrap().unwrap()), *want, "account {}", k);
        }
        prop_assert_eq!(db.txn_overlay_len(), 0);

        // Durability: the committed state survives a reopen (a multi-
        // partition commit is durable before it is acknowledged, whatever
        // the lazy policy, its fsync paid after the apply and outside its
        // locks; same-partition ones are covered by the final flush).
        db.flush().unwrap();
        drop(db);
        let db = SksDb::open(&dir, config(4, 4096).sync(SyncPolicy::EveryN(2))).unwrap();
        for (k, want) in &expect {
            prop_assert_eq!(dec(&db.get(*k).unwrap().unwrap()), *want, "reopened account {}", k);
        }
        db.validate().unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
