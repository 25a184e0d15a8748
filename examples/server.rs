//! A database "server" session demo on the **on-disk backend**: concurrent
//! clients over the WAL-backed, partitioned engine, a checkpoint that
//! flushes the enciphered pages and truncates the log, a crash in the
//! middle of a post-checkpoint workload, and a reopen *from the same
//! directory* that recovers by replaying only the WAL tail.
//!
//! ```text
//! cargo run --release --example server
//! ```

use std::time::Instant;

use sks_btree::core::{Scheme, SchemeConfig};
use sks_btree::engine::{EngineConfig, RecoveryPath, SksDb};
use sks_btree::storage::SyncPolicy;

const KEY_SPACE: u64 = 4_096;
const CLIENTS: u64 = 4;
const OPS_PER_CLIENT: u64 = 1_000;

fn record(k: u64) -> Vec<u8> {
    format!("employee:{k:08}").into_bytes()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("sks_server_example_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let scheme = SchemeConfig::with_capacity(Scheme::Oval, KEY_SPACE + 64).partitions(8);
    let config = EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32));

    println!("== sks-engine server demo (file backend) ==");
    println!(
        "scheme=oval partitions=8 capacity={KEY_SPACE} sync=group-commit(32) pool=128 pages\ndir={}",
        dir.display()
    );

    // ---- phase 1: preload, then serve concurrent client sessions --------
    let db = SksDb::open(&dir, config.clone()).expect("open engine");
    let preload = (0..KEY_SPACE / 2).map(|k| (k, record(k))).collect();
    db.insert_batch(preload).expect("preload");
    println!("\nphase 1: preloaded {} records", db.len());

    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let session = db.session();
            s.spawn(move || {
                for i in 0..OPS_PER_CLIENT {
                    let key = (i * 7_919 + client * 1_031) % KEY_SPACE;
                    if i % 4 == 0 {
                        session.insert(key, record(key)).expect("write");
                    } else {
                        session.get(key).expect("read");
                    }
                }
            });
        }
    });
    println!(
        "  {CLIENTS} sessions x {OPS_PER_CLIENT} ops (1 in 4 a write) in {:?}",
        start.elapsed()
    );
    let snap = db.snapshot();
    println!(
        "  partition fill: {:?}\n  wal: {} appends, {} fsyncs (group commit), {} bytes",
        db.partition_lens(),
        snap.wal_appends,
        snap.wal_fsyncs,
        snap.wal_bytes,
    );

    // ---- phase 2: checkpoint = flush enciphered pages + truncate WAL ----
    let before = db.wal_len_bytes();
    db.checkpoint().expect("checkpoint");
    println!(
        "\nphase 2: checkpoint flushed dirty pages to disk, wal {before} -> {} bytes",
        db.wal_len_bytes()
    );

    // A short post-checkpoint workload, then "crash" mid-flight (drop
    // without any shutdown protocol: the dirty page cache dies with the
    // process, only the WAL tail survives).
    let session = db.session();
    for k in 0..64u64 {
        session
            .insert(k, format!("post-checkpoint-{k}").into_bytes())
            .expect("insert");
    }
    let len_at_crash = db.len();
    drop(session);
    drop(db);
    println!("phase 3: process \"crashed\" holding {len_at_crash} records");

    // ---- phase 3: recovery from the same directory ----------------------
    let db = SksDb::open(&dir, config).expect("reopen after crash");
    let report = db.recovery_report();
    println!(
        "  recovery path: {:?} — {} records replayed (only the post-checkpoint tail), \
         torn_tail={}, {} bytes discarded",
        report.path, report.records_replayed, report.torn_tail, report.bytes_discarded
    );
    assert_eq!(report.path, RecoveryPath::TailReplay);
    assert_eq!(
        report.records_replayed, 64,
        "only the 64 tail writes are replayed, not the {len_at_crash}-record dataset"
    );
    assert_eq!(db.len(), len_at_crash, "recovery restored every record");
    let check = db.session();
    assert_eq!(
        check.get(10).expect("get").expect("present"),
        b"post-checkpoint-10"
    );
    db.validate()
        .expect("recovered trees are structurally sound");
    println!(
        "  verified: all {} records readable after an O(tail) restart ✓",
        db.len()
    );

    std::fs::remove_dir_all(&dir).ok();
}
