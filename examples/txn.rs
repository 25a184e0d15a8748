//! Transactions: move value between two accounts that live in
//! *different* partitions, atomically — then crash mid-flight and show
//! that recovery never exposes a half-applied transfer.
//!
//! ```sh
//! cargo run --example txn
//! ```

use sks_btree::core::{Scheme, SchemeConfig};
use sks_btree::engine::{EngineConfig, EngineError, SksDb};
use sks_btree::storage::SyncPolicy;

fn balance(v: &[u8]) -> u64 {
    u64::from_be_bytes(v.try_into().expect("8-byte balance"))
}

fn enc(n: u64) -> Vec<u8> {
    n.to_be_bytes().to_vec()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("sks_txn_example_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let make_config = || {
        EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 4096).partitions(4))
            .sync(SyncPolicy::Always)
    };

    let db = SksDb::open(&dir, make_config()).expect("open");

    // Two accounts routed to different partitions (the router hashes the
    // *disguised* key, so we probe for a cross-partition pair).
    let alice = 1u64;
    let mut bob = 2u64;
    while db.partition_of(bob).unwrap() == db.partition_of(alice).unwrap() {
        bob += 1;
    }
    println!(
        "alice = key {alice} (partition {}), bob = key {bob} (partition {})",
        db.partition_of(alice).unwrap(),
        db.partition_of(bob).unwrap()
    );
    db.insert(alice, enc(1_000)).expect("fund alice");
    db.insert(bob, enc(1_000)).expect("fund bob");

    // A snapshot begun *before* the transfer keeps seeing the old world,
    // even while the transfer commits underneath it.
    let before = db.begin();

    // The transfer: both writes buffer in the Txn and hit the log as ONE
    // commit frame; first-committer-wins conflicts ask us to retry.
    let mut moved = false;
    while !moved {
        let mut txn = db.begin();
        let a = balance(&txn.get(alice).expect("read").expect("alice exists"));
        let b = balance(&txn.get(bob).expect("read").expect("bob exists"));
        txn.insert(alice, enc(a - 250)).expect("debit");
        txn.insert(bob, enc(b + 250)).expect("credit");
        match txn.commit() {
            Ok(()) => moved = true,
            Err(EngineError::Conflict { key, .. }) => {
                println!("conflict on key {key}, retrying");
            }
            Err(e) => panic!("commit failed: {e}"),
        }
    }
    println!(
        "after commit: alice={} bob={}",
        balance(&db.get(alice).unwrap().unwrap()),
        balance(&db.get(bob).unwrap().unwrap()),
    );
    println!(
        "the pre-transfer snapshot still reads: alice={} bob={}",
        balance(&before.get(alice).unwrap().unwrap()),
        balance(&before.get(bob).unwrap().unwrap()),
    );
    drop(before);

    let snap = db.snapshot();
    println!(
        "txn commits={} aborts={} conflicts={} wal sealed batches={}",
        snap.txn_commits, snap.txn_aborts, snap.txn_conflicts, snap.wal_sealed_batches
    );

    // "Crash": drop the engine with a second transfer buffered but never
    // committed. Buffered writes live only in the Txn — they touch
    // neither the trees nor the log until commit.
    {
        let mut doomed = db.begin();
        doomed.insert(alice, enc(0)).expect("debit");
        doomed.insert(bob, enc(9_999)).expect("credit");
        // ... power fails here: `doomed` is dropped un-committed.
    }
    drop(db);

    // Recovery replays the log; the committed transfer is intact and the
    // uncommitted one left no trace — the books still balance.
    let db = SksDb::open(&dir, make_config()).expect("recover");
    let a = balance(&db.get(alice).unwrap().unwrap());
    let b = balance(&db.get(bob).unwrap().unwrap());
    println!("after crash + recovery: alice={a} bob={b} (sum {})", a + b);
    assert_eq!((a, b), (750, 1_250));
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
