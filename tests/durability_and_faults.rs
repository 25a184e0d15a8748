//! Durability and fault injection: enciphered trees on real files, trees
//! behind the block cache, corrupted media producing typed errors
//! instead of garbage or panics, and engine writes the tree would refuse
//! kept out of the log.

use std::sync::Arc;

use sks_btree::btree::{BTree, CodecError, RecordPtr, TreeError};
use sks_btree::core::{CoreError, Scheme, SchemeConfig};
use sks_btree::engine::{EngineConfig, EngineError, SksDb};
use sks_btree::storage::{BlockId, BlockStore, FileDisk, MemDisk, OpCounters, PagedFileStore};

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sks_it_{}_{}", std::process::id(), name));
    p
}

/// A fully enciphered (oval-substituted, DES-sealed) B-tree persisted to a
/// real file survives process "restart": reopen with the same secrets and
/// read everything back.
#[test]
fn enciphered_tree_persists_on_file_disk() {
    let path = tmpfile("enc_persist");
    let cfg = SchemeConfig::with_capacity(Scheme::Oval, 600);
    let counters = OpCounters::new();
    {
        let (codec, _) = cfg.build_codec(&counters).unwrap();
        let disk = FileDisk::create(&path, cfg.block_size).unwrap();
        let mut tree = BTree::create(disk, codec).unwrap();
        for k in 0..500u64 {
            tree.insert(k, RecordPtr(k * 7)).unwrap();
        }
        tree.flush().unwrap();
        // Dropping the tree simulates process exit.
    }
    {
        // "Restart": rebuild the codec from the same (secret) config.
        let (codec, _) = cfg.build_codec(&counters).unwrap();
        let disk = FileDisk::open(&path).unwrap();
        let tree = BTree::open(disk, codec).unwrap();
        assert_eq!(tree.len(), 500);
        for k in (0..500u64).step_by(37) {
            assert_eq!(tree.get(k).unwrap(), Some(RecordPtr(k * 7)), "key {k}");
        }
        tree.validate().unwrap();
    }
    std::fs::remove_file(&path).ok();
}

/// Reopening with the wrong tree key must fail loudly (binding mismatch or
/// corrupt-node error), never return wrong data.
#[test]
fn wrong_key_cannot_read_the_file() {
    let path = tmpfile("wrong_key");
    let cfg = SchemeConfig::with_capacity(Scheme::Oval, 100);
    let counters = OpCounters::new();
    {
        let (codec, _) = cfg.build_codec(&counters).unwrap();
        let disk = FileDisk::create(&path, cfg.block_size).unwrap();
        let mut tree = BTree::create(disk, codec).unwrap();
        for k in 0..80u64 {
            tree.insert(k, RecordPtr(k)).unwrap();
        }
        tree.flush().unwrap();
    }
    {
        let mut bad_cfg = cfg.clone();
        bad_cfg.tree_key ^= 0xFFFF; // attacker guesses the wrong K_E
        let (codec, _) = bad_cfg.build_codec(&counters).unwrap();
        let disk = FileDisk::open(&path).unwrap();
        let tree = BTree::open(disk, codec).unwrap(); // superblock is plaintext
                                                      // Any traversal must error out on the first sealed pointer.
        let err = tree.get(40).unwrap_err();
        assert!(matches!(err, TreeError::Codec(_)), "got: {err}");
    }
    std::fs::remove_file(&path).ok();
}

/// The same enciphered tree works unchanged behind the checkpointing
/// paged file store, and repeated lookups stop hitting the physical
/// device while still paying decryptions (the cache sits *below* the
/// crypto, like the paper's hardware unit).
#[test]
fn enciphered_tree_behind_paged_file_store() {
    let path = tmpfile("paged_cache");
    let cfg = SchemeConfig::with_capacity(Scheme::Oval, 600);
    let counters = OpCounters::new();
    let (codec, _) = cfg.build_codec(&counters).unwrap();
    let store = PagedFileStore::create(&path, cfg.block_size, 64, counters.clone()).unwrap();
    let mut tree = BTree::create(store, codec).unwrap();
    for k in 0..500u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    tree.flush().unwrap(); // checkpoint: pages reach the file, frames go clean
    counters.reset();
    for _ in 0..50 {
        assert_eq!(tree.get(123).unwrap(), Some(RecordPtr(123)));
    }
    let s = counters.snapshot();
    assert!(s.cache_hits >= 90, "cache hits {}", s.cache_hits);
    assert!(
        s.block_reads <= 5,
        "physical reads {} despite cache",
        s.block_reads
    );
    assert!(
        s.ptr_decrypts >= 50,
        "decryptions still happen above the cache: {}",
        s.ptr_decrypts
    );
    tree.validate().unwrap();
    std::fs::remove_file(&path).ok();
}

/// Flipping bytes anywhere in a node block is detected as a typed error on
/// the next read — no panic, no silent wrong answer.
#[test]
fn corrupted_node_blocks_yield_typed_errors() {
    let cfg = SchemeConfig::with_capacity(Scheme::Oval, 300);
    let counters = OpCounters::new();
    let (codec, _) = cfg.build_codec(&counters).unwrap();
    let disk = MemDisk::with_counters(cfg.block_size, counters.clone());
    let mut tree = BTree::create(disk, codec).unwrap();
    for k in 0..250u64 {
        tree.insert(k, RecordPtr(k)).unwrap();
    }
    let mut store = tree.into_store().unwrap();

    // Corrupt every non-superblock block in a different byte position.
    let n = store.num_blocks();
    for (i, block) in (1..n).enumerate() {
        let mut page = store.read_block_vec(BlockId(block)).unwrap();
        let pos = 8 + (i * 13) % (page.len() - 8); // past the header
        page[pos] ^= 0x80;
        store.write_block(BlockId(block), &page).unwrap();
    }

    let (codec, _) = cfg.build_codec(&counters).unwrap();
    let tree = BTree::open(store, codec).unwrap();
    let mut failures = 0;
    for k in 0..250u64 {
        match tree.get(k) {
            Err(TreeError::Codec(
                CodecError::BindingMismatch { .. }
                | CodecError::Corrupt(_)
                | CodecError::Overflow(_)
                | CodecError::KeyDomain { .. },
            )) => failures += 1,
            // A corrupted (but well-formed) pointer cryptogram decrypts to a
            // garbage block number; the storage layer rejects it.
            Err(TreeError::Storage(_)) => failures += 1,
            Err(other) => panic!("unexpected error class: {other}"),
            Ok(_) => {} // a flipped key byte may still parse; pointer seals catch the rest
        }
    }
    // A lookup only touches ~height pointer seals and ~log(n) key fields,
    // so a single flipped byte per block is caught exactly when the probe
    // path crosses it — a third of lookups at this scale. What matters is
    // that every detection is a *typed error* (asserted above) and none is
    // a panic or a wrong record.
    assert!(
        failures > 30,
        "corruption detected on only {failures}/250 lookups"
    );
}

/// Bulk-created enciphered trees are equivalent to insert-built ones.
#[test]
fn bulk_create_equivalence() {
    use sks_btree::core::EncipheredBTree;
    let items: Vec<(u64, Vec<u8>)> = (0..800u64)
        .map(|k| (k, format!("bulk-{k}").into_bytes()))
        .collect();
    for scheme in [Scheme::Oval, Scheme::SumOfTreatments, Scheme::BayerMetzger] {
        let mut cfg = SchemeConfig::with_capacity(scheme, 900);
        cfg.block_size = 512;
        let bulk = EncipheredBTree::bulk_create(cfg.clone(), &items).unwrap();
        bulk.validate().unwrap();
        assert_eq!(bulk.len(), 800, "{}", scheme.name());
        let mut incr = EncipheredBTree::create_in_memory(cfg).unwrap();
        for (k, rec) in &items {
            incr.insert(*k, rec.clone()).unwrap();
        }
        assert_eq!(
            bulk.range(0, 900).unwrap(),
            incr.range(0, 900).unwrap(),
            "{}",
            scheme.name()
        );
        // Bulk load must be cheaper in encipherment operations.
        let b = bulk.snapshot();
        let i = incr.snapshot();
        assert!(
            b.total_encrypts() < i.total_encrypts() / 2,
            "{}: bulk {} vs incremental {}",
            scheme.name(),
            b.total_encrypts(),
            i.total_encrypts()
        );
    }
}

/// A value twice the largest a 4 KiB record slot holds.
fn over_long_value() -> Vec<u8> {
    vec![0xAB; 8 * 1024]
}

fn record(k: u64) -> Vec<u8> {
    format!("record-{k:03}").into_bytes()
}

/// Runs `doomed` — a write carrying one value longer than a record slot
/// holds — against a fresh two-partition engine with 4 KiB blocks, and
/// checks that it is refused before anything reaches the log: the call
/// fails with the record store's own error, the log and the key count
/// are unchanged, and a reopen (which replays the whole log) finds the
/// same key count.
fn assert_refused_before_logging(
    name: &str,
    doomed: impl FnOnce(&Arc<SksDb>) -> Result<(), EngineError>,
) {
    let dir = tmpfile(name);
    std::fs::remove_dir_all(&dir).ok();
    let config =
        || EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 1_000).partitions(2));
    let len = {
        let db = SksDb::open(&dir, config()).unwrap();
        assert!(db.config().scheme.block_size == 4096);
        let (wal, len) = (db.wal_len_bytes(), db.len());
        let err = doomed(&db).expect_err("an over-long value must be refused");
        assert!(
            matches!(err, EngineError::Core(CoreError::Record(_))),
            "got: {err}"
        );
        assert_eq!(db.wal_len_bytes(), wal, "the refused write reached the log");
        assert_eq!(db.len(), len, "the refused write was partly applied");
        len
    };
    let db = SksDb::open(&dir, config()).unwrap();
    assert_eq!(
        db.len(),
        len,
        "the reopen replayed part of the refused write"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_insert_refuses_an_over_long_value_before_logging() {
    assert_refused_before_logging("doomed_insert", |db| {
        db.insert(7, over_long_value()).map(|_| ())
    });
}

#[test]
fn engine_insert_batch_refuses_an_over_long_value_before_logging() {
    assert_refused_before_logging("doomed_batch", |db| {
        let items = (0..20u64)
            .map(|k| (k, if k == 7 { over_long_value() } else { record(k) }))
            .collect();
        db.insert_batch(items).map(|_| ())
    });
}

#[test]
fn engine_bulk_load_refuses_an_over_long_value_before_logging() {
    assert_refused_before_logging("doomed_bulk_load", |db| {
        let items = (0..20u64)
            .map(|k| (k, if k == 7 { over_long_value() } else { record(k) }))
            .collect();
        db.bulk_load(items).map(|_| ())
    });
}

#[test]
fn engine_txn_insert_refuses_an_over_long_value_before_logging() {
    assert_refused_before_logging("doomed_txn", |db| {
        let mut txn = db.begin();
        for k in 0..10u64 {
            txn.insert(k, if k == 5 { over_long_value() } else { record(k) })?;
        }
        txn.commit()
    });
}
