//! Durability and fault injection: enciphered trees on real files, trees
//! behind the block cache, corrupted media producing typed errors
//! instead of garbage or panics, engine writes the tree would refuse
//! kept out of the log, logged writes a reopen cannot apply refused
//! rather than dropped, one engine durability design whatever the
//! backend, a missing log refused, acknowledged commits in the log file
//! the moment they return, and a logged commit the trees refuse halting
//! the engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use sks_btree::btree::{BTree, CodecError, RecordPtr, TreeError};
use sks_btree::core::{CoreError, Scheme, SchemeConfig, StorageBackend};
use sks_btree::engine::{EngineConfig, EngineError, RecoveryPath, SksDb, Wal, WalOp};
use sks_btree::storage::{
    BlockId, BlockStore, FileDisk, MemDisk, OpCounters, PagedFileStore, SyncPolicy,
};

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
        // An emptied node cache, so every node visit of the get reaches
        // the store below it.
        tree.enable_node_cache(0);
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

/// FNV-1a-64 over a tree's node image, then its data image.
fn medium_digest(tree: &sks_btree::core::EncipheredBTree) -> u64 {
    let nodes = tree.raw_node_image().unwrap();
    let data = tree.raw_data_image().unwrap();
    nodes
        .iter()
        .chain(&data)
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `bulk_create` writes the same medium and charges the same counters on
/// both backends, and those bytes and counts are pinned: the medium's
/// FNV-1a-64 digest and every non-zero counter after the build.
#[test]
fn bulk_create_medium_and_counters_are_pinned() {
    use sks_btree::core::EncipheredBTree;
    let items: Vec<(u64, Vec<u8>)> = (0..800u64)
        .map(|k| (k, format!("bulk-{k}").into_bytes()))
        .collect();
    for (scheme, pinned_digest, pinned_counters) in [
        (Scheme::Oval, 0x50d8_3675_f376_e641u64, "block_reads=768 block_writes=881 allocs=79 ptr_encrypts=804 data_encrypts=800 disguise_ops=800"),
        (Scheme::BayerMetzger, 0xf463_df60_bab0_4577, "block_reads=768 block_writes=881 allocs=79 key_encrypts=800 ptr_encrypts=4 data_encrypts=800"),
        (Scheme::BayerMetzgerPage, 0xd352_08fe_21cc_4eb9, "block_reads=768 block_writes=870 allocs=68 page_encrypts=2240 data_encrypts=800"),
        (Scheme::SumOfTreatments, 0x0056_ad1a_cc1a_7a4f, "block_reads=768 block_writes=881 allocs=79 ptr_encrypts=804 data_encrypts=800 disguise_ops=800"),
    ] {
        let mut cfg = SchemeConfig::with_capacity(scheme, 900);
        cfg.block_size = 512;
        let tree = EncipheredBTree::bulk_create(cfg.clone(), &items).unwrap();
        let counters: Vec<String> = tree
            .snapshot()
            .fields()
            .into_iter()
            .filter(|&(_, v)| v != 0)
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        let counters = counters.join(" ");
        let digest = medium_digest(&tree);
        assert_eq!(
            (digest, counters.as_str()),
            (pinned_digest, pinned_counters),
            "{}: digest {digest:#018x}, counters {counters:?}",
            scheme.name()
        );

        let dir = tmpfile(&format!("bulk_pin_{}", scheme.name()));
        std::fs::remove_dir_all(&dir).ok();
        cfg.backend = StorageBackend::file(&dir);
        let on_file = EncipheredBTree::bulk_create(cfg.clone(), &items).unwrap();
        assert_eq!(medium_digest(&on_file), digest, "{}", scheme.name());
        drop(on_file);
        let reopened = EncipheredBTree::open(cfg).unwrap();
        assert_eq!(
            reopened.range(0, 900).unwrap(),
            tree.range(0, 900).unwrap(),
            "{}",
            scheme.name()
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
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

/// A logged record the configuration can no longer apply fails the open
/// instead of being dropped: a database's log holds a value half a block
/// long, and an open of that log with a quarter of the block size (whose
/// record slots cannot hold it) is refused with an error naming the
/// record's seq but none of its bytes. The log (the database never
/// checkpointed, so it is one segment, `wal-1.sks`) is copied alone into
/// a fresh directory, so the open builds fresh stores and reaches replay
/// (the database's own manifest would refuse the block size first). The
/// refused open leaves that log as it was, and the database still serves
/// the value under the original configuration.
#[test]
fn replay_refuses_a_record_the_configuration_cannot_apply() {
    let dir = tmpfile("unreplayable");
    let log_only = tmpfile("unreplayable.log");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&log_only).ok();
    let scheme = || SchemeConfig::with_capacity(Scheme::Oval, 1_000);
    let key = 777u64;
    let value = b"SECRET-VALUE-".repeat(4096 / 2 / 13);
    {
        let db = SksDb::open(&dir, EngineConfig::new(scheme())).unwrap();
        assert_eq!(db.config().scheme.block_size, 4096);
        db.insert(key, value.clone()).unwrap();
    }
    std::fs::create_dir_all(&log_only).unwrap();
    let log = log_only.join("wal-1.sks");
    std::fs::copy(dir.join("wal-1.sks"), &log).unwrap();
    let logged = std::fs::read(&log).unwrap();

    let mut small = scheme();
    small.block_size = 4096 / 4;
    let err =
        SksDb::open(&log_only, EngineConfig::new(small)).expect_err("the open must be refused");
    let msg = err.to_string();
    assert!(msg.contains("seq 2"), "the error names the record: {msg}");
    assert!(
        !msg.contains(&key.to_string()) && !msg.contains("SECRET"),
        "the error carries no key or value bytes: {msg}"
    );
    assert_eq!(
        std::fs::read(&log).unwrap(),
        logged,
        "the refusal touched the log"
    );

    let db = SksDb::open(&dir, EngineConfig::new(scheme())).unwrap();
    assert_eq!(db.recovery_report().records_replayed, 1);
    assert_eq!(db.get(key).unwrap(), Some(value));
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&log_only).ok();
}

/// The engine runs one durability design whatever the backend says: a
/// default-config engine (`StorageBackend::Memory`) keeps checkpointed
/// page files in its directory and cuts its log at a checkpoint, so a
/// reopen replays only the writes since.
#[test]
fn default_config_engine_checkpoints_pages_and_replays_only_the_tail() {
    let dir = tmpfile("default_design");
    std::fs::remove_dir_all(&dir).ok();
    let config =
        || EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 1_000).partitions(2));
    assert_eq!(config().scheme.backend, StorageBackend::Memory);
    const TAIL: u64 = 25;
    {
        let db = SksDb::open(&dir, config()).unwrap();
        for k in 0..300u64 {
            db.insert(k, record(k)).unwrap();
        }
        let before = db.wal_len_bytes();
        db.checkpoint().unwrap();
        assert!(
            db.wal_len_bytes() < before,
            "the checkpoint cut the log ({before} -> {} bytes)",
            db.wal_len_bytes()
        );
        for k in 300..300 + TAIL {
            db.insert(k, record(k)).unwrap();
        }
    }
    assert!(dir.join("part-000").join("manifest.sks").exists());
    let db = SksDb::open(&dir, config()).unwrap();
    let report = db.recovery_report();
    assert_eq!(report.path, RecoveryPath::TailReplay);
    assert_eq!(report.records_replayed, TAIL, "only the tail replays");
    assert_eq!(db.len(), 300 + TAIL);
    for k in (0..300 + TAIL).step_by(7) {
        assert_eq!(db.get(k).unwrap().unwrap(), record(k), "key {k}");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine reads nothing from the backend, so a database created
/// with `StorageBackend::File` reopens under the default config and
/// serves every record.
#[test]
fn a_file_config_database_reopens_under_the_default_config() {
    let dir = tmpfile("file_then_default");
    std::fs::remove_dir_all(&dir).ok();
    let scheme = || SchemeConfig::with_capacity(Scheme::Oval, 1_000).partitions(2);
    {
        let file = scheme().backend(StorageBackend::file(&dir));
        let db = SksDb::open(&dir, EngineConfig::new(file)).unwrap();
        db.insert_batch((0..200u64).map(|k| (k, record(k))).collect())
            .unwrap();
        db.checkpoint().unwrap();
        db.delete(7).unwrap();
    }
    let db = SksDb::open(&dir, EngineConfig::new(scheme())).unwrap();
    assert_eq!(db.recovery_report().path, RecoveryPath::TailReplay);
    assert_eq!(db.len(), 199);
    for k in 0..200u64 {
        let want = (k != 7).then(|| record(k));
        assert_eq!(db.get(k).unwrap(), want, "key {k}");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Zero partitions is a configuration error from `SksDb::open`, which
/// refuses it before it creates the directory.
#[test]
fn an_open_refuses_zero_partitions_before_touching_the_directory() {
    let dir = tmpfile("zero_partitions");
    std::fs::remove_dir_all(&dir).ok();
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 1_000).partitions(0);
    let err = SksDb::open(&dir, EngineConfig::new(scheme))
        .map(drop)
        .expect_err("zero partitions must be refused");
    assert!(matches!(err, EngineError::Config(_)), "got: {err}");
    assert!(!dir.exists(), "the refusal created the directory");
}

/// The sorted names of the files in `dir`.
fn listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The names of the log segments in `dir`.
fn segments(dir: &std::path::Path) -> Vec<String> {
    listing(dir)
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .collect()
}

/// A two-partition database whose log is three segments, every one of
/// them needed: two checkpoints each started a segment and then died at
/// the log fsync before any partition committed, so every partition
/// still covers nothing. Holds keys `0..90`; returns the directory, the
/// config and each segment's bytes.
fn three_needed_segments(name: &str) -> (std::path::PathBuf, EngineConfig, Vec<Vec<u8>>) {
    use sks_btree::storage::FailPlan;
    let dir = tmpfile(name);
    std::fs::remove_dir_all(&dir).ok();
    let plan = FailPlan::new();
    let config = EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 1_000).partitions(2))
        .sync(SyncPolicy::EveryN(1000))
        .wal_fault(plan.clone());
    for round in 0..3u64 {
        let db = SksDb::open(&dir, config.clone()).unwrap();
        for k in 30 * round..30 * (round + 1) {
            db.insert(k, record(k)).unwrap();
        }
        if round < 2 {
            // The segment's header fsync, the retiring segment's, then
            // the partitions' log fsync: it dies.
            plan.arm_nth_flush(3);
            db.checkpoint()
                .expect_err("the partitions' log fsync is dead");
            assert!(plan.tripped());
            plan.reset();
        }
    }
    assert_eq!(segments(&dir), ["wal-1.sks", "wal-2.sks", "wal-3.sks"]);
    let bytes = segments(&dir)
        .iter()
        .map(|n| std::fs::read(dir.join(n)).unwrap())
        .collect();
    (dir, config, bytes)
}

/// Puts the three segments back as they were.
fn restore(dir: &std::path::Path, bytes: &[Vec<u8>]) {
    for (i, b) in bytes.iter().enumerate() {
        std::fs::write(dir.join(format!("wal-{}.sks", i + 1)), b).unwrap();
    }
}

/// Asserts that `SksDb::open` refuses `dir` with a config error holding
/// `names`, and leaves the directory listing as it was.
fn assert_refused(dir: &std::path::Path, config: &EngineConfig, names: &str, case: &str) {
    let before = listing(dir);
    let err = SksDb::open(dir, config.clone()).map(drop).expect_err(case);
    assert!(
        matches!(err, EngineError::Config(_)) && err.to_string().contains(names),
        "{case}: got {err}"
    );
    assert_eq!(
        listing(dir),
        before,
        "{case}: the refusal changed the directory"
    );
}

/// Fail closed on a missing log: a segment is removed only once every
/// partition's pages cover it, and `engine.sks` is written only after the
/// log is durable, so a database with a segment gone — the oldest, one in
/// the middle, or all of them — has lost writes. The open is refused with
/// an error naming what is missing rather than serving the pages over
/// what is left, and writes nothing.
#[test]
fn an_open_refuses_a_database_whose_log_is_missing() {
    let (dir, config, bytes) = three_needed_segments("missing_log");
    for (gone, names) in [
        (&["wal-1.sks"][..], "wal-2.sks starts at seq"),
        (&["wal-2.sks"], "wal-3.sks starts at seq"),
        (&["wal-1.sks", "wal-2.sks", "wal-3.sks"], "no log segment"),
    ] {
        for name in gone {
            std::fs::remove_file(dir.join(name)).unwrap();
        }
        assert_refused(&dir, &config, names, &format!("{gone:?} deleted"));
        restore(&dir, &bytes);
    }
    let db = SksDb::open(&dir, config).unwrap();
    assert_eq!(db.recovery_report().records_replayed, 90);
    assert_eq!(db.len(), 90);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Segments are one sequence: two whose names are swapped are refused,
/// not scrubbed as torn, and a directory holding the single `wal.sks` of
/// an engine whose checkpoints recorded no log position is refused by
/// name. Neither refusal changes the directory.
#[test]
fn an_open_refuses_segments_out_of_order_and_an_older_engines_log() {
    let (dir, config, bytes) = three_needed_segments("swapped_log");
    std::fs::write(dir.join("wal-1.sks"), &bytes[1]).unwrap();
    std::fs::write(dir.join("wal-2.sks"), &bytes[0]).unwrap();
    assert_refused(&dir, &config, "wal-1.sks starts at seq", "swapped");
    restore(&dir, &bytes);
    std::fs::write(dir.join("wal.sks"), &bytes[0]).unwrap();
    assert_refused(&dir, &config, "wal.sks", "an older engine's log");
    std::fs::remove_file(dir.join("wal.sks")).unwrap();
    assert_eq!(SksDb::open(&dir, config).unwrap().len(), 90);
    std::fs::remove_dir_all(&dir).ok();
}

/// A segment a checkpoint removed, brought back by a crash that lost the
/// removal, replays nothing: every partition covers it. The next
/// checkpoint removes it again.
#[test]
fn a_removed_segment_that_comes_back_replays_nothing() {
    let (dir, config, bytes) = three_needed_segments("resurrected");
    let db = SksDb::open(&dir, config.clone()).unwrap();
    db.checkpoint().unwrap();
    assert_eq!(segments(&dir), ["wal-4.sks"]);
    for k in 90..93 {
        db.insert(k, record(k)).unwrap();
    }
    drop(db);
    restore(&dir, &bytes);
    let db = SksDb::open(&dir, config).unwrap();
    assert_eq!(db.recovery_report().records_replayed, 3);
    assert_eq!(db.len(), 93);
    db.checkpoint().unwrap();
    assert_eq!(segments(&dir), ["wal-5.sks"]);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acknowledged means in the log file, under a lazy sync policy too: a
/// copy of the log (`wal-1.sks`: nothing checkpoints here) taken the
/// moment `insert`, `insert_batch` or
/// `Txn::commit` returns — no flush, no drop, so exactly what a process
/// crash would leave behind — replays every acknowledged write.
#[test]
fn acknowledged_commits_are_in_the_log_file_when_they_return() {
    let dir = tmpfile("acked_in_file");
    std::fs::remove_dir_all(&dir).ok();
    let copy = tmpfile("acked_in_file.copy");
    let config = EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 1_000).partitions(2))
        .sync(SyncPolicy::EveryN(1000));
    let db = SksDb::open(&dir, config.clone()).unwrap();
    let fsyncs = db.snapshot().wal_fsyncs;
    let mut acked: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let assert_acked_replay = |acked: &BTreeMap<u64, Vec<u8>>| {
        std::fs::copy(dir.join("wal-1.sks"), &copy).unwrap();
        let (_, replay) = Wal::open(
            &copy,
            config.wal_key(),
            SyncPolicy::Always,
            OpCounters::new(),
        )
        .unwrap();
        assert!(!replay.torn_tail);
        let mut replayed = BTreeMap::new();
        for r in replay.records {
            match r.op {
                WalOp::Insert { key, value } => replayed.insert(key, value),
                WalOp::Delete { key } => replayed.remove(&key),
            };
        }
        assert_eq!(
            &replayed, acked,
            "an acknowledged write is missing from the log file"
        );
    };

    for k in 0..16u64 {
        db.insert(k, record(k)).unwrap();
        acked.insert(k, record(k));
        assert_acked_replay(&acked);
    }
    db.delete(5).unwrap();
    acked.remove(&5);
    assert_acked_replay(&acked);
    let batch: Vec<(u64, Vec<u8>)> = (16..48u64).map(|k| (k, record(k))).collect();
    db.insert_batch(batch.clone()).unwrap();
    acked.extend(batch);
    assert_acked_replay(&acked);
    // A one-key and a one-partition transaction commit as the policy
    // says; neither pays an fsync here.
    let p = db.partition_of(200).unwrap();
    let same_partition: Vec<u64> = (200..300u64)
        .filter(|&k| db.partition_of(k).unwrap() == p)
        .take(4)
        .collect();
    for keys in [vec![100u64], same_partition] {
        let mut txn = db.begin();
        for &k in &keys {
            txn.insert(k, record(k)).unwrap();
            acked.insert(k, record(k));
        }
        txn.commit().unwrap();
        assert_acked_replay(&acked);
    }
    assert_eq!(
        db.snapshot().wal_fsyncs,
        fsyncs,
        "every commit so far was acknowledged without an fsync"
    );
    // A transaction over both partitions (which forces its fsync).
    let mut txn = db.begin();
    for k in 300..308u64 {
        txn.insert(k, record(k)).unwrap();
        acked.insert(k, record(k));
    }
    txn.commit().unwrap();
    assert_acked_replay(&acked);

    drop(db);
    std::fs::remove_file(&copy).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A logged commit that a tree refuses half-way is never served half
/// applied. Partition 1's data pages rot on disk (every byte past the
/// `FileDisk` header and the superblock) between a checkpoint and a
/// reopen, so a transaction over both partitions is logged, applies to
/// partition 0 and is refused by partition 1. From then on the engine
/// fail-stops: every client and maintenance call returns `WalPoisoned`,
/// so nothing reads or persists the half that applied. A reopen over the
/// rotten pages is refused; with the pages restored, it replays the whole
/// transaction.
#[test]
fn a_commit_that_fails_to_apply_fail_stops_the_engine() {
    let dir = tmpfile("fail_stop");
    std::fs::remove_dir_all(&dir).ok();
    // Each open starts with an empty record cache, so the commit after
    // the reopen reads partition 1's rotten page.
    let config =
        || EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 1_000).partitions(2));
    let (a, b) = {
        let db = SksDb::open(&dir, config()).unwrap();
        db.insert_batch((0..400u64).map(|k| (k, record(k))).collect())
            .unwrap();
        db.checkpoint().unwrap();
        let first_in = |p| (0..400u64).find(|&k| db.partition_of(k).unwrap() == p);
        (first_in(0).unwrap(), first_in(1).unwrap())
    };
    let data = dir.join("part-001").join("data.sks");
    let clean = std::fs::read(&data).unwrap();
    let mut rotten = clean.clone();
    for byte in &mut rotten[8192 + 4096..] {
        *byte ^= 0xFF;
    }
    std::fs::write(&data, &rotten).unwrap();

    let db = SksDb::open(&dir, config()).unwrap();
    let mut txn = db.begin();
    txn.insert(a, b"new-a".to_vec()).unwrap();
    txn.insert(b, b"new-b".to_vec()).unwrap();
    let err = txn.commit().expect_err("partition 1 refuses its write");
    assert!(
        matches!(err, EngineError::Core(CoreError::Record(_))),
        "got: {err}"
    );
    let halted = |what: &str, result: Result<(), EngineError>| {
        let err = result.expect_err(what);
        assert_eq!(
            err.to_string(),
            EngineError::WalPoisoned.to_string(),
            "{what}"
        );
    };
    halted("get a", db.get(a).map(drop));
    halted("get b", db.get(b).map(drop));
    halted("range", db.range(0, 400).map(drop));
    halted("snapshot get", db.begin().get(a).map(drop));
    halted("insert", db.insert(401, record(401)).map(drop));
    halted("delete", db.delete(a).map(drop));
    halted(
        "insert_batch",
        db.insert_batch(vec![(402, record(402))]).map(drop),
    );
    halted(
        "bulk_load",
        db.bulk_load(vec![(403, record(403))]).map(drop),
    );
    let mut retry = db.begin();
    retry.insert(404, record(404)).unwrap();
    halted("txn commit", retry.commit());
    halted("checkpoint", db.checkpoint());
    halted("compact", db.compact(8).map(drop));
    halted("flush", db.flush());
    drop((txn, retry, db));

    let err = SksDb::open(&dir, config()).expect_err("the rotten pages refuse the replay");
    assert!(
        err.to_string().contains("the tree refused it"),
        "got: {err}"
    );
    std::fs::write(&data, &clean).unwrap();
    let db = SksDb::open(&dir, config()).unwrap();
    assert_eq!(db.get(a).unwrap().unwrap(), b"new-a");
    assert_eq!(db.get(b).unwrap().unwrap(), b"new-b");
    assert_eq!(db.len(), 400);
    db.validate().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every partition checkpoint is one journaled commit of both files: per
/// dirty partition, one journal write (one `page_commit` event covering
/// two files) and two store fsyncs — whether it runs through
/// `EncipheredBTree::flush` or `SksDb::checkpoint`, in every round.
/// A tree over two stores that would commit apart is refused.
#[test]
fn a_partition_checkpoint_is_one_journaled_commit_of_both_files() {
    use sks_btree::core::{EncipheredBTree, ObsLevel};
    use sks_btree::storage::{Event, EventKind, Stage};
    let commits = |events: Vec<Event>| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.kind == EventKind::PageCommit)
            .map(|e| e.b)
            .collect()
    };
    let scheme =
        || SchemeConfig::with_capacity(Scheme::Oval, 1_000).observability(ObsLevel::Histograms);

    let dir = tmpfile("one_commit_tree");
    std::fs::remove_dir_all(&dir).ok();
    let mut tree = EncipheredBTree::create(scheme().on_disk(&dir)).unwrap();
    let fsyncs = |c: &OpCounters| {
        c.obs()
            .stages_snapshot()
            .into_iter()
            .find(|(stage, _)| *stage == Stage::StoreFsync)
            .map_or(0, |(_, h)| h.count)
    };
    let events = commits(tree.counters().obs().recent_events()).len();
    let synced = fsyncs(tree.counters());
    for k in 0..200 {
        tree.insert(k, record(k)).unwrap();
    }
    for k in (0..200).step_by(3) {
        tree.delete(k).unwrap();
    }
    assert!(tree.compact_step(8).unwrap().freed_blocks > 0);
    tree.flush().unwrap();
    assert_eq!(
        commits(tree.counters().obs().recent_events())[events..],
        [2],
        "one journal, covering both files"
    );
    assert_eq!(fsyncs(tree.counters()) - synced, 2, "one fsync per file");
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmpfile("one_commit_engine");
    std::fs::remove_dir_all(&dir).ok();
    let db = SksDb::open(&dir, EngineConfig::new(scheme().partitions(2))).unwrap();
    let store_fsyncs = || db.stats().stage(Stage::StoreFsync).map_or(0, |h| h.count);
    for round in 0..2u64 {
        for k in 0..100 {
            db.insert(k, record(k + round)).unwrap();
        }
        let (events, synced) = (commits(db.recent_events()).len(), store_fsyncs());
        db.checkpoint().unwrap();
        assert_eq!(
            commits(db.recent_events())[events..],
            [2, 2],
            "round {round}: one journal per partition"
        );
        assert_eq!(
            store_fsyncs() - synced,
            4,
            "round {round}: two per partition"
        );
    }
    drop(db);

    let counters = OpCounters::new();
    let apart =
        |name: &str| PagedFileStore::create(dir.join(name), 4096, 8, counters.clone()).unwrap();
    let (nodes, data) = (apart("a.sks"), apart("b.sks"));
    let built = EncipheredBTree::create_on_stores(
        SchemeConfig::with_capacity(Scheme::Oval, 100),
        counters.clone(),
        Box::new(nodes),
        Box::new(data),
    );
    match built {
        Err(CoreError::Config(msg)) => assert!(msg.contains("commit separately"), "{msg}"),
        other => panic!("stores that commit apart were accepted: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint with nothing to do writes nothing: once a checkpoint has
/// committed every partition, a second one, with nothing logged since,
/// starts no segment, commits no partition (no `page_commit` event, no
/// `Stage::StoreFsync` sample) and fsyncs nothing.
#[test]
fn an_idle_checkpoint_writes_nothing() {
    use sks_btree::core::ObsLevel;
    use sks_btree::storage::{EventKind, Stage};
    let dir = tmpfile("idle_checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 1_000)
        .observability(ObsLevel::Histograms)
        .partitions(2);
    let db = SksDb::open(&dir, EngineConfig::new(scheme)).unwrap();
    for k in 0..100 {
        db.insert(k, record(k)).unwrap();
    }
    db.checkpoint().unwrap();
    let page_commits = || {
        db.recent_events()
            .iter()
            .filter(|e| e.kind == EventKind::PageCommit)
            .count()
    };
    let store_fsyncs = || db.stats().stage(Stage::StoreFsync).map_or(0, |h| h.count);
    let before = (page_commits(), store_fsyncs(), db.snapshot().wal_fsyncs);
    let files = listing(&dir);
    db.checkpoint().unwrap();
    assert_eq!(
        (page_commits(), store_fsyncs(), db.snapshot().wal_fsyncs),
        before,
        "(page commits, store fsyncs, log fsyncs)"
    );
    assert_eq!(listing(&dir), files, "no segment was started");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
