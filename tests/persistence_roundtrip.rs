//! Property tests for the file backend: arbitrary workloads built on disk,
//! dropped, reopened, and compared key-for-key against a model — plus the
//! fail-closed guarantee for wrong keys, and tail-only recovery through
//! the engine.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use sks_btree::core::{EncipheredBTree, Scheme, SchemeConfig};
use sks_btree::engine::{EngineConfig, RecoveryPath, SksDb};
use sks_btree::storage::OpCounters;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sks_persist_prop_{}_{}_{}",
        std::process::id(),
        tag,
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn value_for(key: u64, vlen: usize) -> Vec<u8> {
    let mut v = format!("value-{key}-").into_bytes();
    let fill = v.len() + vlen;
    v.resize(fill, 0xA0 ^ key as u8);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any insert/overwrite/delete workload persisted on the file backend
    /// and reopened equals the in-memory model, record for record, at any
    /// buffer-pool size — and a reopen under a wrong key (either key)
    /// fails closed.
    #[test]
    fn file_backend_roundtrip_equals_model(
        ops in proptest::collection::vec((0u8..3, 0u64..280, 1usize..40), 1..120),
        pool in 2usize..48,
    ) {
        let dir = tmpdir("core");
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, 300).on_disk(&dir);
        // The tree's own open pools every store at the default size; the
        // workload and the read-back run on stores pooled at `pool`.
        drop(EncipheredBTree::create(cfg.clone()).unwrap());
        let open_pooled = || {
            let counters = OpCounters::new();
            let [nodes, data] = EncipheredBTree::open_file_stores(&dir, pool, &counters).unwrap();
            EncipheredBTree::open_on_stores(cfg.clone(), counters, Box::new(nodes), Box::new(data))
                .unwrap()
        };
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        {
            let mut tree = open_pooled();
            for &(op, key, vlen) in &ops {
                if op < 2 {
                    let v = value_for(key, vlen);
                    tree.insert(key, v.clone()).unwrap();
                    model.insert(key, v);
                } else {
                    let got = tree.delete(key).unwrap();
                    prop_assert_eq!(got, model.remove(&key), "delete {}", key);
                }
            }
            tree.flush().unwrap();
            // Dropped: only the checkpointed files survive.
        }
        {
            let tree = open_pooled();
            tree.validate().unwrap();
            prop_assert_eq!(tree.len(), model.len() as u64);
            for (&k, v) in &model {
                prop_assert_eq!(tree.get(k).unwrap().as_ref(), Some(v), "key {}", k);
            }
            // Full ordered scan equality (also proves no phantom keys).
            let got = tree.range(0, 300).unwrap();
            let want: Vec<(u64, Vec<u8>)> =
                model.iter().map(|(&k, v)| (k, v.clone())).collect();
            prop_assert_eq!(got, want);
        }
        for flip in [1u128, 1u128 << 77] {
            let mut bad = cfg.clone();
            bad.data_key ^= flip;
            prop_assert!(
                EncipheredBTree::open(bad).is_err(),
                "wrong data key must fail closed"
            );
        }
        let mut bad = cfg.clone();
        bad.tree_key ^= 0xFFFF;
        prop_assert!(
            EncipheredBTree::open(bad).is_err(),
            "wrong tree key must fail closed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Through the engine: a checkpoint plus an arbitrary tail, crashed
    /// and reopened, recovers the model state by replaying exactly the
    /// tail.
    #[test]
    fn engine_file_backend_tail_replay_equals_model(
        base in proptest::collection::vec((0u64..200, 1usize..24), 1..60),
        tail in proptest::collection::vec((0u8..3, 0u64..200, 1usize..24), 1..40),
    ) {
        let dir = tmpdir("engine");
        let config = EngineConfig::new(
            SchemeConfig::with_capacity(Scheme::Oval, 256)
                .partitions(2),
        );
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        {
            let db = SksDb::open(&dir, config.clone()).unwrap();
            let s = db.session();
            for &(key, vlen) in &base {
                let v = value_for(key, vlen);
                s.insert(key, v.clone()).unwrap();
                model.insert(key, v);
            }
            db.checkpoint().unwrap();
            let mut tail_ops = 0u64;
            for &(op, key, vlen) in &tail {
                if op < 2 {
                    let v = value_for(key, vlen ^ 1);
                    s.insert(key, v.clone()).unwrap();
                    model.insert(key, v);
                } else {
                    s.delete(key).unwrap();
                    model.remove(&key);
                }
                tail_ops += 1;
            }
            prop_assert_eq!(tail_ops, tail.len() as u64);
            // Crash: no flush, no checkpoint — the tail lives in the WAL.
        }
        {
            let db = SksDb::open(&dir, config).unwrap();
            let report = db.recovery_report();
            prop_assert_eq!(report.path, RecoveryPath::TailReplay);
            prop_assert_eq!(
                report.records_replayed,
                tail.len() as u64,
                "exactly the tail is replayed"
            );
            db.validate().unwrap();
            let s = db.session();
            prop_assert_eq!(db.len(), model.len() as u64);
            for (&k, v) in &model {
                prop_assert_eq!(s.get(k).unwrap().as_ref(), Some(v), "key {}", k);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
