//! SIGKILL probe for space governance: `write` churns forever, and every
//! checkpoint runs dead-ratio compaction + node shrinking; `check`
//! reopens the killed directory, validates, and reports device usage.
use sks_btree::core::{Scheme, SchemeConfig, StorageBackend};
use sks_btree::engine::{EngineConfig, SksDb};
use sks_btree::storage::SyncPolicy;

fn config(dir: &std::path::Path) -> EngineConfig {
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 16_384)
        .partitions(4)
        .backend(StorageBackend::File {
            dir: dir.to_path_buf(),
            pool_pages: 128,
        });
    EngineConfig::new(scheme).sync(SyncPolicy::Always)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().expect("mode: write|check");
    let dir = std::path::PathBuf::from(args.next().expect("dir"));
    match mode.as_str() {
        "write" => {
            let db = SksDb::open(&dir, config(&dir)).unwrap();
            let s = db.session();
            println!("READY");
            let mut i = 0u64;
            loop {
                let k = i % 8_000;
                s.insert(k, vec![(k % 251) as u8; 900]).unwrap();
                if i.is_multiple_of(3) {
                    s.delete((i / 3) % 8_000).ok();
                }
                if i % 2_000 == 1_999 {
                    db.checkpoint().unwrap();
                    println!("CKPT {i} report {:?}", db.last_compaction_report());
                }
                i += 1;
            }
        }
        "check" => {
            let db = SksDb::open(&dir, config(&dir)).unwrap();
            println!("recovery: {:?}", db.recovery_report());
            db.validate().unwrap();
            let n = db.len();
            let usage = db.data_block_usage_per_partition();
            println!("records: {n}, data usage: {usage:?}");
            // Governance still runs post-recovery.
            let r = db.compact(1_000).unwrap();
            db.checkpoint().unwrap();
            println!("post-recovery compact: {r:?}");
            db.validate().unwrap();
            println!("OK");
        }
        other => panic!("unknown mode {other}"),
    }
}
