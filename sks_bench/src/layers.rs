//! The layer pass: bottom-up, one tight loop per public function of each
//! layer, at the shapes the workloads use — 4096-byte pages, full nodes,
//! 100-byte records, the design sized for 300 000 keys. Nothing here
//! goes through the engine except the last two figures; a layer that
//! gets faster or slower shows here first and, by the README's map, in a
//! named end-to-end metric next.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use sks_btree_core::{BTree, Node, NodeCache, NodeCodec, RecordPtr};
use sks_core::codec::{BlockCipherSealer, TripletSealer, SEAL_PAYLOAD_LEN};
use sks_core::{EncipheredBTree, RecordStore, Scheme, SchemeConfig};
use sks_crypto::modes::ctr_xor;
use sks_crypto::{BigUint, BlockCipher64, Des, Speck64};
use sks_engine::{EngineConfig, SksDb, Wal};
use sks_storage::{
    BlockId, BlockStore, BufferPool, FileDisk, MemDisk, OpCounters, PagedFileStore, SyncPolicy,
};

use crate::gen::{self, Rng};
use crate::metrics::{self, Values};
use crate::stats::median;

const PAGE: usize = 4096;
/// The read_cold design: keys `1..=300 000` plus the engine's slack.
const DESIGN_KEYS: u64 = 300_000;
const TREE_KEYS: u64 = 50_000;
/// Probes behind each `decrypts_per_probe` figure.
const COUNTED_PROBES: u64 = 2_000;
const TREE_KEY: u64 = 0x1334_5779_9BBC_DFF1;
const DATA_KEY: u128 = 0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF;

/// Time budgets and problem sizes; `smoke` divides both by 100-ish so
/// every code path still runs.
struct Scale {
    smoke: bool,
    /// Wall time spent measuring one figure.
    budget: Duration,
}

impl Scale {
    fn keys(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 100).max(64)
        } else {
            full
        }
    }
}

/// Nanoseconds per call of `f`: batches sized to a fifth of the budget,
/// the median batch reported.
fn time_ns(scale: &Scale, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().max(Duration::from_nanos(20));
    // At least 32 calls a batch (outside smoke runs), so a slow op whose
    // cost includes a group-commit fsync every 32nd call sees one in
    // every batch.
    let floor = if scale.smoke { 1 } else { 32 };
    let per_batch = (scale.budget.as_nanos() / 5 / once.as_nanos()).clamp(floor, 10_000_000) as u64;
    let mut batches = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&batches)
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("layer pass: {what}: {e}")
}

fn record_for(key: u64) -> Vec<u8> {
    gen::value(key, 1)
}

fn crypto(scale: &Scale, out: &mut Values) {
    let des = Des::new(TREE_KEY);
    let mut x = 1u64;
    out.push((
        "crypto.des_block_ns",
        time_ns(scale, || x = des.encrypt_block(black_box(x))),
    ));
    let speck = Speck64::from_u128(DATA_KEY);
    out.push((
        "crypto.speck_block_ns",
        time_ns(scale, || x = speck.encrypt_block(black_box(x))),
    ));
    let page = vec![0xA5u8; PAGE];
    let ns = time_ns(scale, || {
        black_box(ctr_xor(&speck, black_box(x), &page));
    });
    out.push(("crypto.ctr_xor_mb_per_s", PAGE as f64 / ns * 1e3));
    // 256-bit modular exponentiation: the RSA sealer's primitive.
    let modulus =
        BigUint::from_hex("f3a1c5d7e9b2046618a3c5e7092b4d6f8183a5c7e90b2d4f61a3c5e7092b4d71")
            .expect("literal hex");
    let base = BigUint::from_u128(DATA_KEY);
    let exponent =
        BigUint::from_hex("a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d7e8f91")
            .expect("literal hex");
    out.push((
        "crypto.modexp_ns",
        time_ns(scale, || {
            black_box(base.modpow(black_box(&exponent), &modulus));
        }),
    ));
}

fn disguises(scale: &Scale, out: &mut Values) -> Result<(), String> {
    let capacity = scale.keys(DESIGN_KEYS) + 64;
    let oval_cfg = SchemeConfig::with_capacity(Scheme::Oval, capacity);
    let start = Instant::now();
    black_box(
        oval_cfg
            .build_design()
            .map_err(|e| err("build_design", e))?,
    );
    out.push(("designs.build_ms", start.elapsed().as_secs_f64() * 1e3));

    let counters = OpCounters::new();
    let mut rng = Rng::new(11, 0);
    let keys = scale.keys(DESIGN_KEYS);
    for (scheme, disguise_name, recover_name) in [
        (
            Scheme::Oval,
            "core.disguise.oval_disguise_ns",
            Some("core.disguise.oval_recover_ns"),
        ),
        (
            Scheme::Exponentiation,
            "core.disguise.exp_disguise_ns",
            None,
        ),
        (
            Scheme::SumOfTreatments,
            "core.disguise.sum_disguise_ns",
            None,
        ),
    ] {
        let d = SchemeConfig::with_capacity(scheme, capacity)
            .build_disguise(&counters)
            .map_err(|e| err("build_disguise", e))?
            .expect("substitution schemes have a disguise");
        out.push((
            disguise_name,
            time_ns(scale, || {
                black_box(d.disguise(rng.below(keys) + 1).expect("key in domain"));
            }),
        ));
        if let Some(name) = recover_name {
            let disguised: Vec<u64> = (1..=1024.min(keys))
                .map(|k| d.disguise(k).expect("key in domain"))
                .collect();
            let mut i = 0;
            out.push((
                name,
                time_ns(scale, || {
                    i = (i + 1) % disguised.len();
                    black_box(d.recover(disguised[i]).expect("disguised by us"));
                }),
            ));
        }
    }
    Ok(())
}

/// A full internal node of `codec`: even keys, so a uniform probe hits
/// and misses about equally.
fn full_node(codec: &impl NodeCodec) -> Node {
    let n = codec.max_keys(PAGE);
    Node {
        id: BlockId(7),
        keys: (1..=n as u64).map(|i| i * 2).collect(),
        data_ptrs: (1..=n as u64)
            .map(|i| RecordPtr::pack(BlockId(i as u32), (i % 30) as u16))
            .collect(),
        children: (0..=n as u32).map(|i| BlockId(100 + i)).collect(),
    }
}

fn codecs(scale: &Scale, out: &mut Values) -> Result<(), String> {
    let sealer = BlockCipherSealer::des(TREE_KEY);
    let payload = [0x5Au8; SEAL_PAYLOAD_LEN];
    let sealed = sealer.seal(&payload);
    out.push((
        "core.codec.seal_ns",
        time_ns(scale, || {
            black_box(sealer.seal(black_box(&payload)));
        }),
    ));
    out.push((
        "core.codec.unseal_ns",
        time_ns(scale, || {
            black_box(sealer.unseal(black_box(&sealed)).expect("sealed by us"));
        }),
    ));

    let capacity = scale.keys(DESIGN_KEYS) + 64;
    for (scheme, short) in [
        (Scheme::Oval, "oval"),
        (Scheme::BayerMetzger, "bm"),
        (Scheme::BayerMetzgerPage, "bmpage"),
        (Scheme::Plaintext, "plain"),
    ] {
        // The table's own `&'static str` for `core.codec.<short>.<what>`.
        let name = |what: &str| {
            metrics::def_of(&format!("core.codec.{short}.{what}"))
                .expect("every codec figure is in the per-layer table")
                .name
        };
        let counters = OpCounters::new();
        let (codec, _) = SchemeConfig::with_capacity(scheme, capacity)
            .build_codec(&counters)
            .map_err(|e| err("build_codec", e))?;
        let node = full_node(&codec);
        let mut page = vec![0u8; PAGE];
        codec
            .encode(&node, &mut page)
            .map_err(|e| err("encode", e))?;
        let mut scratch = vec![0u8; PAGE];
        let encode = time_ns(scale, || {
            codec.encode(black_box(&node), &mut scratch).expect("fits");
        });
        let decode = time_ns(scale, || {
            black_box(
                codec
                    .decode(node.id, black_box(&page))
                    .expect("encoded by us"),
            );
        });
        let span = 2 * node.keys.len() as u64 + 1;
        let mut rng = Rng::new(13, 0);
        let probe = time_ns(scale, || {
            black_box(
                codec
                    .probe(node.id, &page, rng.below(span) + 1)
                    .expect("encoded by us"),
            );
        });
        // The paper's count, over a fixed probe sequence so it repeats.
        let mut rng = Rng::new(13, 1);
        let before = counters.snapshot();
        let counted = if scale.smoke { 20 } else { COUNTED_PROBES };
        for _ in 0..counted {
            codec
                .probe(node.id, &page, rng.below(span) + 1)
                .map_err(|e| err("probe", e))?;
        }
        let decrypts = counters.snapshot().delta(&before).total_decrypts();
        out.push((name("encode_us"), encode / 1e3));
        out.push((name("decode_us"), decode / 1e3));
        out.push((name("probe_us"), probe / 1e3));
        out.push((name("decrypts_per_probe"), decrypts as f64 / counted as f64));
    }
    Ok(())
}

fn btree(scale: &Scale, out: &mut Values) -> Result<(), String> {
    let keys = scale.keys(TREE_KEYS);
    let counters = OpCounters::new();
    let config = SchemeConfig::with_capacity(Scheme::Oval, 2 * keys + 64);
    let build = || -> Result<BTree<MemDisk, _>, String> {
        let (codec, _) = config
            .build_codec(&counters)
            .map_err(|e| err("build_codec", e))?;
        // Even keys, so inserts of odd keys land in every leaf.
        let items: Vec<(u64, RecordPtr)> = (1..=keys)
            .map(|k| (2 * k, RecordPtr::pack(BlockId(k as u32), 0)))
            .collect();
        BTree::bulk_load(
            MemDisk::with_counters(PAGE, counters.clone()),
            codec,
            &items,
        )
        .map_err(|e| err("BTree::bulk_load", e))
    };
    let mut rng = Rng::new(17, 0);

    let mut cached = build()?;
    cached.enable_node_cache(usize::MAX >> 1);
    for k in 1..=keys {
        cached.get(2 * k).map_err(|e| err("warm get", e))?;
    }
    out.push((
        "btree.get_cached_ns",
        time_ns(scale, || {
            black_box(cached.get(2 * (rng.below(keys) + 1)).expect("get"));
        }),
    ));
    let uncached = build()?;
    out.push((
        "btree.get_uncached_us",
        time_ns(scale, || {
            black_box(uncached.get(2 * (rng.below(keys) + 1)).expect("get"));
        }) / 1e3,
    ));

    let mut next = 0u64;
    out.push((
        "btree.insert_us",
        time_ns(scale, || {
            // Odd keys, spread over the leaves, each inserted once.
            next = (next + 7_919) % keys;
            cached
                .insert(2 * next + 1, RecordPtr::pack(BlockId(1), 1))
                .expect("insert");
        }) / 1e3,
    ));

    let (codec, _) = config
        .build_codec(&counters)
        .map_err(|e| err("build_codec", e))?;
    let node = full_node(&codec);
    let mut page = vec![0u8; PAGE];
    codec
        .encode(&node, &mut page)
        .map_err(|e| err("encode", e))?;
    let cache = NodeCache::new(1024);
    for id in 0..512u32 {
        let entry = codec
            .decode_for_cache(node.id, &page)
            .map_err(|e| err("decode_for_cache", e))?;
        cache.insert(BlockId(id), entry);
    }
    out.push((
        "btree.node_cache.hit_ns",
        time_ns(scale, || {
            black_box(cache.get(BlockId(rng.below(512) as u32)));
        }),
    ));
    Ok(())
}

fn records(scale: &Scale, out: &mut Values) -> Result<(), String> {
    let keys = scale.keys(TREE_KEYS);
    let mut rng = Rng::new(19, 0);
    for (cache, get_name) in [
        (0usize, "core.records.get_miss_ns"),
        (usize::MAX >> 1, "core.records.get_hit_ns"),
    ] {
        let mut store = RecordStore::create(MemDisk::new(PAGE), DATA_KEY, cache)
            .map_err(|e| err("RecordStore::create", e))?;
        let ptrs: Vec<RecordPtr> = (1..=keys)
            .map(|k| store.insert_keyed(k, &record_for(k)))
            .collect::<Result<_, _>>()
            .map_err(|e| err("insert_keyed", e))?;
        if cache == 0 {
            let record = record_for(1);
            let mut key = keys;
            out.push((
                "core.records.insert_ns",
                time_ns(scale, || {
                    key += 1;
                    black_box(store.insert_keyed(key, &record).expect("insert"));
                }),
            ));
        }
        out.push((
            get_name,
            time_ns(scale, || {
                let ptr = ptrs[rng.below(keys) as usize];
                black_box(store.get(ptr).expect("get"));
            }),
        ));
    }
    Ok(())
}

/// The bare `EncipheredBTree` over the in-memory device: the paper's own
/// experimental set-up, no engine around it.
fn core_tree(scale: &Scale, out: &mut Values) -> Result<(), String> {
    let keys = scale.keys(TREE_KEYS);
    let items =
        |n: u64| -> Vec<(u64, Vec<u8>)> { (1..=n).map(|k| (2 * k, record_for(k))).collect() };
    let bulk = |n: u64| -> Result<(EncipheredBTree, f64), String> {
        let config = SchemeConfig::with_capacity(Scheme::Oval, 2 * n + 64);
        let items = items(n);
        let start = Instant::now();
        let tree =
            EncipheredBTree::bulk_create(config, &items).map_err(|e| err("bulk_create", e))?;
        Ok((tree, start.elapsed().as_nanos() as f64 / n as f64))
    };
    let (mut tree, bulk_ns) = bulk(keys)?;
    let mut rng = Rng::new(23, 0);
    // Fill the node and record caches first: this figure is the cached
    // descent; the uncached one is `btree.get_uncached_us`.
    for k in 1..=keys {
        tree.get(2 * k).map_err(|e| err("warm get", e))?;
    }
    out.push((
        "core.tree.get_ns",
        time_ns(scale, || {
            black_box(tree.get(2 * (rng.below(keys) + 1)).expect("get"));
        }),
    ));
    // Scans first, while the tree is exactly the bulk-loaded image: 50
    // even keys fall in every 100-wide window.
    let range_ns = time_ns(scale, || {
        let lo = 2 * (rng.below(keys - 50) + 1);
        black_box(tree.range(lo, lo + 99).expect("range"));
    });
    // A fixed batch of odd keys spread over the leaves goes in and comes
    // out again, so both loops do the same work on every run.
    let batch: Vec<u64> = (1..=if scale.smoke { 8 } else { 300 })
        .map(|i| 2 * (i * 7_919 % keys) + 1)
        .collect();
    let record = record_for(1);
    let start = Instant::now();
    for &key in &batch {
        black_box(
            tree.insert(key, record.clone())
                .map_err(|e| err("insert", e))?,
        );
    }
    let insert_us = start.elapsed().as_secs_f64() * 1e6 / batch.len() as f64;
    let start = Instant::now();
    for &key in &batch {
        black_box(tree.delete(key).map_err(|e| err("delete", e))?);
    }
    let delete_us = start.elapsed().as_secs_f64() * 1e6 / batch.len() as f64;
    out.push(("core.tree.insert_us", insert_us));
    out.push(("core.tree.delete_us", delete_us));
    out.push(("core.tree.range_ns_per_record", range_ns / 50.0));
    out.push(("core.tree.bulk_load_ns_per_record", bulk_ns));
    drop(tree);
    let (big, big_ns) = bulk(scale.keys(DESIGN_KEYS))?;
    black_box(big.len());
    out.push(("core.tree.bulk_load_ns_per_record_300k", big_ns));
    Ok(())
}

fn storage(scale: &Scale, dir: &Path, out: &mut Values) -> Result<(), String> {
    let blocks = 1024u32;
    let page = vec![0x3Cu8; PAGE];
    let mut buf = vec![0u8; PAGE];
    let mut rng = Rng::new(29, 0);

    let mut disk =
        FileDisk::create(dir.join("filedisk.sks"), PAGE).map_err(|e| err("FileDisk::create", e))?;
    for _ in 0..blocks {
        let id = disk.allocate().map_err(|e| err("allocate", e))?;
        disk.write_block(id, &page)
            .map_err(|e| err("write_block", e))?;
    }
    // Block 0 is the device's own header in some stores; stay above it.
    let mut pick = move || BlockId(1 + rng.below(blocks as u64 - 1) as u32);
    out.push((
        "storage.filedisk.read_ns",
        time_ns(scale, || disk.read_block(pick(), &mut buf).expect("read")),
    ));
    out.push((
        "storage.filedisk.write_ns",
        time_ns(scale, || disk.write_block(pick(), &page).expect("write")),
    ));
    out.push((
        "storage.filedisk.sync_us",
        time_ns(scale, || {
            disk.write_block(pick(), &page).expect("write");
            disk.sync().expect("sync");
        }) / 1e3,
    ));
    drop(disk);

    let mut mem = MemDisk::new(PAGE);
    for _ in 0..blocks {
        let id = mem.allocate().map_err(|e| err("allocate", e))?;
        mem.write_block(id, &page)
            .map_err(|e| err("write_block", e))?;
    }
    out.push((
        "storage.memdisk.read_ns",
        time_ns(scale, || mem.read_block(pick(), &mut buf).expect("read")),
    ));
    out.push((
        "storage.memdisk.write_ns",
        time_ns(scale, || mem.write_block(pick(), &page).expect("write")),
    ));

    // 256 frames over 1024 blocks: a 64-block hot set always hits, a
    // sequential sweep of everything never does.
    let mut pool = BufferPool::new(mem, 256);
    let mut i = 0u32;
    out.push((
        "storage.pool.hit_ns",
        time_ns(scale, || {
            i = (i + 1) % 64;
            black_box(pool.read(BlockId(1 + i)).expect("read"));
        }),
    ));
    out.push((
        "storage.pool.miss_ns",
        time_ns(scale, || {
            i = (i + 1) % (blocks - 1);
            black_box(pool.read(BlockId(1 + i)).expect("read"));
        }),
    ));

    let mut paged = PagedFileStore::create(dir.join("paged.sks"), PAGE, 256, OpCounters::new())
        .map_err(|e| err("PagedFileStore::create", e))?;
    let ids: Vec<BlockId> = (0..256)
        .map(|_| paged.allocate())
        .collect::<Result<_, _>>()
        .map_err(|e| err("allocate", e))?;
    let mut flushes = Vec::new();
    for _ in 0..if scale.smoke { 1 } else { 5 } {
        for id in &ids {
            paged
                .write_block(*id, &page)
                .map_err(|e| err("write_block", e))?;
        }
        let start = Instant::now();
        paged.flush().map_err(|e| err("flush", e))?;
        flushes.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("storage.paged.flush_ms", median(&flushes)));
    Ok(())
}

fn wal(scale: &Scale, dir: &Path, out: &mut Values) -> Result<(), String> {
    let path = dir.join("wal-layer.sks");
    let value = record_for(1);
    let open = |policy| {
        let mut wal = Wal::create(&path, PAGE, DATA_KEY, policy, OpCounters::new())
            .map_err(|e| err("Wal::create", e))?;
        wal.set_seal_batch(true); // the engine's default framing
        Ok::<_, String>(wal)
    };
    let mut log = open(SyncPolicy::Never)?;
    let mut key = 0u64;
    out.push((
        "engine.wal.append_ns",
        time_ns(scale, || {
            key += 1;
            log.append_insert(key, &value).expect("append");
            if key.is_multiple_of(32) {
                log.commit().expect("commit");
            }
        }),
    ));
    log.commit().map_err(|e| err("commit", e))?;
    out.push((
        "engine.wal.commit_us",
        time_ns(scale, || {
            for _ in 0..32 {
                key += 1;
                log.append_insert(key, &value).expect("append");
            }
            log.commit().expect("commit");
        }) / 1e3,
    ));
    drop(log);

    let mut log = open(SyncPolicy::EveryN(32))?;
    out.push((
        "engine.wal.commit_durable_us",
        time_ns(scale, || {
            key += 1;
            log.append_insert(key, &value).expect("append");
            if let Some(ticket) = log.commit_durable().expect("commit_durable") {
                ticket.wait().expect("fsync");
            }
        }) / 1e3,
    ));
    drop(log);

    let records = scale.keys(20_000);
    let mut log = open(SyncPolicy::Never)?;
    for k in 1..=records {
        log.append_insert(k, &value).map_err(|e| err("append", e))?;
        if k % 32 == 0 {
            log.commit().map_err(|e| err("commit", e))?;
        }
    }
    log.flush().map_err(|e| err("flush", e))?;
    drop(log);
    let start = Instant::now();
    let (_, replay) = Wal::open(&path, DATA_KEY, SyncPolicy::Never, OpCounters::new())
        .map_err(|e| err("Wal::open", e))?;
    let secs = start.elapsed().as_secs_f64();
    if replay.records.len() as u64 != records {
        return Err(format!(
            "layer pass: replay returned {} of {records} records",
            replay.records.len()
        ));
    }
    out.push(("engine.wal.replay_records_per_s_iso", records as f64 / secs));
    Ok(())
}

/// The only memory-backend coverage in the benchmark, deliberately per
/// layer: that persistence path may be deleted (ROADMAP item 2).
fn engine_mem(scale: &Scale, dir: &Path, out: &mut Values) -> Result<(), String> {
    let keys = scale.keys(TREE_KEYS);
    let dir = dir.join("mem-engine");
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 2 * keys + 64).partitions(2);
    let db = SksDb::open(&dir, EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32)))
        .map_err(|e| err("open", e))?;
    db.bulk_load((1..=keys).map(|k| (k, record_for(k))).collect())
        .map_err(|e| err("bulk_load", e))?;
    let session = db.session();
    let mut rng = Rng::new(31, 0);
    for k in 1..=keys {
        session.get(k).map_err(|e| err("warm get", e))?;
    }
    out.push((
        "engine.db.mem.get_ns",
        time_ns(scale, || {
            black_box(session.get(rng.below(keys) + 1).expect("get"));
        }),
    ));
    let value = record_for(2);
    out.push((
        "engine.db.mem.put_us",
        time_ns(scale, || {
            black_box(
                session
                    .insert(rng.below(keys) + 1, value.clone())
                    .expect("insert"),
            );
        }) / 1e3,
    ));
    Ok(())
}

/// Runs the whole pass; values in `metrics::PER_LAYER` order.
pub fn run(smoke: bool, scratch: &Path) -> Result<Values, String> {
    let scale = Scale {
        smoke,
        budget: Duration::from_millis(if smoke { 2 } else { 150 }),
    };
    let dir = scratch.join(format!("sks_bench_layers_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Values::new();
    let result = (|| {
        crypto(&scale, &mut out);
        disguises(&scale, &mut out)?;
        codecs(&scale, &mut out)?;
        btree(&scale, &mut out)?;
        records(&scale, &mut out)?;
        core_tree(&scale, &mut out)?;
        storage(&scale, &dir, &mut out)?;
        wal(&scale, &dir, &mut out)?;
        engine_mem(&scale, &dir, &mut out)
    })();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir(scratch).ok(); // only if nothing else is in it
    result.map(|()| out)
}
