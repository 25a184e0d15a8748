//! `bench_report` — emits a `BENCH_*.json` snapshot of the headline
//! performance numbers so the trajectory is tracked per PR:
//!
//! * **insert throughput** (engine, memory + file backend, batch-sealed
//!   group commits + write-behind node re-sealing),
//! * **bulk-load throughput** (sorted ingest through `SksDb::bulk_load`,
//!   file backend),
//! * **recovery time** (full replay vs checkpointed tail replay) and
//!   full-replay throughput through the batched replay path,
//! * **checkpoint at 1% dirty** (50k-record file backend: delta-encoded
//!   index persistence vs the full-rewrite path, with the index bytes
//!   written per epoch),
//! * **read-hot point reads** (plaintext node cache off vs on, file
//!   backend) with the measured speedup,
//! * **range scans** (streamed, node cache off vs on),
//! * **record-cache reads** (decoded-record LRU off vs on),
//! * **compaction** (delete-heavy churn: blocks reclaimed and pass time),
//! * **per-op latency** (insert/get p50 and p99 from the engine's
//!   histogram stats surface, `ObsLevel::Histograms`),
//! * **transaction commits** (explicit multi-key cross-partition
//!   `Txn::commit` throughput plus its p50/p99 from the engine's `txn`
//!   histogram — each commit is one atomic WAL txn frame, fsynced before
//!   the trees apply).
//!
//! ```text
//! bench_report [OUTPUT.json] [--baseline BASELINE.json]
//! bench_report --obs-overhead
//! ```
//!
//! `--obs-overhead` runs only the observability smoke: insert throughput
//! at `ObsLevel::Off` vs `FullTrace` must stay within 10%.
//!
//! With `--baseline`, the run doubles as the CI perf-regression gate: it
//! exits non-zero when insert throughput or the cache speedups fall below
//! half the committed baseline, or recovery time more than doubles.
//!
//! Numbers are medians of several short timed runs — stable enough to
//! trend, cheap enough for CI.

use std::time::Instant;

use sks_core::{EncipheredBTree, ObsLevel, Scheme, SchemeConfig, StorageBackend};
use sks_engine::{EngineConfig, RecoveryPath, SksDb};
use sks_storage::SyncPolicy;

const KEY_SPACE: u64 = 8_192;
const INSERTS: u64 = 2_000;
const DATASET: u64 = 20_000;
const TAIL: u64 = 64;
const CKPT_RECORDS: u64 = 50_000;
const CKPT_DIRTY: u64 = 500;
const HOT_SET: u64 = 512;
const HOT_PROBES: u64 = 20_000;
const RANGE_WIDTH: u64 = 1_024;
const RANGE_SCANS: u64 = 200;
const RECORD_GETS: u64 = 20_000;
const CHURN_KEYS: u64 = 4_096;
const TXN_COMMITS: u64 = 500;
const TXN_KEYS: u64 = 4;
const RUNS: usize = 5;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sks_bench_report_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn record_for(k: u64) -> Vec<u8> {
    format!("bench-report-record-{k:08}").into_bytes()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    xs[xs.len() / 2]
}

fn engine_config(dir: &std::path::Path, file_backend: bool) -> EngineConfig {
    engine_config_at(dir, file_backend, ObsLevel::Counters)
}

fn engine_config_at(dir: &std::path::Path, file_backend: bool, level: ObsLevel) -> EngineConfig {
    // The pipelined write path: batch sealing + the double-buffered log
    // writer are default-on; write-behind node re-sealing is the opt-in
    // ingest posture (logical counters stay byte-identical either way —
    // `write_pipeline_preserves_logical_counters_exactly` pins that).
    let mut scheme = SchemeConfig::with_capacity(Scheme::Oval, KEY_SPACE + 64)
        .partitions(4)
        .write_behind(64)
        .observability(level);
    if file_backend {
        scheme = scheme.backend(StorageBackend::File {
            dir: dir.to_path_buf(),
            pool_pages: 128,
        });
    }
    EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32))
}

/// Inserts/second on a fresh engine (median over RUNS).
fn insert_throughput(file_backend: bool) -> f64 {
    insert_throughput_at(file_backend, ObsLevel::Counters)
}

fn insert_throughput_at(file_backend: bool, level: ObsLevel) -> f64 {
    let label = if file_backend { "ins_file" } else { "ins_mem" };
    let mut per_run = Vec::with_capacity(RUNS);
    for run in 0..RUNS {
        let dir = tmpdir(&format!("{label}_{}_{run}", level.name()));
        let db = SksDb::open(&dir, engine_config_at(&dir, file_backend, level)).expect("open");
        let session = db.session();
        let start = Instant::now();
        for k in 0..INSERTS {
            session.insert(k, record_for(k)).expect("insert");
        }
        let secs = start.elapsed().as_secs_f64();
        per_run.push(INSERTS as f64 / secs);
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    median(per_run)
}

/// Sorted-ingest throughput through [`SksDb::bulk_load`] — one group
/// commit per partition, bottom-up tree build — on the file backend
/// (median over RUNS).
fn bulk_load_throughput() -> f64 {
    let mut per_run = Vec::with_capacity(RUNS);
    for run in 0..RUNS {
        let dir = tmpdir(&format!("bulk_{run}"));
        let db = SksDb::open(&dir, engine_config(&dir, true)).expect("open");
        let items: Vec<(u64, Vec<u8>)> = (0..INSERTS).map(|k| (k, record_for(k))).collect();
        let start = Instant::now();
        db.bulk_load(items).expect("bulk load");
        per_run.push(INSERTS as f64 / start.elapsed().as_secs_f64());
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    median(per_run)
}

/// Per-op latency quantiles from the engine's own histogram surface
/// (`ObsLevel::Histograms`, memory backend): `(insert_p50, insert_p99,
/// get_p50, get_p99)` in nanoseconds.
fn op_latency_ns() -> (u64, u64, u64, u64) {
    let dir = tmpdir("op_latency");
    let db = SksDb::open(&dir, engine_config_at(&dir, false, ObsLevel::Histograms)).expect("open");
    let session = db.session();
    for k in 0..INSERTS {
        session.insert(k, record_for(k)).expect("insert");
    }
    for i in 0..HOT_PROBES / 2 {
        let k = (i % HOT_SET) * 7 % INSERTS;
        std::hint::black_box(session.get(std::hint::black_box(k)).expect("get"));
    }
    let stats = db.stats();
    let put = stats.op("put").expect("put histogram").clone();
    let get = stats.op("get").expect("get histogram").clone();
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    (put.p50(), put.p99(), get.p50(), get.p99())
}

/// Explicit multi-key transaction commits per second, with the commit's
/// p50/p99 from the engine's own `txn` histogram (memory backend,
/// `ObsLevel::Histograms`): TXN_COMMITS transactions of TXN_KEYS
/// overwrites each — consecutive keys, so the disguised-key router
/// spreads most commits across partitions and the measured path is the
/// cross-partition one (one txn frame, durable before the trees apply).
/// Returns `(ops_per_s, p50_ns, p99_ns)`.
fn txn_commit_metrics() -> (f64, u64, u64) {
    let mut per_run = Vec::with_capacity(RUNS);
    let mut quantiles = (0u64, 0u64);
    for run in 0..RUNS {
        let dir = tmpdir(&format!("txn_{run}"));
        let db =
            SksDb::open(&dir, engine_config_at(&dir, false, ObsLevel::Histograms)).expect("open");
        let session = db.session();
        for k in 0..INSERTS {
            session.insert(k, record_for(k)).expect("seed");
        }
        let start = Instant::now();
        for i in 0..TXN_COMMITS {
            let mut txn = session.begin();
            for j in 0..TXN_KEYS {
                let k = (i * TXN_KEYS + j) % INSERTS;
                txn.insert(k, record_for(k + 1)).expect("buffer");
            }
            txn.commit().expect("commit");
        }
        per_run.push(TXN_COMMITS as f64 / start.elapsed().as_secs_f64());
        let stats = db.stats();
        let txn = stats.op("txn").expect("txn histogram");
        quantiles = (txn.p50(), txn.p99());
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    (median(per_run), quantiles.0, quantiles.1)
}

/// The `--obs-overhead` smoke: full tracing may cost at most 10% of the
/// `Off` insert throughput. Returns `(off_ops_s, full_trace_ops_s)`.
fn obs_overhead() -> (f64, f64) {
    let off = insert_throughput_at(false, ObsLevel::Off);
    let full = insert_throughput_at(false, ObsLevel::FullTrace);
    (off, full)
}

/// Inserts/second through a checkpoint-heavy workload (a checkpoint
/// every 500 inserts, memory backend) — the maintenance-path companion
/// to the plain obs-overhead smoke, covering the checkpoint's compaction
/// and flush stages under tracing.
fn checkpoint_heavy_throughput_at(level: ObsLevel) -> f64 {
    let mut per_run = Vec::with_capacity(RUNS);
    for run in 0..RUNS {
        let dir = tmpdir(&format!("ckpt_obs_{}_{run}", level.name()));
        let db = SksDb::open(&dir, engine_config_at(&dir, false, level)).expect("open");
        let session = db.session();
        let start = Instant::now();
        for k in 0..INSERTS {
            session.insert(k, record_for(k)).expect("insert");
            if k % 500 == 499 {
                db.checkpoint().expect("checkpoint");
            }
        }
        per_run.push(INSERTS as f64 / start.elapsed().as_secs_f64());
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    median(per_run)
}

/// Checkpoint wall time in milliseconds at a CKPT_RECORDS-record file
/// backend with ~1% of its blocks dirtied since the last epoch (median
/// over RUNS) — plus the index bytes per persisted epoch observed during
/// the timed checkpoint.
///
/// `proportional = true` measures the change-proportional maintenance
/// defaults: delta-encoded index persistence plus the dead-ratio
/// compaction floor. `false` reproduces the previous full-rewrite path —
/// the whole reverse-index chain re-persisted every epoch and any block
/// with a single dead record a compaction victim — so the pair is a
/// faithful before/after of the same workload.
fn checkpoint_ms(proportional: bool) -> (f64, f64) {
    let mut per_run = Vec::with_capacity(RUNS);
    let mut bytes_per_epoch = 0.0;
    for run in 0..RUNS {
        let dir = tmpdir(&format!("ckpt_{proportional}_{run}"));
        let scheme = SchemeConfig::with_capacity(Scheme::Oval, CKPT_RECORDS + 64)
            .partitions(4)
            .index_delta(proportional)
            .compaction_floor(if proportional {
                SchemeConfig::DEFAULT_COMPACTION_FLOOR
            } else {
                0
            })
            .backend(StorageBackend::File {
                dir: dir.clone(),
                pool_pages: 256,
            });
        let db = SksDb::open(&dir, EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32)))
            .expect("open");
        db.bulk_load((0..CKPT_RECORDS).map(|k| (k, record_for(k))).collect())
            .expect("bulk load");
        db.checkpoint().expect("settle"); // epoch 0: the full persist
        let session = db.session();
        // Consecutive keys: their superseded records cluster in a few
        // data blocks, so the epoch dirties ~1% of the blocks.
        for k in 0..CKPT_DIRTY {
            session.insert(k, record_for(k + 1)).expect("churn");
        }
        drop(session);
        let before = db.snapshot();
        let start = Instant::now();
        db.checkpoint().expect("checkpoint");
        per_run.push(start.elapsed().as_secs_f64() * 1e3);
        let d = db.snapshot().delta(&before);
        let epochs = (d.index_delta_flushes + d.index_full_flushes).max(1);
        bytes_per_epoch = d.index_flush_bytes as f64 / epochs as f64;
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    (median(per_run), bytes_per_epoch)
}

/// Reopen latency in milliseconds (median over RUNS) after DATASET
/// records, a checkpoint, and a TAIL-record tail.
fn recovery_ms(file_backend: bool) -> f64 {
    let label = if file_backend { "rec_file" } else { "rec_mem" };
    let dir = tmpdir(label);
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, DATASET + TAIL + 64)
        .partitions(4)
        .write_behind(64)
        .observability(ObsLevel::Counters);
    let scheme = if file_backend {
        scheme.backend(StorageBackend::File {
            dir: dir.clone(),
            pool_pages: 128,
        })
    } else {
        scheme
    };
    let cfg = EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32));
    {
        let db = SksDb::open(&dir, cfg.clone()).expect("open");
        db.bulk_load((0..DATASET).map(|k| (k, record_for(k))).collect())
            .expect("prefill");
        db.checkpoint().expect("checkpoint");
        let session = db.session();
        for k in 0..TAIL {
            session.insert(k, record_for(k)).expect("tail");
        }
    }
    let mut per_run = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        let db = SksDb::open(&dir, cfg.clone()).expect("reopen");
        per_run.push(start.elapsed().as_secs_f64() * 1e3);
        let want = if file_backend {
            RecoveryPath::TailReplay
        } else {
            RecoveryPath::FullReplay
        };
        assert_eq!(db.recovery_report().path, want);
        assert_eq!(db.len(), DATASET);
    }
    std::fs::remove_dir_all(&dir).ok();
    median(per_run)
}

/// A bulk-built file-backend tree for the read-path benches.
fn hot_tree(
    name: &str,
    node_cache: usize,
    record_cache: usize,
) -> (EncipheredBTree, std::path::PathBuf) {
    let dir = tmpdir(name);
    let cfg = SchemeConfig::with_capacity(Scheme::Oval, KEY_SPACE + 2)
        .on_disk(&dir)
        .node_cache(node_cache)
        .record_cache(record_cache);
    let items: Vec<(u64, Vec<u8>)> = (0..KEY_SPACE).map(|k| (k, record_for(k))).collect();
    let mut tree = EncipheredBTree::bulk_create(cfg, &items).expect("bulk create");
    tree.flush().expect("checkpoint");
    (tree, dir)
}

/// Nanoseconds per re-probe-heavy point read on the file backend
/// (median over RUNS), node cache off or on.
fn read_hot_ns(node_cache: usize) -> f64 {
    let (tree, dir) = hot_tree(&format!("hot_{node_cache}"), node_cache, 0);
    // Warm buffer pool and node cache to the steady re-probe state.
    for k in 0..HOT_SET {
        assert!(tree.get_pointer(k * 7 % KEY_SPACE).unwrap().is_some());
    }
    let mut per_run = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        for i in 0..HOT_PROBES {
            let k = (i % HOT_SET) * 7 % KEY_SPACE;
            std::hint::black_box(tree.get_pointer(std::hint::black_box(k)).unwrap());
        }
        per_run.push(start.elapsed().as_secs_f64() * 1e9 / HOT_PROBES as f64);
    }
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
    median(per_run)
}

/// Nanoseconds per record streamed by repeated range scans (median over
/// RUNS), node cache off or on — the PR 4 cached range walk.
fn range_scan_ns(node_cache: usize) -> f64 {
    let (tree, dir) = hot_tree(&format!("range_{node_cache}"), node_cache, 0);
    let mut per_run = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let mut streamed = 0u64;
        let start = Instant::now();
        for s in 0..RANGE_SCANS {
            let lo = (s * 37) % (KEY_SPACE - RANGE_WIDTH);
            for item in tree.iter_range(lo, lo + RANGE_WIDTH - 1) {
                std::hint::black_box(item.unwrap());
                streamed += 1;
            }
        }
        per_run.push(start.elapsed().as_secs_f64() * 1e9 / streamed as f64);
    }
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
    median(per_run)
}

/// Nanoseconds per hot record `get` over ~2 KiB records (median over
/// RUNS), decoded-record cache off or on — the PR 4 record cache above
/// the CTR unseal pays off proportionally to record size.
fn record_get_ns(record_cache: usize) -> f64 {
    let dir = tmpdir(&format!("rec_{record_cache}"));
    let cfg = SchemeConfig::with_capacity(Scheme::Oval, KEY_SPACE + 2)
        .on_disk(&dir)
        .node_cache(4_096)
        .record_cache(record_cache);
    let items: Vec<(u64, Vec<u8>)> = (0..KEY_SPACE / 4)
        .map(|k| (k, vec![k as u8; 2_000]))
        .collect();
    let mut tree = EncipheredBTree::bulk_create(cfg, &items).expect("bulk create");
    tree.flush().expect("checkpoint");
    let keyspace = KEY_SPACE / 4;
    for k in 0..HOT_SET {
        assert!(tree.get(k * 5 % keyspace).unwrap().is_some());
    }
    let mut per_run = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let start = Instant::now();
        for i in 0..RECORD_GETS {
            let k = (i % HOT_SET) * 5 % keyspace;
            std::hint::black_box(tree.get(std::hint::black_box(k)).unwrap());
        }
        per_run.push(start.elapsed().as_secs_f64() * 1e9 / RECORD_GETS as f64);
    }
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
    median(per_run)
}

/// Everything the delete-heavy churn run measures.
struct ChurnMetrics {
    /// Data blocks reclaimed, total.
    reclaimed: u64,
    /// Wall time of the compaction-to-quiescence loop.
    pass_ms: f64,
    /// Used data blocks after / before (lower = more reclaimed).
    used_ratio: f64,
    /// Data blocks reclaimed per budget unit spent — the dead-ratio
    /// victim heap's payoff (1.0 = every budgeted rewrite freed a block).
    space_reclaimed_per_budget: f64,
    /// Node-device blocks after governance / before deletion (lower =
    /// the node store sheds its high-water mark as the dataset shrinks).
    node_device_high_water: f64,
}

/// Delete-heavy churn on the file backend: deletes two thirds of the
/// dataset, then runs the full governance suite (dead-ratio record
/// compaction, node-device sliding, tail truncation) to quiescence.
fn compaction_metrics() -> ChurnMetrics {
    let dir = tmpdir("compaction");
    let cfg = SchemeConfig::with_capacity(Scheme::Oval, CHURN_KEYS + 2)
        .on_disk(&dir)
        .compaction(64);
    let items: Vec<(u64, Vec<u8>)> = (0..CHURN_KEYS).map(|k| (k, vec![k as u8; 96])).collect();
    let mut tree = EncipheredBTree::bulk_create(cfg, &items).expect("bulk create");
    tree.flush().expect("checkpoint");
    let (node_total_before, _) = tree.node_block_usage();
    for k in (0..CHURN_KEYS).filter(|k| k % 3 != 0) {
        tree.delete(k).expect("delete");
    }
    let (total_before, free_before) = tree.data_block_usage();
    let used_before = (total_before - free_before) as f64;
    let start = Instant::now();
    let mut freed = 0u64;
    let mut budget_spent = 0u64;
    loop {
        let r = tree.compact_step(64).expect("compact");
        if r.freed_blocks == 0 {
            break;
        }
        budget_spent += 64;
        freed += r.freed_blocks;
    }
    while tree.compact_nodes(64).expect("node compact").moved_nodes > 0 {}
    tree.flush().expect("checkpoint");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (total_after, free_after) = tree.data_block_usage();
    let used_after = (total_after - free_after) as f64;
    let (node_total_after, _) = tree.node_block_usage();
    drop(tree);
    std::fs::remove_dir_all(&dir).ok();
    ChurnMetrics {
        reclaimed: freed,
        pass_ms: ms,
        used_ratio: used_after / used_before,
        space_reclaimed_per_budget: freed as f64 / budget_spent.max(1) as f64,
        node_device_high_water: node_total_after as f64 / node_total_before.max(1) as f64,
    }
}

/// Extracts the first `"key": <number>` occurrence from a JSON document
/// (the BENCH_*.json schema keeps every metric key unique, so a full
/// parser is unnecessary — and the container has no serde).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = doc.find(&pat)?;
    let rest = doc[at + pat.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The CI gate: compares this run against a committed baseline and
/// returns the human-readable failures (empty = pass). Throughputs and
/// speedups may not fall below half the baseline; latencies may not more
/// than double. Metrics absent from an older baseline are skipped.
fn regression_failures(current: &str, baseline: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let higher_is_better = [
        "memory_backend",
        "file_backend",
        "file_backend_bulk_load",
        "recovery_full_replay_ops_per_s",
        "checkpoint_delta_speedup",
        "cache_speedup",
        "range_cache_speedup",
        "record_cache_speedup",
        "space_reclaimed_per_budget",
        "txn_commit_ops_per_s",
    ];
    let lower_is_better = [
        "memory_full_replay",
        "file_tail_replay",
        "checkpoint_ms_at_1pct_dirty",
        "index_flush_bytes_per_epoch",
        "node_device_high_water",
        "insert_p50",
        "insert_p99",
        "get_p50",
        "get_p99",
        "txn_commit_p50_ns",
        "txn_commit_p99_ns",
    ];
    for key in higher_is_better {
        let (Some(new), Some(old)) = (json_number(current, key), json_number(baseline, key)) else {
            continue;
        };
        if new < old / 2.0 {
            failures.push(format!(
                "{key} regressed >2x: {new:.2} vs baseline {old:.2}"
            ));
        }
    }
    for key in lower_is_better {
        let (Some(new), Some(old)) = (json_number(current, key), json_number(baseline, key)) else {
            continue;
        };
        if new > old * 2.0 {
            failures.push(format!(
                "{key} regressed >2x: {new:.2}ms vs baseline {old:.2}ms"
            ));
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--obs-overhead") {
        eprintln!("bench_report: observability overhead smoke…");
        let (off, full) = obs_overhead();
        let ratio = full / off;
        println!(
            "obs-overhead: Off {off:.1} ops/s, FullTrace {full:.1} ops/s ({:.1}% of Off)",
            ratio * 100.0
        );
        assert!(
            ratio >= 0.90,
            "FullTrace costs more than 10% insert throughput: \
             {full:.1} vs {off:.1} ops/s ({:.1}%)",
            ratio * 100.0
        );
        eprintln!("bench_report: checkpoint-heavy overhead smoke…");
        let ck_off = checkpoint_heavy_throughput_at(ObsLevel::Off);
        let ck_full = checkpoint_heavy_throughput_at(ObsLevel::FullTrace);
        let ck_ratio = ck_full / ck_off;
        println!(
            "obs-overhead (checkpoint-heavy): Off {ck_off:.1} ops/s, FullTrace {ck_full:.1} ops/s \
             ({:.1}% of Off)",
            ck_ratio * 100.0
        );
        assert!(
            ck_ratio >= 0.90,
            "FullTrace costs more than 10% through a checkpoint-heavy workload: \
             {ck_full:.1} vs {ck_off:.1} ops/s ({:.1}%)",
            ck_ratio * 100.0
        );
        return;
    }
    let mut out_path = "BENCH_current.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--baseline" {
            baseline_path = Some(args.get(i + 1).expect("--baseline needs a file").clone());
            i += 2;
        } else {
            out_path = args[i].clone();
            i += 1;
        }
    }

    eprintln!("bench_report: insert throughput…");
    let ins_mem = insert_throughput(false);
    let ins_file = insert_throughput(true);
    eprintln!("bench_report: bulk load…");
    let ins_bulk = bulk_load_throughput();
    eprintln!("bench_report: recovery…");
    let rec_mem = recovery_ms(false);
    let rec_file = recovery_ms(true);
    // Full replay rebuilds DATASET records from snapshots plus a
    // TAIL-record log tail through the batched-replay path.
    let rec_full_ops = (DATASET + TAIL) as f64 / (rec_mem / 1e3);
    eprintln!("bench_report: checkpoint at 1% dirty…");
    let (ckpt_delta_ms, index_bytes_per_epoch) = checkpoint_ms(true);
    let (ckpt_full_ms, _) = checkpoint_ms(false);
    let ckpt_speedup = ckpt_full_ms / ckpt_delta_ms;
    eprintln!("bench_report: read-hot…");
    let hot_off = read_hot_ns(0);
    let hot_on = read_hot_ns(4_096);
    let speedup = hot_off / hot_on;
    eprintln!("bench_report: range scans…");
    let range_off = range_scan_ns(0);
    let range_on = range_scan_ns(4_096);
    let range_speedup = range_off / range_on;
    eprintln!("bench_report: record cache…");
    let rec_get_off = record_get_ns(0);
    let rec_get_on = record_get_ns(8_192);
    let record_speedup = rec_get_off / rec_get_on;
    eprintln!("bench_report: compaction…");
    let churn = compaction_metrics();
    let (reclaimed, compact_ms, used_ratio) = (churn.reclaimed, churn.pass_ms, churn.used_ratio);
    eprintln!("bench_report: op latency…");
    let (ins_p50, ins_p99, get_p50, get_p99) = op_latency_ns();
    eprintln!("bench_report: txn commits…");
    let (txn_ops, txn_p50, txn_p99) = txn_commit_metrics();

    let json = format!(
        r#"{{
  "suite": "sks-btree perf trajectory",
  "config": {{
    "scheme": "oval",
    "partitions": 4,
    "sync": "group-commit-32",
    "inserts": {INSERTS},
    "recovery_dataset": {DATASET},
    "recovery_tail": {TAIL},
    "read_hot_set": {HOT_SET},
    "range_width": {RANGE_WIDTH},
    "churn_keys": {CHURN_KEYS}
  }},
  "insert_throughput_ops_per_s": {{
    "memory_backend": {ins_mem:.1},
    "file_backend": {ins_file:.1},
    "file_backend_bulk_load": {ins_bulk:.1}
  }},
  "recovery_ms": {{
    "memory_full_replay": {rec_mem:.2},
    "file_tail_replay": {rec_file:.2},
    "recovery_full_replay_ops_per_s": {rec_full_ops:.1}
  }},
  "checkpoint_at_1pct_dirty": {{
    "records": {CKPT_RECORDS},
    "dirty_records": {CKPT_DIRTY},
    "checkpoint_ms_at_1pct_dirty": {ckpt_delta_ms:.2},
    "checkpoint_ms_full_rewrite": {ckpt_full_ms:.2},
    "checkpoint_delta_speedup": {ckpt_speedup:.2},
    "index_flush_bytes_per_epoch": {index_bytes_per_epoch:.1}
  }},
  "read_hot_ns_per_op": {{
    "file_cache_off": {hot_off:.1},
    "file_cache_on": {hot_on:.1},
    "cache_speedup": {speedup:.2}
  }},
  "range_scan_ns_per_record": {{
    "node_cache_off": {range_off:.1},
    "node_cache_on": {range_on:.1},
    "range_cache_speedup": {range_speedup:.2}
  }},
  "record_get_ns_per_op": {{
    "record_cache_off": {rec_get_off:.1},
    "record_cache_on": {rec_get_on:.1},
    "record_cache_speedup": {record_speedup:.2}
  }},
  "compaction": {{
    "blocks_reclaimed": {reclaimed},
    "pass_ms": {compact_ms:.2},
    "used_blocks_ratio": {used_ratio:.3},
    "space_reclaimed_per_budget": {space_per_budget:.3},
    "node_device_high_water": {node_high_water:.3}
  }},
  "op_latency_ns": {{
    "insert_p50": {ins_p50},
    "insert_p99": {ins_p99},
    "get_p50": {get_p50},
    "get_p99": {get_p99}
  }},
  "txn_commit": {{
    "keys_per_txn": {TXN_KEYS},
    "txn_commit_ops_per_s": {txn_ops:.1},
    "txn_commit_p50_ns": {txn_p50},
    "txn_commit_p99_ns": {txn_p99}
  }}
}}
"#,
        space_per_budget = churn.space_reclaimed_per_budget,
        node_high_water = churn.node_device_high_water,
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("bench_report: wrote {out_path}");
    assert!(
        speedup >= 2.0,
        "read-hot cache speedup regressed below 2x: {speedup:.2}"
    );
    // Absolute floors for the pipelined write path: the relative gate
    // only catches regressions, so stagnation would otherwise be
    // invisible. These pin the PR 7 throughput as a hard baseline.
    assert!(
        ins_file >= 8_000.0,
        "file-backend insert throughput fell below the pipelined-write \
         floor of 8000 ops/s: {ins_file:.1}"
    );
    assert!(
        ins_bulk >= ins_file,
        "bulk_load should not be slower than per-insert group commits: \
         {ins_bulk:.1} vs {ins_file:.1} ops/s"
    );
    // The change-proportional maintenance acceptance gate: at ~1% dirty,
    // a delta-index checkpoint must beat the full-rewrite path ≥5x.
    assert!(
        ckpt_speedup >= 5.0,
        "delta-index checkpoint at 1% dirty fell below the 5x target: \
         {ckpt_delta_ms:.2}ms vs full rewrite {ckpt_full_ms:.2}ms ({ckpt_speedup:.2}x)"
    );
    assert!(
        reclaimed > 0,
        "compaction reclaimed nothing on a delete-heavy workload"
    );
    assert!(
        used_ratio < 0.75,
        "compaction left {used_ratio:.3} of the used blocks after deleting 2/3 of the data"
    );
    assert!(
        churn.node_device_high_water < 1.0,
        "node device still at its high-water mark after a 2/3 shrink: {:.3}",
        churn.node_device_high_water
    );

    if let Some(baseline_path) = baseline_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let failures = regression_failures(&json, &baseline);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench_report: REGRESSION — {f}");
            }
            std::process::exit(1);
        }
        eprintln!("bench_report: no >2x regressions against {baseline_path}");
    }
}
