//! The metric vocabulary — names, units, direction, bounds — and the
//! arithmetic that turns a run's raw measurements into named values.
//! `BENCHMARK.json` is a rendering of these tables (a unit test keeps
//! the two equal).

use sks_engine::WRITE_PATH_STAGES;
use sks_storage::Stage;

use crate::workloads::{Kind, RunResult, StageNs};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. The driver applies the bounds of
    /// [`END_TO_END`]; `compare` also applies those of the client-visible
    /// metrics at the head of [`PER_LAYER`], on the workloads that have
    /// them. `BENCHMARK.json` carries only the former.
    pub bound: Option<f64>,
    /// Derived from engine counters alone: on a single-client workload
    /// two runs of one commit with one seed must give the same number.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

/// A client-visible figure that not every workload has: per-layer for the
/// driver, judged against `bound` by `compare`.
const fn client(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Lower,
        bound: Some(bound),
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the engine sees on every workload, measured untraced
/// over the whole window. The driver wants every workload to report every
/// one of these and none to read 0, and applies one bound per name to all
/// six workloads, so each bound is sized for the noisiest of them on this
/// host. Latencies are not here: they exist per op kind, not per
/// workload, and as `primary_p50_us` / `primary_p99_us` (the latency of
/// the workload's main op kind) they could not hold even 25 % in the
/// acceptance run-sets; they head [`PER_LAYER`] under the issue's names
/// and `compare` gates them (README, "Acceptance").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Per-layer metrics: first those of the traced workload run, then those
/// of the layer pass. No bounds; a metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Client-visible, with the issue's bounds: the driver's one list of
    // end-to-end metrics must exist on every workload and never read 0,
    // which the per-kind latencies and `checkpoint_ms` do not; `reopen_ms`
    // is a 10–90 ms open with a spread of 20–50 % on the read-only
    // workloads; `space_amp` reads the same on every run there.
    client("get_p50_us", "us", 0.10, false),
    client("get_p99_us", "us", 0.10, false),
    client("put_p50_us", "us", 0.10, false),
    client("put_p99_us", "us", 0.10, false),
    client("scan_p50_us", "us", 0.10, false),
    client("scan_p99_us", "us", 0.10, false),
    client("txn_p50_us", "us", 0.10, false),
    client("txn_p99_us", "us", 0.15, false),
    client("checkpoint_ms", "ms", 0.10, false),
    client("reopen_ms", "ms", 0.10, false),
    client("space_amp", "ratio", 0.02, true),
    // btree
    exact("btree.node_visits_per_op", "count", Lower),
    exact("btree.node_cache_hit_ratio", "ratio", Higher),
    exact("btree.splits_per_kop", "count", Lower),
    // core.codec
    exact("core.codec.ptr_decrypts_per_op", "count", Lower),
    exact("core.codec.ptr_encrypts_per_op", "count", Lower),
    exact("core.codec.key_decrypts_per_op", "count", Lower),
    layer("core.codec.node_unseal_ns_per_op", "ns", Lower),
    layer("core.codec.node_seal_ns_per_op", "ns", Lower),
    // core.disguise
    exact("core.disguise.ops_per_op", "count", Lower),
    // core.records
    exact("core.records.data_decrypts_per_op", "count", Lower),
    exact("core.records.data_encrypts_per_op", "count", Lower),
    layer("core.records.cache_hit_ratio", "ratio", Higher),
    layer("core.records.record_unseal_ns_per_op", "ns", Lower),
    layer("core.records.record_seal_ns_per_op", "ns", Lower),
    // storage (pool traffic is counter-derived but not exact: the
    // partition flush threads of an in-window checkpoint race the pool)
    layer("storage.pool_hit_ratio", "ratio", Higher),
    layer("storage.pool_evicts_per_op", "count", Lower),
    layer("storage.block_reads_per_op", "count", Lower),
    exact("storage.block_writes_per_op", "count", Lower),
    layer("storage.block_read_ns_per_op", "ns", Lower),
    layer("storage.block_write_ns_per_op", "ns", Lower),
    exact("storage.write_amp", "ratio", Lower),
    // engine.wal
    exact("engine.wal.bytes_per_op", "bytes", Lower),
    exact("engine.wal.fsyncs_per_op", "count", Lower),
    layer("engine.wal.append_ns_per_op", "ns", Lower),
    layer("engine.wal.seal_batch_ns_per_op", "ns", Lower),
    layer("engine.wal.fsync_ns_per_op", "ns", Lower),
    layer("engine.wal.swap_wait_ns_per_op", "ns", Lower),
    // engine.db
    layer("engine.db.checkpoint_flush_ms", "ms", Lower),
    layer("engine.db.checkpoint_cut_ms", "ms", Lower),
    layer("engine.db.compact_ms", "ms", Lower),
    layer("engine.db.index_flush_ms", "ms", Lower),
    layer("engine.db.close_ms", "ms", Lower),
    layer("engine.db.unattributed_share", "ratio", Lower),
    // engine.txn
    layer("engine.txn.conflict_share", "ratio", Lower),
    layer("engine.txn.commit_ns_per_op", "ns", Lower),
    // engine.recovery
    exact("engine.recovery.tail_records", "count", Lower),
    layer("engine.recovery.replay_records_per_s", "1/s", Higher),
    // obs
    layer("obs.trace_overhead_pct", "%", Lower),
    // ---- layer pass --------------------------------------------------------
    layer("crypto.des_block_ns", "ns", Lower),
    layer("crypto.speck_block_ns", "ns", Lower),
    layer("crypto.ctr_xor_mb_per_s", "MB/s", Higher),
    layer("crypto.modexp_ns", "ns", Lower),
    layer("designs.build_ms", "ms", Lower),
    layer("core.disguise.oval_disguise_ns", "ns", Lower),
    layer("core.disguise.oval_recover_ns", "ns", Lower),
    layer("core.disguise.exp_disguise_ns", "ns", Lower),
    layer("core.disguise.sum_disguise_ns", "ns", Lower),
    layer("core.codec.seal_ns", "ns", Lower),
    layer("core.codec.unseal_ns", "ns", Lower),
    layer("core.codec.oval.encode_us", "us", Lower),
    layer("core.codec.oval.decode_us", "us", Lower),
    layer("core.codec.oval.probe_us", "us", Lower),
    exact("core.codec.oval.decrypts_per_probe", "count", Lower),
    layer("core.codec.bm.encode_us", "us", Lower),
    layer("core.codec.bm.decode_us", "us", Lower),
    layer("core.codec.bm.probe_us", "us", Lower),
    exact("core.codec.bm.decrypts_per_probe", "count", Lower),
    layer("core.codec.bmpage.encode_us", "us", Lower),
    layer("core.codec.bmpage.decode_us", "us", Lower),
    layer("core.codec.bmpage.probe_us", "us", Lower),
    exact("core.codec.bmpage.decrypts_per_probe", "count", Lower),
    layer("core.codec.plain.encode_us", "us", Lower),
    layer("core.codec.plain.decode_us", "us", Lower),
    layer("core.codec.plain.probe_us", "us", Lower),
    exact("core.codec.plain.decrypts_per_probe", "count", Lower),
    layer("btree.get_cached_ns", "ns", Lower),
    layer("btree.get_uncached_us", "us", Lower),
    layer("btree.insert_us", "us", Lower),
    layer("btree.node_cache.hit_ns", "ns", Lower),
    layer("core.records.insert_ns", "ns", Lower),
    layer("core.records.get_miss_ns", "ns", Lower),
    layer("core.records.get_hit_ns", "ns", Lower),
    layer("core.tree.get_ns", "ns", Lower),
    layer("core.tree.insert_us", "us", Lower),
    layer("core.tree.delete_us", "us", Lower),
    layer("core.tree.range_ns_per_record", "ns", Lower),
    layer("core.tree.bulk_load_ns_per_record", "ns", Lower),
    layer("core.tree.bulk_load_ns_per_record_300k", "ns", Lower),
    layer("storage.filedisk.read_ns", "ns", Lower),
    layer("storage.filedisk.write_ns", "ns", Lower),
    layer("storage.filedisk.sync_us", "us", Lower),
    layer("storage.memdisk.read_ns", "ns", Lower),
    layer("storage.memdisk.write_ns", "ns", Lower),
    layer("storage.pool.hit_ns", "ns", Lower),
    layer("storage.pool.miss_ns", "ns", Lower),
    layer("storage.paged.flush_ms", "ms", Lower),
    layer("engine.wal.append_ns", "ns", Lower),
    layer("engine.wal.commit_us", "us", Lower),
    layer("engine.wal.commit_durable_us", "us", Lower),
    layer("engine.wal.replay_records_per_s_iso", "1/s", Higher),
    layer("engine.db.mem.get_ns", "ns", Lower),
    layer("engine.db.mem.put_us", "us", Lower),
];

pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named values in table order.
pub type Values = Vec<(&'static str, f64)>;

fn stage(ns: &StageNs, stage: Stage) -> f64 {
    let idx = Stage::ALL
        .iter()
        .position(|s| *s == stage)
        .expect("Stage::ALL lists every stage");
    ns[idx] as f64
}

fn ratio(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

pub fn end_to_end(r: &RunResult) -> Values {
    vec![
        ("setup_s", r.setup_s),
        ("ops_per_s", r.ops_per_s()),
        ("peak_rss_mb", r.peak_rss_mb),
    ]
}

/// The client-visible head of [`PER_LAYER`], from an untraced run; 0
/// where the workload has no such op.
pub fn client_visible(r: &RunResult) -> Values {
    let quantile = |kind: Kind, q: f64| r.hists[kind as usize].quantile_us(q);
    vec![
        ("get_p50_us", quantile(Kind::Get, 0.50)),
        ("get_p99_us", quantile(Kind::Get, 0.99)),
        ("put_p50_us", quantile(Kind::Put, 0.50)),
        ("put_p99_us", quantile(Kind::Put, 0.99)),
        ("scan_p50_us", quantile(Kind::Scan, 0.50)),
        ("scan_p99_us", quantile(Kind::Scan, 0.99)),
        ("txn_p50_us", quantile(Kind::Txn, 0.50)),
        ("txn_p99_us", quantile(Kind::Txn, 0.99)),
        ("checkpoint_ms", crate::stats::median(&r.checkpoint_ms)),
        ("reopen_ms", r.reopen_ms),
        ("space_amp", r.space_amp),
    ]
}

/// The defs of [`client_visible`]'s values.
pub fn client_defs() -> impl Iterator<Item = &'static MetricDef> {
    PER_LAYER.iter().filter(|d| d.bound.is_some())
}

/// The stages whose sum is set against the client spans: the engine's
/// own never-counted-twice write-path set plus the read path's record
/// unseal. Block I/O nests inside these on every path but the point-get
/// node probe, so it is left out rather than risk counting it twice.
fn client_path_ns(ns: &StageNs) -> f64 {
    WRITE_PATH_STAGES
        .iter()
        .chain(&[Stage::RecordUnseal])
        .map(|s| stage(ns, *s))
        .sum()
}

/// The workload half of the per-layer list: the client-visible figures
/// from the untraced run, everything else from the traced run's counter
/// and stage deltas, divided by window ops.
pub fn traced(untraced: &RunResult, traced: &RunResult) -> Values {
    let t = traced;
    let c = &t.counters;
    let ops = t.ops.max(1) as f64;
    let per_op = |x: u64| x as f64 / ops;
    let stage_per_op = |s: Stage| stage(&t.client_stage_ns, s) / ops;
    let checkpoint_stage_ms =
        |s: Stage| stage(&t.checkpoint_stage_ns, s) / 1e6 / t.checkpoints.max(1) as f64;
    let write_amp = match t.user_bytes_written {
        0 => 0.0,
        user => (c.block_writes * 4096 + c.wal_bytes) as f64 / user as f64,
    };
    let replay_per_s = if t.tail_records == 0 {
        0.0
    } else {
        t.tail_records as f64 / (t.reopen_ms / 1e3)
    };
    let mut values = client_visible(untraced);
    values.extend([
        ("btree.node_visits_per_op", per_op(c.node_visits)),
        (
            "btree.node_cache_hit_ratio",
            ratio(c.node_cache_hits, c.node_cache_misses),
        ),
        ("btree.splits_per_kop", per_op(c.splits) * 1e3),
        ("core.codec.ptr_decrypts_per_op", per_op(c.ptr_decrypts)),
        ("core.codec.ptr_encrypts_per_op", per_op(c.ptr_encrypts)),
        ("core.codec.key_decrypts_per_op", per_op(c.key_decrypts)),
        (
            "core.codec.node_unseal_ns_per_op",
            stage_per_op(Stage::NodeUnseal),
        ),
        (
            "core.codec.node_seal_ns_per_op",
            stage_per_op(Stage::NodeSeal),
        ),
        (
            "core.disguise.ops_per_op",
            per_op(c.disguise_ops + c.recover_ops),
        ),
        ("core.records.data_decrypts_per_op", per_op(c.data_decrypts)),
        ("core.records.data_encrypts_per_op", per_op(c.data_encrypts)),
        (
            "core.records.cache_hit_ratio",
            ratio(c.record_cache_hits, c.record_cache_misses),
        ),
        (
            "core.records.record_unseal_ns_per_op",
            stage_per_op(Stage::RecordUnseal),
        ),
        (
            "core.records.record_seal_ns_per_op",
            stage_per_op(Stage::RecordSeal),
        ),
        (
            "storage.pool_hit_ratio",
            ratio(c.cache_hits, c.cache_misses),
        ),
        ("storage.pool_evicts_per_op", per_op(c.cache_evicts)),
        ("storage.block_reads_per_op", per_op(c.block_reads)),
        ("storage.block_writes_per_op", per_op(c.block_writes)),
        (
            "storage.block_read_ns_per_op",
            stage_per_op(Stage::BlockRead),
        ),
        (
            "storage.block_write_ns_per_op",
            stage_per_op(Stage::BlockWrite),
        ),
        ("storage.write_amp", write_amp),
        ("engine.wal.bytes_per_op", per_op(c.wal_bytes)),
        ("engine.wal.fsyncs_per_op", per_op(c.wal_fsyncs)),
        (
            "engine.wal.append_ns_per_op",
            stage_per_op(Stage::WalAppend),
        ),
        (
            "engine.wal.seal_batch_ns_per_op",
            stage_per_op(Stage::SealBatch),
        ),
        ("engine.wal.fsync_ns_per_op", stage_per_op(Stage::WalFsync)),
        (
            "engine.wal.swap_wait_ns_per_op",
            stage_per_op(Stage::WalSwap),
        ),
        (
            "engine.db.checkpoint_flush_ms",
            checkpoint_stage_ms(Stage::CheckpointFlush),
        ),
        (
            "engine.db.checkpoint_cut_ms",
            checkpoint_stage_ms(Stage::CheckpointCut),
        ),
        (
            "engine.db.compact_ms",
            checkpoint_stage_ms(Stage::CompactData) + checkpoint_stage_ms(Stage::CompactNodes),
        ),
        (
            "engine.db.index_flush_ms",
            checkpoint_stage_ms(Stage::IndexFlush),
        ),
        ("engine.db.close_ms", untraced.close_ms),
        (
            "engine.db.unattributed_share",
            match t.span_ns {
                0 => 0.0,
                span => 1.0 - client_path_ns(&t.client_stage_ns) / span as f64,
            },
        ),
        (
            "engine.txn.conflict_share",
            ratio(t.conflicts, c.txn_commits),
        ),
        (
            "engine.txn.commit_ns_per_op",
            stage_per_op(Stage::TxnCommit),
        ),
        ("engine.recovery.tail_records", t.tail_records as f64),
        ("engine.recovery.replay_records_per_s", replay_per_s),
        (
            "obs.trace_overhead_pct",
            (untraced.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
        ),
    ]);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_unique_and_within_the_contract_limits() {
        let legal = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(legal(d.name, "_.-") && d.name.len() <= 64, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(legal(d.unit, "_/%.-") && d.unit.len() <= 16, "{}", d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert_eq!(client_defs().count(), 11);
        let setup = def_of("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
