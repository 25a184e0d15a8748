//! The first-class stats surface: one [`StatsSnapshot`] per
//! [`crate::SksDb::stats`] call, carrying the logical paper counters,
//! per-op latency histograms (per partition and merged), the stage-
//! attributed write-path breakdown and the space-governance picture —
//! serialisable to JSON with no dependencies (hand-rolled).
//!
//! Privacy contract: nothing in a snapshot derives from key or value
//! *bytes* — only counts, byte lengths, durations and block/partition
//! indices. The attack sweep pins this down by grepping the JSON and the
//! rendered flight-recorder events for planted plaintext.

use sks_core::CompactionReport;
use sks_storage::{HistogramSnapshot, ObsLevel, OpSnapshot, Stage};

/// Operation labels, in the order histograms are kept per partition
/// (`range` and `txn` are engine-wide: a range scan crosses every
/// partition and an explicit transaction commit may span several).
pub const OPS: [&str; 6] = ["get", "put", "delete", "range", "batch", "txn"];

/// The stages whose sum is the *write-path breakdown*: every other stage
/// ([`Stage::BlockRead`]/[`Stage::BlockWrite`]/[`Stage::StoreFsync`] and
/// the compaction and checkpoint passes) either nests inside one of these
/// or runs off the client path, so summing only these six never counts a
/// nanosecond twice ([`Stage::WalSwap`] is never recorded). `SealBatch`
/// is every commit's group append — building, sealing and writing its
/// one frame to the log file — disjoint from both `WalAppend` (a staged
/// append; the engine stages nothing, so only the frozen benchmark's
/// staged appends record it) and `WalFsync` (every log fsync: a policy's
/// inline barrier, or the one a durability wait leads).
pub const WRITE_PATH_STAGES: [Stage; 6] = [
    Stage::RecordSeal,
    Stage::WalAppend,
    Stage::SealBatch,
    Stage::WalFsync,
    Stage::NodeSeal,
    Stage::NodeUnseal,
];

/// Per-partition slice of the stats surface.
#[derive(Debug, Clone)]
pub struct PartitionStats {
    /// Keys currently stored in this partition.
    pub len: u64,
    /// Dirty pages pinned in this partition's buffer pool.
    pub dirty_pages: usize,
    /// Latency histograms of the per-partition ops — `get`, `put`,
    /// `delete` and `batch`, in that order (`range` and `txn` are kept
    /// engine-wide only). Empty histograms (op never ran, or observability
    /// below `Histograms`) have `count == 0`.
    pub ops: Vec<(&'static str, HistogramSnapshot)>,
}

/// Everything [`crate::SksDb::stats`] reports, at one instant.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Observability level the engine is running at.
    pub level: ObsLevel,
    /// The logical paper counters (byte-identical at every level).
    pub counters: OpSnapshot,
    /// Per-op latency histograms merged across partitions, [`OPS`] order.
    pub ops: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-partition breakdown.
    pub partitions: Vec<PartitionStats>,
    /// Stage-attributed timing histograms (all [`Stage::ALL`] present;
    /// empty below `Histograms`).
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Current logical WAL length in bytes.
    pub wal_len_bytes: u64,
    /// What the most recent checkpoint's compaction passes reclaimed.
    pub last_compaction: CompactionReport,
}

impl StatsSnapshot {
    /// Merged histogram for one op name.
    pub fn op(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.ops.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Timing histogram for one stage.
    pub fn stage(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, h)| h)
    }

    /// Total nanoseconds attributed to one stage.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage(stage).map(|h| h.sum).unwrap_or(0)
    }

    /// Total nanoseconds attributed to the write path — the sum of
    /// [`WRITE_PATH_STAGES`], each nanosecond counted once.
    pub fn write_path_ns(&self) -> u64 {
        WRITE_PATH_STAGES.iter().map(|&s| self.stage_ns(s)).sum()
    }

    /// Buffer-pool hit ratio in `[0, 1]` (`None` before any probe).
    pub fn pool_hit_ratio(&self) -> Option<f64> {
        ratio(self.counters.cache_hits, self.counters.cache_misses)
    }

    /// Plaintext node-cache hit ratio in `[0, 1]`.
    pub fn node_cache_hit_ratio(&self) -> Option<f64> {
        ratio(
            self.counters.node_cache_hits,
            self.counters.node_cache_misses,
        )
    }

    /// Decoded-record cache hit ratio in `[0, 1]`.
    pub fn record_cache_hit_ratio(&self) -> Option<f64> {
        ratio(
            self.counters.record_cache_hits,
            self.counters.record_cache_misses,
        )
    }

    /// The whole snapshot as a JSON document (no external dependencies;
    /// stable key order, so goldens and `grep` both work).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"level\": \"{}\",\n", self.level.name()));
        out.push_str(&format!("  \"wal_len_bytes\": {},\n", self.wal_len_bytes));
        out.push_str("  \"counters\": {");
        let fields = self.counters.fields();
        for (i, (name, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {value}"));
        }
        out.push_str("\n  },\n");

        out.push_str("  \"ops\": {");
        for (i, (name, h)) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": "));
            push_hist(&mut out, h);
        }
        out.push_str("\n  },\n");

        out.push_str("  \"stages\": {");
        for (i, (stage, h)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": ", stage.name()));
            push_hist(&mut out, h);
        }
        out.push_str("\n  },\n");

        out.push_str(&format!(
            "  \"write_path\": {{ \"total_ns\": {}, \"stages\": [",
            self.write_path_ns()
        ));
        for (i, stage) in WRITE_PATH_STAGES.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{ \"stage\": \"{}\", \"ns\": {} }}",
                stage.name(),
                self.stage_ns(*stage)
            ));
        }
        out.push_str("] },\n");

        let c = &self.last_compaction;
        out.push_str(&format!(
            "  \"last_compaction\": {{ \"moved_records\": {}, \"freed_blocks\": {}, \
             \"orphaned_records\": {}, \"orphans_collected\": {}, \
             \"moved_nodes\": {}, \"node_blocks_truncated\": {}, \"data_blocks_truncated\": {} }},\n",
            c.moved_records,
            c.freed_blocks,
            c.orphaned_records,
            c.orphans_collected,
            c.moved_nodes,
            c.node_blocks_truncated,
            c.data_blocks_truncated,
        ));

        out.push_str("  \"partitions\": [");
        for (i, p) in self.partitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"len\": {}, \"dirty_pages\": {}, \"ops\": {{",
                p.len, p.dirty_pages
            ));
            for (j, (name, h)) in p.ops.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{name}\": "));
                push_hist(&mut out, h);
            }
            out.push_str("} }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn ratio(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

fn push_hist(out: &mut String, h: &HistogramSnapshot) {
    out.push_str(&format!(
        "{{ \"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
         \"p99_ns\": {}, \"max_ns\": {}, \"mean_ns\": {} }}",
        h.count,
        h.sum,
        h.p50(),
        h.p90(),
        h.p99(),
        h.max,
        h.mean()
    ));
}
