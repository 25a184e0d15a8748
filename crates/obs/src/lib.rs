//! # sks-obs — physical observability for the enciphered B-tree stack
//!
//! The paper's *logical* cost model (decrypts per visit, re-encipherments
//! per reorganisation) is counted exactly by `OpCounters` in `sks-storage`.
//! This crate adds the *physical* side: where wall-clock time goes on the
//! write path (seal → WAL append → fsync → node re-seal), per-operation
//! latency distributions, and a bounded flight recorder of recent events
//! for post-mortem dumps.
//!
//! Design constraints, in order:
//!
//! 1. **Telemetry never leaks plaintext.** Events carry op kinds, partition
//!    ids, block ids, byte counts and durations — never key or value bytes.
//! 2. **Off is near-zero.** [`Obs`] is an `Option<Arc<..>>`; at
//!    [`Level::Off`] every probe is a `None` check, no clock reads, no
//!    allocation, no locks.
//! 3. **Counting stays exact.** Nothing here touches the logical paper
//!    counters; toggling the level must (and, by test, does) leave every
//!    `OpCounters` field byte-identical.
//!
//! The histogram is the classic log-linear (HDR-style) layout: buckets
//! index by `(exponent, 3-bit sub-bucket)`, giving ≤ 12.5 % relative error
//! per bucket over the full `u64` range in 512 lock-free atomic cells.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much observability the stack pays for.
///
/// Levels are cumulative: each one includes everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// No clocks, no events, no histograms. Probes compile down to a
    /// `None` check on an `Option`.
    Off,
    /// Logical + physical counters only (the pre-existing `OpCounters`
    /// behaviour) plus *rare* flight-recorder events — checkpoints,
    /// recovery, compaction, fault scrubs. No per-op clock reads.
    #[default]
    Counters,
    /// Adds stage/latency histograms: every probe point reads the
    /// monotonic clock and records into a lock-free histogram.
    Histograms,
    /// Adds hot-path flight-recorder events (one per engine operation),
    /// behind a mutex-guarded ring buffer.
    FullTrace,
}

impl Level {
    /// Stable lower-case name (used in stats JSON and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Counters => "counters",
            Level::Histograms => "histograms",
            Level::FullTrace => "full_trace",
        }
    }

    /// All levels, lowest to highest (for sweeping tests).
    pub const ALL: [Level; 4] = [
        Level::Off,
        Level::Counters,
        Level::Histograms,
        Level::FullTrace,
    ];
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power of two.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Enough for the full u64 range: exponent 60 → index 488..=495.
const BUCKETS: usize = 512;

/// A lock-free log-linear histogram of `u64` samples (nanoseconds, bytes —
/// any non-negative magnitude). Recording is wait-free (`fetch_add`);
/// snapshots are racy-but-consistent-enough, as histogram snapshots are.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample. Values below 8 map 1:1; above, the top
/// `1 + SUB_BITS` bits select the bucket, so relative error ≤ 1/8.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let exp = msb - SUB_BITS;
        let sub = ((v >> exp) as usize) & (SUBS - 1);
        (((exp + 1) as usize) << SUB_BITS) | sub
    }
}

/// Lowest sample value mapping to bucket `idx` (inverse of
/// [`bucket_index`]); the snapshot reports the bucket midpoint.
fn bucket_low(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let exp = (idx >> SUB_BITS) as u32 - 1;
        let sub = (idx & (SUBS - 1)) as u64;
        (SUBS as u64 + sub) << exp
    }
}

fn bucket_mid(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let exp = (idx >> SUB_BITS) as u32 - 1;
        bucket_low(idx) + (1u64 << exp) / 2
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Folds another histogram into this one (mergeability: per-partition
    /// histograms combine into the engine-wide view).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Owned point-in-time copy, sparse (only non-empty buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (idx, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((idx as u16, n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Owned, mergeable snapshot of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the recorded samples (exact, from the sum).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Value at quantile `q` in `[0, 1]` — the midpoint of the bucket
    /// holding the `ceil(q·count)`-th sample, clamped to the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx as usize).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self` (snapshot-level merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        let mut merged: Vec<(u16, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(ai, an)), Some(&(bi, bn))) => {
                    if ai == bi {
                        merged.push((ai, an + bn));
                        i += 1;
                        j += 1;
                    } else if ai < bi {
                        merged.push((ai, an));
                        i += 1;
                    } else {
                        merged.push((bi, bn));
                        j += 1;
                    }
                }
                (Some(&a), None) => {
                    merged.push(a);
                    i += 1;
                }
                (None, Some(&b)) => {
                    merged.push(b);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
    }
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// Named timing points on the storage/engine paths. One histogram per
/// stage; the write-path breakdown in `stats()` is built from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Physical block read from a device.
    BlockRead,
    /// Physical block write to a device.
    BlockWrite,
    /// Device fsync outside the WAL (checkpoint flushes).
    StoreFsync,
    /// Enciphering a B-tree node into its sealed page (`write_node`), and
    /// the node codec work that deciphers nothing: decoding a cache entry
    /// that is already whole (`read_node` hit — key recovery and node
    /// assembly).
    NodeSeal,
    /// Deciphering a sealed page into a node (`read_node` cache miss).
    NodeUnseal,
    /// Sealing a record into its data block (insert path).
    RecordSeal,
    /// Unsealing a record from its data block (get-path cache miss).
    RecordUnseal,
    /// Building + buffering one WAL frame (append and tail write).
    WalAppend,
    /// WAL commit fsync (one per group-commit batch).
    WalFsync,
    /// Record-store compaction pass (data blocks).
    CompactData,
    /// Node-device compaction pass.
    CompactNodes,
    /// Checkpoint phase 2: per-partition flush work.
    CheckpointFlush,
    /// Checkpoint phase 3: WAL cut + swap.
    CheckpointCut,
    /// Sealing the records staged since the last commit boundary into
    /// their one WAL frame — a group of one included (one Speck-CTR pass
    /// and one CRC over the whole group body).
    SealBatch,
    /// Never recorded: the WAL writes and fsyncs inline, with no swap
    /// buffer to wait for. Kept only because the frozen benchmark harness
    /// (`sks_bench/src/metrics.rs:379`) names it.
    WalSwap,
    /// Never recorded: the engine has no index to flush since records
    /// carry their key. Kept only because the frozen benchmark harness
    /// (`sks_bench/src/metrics.rs`) names it.
    IndexFlush,
    /// Applying one grouped replay batch through the bulk-fill path
    /// during recovery.
    ReplayBatch,
    /// One multi-key transaction commit end to end: lock acquisition,
    /// conflict check, WAL frame, durability wait, and tree apply. Not
    /// part of the write-path breakdown sum — it *contains* WalAppend /
    /// WalFsync time, which the breakdown already attributes.
    TxnCommit,
}

impl Stage {
    pub const COUNT: usize = 18;

    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::BlockRead,
        Stage::BlockWrite,
        Stage::StoreFsync,
        Stage::NodeSeal,
        Stage::NodeUnseal,
        Stage::RecordSeal,
        Stage::RecordUnseal,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::CompactData,
        Stage::CompactNodes,
        Stage::CheckpointFlush,
        Stage::CheckpointCut,
        Stage::SealBatch,
        Stage::WalSwap,
        Stage::IndexFlush,
        Stage::ReplayBatch,
        Stage::TxnCommit,
    ];

    /// Stable snake_case name (stats JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Stage::BlockRead => "block_read",
            Stage::BlockWrite => "block_write",
            Stage::StoreFsync => "store_fsync",
            Stage::NodeSeal => "node_seal",
            Stage::NodeUnseal => "node_unseal",
            Stage::RecordSeal => "record_seal",
            Stage::RecordUnseal => "record_unseal",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::CompactData => "compact_data",
            Stage::CompactNodes => "compact_nodes",
            Stage::CheckpointFlush => "checkpoint_flush",
            Stage::CheckpointCut => "checkpoint_cut",
            Stage::SealBatch => "seal_batch",
            Stage::WalSwap => "wal_swap",
            Stage::IndexFlush => "index_flush",
            Stage::ReplayBatch => "replay_batch",
            Stage::TxnCommit => "txn_commit",
        }
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// What a flight-recorder [`Event`] describes. Hot-path kinds (engine ops)
/// are recorded only at [`Level::FullTrace`]; the rest are rare enough to
/// record from [`Level::Counters`] up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Engine point read. `a` = sealed value bytes returned (0 on miss).
    Get,
    /// Engine insert. `a` = value bytes.
    Put,
    /// Engine delete. `a` = 1 if the key existed.
    Delete,
    /// Engine range scan. `a` = records yielded.
    Range,
    /// Engine batch. `a` = operations in the batch.
    Batch,
    /// Checkpoint started. `a` = WAL records at the mark.
    CheckpointBegin,
    /// One checkpoint phase finished. `a` = phase ordinal (1-based).
    CheckpointPhase,
    /// Checkpoint finished. `b` = 1 if it failed.
    CheckpointEnd,
    /// Compaction pass finished. `a` = records moved, `b` = blocks freed.
    Compaction,
    /// A page store's checkpoint journal committed. `a` = pages
    /// journaled, `b` = files the one commit covers.
    PageCommit,
    /// Recovery began. `a` = WAL blocks on disk.
    RecoveryStart,
    /// Recovery finished. `a` = records replayed, `b` = torn-tail bytes
    /// discarded.
    RecoveryEnd,
    /// A torn WAL tail was scrubbed. `a` = byte offset of the cut,
    /// `b` = bytes discarded.
    TornTailScrub,
    /// WAL group commit forced a sync. `a` = commits in the batch.
    GroupCommit,
    /// Transaction began. `a` = snapshot epoch it reads at.
    TxnBegin,
    /// Transaction committed. `a` = keys written, `b` = partitions spanned.
    TxnCommit,
    /// Transaction aborted (explicitly or by drop). `a` = keys buffered.
    TxnAbort,
    /// A commit lost first-committer-wins validation. Carries the
    /// conflicting *partition* only — never the key, like every event.
    TxnConflict,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Get => "get",
            EventKind::Put => "put",
            EventKind::Delete => "delete",
            EventKind::Range => "range",
            EventKind::Batch => "batch",
            EventKind::CheckpointBegin => "checkpoint_begin",
            EventKind::CheckpointPhase => "checkpoint_phase",
            EventKind::CheckpointEnd => "checkpoint_end",
            EventKind::Compaction => "compaction",
            EventKind::PageCommit => "page_commit",
            EventKind::RecoveryStart => "recovery_start",
            EventKind::RecoveryEnd => "recovery_end",
            EventKind::TornTailScrub => "torn_tail_scrub",
            EventKind::GroupCommit => "group_commit",
            EventKind::TxnBegin => "txn_begin",
            EventKind::TxnCommit => "txn_commit",
            EventKind::TxnAbort => "txn_abort",
            EventKind::TxnConflict => "txn_conflict",
        }
    }

    /// Hot-path kinds are FullTrace-only; everything else records from
    /// Counters up.
    fn hot(self) -> bool {
        matches!(
            self,
            EventKind::Get
                | EventKind::Put
                | EventKind::Delete
                | EventKind::Range
                | EventKind::Batch
                | EventKind::GroupCommit
                | EventKind::TxnBegin
                | EventKind::TxnCommit
        )
    }
}

/// Marker for "no partition" in [`Event::partition`].
pub const NO_PARTITION: u32 = u32::MAX;

/// One structured flight-recorder entry. Carries magnitudes and ids only —
/// never key or value plaintext (enforced by the attack-sweep test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the recorder's epoch (process-relative).
    pub at_micros: u64,
    pub kind: EventKind,
    /// Partition index, or [`NO_PARTITION`].
    pub partition: u32,
    /// Kind-specific magnitude (bytes, counts, ordinals — see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific magnitude.
    pub b: u64,
    /// Duration of the event in nanoseconds (0 when instantaneous).
    pub dur_ns: u64,
}

impl Event {
    /// One-line human rendering, e.g.
    /// `+12.345ms checkpoint_end p=* a=3 b=0 (1.2ms)`.
    pub fn render(&self) -> String {
        let part = if self.partition == NO_PARTITION {
            "*".to_string()
        } else {
            self.partition.to_string()
        };
        format!(
            "+{:.3}ms {} p={} a={} b={} ({:.3}ms)",
            self.at_micros as f64 / 1000.0,
            self.kind.name(),
            part,
            self.a,
            self.b,
            self.dur_ns as f64 / 1_000_000.0,
        )
    }
}

/// Bounded ring buffer of recent [`Event`]s.
#[derive(Debug)]
struct FlightRecorder {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
}

impl FlightRecorder {
    fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    fn push(&self, ev: Event) {
        let mut ring = self.ring.lock().expect("flight recorder");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    fn dump(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("flight recorder")
            .iter()
            .copied()
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Obs handle
// ---------------------------------------------------------------------------

/// Default flight-recorder depth.
pub const RECORDER_CAPACITY: usize = 256;

#[derive(Debug)]
struct ObsInner {
    level: Level,
    epoch: Instant,
    stages: [Histogram; Stage::COUNT],
    recorder: FlightRecorder,
}

/// Cheaply cloneable observability handle. At [`Level::Off`] it holds no
/// allocation at all and every probe is a branch on `None`.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    pub fn new(level: Level) -> Self {
        match level {
            Level::Off => Obs { inner: None },
            _ => Obs {
                inner: Some(Arc::new(ObsInner {
                    level,
                    epoch: Instant::now(),
                    stages: std::array::from_fn(|_| Histogram::new()),
                    recorder: FlightRecorder::new(RECORDER_CAPACITY),
                })),
            },
        }
    }

    pub fn level(&self) -> Level {
        self.inner.as_ref().map_or(Level::Off, |i| i.level)
    }

    /// True when stage timing is on (Histograms or FullTrace).
    #[inline]
    pub fn timing(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.level >= Level::Histograms)
    }

    /// Starts a stage clock — `None` (free) unless timing is on.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.timing() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a stage clock opened by [`Obs::start`], recording the
    /// elapsed nanoseconds into the stage's histogram.
    #[inline]
    pub fn stage(&self, stage: Stage, started: Option<Instant>) {
        if let (Some(t), Some(inner)) = (started, self.inner.as_ref()) {
            inner.stages[stage as usize].record(t.elapsed().as_nanos() as u64);
        }
    }

    /// Closes a stage clock opened by [`Obs::start`] or an earlier lap and
    /// reopens it at the same instant, so back-to-back samples tile an
    /// interval with one clock read each.
    #[inline]
    pub fn lap(&self, stage: Stage, clock: &mut Option<Instant>) {
        if let (Some(t), Some(inner)) = (clock.as_mut(), self.inner.as_ref()) {
            let now = Instant::now();
            inner.stages[stage as usize].record(now.duration_since(*t).as_nanos() as u64);
            *t = now;
        }
    }

    /// Records a pre-measured duration into a stage histogram.
    #[inline]
    pub fn stage_ns(&self, stage: Stage, ns: u64) {
        if let Some(inner) = self.inner.as_ref() {
            if inner.level >= Level::Histograms {
                inner.stages[stage as usize].record(ns);
            }
        }
    }

    /// Records a flight-recorder event. Rare kinds (checkpoints, recovery,
    /// compaction, scrubs) record from [`Level::Counters`] up; hot kinds
    /// (per-op traffic) only at [`Level::FullTrace`].
    pub fn note(&self, kind: EventKind, partition: u32, a: u64, b: u64, dur_ns: u64) {
        if let Some(inner) = self.inner.as_ref() {
            if kind.hot() && inner.level < Level::FullTrace {
                return;
            }
            inner.recorder.push(Event {
                at_micros: inner.epoch.elapsed().as_micros() as u64,
                kind,
                partition,
                a,
                b,
                dur_ns,
            });
        }
    }

    /// The flight recorder's current contents, oldest first.
    pub fn recent_events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.recorder.dump())
    }

    /// Snapshot of every stage histogram (empty ones included so the
    /// stats surface has a stable shape).
    pub fn stages_snapshot(&self) -> Vec<(Stage, HistogramSnapshot)> {
        match self.inner.as_ref() {
            None => Stage::ALL
                .iter()
                .map(|&s| (s, HistogramSnapshot::default()))
                .collect(),
            Some(inner) => Stage::ALL
                .iter()
                .map(|&s| (s, inner.stages[s as usize].snapshot()))
                .collect(),
        }
    }

    /// Renders the flight recorder as one string per event — the dump
    /// format attached to recovery reports and maintenance errors.
    pub fn render_events(&self) -> Vec<String> {
        self.recent_events().iter().map(Event::render).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        // Exponential ladder of strictly increasing samples.
        let mut values = vec![0u64];
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            values.push(v);
            values.push(v + v / 4);
            v = v.saturating_mul(2);
        }
        values.push(u64::MAX);
        values.sort_unstable();
        values.dedup();
        let mut prev = 0usize;
        for &v in &values {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(idx >= prev, "monotone at v={v}: {idx} < {prev}");
            prev = idx;
        }
    }

    #[test]
    fn bucket_low_inverts_bucket_index() {
        for idx in 0..BUCKETS {
            let lo = bucket_low(idx);
            // Indexes past the u64 range collapse; only check representable.
            if bucket_index(lo) == idx {
                assert!(bucket_mid(idx) >= lo);
                if idx > 0 && bucket_index(lo - 1) == idx - 1 {
                    // boundary is exact: lo-1 falls in the previous bucket
                }
            }
        }
        // Small values map 1:1.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn histogram_quantiles_track_uniform_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.p50();
        assert!((400..=600).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!((900..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(1.0), 1000, "q=1 clamps to the observed max");
        assert!((450..=550).contains(&s.mean()), "mean={}", s.mean());
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let c = Histogram::new();
        for v in [1u64, 10, 100, 1000, 10_000] {
            a.record(v);
            c.record(v);
        }
        for v in [5u64, 50, 500_000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), c.snapshot());
        // Snapshot-level merge agrees too.
        let mut sa = Histogram::new().snapshot();
        for v in [1u64, 10, 100, 1000, 10_000] {
            let h = Histogram::new();
            h.record(v);
            sa.merge(&h.snapshot());
        }
        let all = Histogram::new();
        for v in [1u64, 10, 100, 1000, 10_000] {
            all.record(v);
        }
        assert_eq!(sa, all.snapshot());
    }

    #[test]
    fn off_level_is_inert() {
        let obs = Obs::new(Level::Off);
        assert_eq!(obs.level(), Level::Off);
        assert!(obs.start().is_none());
        obs.stage(Stage::WalAppend, None);
        obs.note(EventKind::CheckpointEnd, NO_PARTITION, 1, 2, 3);
        assert!(obs.recent_events().is_empty());
        assert!(obs.stages_snapshot().iter().all(|(_, s)| s.is_empty()));
        // No allocation behind the handle at all.
        assert!(obs.inner.is_none());
    }

    #[test]
    fn counters_level_records_rare_events_only() {
        let obs = Obs::new(Level::Counters);
        assert!(obs.start().is_none(), "no clocks below Histograms");
        obs.note(EventKind::Put, 0, 10, 0, 0); // hot: dropped
        obs.note(EventKind::TornTailScrub, NO_PARTITION, 4096, 128, 0);
        let events = obs.recent_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::TornTailScrub);
        assert_eq!(events[0].a, 4096);
    }

    #[test]
    fn histograms_level_times_stages() {
        let obs = Obs::new(Level::Histograms);
        let t = obs.start();
        assert!(t.is_some());
        obs.stage(Stage::NodeSeal, t);
        obs.stage_ns(Stage::WalFsync, 1_500);
        let stages = obs.stages_snapshot();
        let seal = &stages
            .iter()
            .find(|(s, _)| *s == Stage::NodeSeal)
            .unwrap()
            .1;
        assert_eq!(seal.count, 1);
        let fsync = &stages
            .iter()
            .find(|(s, _)| *s == Stage::WalFsync)
            .unwrap()
            .1;
        assert_eq!(fsync.count, 1);
        assert_eq!(fsync.sum, 1_500);
    }

    #[test]
    fn full_trace_records_hot_events_in_a_bounded_ring() {
        let obs = Obs::new(Level::FullTrace);
        for i in 0..(RECORDER_CAPACITY as u64 + 50) {
            obs.note(EventKind::Put, 0, i, 0, 0);
        }
        let events = obs.recent_events();
        assert_eq!(events.len(), RECORDER_CAPACITY, "ring is bounded");
        assert_eq!(
            events[0].a, 50,
            "oldest entries evicted, newest {RECORDER_CAPACITY} kept"
        );
        assert!(events.last().unwrap().a > events[0].a, "oldest first");
    }

    #[test]
    fn event_render_is_structured_and_plaintext_free() {
        let obs = Obs::new(Level::FullTrace);
        obs.note(EventKind::Get, 3, 128, 0, 2_000);
        let lines = obs.render_events();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("get"), "{}", lines[0]);
        assert!(lines[0].contains("p=3"), "{}", lines[0]);
        assert!(lines[0].contains("a=128"), "{}", lines[0]);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Off < Level::Counters);
        assert!(Level::Histograms < Level::FullTrace);
    }

    #[test]
    fn clones_share_state() {
        let a = Obs::new(Level::Histograms);
        let b = a.clone();
        b.stage_ns(Stage::BlockRead, 10);
        let stages = a.stages_snapshot();
        assert_eq!(stages[Stage::BlockRead as usize].1.count, 1);
    }
}
