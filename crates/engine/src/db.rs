//! [`SksDb`] — the concurrent, WAL-backed engine over enciphered B-trees.
//!
//! Architecture (one paragraph): the key space is sharded across `N`
//! independent [`EncipheredBTree`] partitions, each behind its own
//! `RwLock`, so point reads run concurrently everywhere and writers
//! serialize only within a partition. The router hashes the *disguised*
//! key — the same `f(k)` the paper writes to disk — so even the
//! partition-assignment pattern an opponent could observe carries no key
//! order. Every mutation is written to a shared write-ahead log (one
//! `Mutex`, group commit per [`SyncPolicy`]) *before* it touches the tree
//! — the commit writes, and when due fsyncs, inline — and recovery
//! replays the log through the identical router path. Pages never outrun
//! the log: a partition's pages reach their store only after the log is
//! durable through every commit applied to it, and each partition's
//! checkpoint records how far into the log its pages reach, so a reopen
//! replays into it exactly the commits past that point.
//!
//! Lock order is always `partition.write (ascending partition id) →
//! wal.lock`, and reads take no WAL lock at all. Range scans visit
//! partitions one at a time and merge, so they see a
//! per-partition-consistent (not globally snapshot) view — the classic
//! read-committed engine contract.
//!
//! Every mutation is a transaction, and there is one commit sequence:
//! `insert`, `delete`, each `insert_batch` partition group and
//! [`crate::Txn::commit`] all run one private function that write-locks
//! the written partitions in ascending id (the global order that makes
//! cross-partition commit deadlock-free), checks first-committer-wins
//! when a transaction's snapshot is given, logs every write as **one**
//! WAL group, applies it, and records the priors in the `TxnManager`'s
//! undo overlay — all before a lock drops. A commit spanning several
//! partitions is then durable before it is acknowledged, whatever the
//! policy: under a lazy one it waits for its fsync only after dropping
//! its locks, sharing that fsync with every frame already written (group
//! commit), so the wait stalls no other client. `bulk_load` builds its trees
//! bottom-up but logs through the same group append. Reads share one
//! path as well: a snapshot read is the read-committed read rewound
//! through the overlay, so it never blocks writers. A logged commit that
//! a tree then refuses, or whose durability wait fails, halts the engine:
//! every client and maintenance call returns [`EngineError::WalPoisoned`]
//! until a reopen replays the log. See `txn.rs` for the isolation model.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use sks_core::{
    CompactionReport, CoreError, EncipheredBTree, KeyDisguise, SchemeConfig, StorageBackend,
};
use sks_storage::{
    Event, EventKind, FailStore, Histogram, LogFile, OpCounters, OpSnapshot, Stage, SyncPolicy,
    NO_PARTITION,
};

use crate::error::EngineError;
use crate::recovery::{apply_replay, RecoveryPath, RecoveryReport};
use crate::stats::{PartitionStats, StatsSnapshot};
use crate::txn::{wipe_values, KeyValues, Txn, TxnManager};
use crate::wal::{Device, Scan, SyncTicket, Wal};

/// Engine-level configuration wrapping the paper-level [`SchemeConfig`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Scheme, capacity and `partitions` knob for every tree partition.
    pub scheme: SchemeConfig,
    /// Commit durability (see [`SyncPolicy`]); default is group commit.
    pub sync: SyncPolicy,
    /// Fault-injection plan for the engine's WAL device. `None` (the
    /// default, and the only production setting) runs the WAL directly on
    /// its [`sks_storage::LogFile`]s; `Some(plan)` wraps every log file the
    /// engine opens or creates — including the segment each checkpoint
    /// starts — in a [`sks_storage::FailStore`] sharing that plan, so the
    /// op-sequence fuzzer can kill the process at any write or fsync and
    /// drive recovery through the exact production path.
    #[doc(hidden)]
    pub wal_fault: Option<sks_storage::FailPlan>,
}

impl EngineConfig {
    pub fn new(scheme: SchemeConfig) -> Self {
        EngineConfig {
            scheme,
            sync: SyncPolicy::default(),
            wal_fault: None,
        }
    }

    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Sets [`EngineConfig::wal_fault`] — fuzz/crash probes only.
    #[doc(hidden)]
    pub fn wal_fault(mut self, plan: sks_storage::FailPlan) -> Self {
        self.wal_fault = Some(plan);
        self
    }

    /// Key sealing the WAL's record bodies: derived from the scheme's
    /// independent data-block key (§5) with a domain-separation tweak, so
    /// log and data blocks never share keystream. Public (but hidden) so
    /// crash probes can build a [`Wal`] over a fault-injecting device
    /// with the exact key the engine would use.
    #[doc(hidden)]
    pub fn wal_key(&self) -> u128 {
        self.scheme.data_key
            ^ 0x57414C_u128.rotate_left(96)
            ^ ((self.scheme.tree_key as u128) << 32)
    }
}

/// Routes keys to partitions by hashing the disguised key.
pub(crate) struct Router {
    disguise: Option<Arc<dyn KeyDisguise>>,
    n: usize,
}

impl Router {
    fn new(config: &SchemeConfig, counters: &OpCounters) -> Result<Self, EngineError> {
        Ok(Router {
            disguise: config.build_disguise(counters)?,
            n: config.partitions,
        })
    }

    /// splitmix64 finalizer — decorrelates partition choice from the
    /// disguised value's residue structure.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub(crate) fn partition_of(&self, key: u64) -> Result<usize, EngineError> {
        // Disguise even when unsharded: this doubles as the domain check
        // that keeps doomed (out-of-domain) operations out of the WAL.
        let routed = match &self.disguise {
            Some(d) => d.disguise(key).map_err(|e| {
                EngineError::Core(sks_core::CoreError::Config(format!(
                    "key {key} outside configured domain: {e}"
                )))
            })?,
            None => key,
        };
        if self.n == 1 {
            return Ok(0);
        }
        Ok((Self::mix(routed) % self.n as u64) as usize)
    }
}

/// One `(key, value)` write of a batch or bulk load.
type Insert = (u64, Vec<u8>);

/// Per-partition client-op latency histograms. Allocated up front;
/// recording is lock-free and happens only at `Histograms` and above
/// (below that, no clock is even read).
struct OpHist {
    get: Histogram,
    put: Histogram,
    delete: Histogram,
    batch: Histogram,
}

impl OpHist {
    fn new() -> Self {
        OpHist {
            get: Histogram::new(),
            put: Histogram::new(),
            delete: Histogram::new(),
            batch: Histogram::new(),
        }
    }
}

/// The engine. Cheap to share (`Arc`); one instance per database
/// directory.
pub struct SksDb {
    partitions: Vec<RwLock<EncipheredBTree>>,
    router: Router,
    /// Largest value a record slot holds (every partition has the same
    /// block size), checked at routing time so the WAL never logs it.
    max_value_len: usize,
    wal: Mutex<Wal>,
    counters: OpCounters,
    /// Per-partition get/put/delete/batch latency histograms.
    op_hist: Vec<OpHist>,
    /// Range-scan latency (a range crosses every partition, so it gets
    /// one engine-wide histogram instead of a per-partition slot).
    range_hist: Histogram,
    /// Commit epochs, live snapshots and the undo-version overlay backing
    /// snapshot reads and first-committer-wins validation.
    txns: TxnManager,
    /// Set when a logged commit failed to apply, so the trees may hold
    /// part of it, or when an applied commit's durability wait failed. From
    /// then on every client and maintenance call refuses with
    /// [`EngineError::WalPoisoned`] until a reopen replays the log. A failed
    /// apply sets it under the commit's partition write locks, and it is
    /// read under a partition lock, so no call queued behind that commit
    /// slips past.
    halted: AtomicBool,
    recovery: RecoveryReport,
    dir: PathBuf,
    config: EngineConfig,
    /// The numbers of the log's segments, oldest first; the last is the
    /// one being written. Its lock serialises whole checkpoints against
    /// each other; readers and writers are *not* behind it.
    segments: Mutex<Vec<u64>>,
    /// What the most recent checkpoint's compaction passes reclaimed.
    last_compaction: Mutex<CompactionReport>,
    /// Exclusive advisory lock on the database directory, held for the
    /// engine's lifetime. A second engine opening the same directory
    /// would checkpoint over this one's WAL and page stores by path and
    /// silently corrupt it; the kernel lock (released automatically even
    /// on SIGKILL) makes that a clean open-time error instead.
    _dir_lock: std::fs::File,
}

/// The single log file of an engine older than segmented logs.
const SINGLE_LOG: &str = "wal.sks";
/// The piece a WAL frame body is sealed and written in, and the replay's
/// read chunk (see [`Wal::create`]).
const WAL_PIECE: usize = 4096;
/// Dead-ratio floor, in percent, for the compaction each checkpoint runs:
/// a data block becomes a victim only once a quarter of its records are
/// dead. Rewriting a block re-seals its live records and repoints the
/// tree, so a lighter block is deferred until churn concentrates in it —
/// which keeps the steady-state checkpoint proportional to change, not to
/// database size. [`SksDb::compact`] still drains.
const COMPACTION_FLOOR_PCT: u8 = 25;
/// Data blocks (and node moves) each checkpoint's compaction may spend per
/// partition: bounds checkpoint latency, yet lets delete churn converge.
const COMPACTION_BUDGET: usize = 32;
const META_FILE: &str = "engine.sks";
const LOCK_FILE: &str = "engine.lock";
const META_MAGIC: &[u8; 8] = b"SKSENGN1";
const META_VERSION: u32 = 1;

/// Persisted engine layout: the facts a reopen must agree on. The
/// partition count is baked into the checkpointed stores (each partition
/// holds the keys its hash slot routed there), so reopening with a
/// different count must fail closed instead of silently losing data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EngineMeta {
    partitions: u32,
}

impl EngineMeta {
    fn of(config: &EngineConfig) -> Self {
        EngineMeta {
            partitions: config.scheme.partitions as u32,
        }
    }

    fn write(&self, db_dir: &Path) -> Result<(), EngineError> {
        let mut buf = Vec::with_capacity(8 + 4 + 4 + 1);
        buf.extend_from_slice(META_MAGIC);
        buf.extend_from_slice(&META_VERSION.to_be_bytes());
        buf.extend_from_slice(&self.partitions.to_be_bytes());
        // The backend byte: 1, page stores beside the log.
        buf.push(1);
        let path = db_dir.join(META_FILE);
        use std::io::Write;
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        drop(file);
        Ok(sks_storage::sync_dir(db_dir)?)
    }

    fn read(db_dir: &Path) -> Result<Option<Self>, EngineError> {
        let path = db_dir.join(META_FILE);
        let buf = match std::fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if buf.len() != 8 + 4 + 4 + 1 || &buf[0..8] != META_MAGIC {
            return Err(EngineError::Config(format!(
                "{} is not an sks-engine metadata file",
                path.display()
            )));
        }
        let version = u32::from_be_bytes(buf[8..12].try_into().expect("fixed width"));
        if version != META_VERSION {
            return Err(EngineError::Config(format!(
                "unknown engine metadata version {version}"
            )));
        }
        // Byte 0 marked an older engine's log-only database, whose
        // `wal.sks` the open refuses first.
        if buf[16] != 1 {
            let path = path.display();
            return Err(EngineError::Config(format!(
                "unknown backend byte {} in {path}",
                buf[16]
            )));
        }
        Ok(Some(EngineMeta {
            partitions: u32::from_be_bytes(buf[12..16].try_into().expect("fixed width")),
        }))
    }

    /// Refuses configurations that would silently orphan persisted data.
    fn check_compatible(&self, config: &EngineConfig) -> Result<(), EngineError> {
        if self.partitions as usize != config.scheme.partitions {
            return Err(EngineError::Config(format!(
                "this database was created with {} partitions; the on-disk layout is \
                 fixed, but the config asks for {} — reopen with partitions({})",
                self.partitions, config.scheme.partitions, self.partitions
            )));
        }
        Ok(())
    }
}

/// Segment `n` of the log, numbered as the segments were started
/// ([`SksDb::checkpoint`]).
fn segment_path(db_dir: &Path, n: u64) -> PathBuf {
    db_dir.join(format!("wal-{n}.sks"))
}

/// Reads every segment, oldest first, and checks, writing nothing, that
/// they are one log the partitions' pages continue: each starts (its
/// sentinel's seq) where the one before it ends, the oldest starts no
/// later than just past the lowest covered number, and a database with
/// metadata (`existing`) has one. A segment with no sentinel — a
/// checkpoint died creating it — holds nothing and is passed over; the
/// next segment started takes its name. Returns the segments' numbers and
/// the newest one, scanned, holding every segment's records.
fn read_log(
    db_dir: &Path,
    config: &EngineConfig,
    covered: &[u64],
    existing: bool,
) -> Result<Option<(Vec<u64>, Scan)>, EngineError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(db_dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str());
        let n = name.and_then(|n| n.strip_prefix("wal-")?.strip_suffix(".sks")?.parse().ok());
        found.extend(n.filter(|&n| segment_path(db_dir, n) == path));
    }
    found.sort_unstable();
    let (mut numbers, mut records, mut newest) = (Vec::new(), Vec::new(), None::<Scan>);
    let lowest = covered.iter().min().copied().unwrap_or(0);
    for n in found {
        let path = segment_path(db_dir, n);
        let file = LogFile::open(&path, OpCounters::new())?;
        let scan = Wal::scan(log_device(file, config), config.wal_key())?;
        let Some(mut scan) = scan.filter(|s| s.base.is_some()) else {
            continue;
        };
        let base = scan.base.expect("filtered");
        let (ok, starts) = match &newest {
            Some(prev) => (base == prev.next_seq, prev.next_seq),
            None => (base <= lowest + 1, lowest + 1),
        };
        if !ok {
            let why = format!("{} starts at seq {base}, not {starts}", path.display());
            return Err(refuse_log(why));
        }
        records.append(&mut scan.replay.records);
        numbers.push(n);
        newest = Some(scan);
    }
    // Metadata is written once the log is durable, so a fresh log here
    // would serve the last checkpoint and drop every write since.
    if newest.is_none() && existing {
        let why = format!("{} holds no log segment", db_dir.display());
        return Err(refuse_log(why));
    }
    Ok(newest.map(|mut scan| {
        scan.replay.records = records;
        (numbers, scan)
    }))
}

/// The refusal of a log with a segment missing or out of place.
fn refuse_log(why: String) -> EngineError {
    EngineError::Config(format!("broken log: {why}; refusing to open"))
}

/// Directory of partition `i`'s on-disk stores.
fn partition_dir(db_dir: &Path, i: usize) -> PathBuf {
    db_dir.join(format!("part-{i:03}"))
}

/// The per-partition scheme config: every partition keeps its page stores
/// under the database directory, behind a buffer pool of
/// [`StorageBackend::DEFAULT_POOL_PAGES`] frames per store. The engine
/// reads nothing from `scheme.backend`, which only a standalone tree
/// uses.
fn partition_config(scheme: &SchemeConfig, db_dir: &Path, i: usize) -> SchemeConfig {
    scheme
        .clone()
        .backend(StorageBackend::file(partition_dir(db_dir, i)))
}

impl SksDb {
    /// Opens (or creates) the database in `dir`: each partition's page
    /// stores live under `dir/part-NNN`, and the log is the segments
    /// `dir/wal-<n>.sks` ([`SksDb::checkpoint`]). The partition count is
    /// fixed when the database is created.
    ///
    /// Persisted partitions are reopened from their checkpointed pages
    /// and each is replayed only the logged writes past the log position
    /// its pages cover ([`RecoveryPath::TailReplay`]) — an O(tail)
    /// restart. A torn tail is detected, reported via
    /// [`SksDb::recovery_report`], and scrubbed.
    ///
    /// Fails closed, before anything is written, on a directory whose
    /// metadata exists but whose log is gone (the writes since the last
    /// checkpoint are lost), on segments that do not form one unbroken
    /// log, and on an older engine's directory: one holding `wal.sks`, a
    /// single log its checkpoints recorded no position in.
    pub fn open<P: AsRef<Path>>(dir: P, config: EngineConfig) -> Result<Arc<Self>, EngineError> {
        if config.scheme.partitions == 0 {
            return Err(EngineError::Config("partitions must be >= 1".into()));
        }
        std::fs::create_dir_all(&dir)?;
        let db_dir = dir.as_ref();

        // The refusals that only read come first, so a refused open
        // leaves the directory as it found it.
        if db_dir.join(SINGLE_LOG).exists() {
            let why = "the log of an older engine (a log-only database, or one whose \
                       checkpoints record no log position); refusing to open";
            let dir = db_dir.display();
            return Err(EngineError::Config(format!(
                "{dir} holds {SINGLE_LOG}, {why}"
            )));
        }
        let stored_meta = EngineMeta::read(db_dir)?;
        if let Some(meta) = &stored_meta {
            meta.check_compatible(&config)?;
        }

        // One engine per directory, enforced before anything is written:
        // a second instance would checkpoint over this one's log and
        // stores by path. The flock dies with the process, so a crashed
        // engine never wedges its directory.
        let dir_lock = std::fs::File::create(db_dir.join(LOCK_FILE))?;
        if let Err(e) = dir_lock.try_lock() {
            return Err(EngineError::Config(format!(
                "database directory {} is already open in another engine \
                 instance (lock unavailable: {e}); two engines on one \
                 directory would corrupt it",
                db_dir.display()
            )));
        }

        let counters = OpCounters::with_observability(config.scheme.observability);
        let router = Router::new(&config.scheme, &counters)?;
        let n = config.scheme.partitions;
        // Reopen persisted partitions only when *all* of them are present.
        let persisted = (0..n).all(|i| EncipheredBTree::exists_on_disk(partition_dir(db_dir, i)));
        // A database whose partition stores are (partially) missing is
        // damaged: creating fresh trees would truncate the survivors and
        // "recover" from a WAL that a checkpoint may already have emptied.
        // Fail instead of losing data silently.
        if !persisted && stored_meta.is_some() {
            return Err(EngineError::Config(
                "partition stores are missing or damaged; refusing to rebuild over them".into(),
            ));
        }
        let mut partitions = Vec::with_capacity(n);
        for i in 0..n {
            let part_config = partition_config(&config.scheme, db_dir, i);
            // Every partition seals under an identical disguise, and the
            // router already built one: share the Arc so the open pays
            // one difference-set construction, not one per partition.
            let shared = router.disguise.clone();
            partitions.push(if persisted {
                EncipheredBTree::open_with_shared_disguise(part_config, counters.clone(), shared)?
            } else {
                EncipheredBTree::create_with_shared_disguise(part_config, counters.clone(), shared)?
            });
        }

        let covered: Vec<u64> = partitions.iter().map(|p| p.tree().covered()).collect();
        let log = read_log(db_dir, &config, &covered, stored_meta.is_some())?;
        let (wal, recovery, segments) = if let Some((numbers, newest)) = log {
            counters
                .obs()
                .note(EventKind::RecoveryStart, NO_PARTITION, 0, 0, 0);
            let recovery_timer = counters.obs().start();
            let (wal, replay) = Wal::resume(newest, config.sync, counters.clone())?;
            let mut report = apply_replay(&mut partitions, &router, &covered, replay)?;
            counters.bump_by(|c| &c.wal_replayed, report.records_replayed);
            report.path = if persisted {
                RecoveryPath::TailReplay
            } else {
                RecoveryPath::FullReplay
            };
            counters.obs().note(
                EventKind::RecoveryEnd,
                NO_PARTITION,
                report.records_replayed,
                report.bytes_discarded,
                recovery_timer.map_or(0, |t| t.elapsed().as_nanos() as u64),
            );
            // The recovery timeline (including any torn-tail scrub the
            // log open recorded) travels with the report.
            report.events = counters.obs().recent_events();
            (wal, report, numbers)
        } else {
            let mut wal = create_segment(db_dir, 1, &config, counters.clone())?;
            wal.start_at(1)?;
            wal.flush()?;
            (wal, RecoveryReport::default(), vec![1])
        };

        // Persist the layout facts (last, once stores + log exist) so the
        // next open can refuse incompatible configurations.
        let meta = EngineMeta::of(&config);
        if stored_meta != Some(meta) {
            meta.write(db_dir)?;
        }

        Ok(Arc::new(SksDb {
            op_hist: (0..n).map(|_| OpHist::new()).collect(),
            range_hist: Histogram::new(),
            txns: TxnManager::new(),
            halted: AtomicBool::new(false),
            max_value_len: partitions[0].max_record_len(),
            partitions: partitions.into_iter().map(RwLock::new).collect(),
            router,
            wal: Mutex::new(wal),
            counters,
            recovery,
            dir: db_dir.to_path_buf(),
            config,
            segments: Mutex::new(segments),
            last_compaction: Mutex::new(CompactionReport::default()),
            _dir_lock: dir_lock,
        }))
    }

    /// Routes a write of `value` under `key`: the router's domain check,
    /// then the record store's length bound, so a write the tree would
    /// refuse never reaches the log.
    pub(crate) fn route_insert(&self, key: u64, value: &[u8]) -> Result<usize, EngineError> {
        let (p, max) = (self.router.partition_of(key)?, self.max_value_len);
        if value.len() > max {
            let msg = format!("record of {} bytes exceeds max {max}", value.len());
            return Err(CoreError::Record(msg).into());
        }
        Ok(p)
    }

    /// Routes every item through [`SksDb::route_insert`] into one group
    /// per partition, before anything is logged.
    fn route_groups(&self, items: Vec<Insert>) -> Result<Vec<Vec<Insert>>, EngineError> {
        let mut groups: Vec<Vec<Insert>> = (0..self.partitions.len()).map(|_| Vec::new()).collect();
        for (key, value) in items {
            groups[self.route_insert(key, &value)?].push((key, value));
        }
        Ok(groups)
    }

    /// A [`Session`] for one logical client: a cheap, `Send` clone of the
    /// shared engine, one per thread. The unmodified-DBMS fiction of the
    /// paper maps here: a session speaks plain `get/insert/delete/range`
    /// over plaintext keys and never sees disguises, seals, partitions or
    /// the log. Its plain mutations are autocommit transactions and
    /// [`SksDb::begin`] hands out an explicit [`Txn`]; both run the one
    /// commit sequence.
    pub fn session(self: &Arc<Self>) -> Session {
        Arc::clone(self)
    }

    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Aggregated operation counters across WAL and every partition.
    pub fn snapshot(&self) -> OpSnapshot {
        self.counters.snapshot()
    }

    /// The first-class stats surface: logical counters, per-op latency
    /// histograms (per partition and merged), the stage-attributed
    /// write-path breakdown and the space picture, at one instant.
    /// Histograms are empty below [`sks_storage::ObsLevel::Histograms`];
    /// the counters are byte-identical at every level.
    pub fn stats(&self) -> StatsSnapshot {
        let lens = self.partition_lens();
        let dirty = self.dirty_pages_per_partition();
        let mut merged: Vec<(&'static str, sks_storage::HistogramSnapshot)> = crate::stats::OPS
            .iter()
            .map(|&n| (n, Default::default()))
            .collect();
        let mut partitions = Vec::with_capacity(self.op_hist.len());
        for (i, hist) in self.op_hist.iter().enumerate() {
            let ops = vec![
                ("get", hist.get.snapshot()),
                ("put", hist.put.snapshot()),
                ("delete", hist.delete.snapshot()),
                ("batch", hist.batch.snapshot()),
            ];
            for (name, h) in &ops {
                if let Some((_, m)) = merged.iter_mut().find(|(n, _)| n == name) {
                    m.merge(h);
                }
            }
            partitions.push(PartitionStats {
                len: lens[i],
                dirty_pages: dirty[i],
                ops,
            });
        }
        if let Some((_, m)) = merged.iter_mut().find(|(n, _)| *n == "range") {
            m.merge(&self.range_hist.snapshot());
        }
        // An explicit transaction's commit latency is its stage's samples.
        let stages = self.counters.obs().stages_snapshot();
        if let Some((_, m)) = merged.iter_mut().find(|(n, _)| *n == "txn") {
            m.merge(&stages[Stage::TxnCommit as usize].1);
        }
        StatsSnapshot {
            level: self.counters.obs().level(),
            counters: self.counters.snapshot(),
            ops: merged,
            partitions,
            stages,
            wal_len_bytes: self.wal_len_bytes(),
            last_compaction: self.last_compaction_report(),
        }
    }

    /// The flight recorder's current contents, oldest first (empty below
    /// [`sks_storage::ObsLevel::Counters`]; per-op events only at
    /// `FullTrace`). Events carry partitions, counts, byte lengths and
    /// durations — never key or value bytes.
    pub fn recent_events(&self) -> Vec<Event> {
        self.counters.obs().recent_events()
    }

    /// Rendered flight-recorder tail, one line per event (what a traced
    /// error attaches).
    fn flight_dump(&self) -> String {
        self.counters.obs().render_events().join("\n")
    }

    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    pub fn len(&self) -> u64 {
        self.partition_lens().iter().sum()
    }

    /// Per-partition key counts (router balance observability).
    pub fn partition_lens(&self) -> Vec<u64> {
        self.partitions
            .iter()
            .map(|p| p.read().expect("partition lock").len())
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current logical size of the WAL in bytes.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.lock().expect("wal lock").len_bytes()
    }

    /// Read-committed point read (use [`Txn::get`] for a snapshot read).
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        self.read(key, None)
    }

    /// The one point read: the partition's current value, rewound through
    /// the undo overlay to `snapshot` when one is given. Without one the
    /// overlay's mutex is never touched. The partition read lock is
    /// released *before* the rewind — safe either way the race falls,
    /// because an overlay entry for a commit that applied after our tree
    /// read holds exactly the value we just read.
    pub(crate) fn read(
        &self,
        key: u64,
        snapshot: Option<u64>,
    ) -> Result<Option<Vec<u8>>, EngineError> {
        let timer = self.counters.obs().start();
        let p = self.router.partition_of(key)?;
        let current = {
            let tree = self.partitions[p].read().expect("partition lock");
            self.check_halted()?;
            tree.get(key)?
        };
        let result = match snapshot {
            Some(snapshot) => self.txns.rewind(key, snapshot, current),
            None => current,
        };
        if let Some(t) = timer {
            let ns = t.elapsed().as_nanos() as u64;
            self.op_hist[p].get.record(ns);
            let len = result.as_ref().map_or(0, |v| v.len() as u64);
            self.counters
                .obs()
                .note(EventKind::Get, p as u32, len, 0, ns);
        }
        Ok(result)
    }

    /// Inserts (or replaces) the record under `key`: an implicit
    /// *autocommit* transaction of one write through the one commit
    /// sequence an explicit [`Txn`] runs.
    ///
    /// Failure semantics: an error from the WAL *commit* step (e.g. an
    /// fsync failure) leaves the operation's outcome indeterminate — the
    /// record may already sit durably in the log even though the error
    /// was returned. The WAL fail-stops on such errors, and a tree that
    /// refuses a logged write halts the engine; either way every later
    /// call returns [`EngineError::WalPoisoned`], and reopening the
    /// database replays the log and decides the final outcome, exactly as
    /// a crash at commit time would.
    pub fn insert(&self, key: u64, value: Vec<u8>) -> Result<Option<Vec<u8>>, EngineError> {
        let timer = self.counters.obs().start();
        let value_len = value.len() as u64;
        let p = self.route_insert(key, &value)?;
        let write = vec![(p, vec![(key, Some(value))])];
        let result = self
            .commit(write, None, || {}, || {})?
            .pop()
            .and_then(|(_, v)| v);
        if let Some(t) = timer {
            let ns = t.elapsed().as_nanos() as u64;
            self.op_hist[p].put.record(ns);
            self.counters
                .obs()
                .note(EventKind::Put, p as u32, value_len, 0, ns);
        }
        Ok(result)
    }

    /// Inserts many records, amortising WAL commits: the batch is grouped
    /// by partition and each group is *one* autocommit transaction — one
    /// WAL group, one commit — instead of one per record. The batch as a
    /// whole is not a transaction — the same read-committed contract as
    /// [`SksDb::range`] (use [`SksDb::begin`] for cross-partition
    /// atomicity). Returns the number of records written.
    pub fn insert_batch(&self, items: Vec<(u64, Vec<u8>)>) -> Result<usize, EngineError> {
        let groups = self.route_groups(items)?;
        let mut written = 0usize;
        for (p, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let timer = self.counters.obs().start();
            let count = group.len();
            let writes = group.into_iter().map(|(k, v)| (k, Some(v))).collect();
            wipe_values(self.commit(vec![(p, writes)], None, || {}, || {})?);
            written += count;
            if let Some(t) = timer {
                let ns = t.elapsed().as_nanos() as u64;
                self.op_hist[p].batch.record(ns);
                self.counters
                    .obs()
                    .note(EventKind::Batch, p as u32, count as u64, 0, ns);
            }
        }
        Ok(written)
    }

    /// Sorted-ingest fast path: bulk-loads *strictly ascending* `(key,
    /// value)` pairs into an **empty** database. Each partition's group is
    /// logged under one group commit (one sealed batch frame, one fsync
    /// schedule tick) and its tree is then built bottom-up with exactly
    /// one encipherment pass per node block — no splits, no rebalancing,
    /// uniform fill — instead of one root-to-leaf descent per record.
    ///
    /// A partition's frame is streamed, so no frame-sized buffer is alive
    /// beside the trees' pinned pages. A failure to log a group or to
    /// build its tree halts the engine: every later call returns
    /// [`EngineError::WalPoisoned`] until a reopen replays the log.
    ///
    /// The trees are not built on threads beside the log. It halved
    /// `read_cold`'s bulk load on two cores, but every thread the load
    /// starts takes an allocator arena of its own, and the arenas then
    /// shuffled between the load and the checkpoints' threads raised the
    /// peak memory of the two-partition, 50k-record benchmark workloads
    /// by 4–10 %.
    ///
    /// Fails closed without touching anything when the keys are not
    /// strictly ascending, a key or value is out of bounds, or any
    /// partition already holds keys (checked under every write lock). Like
    /// [`SksDb::insert_batch`] the load is not one transaction across
    /// partitions: a crash mid-load replays the partition groups already
    /// committed to the log and loses the rest. Returns the number of
    /// records written.
    pub fn bulk_load(&self, items: Vec<(u64, Vec<u8>)>) -> Result<usize, EngineError> {
        if let Some(w) = items.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(EngineError::Config(format!(
                "bulk_load requires strictly ascending keys ({} then {})",
                w[0].0, w[1].0
            )));
        }
        // Hash routing filters the ascending stream into per-partition
        // subsequences, so each group is itself strictly ascending.
        let groups = self.route_groups(items)?;
        // Every write lock, in ascending order, before the emptiness
        // check: no concurrent insert can fill a partition between the
        // check and the logged load.
        let mut trees: Vec<_> = self
            .partitions
            .iter()
            .map(|p| p.write().expect("partition lock"))
            .collect();
        self.check_halted()?;
        if let Some((p, tree)) = trees.iter().enumerate().find(|(_, t)| !t.is_empty()) {
            return Err(EngineError::Config(format!(
                "bulk_load requires an empty database (partition {p} holds {} keys)",
                tree.len()
            )));
        }
        let mut written = 0usize;
        for ((p, group), tree) in groups.into_iter().enumerate().zip(&mut trees) {
            if group.is_empty() {
                continue;
            }
            let timer = self.counters.obs().start();
            let count = group.len();
            let logged = {
                let mut wal = self.wal.lock().expect("wal lock");
                wal.append_group(group.iter().map(|(k, v)| (*k, Some(&v[..]))))
                    .and_then(|_| wal.commit())
            };
            if let Err(e) = logged.and_then(|()| Ok(tree.bulk_load(&group)?)) {
                self.halted.store(true, Ordering::Release);
                return Err(e);
            }
            // Loaded into an empty tree: every prior is `None`.
            self.txns.note_commit(group.iter().map(|&(k, _)| (k, None)));
            written += count;
            if let Some(t) = timer {
                let ns = t.elapsed().as_nanos() as u64;
                self.op_hist[p].batch.record(ns);
                self.counters
                    .obs()
                    .note(EventKind::Batch, p as u32, count as u64, 0, ns);
            }
        }
        Ok(written)
    }

    /// Removes `key`. Same commit-failure semantics as [`SksDb::insert`].
    pub fn delete(&self, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        let timer = self.counters.obs().start();
        let p = self.router.partition_of(key)?;
        let write = vec![(p, vec![(key, None)])];
        let result = self
            .commit(write, None, || {}, || {})?
            .pop()
            .and_then(|(_, v)| v);
        if let Some(t) = timer {
            let ns = t.elapsed().as_nanos() as u64;
            self.op_hist[p].delete.record(ns);
            self.counters
                .obs()
                .note(EventKind::Delete, p as u32, result.is_some() as u64, 0, ns);
        }
        Ok(result)
    }

    /// The one commit sequence. `insert`, `delete`, each `insert_batch`
    /// partition group and [`Txn::commit`] all run it; `groups` holds
    /// each written partition's writes, partitions ascending, none empty.
    ///
    /// 1. Write-lock the written partitions in ascending id — the
    ///    engine's global lock order, so a commit can never deadlock
    ///    another commit, a checkpoint or `flush_pages`.
    /// 2. Given a transaction's `snapshot`, check first-committer-wins
    ///    under those locks: a written key committed by anyone else after
    ///    the snapshot refuses the commit with [`EngineError::Conflict`].
    /// 3. Run `mid` (a test hook).
    /// 4. Under the WAL lock, append every write as one group and commit
    ///    it: the frame is in the log file before this returns, and
    ///    fsynced there only when the [`SyncPolicy`] says so.
    /// 5. Apply each write and record the priors in the undo overlay,
    ///    every lock still held, so no reader sees half a commit.
    /// 6. Release the locks, run `before_wait` (a test hook) and, for a
    ///    commit spanning ≥ 2 partitions that the policy left unsynced,
    ///    wait for its frame to be durable before acknowledging it. The
    ///    wait is group commit: one fsync outside every lock serves each
    ///    frame written by the time it starts. Applying first is safe
    ///    because no page reaches its store before the log is durable
    ///    through every commit applied to it ([`SksDb::checkpoint`],
    ///    [`SksDb::flush_pages`]).
    ///
    /// Returns each key's prior value, in write order. On every error the
    /// values and priors not handed on are wiped. An error after step 4
    /// leaves the log holding a commit the trees hold only part of, or
    /// one whose durability is unknown, so it halts the engine
    /// ([`SksDb::check_halted`]) until a reopen replays the log and
    /// decides the outcome.
    pub(crate) fn commit(
        &self,
        groups: Vec<(usize, KeyValues)>,
        snapshot: Option<u64>,
        mid: impl FnOnce(),
        before_wait: impl FnOnce(),
    ) -> Result<KeyValues, EngineError> {
        let writes = || groups.iter().flat_map(|(_, w)| w);
        let mut trees: Vec<_> = groups
            .iter()
            .map(|&(p, _)| self.partitions[p].write().expect("partition lock"))
            .collect();
        let mut logged = self.check_halted();
        if let (Ok(()), Some(snapshot)) = (&logged, snapshot) {
            if let Some(key) = self.txns.conflict(writes().map(|&(k, _)| k), snapshot) {
                let partition = groups
                    .iter()
                    .find(|(_, w)| w.iter().any(|&(k, _)| k == key))
                    .map_or(usize::MAX, |&(p, _)| p);
                self.counters.bump(|c| &c.txn_conflicts);
                let keys = writes().count() as u64;
                self.counters
                    .obs()
                    .note(EventKind::TxnConflict, partition as u32, keys, 0, 0);
                logged = Err(EngineError::Conflict { key, partition });
            }
        }
        let mut ticket = None;
        if logged.is_ok() {
            mid();
            let mut wal = self.wal.lock().expect("wal lock");
            logged = wal
                .append_group(writes().map(|(k, v)| (*k, v.as_deref())))
                .and_then(|_| wal.commit_with(groups.len() > 1))
                .map(|t| ticket = t);
        }
        if let Err(e) = logged {
            wipe_values(groups.into_iter().flat_map(|(_, w)| w));
            return Err(e);
        }
        let mut priors = Vec::with_capacity(writes().count());
        let mut ops = (groups.into_iter().enumerate())
            .flat_map(|(i, (_, w))| w.into_iter().map(move |(key, value)| (i, key, value)));
        let applied = ops.by_ref().try_for_each(|(i, key, value)| {
            let prior = match value {
                Some(value) => trees[i].insert(key, value)?,
                None => trees[i].delete(key)?,
            };
            priors.push((key, prior));
            Ok::<_, CoreError>(())
        });
        if let Err(e) = applied {
            self.halted.store(true, Ordering::Release);
            wipe_values(ops.map(|(_, key, value)| (key, value)).chain(priors));
            return Err(e.into());
        }
        self.txns
            .note_commit(priors.iter().map(|(k, v)| (*k, v.as_deref())));
        drop(trees);
        before_wait();
        if let Err(e) = ticket.map_or(Ok(()), SyncTicket::wait) {
            self.halted.store(true, Ordering::Release);
            wipe_values(priors);
            return Err(e);
        }
        Ok(priors)
    }

    /// Refuses service once a logged commit failed to apply (see
    /// `halted`): [`EngineError::WalPoisoned`] until the database is
    /// reopened.
    fn check_halted(&self) -> Result<(), EngineError> {
        if self.halted.load(Ordering::Acquire) {
            return Err(EngineError::WalPoisoned);
        }
        Ok(())
    }

    /// Begins an explicit multi-key transaction: snapshot reads as of
    /// now, writes buffered until [`Txn::commit`]. See [`Txn`].
    pub fn begin(self: &Arc<Self>) -> Txn {
        Txn::begin(Arc::clone(self))
    }

    /// The transaction manager (snapshot registry + undo overlay).
    pub(crate) fn txns(&self) -> &TxnManager {
        &self.txns
    }

    /// Undo-overlay entry count (tests: must drain to zero once the last
    /// snapshot releases, proving MVCC bookkeeping is change-proportional
    /// and transient).
    #[doc(hidden)]
    pub fn txn_overlay_len(&self) -> usize {
        self.txns.overlay_len()
    }

    /// Which partition `key` routes to (observability; the assignment
    /// pattern carries no key order — it hashes the disguised key).
    pub fn partition_of(&self, key: u64) -> Result<usize, EngineError> {
        self.router.partition_of(key)
    }

    /// Dirty pages each partition's buffer pool pins until the next
    /// checkpoint.
    pub fn dirty_pages_per_partition(&self) -> Vec<usize> {
        self.partitions
            .iter()
            .map(|p| p.read().expect("partition lock").dirty_pages())
            .collect()
    }

    /// Read-committed range scan `lo..=hi` across all partitions, merged
    /// in key order (per-partition-consistent; use [`Txn::range`] for a
    /// snapshot-consistent scan).
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        self.scan(lo, hi, None)
    }

    /// The one range scan: every partition's `lo..=hi`, merged, then —
    /// given a `snapshot` — rewound through the undo overlay
    /// (post-snapshot overwrites revert, deletes resurrect, inserts
    /// vanish). Without one the overlay's mutex is never touched.
    pub(crate) fn scan(
        &self,
        lo: u64,
        hi: u64,
        snapshot: Option<u64>,
    ) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        let timer = self.counters.obs().start();
        let mut out = Vec::new();
        for part in &self.partitions {
            let tree = part.read().expect("partition lock");
            self.check_halted()?;
            out.extend(tree.range(lo, hi)?);
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        if let Some(snapshot) = snapshot {
            out = self.txns.rewind_range(lo, hi, snapshot, out);
        }
        if let Some(t) = timer {
            let ns = t.elapsed().as_nanos() as u64;
            self.range_hist.record(ns);
            self.counters
                .obs()
                .note(EventKind::Range, NO_PARTITION, out.len() as u64, 0, ns);
        }
        Ok(out)
    }

    /// Forces every pending WAL byte to stable storage.
    pub fn flush(&self) -> Result<(), EngineError> {
        self.check_halted()?;
        self.wal.lock().expect("wal lock").flush()
    }

    /// Structural validation of every partition.
    pub fn validate(&self) -> Result<(), EngineError> {
        for part in &self.partitions {
            part.read().expect("partition lock").validate()?;
        }
        Ok(())
    }

    /// Fuzzy checkpoint: partition maintenance and a cut of the replay
    /// work a reopen must do, *without* stalling the engine. Clients keep
    /// reading and writing throughout; a client blocks only while its own
    /// partition is being compacted and flushed. No log byte is read or
    /// rewritten, and whole checkpoints are serialised.
    ///
    /// 1. **Start a segment** `wal-<n+1>.sks` at the mark, unless nothing
    ///    was logged since the current one began. The current segment is
    ///    fsynced before the new one's sentinel is written, so a reopen
    ///    always lands on a prefix of the commit history.
    /// 2. **Commit partitions**, *in parallel*, each under its write lock:
    ///    the bounded compaction passes, then, unless it has no dirty page
    ///    and nothing was logged since its last commit, the log made
    ///    durable (one fsync the partitions share) and its pages committed
    ///    with its *covered number*, the log's last sequence number. Every
    ///    commit logs and applies under its partitions' write locks, so
    ///    the pages hold exactly the partition's logged writes up to that
    ///    number, and a reopen replays only those past it.
    /// 3. **Remove the retired segments**, which every partition now
    ///    covers, once the current one is durable. One that a crash brings
    ///    back replays nothing, so this needs no directory fsync.
    pub fn checkpoint(&self) -> Result<(), EngineError> {
        self.checkpoint_with_hook(|| {})
    }

    /// [`SksDb::checkpoint`] with a test hook invoked mid-checkpoint —
    /// after the segment switch, while the partition commits are in flight,
    /// with no partition lock held by the calling thread. Concurrency
    /// tests use it to *require* reader/writer progress before the
    /// checkpoint may complete.
    #[doc(hidden)]
    pub fn checkpoint_with_hook(&self, mid: impl FnOnce()) -> Result<(), EngineError> {
        let obs = self.counters.obs();
        obs.note(EventKind::CheckpointBegin, NO_PARTITION, 0, 0, 0);
        let begin = obs.start();
        let result = self.checkpoint_inner(mid);
        let ns = begin.map_or(0, |t| t.elapsed().as_nanos() as u64);
        obs.note(
            EventKind::CheckpointEnd,
            NO_PARTITION,
            0,
            result.is_err() as u64,
            ns,
        );
        // A failed maintenance pass carries its flight-recorder dump: the
        // event tail that led up to the error.
        result.map_err(|e| e.with_trace(self.flight_dump()))
    }

    fn checkpoint_inner(&self, mid: impl FnOnce()) -> Result<(), EngineError> {
        let mut segments = self.segments.lock().expect("checkpoint serial");
        self.check_halted()?;
        // Phase 1: start a segment. It is created before the WAL lock is
        // taken, so writers wait only for the retiring segment's fsync and
        // the sentinel's write.
        let cut_timer = self.counters.obs().start();
        let logged = {
            let wal = self.wal.lock().expect("wal lock");
            wal.next_seq() > wal.base() + 1
        };
        if logged {
            let n = segments.last().expect("the current segment") + 1;
            let mut next = create_segment(&self.dir, n, &self.config, self.counters.clone())?;
            let mut wal = self.wal.lock().expect("wal lock");
            wal.flush()?;
            next.start_at(wal.next_seq())?;
            *wal = next;
            segments.push(n);
        }
        self.counters.obs().stage(Stage::CheckpointCut, cut_timer);

        // Phase 2, under each partition's write lock: nothing compaction
        // moves reaches the medium before the journaled commit, and the
        // log is durable before the pages (WAL before data). These
        // per-partition threads are the only ones the engine starts, and
        // the scope joins every one of them on every exit.
        let flush_timer = self.counters.obs().start();
        let compacted = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .partitions
                .iter()
                .map(|p| {
                    s.spawn(move || -> Result<CompactionReport, EngineError> {
                        let mut guard = p.write().expect("partition lock");
                        // A halted engine's trees may hold half a logged
                        // commit: never flush that to the page stores.
                        self.check_halted()?;
                        // Floored: checkpoint maintenance only rewrites
                        // blocks churn has made worth reclaiming.
                        let mut report =
                            guard.compact_step_floored(COMPACTION_BUDGET, COMPACTION_FLOOR_PCT)?;
                        report.absorb(guard.compact_nodes(COMPACTION_BUDGET)?);
                        let (covered, log) = {
                            let wal = self.wal.lock().expect("wal lock");
                            (wal.next_seq() - 1, wal.sync_point())
                        };
                        if guard.dirty_pages() > 0 || guard.tree().covered() != covered {
                            log.sync_written()?;
                            guard.flush_covering(covered)?;
                        }
                        Ok(report)
                    })
                })
                .collect();
            mid();
            let mut compacted = CompactionReport::default();
            for h in handles {
                compacted.absorb(h.join().expect("partition flush thread")?);
            }
            Ok::<_, EngineError>(compacted)
        })?;
        *self.last_compaction.lock().expect("compaction report") = compacted;
        self.counters
            .obs()
            .stage(Stage::CheckpointFlush, flush_timer);
        self.counters
            .obs()
            .note(EventKind::CheckpointPhase, NO_PARTITION, 2, 0, 0);

        // Phase 3: the current segment's sentinel is durable before the
        // segments before it go, so the log never reopens without it.
        let cut_timer = self.counters.obs().start();
        if segments.len() > 1 {
            let log = self.wal.lock().expect("wal lock").sync_point();
            log.sync_written()?;
            while segments.len() > 1 {
                std::fs::remove_file(segment_path(&self.dir, segments[0]))?;
                segments.remove(0);
            }
        }
        self.counters.obs().stage(Stage::CheckpointCut, cut_timer);
        Ok(())
    }

    /// One manual space-governance pass over every partition: up to
    /// `max_blocks_per_partition` tombstoned data blocks rewritten
    /// (deadest first) plus a node-device sliding pass of the same
    /// budget, under the partition write locks, one partition at a time.
    /// The reclaimed blocks are free for reuse at once, and reach the
    /// medium with the repointed tree in the partition's next checkpoint
    /// (one commit of both its files); [`SksDb::checkpoint`] runs a
    /// floored pass of its own with a fixed budget of
    /// `COMPACTION_BUDGET` (32) blocks.
    pub fn compact(
        &self,
        max_blocks_per_partition: usize,
    ) -> Result<CompactionReport, EngineError> {
        let timer = self.counters.obs().start();
        let mut total = CompactionReport::default();
        for part in &self.partitions {
            let mut guard = part.write().expect("partition lock");
            self.check_halted()?;
            let pass = guard
                .compact_step(max_blocks_per_partition)
                .and_then(|mut r| {
                    r.absorb(guard.compact_nodes(max_blocks_per_partition)?);
                    Ok(r)
                });
            match pass {
                Ok(report) => total.absorb(report),
                // A failed maintenance pass carries its flight-recorder
                // dump, like a failed checkpoint.
                Err(e) => return Err(EngineError::from(e).with_trace(self.flight_dump())),
            }
        }
        self.counters.obs().note(
            EventKind::Compaction,
            NO_PARTITION,
            total.moved_records + total.moved_nodes,
            total.freed_blocks,
            timer.map_or(0, |t| t.elapsed().as_nanos() as u64),
        );
        Ok(total)
    }

    /// What the most recent checkpoint's compaction passes reclaimed.
    pub fn last_compaction_report(&self) -> CompactionReport {
        *self.last_compaction.lock().expect("compaction report")
    }

    /// Per-partition data-store footprint as `(total blocks, free
    /// blocks)` — compaction keeps `total - free` bounded by the live
    /// dataset.
    pub fn data_block_usage_per_partition(&self) -> Vec<(u32, u32)> {
        self.partitions
            .iter()
            .map(|p| p.read().expect("partition lock").data_block_usage())
            .collect()
    }

    /// Flushes the WAL and then every partition's pages, each covering
    /// the whole log, to stable storage without starting a segment — a
    /// graceful-shutdown helper: the next open replays nothing. The log
    /// goes first, so no page reaches its store ahead of the commits it
    /// holds.
    pub fn flush_pages(&self) -> Result<(), EngineError> {
        let mut guards: Vec<_> = self
            .partitions
            .iter()
            .map(|p| p.write().expect("partition lock"))
            .collect();
        self.check_halted()?;
        let covered = {
            let mut wal = self.wal.lock().expect("wal lock");
            wal.flush()?;
            wal.next_seq() - 1
        };
        for guard in &mut guards {
            guard.flush_covering(covered)?;
        }
        Ok(())
    }
}

/// An engine log file, behind a [`FailStore`] sharing the config's
/// fault plan when it carries one.
fn log_device(file: LogFile, config: &EngineConfig) -> Device {
    match &config.wal_fault {
        None => Box::new(file),
        Some(plan) => Box::new(FailStore::with_plan(file, plan.clone())),
    }
}

/// Creates segment `n` in `db_dir` ([`Wal::create_segment`]), its
/// directory entry made durable.
fn create_segment(
    db_dir: &Path,
    n: u64,
    config: &EngineConfig,
    counters: OpCounters,
) -> Result<Wal, EngineError> {
    let file = LogFile::create(segment_path(db_dir, n), counters.clone())?;
    let (disk, key) = (log_device(file, config), config.wal_key());
    let wal = Wal::create_segment(disk, WAL_PIECE, key, config.sync, counters)?;
    sks_storage::sync_dir(db_dir)?;
    Ok(wal)
}

impl std::fmt::Debug for SksDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SksDb")
            .field("partitions", &self.partitions.len())
            .field("scheme", &self.config.scheme.scheme)
            .field("dir", &self.dir)
            .finish()
    }
}

/// Per-client handle: the shared engine itself. A session speaks plain
/// `get/insert/delete/range` over plaintext keys (see [`SksDb::session`]).
pub type Session = Arc<SksDb>;

// Sessions are handed to worker threads; the engine is shared behind Arc.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SksDb>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sks_core::Scheme;
    use sks_storage::{FailMode, FailPlan};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sks_db_{}_{}", std::process::id(), name));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn config() -> EngineConfig {
        EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 4_000).partitions(2))
    }

    fn items(n: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n)
            .map(|k| (k, format!("bulk-{k:05}").into_bytes()))
            .collect()
    }

    /// Every client and maintenance call of a halted engine refuses.
    fn assert_halted(db: &Arc<SksDb>) {
        let calls: [(&str, Result<(), EngineError>); 11] = [
            ("get", db.get(3).map(drop)),
            ("range", db.range(0, 100).map(drop)),
            ("insert", db.insert(3_000, b"x".to_vec()).map(drop)),
            ("delete", db.delete(3).map(drop)),
            (
                "insert_batch",
                db.insert_batch(vec![(3_001, b"x".to_vec())]).map(drop),
            ),
            (
                "bulk_load",
                db.bulk_load(vec![(3_002, b"x".to_vec())]).map(drop),
            ),
            ("txn commit", {
                let mut txn = db.begin();
                txn.insert(3_003, b"x".to_vec()).and_then(|_| txn.commit())
            }),
            ("checkpoint", db.checkpoint()),
            ("compact", db.compact(8).map(drop)),
            ("flush", db.flush()),
            ("flush_pages", db.flush_pages()),
        ];
        for (what, result) in calls {
            // Maintenance calls wrap the error in the flight recorder's
            // trace; its message is the error's own.
            let err = result.expect_err(what).to_string();
            assert_eq!(err, EngineError::WalPoisoned.to_string(), "{what}");
        }
    }

    #[test]
    fn bulk_load_leaves_every_record_cache_empty() {
        let dir = tmpdir("bulk_cold_cache");
        let db = SksDb::open(&dir, config()).unwrap();
        assert_eq!(db.bulk_load(items(600)).unwrap(), 600);
        for p in &db.partitions {
            assert_eq!(p.read().unwrap().cached_records(), 0);
        }
        assert_eq!(db.get(5).unwrap().unwrap(), b"bulk-00005".to_vec());
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bulk_load_whose_log_fails_halts_the_engine() {
        let dir = tmpdir("bulk_log_fails");
        let plan = FailPlan::new();
        let db = SksDb::open(&dir, config().wal_fault(plan.clone())).unwrap();
        plan.arm_nth_write(2, FailMode::Error);
        let err = db.bulk_load(items(600)).unwrap_err();
        assert!(plan.tripped(), "the log write failed: {err}");
        assert_halted(&db);
        drop(db);
        plan.reset();
        // The trees' pages never reached their stores: a reopen holds what
        // the log holds, whole groups only.
        let db = SksDb::open(&dir, config()).unwrap();
        let lens = db.partition_lens();
        let groups: Vec<u64> = (0..2)
            .map(|p| {
                (0..600)
                    .filter(|&k| db.partition_of(k).unwrap() == p)
                    .count() as u64
            })
            .collect();
        for (len, whole) in lens.iter().zip(&groups) {
            assert!(*len == 0 || len == whole, "{lens:?} of {groups:?}");
        }
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bulk_load_whose_tree_fails_halts_the_engine() {
        let dir = tmpdir("bulk_tree_fails");
        let mut db = SksDb::open(&dir, config()).unwrap();
        // Admit a value one byte longer than the record store holds: the
        // log takes it, the tree refuses it.
        let max = db.max_value_len;
        Arc::get_mut(&mut db).unwrap().max_value_len = max + 1;
        let mut load = items(600);
        load[300].1 = vec![0xAB; max + 1];
        let err = db.bulk_load(load).unwrap_err();
        assert!(
            matches!(err, EngineError::Core(CoreError::Record(_))),
            "{err}"
        );
        assert_halted(&db);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
