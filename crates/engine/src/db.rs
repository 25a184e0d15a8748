//! [`SksDb`] — the concurrent, WAL-backed engine over enciphered B-trees.
//!
//! Architecture (one paragraph): the key space is sharded across `N`
//! independent [`EncipheredBTree`] partitions, each behind its own
//! `RwLock`, so point reads run concurrently everywhere and writers
//! serialize only within a partition. The router hashes the *disguised*
//! key — the same `f(k)` the paper writes to disk — so even the
//! partition-assignment pattern an opponent could observe carries no key
//! order. Every mutation is appended to a shared write-ahead log (one
//! `Mutex`, group commit per [`SyncPolicy`]) *before* it touches the tree,
//! and recovery replays the log through the identical router path.
//!
//! Lock order is always `partition.write (ascending partition id) →
//! wal.lock`, and reads take no WAL lock at all. Range scans visit
//! partitions one at a time and merge, so they see a
//! per-partition-consistent (not globally snapshot) view — the classic
//! read-committed engine contract.
//!
//! Since PR 9 every mutation is a transaction. The plain
//! `insert/delete/insert_batch/bulk_load` entry points are *implicit
//! autocommit* transactions: one WAL group + one tree apply under the
//! partition lock, with counters and framing byte-identical to the
//! pre-transaction engine. Explicit multi-key transactions
//! ([`Session::begin`] → [`crate::Txn`]) buffer their writes and run the
//! same commit sequence once, over every written partition's lock (taken
//! in the global ascending order — that is what makes cross-partition
//! commit deadlock-free) with **one** atomic WAL commit frame. Snapshot
//! reads rewind the current trees through the `TxnManager`
//! undo overlay, so they never block writers. See `txn.rs` for the
//! isolation model.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use sks_core::{
    CompactionReport, CoreError, EncipheredBTree, KeyDisguise, SchemeConfig, StorageBackend,
};
use sks_storage::{
    wipe, Event, EventKind, FailStore, FileDisk, Histogram, OpCounters, OpSnapshot, Stage,
    SyncPolicy, NO_PARTITION,
};

use crate::error::EngineError;
use crate::recovery::{apply_replay, RecoveryPath, RecoveryReport};
use crate::stats::{PartitionStats, StatsSnapshot};
use crate::txn::{KeyPriors, Txn, TxnManager};
use crate::wal::{SyncTicket, Wal, WalOp, WalReplay};

use std::collections::BTreeMap;

/// Engine-level configuration wrapping the paper-level [`SchemeConfig`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Scheme, capacity and `partitions` knob for every tree partition.
    pub scheme: SchemeConfig,
    /// Commit durability (see [`SyncPolicy`]); default is group commit.
    pub sync: SyncPolicy,
    /// Fault-injection plan for the engine's WAL device. `None` (the
    /// default, and the only production setting) runs the WAL directly on
    /// its [`sks_storage::FileDisk`]; `Some(plan)` wraps every WAL the
    /// engine builds — including the fresh log each checkpoint cuts to —
    /// in a [`sks_storage::FailStore`] sharing that plan, so the
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
    /// Explicit-transaction commit latency (a txn may span partitions, so
    /// engine-wide like `range_hist`).
    txn_hist: Histogram,
    /// Commit epochs, live snapshots and the undo-version overlay backing
    /// snapshot reads and first-committer-wins validation.
    txns: TxnManager,
    recovery: RecoveryReport,
    wal_path: PathBuf,
    config: EngineConfig,
    /// Serialises whole checkpoints against each other; readers and
    /// writers are *not* behind this lock.
    checkpoint_serial: Mutex<()>,
    /// What the most recent checkpoint's compaction passes reclaimed.
    last_compaction: Mutex<CompactionReport>,
    /// Exclusive advisory lock on the database directory, held for the
    /// engine's lifetime. A second engine opening the same directory
    /// would checkpoint over this one's WAL and page stores by path and
    /// silently corrupt it; the kernel lock (released automatically even
    /// on SIGKILL) makes that a clean open-time error instead.
    _dir_lock: std::fs::File,
}

const WAL_FILE: &str = "wal.sks";
/// Block size of the WAL's backing [`FileDisk`].
const WAL_BLOCK_SIZE: usize = 4096;
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

/// Persisted engine layout: the facts a reopen must agree on. On the file
/// backend the partition count is baked into the on-disk routing (each
/// partition holds the keys its hash slot routed there), so reopening
/// with a different count — or with the memory backend, which would
/// ignore the checkpointed pages entirely — must fail closed instead of
/// silently losing data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EngineMeta {
    partitions: u32,
    file_backend: bool,
}

impl EngineMeta {
    fn of(config: &EngineConfig) -> Self {
        EngineMeta {
            partitions: config.scheme.partitions as u32,
            file_backend: config.scheme.backend.is_file(),
        }
    }

    fn write(&self, db_dir: &Path) -> Result<(), EngineError> {
        let mut buf = Vec::with_capacity(8 + 4 + 4 + 1);
        buf.extend_from_slice(META_MAGIC);
        buf.extend_from_slice(&META_VERSION.to_be_bytes());
        buf.extend_from_slice(&self.partitions.to_be_bytes());
        buf.push(self.file_backend as u8);
        let path = db_dir.join(META_FILE);
        use std::io::Write;
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        drop(file);
        sync_dir(db_dir)
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
        Ok(Some(EngineMeta {
            partitions: u32::from_be_bytes(buf[12..16].try_into().expect("fixed width")),
            file_backend: buf[16] != 0,
        }))
    }

    /// Refuses configurations that would silently orphan persisted data.
    fn check_compatible(&self, config: &EngineConfig) -> Result<(), EngineError> {
        if !self.file_backend {
            // Memory-backend databases carry their whole state in the WAL,
            // which replays through the router per key — any partition
            // count (and an upgrade to the file backend) is safe.
            return Ok(());
        }
        if !config.scheme.backend.is_file() {
            return Err(EngineError::Config(
                "this database was created on the file backend; reopening with the \
                 memory backend would ignore the checkpointed pages and silently drop \
                 data — configure StorageBackend::File"
                    .into(),
            ));
        }
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

/// Directory of partition `i`'s on-disk stores (file backend only).
fn partition_dir(db_dir: &Path, i: usize) -> PathBuf {
    db_dir.join(format!("part-{i:03}"))
}

/// Refuses a directory holding a `snap-*` entry. Older engines
/// checkpointed the memory backend by writing the live set to
/// `snap-NNN.sks` files and cutting the log down to the tail, so the log
/// beside such a file is not the whole history: replaying it alone would
/// silently drop every record older than that cut.
fn refuse_legacy_snapshots(db_dir: &Path) -> Result<(), EngineError> {
    for entry in std::fs::read_dir(db_dir)? {
        let name = entry?.file_name();
        if name.to_string_lossy().starts_with("snap-") {
            return Err(EngineError::Config(format!(
                "{} holds {name:?}, a partition snapshot written by an older engine whose \
                 checkpoints cut the log; the log alone no longer reconstructs this \
                 database — refusing to open",
                db_dir.display()
            )));
        }
    }
    Ok(())
}

/// The per-partition scheme config: on the file backend each partition's
/// stores are re-rooted under the database directory (whatever directory
/// the caller put in `StorageBackend::File.dir` is only used when the
/// config drives a standalone tree).
fn partition_config(scheme: &SchemeConfig, db_dir: &Path, i: usize) -> SchemeConfig {
    let mut config = scheme.clone();
    if let StorageBackend::File { pool_pages, .. } = &scheme.backend {
        config.backend = StorageBackend::File {
            dir: partition_dir(db_dir, i),
            pool_pages: *pool_pages,
        };
    }
    config
}

impl SksDb {
    /// Opens (or creates) the database in `dir`. If a WAL exists its
    /// intact records are replayed; a torn tail is detected, reported via
    /// [`SksDb::recovery_report`], and scrubbed.
    ///
    /// On the memory backend the log is the database — no checkpoint cuts
    /// it — and every tree is rebuilt from all of it
    /// ([`RecoveryPath::FullReplay`]), an O(history) restart. On the file
    /// backend persisted partitions are reopened from their checkpointed
    /// pages and only the log tail is replayed
    /// ([`RecoveryPath::TailReplay`]) — an O(tail) restart. A directory
    /// holding a partition snapshot of an older engine (`snap-*`), whose
    /// log is tail-only, is refused before anything in it is touched.
    pub fn open<P: AsRef<Path>>(dir: P, config: EngineConfig) -> Result<Arc<Self>, EngineError> {
        if config.scheme.partitions == 0 {
            return Err(EngineError::Config("partitions must be >= 1".into()));
        }
        std::fs::create_dir_all(&dir)?;
        let db_dir = dir.as_ref();
        let wal_path = db_dir.join(WAL_FILE);

        // One engine per directory, enforced before anything is touched:
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

        refuse_legacy_snapshots(db_dir)?;

        let stored_meta = EngineMeta::read(db_dir)?;
        if let Some(meta) = &stored_meta {
            meta.check_compatible(&config)?;
        }

        let counters = OpCounters::with_observability(config.scheme.observability);
        let router = Router::new(&config.scheme, &counters)?;
        let n = config.scheme.partitions;
        // Reopen persisted partitions only when *all* of them are present.
        let persisted = config.scheme.backend.is_file()
            && (0..n).all(|i| EncipheredBTree::exists_on_disk(partition_dir(db_dir, i)));
        // A database the metadata says is file-backed but whose partition
        // stores are (partially) missing is damaged: creating fresh trees
        // would truncate the survivors and "recover" from a WAL that a
        // checkpoint may already have emptied. Fail instead of losing
        // data silently.
        if !persisted && stored_meta.map(|m| m.file_backend).unwrap_or(false) {
            return Err(EngineError::Config(
                "partition stores are missing or damaged (engine metadata says this \
                 database is file-backed); refusing to rebuild over them"
                    .into(),
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

        let (wal, recovery) = if wal_path.exists() {
            counters
                .obs()
                .note(EventKind::RecoveryStart, NO_PARTITION, 0, 0, 0);
            let recovery_timer = counters.obs().start();
            let (wal, replay) = open_wal(&wal_path, &config, counters.clone())?;
            let mut report = apply_replay(&mut partitions, &router, replay)?;
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
            (wal, report)
        } else {
            let wal = create_wal(&wal_path, &config, counters.clone())?;
            // The file's directory entry must be durable too, or a crash
            // could leave a database directory with no log at all.
            sync_dir(db_dir)?;
            (wal, RecoveryReport::default())
        };
        // The pipelined write path: a writer thread overlaps the next
        // group's sealing with the previous group's device write + fsync.
        let wal = wal.enable_pipeline();

        // Persist the layout facts (last, once stores + log exist) so the
        // next open can refuse incompatible configurations.
        let meta = EngineMeta::of(&config);
        if stored_meta != Some(meta) {
            meta.write(db_dir)?;
        }

        Ok(Arc::new(SksDb {
            op_hist: (0..n).map(|_| OpHist::new()).collect(),
            range_hist: Histogram::new(),
            txn_hist: Histogram::new(),
            txns: TxnManager::new(),
            max_value_len: partitions[0].max_record_len(),
            partitions: partitions.into_iter().map(RwLock::new).collect(),
            router,
            wal: Mutex::new(wal),
            counters,
            recovery,
            wal_path,
            config,
            checkpoint_serial: Mutex::new(()),
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

    /// A session handle for one logical client. Sessions are cheap clones
    /// of the shared engine and are `Send`, one per thread.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            db: Arc::clone(self),
        }
    }

    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn partition_count(&self) -> usize {
        self.partitions.len()
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
        if let Some((_, m)) = merged.iter_mut().find(|(n, _)| *n == "txn") {
            m.merge(&self.txn_hist.snapshot());
        }
        StatsSnapshot {
            level: self.counters.obs().level(),
            counters: self.counters.snapshot(),
            ops: merged,
            partitions,
            stages: self.counters.obs().stages_snapshot(),
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

    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        let timer = self.counters.obs().start();
        let p = self.router.partition_of(key)?;
        let result = {
            let tree = self.partitions[p].read().expect("partition lock");
            tree.get(key)?
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

    /// Inserts (or replaces) the record under `key`.
    ///
    /// Failure semantics: an error from the WAL *commit* step (e.g. an
    /// fsync failure) leaves the operation's outcome indeterminate — the
    /// record may already sit durably in the log even though the error
    /// was returned. The WAL fail-stops on such errors (every later write
    /// returns [`EngineError::WalPoisoned`]); reopening the database
    /// replays the log and decides the final outcome, exactly as a crash
    /// at commit time would.
    ///
    /// This is an implicit *autocommit* transaction: the same
    /// log-then-apply commit sequence an explicit [`Txn`] runs, with one
    /// key and one partition, so its counters and WAL framing are
    /// byte-identical to the pre-transaction engine.
    pub fn insert(&self, key: u64, value: Vec<u8>) -> Result<Option<Vec<u8>>, EngineError> {
        let timer = self.counters.obs().start();
        let value_len = value.len() as u64;
        let p = self.route_insert(key, &value)?;
        let result = {
            let mut tree = self.partitions[p].write().expect("partition lock");
            self.log_autocommit(|wal| wal.append_insert(key, &value).map(|_| ()))?;
            let result = tree.insert(key, value)?;
            self.txns.note_commit_with(|| vec![(key, result.clone())]);
            result
        };
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
    /// by partition and each group pays *one* group-commit instead of one
    /// per record. Partition groups apply atomically with respect to each
    /// other's locks but the batch as a whole is not a transaction — the
    /// same read-committed contract as [`SksDb::range`]. Returns the
    /// number of records written.
    pub fn insert_batch(&self, items: Vec<(u64, Vec<u8>)>) -> Result<usize, EngineError> {
        let groups = self.route_groups(items)?;
        let mut written = 0usize;
        for (p, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let timer = self.counters.obs().start();
            let count = group.len();
            {
                let mut tree = self.partitions[p].write().expect("partition lock");
                self.log_autocommit(|wal| wal.append_insert_group(&group).map(|_| ()))?;
                let mut priors = Vec::with_capacity(group.len());
                for (key, value) in group {
                    priors.push((key, tree.insert(key, value)?));
                }
                self.txns.note_commit(priors);
            }
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
            self.log_autocommit(|wal| wal.append_insert_group(&group).map(|_| ()))?;
            tree.bulk_load(&group)?;
            // Loaded into an empty tree: every prior is `None`.
            self.txns
                .note_commit_with(|| group.iter().map(|&(k, _)| (k, None)).collect());
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
        let result = {
            let mut tree = self.partitions[p].write().expect("partition lock");
            self.log_autocommit(|wal| wal.append_delete(key).map(|_| ()))?;
            let result = tree.delete(key)?;
            self.txns.note_commit_with(|| vec![(key, result.clone())]);
            result
        };
        if let Some(t) = timer {
            let ns = t.elapsed().as_nanos() as u64;
            self.op_hist[p].delete.record(ns);
            self.counters
                .obs()
                .note(EventKind::Delete, p as u32, result.is_some() as u64, 0, ns);
        }
        Ok(result)
    }

    /// Completes an overlapped group commit: waits for the fsync ticket
    /// (when [`Wal::commit`] handed one out) with the WAL lock
    /// already released, so another partition's writer can seal the next
    /// group while this group's fsync is in flight. The wait is this
    /// thread's durability barrier — charged to the same `WalFsync`
    /// stage an inline fsync would be. On error the tree has not been
    /// mutated (callers wait before applying), and the WAL's sticky
    /// writer error fail-stops every later commit.
    fn wait_durable(&self, ticket: Option<SyncTicket>) -> Result<(), EngineError> {
        let Some(ticket) = ticket else {
            return Ok(());
        };
        let timer = self.counters.obs().start();
        ticket.wait()?;
        self.counters.obs().stage(Stage::WalFsync, timer);
        Ok(())
    }

    /// The one autocommit logging sequence every single-group mutation
    /// takes: append(s) + policy-driven group commit under the WAL lock,
    /// then the durability wait with the lock released. Callers hold the
    /// partition write lock across this and the tree apply; explicit
    /// multi-key transactions run the same sequence via
    /// [`SksDb::commit_txn_with_hook`] with more partition locks and one
    /// atomic commit frame.
    fn log_autocommit(
        &self,
        append: impl FnOnce(&mut Wal) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let ticket = {
            let mut wal = self.wal.lock().expect("wal lock");
            append(&mut wal)?;
            wal.commit()?
        };
        self.wait_durable(ticket)
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

    /// Point read as of snapshot epoch `snapshot`: the current tree value
    /// rewound through the undo overlay. The partition read lock is
    /// released *before* the overlay probe — safe either way the race
    /// falls, because an overlay entry for a commit that applied after
    /// our tree read holds exactly the value we just read.
    pub(crate) fn snapshot_get(
        &self,
        key: u64,
        snapshot: u64,
    ) -> Result<Option<Vec<u8>>, EngineError> {
        let timer = self.counters.obs().start();
        let p = self.router.partition_of(key)?;
        let current = {
            let tree = self.partitions[p].read().expect("partition lock");
            tree.get(key)?
        };
        let result = self.txns.rewind(key, snapshot, current);
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

    /// Range scan `lo..=hi` as of snapshot epoch `snapshot`: the merged
    /// current-tree scan rewound through the undo overlay (post-snapshot
    /// overwrites revert, deletes resurrect, inserts vanish).
    pub(crate) fn snapshot_range(
        &self,
        lo: u64,
        hi: u64,
        snapshot: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        let timer = self.counters.obs().start();
        let mut out = Vec::new();
        for part in &self.partitions {
            let tree = part.read().expect("partition lock");
            out.extend(tree.range(lo, hi)?);
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        let out = self.txns.rewind_range(lo, hi, snapshot, out);
        if let Some(t) = timer {
            let ns = t.elapsed().as_nanos() as u64;
            self.range_hist.record(ns);
            self.counters
                .obs()
                .note(EventKind::Range, NO_PARTITION, out.len() as u64, 0, ns);
        }
        Ok(out)
    }

    /// Commits an explicit transaction's buffered writes atomically.
    ///
    /// Sequence: take every written partition's write lock in ascending
    /// partition order (the engine's global lock order — cross-partition
    /// commit can never deadlock another commit, a batch group or
    /// `flush_pages`, which all walk ascending); validate
    /// first-committer-wins against `snapshot` *under* those locks; seal
    /// all writes as **one** WAL commit frame; wait out the durability
    /// barrier; apply to the trees; record undo priors — all before any
    /// lock is released, so no reader ever sees a half-applied commit.
    ///
    /// Framing and durability: a single-key transaction degenerates to
    /// the autocommit sequence exactly (a group of one, policy-driven
    /// commit). A multi-key frame is all-or-nothing under torn-tail
    /// replay by construction; when it spans ≥ 2 partitions the commit
    /// additionally *forces* its fsync before the apply, so a checkpoint
    /// flushing one partition's pages can never outlive a lost log frame
    /// that also touched another partition.
    pub(crate) fn commit_txn_with_hook(
        &self,
        writes: BTreeMap<u64, (usize, Option<Vec<u8>>)>,
        snapshot: u64,
        mid: impl FnOnce(),
    ) -> Result<(), EngineError> {
        debug_assert!(!writes.is_empty());
        let timer = self.counters.obs().start();
        let keys = writes.len() as u64;
        // Group by the partition [`Txn::insert`] routed each key to;
        // BTreeMap keeps the lock order ascending.
        let mut by_part: BTreeMap<usize, KeyPriors> = BTreeMap::new();
        for (key, (p, value)) in writes {
            by_part.entry(p).or_default().push((key, value));
        }
        let parts = by_part.len();
        // Each locked partition with the number of writes it receives.
        let mut guards: Vec<_> = by_part
            .iter()
            .map(|(&p, g)| (g.len(), self.partitions[p].write().expect("partition lock")))
            .collect();
        // First-committer-wins: any written key committed by someone else
        // after our snapshot aborts us. Under the write locks, so no
        // competing commit can slip between validation and our frame.
        if let Some(key) = self
            .txns
            .conflict(by_part.values().flatten().map(|(k, _)| *k), snapshot)
        {
            let partition = by_part
                .iter()
                .find(|(_, g)| g.iter().any(|&(k, _)| k == key))
                .map(|(&p, _)| p)
                .unwrap_or(usize::MAX);
            // Nothing will be written: wipe the values, as an abort does.
            for (_, value) in by_part.values_mut().flatten() {
                if let Some(v) = value {
                    wipe::bytes(v);
                }
            }
            self.counters.bump(|c| &c.txn_conflicts);
            self.counters
                .obs()
                .note(EventKind::TxnConflict, partition as u32, keys, 0, 0);
            return Err(EngineError::Conflict { key, partition });
        }
        mid();
        // The values move into the frame's ops and from there into the
        // trees, in ascending partition order like `guards`.
        let ops: Vec<WalOp> = by_part
            .into_values()
            .flatten()
            .map(|(key, value)| match value {
                Some(value) => WalOp::Insert { key, value },
                None => WalOp::Delete { key },
            })
            .collect();
        let ticket = {
            let mut wal = self.wal.lock().expect("wal lock");
            match &ops[..] {
                // Single-key commit: exactly the autocommit sequence.
                [WalOp::Insert { key, value }] => wal.append_insert(*key, value)?,
                [WalOp::Delete { key }] => wal.append_delete(*key)?,
                _ => wal.append_txn(&ops)?,
            };
            if parts > 1 {
                wal.commit_durable()?
            } else {
                wal.commit()?
            }
        };
        self.wait_durable(ticket)?;
        // Apply and collect undo priors, every lock still held.
        let mut priors = Vec::with_capacity(ops.len());
        let mut ops = ops.into_iter();
        for (writes, tree) in guards.iter_mut() {
            for op in ops.by_ref().take(*writes) {
                priors.push(match op {
                    WalOp::Insert { key, value } => (key, tree.insert(key, value)?),
                    WalOp::Delete { key } => (key, tree.delete(key)?),
                });
            }
        }
        self.txns.note_commit(priors);
        drop(guards);
        if let Some(t) = timer {
            let ns = t.elapsed().as_nanos() as u64;
            self.txn_hist.record(ns);
            self.counters.obs().stage_ns(Stage::TxnCommit, ns);
            self.counters
                .obs()
                .note(EventKind::TxnCommit, NO_PARTITION, keys, parts as u64, ns);
        }
        Ok(())
    }

    /// Which partition `key` routes to (observability; the assignment
    /// pattern carries no key order — it hashes the disguised key).
    pub fn partition_of(&self, key: u64) -> Result<usize, EngineError> {
        self.router.partition_of(key)
    }

    /// Dirty pages currently buffered per partition (file backend; all
    /// zeros on the memory backend).
    pub fn dirty_pages_per_partition(&self) -> Vec<usize> {
        self.partitions
            .iter()
            .map(|p| p.read().expect("partition lock").dirty_pages())
            .collect()
    }

    /// Range scan `lo..=hi` across all partitions, merged in key order.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        let timer = self.counters.obs().start();
        let mut out = Vec::new();
        for part in &self.partitions {
            let tree = part.read().expect("partition lock");
            out.extend(tree.range(lo, hi)?);
        }
        out.sort_unstable_by_key(|&(k, _)| k);
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
        self.wal.lock().expect("wal lock").flush()
    }

    /// Structural validation of every partition.
    pub fn validate(&self) -> Result<(), EngineError> {
        for part in &self.partitions {
            part.read().expect("partition lock").validate()?;
        }
        Ok(())
    }

    /// Fuzzy checkpoint: partition maintenance and — on the file backend —
    /// a cut of the replay work a reopen must do, *without* stalling the
    /// engine. Clients keep reading and writing throughout; a client
    /// blocks only while its own partition is being compacted and flushed.
    ///
    /// Three phases, of which the memory backend runs only the second: it
    /// has no page image to cut the log against, so its log is the
    /// database and is never cut.
    ///
    /// 1. **Mark** the dirty epoch: note the WAL sequence number; every
    ///    record from it onward will survive the cut.
    /// 2. **Compact and flush partitions**, all *in parallel* (one thread
    ///    each, write-locking only that partition): the bounded
    ///    record-store and node-device compaction passes, then the flush
    ///    — on the file backend the journaled page-store checkpoint of
    ///    the partition's dirty pages, on the memory backend the release
    ///    of the blocks the pass freed.
    /// 3. **Cut the WAL** — only after every partition committed: the
    ///    records appended since the mark (the fuzzy tail) are carried
    ///    into a fresh log, which atomically renames over the old one.
    ///
    /// Convergence: an operation between the mark and its partition's
    /// flush is captured twice (flushed image *and* retained tail) and
    /// replays idempotently — record pointers are never reused and logged
    /// operations are last-writer-wins per key, applied in log order. An
    /// operation after its partition's flush lives in the retained tail
    /// only. An operation before the mark is in every flushed image (the
    /// tree update happens under the same partition write lock as its WAL
    /// append, and the flush queues behind that lock).
    ///
    /// Crash safety: the old WAL stands until the rename + directory
    /// fsync; a crash anywhere earlier recovers from the old log over the
    /// (possibly partially newer) images, which converges as above.
    ///
    /// Whole checkpoints are serialised against each other.
    pub fn checkpoint(&self) -> Result<(), EngineError> {
        self.checkpoint_with_hook(|| {})
    }

    /// [`SksDb::checkpoint`] with a test hook invoked mid-checkpoint —
    /// after the epoch mark, while the partition flushes are in flight,
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
        let _serial = self.checkpoint_serial.lock().expect("checkpoint serial");
        let tmp_path = self.wal_path.with_extension("tmp");
        // One scope around every thread the checkpoint starts, so each is
        // joined on every exit: `checkpoint_serial` is released when this
        // function returns, and a fresh-log helper still running past an
        // early error would truncate the `wal.tmp` of the next checkpoint
        // under its handle.
        std::thread::scope(|s| {
            // Phase 1, only with a page image to cut the log against (the
            // one place the checkpoint asks which backend it runs on):
            // mark the fuzzy epoch — the sequence number and byte offset
            // where the retained tail will begin, so the cut scans
            // O(tail) instead of re-reading the whole log — and start the
            // fresh log on its own thread, so its durability work (header
            // write + fsync) overlaps the partition flushes below. A
            // `.tmp` left by a failed checkpoint is overwritten by the
            // next one. Detached counters: the rewrite is not client
            // traffic and must not inflate wal_appends/wal_bytes.
            let cut = self.config.scheme.backend.is_file().then(|| {
                let mark = {
                    let wal = self.wal.lock().expect("wal lock");
                    (wal.next_seq(), wal.len_bytes())
                };
                let fresh = s.spawn(|| create_wal(&tmp_path, &self.config, OpCounters::new()));
                (mark, fresh)
            });

            // Phase 2. Each partition first runs its bounded record-store
            // compaction pass and then the node-device sliding pass, both
            // under the write lock (crash-safe because on the file
            // backend nothing reaches the medium until the journaled
            // page-store checkpoint commits, and on the memory backend
            // state is reconstructed from the WAL anyway). The truncated
            // devices physically shrink at the flush, which on a memory
            // device applies the pass's quarantined frees at once (no
            // cross-device crash window to wait out).
            let flush_timer = self.counters.obs().start();
            let handles: Vec<_> = self
                .partitions
                .iter()
                .map(|p| {
                    s.spawn(move || -> Result<CompactionReport, EngineError> {
                        let mut guard = p.write().expect("partition lock");
                        // Floored: checkpoint maintenance only rewrites
                        // blocks churn has made worth reclaiming.
                        let mut report =
                            guard.compact_step_floored(COMPACTION_BUDGET, COMPACTION_FLOOR_PCT)?;
                        report.absorb(guard.compact_nodes(COMPACTION_BUDGET)?);
                        guard.flush()?;
                        Ok(report)
                    })
                })
                .collect();
            mid();
            let mut compacted = CompactionReport::default();
            for h in handles {
                compacted.absorb(h.join().expect("partition flush thread")?);
            }
            *self.last_compaction.lock().expect("compaction report") = compacted;
            self.counters
                .obs()
                .stage(Stage::CheckpointFlush, flush_timer);
            self.counters
                .obs()
                .note(EventKind::CheckpointPhase, NO_PARTITION, 2, 0, 0);
            let Some(((mark_seq, mark_offset), fresh)) = cut else {
                return Ok(());
            };

            // Phase 3: cut the log, carrying the fuzzy tail. Writers are
            // blocked only for this re-append + rename.
            let cut_timer = self.counters.obs().start();
            let mut fresh = fresh.join().expect("wal create thread")?;
            let mut wal = self.wal.lock().expect("wal lock");
            // Every tail frame is re-sealed as one frame: the frame
            // boundary *is* the atomicity guarantee a reopen relies on,
            // so no commit unit (a transaction least of all) is split or
            // merged by the rewrite. A failed scan returns here, before
            // the rename, and the old log stands.
            for group in wal.records_since(mark_seq, mark_offset)? {
                fresh.append_txn(&group)?;
            }
            fresh.flush()?;
            std::fs::rename(&tmp_path, &self.wal_path)?;
            // fsync the directory: without it the rename itself is not
            // durable, and a power failure could revert to the old log
            // even though later commits fsynced the new inode's data.
            sync_dir(self.wal_path.parent().expect("wal lives in the db dir"))?;
            // The fresh Wal's file handle survives the rename (same
            // inode); from here on it carries client traffic, so it
            // re-adopts the engine's shared counters — and the pipelined
            // write path.
            fresh.adopt_counters(self.counters.clone());
            *wal = fresh.enable_pipeline();
            self.counters.obs().stage(Stage::CheckpointCut, cut_timer);
            Ok(())
        })
    }

    /// One manual space-governance pass over every partition: up to
    /// `max_blocks_per_partition` tombstoned data blocks rewritten
    /// (deadest first) plus a node-device sliding pass of the same
    /// budget, under the partition write locks, one partition at a time.
    /// The reclaimed blocks are quarantined until the next checkpoint's
    /// flush protocol commits them (see `EncipheredBTree::flush`);
    /// [`SksDb::checkpoint`] runs a floored pass of its own with a fixed
    /// budget of `COMPACTION_BUDGET` (32) blocks.
    pub fn compact(
        &self,
        max_blocks_per_partition: usize,
    ) -> Result<CompactionReport, EngineError> {
        let timer = self.counters.obs().start();
        let mut total = CompactionReport::default();
        for part in &self.partitions {
            let mut guard = part.write().expect("partition lock");
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

    /// Flushes every partition's pages and the WAL to stable storage
    /// without truncating the log — a graceful-shutdown helper for the
    /// file backend (the next open still tail-replays, but the page
    /// stores are current).
    pub fn flush_pages(&self) -> Result<(), EngineError> {
        let mut guards: Vec<_> = self
            .partitions
            .iter()
            .map(|p| p.write().expect("partition lock"))
            .collect();
        for guard in &mut guards {
            guard.flush()?;
        }
        self.wal.lock().expect("wal lock").flush()
    }
}

/// Creates one of the engine's logs at `path`: on the plain
/// [`FileDisk`], or on the same disk behind a [`FailStore`] when the
/// config carries a fault plan — so the plan covers every engine WAL,
/// including the fresh log each checkpoint cuts to.
fn create_wal(
    path: &Path,
    config: &EngineConfig,
    counters: OpCounters,
) -> Result<Wal, EngineError> {
    let disk = FileDisk::create_with_counters(path, WAL_BLOCK_SIZE, counters.clone())?;
    match &config.wal_fault {
        None => Wal::create_on_device(disk, config.wal_key(), config.sync, counters),
        Some(plan) => {
            let disk = FailStore::with_plan(disk, plan.clone());
            Wal::create_on_device(disk, config.wal_key(), config.sync, counters)
        }
    }
}

/// [`create_wal`]'s counterpart for an existing log.
fn open_wal(
    path: &Path,
    config: &EngineConfig,
    counters: OpCounters,
) -> Result<(Wal, WalReplay), EngineError> {
    let disk = FileDisk::open_with_counters(path, counters.clone())?;
    match &config.wal_fault {
        None => Wal::open_on_device(disk, config.wal_key(), config.sync, counters),
        Some(plan) => {
            let disk = FailStore::with_plan(disk, plan.clone());
            Wal::open_on_device(disk, config.wal_key(), config.sync, counters)
        }
    }
}

/// Makes directory-entry mutations (create, rename) durable.
fn sync_dir(dir: &Path) -> Result<(), EngineError> {
    Ok(sks_storage::sync_dir(dir)?)
}

impl std::fmt::Debug for SksDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SksDb")
            .field("partitions", &self.partitions.len())
            .field("scheme", &self.config.scheme.scheme)
            .field("wal_path", &self.wal_path)
            .finish()
    }
}

/// Per-client handle: a cheap, `Send` clone of the shared engine. The
/// unmodified-DBMS fiction of the paper maps here: a session speaks plain
/// `get/insert/delete/range` over plaintext keys and never sees disguises,
/// seals, partitions or the log.
///
/// Every session mutation is a transaction. The plain methods below are
/// *autocommit* wrappers: each one runs the engine's single commit
/// sequence (log → durability barrier → tree apply, under the partition
/// lock) for one implicit single-group transaction, with counters and
/// WAL framing byte-identical to the pre-transaction API. For multi-key
/// atomicity, [`Session::begin`] hands out an explicit [`Txn`] whose
/// buffered writes commit through the very same sequence — once, as one
/// atomic WAL frame, across every written partition.
#[derive(Clone, Debug)]
pub struct Session {
    db: Arc<SksDb>,
}

impl Session {
    /// Begins an explicit multi-key transaction: snapshot reads as of
    /// now (never blocking writers), buffered writes, atomic
    /// cross-partition commit. Dropping it uncommitted aborts.
    pub fn begin(&self) -> Txn {
        self.db.begin()
    }

    /// Read-committed point read (autocommit; use [`Txn::get`] for
    /// snapshot reads).
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        self.db.get(key)
    }

    /// Autocommit single-key insert: an implicit one-write transaction.
    pub fn insert(&self, key: u64, value: Vec<u8>) -> Result<Option<Vec<u8>>, EngineError> {
        self.db.insert(key, value)
    }

    /// Autocommit batch: one implicit transaction *per partition group*
    /// (amortised commits, not cross-partition atomicity — use
    /// [`Session::begin`] for that).
    pub fn insert_batch(&self, items: Vec<(u64, Vec<u8>)>) -> Result<usize, EngineError> {
        self.db.insert_batch(items)
    }

    /// Autocommit sorted-ingest fast path (one implicit transaction per
    /// partition group, like [`Session::insert_batch`]).
    pub fn bulk_load(&self, items: Vec<(u64, Vec<u8>)>) -> Result<usize, EngineError> {
        self.db.bulk_load(items)
    }

    /// Autocommit single-key delete: an implicit one-write transaction.
    pub fn delete(&self, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        self.db.delete(key)
    }

    /// Read-committed range scan (per-partition-consistent; use
    /// [`Txn::range`] for a snapshot-consistent scan).
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        self.db.range(lo, hi)
    }

    pub fn db(&self) -> &Arc<SksDb> {
        &self.db
    }
}

// Sessions are handed to worker threads; the engine is shared behind Arc.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SksDb>();
    assert_send_sync::<Session>();
};
