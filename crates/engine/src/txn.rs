//! Multi-key transactions: snapshot reads and atomic cross-partition
//! commits over the partitioned engine.
//!
//! The design is MVCC turned inside out. The trees always hold the
//! *newest* committed state — exactly what the read-committed fast paths
//! want — and the `TxnManager` keeps a small **undo-version overlay**:
//! for every key overwritten while at least one snapshot is live, the
//! value it had *before* each post-snapshot commit. A snapshot read takes
//! the current tree value and rewinds it through the overlay to the
//! transaction's begin epoch. With no transaction open the overlay is
//! empty and every mutation pays one uncontended mutex probe — the
//! paper's logical counters never move (the overlay clones values only
//! while snapshots are live, and cloning is not a counted operation).
//!
//! Isolation level: **snapshot isolation**. Reads (and range scans) see
//! the database exactly as of `begin`, plus the transaction's own
//! buffered writes; commits validate first-committer-wins on the write
//! set (a key committed by anyone else after our snapshot ⇒
//! [`EngineError::Conflict`]). Write skew between disjoint write sets is
//! possible, as in any SI engine. Snapshot reads never block writers:
//! they take the same short per-partition read locks a read-committed
//! `get` takes, so they wait only while a commit is mid-apply on that
//! one partition — never on the whole database, and never on the WAL.
//!
//! One commit sequence: [`Txn::commit`] and the autocommit
//! `insert`/`delete`/`insert_batch` all run the engine's single commit
//! function (lock → validate → log → apply → record priors); a
//! transaction only adds its snapshot, which turns on the
//! first-committer-wins check. Reads share one path the same way: a
//! snapshot read is the read-committed read plus a rewind.
//!
//! Atomicity and durability: a commit is one sealed [`crate::Wal`] frame
//! (all-or-nothing under torn-tail recovery), and no page reaches its
//! store before the log is durable through every commit applied to it, so
//! no crash can persist half of a transaction through a fuzzy
//! checkpoint's page commit. A commit spanning ≥ 2 partitions is durable
//! before it is acknowledged under every policy: it applies under its
//! locks, releases them, and only then waits for its frame's fsync, which
//! it shares with every frame already written (group commit);
//! `SyncPolicy::Always` still fsyncs before the apply. A logged commit a
//! tree then refuses, or whose wait fails, halts the engine rather than
//! serve what it applied (see [`EngineError::WalPoisoned`]). Deadlock
//! freedom: commit acquires its partitions' write locks in ascending
//! partition-id order, the same global order every other multi-lock path
//! uses.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sks_storage::{wipe, EventKind, Stage, NO_PARTITION};

use crate::db::SksDb;
use crate::error::EngineError;

/// Wipes the plaintext a prior value held (same discipline as the WAL
/// staging buffer).
fn wipe_prior(prior: &mut Option<Vec<u8>>) {
    if let Some(v) = prior {
        wipe::bytes(v);
    }
}

/// Wipes the plaintext of `(key, value)` pairs a commit drops instead of
/// handing them on: writes it never applied, priors nobody asked for.
pub(crate) fn wipe_values(values: impl IntoIterator<Item = (u64, Option<Vec<u8>>)>) {
    for (_, mut value) in values {
        wipe_prior(&mut value);
    }
}

/// `(key, value)` pairs, `None` meaning absent: a commit's writes (`None`
/// deletes), the priors it returns (`None`: the key did not exist), and
/// the `(epoch, prior)` versions the overlay keeps per key.
pub(crate) type KeyValues = Vec<(u64, Option<Vec<u8>>)>;

/// Lays `(key, value)` entries over key-sorted scan `rows`: a value
/// replaces or adds its key's row, `None` removes it. The one merge a
/// scan is rewound through — to a snapshot's priors, then to a
/// transaction's own buffered writes.
fn overlay<'a>(
    rows: Vec<(u64, Vec<u8>)>,
    entries: impl IntoIterator<Item = (u64, Option<&'a [u8]>)>,
) -> Vec<(u64, Vec<u8>)> {
    let mut entries = entries.into_iter().peekable();
    if entries.peek().is_none() {
        return rows;
    }
    let mut map: BTreeMap<u64, Vec<u8>> = rows.into_iter().collect();
    for (key, value) in entries {
        match value {
            Some(v) => map.insert(key, v.to_vec()),
            None => map.remove(&key),
        };
    }
    map.into_iter().collect()
}

/// Undo entries and live-snapshot registry. One per engine, shared by
/// every commit path (explicit transactions *and* implicit autocommit
/// ops — the overlay must see every commit or snapshots would tear).
#[derive(Debug, Default)]
struct VersionInner {
    /// Live snapshot epochs → reference count.
    snapshots: BTreeMap<u64, usize>,
    /// key → ascending `(commit_epoch, value before that commit)`.
    /// `None` means the key did not exist before the commit. Entries are
    /// recorded only while ≥ 1 snapshot is live and pruned as snapshots
    /// release, so the overlay is empty whenever no transaction is open.
    versions: BTreeMap<u64, KeyValues>,
}

/// The engine's transaction heart: the global commit epoch, the live
/// snapshots, and the undo-version overlay.
#[derive(Debug)]
pub(crate) struct TxnManager {
    /// Commit epoch: incremented once per committed group (an autocommit
    /// op, one `insert_batch` partition group, or one explicit txn).
    epoch: AtomicU64,
    inner: Mutex<VersionInner>,
}

impl TxnManager {
    pub(crate) fn new() -> Self {
        TxnManager {
            epoch: AtomicU64::new(0),
            inner: Mutex::new(VersionInner::default()),
        }
    }

    /// Registers a live snapshot at the current epoch and returns it.
    /// The epoch read happens under the same mutex `note_commit` bumps
    /// it under, so a registration and a commit can never interleave in
    /// a way that loses undo entries the snapshot will need.
    pub(crate) fn begin_snapshot(&self) -> u64 {
        let mut inner = self.inner.lock().expect("txn manager");
        let epoch = self.epoch.load(Ordering::Acquire);
        *inner.snapshots.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Releases a snapshot and prunes overlay entries no remaining
    /// snapshot can need (an entry at epoch `e` serves snapshots older
    /// than `e` only). Pruned values are wiped before they are freed.
    pub(crate) fn release_snapshot(&self, epoch: u64) {
        let mut inner = self.inner.lock().expect("txn manager");
        if let Some(n) = inner.snapshots.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                inner.snapshots.remove(&epoch);
            }
        }
        match inner.snapshots.keys().next().copied() {
            None => {
                for entries in inner.versions.values_mut() {
                    for (_, prior) in entries.iter_mut() {
                        wipe_prior(prior);
                    }
                }
                inner.versions.clear();
            }
            Some(min_live) => {
                inner.versions.retain(|_, entries| {
                    entries.retain_mut(|(e, prior)| {
                        if *e > min_live {
                            true
                        } else {
                            wipe_prior(prior);
                            false
                        }
                    });
                    !entries.is_empty()
                });
            }
        }
    }

    /// Records one committed group: assigns it the next commit epoch
    /// and, when any snapshot is live, copies each written key's prior
    /// value into the overlay. `priors` is walked only then, so a commit
    /// with no snapshot open — a bulk load's whole group included — builds
    /// and clones nothing. Must be called while every affected
    /// partition's write lock is still held — that is what makes the
    /// commit atomic to snapshot readers (they either wait out the whole
    /// apply or rewind through the entries recorded here).
    pub(crate) fn note_commit<'a>(
        &self,
        priors: impl IntoIterator<Item = (u64, Option<&'a [u8]>)>,
    ) {
        let mut inner = self.inner.lock().expect("txn manager");
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        if !inner.snapshots.is_empty() {
            for (key, prior) in priors {
                let prior = prior.map(<[u8]>::to_vec);
                inner.versions.entry(key).or_default().push((epoch, prior));
            }
        }
    }

    /// First-committer-wins validation: the first written key the overlay
    /// says was committed by someone else after `snapshot`, if any. Must
    /// run under the write set's partition write locks (so no competing
    /// commit can slip between validation and this commit's own frame);
    /// sound because the caller's own snapshot keeps every post-snapshot
    /// entry retained.
    pub(crate) fn conflict(
        &self,
        keys: impl IntoIterator<Item = u64>,
        snapshot: u64,
    ) -> Option<u64> {
        let inner = self.inner.lock().expect("txn manager");
        keys.into_iter().find(|k| {
            inner
                .versions
                .get(k)
                .is_some_and(|entries| entries.iter().any(|(e, _)| *e > snapshot))
        })
    }

    /// Rewinds one key's current tree value to what snapshot `snapshot`
    /// saw: the prior of the *first* commit after the snapshot, if the
    /// overlay holds one; the current value otherwise.
    pub(crate) fn rewind(
        &self,
        key: u64,
        snapshot: u64,
        current: Option<Vec<u8>>,
    ) -> Option<Vec<u8>> {
        let inner = self.inner.lock().expect("txn manager");
        match inner
            .versions
            .get(&key)
            .and_then(|entries| entries.iter().find(|(e, _)| *e > snapshot))
        {
            Some((_, prior)) => prior.clone(),
            None => current,
        }
    }

    /// Rewinds a merged range-scan result to snapshot `snapshot`:
    /// post-snapshot overwrites are replaced by their priors, deletions
    /// are resurrected, and post-snapshot inserts vanish.
    pub(crate) fn rewind_range(
        &self,
        lo: u64,
        hi: u64,
        snapshot: u64,
        rows: Vec<(u64, Vec<u8>)>,
    ) -> Vec<(u64, Vec<u8>)> {
        let inner = self.inner.lock().expect("txn manager");
        let priors = inner.versions.range(lo..=hi).filter_map(|(key, entries)| {
            let (_, prior) = entries.iter().find(|(e, _)| *e > snapshot)?;
            Some((*key, prior.as_deref()))
        });
        overlay(rows, priors)
    }

    /// Overlay entry count (tests: must drain to zero when the last
    /// snapshot releases).
    #[doc(hidden)]
    pub(crate) fn overlay_len(&self) -> usize {
        let inner = self.inner.lock().expect("txn manager");
        inner.versions.values().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Active,
    /// Committed or cleanly aborted — the handle is spent.
    Finished,
    /// A commit attempt died mid-flight (WAL error); effects unknown
    /// until reopen.
    Poisoned,
}

/// One multi-key transaction: snapshot reads as of `begin`, buffered
/// writes (read-your-own-writes), and an atomic commit.
///
/// Obtained from [`SksDb::begin`] (on a [`crate::Session`] too, which is
/// an `Arc<SksDb>`). Writes buffer in memory — nothing touches the WAL or
/// the trees until [`Txn::commit`], which validates first-committer-wins
/// against the snapshot, seals every write into **one** WAL commit frame,
/// and applies to all partitions under their write locks (taken in
/// ascending partition order — the engine's global lock order) so no
/// reader ever observes half of it. Dropping an uncommitted transaction
/// aborts it.
///
/// A single-key commit degenerates to exactly the autocommit write path
/// — same WAL frame, same counters — plus the conflict check: both run
/// the one commit function, and the snapshot is the only difference.
pub struct Txn {
    db: Arc<SksDb>,
    snapshot: u64,
    /// Buffered writes: key → (its partition, `Some` = insert/overwrite,
    /// `None` = delete). The partition is routed (and the key's domain and
    /// the value's length checked) once, at buffering time — the same
    /// one-disguise-per-key cost the autocommit path pays.
    writes: BTreeMap<u64, (usize, Option<Vec<u8>>)>,
    state: TxnState,
}

impl Txn {
    pub(crate) fn begin(db: Arc<SksDb>) -> Txn {
        let snapshot = db.txns().begin_snapshot();
        let counters = db.counters();
        counters.bump(|c| &c.txn_begins);
        counters
            .obs()
            .note(EventKind::TxnBegin, NO_PARTITION, snapshot, 0, 0);
        Txn {
            db,
            snapshot,
            writes: BTreeMap::new(),
            state: TxnState::Active,
        }
    }

    fn check_active(&self) -> Result<(), EngineError> {
        match self.state {
            TxnState::Active => Ok(()),
            TxnState::Finished => Err(EngineError::TxnAborted),
            TxnState::Poisoned => Err(EngineError::TxnPoisoned),
        }
    }

    /// Snapshot point read: this transaction's own buffered write if
    /// any, else the database as of `begin`.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, EngineError> {
        self.check_active()?;
        if let Some((_, buffered)) = self.writes.get(&key) {
            return Ok(buffered.clone());
        }
        self.db.read(key, Some(self.snapshot))
    }

    /// Snapshot range scan `lo..=hi`, merged across partitions with this
    /// transaction's own buffered writes overlaid.
    pub fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, EngineError> {
        self.check_active()?;
        let rows = self.db.scan(lo, hi, Some(self.snapshot))?;
        let own = self.writes.range(lo..=hi);
        Ok(overlay(rows, own.map(|(k, (_, v))| (*k, v.as_deref()))))
    }

    /// Buffers an insert (or overwrite). Validated against the key
    /// domain and the record length bound immediately; durable only at
    /// [`Txn::commit`].
    pub fn insert(&mut self, key: u64, value: Vec<u8>) -> Result<(), EngineError> {
        self.check_active()?;
        let p = self.db.route_insert(key, &value)?;
        if let Some((_, Some(old))) = self.writes.insert(key, (p, Some(value))) {
            let mut old = old;
            wipe::bytes(&mut old);
        }
        Ok(())
    }

    /// Buffers a delete.
    pub fn delete(&mut self, key: u64) -> Result<(), EngineError> {
        self.check_active()?;
        let p = self.db.partition_of(key)?;
        if let Some((_, Some(old))) = self.writes.insert(key, (p, None)) {
            let mut old = old;
            wipe::bytes(&mut old);
        }
        Ok(())
    }

    /// Atomically commits every buffered write. On
    /// [`EngineError::Conflict`] nothing was written and the transaction
    /// is aborted — begin a new one to retry. On any other error the
    /// transaction is poisoned: the commit frame may or may not be
    /// durable, and reopening the database decides (all-or-nothing,
    /// exactly like a crash at commit time).
    pub fn commit(&mut self) -> Result<(), EngineError> {
        self.commit_hooked(|| {}, || {})
    }

    /// [`Txn::commit`] with a test hook invoked mid-commit — after
    /// first-committer-wins validation, while every written partition's
    /// write lock is held and before the WAL frame is sealed.
    /// Concurrency tests use it to require that snapshot readers on
    /// *other* partitions progress while a commit is in flight.
    #[doc(hidden)]
    pub fn commit_with_hook(&mut self, mid: impl FnOnce()) -> Result<(), EngineError> {
        self.commit_hooked(mid, || {})
    }

    /// [`Txn::commit`] with a test hook invoked after the apply, once
    /// every partition lock is released and before a cross-partition
    /// commit waits for its frame to be durable. Group-commit tests use it
    /// to put several written frames behind one fsync.
    #[doc(hidden)]
    pub fn commit_with_wait_hook(&mut self, before_wait: impl FnOnce()) -> Result<(), EngineError> {
        self.commit_hooked(|| {}, before_wait)
    }

    fn commit_hooked(
        &mut self,
        mid: impl FnOnce(),
        before_wait: impl FnOnce(),
    ) -> Result<(), EngineError> {
        self.check_active()?;
        let counters = self.db.counters().clone();
        let timer = counters.obs().start();
        let keys = self.writes.len() as u64;
        // One group per partition `insert`/`delete` routed a key to; the
        // BTreeMap keeps the lock order ascending.
        let mut groups: BTreeMap<usize, KeyValues> = BTreeMap::new();
        for (key, (p, value)) in std::mem::take(&mut self.writes) {
            groups.entry(p).or_default().push((key, value));
        }
        let parts = groups.len() as u64;
        if parts == 0 {
            self.finish();
            counters.bump(|c| &c.txn_commits);
            counters
                .obs()
                .note(EventKind::TxnCommit, NO_PARTITION, 0, 0, 0);
            return Ok(());
        }
        let snapshot = Some(self.snapshot);
        match self
            .db
            .commit(groups.into_iter().collect(), snapshot, mid, before_wait)
        {
            Ok(priors) => wipe_values(priors),
            Err(e @ EngineError::Conflict { .. }) => {
                // Validation refused before anything touched the WAL or
                // a tree: a clean, retryable abort.
                self.finish();
                counters.bump(|c| &c.txn_aborts);
                return Err(e);
            }
            Err(e) => {
                self.state = TxnState::Poisoned;
                self.db.txns().release_snapshot(self.snapshot);
                counters.bump(|c| &c.txn_aborts);
                return Err(e);
            }
        }
        if let Some(t) = timer {
            let ns = t.elapsed().as_nanos() as u64;
            counters.obs().stage_ns(Stage::TxnCommit, ns);
            counters
                .obs()
                .note(EventKind::TxnCommit, NO_PARTITION, keys, parts, ns);
        }
        self.finish();
        counters.bump(|c| &c.txn_commits);
        Ok(())
    }

    /// Aborts: discards the buffered writes (wiped) and releases the
    /// snapshot. Dropping an active transaction does the same.
    pub fn abort(&mut self) -> Result<(), EngineError> {
        self.check_active()?;
        let writes = std::mem::take(&mut self.writes);
        let buffered = writes.len() as u64;
        wipe_values(writes.into_iter().map(|(key, (_, value))| (key, value)));
        self.finish();
        let counters = self.db.counters();
        counters.bump(|c| &c.txn_aborts);
        counters
            .obs()
            .note(EventKind::TxnAbort, NO_PARTITION, buffered, 0, 0);
        Ok(())
    }

    fn finish(&mut self) {
        self.state = TxnState::Finished;
        self.db.txns().release_snapshot(self.snapshot);
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        // A spent or poisoned handle has nothing left to abort.
        let _ = self.abort();
    }
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("snapshot", &self.snapshot)
            .field("pending_writes", &self.writes.len())
            .field("state", &self.state)
            .finish()
    }
}
