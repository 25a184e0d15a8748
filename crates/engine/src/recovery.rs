//! Crash recovery: replaying a WAL into the partitioned tree on open.
//!
//! The checkpointed tree pages are already on disk: the persisted
//! partitions are opened and each is replayed only the logged operations
//! its pages lack ([`RecoveryPath::TailReplay`]), an O(tail) restart.
//! Records go through the same router/partition path a live write takes,
//! so the recovered state is bit-for-bit the state a non-crashed process
//! would hold.
//!
//! Replay is exact. A partition's checkpoint records its *covered
//! number*, the log's last sequence number read under its write lock, and
//! a commit logs and applies under the write locks of every partition it
//! writes: the pages hold exactly the partition's operations up to that
//! number, and replay applies those past it. So nothing applies twice, and
//! a multi-partition frame replays all-or-nothing in every partition.
use std::collections::BTreeMap;
use std::fmt::Display;

use sks_core::EncipheredBTree;
use sks_storage::{Event, Stage};

use crate::db::Router;
use crate::error::EngineError;
use crate::wal::{WalOp, WalRecord, WalReplay};

/// Which recovery path [`crate::SksDb::open`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPath {
    /// Fresh database: no log existed, nothing to recover.
    #[default]
    ColdStart,
    /// No checkpointed stores existed at open (a log with no
    /// `engine.sks` beside it): fresh stores were created and the whole
    /// log was replayed into them.
    FullReplay,
    /// Persisted partitions were opened from their checkpointed pages and
    /// each was replayed only the logged writes past its covered number.
    TailReplay,
}

/// What recovery did at open time.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Which path recovery took (see [`RecoveryPath`]).
    pub path: RecoveryPath,
    /// Records replayed into the trees: exactly those past their
    /// partition's covered number. A record that does not replay fails
    /// the open.
    pub records_replayed: u64,
    /// Whether the log ended in an interrupted write.
    pub torn_tail: bool,
    /// Bytes discarded past the last intact record.
    pub bytes_discarded: u64,
    /// Sequence number of the last record the log holds, replayed or
    /// covered (0 when it holds none).
    pub last_seq: u64,
    /// The flight-recorder timeline captured at the end of recovery:
    /// `RecoveryStart`, any `TornTailScrub` the log open performed (its
    /// `a`/`b` payload names the scrub position and the bytes
    /// discarded), and `RecoveryEnd`. Empty when observability is off.
    pub events: Vec<Event>,
}

impl RecoveryReport {
    /// The recovery timeline rendered one line per event — the
    /// flight-recorder dump that accompanies this report.
    pub fn render_events(&self) -> String {
        self.events
            .iter()
            .map(Event::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Applies to each partition `p` the replayed records past `covered[p]`,
/// the log position its pages cover. Takes the replay by value
/// so record payloads move into the trees instead of being cloned (the
/// WAL holds the whole dataset between checkpoints; cloning would double
/// peak memory at open).
///
/// Fails closed: a logged record this configuration cannot route or
/// apply — a key outside the domain, a value longer than the record
/// slots hold — was acknowledged, so the open is refused rather than the
/// record dropped (the next checkpoint would cover it and retire its
/// segment). The error names the record's seq and
/// partition, never its key or value.
///
/// Records route to their partitions first — partitions are independent
/// (the router is deterministic per key), so each partition's run can be
/// applied as one batch while relative order within it is preserved. A
/// pristine partition takes the batched path: the run folds into its
/// final image (last writer wins, deletes erase) and the tree builds
/// bottom-up through `bulk_load`, paying batch seal cost instead of one
/// sealed mutation per record. A partition that already holds data keeps
/// the per-record path.
pub(crate) fn apply_replay(
    partitions: &mut [EncipheredBTree],
    router: &Router,
    covered: &[u64],
    replay: WalReplay,
) -> Result<RecoveryReport, EngineError> {
    let mut report = RecoveryReport {
        torn_tail: replay.torn_tail,
        bytes_discarded: replay.bytes_discarded,
        ..RecoveryReport::default()
    };
    // The admission checks a live write passes before it is logged.
    let max_len = partitions[0].max_record_len();
    let mut groups: Vec<Vec<WalRecord>> = (0..partitions.len()).map(|_| Vec::new()).collect();
    for record in replay.records {
        report.last_seq = record.seq;
        let (key, len) = match &record.op {
            WalOp::Insert { key, value } => (*key, value.len()),
            WalOp::Delete { key } => (*key, 0),
        };
        let Ok(p) = router.partition_of(key) else {
            let why = "its key is outside the configured domain";
            return Err(unreplayable(record.seq, "none", why));
        };
        if len > max_len {
            let why = format!("its {len}-byte value exceeds the {max_len}-byte record limit");
            return Err(unreplayable(record.seq, p, &why));
        }
        if record.seq > covered[p] {
            groups[p].push(record);
        }
    }
    for (p, mut run) in groups.into_iter().enumerate() {
        let tree = &mut partitions[p];
        if tree.is_empty() && run.len() > 1 {
            let t = tree.counters().obs().start();
            // Fold the run into its final image: for each surviving key,
            // the index of the insert whose value wins.
            let mut winners: BTreeMap<u64, usize> = BTreeMap::new();
            for (i, record) in run.iter().enumerate() {
                match record.op {
                    WalOp::Insert { key, .. } => {
                        winners.insert(key, i);
                    }
                    WalOp::Delete { key } => {
                        winners.remove(&key);
                    }
                }
            }
            let mut items: Vec<(u64, Vec<u8>)> = Vec::with_capacity(winners.len());
            for (&key, &i) in &winners {
                let WalOp::Insert { value, .. } = &mut run[i].op else {
                    unreachable!("winner indices point at inserts");
                };
                items.push((key, std::mem::take(value)));
            }
            if tree.bulk_load(&items).is_err() {
                let seqs = format!("{}..={}", run[0].seq, run[run.len() - 1].seq);
                return Err(unreplayable(seqs, p, "the tree refused the run"));
            }
            report.records_replayed += run.len() as u64;
            tree.counters().bump(|c| &c.replay_batches);
            tree.counters().obs().stage(Stage::ReplayBatch, t);
            continue;
        }
        for WalRecord { seq, op } in run {
            let applied = match op {
                WalOp::Insert { key, value } => tree.insert(key, value).map(drop),
                WalOp::Delete { key } => tree.delete(key).map(drop),
            };
            if applied.is_err() {
                return Err(unreplayable(seq, p, "the tree refused it"));
            }
            report.records_replayed += 1;
        }
    }
    Ok(report)
}

/// The refusal for a logged record (or a partition's run of records,
/// `seqs`) that does not replay. Names where it sits, and why, but never
/// the underlying error's text, which may carry the key.
fn unreplayable(seqs: impl Display, partition: impl Display, why: &str) -> EngineError {
    EngineError::Config(format!(
        "wal record seq {seqs} (partition {partition}) does not replay under this \
         configuration: {why}; refusing to open rather than drop an acknowledged write"
    ))
}
