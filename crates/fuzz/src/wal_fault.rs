//! The bare-WAL fault fuzzer: generalises the engine's fixed-workload
//! `wal_fault_sweep` to *arbitrary fuzzed op sequences*. Each seed draws
//! a log configuration (body piece size, sync policy), a mixed stream of
//! single-record / multi-record / txn commit units,
//! and one [`KillPoint`] on the underlying
//! [`LogFile`]; after the kill the log is reopened with the plain
//! (fault-free) file and checked for:
//!
//! - **prefix recovery**: the replayed records are exactly a prefix of
//!   the submitted stream (payload-for-payload);
//! - **frame atomicity**: the prefix ends on a frame boundary — a commit
//!   group or txn body never resurfaces half-applied;
//! - **durability floor**: everything covered by a successful fsync
//!   barrier (a commit that paid its fsync, an explicit flush) is in the
//!   prefix;
//! - **usability**: the recovered log accepts appends and survives a
//!   second clean reopen.
//!
//! Accounting note: an op whose append or commit *errored* may still
//! replay — the injected fault can fire after its frame landed (a torn
//! write keeps a byte prefix of what it carried, which may be the rest of
//! a frame whose header went last; a killed fsync loses nothing already
//! written). So the expected stream holds every *submitted* op, the
//! boundary set marks every frame end including the in-flight one, and
//! recovery may stop at any boundary at or above the durability floor.

use sks_engine::{Wal, WalOp};
use sks_storage::{FailStore, KillPoint, LogFile, OpCounters, SyncPolicy};

use crate::rng::FuzzRng;
use crate::ScratchDir;

const WAL_KEY: u128 = 0x0123_4567_89AB_CDEF_1122_3344_5566_7788;
const KEY_SPACE: u64 = 64;

/// What one WAL-fault seed did.
#[derive(Debug)]
pub struct WalFaultReport {
    pub kill: KillPoint,
    pub fired: bool,
    pub submitted: usize,
    pub recovered: usize,
}

/// The drawn log configuration — part of the seed's identity, printed on
/// failure so a reproduction sees the same shape.
#[derive(Debug, Clone, Copy)]
struct LogShape {
    piece_len: usize,
    policy: SyncPolicy,
}

fn draw_shape(rng: &mut FuzzRng) -> LogShape {
    let policy = match rng.below(3) {
        0 => SyncPolicy::Always,
        1 => SyncPolicy::EveryN(2 + rng.below(3) as u32),
        _ => SyncPolicy::Never,
    };
    LogShape {
        piece_len: if rng.chance(50) { 256 } else { 512 },
        policy,
    }
}

fn draw_op(rng: &mut FuzzRng) -> WalOp {
    if rng.chance(75) {
        WalOp::Insert {
            key: rng.below(KEY_SPACE),
            value: rng.blob(48),
        }
    } else {
        WalOp::Delete {
            key: rng.below(KEY_SPACE),
        }
    }
}

/// One seeded case. Returns the report or the first contract violation.
pub fn run_wal_fault_case(seed: u64) -> Result<WalFaultReport, String> {
    let mut rng = FuzzRng::new(seed ^ 0x5AFE_10C4_F417_F00D);
    let scratch = ScratchDir::new("walfault", seed);
    let path = scratch.path().join("wal.sks");
    let shape = draw_shape(&mut rng);

    let counters = OpCounters::new();
    let file =
        LogFile::create(&path, counters.clone()).map_err(|e| format!("create log file: {e}"))?;
    let (store, plan) = FailStore::new(file);
    let mut wal = Wal::create_on_device(
        store,
        shape.piece_len,
        WAL_KEY,
        shape.policy,
        counters.clone(),
    )
    .map_err(|e| format!("create wal: {e}"))?;

    // Arm only after the sentinel is durably down: a kill during the
    // very first format correctly leaves an unopenable log — a dead end,
    // not a finding. Every later write stays in scope.
    let kill = plan.arm_kill_point(rng.next_u64(), 20, 8);

    // Every op submitted to the log (appends that errored included — see
    // the module comment), the frame-boundary set, and the floor.
    let mut submitted: Vec<WalOp> = Vec::new();
    let mut boundaries: Vec<usize> = vec![0];
    let mut committed = 0usize; // records whose commit() returned Ok
    let mut floor = 0usize; // records fsync-acknowledged durable
    let mut fired = false;

    let total_units = 16 + rng.below(17) as usize; // 16..=32
    'units: for _ in 0..total_units {
        let is_txn = rng.chance(25);
        let ops: Vec<WalOp> = if is_txn {
            (0..2 + rng.below(3)).map(|_| draw_op(&mut rng)).collect()
        } else if rng.chance(35) {
            (0..2 + rng.below(4)).map(|_| draw_op(&mut rng)).collect()
        } else {
            vec![draw_op(&mut rng)]
        };

        // Record the unit as submitted up front: once an append call is
        // made, its frame may land even if the call errors.
        submitted.extend(ops.iter().cloned());
        // One frame for the whole unit.
        boundaries.push(submitted.len());

        // Append.
        let append_result: Result<(), sks_engine::EngineError> = if is_txn {
            let group = ops.iter().map(|op| match op {
                WalOp::Insert { key, value } => (*key, Some(&value[..])),
                WalOp::Delete { key } => (*key, None),
            });
            wal.append_group(group).map(|_| ())
        } else {
            ops.iter().try_fold((), |(), op| match op {
                WalOp::Insert { key, value } => wal.append_insert(*key, value).map(|_| ()),
                WalOp::Delete { key } => wal.append_delete(*key).map(|_| ()),
            })
        };
        if let Err(e) = append_result {
            if !plan.tripped() {
                return Err(format!("append failed without injected fault: {e}"));
            }
            fired = true;
            break 'units;
        }

        // Commit, tracking the durability floor: a due fsync is paid
        // inline, which shows as a `wal_fsyncs` bump.
        let fsyncs_before = counters.snapshot().wal_fsyncs;
        let synced = wal
            .commit()
            .map(|()| counters.snapshot().wal_fsyncs > fsyncs_before);
        match synced {
            Ok(synced) => {
                committed = submitted.len();
                if synced {
                    floor = committed;
                }
            }
            Err(e) => {
                if !plan.tripped() {
                    return Err(format!("commit failed without injected fault: {e}"));
                }
                fired = true;
                break 'units;
            }
        }

        // Occasional explicit durability barrier.
        if rng.chance(15) {
            match wal.flush() {
                Ok(()) => floor = committed,
                Err(e) => {
                    if !plan.tripped() {
                        return Err(format!("flush failed without injected fault: {e}"));
                    }
                    fired = true;
                    break 'units;
                }
            }
        }
    }

    if !fired {
        // The kill point sat beyond this seed's activity. Finish cleanly:
        // everything must be durable and replay exactly.
        match wal.flush() {
            Ok(()) => floor = committed,
            Err(e) => {
                if !plan.tripped() {
                    return Err(format!("final flush failed without injected fault: {e}"));
                }
                fired = true;
            }
        }
    }
    drop(wal);

    // Reopen with the plain device: recovery must hold.
    let (mut wal2, replay) = Wal::open(&path, WAL_KEY, SyncPolicy::Always, OpCounters::new())
        .map_err(|e| format!("reopen after {kill:?} failed: {e}"))?;
    let got: Vec<WalOp> = replay.records.iter().map(|r| r.op.clone()).collect();

    // Prefix of the submitted stream.
    if got.len() > submitted.len() || got[..] != submitted[..got.len()] {
        return Err(format!(
            "replayed {} records are not a prefix of the {} submitted (shape {shape:?}, {kill:?})",
            got.len(),
            submitted.len()
        ));
    }
    // Frame atomicity: the cut lands on a frame boundary.
    if !boundaries.contains(&got.len()) {
        return Err(format!(
            "replay stopped mid-frame at record {} (valid boundaries {:?}, shape {shape:?}, {kill:?})",
            got.len(),
            boundaries
        ));
    }
    // Durability floor.
    if got.len() < floor {
        return Err(format!(
            "fsync-acknowledged records lost: floor {} but only {} replayed (shape {shape:?}, {kill:?})",
            floor,
            got.len()
        ));
    }

    // Post-recovery usability: the log must take appends and survive a
    // second reopen.
    let recovered = got.len();
    wal2.append_insert(9_999, b"post-recovery probe")
        .map_err(|e| format!("append after recovery failed: {e}"))?;
    wal2.commit()
        .map_err(|e| format!("commit after recovery failed: {e}"))?;
    drop(wal2);
    let (_, replay2) = Wal::open(&path, WAL_KEY, SyncPolicy::Always, OpCounters::new())
        .map_err(|e| format!("second reopen failed: {e}"))?;
    if replay2.records.len() != recovered + 1 {
        return Err(format!(
            "post-recovery append lost: {} records after reopen, expected {}",
            replay2.records.len(),
            recovered + 1
        ));
    }

    Ok(WalFaultReport {
        kill,
        fired,
        submitted: submitted.len(),
        recovered,
    })
}
