//! The op-sequence crash fuzzer: drives a full [`SksDb`] with a seeded
//! arbitrary mix of engine operations, kills it at seeded
//! [`sks_storage::FailStore`] kill points on the WAL device, reopens, and cross-checks
//! the recovered image against a shadow [`ShadowModel`].
//!
//! The contract checked after every crash-and-reopen:
//!
//! - the recovered image equals the fold of a *commit-unit prefix* of the
//!   submitted history — a batch or transaction is never half-applied;
//! - every acknowledged (`Ok`-returned) unit is in that prefix —
//!   durability promises survive the kill. A kill point models a process
//!   kill, which loses nothing a commit wrote, so this holds under the
//!   lazy `EveryN(4)` leg ([`run_op_sequence_case_under`]) as well as
//!   under [`SyncPolicy::Always`]; there, a cross-partition transaction is
//!   acknowledged only after its deferred durability wait, which the
//!   seeded fsync kills reach;
//! - a transaction whose commit failed is never visible: a read the
//!   engine still serves shows the acknowledged image, so a commit that
//!   applied and then lost its durability wait must have fail-stopped
//!   the engine;
//! - an operation that fails when no fault is armed, or a reopen that
//!   fails after the plan is cleared, is a real engine bug and fails the
//!   seed.

use std::collections::BTreeMap;
use std::sync::Arc;

use sks_core::{Scheme, SchemeConfig};
use sks_engine::{EngineConfig, SksDb};
use sks_storage::{FailPlan, KillPoint, SyncPolicy};

use crate::model::{ShadowModel, Unit};
use crate::rng::FuzzRng;
use crate::ScratchDir;

/// Keyspace the driver works over — small enough that inserts, deletes
/// and range scans collide constantly (the interesting regime for B-tree
/// splits, merges and tombstones).
const KEY_SPACE: u64 = 48;
/// Disguise capacity: comfortably above the keyspace for every scheme.
const CAPACITY: u64 = 256;
/// At most this many injected crashes per seed.
const MAX_CRASHES: usize = 3;

/// What one op-sequence seed did — for smoke-run summaries.
#[derive(Debug, Default)]
pub struct OpSeqReport {
    pub units: usize,
    pub crashes: usize,
    pub kills: Vec<KillPoint>,
    pub final_keys: usize,
}

fn make_config(partitions: usize, policy: SyncPolicy) -> EngineConfig {
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, CAPACITY).partitions(partitions);
    EngineConfig::new(scheme).sync(policy)
}

/// One seeded case under [`SyncPolicy::Always`]. Returns the report, or a
/// description of the first divergence (the seed is appended by the
/// caller).
pub fn run_op_sequence_case(seed: u64) -> Result<OpSeqReport, String> {
    run_op_sequence_case_under(seed, SyncPolicy::Always)
}

/// [`run_op_sequence_case`] with the engine under `policy`: the same
/// seed draws the same operations and kill points.
pub fn run_op_sequence_case_under(seed: u64, policy: SyncPolicy) -> Result<OpSeqReport, String> {
    run_op_sequence_leg(seed, policy, Opening::Empty)
}

/// How a seed's sequence starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opening {
    /// The first unit is drawn like every other.
    Empty,
    /// The first unit is a seeded `bulk_load` into the empty database,
    /// run with the kill point already armed, so kills reach the load's
    /// log frames and the trees built from them.
    BulkLoad,
}

/// The roll that [`Opening::BulkLoad`] gives its first unit (every drawn
/// roll is below it).
const BULK_LOAD_ROLL: u64 = 100;

/// [`run_op_sequence_case_under`] with the sequence started by `opening`.
/// [`Opening::Empty`] is that function's leg, draw for draw.
pub fn run_op_sequence_leg(
    seed: u64,
    policy: SyncPolicy,
    opening: Opening,
) -> Result<OpSeqReport, String> {
    let mut rng = FuzzRng::new(seed ^ 0x05EC_0DE5_EEDF_ACE1);
    // One directory per leg: the legs of a seed may run at once.
    let scratch = ScratchDir::new(&format!("opseq-{policy:?}-{opening:?}"), seed);
    let dir = scratch.path();
    let partitions = 1 + rng.below(2) as usize;

    let plan = FailPlan::new();
    // Open unarmed: a fault during the very first format would leave a
    // half-created database that correctly refuses to open — a dead end
    // for the driver, not a bug. Checkpoint-time WAL creation *is*
    // fuzzed (the plan is shared with the fresh log's device).
    let mut db: Arc<SksDb> =
        SksDb::open(dir, make_config(partitions, policy).wal_fault(plan.clone()))
            .map_err(|e| format!("initial open failed: {e}"))?;

    let mut report = OpSeqReport::default();
    let kill = plan.arm_kill_point(rng.next_u64(), 24, 12);
    report.kills.push(kill);

    let mut model = ShadowModel::new();
    // The live image: fold of all acked units, kept incrementally.
    let mut live: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

    let total_units = 36 + rng.below(25) as usize; // 36..=60
    let mut unit_no = 0;
    while unit_no < total_units {
        unit_no += 1;
        // A mid-sequence checkpoint is guaranteed so the log cut (and its
        // fresh fault-wrapped WAL) is always exercised; the rest of the
        // mix is drawn from the seed.
        let roll = if unit_no == 1 && opening == Opening::BulkLoad {
            BULK_LOAD_ROLL
        } else if unit_no == total_units / 2 {
            90
        } else {
            rng.below(100)
        };
        let outcome: Result<(), String> = match roll {
            // Single-op autocommit insert.
            0..=34 => {
                let key = rng.below(KEY_SPACE);
                let value = rng.blob(96);
                let unit = Unit::insert(key, value.clone());
                step(db.insert(key, value), unit, &mut model, &mut live)
            }
            // Single-op autocommit delete.
            35..=49 => {
                let key = rng.below(KEY_SPACE);
                let unit = Unit::delete(key);
                step(db.delete(key), unit, &mut model, &mut live)
            }
            // Batch insert. Atomicity is *per partition group*: the
            // engine regroups the items by partition and commits one
            // batch frame per group, in partition order — so the model
            // records one unit per group, and a crash mid-batch may
            // validly land a prefix of the groups.
            50..=62 => {
                let n = 2 + rng.below(5) as usize;
                let items: Vec<(u64, Vec<u8>)> = (0..n)
                    .map(|_| (rng.below(KEY_SPACE), rng.blob(64)))
                    .collect();
                let groups = partition_groups(&db, partitions, &items)
                    .map_err(|e| format!("unit {unit_no}: {e}"))?;
                step_units(db.insert_batch(items), groups, &mut model, &mut live)
            }
            // Multi-op transaction: atomic as one WAL txn frame.
            63..=74 => {
                let n = 2 + rng.below(4) as usize;
                let mut unit = Unit::default();
                let mut txn = db.begin();
                let mut buffered: Result<(), sks_engine::EngineError> = Ok(());
                for _ in 0..n {
                    if rng.chance(70) {
                        let key = rng.below(KEY_SPACE);
                        let value = rng.blob(64);
                        unit.effects.push((key, Some(value.clone())));
                        buffered = txn.insert(key, value);
                    } else {
                        let key = rng.below(KEY_SPACE);
                        unit.effects.push((key, None));
                        buffered = txn.delete(key);
                    }
                    if buffered.is_err() {
                        break;
                    }
                }
                let result = buffered.and_then(|()| txn.commit());
                drop(txn); // must not outlive a crash-reopen of `db`
                if result.is_err() {
                    for (key, _) in &unit.effects {
                        if db.get(*key).is_ok_and(|got| got.as_ref() != live.get(key)) {
                            return Err(format!(
                                "unit {unit_no}: a failed transaction's write to {key} is \
                                 visible: the engine served it instead of fail-stopping"
                            ));
                        }
                    }
                }
                step(result, unit, &mut model, &mut live)
            }
            // Read checks: no model change, but the live image must match.
            75..=84 => {
                let key = rng.below(KEY_SPACE);
                match db.get(key) {
                    Ok(got) => {
                        if got.as_ref() != live.get(&key) {
                            Err(format!("get({key}) diverged from the model image"))
                        } else {
                            Ok(())
                        }
                    }
                    Err(e) => Err(format!("read failed (reads must survive faults): {e}")),
                }
            }
            85..=88 => {
                let lo = rng.below(KEY_SPACE);
                let hi = lo + rng.below(KEY_SPACE - lo + 1);
                match db.range(lo, hi) {
                    Ok(got) => {
                        let want: Vec<(u64, Vec<u8>)> =
                            live.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
                        if got != want {
                            Err(format!("range({lo},{hi}) diverged from the model image"))
                        } else {
                            Ok(())
                        }
                    }
                    Err(e) => Err(format!("range failed (reads must survive faults): {e}")),
                }
            }
            // Checkpoint: no logical change. It cuts the WAL; a fault
            // here fires inside the cut (old log stays
            // authoritative) and the crash path below must still land on
            // the full acked image.
            89..=93 => step_noop(db.checkpoint(), &mut model),
            // Compaction: physical-only; no logical change.
            94..=95 => step_noop(db.compact(4).map(|_| ()), &mut model),
            // Bulk load into the empty database: ascending keys, each
            // present with even odds. Like a batch, it commits one frame
            // per partition group, in partition order, so a crash may
            // land a prefix of the groups.
            BULK_LOAD_ROLL => {
                let mut items = Vec::new();
                for key in 0..KEY_SPACE {
                    if rng.chance(50) {
                        items.push((key, rng.blob(200)));
                    }
                }
                let groups = partition_groups(&db, partitions, &items)
                    .map_err(|e| format!("unit {unit_no}: {e}"))?;
                step_units(db.bulk_load(items), groups, &mut model, &mut live)
            }
            // Explicit flush: a durability barrier with no logical change.
            _ => step_noop(db.flush(), &mut model),
        };

        if let Err(divergence) = outcome {
            // Only an injected fault excuses a failure — anything else is
            // a finding. `divergence` already carries op context for
            // model mismatches (those never involve the plan).
            if !plan.tripped() {
                return Err(format!("unit {unit_no}: {divergence}"));
            }
            report.crashes += 1;
            // Crash: drop the handle (releasing the dir lock), clear the
            // fault plan, and the database MUST reopen.
            drop(db);
            plan.reset();
            db = SksDb::open(dir, make_config(partitions, policy).wal_fault(plan.clone()))
                .map_err(|e| format!("unit {unit_no}: reopen after crash failed: {e}"))?;
            let recovered: BTreeMap<u64, Vec<u8>> = db
                .range(0, u64::MAX)
                .map_err(|e| format!("unit {unit_no}: post-recovery scan failed: {e}"))?
                .into_iter()
                .collect();
            let k = model
                .match_recovery(&recovered)
                .map_err(|e| format!("unit {unit_no} (after {kill:?}): {e}"))?;
            model.settle(k);
            live = recovered;
            if report.crashes < MAX_CRASHES {
                let kill = plan.arm_kill_point(rng.next_u64(), 24, 12);
                report.kills.push(kill);
            }
        }
    }

    // End of sequence: everything acked must be exactly the image — no
    // fault is in flight, so this is an equality check, not a prefix one.
    let final_image: BTreeMap<u64, Vec<u8>> = db
        .range(0, u64::MAX)
        .map_err(|e| format!("final scan failed: {e}"))?
        .into_iter()
        .collect();
    if final_image != model.image() {
        return Err("final image diverged from the model after the full sequence".into());
    }

    // And it must survive one last clean close-and-reopen.
    drop(db);
    plan.reset();
    let db = SksDb::open(dir, make_config(partitions, policy))
        .map_err(|e| format!("final reopen failed: {e}"))?;
    let reopened: BTreeMap<u64, Vec<u8>> = db
        .range(0, u64::MAX)
        .map_err(|e| format!("final reopened scan failed: {e}"))?
        .into_iter()
        .collect();
    if reopened != model.image() {
        return Err("image diverged across a clean close-and-reopen".into());
    }

    report.units = model.submitted();
    report.final_keys = reopened.len();
    Ok(report)
}

/// The units a batch or bulk load of `items` commits: one per non-empty
/// partition group, in partition order.
fn partition_groups(
    db: &SksDb,
    partitions: usize,
    items: &[(u64, Vec<u8>)],
) -> Result<Vec<Unit>, String> {
    let mut groups: Vec<Unit> = (0..partitions).map(|_| Unit::default()).collect();
    for (key, value) in items {
        let p = db
            .partition_of(*key)
            .map_err(|e| format!("routing failed: {e}"))?;
        groups[p].effects.push((*key, Some(value.clone())));
    }
    groups.retain(|g| !g.effects.is_empty());
    Ok(groups)
}

/// Applies one write unit's result to the model: `Ok` acks the unit and
/// folds it into the live image; `Err` records it in-flight and bubbles
/// the error for crash handling.
fn step<T>(
    result: Result<T, sks_engine::EngineError>,
    unit: Unit,
    model: &mut ShadowModel,
    live: &mut BTreeMap<u64, Vec<u8>>,
) -> Result<(), String> {
    step_units(result, vec![unit], model, live)
}

/// [`step`] for an op that commits several units in order (a batch's
/// per-partition groups): `Ok` acks them all; `Err` records them all as
/// in-flight — recovery may keep any prefix of them.
fn step_units<T>(
    result: Result<T, sks_engine::EngineError>,
    units: Vec<Unit>,
    model: &mut ShadowModel,
    live: &mut BTreeMap<u64, Vec<u8>>,
) -> Result<(), String> {
    match result {
        Ok(_) => {
            for unit in units {
                for (key, effect) in &unit.effects {
                    match effect {
                        Some(v) => {
                            live.insert(*key, v.clone());
                        }
                        None => {
                            live.remove(key);
                        }
                    }
                }
                model.push_acked(unit);
            }
            Ok(())
        }
        Err(e) => {
            for unit in units {
                model.push_unacked(unit);
            }
            Err(format!("write failed: {e}"))
        }
    }
}

/// Applies a logically-empty unit (checkpoint / compact / flush): nothing
/// to fold; an error just triggers crash handling with no unit in flight.
fn step_noop(
    result: Result<(), sks_engine::EngineError>,
    _model: &mut ShadowModel,
) -> Result<(), String> {
    result.map_err(|e| format!("maintenance op failed: {e}"))
}
