//! SIGKILL probe for space governance and acknowledged writes: `write`
//! churns forever under group commit (`SyncPolicy::EveryN(32)`), every
//! checkpoint runs dead-ratio compaction + node shrinking, and each
//! finished op prints `ACK <op>` (and each checkpoint `CKPT <op>`);
//! `write-pause` churns the same way, but its second checkpoint prints
//! `PAUSED <op>` once partition 0 has committed and then blocks, so a
//! kill lands between two partitions' commits, with the retired segment
//! still there. `write-spill` churns the same way but checkpoints only
//! once a partition's pool has written pages back early past its file's
//! committed end: it prints `SPILLED <op>` then, before any
//! checkpoint, and blocks, so a kill leaves those pages on the file with
//! nothing naming them. `check <dir> [<op> [<ckpt op>]]` reopens the killed
//! directory, prints the log segments it finds, validates, reports
//! device usage and — given the last acknowledged op — requires every
//! acknowledged write to be there: a process crash loses nothing
//! acknowledged under any sync policy. Given the op of the last `CKPT`
//! line too, it requires the reopen to have replayed at most the records
//! logged after that op: the checkpoint covered every earlier one.
use sks_btree::core::{Scheme, SchemeConfig};
use sks_btree::engine::{EngineConfig, SksDb};
use sks_btree::storage::SyncPolicy;

const KEYS: u64 = 8_000;

fn config() -> EngineConfig {
    let scheme = SchemeConfig::with_capacity(Scheme::Oval, 16_384).partitions(4);
    EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32))
}

fn value(k: u64) -> Vec<u8> {
    vec![(k % 251) as u8; 900]
}

/// What op `i` writes: it inserts one key and, every third op, deletes
/// another.
fn op(i: u64) -> (u64, Option<u64>) {
    (i % KEYS, i.is_multiple_of(3).then_some((i / 3) % KEYS))
}

/// Records ops `from..=to` log: one or two each.
fn records(from: u64, to: u64) -> u64 {
    (from..=to).map(|i| 1 + op(i).1.is_some() as u64).sum()
}

/// Checks the reopened database against ops `0..=acked`. The op after
/// `acked` may have been cut short by the kill, so the keys it touches may
/// hold either state; every other key must be exactly as acknowledged.
fn check_acked(db: &SksDb, acked: u64) {
    let mut present = vec![false; KEYS as usize];
    for i in 0..=acked {
        let (insert, delete) = op(i);
        present[insert as usize] = true;
        if let Some(d) = delete {
            present[d as usize] = false;
        }
    }
    let (insert, delete) = op(acked + 1);
    let in_flight = |k| k == insert || Some(k) == delete;
    for k in (0..KEYS).filter(|&k| !in_flight(k)) {
        let expected = present[k as usize].then(|| value(k));
        assert_eq!(
            db.get(k).unwrap(),
            expected,
            "key {k} lost an acknowledged write"
        );
    }
    println!("acknowledged writes through op {acked}: all present");
}

/// How [`write`] stops short of a clean run, for a kill to land in.
#[derive(PartialEq)]
enum Stop {
    /// Never: churns until killed.
    Never,
    /// In the second checkpoint, once partition 0 has committed.
    Pause,
    /// Before the first checkpoint, once a page was written back early.
    Spill,
}

/// Churns until killed, checkpointing every 2 000 ops (under
/// [`Stop::Spill`], none).
fn write(dir: &std::path::Path, stop: Stop) -> ! {
    let db = SksDb::open(dir, config()).unwrap();
    println!("READY");
    let mut i = 0u64;
    loop {
        let (insert, delete) = op(i);
        db.insert(insert, value(insert)).unwrap();
        if let Some(d) = delete {
            db.delete(d).unwrap();
        }
        println!("ACK {i}");
        if stop == Stop::Spill && db.snapshot().pages_written_early > 0 {
            println!("SPILLED {i}");
            loop {
                std::thread::park();
            }
        }
        if i % 2_000 == 1_999 && stop != Stop::Spill {
            db.checkpoint_with_hook(|step| {
                if stop == Stop::Pause && i == 3_999 && step == 1 {
                    println!("PAUSED {i}");
                    loop {
                        std::thread::park();
                    }
                }
            })
            .unwrap();
            println!("CKPT {i} report {:?}", db.last_compaction_report());
        }
        i += 1;
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args
        .next()
        .expect("mode: write|write-pause|write-spill|check");
    let dir = std::path::PathBuf::from(args.next().expect("dir"));
    match mode.as_str() {
        "write" => write(&dir, Stop::Never),
        "write-pause" => write(&dir, Stop::Pause),
        "write-spill" => write(&dir, Stop::Spill),
        "check" => {
            let mut segments: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with("wal-"))
                .collect();
            segments.sort();
            println!("log segments: {segments:?}");
            let db = SksDb::open(&dir, config()).unwrap();
            println!("recovery: {:?}", db.recovery_report());
            db.validate().unwrap();
            if let Some(acked) = args.next() {
                let acked = acked.parse().expect("last acknowledged op");
                check_acked(&db, acked);
                if let Some(ckpt) = args.next() {
                    let ckpt: u64 = ckpt.parse().expect("op of the last CKPT line");
                    // The op after `acked` may have logged before the kill.
                    let bound = records(ckpt + 1, acked + 1);
                    let replayed = db.recovery_report().records_replayed;
                    assert!(
                        replayed <= bound,
                        "replayed {replayed} records; ops after {ckpt} logged at most {bound}"
                    );
                    println!(
                        "replayed {replayed} records, at most the {bound} logged after op {ckpt}"
                    );
                }
            }
            let n = db.len();
            let usage = db.data_block_usage_per_partition();
            println!("records: {n}, data usage: {usage:?}");
            // Governance still runs post-recovery.
            let r = db.compact(1_000).unwrap();
            db.checkpoint().unwrap();
            println!("post-recovery compact: {r:?}");
            db.validate().unwrap();
            println!("OK");
        }
        other => panic!("unknown mode {other}"),
    }
}
