//! [`FailStore`] — a fault-injection wrapper for crash probes, around a
//! [`BlockStore`] or a log's [`LogFile`].
//!
//! The wrapper counts every write (`write_block`, or a log's `write_at`)
//! and, when armed, fails the Nth one — either cleanly
//! ([`FailMode::Error`]: the write never happens) or as a *torn write*
//! ([`FailMode::Torn`]: only the first half of it reaches the inner store
//! before the error — the first half of the block, the rest keeping what
//! it held, or the first half of a log write's bytes, a byte prefix). A
//! log's `set_len` fails once the plan has tripped but is not counted.
//! After the injected fault the store **fail-stops**: every later
//! mutation errors too, modelling a killed process whose in-memory state
//! is gone. Reads keep working so a test can inspect the wreckage before
//! "rebooting" (reopening the underlying store through the normal
//! recovery path).
//!
//! A plan can instead fail the Nth `read_block` ([`FailPlan::arm_nth_read`]),
//! for probes that a failed read leaves the medium untouched. The provided
//! [`BlockStore::read_with`] and [`BlockStore::update_with`] are not
//! overridden, so they run through this wrapper's `read_block` and
//! `write_block` and meet every armed fault.
//!
//! A plan also reaches below a [`crate::PagedFileStore`]'s pools
//! ([`crate::PagedFileStore::inject_faults`]): each physical write of its
//! files and journal counts as a write and each file fsync as a flush, so
//! a probe can kill a checkpoint between any two of its steps.
//!
//! Arming is deterministic: either an explicit write ordinal, or one
//! derived from a seed ([`FailPlan::arm_from_seed`]) so a probe can sweep
//! reproducible kill points without hand-picking them.

use std::sync::{Arc, Mutex};

use crate::block::{BlockId, BlockStore, StorageError};
use crate::counters::OpCounters;
use crate::logfile::{LogFile, SyncHandle, WalDevice};

/// How the armed write fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// The write errors without touching the inner store.
    Error,
    /// The first half of the write lands, then the error — a torn page
    /// on the simulated medium, or a log write cut to a byte prefix.
    Torn,
}

/// A concrete kill point chosen by [`FailPlan::arm_kill_point`] — the
/// registry of everything a seeded sweep can arm. Carrying the choice in a
/// value lets a fuzz driver log exactly which fault a failing seed maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// The `nth` (1-based) write fails with the given mode.
    Write(u64, FailMode),
    /// The `nth` (1-based) flush fails before reaching the inner store.
    Flush(u64),
}

#[derive(Debug, Default)]
struct PlanInner {
    writes_seen: u64,
    /// Fail when `writes_seen` reaches this ordinal (1-based).
    armed_at: Option<(u64, FailMode)>,
    flushes_seen: u64,
    /// Fail when `flushes_seen` reaches this ordinal (1-based) — the
    /// inner flush never runs, modelling a kill mid-checkpoint.
    flush_armed_at: Option<u64>,
    reads_seen: u64,
    /// Fail when `reads_seen` reaches this ordinal (1-based).
    read_armed_at: Option<u64>,
    tripped: bool,
}

/// Shared handle controlling (and observing) a [`FailStore`]'s schedule.
/// Clone it out before boxing the store away.
#[derive(Debug, Clone, Default)]
pub struct FailPlan {
    inner: Arc<Mutex<PlanInner>>,
}

impl FailPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the plan: the `nth` write (1-based, counted from now) fails
    /// with `mode`. Re-arming resets the write counter and the trip state.
    pub fn arm_nth_write(&self, nth: u64, mode: FailMode) {
        assert!(nth >= 1, "write ordinals are 1-based");
        let mut p = self.inner.lock().expect("fail plan");
        *p = PlanInner {
            writes_seen: 0,
            armed_at: Some((nth, mode)),
            ..PlanInner::default()
        };
    }

    /// Arms the plan on the `nth` *flush* (1-based, counted from now):
    /// the flush fails before reaching the inner store, so nothing of the
    /// in-flight checkpoint commits. Re-arming resets counters and trip
    /// state.
    pub fn arm_nth_flush(&self, nth: u64) {
        assert!(nth >= 1, "flush ordinals are 1-based");
        let mut p = self.inner.lock().expect("fail plan");
        *p = PlanInner {
            flushes_seen: 0,
            flush_armed_at: Some(nth),
            ..PlanInner::default()
        };
    }

    /// Arms the plan on the `nth` *read* (1-based, counted from now): it
    /// errors without filling the caller's buffer. Re-arming resets
    /// counters and trip state.
    pub fn arm_nth_read(&self, nth: u64) {
        assert!(nth >= 1, "read ordinals are 1-based");
        let mut p = self.inner.lock().expect("fail plan");
        *p = PlanInner {
            read_armed_at: Some(nth),
            ..PlanInner::default()
        };
    }

    /// Deterministically arms the Nth write with `1 <= N <= max_nth`
    /// derived from `seed` (splitmix64), so seeded sweeps reproduce.
    pub fn arm_from_seed(&self, seed: u64, max_nth: u64, mode: FailMode) -> u64 {
        assert!(max_nth >= 1);
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let nth = (x ^ (x >> 31)) % max_nth + 1;
        self.arm_nth_write(nth, mode);
        nth
    }

    /// Deterministically arms one kill point drawn from the full registry
    /// — write-error, torn-write, or killed-flush — so a single seed axis
    /// sweeps every fault class. `max_writes`/`max_flushes` bound the
    /// ordinals (both 1-based); returns the chosen point for logging.
    pub fn arm_kill_point(&self, seed: u64, max_writes: u64, max_flushes: u64) -> KillPoint {
        assert!(max_writes >= 1 && max_flushes >= 1);
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let point = match x % 4 {
            0 => KillPoint::Write((x >> 2) % max_writes + 1, FailMode::Error),
            1 | 2 => KillPoint::Write((x >> 2) % max_writes + 1, FailMode::Torn),
            _ => KillPoint::Flush((x >> 2) % max_flushes + 1),
        };
        match point {
            KillPoint::Write(nth, mode) => self.arm_nth_write(nth, mode),
            KillPoint::Flush(nth) => self.arm_nth_flush(nth),
        }
        point
    }

    /// Clears everything: the store works normally again.
    pub fn reset(&self) {
        *self.inner.lock().expect("fail plan") = PlanInner::default();
    }

    /// Writes observed since the last arm/reset.
    pub fn writes_seen(&self) -> u64 {
        self.inner.lock().expect("fail plan").writes_seen
    }

    /// Flushes observed since the last arm/reset.
    pub fn flushes_seen(&self) -> u64 {
        self.inner.lock().expect("fail plan").flushes_seen
    }

    /// Whether the armed fault has fired.
    pub fn tripped(&self) -> bool {
        self.inner.lock().expect("fail plan").tripped
    }

    /// Returns the action for the write now being attempted.
    pub(crate) fn on_write(&self) -> Result<Option<FailMode>, StorageError> {
        let mut p = self.inner.lock().expect("fail plan");
        if p.tripped {
            return Err(injected_fault());
        }
        p.writes_seen += 1;
        match p.armed_at {
            Some((at, mode)) if p.writes_seen == at => {
                p.tripped = true;
                Ok(Some(mode))
            }
            _ => Ok(None),
        }
    }

    /// Returns Err when this read should fail (and trips the plan).
    fn on_read(&self) -> Result<(), StorageError> {
        let mut p = self.inner.lock().expect("fail plan");
        p.reads_seen += 1;
        if p.read_armed_at == Some(p.reads_seen) {
            p.tripped = true;
            return Err(injected_fault());
        }
        Ok(())
    }

    fn check_alive(&self) -> Result<(), StorageError> {
        if self.inner.lock().expect("fail plan").tripped {
            return Err(injected_fault());
        }
        Ok(())
    }

    /// Returns Err when this flush should fail (and trips the plan).
    pub(crate) fn on_flush(&self) -> Result<(), StorageError> {
        let mut p = self.inner.lock().expect("fail plan");
        if p.tripped {
            return Err(injected_fault());
        }
        p.flushes_seen += 1;
        if p.flush_armed_at == Some(p.flushes_seen) {
            p.tripped = true;
            return Err(injected_fault());
        }
        Ok(())
    }
}

pub(crate) fn injected_fault() -> StorageError {
    StorageError::Io("injected fault: store is fail-stopped".into())
}

/// A store that forwards to `inner` until its [`FailPlan`] fires.
#[derive(Debug)]
pub struct FailStore<S> {
    inner: S,
    plan: FailPlan,
}

impl<S> FailStore<S> {
    /// Wraps `inner`; keep the returned plan handle to arm faults.
    pub fn new(inner: S) -> (Self, FailPlan) {
        let plan = FailPlan::new();
        (
            FailStore {
                inner,
                plan: plan.clone(),
            },
            plan,
        )
    }

    /// Wraps `inner` under an existing plan, so several stores created at
    /// different times (e.g. an engine WAL and the fresh WAL its
    /// checkpoint builds) share one fault schedule and one trip state.
    pub fn with_plan(inner: S, plan: FailPlan) -> Self {
        FailStore { inner, plan }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl WalDevice for FailStore<LogFile> {
    /// Reads count toward [`FailPlan::arm_nth_read`], and keep working
    /// after the plan trips (inspecting the wreckage is the point of a
    /// crash probe).
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<(), StorageError> {
        self.plan.on_read()?;
        self.inner.read_at(buf, offset)
    }

    fn write_at(&mut self, data: &[u8], offset: u64) -> Result<(), StorageError> {
        match self.plan.on_write()? {
            None => self.inner.write_at(data, offset),
            Some(FailMode::Error) => Err(injected_fault()),
            Some(FailMode::Torn) => {
                self.inner.write_at(&data[..data.len() / 2], offset)?;
                Err(injected_fault())
            }
        }
    }

    fn file_len(&self) -> Result<u64, StorageError> {
        self.inner.file_len()
    }

    fn set_len(&mut self, len: u64) -> Result<(), StorageError> {
        self.plan.check_alive()?;
        self.inner.set_len(len)
    }

    /// Syncs count as this store's flushes: [`FailPlan::arm_nth_flush`]
    /// and a seeded kill point reach them, and a tripped plan fails them.
    fn sync_handle(&self) -> Result<SyncHandle, StorageError> {
        Ok(self.inner.sync_handle()?.with_plan(self.plan.clone()))
    }
}

impl<S: BlockStore> BlockStore for FailStore<S> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u32 {
        self.inner.num_blocks()
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        self.plan.check_alive()?;
        self.inner.allocate()
    }

    fn allocate_min(&mut self) -> Result<BlockId, StorageError> {
        self.plan.check_alive()?;
        self.inner.allocate_min()
    }

    fn free(&mut self, id: BlockId) -> Result<(), StorageError> {
        self.plan.check_alive()?;
        self.inner.free(id)
    }

    fn claim_free(&mut self, id: BlockId) -> Result<(), StorageError> {
        self.plan.check_alive()?;
        self.inner.claim_free(id)
    }

    fn truncate_free_tail(&mut self) -> Result<u32, StorageError> {
        self.plan.check_alive()?;
        self.inner.truncate_free_tail()
    }

    fn read_block(&self, id: BlockId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.plan.on_read()?;
        self.inner.read_block(id, buf)
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        match self.plan.on_write()? {
            None => self.inner.write_block(id, data),
            Some(FailMode::Error) => Err(injected_fault()),
            Some(FailMode::Torn) => {
                // First half new, second half whatever the block held
                // (zeros when it held nothing readable).
                let half = data.len() / 2;
                let mut torn = self
                    .inner
                    .read_block_vec(id)
                    .unwrap_or_else(|_| vec![0u8; data.len()]);
                torn[..half].copy_from_slice(&data[..half]);
                self.inner.write_block(id, &torn)?;
                Err(injected_fault())
            }
        }
    }

    fn counters(&self) -> &OpCounters {
        self.inner.counters()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.plan.on_flush()?;
        self.inner.flush()
    }

    fn commit_group(&self) -> Option<usize> {
        self.inner.commit_group()
    }

    fn dirty_pages(&self) -> usize {
        self.inner.dirty_pages()
    }

    fn resident_pages(&self) -> usize {
        self.inner.resident_pages()
    }

    fn free_blocks(&self) -> u32 {
        self.inner.free_blocks()
    }

    fn free_block_ids(&self) -> Vec<u32> {
        self.inner.free_block_ids()
    }

    fn raw_image(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        self.inner.raw_image()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::MemDisk;

    #[test]
    fn unarmed_store_is_transparent() {
        let (mut store, plan) = FailStore::new(MemDisk::new(64));
        let a = store.allocate().unwrap();
        store.write_block(a, &[7u8; 64]).unwrap();
        assert_eq!(store.read_block_vec(a).unwrap(), vec![7u8; 64]);
        assert_eq!(plan.writes_seen(), 1);
        assert!(!plan.tripped());
    }

    #[test]
    fn nth_write_fails_then_fail_stops() {
        let (mut store, plan) = FailStore::new(MemDisk::new(64));
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        plan.arm_nth_write(2, FailMode::Error);
        store.write_block(a, &[1u8; 64]).unwrap();
        assert!(store.write_block(b, &[2u8; 64]).is_err(), "armed write");
        assert!(plan.tripped());
        // Fail-stop: later mutations die too; the failed write never landed.
        assert!(store.write_block(a, &[3u8; 64]).is_err());
        assert!(store.allocate().is_err());
        assert!(store.flush().is_err());
        assert_eq!(store.read_block_vec(b).unwrap(), vec![0u8; 64]);
        assert_eq!(store.read_block_vec(a).unwrap(), vec![1u8; 64]);
    }

    #[test]
    fn torn_write_leaves_half_the_block() {
        let (mut store, plan) = FailStore::new(MemDisk::new(64));
        let a = store.allocate().unwrap();
        store.write_block(a, &[0xAA; 64]).unwrap();
        plan.arm_nth_write(1, FailMode::Torn);
        assert!(store.write_block(a, &[0xBB; 64]).is_err());
        let got = store.read_block_vec(a).unwrap();
        assert_eq!(&got[..32], &[0xBB; 32][..], "new prefix");
        assert_eq!(&got[32..], &[0xAA; 32][..], "stale suffix");
    }

    #[test]
    fn a_torn_log_write_keeps_a_byte_prefix_and_fail_stops() {
        let path = std::env::temp_dir().join(format!("sks_failstore_{}_log", std::process::id()));
        let (mut log, plan) = FailStore::new(LogFile::create(&path, OpCounters::new()).unwrap());
        log.set_len(64).unwrap();
        log.write_at(&[0xAA; 10], 0).unwrap();
        plan.arm_nth_write(1, FailMode::Torn);
        assert!(log.write_at(&[0xBB; 9], 10).is_err());
        let mut got = [0u8; 24];
        log.read_at(&mut got, 0).unwrap();
        assert_eq!(&got[..10], &[0xAA; 10][..]);
        assert_eq!(&got[10..14], &[0xBB; 4][..], "the first half of the write");
        assert_eq!(&got[14..], &[0u8; 10][..], "nothing past it");
        assert!(log.write_at(&[0xCC; 1], 40).is_err(), "fail-stopped");
        assert!(log.set_len(128).is_err(), "fail-stopped");
        assert!(log.sync_handle().unwrap().sync().is_err(), "fail-stopped");
        assert_eq!(log.file_len().unwrap(), 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_arming_is_deterministic_and_in_range() {
        let plan = FailPlan::new();
        let n1 = plan.arm_from_seed(42, 10, FailMode::Error);
        let n2 = plan.arm_from_seed(42, 10, FailMode::Error);
        assert_eq!(n1, n2);
        assert!((1..=10).contains(&n1));
        assert_ne!(
            plan.arm_from_seed(42, 1_000, FailMode::Error),
            plan.arm_from_seed(43, 1_000, FailMode::Error)
        );
    }

    #[test]
    fn nth_read_fails_and_fail_stops_mutations() {
        let (mut store, plan) = FailStore::new(MemDisk::new(64));
        let a = store.allocate().unwrap();
        store.write_block(a, &[5u8; 64]).unwrap();
        plan.arm_nth_read(2);
        store
            .read_with(a, &mut |page| assert_eq!(page, [5u8; 64]))
            .unwrap();
        let mut called = false;
        assert!(store.update_with(a, &mut |_| called = true).is_err());
        assert!(!called, "a failed read hands out no page");
        assert!(plan.tripped());
        assert!(store.write_block(a, &[6u8; 64]).is_err(), "fail-stopped");
        assert_eq!(store.read_block_vec(a).unwrap(), vec![5u8; 64]);
    }

    /// The provided borrowed-access methods go through the wrapper's
    /// write, so an armed write fault fires on them.
    #[test]
    fn update_with_meets_an_armed_write() {
        let (mut store, plan) = FailStore::new(MemDisk::new(64));
        let a = store.allocate().unwrap();
        store.write_block(a, &[1u8; 64]).unwrap();
        plan.arm_nth_write(1, FailMode::Error);
        assert!(store.update_with(a, &mut |page| page.fill(9)).is_err());
        assert!(plan.tripped());
        assert_eq!(store.read_block_vec(a).unwrap(), vec![1u8; 64]);
    }

    #[test]
    fn reset_revives_the_store() {
        let (mut store, plan) = FailStore::new(MemDisk::new(64));
        let a = store.allocate().unwrap();
        plan.arm_nth_write(1, FailMode::Error);
        assert!(store.write_block(a, &[1u8; 64]).is_err());
        plan.reset();
        store.write_block(a, &[4u8; 64]).unwrap();
        assert_eq!(store.read_block_vec(a).unwrap(), vec![4u8; 64]);
    }
}
