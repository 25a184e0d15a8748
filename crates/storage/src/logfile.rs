//! The write-ahead log's file: bytes at offsets, not blocks.
//!
//! A log appends frames of any length and never rewrites what it wrote,
//! so it needs none of a block device's machinery — no block size, no
//! allocator, no header to keep in step with its length. [`WalDevice`] is
//! the whole surface a log uses: positioned reads and writes, the file's
//! length and `set_len` to grow it ahead of the writer or cut a torn tail,
//! and a second handle that fsyncs outside the log's lock. [`LogFile`] is
//! the one implementation over a file; a [`crate::FailStore`]`<LogFile>`
//! is the same file under a [`FailPlan`], for crash probes.
//!
//! Reads and writes go through [`crate::filedisk`]'s positioned-I/O pair,
//! the crate's one platform split. They are timed as
//! [`sks_obs::Stage::BlockRead`] / [`sks_obs::Stage::BlockWrite`] samples
//! (so a trace still shows the log's I/O nested in its commit stages) but
//! counted as neither `block_reads` nor `block_writes`: the log has no
//! blocks, and its bytes are counted where it frames them (`wal_bytes`).

use std::fs::{File, OpenOptions};
use std::path::Path;

use crate::block::StorageError;
use crate::counters::OpCounters;
use crate::failstore::FailPlan;
use crate::filedisk::{read_exact_at, write_all_at};

/// The device surface a write-ahead log needs.
pub trait WalDevice: std::fmt::Debug {
    /// Fills `buf` from byte `offset`; the range must lie inside
    /// [`WalDevice::file_len`].
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<(), StorageError>;
    /// Writes all of `data` at byte `offset`.
    fn write_at(&mut self, data: &[u8], offset: u64) -> Result<(), StorageError>;
    /// The file's length in bytes.
    fn file_len(&self) -> Result<u64, StorageError>;
    /// Grows the file (the new bytes read as zeros) or cuts it.
    fn set_len(&mut self, len: u64) -> Result<(), StorageError>;
    /// The handle every fsync of the log goes through: a second handle to
    /// the file, so a sync needs no lock the writer holds.
    fn sync_handle(&self) -> Result<SyncHandle, StorageError>;
}

/// A log's file (see the module docs).
#[derive(Debug)]
pub struct LogFile {
    file: File,
    counters: OpCounters,
}

impl LogFile {
    /// Creates an empty file at `path`, truncating any existing one.
    pub fn create<P: AsRef<Path>>(path: P, counters: OpCounters) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(LogFile { file, counters })
    }

    /// Opens the existing file at `path` as it is.
    pub fn open<P: AsRef<Path>>(path: P, counters: OpCounters) -> Result<Self, StorageError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(LogFile { file, counters })
    }
}

impl WalDevice for LogFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<(), StorageError> {
        let t = self.counters.obs().start();
        read_exact_at(&self.file, buf, offset)?;
        self.counters.obs().stage(sks_obs::Stage::BlockRead, t);
        Ok(())
    }

    fn write_at(&mut self, data: &[u8], offset: u64) -> Result<(), StorageError> {
        let t = self.counters.obs().start();
        write_all_at(&self.file, data, offset)?;
        self.counters.obs().stage(sks_obs::Stage::BlockWrite, t);
        Ok(())
    }

    fn file_len(&self) -> Result<u64, StorageError> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&mut self, len: u64) -> Result<(), StorageError> {
        Ok(self.file.set_len(len)?)
    }

    fn sync_handle(&self) -> Result<SyncHandle, StorageError> {
        Ok(SyncHandle {
            file: self.file.try_clone()?,
            plan: None,
        })
    }
}

/// An fsync-only handle to a log's file (see [`WalDevice::sync_handle`]).
/// One taken from a [`crate::FailStore`]`<LogFile>` counts each sync
/// against that store's [`FailPlan`], so a killed flush reaches this path
/// too. A sync covers every write made to the file before it began.
#[derive(Debug)]
pub struct SyncHandle {
    file: File,
    plan: Option<FailPlan>,
}

impl SyncHandle {
    /// Forces every byte written to the file so far to stable storage.
    pub fn sync(&self) -> Result<(), StorageError> {
        if let Some(plan) = &self.plan {
            plan.on_flush()?;
        }
        self.file.sync_all()?;
        Ok(())
    }

    /// This handle with its syncs counted against `plan`.
    pub(crate) fn with_plan(self, plan: FailPlan) -> Self {
        SyncHandle {
            plan: Some(plan),
            ..self
        }
    }
}
