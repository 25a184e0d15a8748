//! # sks-storage — simulated secondary storage
//!
//! The storage model of §3 (after Elmasri & Navathe): fixed-size *blocks* on
//! a device, some holding B-tree node triplets, some holding records.
//! Bayer & Metzger place the encryption module at the memory↔disk boundary;
//! this crate provides that boundary with exact accounting:
//!
//! * [`block`] — the [`BlockStore`] trait, the boxed [`DynBlockStore`]
//!   alias the backend-agnostic layers hold, and error types.
//! * [`memdisk`] — in-memory device; [`MemDisk::raw_image`] is the
//!   opponent's view of the stolen medium.
//! * [`filedisk`] — file-backed device with a persistent free list.
//! * `freelist` — the one allocator every device above hands blocks out
//!   through, so all backends allocate the same ids in the same order.
//! * [`lru`] — [`LruMap`], the one bounded map (O(1) recency list with
//!   pinning) behind every cache in the workspace.
//! * [`bufferpool`] — LRU cache at the memory↔disk boundary: dirty
//!   frames stay pinned until a flush writes them, but for those past a
//!   file's committed end, written back early once they outnumber the
//!   frames.
//! * [`logfile`] — [`LogFile`], the write-ahead log's plain byte file,
//!   and [`WalDevice`], the surface a log writes through.
//! * [`failstore`] — fault-injection wrapper failing (or tearing) the Nth
//!   write, for deterministic crash probes.
//! * [`paged`] — [`PagedFileStore`]: the file backend's store — the pool
//!   over a [`FileDisk`] with shadowed allocation and journaled, crash-
//!   atomic checkpoints.
//! * [`counters`] — shared atomic [`OpCounters`]: block I/O, cache traffic,
//!   and every class of cryptographic operation the paper's claims count.
//! * [`pagerw`] — bounds-checked big-endian page cursors for node codecs.
//! * [`sync`] — the commit-time durability policy ([`SyncPolicy`]) the
//!   engine's write-ahead log honours (fsync-per-commit vs group commit).
//! * [`wipe`] — the volatile zeroing every plaintext buffer gets on drop.

pub mod block;
pub mod bufferpool;
pub mod counters;
pub mod failstore;
pub mod filedisk;
mod freelist;
pub mod logfile;
pub mod lru;
pub mod memdisk;
pub mod paged;
pub mod pagerw;
pub mod sync;
pub mod wipe;

pub use block::{BlockId, BlockStore, DynBlockStore, StorageError};
pub use bufferpool::BufferPool;
pub use counters::{OpCounters, OpCountersInner, OpSnapshot};
pub use failstore::{FailMode, FailPlan, FailStore, KillPoint};
pub use filedisk::{crc32, crc32_fold, sync_dir, FileDisk, CRC32_INIT};
pub use logfile::{LogFile, SyncHandle, WalDevice};
pub use lru::LruMap;
pub use memdisk::MemDisk;
pub use paged::PagedFileStore;
pub use pagerw::{PageOverflow, PageReader, PageWriter};
pub use sync::SyncPolicy;
// Observability vocabulary (the `Obs` channel rides on `OpCounters`).
pub use sks_obs::{
    Event, EventKind, Histogram, HistogramSnapshot, Level as ObsLevel, Obs, Stage, NO_PARTITION,
};
