//! # sks-engine — a concurrent, WAL-backed database engine over the
//! enciphered B-tree
//!
//! Hardjono & Seberry's point is that search-key substitution happens
//! *after* the B-tree's shape is fixed, so an unmodified DBMS can run on
//! top of the enciphered index. This crate supplies that DBMS-shaped
//! machinery around the single-threaded [`sks_core::EncipheredBTree`]:
//!
//! * [`db`] — [`SksDb`]: the key space sharded over N `RwLock`ed tree
//!   partitions (concurrent readers, per-partition serialized writers)
//!   with a router that hashes the *disguised* key, one commit sequence
//!   every write runs, and the per-client [`Session`] handle (an
//!   `Arc<SksDb>`).
//! * [`wal`] — the write-ahead log in a plain byte file
//!   ([`sks_storage::LogFile`]): CRC-framed records with sealed bodies (the
//!   log sits on the medium beside the pages, so it must leak no keys or
//!   values), each frame's bytes written once, group commit under a
//!   [`sks_storage::SyncPolicy`], and torn-tail detection and cutting.
//! * [`recovery`] — replay of the log into the partitions on open, with a
//!   [`RecoveryReport`] describing what was found and which
//!   [`RecoveryPath`] was taken (exact replay over checkpointed
//!   stores).
//! * [`txn`] — [`Txn`]: explicit multi-key transactions with snapshot
//!   reads (never blocking writers) and atomic cross-partition commits —
//!   one WAL commit frame, partition write locks taken in the global
//!   ascending order. Plain session mutations are implicit autocommit
//!   transactions through the same commit sequence.
//! * [`error`] — [`EngineError`].
//!
//! Every partition keeps its enciphered node/record pages on disk under
//! the database directory, behind a no-steal buffer pool of
//! [`sks_core::StorageBackend::DEFAULT_POOL_PAGES`] frames per store: a
//! checkpoint commits each partition's pages with the log position they
//! cover and removes the log segments every partition covers, and a
//! restart replays exactly the writes past it. The engine reads nothing from
//! [`sks_core::StorageBackend`]; that choice, `Memory` (the paper's
//! simulated device) included, belongs to the single-tree API.
//!
//! ```
//! use sks_core::{Scheme, SchemeConfig};
//! use sks_engine::{EngineConfig, SksDb};
//!
//! let dir = std::env::temp_dir().join(format!("sks_engine_doc_{}", std::process::id()));
//! let scheme = SchemeConfig::with_capacity(Scheme::Oval, 4096).partitions(4);
//! let db = SksDb::open(&dir, EngineConfig::new(scheme)).unwrap();
//! let session = db.session();
//! session.insert(42, b"answer".to_vec()).unwrap();
//! assert_eq!(session.get(42).unwrap().unwrap(), b"answer");
//! # drop(session); drop(db); std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! **Security warning:** like the rest of the workspace this reproduces a
//! 1990 paper; the ciphers are historical. Do not store real secrets.

#![forbid(unsafe_code)]

pub mod db;
pub mod error;
pub mod recovery;
pub mod stats;
pub mod txn;
pub mod wal;

pub use db::{EngineConfig, Session, SksDb};
pub use error::EngineError;
pub use recovery::{RecoveryPath, RecoveryReport};
pub use stats::{PartitionStats, StatsSnapshot, OPS, WRITE_PATH_STAGES};
pub use txn::Txn;
pub use wal::{SyncTicket, Wal, WalDevice, WalOp, WalRecord, WalReplay};

// The observability vocabulary the stats surface speaks, re-exported so
// engine users never need a direct sks-storage dependency.
pub use sks_storage::{Event, EventKind, HistogramSnapshot, ObsLevel, Stage};
