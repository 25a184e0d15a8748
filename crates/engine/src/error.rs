//! Engine error type.

use sks_core::CoreError;
use sks_storage::StorageError;

/// Errors from the engine: WAL I/O, recovery, or the underlying tree.
#[derive(Debug)]
pub enum EngineError {
    /// Underlying enciphered-tree failure.
    Core(CoreError),
    /// Storage failure: the log's file or a partition's block devices.
    Storage(StorageError),
    /// Filesystem-level failure outside the block device (rename, stat).
    Io(std::io::Error),
    /// The engine fail-stopped: an earlier append-path I/O error left the
    /// WAL in an unknown state, or a logged commit failed to apply and the
    /// trees may hold part of it. Every later write (and, after a failed
    /// apply, every read and maintenance call too) refuses; the database
    /// must be reopened, and recovery replays the log to decide the
    /// outcome.
    WalPoisoned,
    /// Invalid engine configuration.
    Config(String),
    /// First-committer-wins validation failed: another commit overwrote
    /// one of this transaction's written keys after its snapshot was
    /// taken. Retry by beginning a fresh transaction. Carries the
    /// conflicting key and its partition (the same context the flight
    /// recorder's `txn_conflict` event records, minus the key — events
    /// never carry key material, but the error goes only to the client
    /// that owns the data).
    Conflict { key: u64, partition: usize },
    /// The transaction was already committed or aborted; no further
    /// operations are accepted on it.
    TxnAborted,
    /// A commit attempt failed mid-flight (WAL error, poisoned log), so
    /// the transaction's effects are unknown until reopen; the handle
    /// fail-stops rather than allowing a retry that could double-apply.
    TxnPoisoned,
    /// An error from a maintenance pass (checkpoint, compaction) with a
    /// flight-recorder dump attached: the rendered tail of recent events
    /// leading up to the failure. `Display` includes the source message,
    /// so callers matching on error text are unaffected.
    Traced {
        source: Box<EngineError>,
        trace: String,
    },
}

impl EngineError {
    /// Attaches a flight-recorder dump to an error (no-op text when the
    /// recorder was empty or observability is off).
    pub(crate) fn with_trace(self, trace: String) -> EngineError {
        EngineError::Traced {
            source: Box::new(self),
            trace,
        }
    }

    /// The flight-recorder dump attached to this error, if any.
    pub fn trace(&self) -> Option<&str> {
        match self {
            EngineError::Traced { trace, .. } => Some(trace),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "tree error: {e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Io(e) => write!(f, "io error: {e}"),
            EngineError::WalPoisoned => write!(
                f,
                "wal poisoned by an earlier I/O error or a logged commit that failed \
                 to apply; reopen the database to recover"
            ),
            EngineError::Config(msg) => write!(f, "engine config: {msg}"),
            EngineError::Conflict { key, partition } => write!(
                f,
                "transaction conflict: key {key} (partition {partition}) was \
                 committed by another transaction after this snapshot; retry"
            ),
            EngineError::TxnAborted => write!(
                f,
                "transaction already finished (committed or aborted); begin a new one"
            ),
            EngineError::TxnPoisoned => write!(
                f,
                "transaction poisoned by a failed commit; its effects are \
                 unknown until the database is reopened"
            ),
            EngineError::Traced { source, .. } => write!(f, "{source}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            EngineError::Io(e) => Some(e),
            EngineError::Traced { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}
