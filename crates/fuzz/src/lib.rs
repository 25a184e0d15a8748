//! Deterministic, CI-runnable adversarial fuzzing for the SKS engine.
//!
//! Three seeded drivers, no external fuzzer, no coverage feedback — a seed
//! fully determines every op, every injected fault, and every byte of
//! corruption, so any failure reproduces from its printed seed alone:
//!
//! - [`op_seq`]: arbitrary op sequences over a full [`sks_engine::SksDb`]
//!   (insert / get / delete / range / batch / txn / checkpoint / compact)
//!   with crash-and-reopen injected at seeded [`sks_storage::FailStore`]
//!   kill points, cross-checked against a shadow `BTreeMap` model
//!   ([`model::ShadowModel`]): recovery must land on a committed unit
//!   prefix — whole-batch / whole-txn atomicity, nothing acknowledged
//!   lost.
//! - [`wal_fault`]: the bare WAL under arbitrary fuzzed op sequences and
//!   seeded write/flush faults, generalising the fixed-workload
//!   `wal_fault_sweep` to single-record, multi-record and txn frames
//!   across block-size / sync-policy configurations.
//! - [`decoders`]: corrupt-ciphertext fuzzing of every sealed decoder —
//!   WAL streams, node codecs for every disguise scheme, record-store
//!   pages (including slots shorter than their sealed key), tree
//!   manifests — asserting the fail-closed contract: a clean `Err`, never
//!   a panic, and no plaintext echoed into error text.

pub mod decoders;
pub mod model;
pub mod mutate;
pub mod op_seq;
pub mod rng;
pub mod wal_fault;

/// A scratch directory that cleans up after itself (success or panic).
/// Unique per (label, seed) so parallel test binaries never collide.
pub struct ScratchDir {
    path: std::path::PathBuf,
}

impl ScratchDir {
    pub fn new(label: &str, seed: u64) -> Self {
        let path =
            std::env::temp_dir().join(format!("sks-fuzz-{label}-{seed}-{}", std::process::id()));
        // A stale dir from a killed previous run must not leak state into
        // this seed; start from nothing.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }

    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
