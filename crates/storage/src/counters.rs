//! Shared operation counters.
//!
//! The paper's comparative claims are about *counts* — decryptions per node
//! visit (§3), re-encipherments on reorganisation (§3), block reads per
//! search (§4.2) — so counting is a first-class concern. Counters are
//! `Arc`-shared atomics: the store, the codec and the tree all increment the
//! same [`OpCounters`] and experiments snapshot it between phases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sks_obs::{Level, Obs};

/// One atomic counter cell.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Shared atomic operation counters (see module docs).
        #[derive(Debug, Default)]
        pub struct OpCountersInner {
            $( $(#[$doc])* pub $name: AtomicU64, )+
        }

        /// An owned snapshot of [`OpCounters`] at a point in time.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OpSnapshot {
            $( $(#[$doc])* pub $name: u64, )+
        }

        impl OpCountersInner {
            fn snapshot(&self) -> OpSnapshot {
                OpSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                }
            }

            fn reset(&self) {
                $( self.$name.store(0, Ordering::Relaxed); )+
            }
        }

        impl OpSnapshot {
            /// Component-wise difference (`self - earlier`), saturating.
            pub fn delta(&self, earlier: &OpSnapshot) -> OpSnapshot {
                OpSnapshot {
                    $( $name: self.$name.saturating_sub(earlier.$name), )+
                }
            }

            /// Every counter as `(name, value)`, in declaration order —
            /// the stats surface serialises from this so a new counter
            /// can never be forgotten.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($name), self.$name), )+ ]
            }
        }
    };
}

counters! {
    /// Physical block reads from the store.
    block_reads,
    /// Physical block writes to the store.
    block_writes,
    /// Blocks allocated.
    allocs,
    /// Blocks freed.
    frees,
    /// Buffer-pool hits (reads served from cache).
    cache_hits,
    /// Buffer-pool misses.
    cache_misses,
    /// Buffer-pool frames evicted (dirty evictions also pay a
    /// `block_writes`).
    cache_evicts,
    /// Node-cache hits (node visits served from RAM; the *logical*
    /// decrypt counters are still bumped).
    node_cache_hits,
    /// Node-cache misses (node visits that read the page and filled the
    /// cache with it).
    node_cache_misses,
    /// Decoded-record cache hits (gets that paid zero physical unseals;
    /// the *logical* data_decrypts counter is still bumped).
    record_cache_hits,
    /// Decoded-record cache misses (gets that unsealed the record from its
    /// data block, then filled the cache).
    record_cache_misses,
    /// Live records rewritten into fresh blocks by record-store compaction
    /// (maintenance work below the paper's cost model — the data_* crypto
    /// counters are not charged for the move itself).
    compact_moved_records,
    /// Data blocks reclaimed through the free list by compaction.
    compact_freed_blocks,
    /// Live node blocks relocated by node-device compaction (sliding a
    /// sealed node into a lower free slot; maintenance work below the
    /// paper's cost model, like `compact_moved_records`).
    compact_moved_nodes,
    /// Blocks released from a device's tail by high-water truncation
    /// (the device physically shrinks; on the file backend the store
    /// file is cut at the new high-water mark).
    device_truncated_blocks,
    /// Orphaned record copies tombstoned by maintenance: a compaction
    /// victim's live slot the tree does not point at.
    compact_orphans_collected,
    /// Cipher-block (or RSA-block) encryptions of *search-key* material.
    key_encrypts,
    /// Cipher-block (or RSA-block) decryptions of *search-key* material.
    key_decrypts,
    /// Cipher-block encryptions of pointer material `E(b‖a‖p)`.
    ptr_encrypts,
    /// Cipher-block decryptions of pointer material.
    ptr_decrypts,
    /// Whole-page stream/CBC block encryptions (Bayer–Metzger full page).
    page_encrypts,
    /// Whole-page stream/CBC block decryptions.
    page_decrypts,
    /// Record (data-block) encryptions — §5's independent data cipher.
    data_encrypts,
    /// Record (data-block) decryptions.
    data_decrypts,
    /// Key disguise applications `f(k)` (substitution, §4).
    disguise_ops,
    /// Disguise inversions `f⁻¹(k̂)`.
    recover_ops,
    /// Discrete-log computations (exponentiation disguise, §4.2).
    dlog_ops,
    /// In-node key comparisons during navigation.
    key_compares,
    /// B-tree node visits.
    node_visits,
    /// Node splits.
    splits,
    /// Node merges.
    merges,
    /// Sibling borrows during deletion.
    borrows,
    /// Write-ahead-log records appended.
    wal_appends,
    /// Write-ahead-log payload bytes appended.
    wal_bytes,
    /// Physical fsyncs issued for WAL commits (group commit batches many
    /// appends into one of these).
    wal_fsyncs,
    /// Write-ahead-log records replayed during crash recovery.
    wal_replayed,
    /// Multi-record WAL frames sealed (each covers ≥2 records under one
    /// CTR body + CRC — a batch group, a bulk-load group or a multi-key
    /// transaction; a commit of one record is a frame too but not
    /// counted here).
    wal_sealed_batches,
    /// Triplet cryptograms a node write copied from the image it replaced
    /// instead of sealing again (the *logical* encrypt counters are still
    /// charged per triplet — logical encrypts minus this is the number of
    /// physical seals).
    triplet_seals_reused,
    /// Disguised key fields a node write copied from the image it replaced
    /// instead of disguising the key again (the logical `disguise_ops`
    /// are still charged per key — this is the physical saving).
    key_disguises_reused,
    /// Replay groups applied through the bulk-fill path during recovery
    /// (each covers a contiguous run of records for one partition).
    replay_batches,
    /// Transactions begun (`SksDb::begin`). Implicit autocommit ops are
    /// *not* counted here — their cost model is pinned to the pre-txn
    /// counters, so only explicit transactions move the txn_* family.
    txn_begins,
    /// Explicit transactions committed (including empty and single-key
    /// ones).
    txn_commits,
    /// Explicit transactions aborted (explicitly, by drop, or by a failed
    /// commit).
    txn_aborts,
    /// Commits refused by first-committer-wins validation: a written key
    /// was overwritten by another commit after this txn's snapshot.
    txn_conflicts,
}

/// Cheaply cloneable handle to a shared counter set.
///
/// Since PR 6 the handle also carries the [`Obs`] observability channel:
/// every layer that counts already holds an `OpCounters`, so the same
/// handle is the natural route for stage timers and flight-recorder
/// events. The default is [`Level::Counters`] — counting without clocks.
#[derive(Debug, Clone)]
pub struct OpCounters {
    inner: Arc<OpCountersInner>,
    obs: Obs,
}

impl Default for OpCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl OpCounters {
    /// Counters with observability at the default [`Level::Counters`]
    /// (no clock reads anywhere; rare events only).
    pub fn new() -> Self {
        Self::with_observability(Level::Counters)
    }

    /// Counters with an explicit observability level.
    pub fn with_observability(level: Level) -> Self {
        OpCounters {
            inner: Arc::new(OpCountersInner::default()),
            obs: Obs::new(level),
        }
    }

    /// The observability channel riding on this counter set.
    #[inline]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Adds `n` to a counter field selected by the closure.
    #[inline]
    pub fn bump_by(&self, field: impl Fn(&OpCountersInner) -> &AtomicU64, n: u64) {
        field(&self.inner).fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to a counter field selected by the closure, e.g.
    /// `counters.bump(|c| &c.ptr_decrypts)`.
    #[inline]
    pub fn bump(&self, field: impl Fn(&OpCountersInner) -> &AtomicU64) {
        self.bump_by(field, 1);
    }

    pub fn snapshot(&self) -> OpSnapshot {
        self.inner.snapshot()
    }

    pub fn reset(&self) {
        self.inner.reset();
    }
}

impl OpSnapshot {
    /// Total cryptogram decryptions of any kind — the paper's headline
    /// metric for search cost.
    pub fn total_decrypts(&self) -> u64 {
        self.key_decrypts + self.ptr_decrypts + self.page_decrypts
    }

    /// Total cryptogram encryptions of any kind.
    pub fn total_encrypts(&self) -> u64 {
        self.key_encrypts + self.ptr_encrypts + self.page_encrypts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let c = OpCounters::new();
        c.bump(|i| &i.block_reads);
        c.bump(|i| &i.block_reads);
        c.bump_by(|i| &i.ptr_decrypts, 5);
        let s = c.snapshot();
        assert_eq!(s.block_reads, 2);
        assert_eq!(s.ptr_decrypts, 5);
        assert_eq!(s.total_decrypts(), 5);
    }

    #[test]
    fn clones_share_state() {
        let a = OpCounters::new();
        let b = a.clone();
        b.bump(|i| &i.splits);
        assert_eq!(a.snapshot().splits, 1);
    }

    #[test]
    fn delta_and_reset() {
        let c = OpCounters::new();
        c.bump_by(|i| &i.node_visits, 10);
        let before = c.snapshot();
        c.bump_by(|i| &i.node_visits, 7);
        let after = c.snapshot();
        assert_eq!(after.delta(&before).node_visits, 7);
        c.reset();
        assert_eq!(c.snapshot().node_visits, 0);
    }

    #[test]
    fn totals_cover_all_crypto_fields() {
        let c = OpCounters::new();
        c.bump(|i| &i.key_encrypts);
        c.bump(|i| &i.ptr_encrypts);
        c.bump(|i| &i.page_encrypts);
        c.bump(|i| &i.key_decrypts);
        c.bump(|i| &i.ptr_decrypts);
        c.bump(|i| &i.page_decrypts);
        let s = c.snapshot();
        assert_eq!(s.total_encrypts(), 3);
        assert_eq!(s.total_decrypts(), 3);
    }
}
