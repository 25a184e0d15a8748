//! Write-ahead log in a plain byte file ([`WalDevice`]).
//!
//! The file is a 12-byte header — a magic and the piece length, written
//! once at creation — followed by a stream of self-checking *frames* at
//! byte offsets. There is one frame grammar, and only this module knows
//! it:
//!
//! ```text
//! tag(1)=0xA5 ‖ crc32(4) ‖ first_seq(8) ‖ nonce(8) ‖ blen(4) ‖
//!     E( count(4) ‖ ( op(1) ‖ key(8) ‖ vlen(4) ‖ value )^count )
//! ```
//!
//! with `count ≥ 1` and the CRC covering `first_seq ‖ nonce ‖ blen ‖
//! ciphertext`. A frame is a *group* of `count` records holding the
//! consecutive sequence numbers `first_seq..first_seq + count`. Every frame
//! replays all-or-nothing — one CRC covers the whole group — which is the
//! atomicity a transaction needs.
//!
//! The append surface is one call: [`Wal::append_group`] seals borrowed
//! `(key, Some(value) | None)` ops as one frame and writes it, and a
//! [`Wal::commit`] after it fsyncs as the policy says. Every engine commit
//! (a single write is a group of one) and every `bulk_load` partition
//! group goes through it. The staged
//! [`Wal::append_insert`] / [`Wal::append_delete`] path, which buffers
//! records until the next commit seals them as one group, is kept only
//! because the frozen benchmark's layer timings call it; the engine never
//! stages.
//!
//! The body — operations, search keys and record values — is sealed with
//! an independent stream cipher (Speck64-CTR keyed from the engine's WAL
//! key, fresh random per-frame nonce stored in the clear so no two frames
//! ever share keystream, even where an open rewrites a cut torn tail).
//! The log is the database's only durable representation, so
//! leaving it plaintext would hand the paper's opponent everything the
//! disguised tree withholds; sealing it keeps the §5 discipline that
//! stored key material is never readable off the medium. A group is sealed
//! as its frame is streamed to the device, from the caller's borrowed
//! values: the body is serialised, sealed and folded into the CRC one
//! piece at a time, and no frame-sized buffer ever exists (a bulk load's
//! frame is tens of megabytes). A frame whose body fits one piece goes
//! out as one write of header and body; a longer one writes its pieces
//! behind a gap the size of its header, then the header last. Staged
//! records wait in a plaintext buffer that is wiped as soon as they are
//! sealed.
//!
//! A file's first frame is a *key-check sentinel*: a group of one
//! `OP_KEYCHECK` record sealing a constant, whose seq is the file's
//! *base* — 1 for a [`Wal::create`]d log, and where the log had got to
//! for a *segment*, a file the engine's log goes on in. Opening with the
//! wrong key (or a log in another frame format) fails the sentinel check,
//! and a file in another container fails the header check before it;
//! either fails closed with a configuration error and never touches the
//! file, so a mistyped key cannot destroy a log it cannot read.
//!
//! Replay accepts frames while the tag, CRC, the strictly-increasing
//! sequence number and the sealed body's grammar all hold, and treats the
//! first violation as the torn tail of an interrupted write: everything
//! before it is recovered, and the file is cut just past it (`set_len`,
//! then an fsync) so a later replay cannot resurrect stale bytes. A write
//! torn to any prefix of its bytes fails its frame's CRC, and the tag of a
//! frame written in pieces is written last: a frame killed at any write
//! reads as a clean end of the log.
//!
//! The file is grown ahead of the writer with `set_len`, in fixed 1 MiB
//! steps (`GROW_STEP`), so a commit's write lands in space the file
//! already has and its fsync never has to persist a new length.
//!
//! A commit runs on the caller's thread: its frame is written when it is
//! sealed, and the commit fsyncs when the [`SyncPolicy`] says so. So a
//! commit that has returned is in the log file, and a process crash loses
//! nothing acknowledged under any policy. The policy decides only what a
//! power failure can lose: `Always` fsyncs every commit, so nothing;
//! `EveryN(n)` fsyncs once `n` written commits are unsynced, so at most
//! the last `n − 1` commits; `Never` everything since the last
//! [`Wal::flush`]. Every byte of the log is written once — nothing is
//! rewritten in place, and the only rewind is open's cut of a torn tail
//! (`tests::every_log_byte_is_written_once`) — so a torn write can damage
//! only the frame it carries, which no fsync has covered yet. Any I/O error in the append path fail-stops the
//! handle ([`EngineError::WalPoisoned`]): a half-written frame must not be
//! built upon, and reopening replays the log back to a consistent prefix.
//!
//! A [`Wal::commit_durable`] the policy left unsynced hands back a
//! [`SyncTicket`] instead, for the caller to wait on once it has released
//! its locks. Every fsync goes through the log's one durability point
//! (seq written through, seq synced through): the first waiter fsyncs a
//! second handle to the file outside the WAL mutex, on behalf of every
//! frame already written, and a waiter that fsync covered returns without
//! one of its own. A failed fsync fail-stops the handle too.

use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

use sks_crypto::modes::{ctr_xor, ctr_xor_in_place};
use sks_crypto::speck::Speck64;
pub use sks_storage::WalDevice;
use sks_storage::{
    crc32, crc32_fold, wipe, EventKind, LogFile, OpCounters, Stage, SyncHandle, SyncPolicy,
    CRC32_INIT, NO_PARTITION,
};

use crate::error::EngineError;

/// The one device type a [`Wal`] runs on: a [`LogFile`], or one behind a
/// [`sks_storage::FailStore`] so crash probes can tear a write or kill an
/// fsync.
pub(crate) type Device = Box<dyn WalDevice + Send>;

/// How far a log is written and how far it is durable, in sequence
/// numbers; see [`SyncPoint`].
#[derive(Debug)]
struct SyncState {
    /// Every frame up to this seq is written to the log file.
    written: u64,
    /// Every frame up to this seq is durable.
    synced: u64,
    /// Commits written so far, and how many of them the latest fsync
    /// covered: their difference is what a [`SyncPolicy`] counts, so any
    /// fsync, whoever paid it, restarts the policy's count.
    commits: u64,
    commits_synced: u64,
    /// A leader's fsync is in flight (it runs with this mutex released).
    syncing: bool,
    /// An fsync failed: what the file holds past `synced` is unknowable.
    failed: bool,
}

/// A log's one durability point, shared by its [`Wal`] handle and every
/// [`SyncTicket`] it hands out. Every fsync of the log goes through
/// [`SyncPoint::fsync`], where it is counted and timed, and all but a new
/// file's header's and the open-time torn-tail cut's through
/// [`SyncPoint::sync_through`], which is group commit: a caller whose
/// frame an earlier fsync covered returns at once, one that finds an
/// fsync in flight waits it out, and otherwise the caller leads — it
/// fsyncs through a second handle to the log file, outside both this
/// point's mutex and the WAL's, everything written so far, on behalf of
/// every frame that is already written and still waiting.
#[derive(Debug)]
pub(crate) struct SyncPoint {
    handle: SyncHandle,
    /// Where fsyncs are counted (`wal_fsyncs`) and timed
    /// ([`Stage::WalFsync`]).
    counters: OpCounters,
    state: Mutex<SyncState>,
    /// Signalled whenever a leader's fsync ends.
    done: Condvar,
}

impl SyncPoint {
    fn new(handle: SyncHandle, written: u64, counters: OpCounters) -> Self {
        SyncPoint {
            handle,
            counters,
            state: Mutex::new(SyncState {
                written,
                synced: 0,
                commits: 0,
                commits_synced: 0,
                syncing: false,
                failed: false,
            }),
            done: Condvar::new(),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, SyncState> {
        self.state.lock().expect("wal sync point")
    }

    /// Records that every frame up to `seq` is written to the file, by
    /// `commits` more commits, and returns how many written commits no
    /// fsync has covered yet.
    fn wrote_through(&self, seq: u64, commits: u64) -> u64 {
        let mut state = self.state();
        state.written = state.written.max(seq);
        state.commits += commits;
        state.commits - state.commits_synced
    }

    fn failed(&self) -> bool {
        self.state().failed
    }

    /// Makes the log durable through `seq`, which must already be
    /// written. Fails with the fsync's own error when this caller's fsync
    /// failed, and with [`EngineError::WalPoisoned`] once any has.
    fn sync_through(&self, seq: u64) -> Result<(), EngineError> {
        let mut state = self.state();
        debug_assert!(seq <= state.written, "only a written frame can be synced");
        loop {
            if state.failed {
                return Err(EngineError::WalPoisoned);
            }
            if state.synced >= seq {
                return Ok(());
            }
            if !state.syncing {
                break;
            }
            state = self.done.wait(state).expect("wal sync point");
        }
        // Lead: everything written by now is in the file, so this one
        // fsync covers it all.
        let (target, commits) = (state.written, state.commits);
        state.syncing = true;
        drop(state);
        let result = self.fsync();
        let mut state = self.state();
        state.syncing = false;
        match result {
            Ok(()) => {
                state.synced = state.synced.max(target);
                state.commits_synced = state.commits_synced.max(commits);
            }
            // An fsync failure may have silently dropped dirty pages
            // (Linux clears the error flag), so the durability of every
            // unsynced frame is now unknowable: fail stop rather than
            // acknowledge anything over a silent hole.
            Err(_) => state.failed = true,
        }
        drop(state);
        self.done.notify_all();
        Ok(result?)
    }

    /// One fsync of the log file, counted in `wal_fsyncs` and timed as
    /// [`Stage::WalFsync`]: every log fsync goes through here.
    fn fsync(&self) -> Result<(), sks_storage::StorageError> {
        self.counters.bump(|c| &c.wal_fsyncs);
        let timer = self.counters.obs().start();
        self.handle.sync()?;
        self.counters.obs().stage(Stage::WalFsync, timer);
        Ok(())
    }

    /// Makes the log durable through everything it has written so far.
    pub(crate) fn sync_written(&self) -> Result<(), EngineError> {
        let written = self.state().written;
        self.sync_through(written)
    }
}

/// A written frame's claim on its durability: [`SyncTicket::wait`]
/// returns once the frame is durable. Handed out by
/// [`Wal::commit_durable`], so a caller can release its locks before it
/// waits, and any number of waiting frames share one fsync.
#[derive(Debug)]
pub struct SyncTicket {
    point: Arc<SyncPoint>,
    seq: u64,
}

impl SyncTicket {
    /// Blocks until the frame is durable; see [`Wal::commit_durable`] for
    /// what an error means.
    pub fn wait(self) -> Result<(), EngineError> {
        self.point.sync_through(self.seq)
    }
}

/// The first bytes of every log file this build writes. A log in any
/// other container (the block device's `SKSBTRE1` included) is refused.
const LOG_MAGIC: &[u8; 8] = b"SKSWLOG1";
/// `magic ‖ piece length`: where the frame stream starts in the file.
const FILE_HEADER: u64 = 12;
/// How far the file grows at a time, ahead of the writer.
const GROW_STEP: u64 = 1 << 20;
/// Bounds on the piece length a header may name, so a damaged header
/// cannot size a buffer.
const PIECE_RANGE: std::ops::RangeInclusive<usize> = 8..=GROW_STEP as usize;

const TAG: u8 = 0xA5;
/// `tag ‖ crc ‖ first_seq ‖ nonce ‖ blen`.
const HEADER_LEN: usize = 1 + 4 + 8 + 8 + 4;
/// `op ‖ key`: with [`HEADER_LEN`], the fixed part of a record's logical
/// `wal_bytes` charge (the cost model charges every record as if it were
/// framed alone, so grouping never moves the paper's counters).
const BODY_MIN: usize = 1 + 8;
/// `count` heading a sealed group body.
const COUNT_LEN: usize = 4;
/// `op ‖ key ‖ vlen` heading each record inside a sealed group body.
const ENTRY_HEADER: usize = 1 + 8 + 4;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
/// Internal sentinel proving the opener holds the right key (record 1).
const OP_KEYCHECK: u8 = 3;
const KEYCHECK_MAGIC: &[u8; 16] = b"SKSWAL-KEYCHECK1";

/// A logged operation, as recovered by replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    Insert { key: u64, value: Vec<u8> },
    Delete { key: u64 },
}

/// One recovered record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub op: WalOp,
}

/// What replay found in an existing log.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    pub records: Vec<WalRecord>,
    /// A frame failed its checks (interrupted write): the valid prefix
    /// was kept, and the file cut after it.
    pub torn_tail: bool,
    /// Bytes discarded past the last valid frame.
    pub bytes_discarded: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed for the per-frame nonce sequence: time, pid and a stack address
/// mixed together, so two log lifetimes (or two processes) draw from
/// disjoint 64-bit regions with overwhelming probability.
fn nonce_seed() -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let addr = &t as *const _ as u64;
    splitmix64(t ^ addr.rotate_left(32) ^ u64::from(std::process::id()))
}

/// One record of a group as [`Wal::write_frame`] reads it: `(op, key, value)`,
/// the value borrowed from wherever the caller holds it.
type Entry<'a> = (u8, u64, &'a [u8]);

/// One record staged for sealing. The plaintext value is wiped when the
/// entry drops (after the group body is sealed), so the staging buffer
/// can never leak record bytes through freed heap memory — the same
/// discipline the decoded-record cache follows.
#[derive(Debug)]
struct StagedOp {
    op: u8,
    key: u64,
    value: Vec<u8>,
}

impl Drop for StagedOp {
    fn drop(&mut self) {
        wipe::bytes(&mut self.value);
    }
}

/// Append/commit/replay handle over one log device.
#[derive(Debug)]
pub struct Wal {
    disk: Device,
    /// The log's durability point: every fsync goes through it.
    point: Arc<SyncPoint>,
    /// Body bytes sealed per piece, and bytes per read on replay.
    piece_len: usize,
    /// File offset of the next frame: just past the last one written.
    end: u64,
    /// The file's length, kept ahead of `end` (see [`Wal::reserve`]).
    file_len: u64,
    /// The sentinel's sequence number (see the module docs).
    base: u64,
    next_seq: u64,
    nonce_state: u64,
    policy: SyncPolicy,
    /// The buffer a frame is serialised and sealed in, piece by piece
    /// (see [`BodyPiece`]): appending a frame allocates nothing.
    piece: Vec<u8>,
    /// Set when an append-path I/O error leaves the stream in an unknown
    /// state; every later operation refuses until the log is reopened.
    poisoned: bool,
    cipher: Speck64,
    counters: OpCounters,
    /// Records appended since the last group boundary, holding seqs
    /// `next_seq - staged.len()..next_seq`. Values are wiped on drop; the
    /// buffer never reaches the medium unsealed.
    staged: Vec<StagedOp>,
}

impl Wal {
    /// Creates a fresh, empty log (truncating any existing file), sealed
    /// under `wal_key`, and durably writes the key-check sentinel.
    /// `block_size` is the body piece a frame is sealed and written in,
    /// rounded up to whole cipher blocks, and the replay's read chunk.
    pub fn create<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<Self, EngineError> {
        let file = LogFile::create(path, counters.clone())?;
        Wal::create_on_device(file, block_size, wal_key, policy, counters)
    }

    /// Opens an existing log: verifies the container and the key-check
    /// sentinel (failing closed, without touching the file, when either
    /// is wrong), replays every intact frame, cuts any torn tail, and
    /// positions the handle for further appends.
    pub fn open<P: AsRef<Path>>(
        path: P,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<(Self, WalReplay), EngineError> {
        let file = LogFile::open(path, counters.clone())?;
        Wal::open_on_device(file, wal_key, policy, counters)
    }

    /// [`Wal::create`] over an already-constructed, empty device (fault
    /// probes wrap a [`LogFile`] in a [`sks_storage::FailStore`] first).
    pub fn create_on_device(
        disk: impl WalDevice + Send + 'static,
        block_size: usize,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<Self, EngineError> {
        let mut wal = Wal::create_segment(Box::new(disk), block_size, wal_key, policy, counters)?;
        wal.start_at(1)?;
        wal.flush()?;
        Ok(wal)
    }

    /// A log file holding only its header, made durable: a segment, whose
    /// sentinel [`Wal::start_at`] writes once its base is known.
    pub(crate) fn create_segment(
        mut disk: Device,
        block_size: usize,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<Self, EngineError> {
        let piece_len = block_size.next_multiple_of(8);
        if !PIECE_RANGE.contains(&piece_len) {
            return Err(EngineError::Config(format!(
                "wal piece of {block_size} bytes is outside {PIECE_RANGE:?}"
            )));
        }
        let mut header = [0u8; FILE_HEADER as usize];
        header[..8].copy_from_slice(LOG_MAGIC);
        header[8..].copy_from_slice(&(piece_len as u32).to_be_bytes());
        disk.write_at(&header, 0)?;
        let scan = Scan {
            disk,
            cipher: Speck64::from_u128(wal_key),
            piece_len,
            end: FILE_HEADER,
            base: None,
            next_seq: 1,
            replay: WalReplay::default(),
        };
        let wal = Wal::positioned(scan, policy, counters)?;
        wal.point.fsync()?;
        Ok(wal)
    }

    /// [`Wal::open`] over an already-constructed device.
    pub fn open_on_device(
        disk: impl WalDevice + Send + 'static,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<(Self, WalReplay), EngineError> {
        let scan = Wal::scan(Box::new(disk), wal_key)?.ok_or_else(container_mismatch)?;
        counters.bump_by(|c| &c.wal_replayed, scan.replay.records.len() as u64);
        Wal::resume(scan, policy, counters)
    }

    /// Reads a log file to the end of its valid frames without writing to
    /// it. `None` for a file shorter than its header: a segment whose
    /// creation was cut short. Fails closed on a file in another container
    /// or under another key.
    pub(crate) fn scan(disk: Device, wal_key: u128) -> Result<Option<Scan>, EngineError> {
        if disk.file_len()? < FILE_HEADER {
            return Ok(None);
        }
        let cipher = Speck64::from_u128(wal_key);
        let piece_len = read_file_header(&*disk)?;
        // Stream the file a chunk at a time: frames are parsed (and their
        // sealed bodies decrypted) incrementally, so peak memory is the
        // recovered records plus one compaction window — not a second
        // whole-log ciphertext copy.
        let mut replay = WalReplay::default();
        let mut reader = FrameReader::new(&*disk, &cipher, piece_len)?;
        while let Some(mut records) = reader.next_frame()? {
            replay.records.append(&mut records);
        }
        let (end, base, next_seq) = (reader.pos(), reader.base, reader.expected_seq);
        let real_end = reader.real_end()?;
        replay.torn_tail = real_end > end;
        replay.bytes_discarded = real_end.saturating_sub(end);
        Ok(Some(Scan {
            disk,
            cipher,
            piece_len,
            end,
            base,
            next_seq,
            replay,
        }))
    }

    /// Positions a scanned log for appends: cuts any torn tail off,
    /// durably, so no later replay can resurrect it, and gives a file
    /// with no sentinel one at seq 1. Returns what the scan replayed.
    pub(crate) fn resume(
        mut scan: Scan,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<(Self, WalReplay), EngineError> {
        let replay = std::mem::take(&mut scan.replay);
        let unstarted = scan.base.is_none();
        let mut wal = Wal::positioned(scan, policy, counters)?;
        if replay.torn_tail {
            // The next append grows the file again.
            wal.disk.set_len(wal.end)?;
            wal.file_len = wal.end;
            wal.point.fsync()?;
            // Flight-recorder breadcrumb: where the valid stream ended and
            // how many trailing bytes recovery threw away.
            wal.counters.obs().note(
                EventKind::TornTailScrub,
                NO_PARTITION,
                wal.end - FILE_HEADER,
                replay.bytes_discarded,
                0,
            );
        }
        if unstarted {
            // Only reachable when the log start itself was destroyed (or
            // creation died between the header and the sentinel): restore
            // the sentinel so the wrong-key guard holds for the next open.
            debug_assert_eq!(wal.end, FILE_HEADER, "no sentinel, no frames");
            wal.start_at(1)?;
            wal.flush()?;
        }
        Ok((wal, replay))
    }

    /// A handle whose next frame lands where the scan ended. Nothing
    /// already in the file counts as durable until its first fsync.
    fn positioned(
        scan: Scan,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<Self, EngineError> {
        let point = SyncPoint::new(
            scan.disk.sync_handle()?,
            scan.next_seq - 1,
            counters.clone(),
        );
        Ok(Wal {
            file_len: scan.disk.file_len()?,
            disk: scan.disk,
            point: Arc::new(point),
            piece_len: scan.piece_len,
            end: scan.end,
            base: scan.base.unwrap_or(0),
            next_seq: scan.next_seq,
            nonce_state: nonce_seed(),
            policy,
            piece: Vec::new(),
            poisoned: false,
            cipher: scan.cipher,
            counters,
            staged: Vec::new(),
        })
    }

    /// Writes the key-check sentinel at `base`, the first sequence number
    /// of a file created empty, without an fsync: a segment's sentinel is
    /// made durable by the first fsync of the segment.
    pub(crate) fn start_at(&mut self, base: u64) -> Result<(), EngineError> {
        debug_assert_eq!(self.end, FILE_HEADER, "the sentinel opens the stream");
        self.write_frame(base, [(OP_KEYCHECK, 0, &KEYCHECK_MAGIC[..])].into_iter())?;
        (self.base, self.next_seq) = (base, base + 1);
        self.point.wrote_through(base, 0);
        Ok(())
    }

    /// The sequence number of the file's sentinel.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes the frame stream occupies once everything appended so far
    /// is sealed — a frame boundary only at a group boundary (right after
    /// a commit, flush or `append_group`). The stream starts after the
    /// file's header.
    pub fn len_bytes(&self) -> u64 {
        self.end - FILE_HEADER
    }

    /// Whether an earlier append-path or fsync failure fail-stopped this
    /// handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned || self.point.failed()
    }

    /// The log's durability point, for a caller that must make the log
    /// durable without holding the WAL lock (a checkpoint's page flush).
    pub(crate) fn sync_point(&self) -> Arc<SyncPoint> {
        Arc::clone(&self.point)
    }

    /// No-op. Batch sealing is the only framing now; this shim exists
    /// solely because the frozen benchmark (`sks_bench/src/layers.rs`)
    /// still calls it. The next `benchmark` PR removes that call and then
    /// this method.
    #[doc(hidden)]
    pub fn set_seal_batch(&mut self, _on: bool) {}

    pub fn append_insert(&mut self, key: u64, value: &[u8]) -> Result<u64, EngineError> {
        self.append(OP_INSERT, key, value)
    }

    pub fn append_delete(&mut self, key: u64) -> Result<u64, EngineError> {
        self.append(OP_DELETE, key, &[])
    }

    /// Appends `ops` — `(key, Some(value))` inserts or overwrites,
    /// `(key, None)` deletes, the values borrowed from wherever the caller
    /// holds them — as one frame sealed on its own: one sealed body, one
    /// CRC, consecutive seqs, so replay recovers all of it or none of it.
    /// Each record is charged `wal_appends`/`wal_bytes` exactly as if it
    /// were framed alone, so grouping never moves the paper's counters;
    /// the seal is timed as [`Stage::SealBatch`]. Anything staged before is
    /// sealed first so frames stay in seq order. An empty group writes
    /// nothing (the grammar has no empty frame). Returns the first seq of
    /// the frame, which is in the file by then; a [`Wal::commit`] ends the
    /// group.
    pub fn append_group<'a, I>(&mut self, ops: I) -> Result<u64, EngineError>
    where
        I: IntoIterator<Item = (u64, Option<&'a [u8]>)>,
        I::IntoIter: Clone,
    {
        self.check_poison()?;
        self.seal_staged()?;
        let first_seq = self.next_seq;
        let timer = self.counters.obs().start();
        let group = ops.into_iter().map(|(key, value)| match value {
            Some(value) => (OP_INSERT, key, value),
            None => (OP_DELETE, key, &[][..]),
        });
        let mut count = 0;
        for (_, _, value) in group.clone() {
            self.charge(value.len());
            count += 1;
        }
        if count > 0 {
            self.write_frame(first_seq, group)?;
            self.next_seq += count;
            self.counters.obs().stage(Stage::SealBatch, timer);
        }
        Ok(first_seq)
    }

    /// The logical per-record charge: each record costs its own frame,
    /// however the commit groups it.
    fn charge(&self, value_len: usize) {
        self.counters.bump(|c| &c.wal_appends);
        self.counters
            .bump_by(|c| &c.wal_bytes, (HEADER_LEN + BODY_MIN + value_len) as u64);
    }

    /// Stages one record; the seal (and any device I/O) happens at the
    /// group boundary, one CTR pass for the whole group.
    fn append(&mut self, op: u8, key: u64, value: &[u8]) -> Result<u64, EngineError> {
        self.check_poison()?;
        let timer = self.counters.obs().start();
        let seq = self.next_seq;
        self.charge(value.len());
        self.staged.push(StagedOp {
            op,
            key,
            value: value.to_vec(),
        });
        self.next_seq += 1;
        self.counters.obs().stage(Stage::WalAppend, timer);
        Ok(seq)
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce_state = self.nonce_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.nonce_state)
    }

    /// Seals everything staged since the last group boundary into the
    /// stream as one frame — one nonce, one CTR pass, one CRC.
    fn seal_staged(&mut self) -> Result<(), EngineError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let timer = self.counters.obs().start();
        let staged = std::mem::take(&mut self.staged); // wiped when dropped
        let group = staged.iter().map(|s| (s.op, s.key, &s.value[..]));
        self.write_frame(self.next_seq - staged.len() as u64, group)?;
        self.counters.obs().stage(Stage::SealBatch, timer);
        Ok(())
    }

    /// Seals `group` as the frame starting at `first_seq` and writes it
    /// at the end of the stream. The one place a frame of ≥ 2 records is
    /// counted as a sealed batch.
    ///
    /// The frame is streamed: the body is serialised, sealed and folded
    /// into the CRC one piece at a time, straight from the borrowed
    /// values. No frame-sized buffer exists (a bulk load's frame is tens
    /// of megabytes), and appending one allocates nothing. A body that
    /// fits one piece goes out with its header as one write. A longer one
    /// writes each piece as it is sealed, behind a gap the size of the
    /// header, and the header last, once the CRC is known: until then the
    /// log reads zeros where the tag goes, so a frame killed at any write
    /// reads as a clean end of the log.
    fn write_frame<'a>(
        &mut self,
        first_seq: u64,
        group: impl Iterator<Item = Entry<'a>> + Clone,
    ) -> Result<(), EngineError> {
        if group.clone().nth(1).is_some() {
            self.counters.bump(|c| &c.wal_sealed_batches);
        }
        let nonce = self.next_nonce();
        if let Err(e) = self.stream_frame(first_seq, nonce, group) {
            // A half-written frame may sit in the stream; nothing after
            // it could be replayed, so refuse all further use.
            self.poisoned = true;
            return Err(e);
        }
        Ok(())
    }

    fn stream_frame<'a>(
        &mut self,
        first_seq: u64,
        nonce: u64,
        group: impl Iterator<Item = Entry<'a>> + Clone,
    ) -> Result<(), EngineError> {
        let (mut count, mut body_len) = (0u32, COUNT_LEN);
        for (_, _, value) in group.clone() {
            count += 1;
            body_len += ENTRY_HEADER + value.len();
        }
        debug_assert!(count > 0, "the grammar has no empty frame");
        let frame_end = self.end + (HEADER_LEN + body_len) as u64;
        self.reserve(frame_end)?;
        let header = frame_header(first_seq, nonce, body_len);
        let mut body = BodyPiece::new(std::mem::take(&mut self.piece), &header, nonce, self.end);
        self.put_body(&mut body, &count.to_be_bytes())?;
        for (op, key, value) in group {
            let mut entry = [0u8; ENTRY_HEADER];
            entry[0] = op;
            entry[1..9].copy_from_slice(&key.to_be_bytes());
            entry[9..].copy_from_slice(&(value.len() as u32).to_be_bytes());
            self.put_body(&mut body, &entry)?;
            self.put_body(&mut body, value)?;
        }
        let one_piece = body.sealed == 0;
        self.seal_body_piece(&mut body);
        debug_assert_eq!(body.sealed, body_len);
        let crc = !body.crc;
        body.buf[1..5].copy_from_slice(&crc.to_be_bytes());
        if one_piece {
            self.disk.write_at(&body.buf, body.start)?;
        } else {
            self.write_piece(&body)?;
            self.disk.write_at(&body.buf[..HEADER_LEN], body.start)?;
        }
        self.piece = body.into_buf();
        self.end = frame_end;
        Ok(())
    }

    /// Grows the file to cover `end`, a whole [`GROW_STEP`] at a time,
    /// so most frames are written without changing the file's length.
    fn reserve(&mut self, end: u64) -> Result<(), EngineError> {
        if end > self.file_len {
            let len = end.next_multiple_of(GROW_STEP);
            self.disk.set_len(len)?;
            self.file_len = len;
        }
        Ok(())
    }

    /// Serialises `bytes` into the body piece. A full piece is sealed and
    /// written only once more bytes arrive, so the last piece stays in
    /// the buffer for the frame's end to write (with the header, when it
    /// is the only one).
    fn put_body(&mut self, body: &mut BodyPiece, mut bytes: &[u8]) -> Result<(), EngineError> {
        while !bytes.is_empty() {
            if body.buf.len() == HEADER_LEN + self.piece_len {
                self.seal_body_piece(body);
                self.write_piece(body)?;
                body.buf.truncate(HEADER_LEN);
            }
            let n = (HEADER_LEN + self.piece_len - body.buf.len()).min(bytes.len());
            body.buf.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
        Ok(())
    }

    /// Seals the piece in place at its keystream offset (the piece size
    /// is a whole number of cipher blocks, so every piece but the last
    /// starts on a counter) and folds it into the CRC.
    fn seal_body_piece(&self, body: &mut BodyPiece) {
        let counter = body.nonce.wrapping_add((body.sealed / 8) as u64);
        let piece = &mut body.buf[HEADER_LEN..];
        ctr_xor_in_place(&self.cipher, counter, piece);
        body.crc = crc32_fold(body.crc, piece);
        body.sealed += piece.len();
    }

    /// Writes the sealed piece where it lies in the frame.
    fn write_piece(&mut self, body: &BodyPiece) -> Result<(), EngineError> {
        let piece = &body.buf[HEADER_LEN..];
        let at = body.start + (HEADER_LEN + body.sealed - piece.len()) as u64;
        Ok(self.disk.write_at(piece, at)?)
    }

    /// Ends the current group: seals and writes anything staged and,
    /// when this commit's [`SyncPolicy`] point demands it, fsyncs — all
    /// before returning, so the group is in the log file once this
    /// returns `Ok`.
    pub fn commit(&mut self) -> Result<(), EngineError> {
        self.commit_with(false).map(drop)
    }

    /// [`Wal::commit`] for a group that must be durable before it is
    /// acknowledged, without making the caller fsync under its locks:
    /// when the policy's own fsync did not already cover the frame, the
    /// returned ticket's [`SyncTicket::wait`] does, sharing one fsync
    /// with every other frame written by the time it starts. An error
    /// from the wait fail-stops the log, and the frame's outcome is left
    /// to the next replay.
    pub fn commit_durable(&mut self) -> Result<Option<SyncTicket>, EngineError> {
        self.commit_with(true)
    }

    /// The one commit sequence: seal and write anything staged, then
    /// fsync under the caller's locks when the policy demands it. Given
    /// `durable`, a frame the policy left unsynced comes back with a
    /// ticket instead: the engine's multi-partition commits apply, drop
    /// their partition locks and only then wait, so an acknowledged
    /// transaction is durable under every policy while the fsync stalls
    /// no other client. Waiting after the apply is safe because no page
    /// reaches its store before the log is durable through every commit
    /// it holds (see `SksDb::checkpoint`). `SyncPolicy::Always` still
    /// fsyncs here, before the caller applies anything.
    pub(crate) fn commit_with(&mut self, durable: bool) -> Result<Option<SyncTicket>, EngineError> {
        self.check_poison()?;
        let (seq, unsynced) = self.write_out(1)?;
        if self
            .policy
            .should_sync(unsynced.try_into().unwrap_or(u32::MAX))
        {
            self.force_sync()?;
            self.counters
                .obs()
                .note(EventKind::GroupCommit, NO_PARTITION, unsynced, 0, 0);
            return Ok(None);
        }
        Ok(durable.then(|| SyncTicket {
            point: Arc::clone(&self.point),
            seq,
        }))
    }

    /// Unconditional seal + write-out + fsync (checkpoint/shutdown path).
    pub fn flush(&mut self) -> Result<(), EngineError> {
        self.check_poison()?;
        self.write_out(0)?;
        self.force_sync()
    }

    fn check_poison(&self) -> Result<(), EngineError> {
        if self.is_poisoned() {
            return Err(EngineError::WalPoisoned);
        }
        Ok(())
    }

    /// Seals and writes anything staged, so every frame appended so far
    /// is in the file, and tells the sync point so (counting `commits`
    /// more commits). Returns the last seq written and how many written
    /// commits are still unsynced.
    fn write_out(&mut self, commits: u64) -> Result<(u64, u64), EngineError> {
        self.seal_staged()?;
        let seq = self.next_seq - 1;
        Ok((seq, self.point.wrote_through(seq, commits)))
    }

    /// Makes everything written so far durable through the sync point,
    /// under the WAL lock (a due policy fsync, or a flush).
    fn force_sync(&mut self) -> Result<(), EngineError> {
        let result = self.point.sync_through(self.next_seq - 1);
        self.poisoned |= result.is_err();
        result
    }

    #[cfg(test)]
    fn poison_for_test(&mut self) {
        self.poisoned = true;
    }
}

/// A log file read by [`Wal::scan`], not yet written to.
#[derive(Debug)]
pub(crate) struct Scan {
    disk: Device,
    cipher: Speck64,
    piece_len: usize,
    /// File offset just past the last valid frame.
    end: u64,
    /// The sentinel's sequence number; `None` when the file holds no
    /// sentinel (its creation was cut short).
    pub(crate) base: Option<u64>,
    /// The sequence number the next frame would take.
    pub(crate) next_seq: u64,
    pub(crate) replay: WalReplay,
}

/// Reads a log file's header and returns its piece length, refusing —
/// before anything is written — a file in any other container.
fn read_file_header(disk: &dyn WalDevice) -> Result<usize, EngineError> {
    let mut header = [0u8; FILE_HEADER as usize];
    disk.read_at(&mut header, 0)?;
    let piece_len = u32::from_be_bytes(header[8..].try_into().expect("fixed width")) as usize;
    if &header[..8] != LOG_MAGIC
        || !PIECE_RANGE.contains(&piece_len)
        || !piece_len.is_multiple_of(8)
    {
        return Err(container_mismatch());
    }
    Ok(piece_len)
}

fn container_mismatch() -> EngineError {
    EngineError::Config(
        "wal container mismatch: the file does not start with this build's log header".into(),
    )
}

/// Streaming reader over the frame grammar ([`Wal::scan`]): reads the
/// file a chunk at a time into a sliding window and yields one frame's
/// records at a time.
struct FrameReader<'a> {
    disk: &'a dyn WalDevice,
    cipher: &'a Speck64,
    /// Bytes per read.
    chunk: usize,
    /// File offset of the next read, and the file's length.
    next: u64,
    len: u64,
    /// Unparsed window of the stream; `buf[start..]` is still to parse
    /// and `buf[0]` sits at file offset `window`.
    buf: Vec<u8>,
    start: usize,
    window: u64,
    /// File offset just past the last non-zero byte read so far.
    real_end: u64,
    /// The sentinel's sequence number, once it has been read.
    base: Option<u64>,
    /// Sequence number the next frame must start at.
    expected_seq: u64,
}

impl<'a> FrameReader<'a> {
    /// A reader at the start of the frame stream.
    fn new(
        disk: &'a dyn WalDevice,
        cipher: &'a Speck64,
        chunk: usize,
    ) -> Result<Self, EngineError> {
        Ok(FrameReader {
            len: disk.file_len()?,
            disk,
            cipher,
            chunk,
            next: FILE_HEADER,
            buf: Vec::new(),
            start: 0,
            window: FILE_HEADER,
            real_end: 0,
            base: None,
            expected_seq: 1,
        })
    }

    /// File offset of the parse cursor: the end of the last frame
    /// accepted.
    fn pos(&self) -> u64 {
        self.window + self.start as u64
    }

    /// Appends the next chunk of the file to the window; `false` at the
    /// file's end.
    fn read_chunk(&mut self) -> Result<bool, EngineError> {
        let n = self.len.saturating_sub(self.next).min(self.chunk as u64) as usize;
        if n == 0 {
            return Ok(false);
        }
        let old = self.buf.len();
        self.buf.resize(old + n, 0);
        self.disk.read_at(&mut self.buf[old..], self.next)?;
        if let Some(i) = self.buf[old..].iter().rposition(|&x| x != 0) {
            self.real_end = self.next + i as u64 + 1;
        }
        self.next += n as u64;
        Ok(true)
    }

    /// Reads the rest of the file and returns the offset just past its
    /// last non-zero byte (replay's torn-tail measure).
    fn real_end(mut self) -> Result<u64, EngineError> {
        loop {
            self.buf.clear();
            if !self.read_chunk()? {
                return Ok(self.real_end);
            }
        }
    }

    /// The next frame's records, or `None` at the end of the valid
    /// stream: a clean end (zero padding, end of device) or any
    /// violation — bad tag, bad CRC, sequence gap, truncated frame, or a
    /// sealed body that breaks the group grammar; the caller tells them
    /// apart by what lies past [`FrameReader::pos`]. The key-check
    /// sentinel is verified and skipped here, its sequence number taken as
    /// the file's base whatever it is, failing with a configuration error
    /// when a CRC-valid first frame is anything else — the wrong key, or a
    /// log in another format. This is the only function that parses the
    /// frame grammar.
    fn next_frame(&mut self) -> Result<Option<Vec<WalRecord>>, EngineError> {
        loop {
            let avail = &self.buf[self.start..];
            if avail.first().is_some_and(|&tag| tag != TAG) {
                return Ok(None);
            }
            // How many bytes the frame at the cursor needs in the window.
            let mut need = HEADER_LEN;
            if avail.len() >= HEADER_LEN {
                let seq = u64::from_be_bytes(avail[5..13].try_into().expect("fixed width"));
                let blen = u32::from_be_bytes(avail[21..25].try_into().expect("fixed width"));
                let placed = self.base.is_none() || seq == self.expected_seq;
                if (blen as usize) < COUNT_LEN + ENTRY_HEADER || !placed {
                    return Ok(None);
                }
                need += blen as usize;
            }
            if avail.len() < need {
                // Read on, compacting the window first so long logs
                // don't accumulate.
                if self.start > 4 * self.chunk {
                    self.buf.drain(..self.start);
                    self.window += self.start as u64;
                    self.start = 0;
                }
                if !self.read_chunk()? {
                    return Ok(None);
                }
                continue;
            }
            let crc = u32::from_be_bytes(avail[1..5].try_into().expect("fixed width"));
            if crc32(&avail[5..need]) != crc {
                return Ok(None);
            }
            let nonce = u64::from_be_bytes(avail[13..21].try_into().expect("fixed width"));
            let entries = decode_group(&ctr_xor(self.cipher, nonce, &avail[HEADER_LEN..need]));
            if self.base.is_none() {
                // Refuse before anything destructive can happen.
                let seq = u64::from_be_bytes(avail[5..13].try_into().expect("fixed width"));
                let sentinel = matches!(entries.as_deref(), Some([(OP_KEYCHECK, _, magic)])
                    if magic[..] == KEYCHECK_MAGIC[..]);
                if !sentinel || seq == 0 || seq == u64::MAX {
                    return Err(EngineError::Config(
                        "wal key mismatch: the log's key-check sentinel does not unseal under \
                         this tree/data key configuration and frame format"
                            .into(),
                    ));
                }
                self.start += need;
                (self.base, self.expected_seq) = (Some(seq), seq + 1);
                continue;
            }
            let Some(entries) = entries else {
                return Ok(None); // damaged body under a valid CRC: torn
            };
            let mut records = Vec::with_capacity(entries.len());
            for (op, key, value) in entries {
                let op = match op {
                    OP_INSERT => WalOp::Insert { key, value },
                    OP_DELETE => WalOp::Delete { key },
                    _ => return Ok(None), // unknown op: torn, like a bad body
                };
                records.push(WalRecord {
                    seq: self.expected_seq + records.len() as u64,
                    op,
                });
            }
            self.start += need;
            self.expected_seq += records.len() as u64;
            return Ok(Some(records));
        }
    }
}

/// The frame being written: its header, then the piece of its body being
/// serialised (plaintext) until it is sealed in place. Wiped when dropped,
/// so a write that fails mid-piece leaves no plaintext behind.
struct BodyPiece {
    /// `header ‖ piece`; the header's CRC is filled in at the end.
    buf: Vec<u8>,
    nonce: u64,
    /// File offset of the frame.
    start: u64,
    /// Body bytes sealed so far: the keystream offset of the piece.
    sealed: usize,
    /// CRC register over the frame so far.
    crc: u32,
}

impl BodyPiece {
    fn new(mut buf: Vec<u8>, header: &[u8; HEADER_LEN], nonce: u64, start: u64) -> Self {
        debug_assert!(buf.is_empty());
        buf.extend_from_slice(header);
        BodyPiece {
            buf,
            nonce,
            start,
            sealed: 0,
            crc: crc32_fold(CRC32_INIT, &header[5..]),
        }
    }

    /// The buffer back, once every piece is sealed (it holds ciphertext
    /// only).
    fn into_buf(mut self) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf
    }
}

impl Drop for BodyPiece {
    fn drop(&mut self) {
        wipe::bytes(&mut self.buf);
    }
}

/// A frame's header, CRC still blank: `tag ‖ crc ‖ first_seq ‖ nonce ‖
/// blen`.
fn frame_header(first_seq: u64, nonce: u64, body_len: usize) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0] = TAG;
    header[5..13].copy_from_slice(&first_seq.to_be_bytes());
    header[13..21].copy_from_slice(&nonce.to_be_bytes());
    header[21..25].copy_from_slice(&(body_len as u32).to_be_bytes());
    header
}

/// Decodes a decrypted group body into `(op, key, value)` entries;
/// `None` on any grammar violation (the caller treats it as a torn
/// tail, exactly like a frame-level violation).
fn decode_group(body: &[u8]) -> Option<Vec<(u8, u64, Vec<u8>)>> {
    let count = u32::from_be_bytes(body.get(..COUNT_LEN)?.try_into().expect("fixed width"));
    // The count word is corruption-controlled (a CRC-colliding body gets
    // this far), so it must never size an allocation on its own: a body of
    // `len` bytes can hold at most `len / ENTRY_HEADER` entries.
    if count == 0 || count as usize > body.len() / ENTRY_HEADER {
        return None;
    }
    let mut rest = &body[COUNT_LEN..];
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let header = rest.get(..ENTRY_HEADER)?;
        let key = u64::from_be_bytes(header[1..9].try_into().expect("fixed width"));
        let vlen = u32::from_be_bytes(header[9..13].try_into().expect("fixed width")) as usize;
        let value = rest.get(ENTRY_HEADER..ENTRY_HEADER.checked_add(vlen)?)?;
        out.push((header[0], key, value.to_vec()));
        rest = &rest[ENTRY_HEADER + vlen..];
    }
    // Trailing bytes inside a CRC-valid frame: torn.
    rest.is_empty().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sks_storage::{FailMode, FailStore, StorageError};

    const KEY: u128 = 0x00AA_BB11_22CC_DD33_44EE_FF55_6677_8899;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sks_wal_{}_{}", std::process::id(), name));
        p
    }

    fn create(path: &std::path::Path, block_size: usize) -> Wal {
        Wal::create(path, block_size, KEY, SyncPolicy::Always, OpCounters::new()).unwrap()
    }

    fn reopen(path: &std::path::Path) -> (Wal, WalReplay) {
        Wal::open(path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap()
    }

    fn ins(key: u64, value: &[u8]) -> WalOp {
        WalOp::Insert {
            key,
            value: value.to_vec(),
        }
    }

    /// `op` as [`Wal::append_group`] takes it.
    fn entry(op: &WalOp) -> (u64, Option<&[u8]>) {
        match op {
            WalOp::Insert { key, value } => (*key, Some(value)),
            WalOp::Delete { key } => (*key, None),
        }
    }

    /// A segment on `disk` started at `base` (see [`Wal::start_at`]).
    fn segment(disk: impl WalDevice + Send + 'static, base: u64, policy: SyncPolicy) -> Wal {
        let mut wal =
            Wal::create_segment(Box::new(disk), 64, KEY, policy, OpCounters::new()).unwrap();
        wal.start_at(base).unwrap();
        wal
    }

    /// The frame builder the streamed writer replaced, kept as its
    /// oracle: the whole frame in one buffer, sealed in one pass, one CRC
    /// over all of it.
    fn whole_frame(cipher: &Speck64, first_seq: u64, nonce: u64, body: &[u8]) -> Vec<u8> {
        let mut frame = frame_header(first_seq, nonce, body.len()).to_vec();
        frame.extend_from_slice(body);
        ctr_xor_in_place(cipher, nonce, &mut frame[HEADER_LEN..]);
        let crc = crc32(&frame[5..]);
        frame[1..5].copy_from_slice(&crc.to_be_bytes());
        frame
    }

    /// A group's plaintext body: `count ‖ (op ‖ key ‖ vlen ‖ value)*`.
    fn group_body(group: &[(u8, u64, Vec<u8>)]) -> Vec<u8> {
        let mut body = (group.len() as u32).to_be_bytes().to_vec();
        for (op, key, value) in group {
            body.push(*op);
            body.extend_from_slice(&key.to_be_bytes());
            body.extend_from_slice(&(value.len() as u32).to_be_bytes());
            body.extend_from_slice(value);
        }
        body
    }

    #[test]
    fn streamed_frames_are_byte_identical_to_the_whole_frame_builder() {
        let cipher = Speck64::from_u128(KEY);
        let insert = |key: u64, len: usize| (OP_INSERT, key, vec![key as u8 ^ 0x5A; len]);
        for block_size in [64usize, 128, 4096] {
            // Singleton padding frames move the offset each group starts
            // at; the group bodies fit one piece, fill one exactly, cross
            // into a second, or span many.
            for pad in [0usize, 1, 7, 20, 39, 60] {
                let path = tmpfile(&format!("stream_identity_{block_size}_{pad}"));
                let mut wal = create(&path, block_size);
                let mut frames = vec![(1, vec![(OP_KEYCHECK, 0, KEYCHECK_MAGIC.to_vec())])];
                let shapes: [Vec<(u8, u64, Vec<u8>)>; 5] = [
                    vec![insert(1, 3)],
                    vec![insert(2, 10), (OP_DELETE, 3, Vec::new())],
                    vec![insert(4, block_size / 2), insert(5, block_size / 2)],
                    vec![insert(7, block_size - COUNT_LEN - ENTRY_HEADER)],
                    (6..16)
                        .map(|k| insert(k, 3 * block_size + k as usize))
                        .collect(),
                ];
                for group in shapes {
                    let first = wal
                        .append_group([(99, Some(&vec![0xEE; pad][..]))])
                        .unwrap();
                    frames.push((first, vec![(OP_INSERT, 99, vec![0xEE; pad])]));
                    let ops = group
                        .iter()
                        .map(|(op, key, value)| (*key, (*op == OP_INSERT).then_some(&value[..])));
                    let first = wal.append_group(ops).unwrap();
                    wal.commit().unwrap();
                    frames.push((first, group));
                }
                let end = wal.len_bytes() as usize;
                drop(wal);
                let raw = std::fs::read(&path).unwrap();
                let stream = &raw[FILE_HEADER as usize..];
                let mut at = 0;
                for (first_seq, group) in &frames {
                    let nonce = u64::from_be_bytes(stream[at + 13..at + 21].try_into().unwrap());
                    let want = whole_frame(&cipher, *first_seq, nonce, &group_body(group));
                    assert_eq!(
                        &stream[at..at + want.len()],
                        &want[..],
                        "block {block_size}, pad {pad}, frame at seq {first_seq}"
                    );
                    at += want.len();
                }
                assert_eq!(at, end);
                assert!(
                    stream[end..].iter().all(|&b| b == 0),
                    "the file grown ahead of the log reads zeros"
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn a_frame_killed_at_any_write_leaves_its_tag_unwritten() {
        // A frame of eleven 64-byte body pieces: each is written behind a
        // gap the size of the header, and the header last, so a kill at
        // any of the frame's writes leaves zeros where the tag goes, and
        // replay ends the log cleanly before the frame.
        let values: Vec<Vec<u8>> = (0..6).map(|k| vec![k as u8 + 1; 100]).collect();
        // Logs one record, then the frame, killing its `kill`th write.
        let run = |kill: Option<u64>| {
            let path = tmpfile(&format!("kill_frame_{kill:?}"));
            let (disk, plan) = FailStore::new(LogFile::create(&path, OpCounters::new()).unwrap());
            let mut wal =
                Wal::create_on_device(disk, 64, KEY, SyncPolicy::Never, OpCounters::new()).unwrap();
            wal.append_group([(1, Some(&b"before"[..]))]).unwrap();
            wal.commit().unwrap();
            let start = wal.len_bytes() as usize;
            // Counted from here; `None` arms a write that never comes.
            plan.arm_nth_write(kill.unwrap_or(u64::MAX), FailMode::Error);
            let group = values
                .iter()
                .enumerate()
                .map(|(k, v)| (k as u64 + 10, Some(&v[..])));
            let outcome = wal.append_group(group).and_then(|_| wal.commit());
            assert_eq!(outcome.is_err(), kill.is_some());
            let writes = plan.writes_seen();
            drop(wal);
            let tag = std::fs::read(&path).unwrap()[FILE_HEADER as usize + start];
            let (_wal, replay) = reopen(&path);
            std::fs::remove_file(&path).ok();
            (writes, tag, replay.records.len())
        };
        let (writes, tag, records) = run(None);
        assert_eq!(writes, 12, "eleven pieces, then the header");
        assert_eq!((tag, records), (TAG, 7));
        for nth in 1..=writes {
            let (_, tag, records) = run(Some(nth));
            assert_eq!((tag, records), (0, 1), "kill at write {nth} of {writes}");
        }
    }

    /// One I/O a [`Recording`] device saw.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Io {
        /// `(offset, len)`.
        Write(u64, u64),
        SetLen(u64),
    }

    /// A log device that records every write and length change made
    /// through it before passing it on.
    #[derive(Debug)]
    struct Recording<D> {
        inner: D,
        seen: Arc<Mutex<Vec<Io>>>,
    }

    impl<D> Recording<D> {
        fn new(inner: D) -> (Self, Arc<Mutex<Vec<Io>>>) {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let seen2 = Arc::clone(&seen);
            (Recording { inner, seen }, seen2)
        }
    }

    impl<D: WalDevice> WalDevice for Recording<D> {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<(), StorageError> {
            self.inner.read_at(buf, offset)
        }

        fn write_at(&mut self, data: &[u8], offset: u64) -> Result<(), StorageError> {
            let io = Io::Write(offset, data.len() as u64);
            self.seen.lock().unwrap().push(io);
            self.inner.write_at(data, offset)
        }

        fn file_len(&self) -> Result<u64, StorageError> {
            self.inner.file_len()
        }

        fn set_len(&mut self, len: u64) -> Result<(), StorageError> {
            self.seen.lock().unwrap().push(Io::SetLen(len));
            self.inner.set_len(len)
        }

        fn sync_handle(&self) -> Result<SyncHandle, StorageError> {
            self.inner.sync_handle()
        }
    }

    fn taken(seen: &Arc<Mutex<Vec<Io>>>) -> Vec<Io> {
        std::mem::take(&mut *seen.lock().unwrap())
    }

    /// Asserts that no write touches a byte an earlier write of the same
    /// file put down. `handles` holds the I/O of each handle the file was
    /// opened through, in order; the one rewind allowed is a `set_len`
    /// below what was written as a later handle's first I/O — an open
    /// cutting a torn tail — after which the cut bytes may be written
    /// again.
    fn assert_written_once(handles: &[Vec<Io>]) {
        let mut written = std::collections::BTreeMap::<u64, u64>::new();
        for (h, ios) in handles.iter().enumerate() {
            for (i, &io) in ios.iter().enumerate() {
                match io {
                    Io::Write(at, len) => {
                        let end = at + len;
                        if let Some((&s, &e)) = written.range(..end).next_back() {
                            assert!(
                                e <= at,
                                "handle {h}, I/O {i}: [{at}, {end}) rewrites [{s}, {e})"
                            );
                        }
                        written.insert(at, end);
                    }
                    Io::SetLen(len) => {
                        if written.values().any(|&e| e > len) {
                            assert!(h > 0 && i == 0, "handle {h}, I/O {i}: cut to {len}");
                            written.retain(|&s, _| s < len);
                            written.values_mut().for_each(|e| *e = (*e).min(len));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_log_byte_is_written_once() {
        let value = |k: u64, len: usize| vec![k as u8 | 1; len];
        for policy in [SyncPolicy::Always, SyncPolicy::EveryN(3), SyncPolicy::Never] {
            let (path, cut_path) = (tmpfile("once_a"), tmpfile("once_b"));
            // The first log: singleton commits, staged commits, durable
            // commits and frames of several 64-byte pieces.
            let file = LogFile::create(&path, OpCounters::new()).unwrap();
            let (dev, seen) = Recording::new(file);
            let mut wal = Wal::create_on_device(dev, 64, KEY, policy, OpCounters::new()).unwrap();
            let commit = |wal: &mut Wal, k: u64, len: usize| {
                wal.append_group([(k, Some(&value(k, len)[..]))]).unwrap();
                if let Some(ticket) = wal.commit_durable().unwrap() {
                    ticket.wait().unwrap();
                }
            };
            for k in 0..10 {
                commit(&mut wal, k, 3 * k as usize + 1);
            }
            for k in 10..13 {
                wal.append_insert(k, &value(k, 20)).unwrap();
            }
            wal.commit().unwrap();
            commit(&mut wal, 13, 300);
            let long: Vec<Vec<u8>> = (0..4).map(|k| value(k, 100)).collect();
            wal.append_group(
                long.iter()
                    .enumerate()
                    .map(|(k, v)| (20 + k as u64, Some(&v[..]))),
            )
            .unwrap();
            wal.commit().unwrap();
            wal.append_insert(30, b"staged at the switch").unwrap();

            // A segment switch: the retiring log writes only what was
            // staged, and the next segment is written once too.
            wal.flush().unwrap();
            let (file, plan) =
                FailStore::new(LogFile::create(&cut_path, OpCounters::new()).unwrap());
            let (dev, cut_seen) = Recording::new(file);
            let mut fresh = segment(dev, wal.next_seq(), policy);
            drop(wal);
            assert_written_once(&[taken(&seen)]);

            // The segment takes commits, then a frame torn at its second
            // piece; the reopen cuts the tail and appends again.
            for k in 40..45 {
                commit(&mut fresh, k, 40);
            }
            let end = fresh.len_bytes();
            plan.arm_nth_write(2, FailMode::Torn);
            assert!(fresh
                .append_group([(50, Some(&value(50, 500)[..]))])
                .is_err());
            drop(fresh);
            let (dev, reopen_seen) =
                Recording::new(LogFile::open(&cut_path, OpCounters::new()).unwrap());
            let (mut wal, replay) =
                Wal::open_on_device(dev, KEY, policy, OpCounters::new()).unwrap();
            assert!(replay.torn_tail);
            assert_eq!(wal.len_bytes(), end);
            for k in 60..70 {
                commit(&mut wal, k, 200);
            }
            drop(wal);
            let reopened = taken(&reopen_seen);
            assert_eq!(
                reopened[0],
                Io::SetLen(FILE_HEADER + end),
                "the open cuts first"
            );
            assert_written_once(&[taken(&cut_seen), reopened]);
            let (_, replay) = reopen(&cut_path);
            assert_eq!(replay.records.len(), 15);
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(&cut_path).ok();
        }
    }

    #[test]
    fn a_commit_writes_its_frame_once_and_the_file_grows_in_steps() {
        let path = tmpfile("bytes_and_growth");
        let (dev, seen) = Recording::new(LogFile::create(&path, OpCounters::new()).unwrap());
        let mut wal =
            Wal::create_on_device(dev, 4096, KEY, SyncPolicy::Never, OpCounters::new()).unwrap();
        taken(&seen);

        // A two-value transaction: exactly its frame's bytes, one write.
        let start = FILE_HEADER + wal.len_bytes();
        wal.append_group([(1, Some(&[7u8; 100][..])), (2, Some(&[8u8; 100][..]))])
            .unwrap();
        wal.commit().unwrap();
        let frame = (HEADER_LEN + COUNT_LEN + 2 * (ENTRY_HEADER + 100)) as u64;
        assert_eq!(taken(&seen), [Io::Write(start, frame)]);

        // Ten thousand small commits: one write each, and the file's
        // length changes at most once per GROW_STEP of frames.
        let start = wal.len_bytes();
        let mut len = std::fs::metadata(&path).unwrap().len();
        let (mut writes, mut set_lens) = (0, 0);
        for k in 0..10_000u64 {
            wal.append_group([(k, Some(&[k as u8; 200][..]))]).unwrap();
            wal.commit().unwrap();
            for io in taken(&seen) {
                match io {
                    Io::Write(at, n) => {
                        writes += 1;
                        assert!(at + n <= len, "commit {k} wrote past the file's length");
                    }
                    Io::SetLen(new) => {
                        set_lens += 1;
                        assert!(new > len && new.is_multiple_of(GROW_STEP), "grown to {new}");
                        len = new;
                    }
                }
            }
        }
        let framed = wal.len_bytes() - start;
        assert!(framed > 2 * GROW_STEP, "the commits span several steps");
        assert_eq!(writes, 10_000);
        assert!(
            set_lens <= framed / GROW_STEP + 1,
            "{set_lens} length changes"
        );
        drop(wal);
        let (_, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 10_002);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_commit_replay_roundtrip() {
        let path = tmpfile("roundtrip");
        {
            let mut wal = create(&path, 128);
            for k in 0..40u64 {
                wal.append_insert(k, format!("value-{k}").as_bytes())
                    .unwrap();
                wal.commit().unwrap();
            }
            wal.append_delete(7).unwrap();
            wal.commit().unwrap();
        }
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 41);
        assert_eq!(replay.records[0].seq, 2, "seq 1 is the key-check sentinel");
        assert_eq!(
            replay.records[40].op,
            WalOp::Delete { key: 7 },
            "last record is the delete"
        );
        assert_eq!(replay.records[12].op, ins(12, b"value-12"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_straddle_blocks() {
        let path = tmpfile("straddle");
        {
            let mut wal = create(&path, 64);
            // 100-byte values force every frame body across pieces.
            for k in 0..10u64 {
                wal.append_insert(k, &[k as u8; 100]).unwrap();
                wal.commit().unwrap();
            }
        }
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 10);
        for (k, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.op, ins(k as u64, &[k as u8; 100]));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_continue_after_reopen() {
        let path = tmpfile("continue");
        {
            let mut wal = create(&path, 128);
            wal.append_insert(1, b"one").unwrap();
            wal.commit().unwrap();
        }
        {
            let (mut wal, replay) = reopen(&path);
            assert_eq!(replay.records.len(), 1);
            assert_eq!(wal.next_seq(), 3, "sentinel + one record consumed 1..=2");
            wal.append_insert(2, b"two").unwrap();
            wal.commit().unwrap();
        }
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].seq, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn log_bytes_never_leak_keys_or_values() {
        let path = tmpfile("sealed");
        // Distinctive key values whose big-endian bytes cannot collide
        // with the plaintext seq field or block padding.
        let secret_key = |k: u64| 0xDEAD_BEEF_0000_0000u64 | (k * 3 + 1);
        {
            let mut wal = create(&path, 256);
            for k in 0..32u64 {
                wal.append_insert(secret_key(k), b"EXTREMELY-SECRET-PAYLOAD")
                    .unwrap();
                wal.commit().unwrap();
            }
        }
        let raw = std::fs::read(&path).unwrap();
        assert!(
            !raw.windows(16).any(|w| w == &b"EXTREMELY-SECRET"[..]),
            "record values must be sealed on the medium"
        );
        for k in 0..32u64 {
            let needle = secret_key(k).to_be_bytes();
            let hits = raw.windows(8).filter(|w| *w == needle).count();
            assert_eq!(hits, 0, "plaintext key {k} visible in the log");
        }
        // But replay under the right key recovers everything.
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 32);
        assert_eq!(
            replay.records[5].op,
            ins(secret_key(5), b"EXTREMELY-SECRET-PAYLOAD")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn same_payload_twice_yields_distinct_cryptograms() {
        // Per-frame nonces, and one keystream per frame: identical
        // plaintext must never produce identical sealed bytes, whether it
        // repeats across frames or inside one group (checkpoint rewrites
        // depend on this).
        let path = tmpfile("nonce_fresh");
        {
            let mut wal = create(&path, 256);
            wal.append_insert(42, b"SAME-PAYLOAD-SAME-KEY").unwrap();
            wal.commit().unwrap();
            wal.append_insert(42, b"SAME-PAYLOAD-SAME-KEY").unwrap();
            wal.append_insert(42, b"SAME-PAYLOAD-SAME-KEY").unwrap();
            wal.commit().unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        // Find the sealed records: scan for any repeated window of one
        // record's `op ‖ key ‖ vlen ‖ value` length outside the zero
        // padding.
        let entry_len = ENTRY_HEADER + b"SAME-PAYLOAD-SAME-KEY".len();
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        for w in raw.windows(entry_len) {
            if w.iter().any(|&b| b != 0) && !seen.insert(w.to_vec()) {
                repeats += 1;
            }
        }
        assert_eq!(
            repeats, 0,
            "identical plaintexts produced repeated sealed bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_key_fails_closed_without_destroying_the_log() {
        let path = tmpfile("wrong_key");
        {
            let mut wal = create(&path, 128);
            for k in 0..8u64 {
                wal.append_insert(k, b"v").unwrap();
                wal.commit().unwrap();
            }
        }
        let err = Wal::open(&path, KEY ^ 1, SyncPolicy::Always, OpCounters::new())
            .map(|_| ())
            .expect_err("wrong key must be rejected");
        assert!(format!("{err}").contains("key mismatch"), "got: {err}");
        // The failed open must not have damaged anything: the right key
        // still recovers every record.
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncated_file_recovers_whole_group_prefix() {
        // 20 records as singleton commits, then as group commits of five.
        for (group, chop) in [(1u64, 300), (5, 100)] {
            let path = tmpfile(&format!("torn_truncate_{group}"));
            let end = {
                let mut wal = create(&path, 128);
                for k in 0..20u64 {
                    wal.append_insert(k, &[0xCD; 45]).unwrap();
                    if (k + 1) % group == 0 {
                        wal.commit().unwrap();
                    }
                }
                FILE_HEADER + wal.len_bytes()
            };
            // Chop the file mid-way through the last frames' sealed bodies:
            // a hard truncation of the physical medium, below the log's
            // end (the file is grown past it). The CRC covers the whole
            // group, so a torn group must vanish entirely while every
            // earlier group survives intact.
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(end - chop).unwrap();
            drop(f);

            let (_wal, replay) = reopen(&path);
            let n = replay.records.len() as u64;
            assert!(replay.torn_tail, "truncation must be detected");
            assert!(n > 0 && n < 20, "a strict prefix survives, got {n}");
            assert_eq!(n % group, 0, "recovery is all-or-nothing per group");
            for (k, rec) in replay.records.iter().enumerate() {
                assert_eq!(rec.op, ins(k as u64, &[0xCD; 45]));
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn group_commit_amortises_fsyncs() {
        let path = tmpfile("group_commit");
        let counters = OpCounters::new();
        {
            let mut wal =
                Wal::create(&path, 256, KEY, SyncPolicy::EveryN(8), counters.clone()).unwrap();
            for k in 0..64u64 {
                wal.append_insert(k, b"v").unwrap();
                wal.commit().unwrap();
            }
        }
        let s = counters.snapshot();
        assert_eq!(
            s.wal_appends, 64,
            "the key-check sentinel is not client traffic"
        );
        assert_eq!(
            s.wal_bytes,
            64 * (HEADER_LEN + BODY_MIN + 1) as u64,
            "each record is charged its own frame cost"
        );
        assert_eq!(s.wal_sealed_batches, 0, "a group of one is not a batch");
        assert_eq!(
            s.wal_fsyncs,
            8 + 2,
            "64 commits at EveryN(8) = 8 fsyncs, +2 for the durable header and sentinel"
        );
        // Nothing is lost despite the amortisation (process exit, not
        // power failure).
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn poisoned_wal_fail_stops() {
        let path = tmpfile("poison");
        let mut wal = create(&path, 128);
        wal.append_insert(1, b"ok").unwrap();
        wal.commit().unwrap();
        wal.poison_for_test();
        assert!(wal.is_poisoned());
        assert!(matches!(
            wal.append_insert(2, b"no"),
            Err(EngineError::WalPoisoned)
        ));
        assert!(matches!(wal.commit(), Err(EngineError::WalPoisoned)));
        assert!(matches!(wal.flush(), Err(EngineError::WalPoisoned)));
        // Reopen recovers the committed prefix and a fresh, usable handle.
        drop(wal);
        let (mut wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 1);
        wal.append_insert(2, b"yes").unwrap();
        wal.commit().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_replays_every_record() {
        let path = tmpfile("batch_roundtrip");
        let counters = OpCounters::new();
        {
            let mut wal =
                Wal::create(&path, 256, KEY, SyncPolicy::Always, counters.clone()).unwrap();
            // Two group commits of five records, one of three.
            for batch in 0..3u64 {
                let n = if batch < 2 { 5 } else { 3 };
                for i in 0..n {
                    let k = batch * 10 + i;
                    wal.append_insert(k, format!("b{batch}-{i}").as_bytes())
                        .unwrap();
                }
                wal.commit().unwrap();
            }
        }
        let s = counters.snapshot();
        assert_eq!(s.wal_appends, 13, "every record charged individually");
        assert_eq!(s.wal_sealed_batches, 3, "one sealed body per group commit");
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 13);
        // Seqs stay dense across group boundaries (sentinel is seq 1).
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 2);
        }
        assert_eq!(replay.records[7].op, ins(12, b"b1-2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn txn_frame_roundtrip() {
        let path = tmpfile("txn_roundtrip");
        let counters = OpCounters::new();
        let mut wal = Wal::create(&path, 128, KEY, SyncPolicy::Always, counters.clone()).unwrap();
        wal.append_insert(1, b"solo").unwrap();
        wal.commit().unwrap();
        let before = counters.snapshot();
        let ops = [
            ins(10, b"txn-a"),
            WalOp::Delete { key: 1 },
            ins(11, b"txn-b"),
        ];
        // A staged record ahead of the txn is sealed first, as its own
        // frame, so the transaction is a group of exactly its own ops.
        wal.append_insert(2, b"ahead").unwrap();
        let first = wal.append_group(ops.iter().map(entry)).unwrap();
        wal.commit().unwrap();
        let delta = counters.snapshot().delta(&before);
        // Per-record logical charge, as if appended individually.
        assert_eq!(delta.wal_appends, 4);
        assert_eq!(
            delta.wal_bytes,
            4 * (HEADER_LEN + BODY_MIN) as u64
                + (b"ahead".len() + b"txn-a".len() + b"txn-b".len()) as u64
        );
        // The multi-op group is one sealed batch; the staged singleton
        // sealed ahead of it is not.
        assert_eq!(delta.wal_sealed_batches, 1);
        // The frame consumed three consecutive seqs.
        assert_eq!(wal.next_seq(), first + 3);
        drop(wal);

        // Replay recovers every record of the frame, in order.
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records[2].seq, first);
        assert_eq!(replay.records[2].op, ops[0]);
        assert_eq!(replay.records[3].op, ops[1]);
        assert_eq!(replay.records[4].op, ops[2]);
        assert!(!replay.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_borrowed_insert_group_is_the_frame_its_records_staged_would_be() {
        let items: Vec<(u64, Vec<u8>)> = (0..5u64).map(|k| (k, vec![k as u8; 40])).collect();
        // The same five inserts behind one staged record, appended one by
        // one or as one borrowed group: same charge, same stream length,
        // same seqs, same two frames.
        let run = |grouped: bool| {
            let path = tmpfile(if grouped {
                "group_borrowed"
            } else {
                "group_staged"
            });
            let counters = OpCounters::new();
            let mut wal =
                Wal::create(&path, 128, KEY, SyncPolicy::Always, counters.clone()).unwrap();
            wal.append_insert(99, b"ahead").unwrap();
            if grouped {
                assert_eq!(wal.append_group([]).unwrap(), 3, "sealed 'ahead'");
                let group = items.iter().map(|(k, v)| (*k, Some(&v[..])));
                assert_eq!(wal.append_group(group).unwrap(), 3);
            } else {
                wal.commit().unwrap();
                for (k, v) in &items {
                    wal.append_insert(*k, v).unwrap();
                }
            }
            wal.commit().unwrap();
            let (len, next) = (wal.len_bytes(), wal.next_seq());
            drop(wal);
            let shape = (counters.snapshot(), len, next, reopen(&path).1.records);
            std::fs::remove_file(&path).ok();
            shape
        };
        let (staged, borrowed) = (run(false), run(true));
        assert_eq!(staged.0.wal_appends, borrowed.0.wal_appends);
        assert_eq!(staged.0.wal_bytes, borrowed.0.wal_bytes);
        assert_eq!(staged.0.wal_sealed_batches, 1);
        assert_eq!(borrowed.0.wal_sealed_batches, 1);
        assert_eq!((staged.1, staged.2), (borrowed.1, borrowed.2));
        assert_eq!(staged.3, borrowed.3);
        assert_eq!(borrowed.3.len(), 1 + items.len());
    }

    #[test]
    fn a_segment_replays_from_its_base_and_an_unstarted_file_is_told_apart() {
        let (path, seg_path) = (tmpfile("seg_log"), tmpfile("seg_next"));
        let mut wal = create(&path, 64);
        for k in 0..5u64 {
            wal.append_group([(k, Some(&b"first"[..]))]).unwrap();
            wal.commit().unwrap();
        }
        wal.flush().unwrap();
        let base = wal.next_seq();
        assert_eq!((wal.base(), base), (1, 7));
        let file = LogFile::create(&seg_path, OpCounters::new()).unwrap();
        let mut seg = segment(file, base, SyncPolicy::Always);
        seg.append_group([(9, Some(&b"next"[..])), (10, None)])
            .unwrap();
        seg.commit().unwrap();
        drop((wal, seg));

        // A sentinel past seq 1 is the segment's base, not a torn frame.
        let (seg, replay) = reopen(&seg_path);
        assert_eq!((seg.base(), seg.next_seq()), (base, base + 3));
        assert!(!replay.torn_tail);
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [base + 1, base + 2]);
        assert_eq!(replay.records[1].op, WalOp::Delete { key: 10 });
        drop(seg);

        // A file holding only its header has no base, and one shorter than
        // its header is no log at all; a scan writes to neither.
        let header_only = |path: &std::path::Path| {
            let file = LogFile::create(path, OpCounters::new()).unwrap();
            Wal::create_segment(
                Box::new(file),
                64,
                KEY,
                SyncPolicy::Always,
                OpCounters::new(),
            )
            .unwrap()
        };
        drop(header_only(&seg_path));
        let before = std::fs::read(&seg_path).unwrap();
        let open = |path: &std::path::Path| LogFile::open(path, OpCounters::new()).unwrap();
        let scan = Wal::scan(Box::new(open(&seg_path)), KEY).unwrap().unwrap();
        assert_eq!((scan.base, scan.replay.records.len()), (None, 0));
        assert_eq!(std::fs::read(&seg_path).unwrap(), before);
        std::fs::write(&seg_path, &before[..6]).unwrap();
        assert!(Wal::scan(Box::new(open(&seg_path)), KEY).unwrap().is_none());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&seg_path).ok();
    }

    #[test]
    fn torn_txn_frame_replays_all_or_nothing() {
        // Corrupt bytes inside the last committed frame — a txn of two:
        // the whole transaction must vanish on replay, never a prefix of
        // it, while every earlier frame survives.
        let path = tmpfile("txn_torn");
        let mut wal = create(&path, 128);
        for k in 0..7u64 {
            wal.append_insert(k, &[7; 20]).unwrap();
            wal.commit().unwrap();
        }
        wal.append_group([(20, Some(&b"half-a"[..])), (21, Some(&b"half-b"[..]))])
            .unwrap();
        wal.commit().unwrap();
        let logical_len = wal.len_bytes() as usize;
        drop(wal);

        // The stream starts after the file's header, so this lands 10
        // bytes before the logical end — mid-payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[FILE_HEADER as usize + logical_len - 10..][..5].copy_from_slice(&[0xFF; 5]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, replay) = reopen(&path);
        assert!(replay.torn_tail, "the damaged frame is a torn tail");
        assert_eq!(replay.records.len(), 7, "all-or-nothing: none of the txn");
        assert_eq!(replay.records[6].seq, 8);

        // The cut + reopen leaves a log that keeps working.
        wal.append_insert(99, b"after-recovery").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail, "the cut log is clean again");
        assert_eq!(replay.records.len(), 8);
        assert_eq!(replay.records[7].op, ins(99, b"after-recovery"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_valid_batch_count_u32_max_fails_closed() {
        // The count word is corruption-controlled even under a valid frame
        // CRC: decode_group must reject an absurd value before sizing any
        // allocation, instead of reserving count * entry bytes up front.
        let mut raw = vec![0u8; 64];
        raw[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_group(&raw), None);

        // End to end: a frame whose CRC *is* valid over a sealed body
        // claiming u32::MAX entries. Replay must treat it as a torn
        // tail — promptly, with no multi-GB reservation — and leave the
        // log usable for further appends.
        let path = tmpfile("batch_count_max");
        let sentinel_len = create(&path, 512).len_bytes() as usize;

        let cipher = Speck64::from_u128(KEY);
        let nonce = 0xDEAD_BEEF_u64;
        let mut body = vec![0u8; COUNT_LEN + 2 * ENTRY_HEADER];
        body[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        let frame = whole_frame(&cipher, 2, nonce, &body);

        // Splice it in right after the sentinel (the stream starts after
        // the file's header).
        let mut raw = std::fs::read(&path).unwrap();
        raw[FILE_HEADER as usize + sentinel_len..][..frame.len()].copy_from_slice(&frame);
        std::fs::write(&path, &raw).unwrap();

        let (mut wal, replay) =
            Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        assert!(replay.records.is_empty(), "corrupt group is a torn tail");
        assert!(replay.torn_tail, "the damaged frame is cut");
        wal.append_insert(7, b"still-usable").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
