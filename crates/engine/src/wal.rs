//! Write-ahead log layered on an `sks-storage` [`FileDisk`].
//!
//! Logical model: an append-only byte stream of self-checking *frames*,
//! packed across fixed-size blocks of a [`WalDevice`] (frames straddle
//! block boundaries; blocks are used strictly sequentially, the free list
//! is never touched). There is one frame grammar, and only this module
//! knows it:
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
//! atomicity a transaction needs and the reason a checkpoint cut can
//! carry the log tail over by re-sealing it frame for frame.
//!
//! The append surface is one call: [`Wal::append_group`] seals borrowed
//! `(key, Some(value) | None)` ops as one frame, and a [`Wal::commit`]
//! after it writes the frame out. Every engine commit (a single write is a
//! group of one), every `bulk_load` partition group and every frame a
//! checkpoint cut carries over goes through it. The staged
//! [`Wal::append_insert`] / [`Wal::append_delete`] path, which buffers
//! records until the next commit seals them as one group, is kept only
//! because the frozen benchmark's layer timings call it; the engine never
//! stages.
//!
//! The body — operations, search keys and record values — is sealed with
//! an independent stream cipher (Speck64-CTR keyed from the engine's WAL
//! key, fresh random per-frame nonce stored in the clear so no two frames
//! ever share keystream, even across checkpoint rewrites or torn-tail
//! rewrites). The log is the database's only durable representation, so
//! leaving it plaintext would hand the paper's opponent everything the
//! disguised tree withholds; sealing it keeps the §5 discipline that
//! stored key material is never readable off the medium. A group is sealed
//! as its frame is streamed to the device, from the caller's borrowed
//! values: the body is serialised, sealed and folded into the CRC one
//! block-sized piece at a time, and no frame-sized buffer ever exists
//! (a bulk load's frame is tens of megabytes). The blocks holding a
//! frame's tag and CRC are written after the rest of it, so a frame torn
//! anywhere reads as a clean end of the log. Staged records wait in a
//! plaintext buffer that is wiped as soon as they are sealed.
//!
//! Frame `seq 1` is a *key-check sentinel*: a group of one `OP_KEYCHECK`
//! record sealing a constant, written at creation. Opening with the wrong
//! key (or a log in any other format) fails the sentinel check and fails
//! closed with a configuration error — it never touches the data, so a
//! mistyped key cannot destroy a log it cannot read.
//!
//! Replay accepts frames while the tag, CRC, the strictly-increasing
//! sequence number and the sealed body's grammar all hold, and treats the
//! first violation as the torn tail of an interrupted write: everything
//! before it is recovered, everything after is scrubbed back to zeros so
//! a later replay cannot resurrect stale bytes.
//!
//! A commit runs on the caller's thread: seal the staged group, write the
//! tail block to the device, and — when the [`SyncPolicy`] says so —
//! fsync. So a commit that has returned is in the log file, and a process
//! crash loses nothing acknowledged under any policy. The policy decides
//! only what a power failure can lose: `Always` fsyncs every commit, so
//! nothing; `EveryN(n)` fsyncs once `n` written commits are unsynced, so
//! at most the last `n − 1` commits; `Never` everything since the last
//! [`Wal::flush`]. Those bounds assume the standard WAL storage model:
//! rewriting the partially-filled tail block preserves its unchanged
//! leading sectors (sector-level write atomicity), so a torn tail-block
//! write can damage at most the frames not yet fsynced. Any I/O error in
//! the append path fail-stops the handle ([`EngineError::WalPoisoned`]):
//! a half-written frame must not be built upon, and reopening replays the
//! log back to a consistent prefix.
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
use sks_storage::{
    crc32, crc32_fold, wipe, BlockId, BlockStore, EventKind, FailStore, FileDisk, OpCounters,
    Stage, StorageError, SyncHandle, SyncPolicy, CRC32_INIT, NO_PARTITION,
};

use crate::error::EngineError;

/// The device surface a [`Wal`] needs: sequential block writes, partial
/// reads for torn-tail recovery, a second handle that fsyncs the file
/// outside the log's lock, and counter re-pointing. [`FileDisk`] is the
/// production device; a [`FailStore<FileDisk>`] implements it too, so
/// crash probes can tear a WAL write mid-group-commit, or kill its fsync,
/// and watch recovery scrub the tail.
pub trait WalDevice: std::fmt::Debug {
    fn block_size(&self) -> usize;
    fn num_blocks(&self) -> u32;
    fn allocate(&mut self) -> Result<BlockId, StorageError>;
    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError>;
    /// Best-effort read returning however many bytes exist (zero-padded);
    /// see [`FileDisk::read_block_partial`].
    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError>;
    /// The handle every fsync of the log goes through; see
    /// [`FileDisk::sync_handle`].
    fn sync_handle(&self) -> Result<SyncHandle, StorageError>;
    fn set_counters(&mut self, counters: OpCounters);
}

impl WalDevice for FileDisk {
    fn block_size(&self) -> usize {
        BlockStore::block_size(self)
    }

    fn num_blocks(&self) -> u32 {
        BlockStore::num_blocks(self)
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        BlockStore::allocate(self)
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        BlockStore::write_block(self, id, data)
    }

    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError> {
        FileDisk::read_block_partial(self, id)
    }

    fn sync_handle(&self) -> Result<SyncHandle, StorageError> {
        FileDisk::sync_handle(self)
    }

    fn set_counters(&mut self, counters: OpCounters) {
        FileDisk::set_counters(self, counters);
    }
}

impl WalDevice for FailStore<FileDisk> {
    fn block_size(&self) -> usize {
        BlockStore::block_size(self)
    }

    fn num_blocks(&self) -> u32 {
        BlockStore::num_blocks(self)
    }

    fn allocate(&mut self) -> Result<BlockId, StorageError> {
        BlockStore::allocate(self)
    }

    fn write_block(&mut self, id: BlockId, data: &[u8]) -> Result<(), StorageError> {
        BlockStore::write_block(self, id, data)
    }

    fn read_block_partial(&self, id: BlockId) -> Result<(Vec<u8>, usize), StorageError> {
        // Reads keep working after the plan trips (inspecting the
        // wreckage is the point of a crash probe).
        self.inner().read_block_partial(id)
    }

    fn sync_handle(&self) -> Result<SyncHandle, StorageError> {
        // Counts through the plan so `arm_nth_flush` can kill a sync.
        FailStore::sync_handle(self)
    }

    fn set_counters(&mut self, counters: OpCounters) {
        self.inner_mut().set_counters(counters);
    }
}

/// The one device type a [`Wal`] runs on.
type Device = Box<dyn WalDevice + Send>;

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
    /// Where fsyncs are counted (`wal_fsyncs`) and timed
    /// ([`Stage::WalFsync`]); re-pointed with the log's own counters.
    counters: OpCounters,
}

/// A log's one durability point, shared by its [`Wal`] handle and every
/// [`SyncTicket`] it hands out. Every fsync of the log but the open-time
/// torn-tail scrub's goes through [`SyncPoint::sync_through`], which is
/// group commit: a caller whose
/// frame an earlier fsync covered returns at once, one that finds an
/// fsync in flight waits it out, and otherwise the caller leads — it
/// fsyncs through a second handle to the log file, outside both this
/// point's mutex and the WAL's, everything written so far, on behalf of
/// every frame that is already written and still waiting.
#[derive(Debug)]
pub(crate) struct SyncPoint {
    handle: SyncHandle,
    state: Mutex<SyncState>,
    /// Signalled whenever a leader's fsync ends.
    done: Condvar,
}

impl SyncPoint {
    fn new(handle: SyncHandle, written: u64, counters: OpCounters) -> Self {
        SyncPoint {
            handle,
            state: Mutex::new(SyncState {
                written,
                synced: 0,
                commits: 0,
                commits_synced: 0,
                syncing: false,
                failed: false,
                counters,
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

    fn set_counters(&self, counters: OpCounters) {
        self.state().counters = counters;
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
        let counters = state.counters.clone();
        drop(state);
        counters.bump(|c| &c.wal_fsyncs);
        let timer = counters.obs().start();
        let result = self.handle.sync();
        let mut state = self.state();
        state.syncing = false;
        match result {
            Ok(()) => {
                state.synced = state.synced.max(target);
                state.commits_synced = state.commits_synced.max(commits);
                counters.obs().stage(Stage::WalFsync, timer);
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

    /// Makes the log durable through everything it has written so far.
    pub(crate) fn sync_written(&self) -> Result<(), EngineError> {
        let written = self.state().written;
        self.sync_through(written)
    }

    /// Counts every written frame as durable without an fsync: the
    /// checkpoint cut calls it on the log it retires, once the fresh log
    /// holding the retained tail is durable and renamed into place, so a
    /// wait that straddles the cut returns without syncing a file that is
    /// no longer the log.
    pub(crate) fn cover_written(&self) {
        let mut state = self.state();
        state.synced = state.synced.max(state.written);
        state.commits_synced = state.commits;
        drop(state);
        self.done.notify_all();
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

impl WalOp {
    /// The op as [`Wal::append_group`] takes it: `(key, Some(value))` for
    /// an insert, `(key, None)` for a delete.
    pub(crate) fn entry(&self) -> (u64, Option<&[u8]>) {
        match self {
            WalOp::Insert { key, value } => (*key, Some(value)),
            WalOp::Delete { key } => (*key, None),
        }
    }
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
    /// was kept, the rest scrubbed.
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
    block_size: usize,
    /// In-memory image of the block currently being filled.
    tail: Vec<u8>,
    tail_used: usize,
    /// Block the tail occupies; `None` until the first byte lands.
    tail_id: Option<BlockId>,
    /// Next block the stream will move into once the tail fills.
    next_block: u32,
    next_seq: u64,
    nonce_state: u64,
    policy: SyncPolicy,
    tail_dirty: bool,
    /// Full blocks of the frame being written that hold its tag or CRC,
    /// kept back until the CRC is known and the rest of the frame is
    /// written (see [`Wal::write_frame`]): at most two.
    held: Vec<(BlockId, Vec<u8>)>,
    /// Block buffers a held block trades places with the tail through;
    /// with `held`, always two.
    spares: Vec<Vec<u8>>,
    /// The buffer a frame body is serialised and sealed in, piece by
    /// piece (see [`BodyPiece`]). With `spares`, it makes appending a
    /// frame allocate nothing.
    piece: Vec<u8>,
    /// Stream offset of the frame being written, while one is.
    frame_start: Option<usize>,
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
    pub fn create<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<Self, EngineError> {
        let disk = FileDisk::create_with_counters(path, block_size, counters.clone())?;
        Wal::create_on_device(disk, wal_key, policy, counters)
    }

    /// Opens an existing log: verifies the key-check sentinel (failing
    /// closed, without touching the data, when the key is wrong), replays
    /// every intact frame, scrubs any torn tail, and positions the
    /// handle for further appends.
    pub fn open<P: AsRef<Path>>(
        path: P,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<(Self, WalReplay), EngineError> {
        let disk = FileDisk::open_with_counters(path, counters.clone())?;
        Wal::open_on_device(disk, wal_key, policy, counters)
    }

    /// [`Wal::create`] over an already-constructed device (fault probes
    /// wrap a [`FileDisk`] in a [`FailStore`] first).
    pub fn create_on_device(
        disk: impl WalDevice + Send + 'static,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<Self, EngineError> {
        let cipher = Speck64::from_u128(wal_key);
        let mut wal = Wal::positioned(Box::new(disk), cipher, policy, counters, 0, 1)?;
        wal.append_keycheck()?;
        Ok(wal)
    }

    /// [`Wal::open`] over an already-constructed device.
    pub fn open_on_device(
        disk: impl WalDevice + Send + 'static,
        wal_key: u128,
        policy: SyncPolicy,
        counters: OpCounters,
    ) -> Result<(Self, WalReplay), EngineError> {
        let disk: Device = Box::new(disk);
        let cipher = Speck64::from_u128(wal_key);

        // Stream the device block by block: frames are parsed (and their
        // sealed bodies decrypted) incrementally, so peak memory is the
        // recovered records plus one compaction window — not a second
        // whole-log ciphertext copy. A physically truncated final region
        // (torn file) reads as zeros.
        let mut replay = WalReplay::default();
        let mut reader = FrameReader::new(&*disk, &cipher, 1, 0);
        while let Some(mut records) = reader.next_frame()? {
            replay.records.append(&mut records);
        }
        let (pos, next_seq) = (reader.pos(), reader.expected_seq);
        let real_end = reader.real_end()?;
        replay.torn_tail = real_end > pos;
        replay.bytes_discarded = real_end.saturating_sub(pos) as u64;
        counters.bump_by(|c| &c.wal_replayed, replay.records.len() as u64);

        let mut wal = Wal::positioned(disk, cipher, policy, counters, pos, next_seq)?;
        if wal.tail_used > 0 {
            let tail_block = BlockId((pos / wal.block_size) as u32);
            let (block, _have) = wal.disk.read_block_partial(tail_block)?;
            wal.tail[..wal.tail_used].copy_from_slice(&block[..wal.tail_used]);
            wal.tail_id = Some(tail_block);
        }
        if replay.torn_tail {
            wal.scrub_after(pos)?;
            // Flight-recorder breadcrumb: where the valid stream ended and
            // how many trailing bytes recovery threw away.
            wal.counters.obs().note(
                EventKind::TornTailScrub,
                NO_PARTITION,
                pos as u64,
                replay.bytes_discarded,
                0,
            );
        }
        if next_seq == 1 {
            // Only reachable when the log start itself was destroyed (or
            // the file is brand-new empty): restore the sentinel so the
            // wrong-key guard holds for the next open.
            debug_assert_eq!(pos, 0, "keycheck can only be missing at stream start");
            wal.append_keycheck()?;
        }
        Ok((wal, replay))
    }

    /// A handle whose next append lands at stream offset `pos` with
    /// sequence number `next_seq` (the caller loads the tail block's
    /// valid prefix when `pos` is mid-block). Nothing already in the file
    /// counts as durable until its first fsync.
    fn positioned(
        disk: Device,
        cipher: Speck64,
        policy: SyncPolicy,
        counters: OpCounters,
        pos: usize,
        next_seq: u64,
    ) -> Result<Self, EngineError> {
        let block_size = disk.block_size();
        let point = SyncPoint::new(disk.sync_handle()?, next_seq - 1, counters.clone());
        Ok(Wal {
            disk,
            point: Arc::new(point),
            block_size,
            tail: vec![0u8; block_size],
            tail_used: pos % block_size,
            tail_id: None,
            next_block: pos.div_ceil(block_size) as u32,
            next_seq,
            nonce_state: nonce_seed(),
            policy,
            tail_dirty: false,
            held: Vec::with_capacity(2),
            spares: vec![vec![0u8; block_size]; 2],
            piece: Vec::new(),
            frame_start: None,
            poisoned: false,
            cipher,
            counters,
            staged: Vec::new(),
        })
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes the logical stream occupies once everything appended so far
    /// is sealed — a frame boundary only at a group boundary (right after
    /// a commit, flush or `append_group`).
    pub fn len_bytes(&self) -> u64 {
        match self.tail_id {
            Some(id) => id.0 as u64 * self.block_size as u64 + self.tail_used as u64,
            None => self.next_block as u64 * self.block_size as u64,
        }
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

    /// Re-points counter accounting at a different shared set (used by
    /// checkpointing, which writes its snapshot against detached counters
    /// so internal rewrites don't masquerade as client traffic, then
    /// adopts the engine's counters for subsequent appends).
    pub(crate) fn adopt_counters(&mut self, counters: OpCounters) {
        self.disk.set_counters(counters.clone());
        self.point.set_counters(counters.clone());
        self.counters = counters;
    }

    pub fn append_insert(&mut self, key: u64, value: &[u8]) -> Result<u64, EngineError> {
        self.append(OP_INSERT, key, value)
    }

    pub fn append_delete(&mut self, key: u64) -> Result<u64, EngineError> {
        self.append(OP_DELETE, key, &[])
    }

    /// Re-reads the log from byte `from_offset` — which must be the
    /// frame boundary where record `from_seq` begins (a fuzzy
    /// checkpoint's epoch mark, captured as `(next_seq, len_bytes)`
    /// under the log lock) — and returns every client record from it
    /// onward, in order, one `Vec` per frame: the *tail* the checkpoint
    /// carries into the fresh log it cuts over to, re-sealing each group
    /// as one frame so no commit unit is ever split by the rewrite. The
    /// scan is O(tail), not O(log); anything still staged is sealed and
    /// the in-memory tail block written out first so the scan sees
    /// everything appended so far. Reads run against detached counters:
    /// checkpoint bookkeeping is not client traffic.
    ///
    /// Fails closed: the scan must account for every sequence number in
    /// `from_seq..next_seq`. If the device no longer holds what this
    /// handle appended (rot, or a rewrite behind its back) the caller
    /// gets an error *before* it can rename a fresh log over records it
    /// acknowledged.
    pub(crate) fn records_since(
        &mut self,
        from_seq: u64,
        from_offset: u64,
    ) -> Result<Vec<Vec<WalOp>>, EngineError> {
        self.check_poison()?;
        self.write_out(0)?;
        self.disk.set_counters(OpCounters::new());
        let mut groups = Vec::new();
        let scanned = {
            let mut reader = FrameReader::new(&*self.disk, &self.cipher, from_seq, from_offset);
            loop {
                match reader.next_frame() {
                    Ok(Some(records)) => groups.push(records.into_iter().map(|r| r.op).collect()),
                    Ok(None) => break Ok(reader.expected_seq),
                    Err(e) => break Err(e),
                }
            }
        };
        self.disk.set_counters(self.counters.clone());
        let scanned = scanned?;
        if scanned != self.next_seq {
            return Err(StorageError::Corrupt(format!(
                "wal tail scan stopped at seq {scanned} of {}: the log device no longer \
                 holds what was appended",
                self.next_seq
            ))
            .into());
        }
        Ok(groups)
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
    /// the frame; a [`Wal::commit`] writes it out.
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

    /// Writes and fsyncs the key-check sentinel (not client traffic: no
    /// append counters).
    fn append_keycheck(&mut self) -> Result<(), EngineError> {
        debug_assert_eq!(self.next_seq, 1);
        self.write_frame(1, [(OP_KEYCHECK, 0, &KEYCHECK_MAGIC[..])].into_iter())?;
        self.next_seq = 2;
        self.flush()
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

    /// Seals `group` as the frame starting at `first_seq` and appends it
    /// to the stream. The one place a frame of ≥ 2 records is counted as
    /// a sealed batch.
    ///
    /// The frame is streamed: the body is serialised, sealed and folded
    /// into the CRC one block-sized piece at a time, straight from the
    /// borrowed values, and each piece joins the stream as it is sealed.
    /// No frame-sized buffer exists (a bulk load's frame is tens of
    /// megabytes), and appending one allocates nothing. The blocks holding the frame's tag and CRC
    /// are kept back until the CRC is known and every other block of the
    /// frame is written, and are written last: until then the log still
    /// reads zeros where the tag goes, so a frame torn anywhere reads as
    /// a clean end of the log.
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
            self.spares
                .extend(self.held.drain(..).map(|(_, block)| block));
            self.frame_start = None;
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
        let header = frame_header(first_seq, nonce, body_len);
        self.frame_start = Some(self.len_bytes() as usize);
        self.append_bytes(&header)?;
        let mut body = BodyPiece::new(
            std::mem::take(&mut self.piece),
            self.block_size.next_multiple_of(8),
            nonce,
            crc32_fold(CRC32_INIT, &header[5..]),
        );
        self.put_body(&mut body, &count.to_be_bytes())?;
        for (op, key, value) in group {
            let mut entry = [0u8; ENTRY_HEADER];
            entry[0] = op;
            entry[1..9].copy_from_slice(&key.to_be_bytes());
            entry[9..].copy_from_slice(&(value.len() as u32).to_be_bytes());
            self.put_body(&mut body, &entry)?;
            self.put_body(&mut body, value)?;
        }
        self.seal_body_piece(&mut body)?;
        debug_assert_eq!(body.sealed, body_len);
        let crc = !body.crc;
        self.piece = body.into_buf();
        self.finish_frame(crc)
    }

    /// Serialises `bytes` into the body piece, sealing and appending the
    /// piece each time it fills.
    fn put_body(&mut self, body: &mut BodyPiece, mut bytes: &[u8]) -> Result<(), EngineError> {
        while !bytes.is_empty() {
            let n = (body.cap - body.buf.len()).min(bytes.len());
            body.buf.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if body.buf.len() == body.cap {
                self.seal_body_piece(body)?;
            }
        }
        Ok(())
    }

    /// Seals the piece in place at its keystream offset (the piece size
    /// is a whole number of cipher blocks, so every piece but the last
    /// starts on a counter), folds it into the CRC and appends it.
    fn seal_body_piece(&mut self, body: &mut BodyPiece) -> Result<(), EngineError> {
        let counter = body.nonce.wrapping_add((body.sealed / 8) as u64);
        ctr_xor_in_place(&self.cipher, counter, &mut body.buf);
        body.crc = crc32_fold(body.crc, &body.buf);
        body.sealed += body.buf.len();
        self.append_bytes(&body.buf)?;
        body.buf.clear();
        Ok(())
    }

    /// Fills in the open frame's CRC and writes its kept-back blocks: the
    /// tail first when the frame reaches past them, then the held blocks,
    /// the one holding the tag last. A frame inside the tail block writes
    /// nothing here; the commit writes the tail.
    fn finish_frame(&mut self, crc: u32) -> Result<(), EngineError> {
        let start = self.frame_start.take().expect("a frame is open");
        for (i, byte) in crc.to_be_bytes().into_iter().enumerate() {
            let at = start + 1 + i;
            let id = BlockId((at / self.block_size) as u32);
            let off = at % self.block_size;
            match self.held.iter_mut().find(|(h, _)| *h == id) {
                Some((_, block)) => block[off] = byte,
                None => {
                    debug_assert_eq!(self.tail_id, Some(id), "an unheld CRC byte is in the tail");
                    self.tail[off] = byte;
                }
            }
        }
        if self.held.is_empty() {
            return Ok(());
        }
        if self.tail_dirty {
            self.write_tail()?;
        }
        while let Some((id, block)) = self.held.pop() {
            let written = self.disk.write_block(id, &block);
            self.spares.push(block);
            written?;
        }
        Ok(())
    }

    /// Copies `bytes` into the stream, writing each block as it fills,
    /// except one holding the open frame's tag or CRC, which is held.
    fn append_bytes(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        let mut off = 0;
        while off < bytes.len() {
            if self.tail_id.is_none() {
                let id = BlockId(self.next_block);
                self.ensure_allocated(id)?;
                self.tail_id = Some(id);
                self.next_block += 1;
                self.tail.fill(0);
                self.tail_used = 0;
            }
            let n = (self.block_size - self.tail_used).min(bytes.len() - off);
            self.tail[self.tail_used..self.tail_used + n].copy_from_slice(&bytes[off..off + n]);
            self.tail_used += n;
            off += n;
            self.tail_dirty = true;
            if self.tail_used == self.block_size {
                let id = self.tail_id.expect("the tail has a block");
                let block_start = id.0 as usize * self.block_size;
                if self
                    .frame_start
                    .is_some_and(|start| block_start < start + 5)
                {
                    let spare = self.spares.pop().expect("a frame holds at most two blocks");
                    let full = std::mem::replace(&mut self.tail, spare);
                    self.held.push((id, full));
                    self.tail_dirty = false;
                } else {
                    self.write_tail()?;
                }
                self.tail_id = None;
            }
        }
        Ok(())
    }

    /// Ends the current group: seals it, writes it to the device and,
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

    /// The one commit sequence: seal, write the tail block out, then
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
        let timer = self.counters.obs().start();
        let (seq, wrote, unsynced) = self.write_out(1)?;
        if wrote {
            self.counters.obs().stage(Stage::WalAppend, timer);
        }
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

    /// Seals anything staged and writes the tail block out, so every
    /// frame appended so far is in the file, and tells the sync point so
    /// (counting `commits` more commits). Returns the last seq written,
    /// whether the tail block needed a write, and how many written
    /// commits are still unsynced.
    fn write_out(&mut self, commits: u64) -> Result<(u64, bool, u64), EngineError> {
        self.seal_staged()?;
        let wrote = self.write_tail_if_dirty()?;
        let seq = self.next_seq - 1;
        Ok((seq, wrote, self.point.wrote_through(seq, commits)))
    }

    /// Makes everything written so far durable through the sync point,
    /// under the WAL lock (a due policy fsync, or a flush).
    fn force_sync(&mut self) -> Result<(), EngineError> {
        let result = self.point.sync_through(self.next_seq - 1);
        self.poisoned |= result.is_err();
        result
    }

    /// Writes the in-memory tail block out when it holds unwritten
    /// bytes (reporting whether it did), poisoning the handle on failure.
    fn write_tail_if_dirty(&mut self) -> Result<bool, EngineError> {
        if !self.tail_dirty {
            return Ok(false);
        }
        if let Err(e) = self.write_tail() {
            self.poisoned = true;
            return Err(e);
        }
        Ok(true)
    }

    fn write_tail(&mut self) -> Result<(), EngineError> {
        let id = self.tail_id.expect("dirty tail always has a block");
        self.disk.write_block(id, &self.tail)?;
        self.tail_dirty = false;
        Ok(())
    }

    fn ensure_allocated(&mut self, id: BlockId) -> Result<(), EngineError> {
        while self.disk.num_blocks() <= id.0 {
            let got = self.disk.allocate()?;
            debug_assert!(got.0 < self.disk.num_blocks());
        }
        Ok(())
    }

    /// Zeroes every byte of the stream from `pos` onward (torn-tail
    /// scrub), so stale bytes can never be re-parsed as frames.
    fn scrub_after(&mut self, pos: usize) -> Result<(), EngineError> {
        let first_block = (pos / self.block_size) as u32;
        let zero = vec![0u8; self.block_size];
        for b in first_block..self.disk.num_blocks() {
            if b == first_block && !pos.is_multiple_of(self.block_size) {
                // Preserve the valid prefix inside the boundary block.
                let mut buf = zero.clone();
                buf[..self.tail_used].copy_from_slice(&self.tail[..self.tail_used]);
                self.disk.write_block(BlockId(b), &buf)?;
            } else {
                self.disk.write_block(BlockId(b), &zero)?;
            }
        }
        self.point.handle.sync()?;
        Ok(())
    }

    #[cfg(test)]
    fn poison_for_test(&mut self) {
        self.poisoned = true;
    }
}

/// Streaming reader over the frame grammar, shared by replay
/// ([`Wal::open_on_device`]) and the checkpoint tail scan
/// ([`Wal::records_since`]): feeds device blocks into a sliding window
/// and yields one frame's records at a time.
struct FrameReader<'a> {
    disk: &'a dyn WalDevice,
    cipher: &'a Speck64,
    /// Next device block to feed into the window.
    next_block: u32,
    /// Unparsed window of the stream; `buf[start..]` is still to parse
    /// and `buf[0]` sits at absolute stream offset `base`.
    buf: Vec<u8>,
    start: usize,
    base: usize,
    /// Absolute offset just past the last non-zero byte read so far.
    real_end: usize,
    /// Sequence number the next frame must start at.
    expected_seq: u64,
}

impl<'a> FrameReader<'a> {
    /// A reader positioned at byte `from_offset`, where the frame
    /// starting with record `from_seq` must begin.
    fn new(disk: &'a dyn WalDevice, cipher: &'a Speck64, from_seq: u64, from_offset: u64) -> Self {
        let block_size = disk.block_size() as u64;
        let first_block = from_offset / block_size;
        FrameReader {
            disk,
            cipher,
            next_block: first_block as u32,
            buf: Vec::new(),
            start: (from_offset % block_size) as usize,
            base: (first_block * block_size) as usize,
            real_end: 0,
            expected_seq: from_seq,
        }
    }

    /// Absolute stream offset of the parse cursor: the end of the last
    /// frame accepted.
    fn pos(&self) -> usize {
        self.base + self.start
    }

    /// Reads the next device block, or `None` past the device's end.
    fn read_block(&mut self) -> Result<Option<Vec<u8>>, EngineError> {
        if self.next_block >= self.disk.num_blocks() {
            return Ok(None);
        }
        let (block, _have) = self.disk.read_block_partial(BlockId(self.next_block))?;
        if let Some(i) = block.iter().rposition(|&x| x != 0) {
            self.real_end = self.next_block as usize * block.len() + i + 1;
        }
        self.next_block += 1;
        Ok(Some(block))
    }

    /// Reads the rest of the device and returns the absolute offset just
    /// past its last non-zero byte (replay's torn-tail measure).
    fn real_end(mut self) -> Result<usize, EngineError> {
        while self.read_block()?.is_some() {}
        Ok(self.real_end)
    }

    /// The next frame's records, or `None` at the end of the valid
    /// stream: a clean end (zero padding, end of device) or any
    /// violation — bad tag, bad CRC, sequence gap, truncated frame, or a
    /// sealed body that breaks the group grammar; the caller tells them
    /// apart by what lies past [`FrameReader::pos`]. The key-check
    /// sentinel (seq 1) is verified and skipped here, failing with a
    /// configuration error when a CRC-valid first frame is anything else
    /// — the wrong key, or a log in another format. This is the only
    /// function that parses the frame grammar.
    fn next_frame(&mut self) -> Result<Option<Vec<WalRecord>>, EngineError> {
        loop {
            // Empty until the first feed (the cursor may start mid-block).
            let avail = self.buf.get(self.start..).unwrap_or(&[]);
            if avail.first().is_some_and(|&tag| tag != TAG) {
                return Ok(None);
            }
            // How many bytes the frame at the cursor needs in the window.
            let mut need = HEADER_LEN;
            if avail.len() >= HEADER_LEN {
                let seq = u64::from_be_bytes(avail[5..13].try_into().expect("fixed width"));
                let blen = u32::from_be_bytes(avail[21..25].try_into().expect("fixed width"));
                if (blen as usize) < COUNT_LEN + ENTRY_HEADER || seq != self.expected_seq {
                    return Ok(None);
                }
                need += blen as usize;
            }
            if avail.len() < need {
                // Feed the next block, compacting the window first so
                // long logs don't accumulate.
                let Some(block) = self.read_block()? else {
                    return Ok(None);
                };
                if self.start > 4 * block.len() {
                    self.buf.drain(..self.start);
                    self.base += self.start;
                    self.start = 0;
                }
                self.buf.extend_from_slice(&block);
                continue;
            }
            let crc = u32::from_be_bytes(avail[1..5].try_into().expect("fixed width"));
            if crc32(&avail[5..need]) != crc {
                return Ok(None);
            }
            let nonce = u64::from_be_bytes(avail[13..21].try_into().expect("fixed width"));
            let entries = decode_group(&ctr_xor(self.cipher, nonce, &avail[HEADER_LEN..need]));
            if self.expected_seq == 1 {
                // Refuse before anything destructive can happen.
                let sentinel = matches!(entries.as_deref(), Some([(OP_KEYCHECK, _, magic)])
                    if magic[..] == KEYCHECK_MAGIC[..]);
                if !sentinel {
                    return Err(EngineError::Config(
                        "wal key mismatch: the log's key-check sentinel does not unseal under \
                         this tree/data key configuration and frame format"
                            .into(),
                    ));
                }
                self.start += need;
                self.expected_seq = 2;
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

/// The piece of a frame body being serialised (plaintext) until it fills
/// and is sealed in place; wiped when dropped, so a write that fails
/// mid-piece leaves no plaintext behind.
struct BodyPiece {
    buf: Vec<u8>,
    /// Bytes a piece holds: a whole number of cipher blocks.
    cap: usize,
    nonce: u64,
    /// Body bytes sealed so far: the keystream offset of `buf[0]`.
    sealed: usize,
    /// CRC register over the frame so far.
    crc: u32,
}

impl BodyPiece {
    fn new(mut buf: Vec<u8>, cap: usize, nonce: u64, crc: u32) -> Self {
        debug_assert!(buf.is_empty() && cap.is_multiple_of(8));
        buf.reserve_exact(cap);
        BodyPiece {
            buf,
            cap,
            nonce,
            sealed: 0,
            crc,
        }
    }

    /// The buffer back, once every piece is sealed (it holds ciphertext
    /// only).
    fn into_buf(mut self) -> Vec<u8> {
        debug_assert!(self.buf.is_empty());
        std::mem::take(&mut self.buf)
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
    use sks_storage::FailMode;

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
            // Singleton padding frames move the tail offset each group
            // starts at; the groups fit one block, cross one boundary, or
            // span many blocks.
            for pad in [0usize, 1, 7, 20, 39, 60] {
                let path = tmpfile(&format!("stream_identity_{block_size}_{pad}"));
                let mut wal = create(&path, block_size);
                let mut frames = vec![(1, vec![(OP_KEYCHECK, 0, KEYCHECK_MAGIC.to_vec())])];
                let shapes: [Vec<(u8, u64, Vec<u8>)>; 4] = [
                    vec![insert(1, 3)],
                    vec![insert(2, 10), (OP_DELETE, 3, Vec::new())],
                    vec![insert(4, block_size / 2), insert(5, block_size / 2)],
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
                let stream = &raw[8192..];
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
                    "zero padding after the log"
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn a_frame_killed_at_any_write_leaves_its_tag_unwritten() {
        // A frame of twelve 64-byte blocks: every block but the one
        // holding the tag is written before it, so a kill at any of the
        // frame's writes leaves zeros where the tag goes, and replay ends
        // the log cleanly before the frame.
        let values: Vec<Vec<u8>> = (0..6).map(|k| vec![k as u8 + 1; 100]).collect();
        // Logs one record, then the frame, killing its `kill`th write.
        let run = |kill: Option<u64>| {
            let path = tmpfile(&format!("kill_frame_{kill:?}"));
            let (disk, plan) = FailStore::new(FileDisk::create(&path, 64).unwrap());
            let mut wal =
                Wal::create_on_device(disk, KEY, SyncPolicy::Never, OpCounters::new()).unwrap();
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
            let tag = std::fs::read(&path).unwrap()[8192 + start];
            let (_wal, replay) = reopen(&path);
            std::fs::remove_file(&path).ok();
            (writes, tag, replay.records.len())
        };
        let (writes, tag, records) = run(None);
        assert!(writes >= 10, "the frame spans many blocks");
        assert_eq!((tag, records), (TAG, 7));
        for nth in 1..=writes {
            let (_, tag, records) = run(Some(nth));
            assert_eq!((tag, records), (0, 1), "kill at write {nth} of {writes}");
        }
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
            // 100-byte values force every frame across block boundaries.
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
            {
                let mut wal = create(&path, 128);
                for k in 0..20u64 {
                    wal.append_insert(k, &[0xCD; 45]).unwrap();
                    if (k + 1) % group == 0 {
                        wal.commit().unwrap();
                    }
                }
            }
            // Chop the file mid-way through the last frames' sealed bodies:
            // a hard truncation of the physical medium. The CRC covers the
            // whole group, so a torn group must vanish entirely while every
            // earlier group survives intact.
            let len = std::fs::metadata(&path).unwrap().len();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len - chop).unwrap();
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
            8 + 1,
            "64 commits at EveryN(8) = 8 fsyncs, +1 for the durable sentinel"
        );
        // Nothing is lost despite the amortisation (process exit, not
        // power failure).
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_since_returns_the_fuzzy_tail() {
        let path = tmpfile("records_since");
        let mut wal = create(&path, 128);
        for batch in 0..2u64 {
            for i in 0..4 {
                wal.append_insert(batch * 4 + i, b"pre").unwrap();
            }
            wal.commit().unwrap();
        }
        let (mark, mark_offset) = (wal.next_seq(), wal.len_bytes());
        // After the mark: a committed singleton, a committed triple, and a
        // staged (uncommitted) pair the scan must still surface — each
        // comes back as its own group.
        wal.append_delete(3).unwrap();
        wal.commit().unwrap();
        for k in 100..103u64 {
            wal.append_insert(k, b"tail").unwrap();
        }
        wal.commit().unwrap();
        wal.append_insert(200, b"staged").unwrap();
        wal.append_delete(201).unwrap();
        let tail = wal.records_since(mark, mark_offset).unwrap();
        assert_eq!(
            tail,
            vec![
                vec![WalOp::Delete { key: 3 }],
                vec![ins(100, b"tail"), ins(101, b"tail"), ins(102, b"tail")],
                vec![ins(200, b"staged"), WalOp::Delete { key: 201 }],
            ]
        );
        // From the very beginning: every client record, sentinel excluded.
        let all: usize = wal.records_since(1, 0).unwrap().iter().map(Vec::len).sum();
        assert_eq!(all, 14);
        // An empty tail (mark at the stream end) scans to nothing.
        let (end_seq, end_off) = (wal.next_seq(), wal.len_bytes());
        assert!(wal.records_since(end_seq, end_off).unwrap().is_empty());
        // Appends still work after the scan.
        wal.append_insert(101, b"after").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_wal, replay) = reopen(&path);
        assert_eq!(replay.records.len(), 15);
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
    fn txn_frame_roundtrip_and_tail_grouping() {
        let path = tmpfile("txn_roundtrip");
        let counters = OpCounters::new();
        let mut wal = Wal::create(&path, 128, KEY, SyncPolicy::Always, counters.clone()).unwrap();
        wal.append_insert(1, b"solo").unwrap();
        wal.commit().unwrap();
        let before = counters.snapshot();
        let ops = vec![
            ins(10, b"txn-a"),
            WalOp::Delete { key: 1 },
            ins(11, b"txn-b"),
        ];
        // A staged record ahead of the txn is sealed first, as its own
        // frame, so the transaction is a group of exactly its own ops.
        wal.append_insert(2, b"ahead").unwrap();
        let first = wal.append_group(ops.iter().map(WalOp::entry)).unwrap();
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

        // The checkpoint tail scan returns the txn as ONE group, which
        // the cut re-seals as one frame.
        let groups = wal.records_since(1, 0).unwrap();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[2], ops);
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
            let groups = wal.records_since(1, 0).unwrap();
            let shape = (counters.snapshot(), wal.len_bytes(), wal.next_seq(), groups);
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
        assert_eq!(borrowed.3.len(), 2);
        assert_eq!(borrowed.3[1].len(), items.len());
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

        // The stream starts after the FileDisk's fixed 8 KiB header, so
        // this lands 10 bytes before the logical end — mid-payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8192 + logical_len - 10..][..5].copy_from_slice(&[0xFF; 5]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, replay) = reopen(&path);
        assert!(replay.torn_tail, "the damaged frame is a torn tail");
        assert_eq!(replay.records.len(), 7, "all-or-nothing: none of the txn");
        assert_eq!(replay.records[6].seq, 8);

        // The scrub + reopen leaves a log that keeps working.
        wal.append_insert(99, b"after-recovery").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_wal, replay) = reopen(&path);
        assert!(!replay.torn_tail, "scrubbed log is clean again");
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
        // the FileDisk's fixed 8 KiB header).
        let mut raw = std::fs::read(&path).unwrap();
        raw[8192 + sentinel_len..][..frame.len()].copy_from_slice(&frame);
        std::fs::write(&path, &raw).unwrap();

        let (mut wal, replay) =
            Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        assert!(replay.records.is_empty(), "corrupt group is a torn tail");
        assert!(replay.torn_tail, "the damaged frame is scrubbed");
        wal.append_insert(7, b"still-usable").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
