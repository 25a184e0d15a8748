//! The six engine workloads and the harness that runs one of them:
//! set-up (bulk load → checkpoint → close → reopen → warm-up), a timed
//! window of a fixed number of generated ops, close, reopen, verify,
//! final checkpoint, space measurement. Every answer the engine gives is
//! checked against the shadow table; a wrong answer is a failed op.
//!
//! The engine is driven only through its public API and sees nothing but
//! the generated ops; each layer is measured from outside (client-call
//! spans here, `SksDb::snapshot()` / `stats()` deltas for the traced run).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sks_core::{ObsLevel, Scheme, SchemeConfig, StorageBackend};
use sks_engine::{EngineConfig, EngineError, Session, SksDb, StatsSnapshot};
use sks_storage::{OpSnapshot, Stage, SyncPolicy};

use crate::gen::{self, Rng, Shadow, Zipf, RECORD_BYTES, ZIPF_THETA};
use crate::hist::Hist;
use crate::stats::median;

/// What a client does in the timed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 100 % `get`, uniform keys.
    ReadUniform,
    /// 100 % `get`, scrambled-zipfian keys.
    ReadZipf,
    /// 50 % get / 40 % overwrite / 5 % fresh insert / 5 % delete, zipfian.
    Update,
    /// 95 % `range(k, k+len)`, `len` uniform in 1..=100 / 5 % fresh insert.
    ScanShort,
    /// Each txn reads two uniform keys and writes both back swapped.
    TxnTransfer,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub scheme: Scheme,
    pub partitions: usize,
    /// Bulk-loaded keys `1..=n`. Never scaled by `--seconds`.
    pub n: u64,
    /// Timed ops per client in the issue's design.
    pub design_ops: u64,
    /// Share of `design_ops` the window holds at `--seconds RUN_SECONDS`:
    /// what fits the driver's time cap while no window is shorter than
    /// ~6 s (README, "Sizing").
    pub ops_factor: f64,
    pub clients: usize,
    pub mix: Mix,
    /// Harness-invoked checkpoints, evenly spaced so the last ninth of
    /// the window stays in the WAL tail for `reopen_ms`.
    pub checkpoints: u64,
}

/// Heaviest first: a run's file writes keep the host busy for a minute
/// after it ends (README, "Noise"), and `read_hot` — 0.7 µs ops, the
/// workload most sensitive to a busy host — must not follow the two that
/// write 90 MB each.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "read_cold",
        why: "Uniform gets over 300k keys: leaves are 1.7x the node cache and records 300x the record cache, so node/record unseal and block reads dominate",
        scheme: Scheme::Oval,
        partitions: 1,
        n: 300_000,
        design_ops: 80_000,
        ops_factor: 0.32,
        clients: 1,
        mix: Mix::ReadUniform,
        checkpoints: 0,
    },
    Spec {
        name: "read_cold_bm",
        why: "read_cold under Bayer-Metzger: the paper's comparison at engine level and the control for substitution-only optimisations",
        scheme: Scheme::BayerMetzger,
        partitions: 1,
        n: 300_000,
        design_ops: 80_000,
        ops_factor: 0.24,
        clients: 1,
        mix: Mix::ReadUniform,
        checkpoints: 0,
    },
    Spec {
        name: "update_mix",
        why: "50/40/5/5 get/overwrite/insert/delete with four checkpoints: node and record seal, tombstones, WAL and compaction, so a read gain that costs writes shows",
        scheme: Scheme::Oval,
        partitions: 2,
        n: 50_000,
        design_ops: 90_000,
        ops_factor: 0.2,
        clients: 1,
        mix: Mix::Update,
        checkpoints: 4,
    },
    Spec {
        name: "txn_transfer",
        why: "Two client threads swapping pairs of keys in transactions: partition lock order, the WAL mutex and commit fsyncs, the only concurrent workload",
        scheme: Scheme::Oval,
        partitions: 2,
        n: 50_000,
        design_ops: 8_000,
        ops_factor: 0.24,
        clients: 2,
        mix: Mix::TxnTransfer,
        checkpoints: 0,
    },
    Spec {
        name: "scan_short",
        why: "95% short range scans, 5% fresh inserts (YCSB-E): leaf-chain walking and per-record unseal instead of point descents",
        scheme: Scheme::Oval,
        partitions: 2,
        n: 50_000,
        design_ops: 150_000,
        ops_factor: 0.4,
        clients: 1,
        mix: Mix::ScanShort,
        checkpoints: 0,
    },
    Spec {
        name: "read_hot",
        why: "Zipfian gets over 50k keys that fit every cache: routing, locks and cached descent dominate; a cold-path change must not move it",
        scheme: Scheme::Oval,
        partitions: 2,
        n: 50_000,
        design_ops: 5_000_000,
        ops_factor: 0.8,
        clients: 1,
        mix: Mix::ReadZipf,
        checkpoints: 0,
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// `run_seconds` in `BENCHMARK.json`: at `--seconds RUN_SECONDS` the
/// timed window holds `design_ops × ops_factor` ops per client; another
/// `--seconds` scales that count linearly. The window is a fixed op
/// count, not a deadline, so single-client counters repeat exactly.
pub const RUN_SECONDS: u64 = 5;
/// Warm-up ops as a share of the timed ops; part of `setup_s`.
const WARMUP_SHARE: f64 = 0.05;
/// Set-up is repeated (and the earlier databases discarded) to report a
/// median, as long as the set-ups so far took less than this in total.
const SETUP_REPEAT_BUDGET: Duration = Duration::from_secs(3);
const SETUP_REPEATS: usize = 3;
/// Keys re-read after reopen on top of every written key.
const VERIFY_SAMPLE: u64 = 2_000;

/// Op kinds a span or a latency histogram is recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Scan = 2,
    Txn = 3,
    Checkpoint = 4,
}

pub const KINDS: usize = 4;
pub const KIND_NAMES: [&str; 5] = ["get", "put", "scan", "txn", "checkpoint"];

/// One client call, as the choosing-metrics guide's section 4 asks: op
/// kind, start, end, worker. Checkpoint spans are parents of nothing.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u32,
    pub kind: u8,
    pub worker: u8,
}

impl Span {
    fn new(kind: Kind, worker: u8, epoch: Instant, start: Instant, end: Instant) -> Self {
        Span {
            start_ns: (start - epoch).as_nanos() as u64,
            dur_ns: (end - start).as_nanos().min(u32::MAX as u128) as u32,
            kind: kind as u8,
            worker,
        }
    }
}

/// Checked ops, how many of them failed, and the first few reasons.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts one step the harness itself checks (a checkpoint, an
    /// invariant).
    fn check<E: std::fmt::Display>(&mut self, what: &str, outcome: Result<(), E>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(format!("{what}: {e}"));
        }
    }

    fn absorb(&mut self, other: &mut Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.append(&mut other.failures);
        self.failures.truncate(8);
    }
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    /// 1/100 of the keys and ops; results are stamped and never compared.
    pub smoke: bool,
    /// Scratch directory; the run creates and removes a child of it.
    pub dir: PathBuf,
    /// `Histograms` for the traced run, `Counters` otherwise.
    pub level: ObsLevel,
    pub keep_spans: bool,
}

/// Stage nanoseconds, [`Stage::ALL`] order.
pub type StageNs = [u64; Stage::COUNT];

#[derive(Debug, Clone)]
pub struct RunResult {
    pub tally: Tally,
    pub n: u64,
    pub clients: usize,
    /// Completed client ops in the window, all clients.
    pub ops: u64,
    pub setup_s: f64,
    pub setup_samples: usize,
    /// Wall time of the whole window, checkpoint stalls included.
    pub window_s: f64,
    /// Whole-window latencies by op kind.
    pub hists: [Hist; KINDS],
    pub checkpoint_ms: Vec<f64>,
    pub close_ms: f64,
    pub reopen_ms: f64,
    pub space_amp: f64,
    pub peak_rss_mb: f64,
    /// Counter delta over the window.
    pub counters: OpSnapshot,
    /// Stage time in the window outside harness-invoked checkpoints.
    pub client_stage_ns: StageNs,
    /// Stage time inside harness-invoked checkpoints (window + final).
    pub checkpoint_stage_ns: StageNs,
    pub checkpoints: u64,
    /// Σ duration of client-op spans (checkpoints excluded), all workers.
    pub span_ns: u64,
    pub conflicts: u64,
    pub user_bytes_written: u64,
    pub tail_records: u64,
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Completed ops ÷ window wall time, all clients.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.window_s
    }
}

impl Spec {
    fn scaled(&self, opts: &RunOpts) -> (u64, u64) {
        let shrink = if opts.smoke { 100 } else { 1 };
        let n = self.n / shrink;
        let ops = self.design_ops as f64 * self.ops_factor * opts.seconds / RUN_SECONDS as f64;
        (n, ((ops / shrink as f64).round() as u64).max(10))
    }

    fn inserts_fresh_keys(&self) -> bool {
        matches!(self.mix, Mix::Update | Mix::ScanShort)
    }
}

fn engine_config(spec: &Spec, key_space: u64, dir: &Path, level: ObsLevel) -> EngineConfig {
    // Library defaults for every knob not named here, so knobs can be
    // deleted from the engine without editing the benchmark.
    let scheme = SchemeConfig::with_capacity(spec.scheme, key_space + 64)
        .partitions(spec.partitions)
        .backend(StorageBackend::file(dir))
        .observability(level);
    EngineConfig::new(scheme).sync(SyncPolicy::EveryN(32))
}

fn engine_err(what: &str, e: EngineError) -> String {
    format!("{what}: {e}")
}

fn stage_sums(stats: &StatsSnapshot) -> StageNs {
    let mut out = [0u64; Stage::COUNT];
    for (slot, stage) in out.iter_mut().zip(Stage::ALL) {
        *slot = stats.stage_ns(stage);
    }
    out
}

fn add_delta(acc: &mut StageNs, after: &StageNs, before: &StageNs) {
    for ((a, x), y) in acc.iter_mut().zip(after).zip(before) {
        *a += x.saturating_sub(*y);
    }
}

/// One generated client op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64),
    Delete(u64),
    Scan(u64, u64),
}

/// The single client of every workload but `txn_transfer`: generator,
/// shadow table and measurements.
pub struct Client {
    mix: Mix,
    n: u64,
    rng: Rng,
    zipf: Option<Zipf>,
    shadow: Shadow,
    next_fresh: u64,
    key_space: u64,
    epoch: Instant,
    /// Set for the timed window; nothing is measured outside it.
    in_window: bool,
    pub hists: [Hist; KINDS],
    pub spans: Option<Vec<Span>>,
    pub tally: Tally,
    pub user_bytes_written: u64,
}

impl Client {
    pub fn new(spec: &Spec, n: u64, key_space: u64, seed: u64, keep_spans: bool) -> Self {
        let zipf = (spec.mix != Mix::ReadUniform).then(|| Zipf::new(n, ZIPF_THETA));
        Client {
            mix: spec.mix,
            n,
            rng: Rng::new(seed, 0),
            zipf,
            shadow: Shadow::new(n, key_space),
            next_fresh: n + 1,
            key_space,
            epoch: Instant::now(),
            in_window: false,
            hists: Default::default(),
            spans: keep_spans.then(Vec::new),
            tally: Tally::default(),
            user_bytes_written: 0,
        }
    }

    fn zipf_key(&mut self) -> u64 {
        self.zipf
            .as_ref()
            .expect("zipfian mixes build a generator")
            .scrambled_key(&mut self.rng)
    }

    /// A never-used key above the loaded range; when the budget is spent
    /// (it is sized at twice the expected demand) an overwrite instead.
    fn fresh_or_hot_key(&mut self) -> u64 {
        if self.next_fresh <= self.key_space {
            self.next_fresh += 1;
            self.next_fresh - 1
        } else {
            self.zipf_key()
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.mix {
            Mix::ReadUniform => Op::Get(self.rng.below(self.n) + 1),
            Mix::ReadZipf => Op::Get(self.zipf_key()),
            Mix::Update => match self.rng.below(100) {
                0..50 => Op::Get(self.zipf_key()),
                50..90 => Op::Put(self.zipf_key()),
                90..95 => Op::Put(self.fresh_or_hot_key()),
                _ => Op::Delete(self.zipf_key()),
            },
            Mix::ScanShort => {
                if self.rng.below(100) < 95 {
                    let lo = self.zipf_key();
                    Op::Scan(lo, lo + 1 + self.rng.below(100))
                } else {
                    Op::Put(self.fresh_or_hot_key())
                }
            }
            Mix::TxnTransfer => unreachable!("txn_transfer has its own client loop"),
        }
    }

    fn begin_window(&mut self, start: Instant) {
        self.epoch = start;
        self.in_window = true;
    }

    fn measured(&mut self, kind: Kind, start: Instant, end: Instant) {
        if !self.in_window {
            return;
        }
        self.hists[kind as usize].record((end - start).as_nanos() as u64);
        if let Some(spans) = &mut self.spans {
            spans.push(Span::new(kind, 0, self.epoch, start, end));
        }
    }

    /// Runs one op against the engine and checks the answer.
    pub fn apply(&mut self, session: &Session, op: Op) {
        self.tally.attempted += 1;
        match op {
            Op::Get(key) => {
                let want = self.shadow.current(key).map(|v| gen::value(key, v));
                let start = Instant::now();
                let got = session.get(key);
                let end = Instant::now();
                self.measured(Kind::Get, start, end);
                match got {
                    Ok(got) if got == want => {}
                    Ok(_) => self
                        .tally
                        .fail(format!("get({key}) returned the wrong value")),
                    Err(e) => self.tally.fail(format!("get({key}): {e}")),
                }
            }
            Op::Put(key) => {
                let prior = self.shadow.current(key).map(|v| gen::value(key, v));
                let value = gen::value(key, self.shadow.put(key));
                self.user_bytes_written += RECORD_BYTES;
                let start = Instant::now();
                let got = session.insert(key, value);
                let end = Instant::now();
                self.measured(Kind::Put, start, end);
                match got {
                    Ok(prev) if prev == prior => {}
                    Ok(_) => self
                        .tally
                        .fail(format!("insert({key}) returned the wrong prior value")),
                    Err(e) => self.tally.fail(format!("insert({key}): {e}")),
                }
            }
            Op::Delete(key) => {
                let prior = self.shadow.current(key).map(|v| gen::value(key, v));
                self.shadow.delete(key);
                self.user_bytes_written += 8;
                let start = Instant::now();
                let got = session.delete(key);
                let end = Instant::now();
                self.measured(Kind::Put, start, end);
                match got {
                    Ok(prev) if prev == prior => {}
                    Ok(_) => self
                        .tally
                        .fail(format!("delete({key}) returned the wrong prior value")),
                    Err(e) => self.tally.fail(format!("delete({key}): {e}")),
                }
            }
            Op::Scan(lo, hi) => {
                let start = Instant::now();
                let got = session.range(lo, hi);
                let end = Instant::now();
                self.measured(Kind::Scan, start, end);
                match got {
                    Ok(rows) => {
                        if !self.scan_matches(lo, hi, &rows) {
                            self.tally
                                .fail(format!("range({lo}, {hi}) returned the wrong rows"));
                        }
                    }
                    Err(e) => self.tally.fail(format!("range({lo}, {hi}): {e}")),
                }
            }
        }
    }

    /// Content, order and count of a scan result against the shadow.
    fn scan_matches(&self, lo: u64, hi: u64, rows: &[(u64, Vec<u8>)]) -> bool {
        let mut rows = rows.iter();
        for key in lo..=hi.min(self.key_space) {
            if let Some(version) = self.shadow.current(key) {
                match rows.next() {
                    Some((k, v)) if *k == key && *v == gen::value(key, version) => {}
                    _ => return false,
                }
            }
        }
        rows.next().is_none()
    }

    /// After reopen: every key an acknowledged write touched, a uniform
    /// sample of the rest, and the key count.
    fn verify_after_reopen(&mut self, db: &Arc<SksDb>) {
        let session = db.session();
        let written: Vec<u64> = self.shadow.written_keys().collect();
        let sample: Vec<u64> = (0..VERIFY_SAMPLE.min(self.n))
            .map(|_| self.rng.below(self.n) + 1)
            .collect();
        for key in written.into_iter().chain(sample) {
            self.apply(&session, Op::Get(key));
        }
        self.tally.attempted += 1;
        if db.len() != self.shadow.live() {
            self.tally.fail(format!(
                "reopened database holds {} keys, shadow holds {}",
                db.len(),
                self.shadow.live()
            ));
        }
    }
}

/// FNV over the first `count` ops a client would issue: the identity of
/// an op stream, for the same-seed / different-seed unit test.
#[cfg(test)]
pub fn op_stream_hash(spec: &Spec, seed: u64, count: u64) -> u64 {
    let n = spec.n / 100;
    let mut client = Client::new(spec, n, n + count, seed, false);
    let mut h = 0u64;
    for _ in 0..count {
        let (tag, a, b) = match client.next_op() {
            Op::Get(k) => (1, k, 0),
            Op::Put(k) => (2, k, 0),
            Op::Delete(k) => (3, k, 0),
            Op::Scan(lo, hi) => (4, lo, hi),
        };
        h = gen::fnv1a64(h ^ gen::fnv1a64(tag) ^ gen::fnv1a64(a).rotate_left(17) ^ b);
    }
    h
}

/// One `txn_transfer` client thread's measurements.
struct TxnClient {
    worker: u8,
    epoch: Instant,
    keep_spans: bool,
    /// False during warm-up, which is not measured.
    timed: bool,
    hist: Hist,
    spans: Vec<Span>,
    tally: Tally,
    committed: u64,
    conflicts: u64,
}

impl TxnClient {
    fn new(worker: u8, epoch: Instant, timed: bool, keep_spans: bool) -> Self {
        TxnClient {
            worker,
            epoch,
            keep_spans,
            timed,
            hist: Hist::default(),
            spans: Vec::new(),
            tally: Tally::default(),
            committed: 0,
            conflicts: 0,
        }
    }

    /// Commits `txns` swaps, retrying each on `Conflict`.
    fn run(&mut self, session: &Session, rng: &mut Rng, n: u64, txns: u64) {
        for _ in 0..txns {
            let a = rng.below(n) + 1;
            let b = loop {
                let b = rng.below(n) + 1;
                if b != a {
                    break b;
                }
            };
            self.tally.attempted += 1;
            loop {
                let start = Instant::now();
                let outcome = swap_once(session, a, b);
                let end = Instant::now();
                match outcome {
                    Ok(()) => {
                        self.committed += 1;
                        if self.timed {
                            self.hist.record((end - start).as_nanos() as u64);
                            if self.keep_spans {
                                self.spans.push(Span::new(
                                    Kind::Txn,
                                    self.worker,
                                    self.epoch,
                                    start,
                                    end,
                                ));
                            }
                        }
                        break;
                    }
                    // A refused commit wrote nothing: not a failure, the
                    // workload's contract is to retry.
                    Err(SwapError::Engine(EngineError::Conflict { .. })) => self.conflicts += 1,
                    Err(SwapError::Engine(e)) => {
                        self.tally.fail(format!("txn swap({a}, {b}): {e}"));
                        break;
                    }
                    Err(SwapError::Wrong(what)) => {
                        self.tally.fail(format!("txn swap({a}, {b}): {what}"));
                        break;
                    }
                }
            }
        }
    }
}

enum SwapError {
    Engine(EngineError),
    Wrong(&'static str),
}

impl From<EngineError> for SwapError {
    fn from(e: EngineError) -> Self {
        SwapError::Engine(e)
    }
}

fn swap_once(session: &Session, a: u64, b: u64) -> Result<(), SwapError> {
    let mut txn = session.begin();
    let va = txn.get(a)?.ok_or(SwapError::Wrong("first key missing"))?;
    let vb = txn.get(b)?.ok_or(SwapError::Wrong("second key missing"))?;
    if gen::parse_value(&va).is_none() || gen::parse_value(&vb).is_none() {
        return Err(SwapError::Wrong("read a value no client ever wrote"));
    }
    txn.insert(a, vb)?;
    txn.insert(b, va)?;
    Ok(txn.commit()?)
}

/// Order-independent digest of a set of values: swaps permute values
/// among keys, so the digest of the whole table must never change.
fn multiset_digest<'a>(values: impl Iterator<Item = &'a [u8]>) -> (u64, u64) {
    values.fold((0, 0), |(count, sum), v| {
        (count + 1, sum.wrapping_add(gen::fnv1a64_bytes(v)))
    })
}

/// `txn_transfer`'s invariant: the table holds exactly the loaded values,
/// each under some loaded key.
fn conserved(db: &Arc<SksDb>, n: u64) -> Result<(), String> {
    let rows = db.range(1, n).map_err(|e| engine_err("range", e))?;
    if rows.iter().any(|(_, v)| gen::parse_value(v).is_none()) {
        return Err("table holds a value no client ever wrote".into());
    }
    let got = multiset_digest(rows.iter().map(|(_, v)| v.as_slice()));
    let loaded: Vec<Vec<u8>> = (1..=n).map(|k| gen::value(k, 1)).collect();
    let want = multiset_digest(loaded.iter().map(Vec::as_slice));
    if got != want {
        return Err(format!(
            "multiset of values changed: {} rows (digest {:x}), loaded {} (digest {:x})",
            got.0, got.1, want.0, want.1
        ));
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Removes the run's directory when dropped, so a failed run leaves
/// nothing behind either.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // The parent too, if this run was the last thing in it.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Everything one client population needs across set-up and the window.
enum Clients {
    Single(Box<Client>),
    Txn { rngs: Vec<Rng> },
}

struct SetUp {
    db: Arc<SksDb>,
    clients: Clients,
    seconds: f64,
}

/// Bulk load → checkpoint → close → reopen → warm-up. The reopen is
/// what makes the data cold: the no-steal pool otherwise keeps the whole
/// load resident.
fn set_up(
    spec: &Spec,
    opts: &RunOpts,
    dir: &Path,
    n: u64,
    key_space: u64,
    ops: u64,
) -> Result<SetUp, String> {
    std::fs::remove_dir_all(dir).ok();
    let start = Instant::now();
    let config = engine_config(spec, key_space, dir, opts.level);
    {
        let db = SksDb::open(dir, config.clone()).map_err(|e| engine_err("open", e))?;
        let items: Vec<(u64, Vec<u8>)> = (1..=n).map(|k| (k, gen::value(k, 1))).collect();
        db.bulk_load(items)
            .map_err(|e| engine_err("bulk_load", e))?;
        db.checkpoint().map_err(|e| engine_err("checkpoint", e))?;
    }
    let db = SksDb::open(dir, config).map_err(|e| engine_err("reopen", e))?;
    let warmup = (ops as f64 * WARMUP_SHARE).ceil() as u64;
    let clients = if spec.mix == Mix::TxnTransfer {
        let mut rngs: Vec<Rng> = (0..spec.clients)
            .map(|w| Rng::new(opts.seed, w as u64 + 1))
            .collect();
        let session = db.session();
        let mut warm = TxnClient::new(0, Instant::now(), false, false);
        for rng in rngs.iter_mut() {
            warm.run(&session, rng, n, warmup);
        }
        if warm.tally.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.tally.failures));
        }
        Clients::Txn { rngs }
    } else {
        let mut client = Client::new(spec, n, key_space, opts.seed, opts.keep_spans);
        let session = db.session();
        for _ in 0..warmup {
            let op = client.next_op();
            client.apply(&session, op);
        }
        if client.tally.failed > 0 {
            return Err(format!("warm-up failed: {:?}", client.tally.failures));
        }
        Clients::Single(Box::new(client))
    };
    Ok(SetUp {
        db,
        clients,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Runs one workload end to end. `Err` means the harness could not run
/// (I/O, a failed open); wrong answers are counted in the result.
pub fn run(spec: &Spec, opts: &RunOpts) -> Result<RunResult, String> {
    let (n, ops) = spec.scaled(opts);
    // Twice the expected 5 % demand for fresh keys, warm-up included.
    let fresh = if spec.inserts_fresh_keys() {
        ops / 10 + 16
    } else {
        0
    };
    let key_space = n + fresh;
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("{}: {e}", opts.dir.display()))?;
    let scratch = ScratchDir(opts.dir.join(format!(
        "sks_bench_{}_{}_{}",
        spec.name,
        opts.seed,
        std::process::id()
    )));
    let dir = scratch.0.as_path();

    let mut setup_times = Vec::new();
    let mut spent = Duration::ZERO;
    let SetUp {
        db, mut clients, ..
    } = loop {
        let setup = set_up(spec, opts, dir, n, key_space, ops)?;
        setup_times.push(setup.seconds);
        spent += Duration::from_secs_f64(setup.seconds);
        if setup_times.len() >= SETUP_REPEATS || spent >= SETUP_REPEAT_BUDGET {
            break setup;
        }
    };
    let setup_samples = setup_times.len();
    let setup_s = median(&setup_times);

    // ---- timed window ---------------------------------------------------
    let counters_before = db.snapshot();
    let stages_before = stage_sums(&db.stats());
    let mut checkpoint_ms = Vec::new();
    let mut checkpoint_stage_ns = [0u64; Stage::COUNT];
    let mut checkpoint_spans = Vec::new();
    let mut conflicts = 0;
    let window_start = Instant::now();
    let mut txn_results: Vec<TxnClient> = Vec::new();
    match &mut clients {
        Clients::Single(client) => {
            client.begin_window(window_start);
            let session = db.session();
            // Checkpoints after 2/9, 4/9, 6/9, 8/9 of the ops: the last
            // ninth of the window is the WAL tail `reopen_ms` replays.
            let every = if spec.checkpoints > 0 {
                (ops * 2 / (2 * spec.checkpoints + 1)).max(1)
            } else {
                u64::MAX
            };
            for i in 1..=ops {
                let op = client.next_op();
                client.apply(&session, op);
                if i % every == 0 && i / every <= spec.checkpoints {
                    let before = stage_sums(&db.stats());
                    let start = Instant::now();
                    let outcome = db.checkpoint();
                    let end = Instant::now();
                    add_delta(&mut checkpoint_stage_ns, &stage_sums(&db.stats()), &before);
                    client.tally.check("checkpoint", outcome.map(|_| ()));
                    checkpoint_ms.push((end - start).as_secs_f64() * 1e3);
                    checkpoint_spans.push(Span::new(Kind::Checkpoint, 0, window_start, start, end));
                }
            }
            client.in_window = false;
        }
        Clients::Txn { rngs } => {
            let barrier = Barrier::new(rngs.len());
            let keep_spans = opts.keep_spans;
            txn_results = std::thread::scope(|scope| {
                let handles: Vec<_> = rngs
                    .iter_mut()
                    .enumerate()
                    .map(|(w, rng)| {
                        let session = db.session();
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            let mut client =
                                TxnClient::new(w as u8, window_start, true, keep_spans);
                            client.run(&session, rng, n, ops);
                            client
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("txn client thread panicked"))
                    .collect()
            });
        }
    }
    let window_s = window_start.elapsed().as_secs_f64();
    let counters = db.snapshot().delta(&counters_before);
    let mut client_stage_ns = [0u64; Stage::COUNT];
    add_delta(
        &mut client_stage_ns,
        &stage_sums(&db.stats()),
        &stages_before,
    );
    for (c, k) in client_stage_ns.iter_mut().zip(&checkpoint_stage_ns) {
        *c = c.saturating_sub(*k);
    }

    // ---- fold the clients' measurements -----------------------------------
    let mut hists: [Hist; KINDS] = Default::default();
    let mut spans = checkpoint_spans;
    let mut tally = Tally::default();
    let mut user_bytes_written = 0;
    let completed;
    match &mut clients {
        Clients::Single(client) => {
            hists = client.hists.clone();
            completed = ops;
            spans.extend(client.spans.take().unwrap_or_default());
        }
        Clients::Txn { .. } => {
            completed = txn_results.iter().map(|c| c.committed).sum();
            for c in &mut txn_results {
                hists[Kind::Txn as usize].merge(&c.hist);
                spans.append(&mut c.spans);
                tally.absorb(&mut c.tally);
                conflicts += c.conflicts;
            }
            // A swap rewrites two records.
            user_bytes_written = completed * 2 * RECORD_BYTES;
            tally.check("before close", conserved(&db, n));
        }
    }
    let span_ns = hists.iter().map(Hist::sum).sum();

    // ---- close, reopen, verify ---------------------------------------------
    let config = db.config().clone();
    let close_start = Instant::now();
    drop(db);
    let close_ms = close_start.elapsed().as_secs_f64() * 1e3;

    let reopen_start = Instant::now();
    let db = SksDb::open(dir, config).map_err(|e| engine_err("reopen", e))?;
    let reopen_ms = reopen_start.elapsed().as_secs_f64() * 1e3;
    let tail_records = db.recovery_report().records_replayed;

    let live_keys = match &mut clients {
        Clients::Single(client) => {
            client.verify_after_reopen(&db);
            tally.absorb(&mut client.tally);
            user_bytes_written = client.user_bytes_written;
            client.shadow.live()
        }
        Clients::Txn { .. } => {
            tally.check("after reopen", conserved(&db, n));
            n
        }
    };

    // ---- final checkpoint, space ----------------------------------------------
    let before = stage_sums(&db.stats());
    tally.check("final checkpoint", db.checkpoint().map(|_| ()));
    add_delta(&mut checkpoint_stage_ns, &stage_sums(&db.stats()), &before);
    drop(db);
    let bytes = dir_bytes(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let space_amp = bytes as f64 / (live_keys * RECORD_BYTES) as f64;

    Ok(RunResult {
        tally,
        n,
        clients: spec.clients,
        ops: completed,
        setup_s,
        setup_samples,
        window_s,
        hists,
        checkpoint_ms,
        close_ms,
        reopen_ms,
        space_amp,
        peak_rss_mb: peak_rss_mb(),
        counters,
        client_stage_ns,
        checkpoint_stage_ns,
        checkpoints: spec.checkpoints + 1,
        span_ns,
        conflicts,
        user_bytes_written,
        tail_records,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_stream_and_different_seed_differs() {
        for spec in SPECS.iter().filter(|s| s.mix != Mix::TxnTransfer) {
            let a = op_stream_hash(spec, 1, 5_000);
            assert_eq!(a, op_stream_hash(spec, 1, 5_000), "{}", spec.name);
            assert_ne!(a, op_stream_hash(spec, 2, 5_000), "{}", spec.name);
        }
    }

    #[test]
    fn update_mix_follows_its_shares() {
        let spec = spec_named("update_mix").unwrap();
        let n = 500;
        let count = 100_000u64;
        let mut client = Client::new(spec, n, n + count, 9, false);
        let (mut gets, mut puts, mut fresh, mut deletes) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..count {
            match client.next_op() {
                Op::Get(_) => gets += 1,
                Op::Put(k) if k > n => fresh += 1,
                Op::Put(_) => puts += 1,
                Op::Delete(_) => deletes += 1,
                Op::Scan(..) => panic!("update_mix never scans"),
            }
        }
        let share = |x: u64| x as f64 / count as f64;
        assert!((share(gets) - 0.50).abs() < 0.01);
        assert!((share(puts) - 0.40).abs() < 0.01);
        assert!((share(fresh) - 0.05).abs() < 0.005);
        assert!((share(deletes) - 0.05).abs() < 0.005);
    }

    #[test]
    fn workload_names_are_unique_and_described() {
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SPECS.len());
        for spec in &SPECS {
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
        }
    }
}
