//! Corrupt-ciphertext fuzzing of every sealed decoder: WAL streams
//! (single-record, group and txn frames), node codecs for every scheme,
//! record-store pages behind a tree directory (randomly corrupted, and
//! with a slot cut shorter than the key every record seals), and whole
//! engine directories (WAL + store files).
//!
//! The fail-closed contract every case asserts:
//!
//! - **no panic**: decoding attacker-controlled bytes returns `Err` (or a
//!   shorter valid prefix, for log streams) — it never unwinds;
//! - **no plaintext leak**: error text never echoes sealed record
//!   payloads (checked with a distinctive marker planted in every value);
//! - **bounded work**: corrupt length fields must not drive allocations —
//!   the decoders clamp counts to what the medium could actually hold,
//!   so a seed finishing at all (rather than aborting the process in the
//!   allocator) is the observable.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sks_btree_core::{Node, NodeCodec, RecordPtr};
use sks_core::{CoreError, EncipheredBTree, Scheme, SchemeConfig};
use sks_engine::{EngineConfig, SksDb, Wal, WalOp};
use sks_storage::{BlockId, BlockStore, OpCounters, SyncPolicy};

use crate::mutate::mutate;
use crate::rng::FuzzRng;
use crate::ScratchDir;

const WAL_KEY: u128 = 0xFEED_FACE_CAFE_BEEF_0011_2233_4455_6677;
/// Planted in every sealed value; must never surface in error text.
const MARKER: &str = "TOPSECRET-PLAINTEXT-CANARY";

/// Fails the case if an error's rendered text echoes the planted
/// plaintext marker.
fn assert_sealed_error(context: &str, text: &str) -> Result<(), String> {
    if text.contains(MARKER) {
        return Err(format!(
            "{context}: error text leaks sealed plaintext: {text}"
        ));
    }
    Ok(())
}

/// Dispatches one decoder-fuzz case per seed, rotating through the five
/// decoder families so a contiguous seed range sweeps all of them.
pub fn run_decoder_case(seed: u64) -> Result<(), String> {
    match seed % 5 {
        0 => run_wal_stream_case(seed),
        1 => run_node_codec_case(seed),
        2 => run_tree_dir_case(seed),
        3 => run_engine_dir_case(seed),
        _ => run_data_page_case(seed),
    }
}

/// Mutates a sealed WAL file and reopens it: the replay must be a clean
/// prefix of what was written (CRC framing drops damaged frames whole)
/// or a clean error — never a panic, never marker text in the error.
pub fn run_wal_stream_case(seed: u64) -> Result<(), String> {
    let mut rng = FuzzRng::new(seed ^ 0xDEC0_DE5A_11ED_0001);
    let scratch = ScratchDir::new("dec-wal", seed);
    let path = scratch.path().join("wal.sks");

    // Build a log mixing single-record, multi-record and txn frames.
    let mut wal = Wal::create(&path, 256, WAL_KEY, SyncPolicy::Always, OpCounters::new())
        .map_err(|e| format!("create wal: {e}"))?;
    let mut written: Vec<WalOp> = Vec::new();
    for _ in 0..6 + rng.below(6) {
        let ops: Vec<WalOp> = (0..1 + rng.below(4))
            .map(|_| WalOp::Insert {
                key: rng.below(64),
                value: format!("{MARKER}-{}", rng.next_u64()).into_bytes(),
            })
            .collect();
        if ops.len() >= 2 && rng.chance(40) {
            let group = ops.iter().filter_map(|op| match op {
                WalOp::Insert { key, value } => Some((*key, Some(&value[..]))),
                WalOp::Delete { .. } => None,
            });
            wal.append_group(group)
                .map_err(|e| format!("append_group: {e}"))?;
        } else {
            for op in &ops {
                if let WalOp::Insert { key, value } = op {
                    wal.append_insert(*key, value)
                        .map_err(|e| format!("append: {e}"))?;
                }
            }
        }
        wal.commit().map_err(|e| format!("commit: {e}"))?;
        written.extend(ops);
    }
    drop(wal);

    // Corrupt and reopen.
    let pristine = std::fs::read(&path).map_err(|e| format!("read wal file: {e}"))?;
    let corrupt = mutate(&mut rng, &pristine, 4);
    std::fs::write(&path, &corrupt).map_err(|e| format!("write corrupt wal: {e}"))?;

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Wal::open(&path, WAL_KEY, SyncPolicy::Always, OpCounters::new())
    }));
    match outcome {
        Err(_) => Err("corrupt WAL stream panicked Wal::open".into()),
        Ok(Err(e)) => assert_sealed_error("Wal::open", &format!("{e}")),
        Ok(Ok((_, replay))) => {
            let got: Vec<WalOp> = replay.records.into_iter().map(|r| r.op).collect();
            if got.len() > written.len() || got[..] != written[..got.len()] {
                return Err(format!(
                    "corrupt WAL replayed {} records that are not a prefix of the {} written",
                    got.len(),
                    written.len()
                ));
            }
            Ok(())
        }
    }
}

/// Encodes one node under every scheme's codec, then decodes / probes
/// seeded corruptions of the page — each through a fresh cache entry, and
/// many times through one long-lived entry wrapping the corrupt bytes:
/// must never panic, and whatever `Ok` decode
/// survives must uphold basic node invariants. The node is then written
/// back over that entry: a write copies from the image it replaces only
/// cryptograms that unsealed, under this block's binding, to the very
/// triplets it writes, so the page must be the from-scratch one.
pub fn run_node_codec_case(seed: u64) -> Result<(), String> {
    let mut rng = FuzzRng::new(seed ^ 0xDEC0_DE5A_11ED_0002);
    for scheme in Scheme::ALL {
        let config = SchemeConfig::with_capacity(scheme, 64);
        let counters = OpCounters::new();
        let (codec, _) = config
            .build_codec(&counters)
            .map_err(|e| format!("{scheme:?}: build codec: {e}"))?;

        // One leaf and one internal node. Keys sit inside every scheme's
        // disguise domain — the figure-literal ExponentiationPaper
        // construction caps it at 13 regardless of requested capacity.
        let leaf = Node {
            id: BlockId(3),
            keys: vec![2, 5, 7, 11],
            data_ptrs: (0..4).map(|i| RecordPtr(1000 + i)).collect(),
            children: Vec::new(),
        };
        let internal = Node {
            id: BlockId(4),
            keys: vec![3, 9],
            data_ptrs: vec![RecordPtr(7), RecordPtr(8)],
            children: vec![BlockId(10), BlockId(11), BlockId(12)],
        };
        for node in [&leaf, &internal] {
            let mut page = vec![0u8; config.block_size];
            codec
                .encode(node, &mut page)
                .map_err(|e| format!("{scheme:?}: encode: {e}"))?;
            // The pristine page under another block's header: every
            // cryptogram is bound to the wrong block, so none unseals and
            // a write of that block over the image must copy none.
            let mut moved = node.clone();
            moved.id = BlockId(node.id.0 + 100);
            let mut foreign = page.clone();
            foreign[4..8].copy_from_slice(&moved.id.0.to_be_bytes());
            if let Ok(entry) = codec.decode_for_cache(moved.id, &foreign) {
                let _ = codec.decode_cached(&entry);
                for key in 1..13 {
                    let _ = codec.probe_cached(&entry, key);
                }
                let (mut over, mut scratch) = (vec![0u8; page.len()], vec![0u8; page.len()]);
                let wrote = codec.encode_over(&moved, Some(&entry), &mut over).map(drop);
                let from_scratch = codec.encode(&moved, &mut scratch).map(drop);
                if wrote.is_err() || wrote != from_scratch || over != scratch {
                    return Err(format!(
                        "{scheme:?}: a write over an image bound to another block \
                         differs from the from-scratch page (node {})",
                        node.id.0
                    ));
                }
            }
            for _ in 0..8 {
                let corrupt = mutate(&mut rng, &page, 3);
                let probe_key = 1 + rng.below(11);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let decoded = codec.decode(node.id, &corrupt);
                    let probed = codec.probe(node.id, &corrupt, probe_key);
                    // The same bytes through one entry that serves many
                    // probes: it must fail closed wherever a probe or the
                    // whole-node decode crosses the damage, exactly as a
                    // fresh entry does.
                    let cached = codec.decode_for_cache(node.id, &corrupt).map(|entry| {
                        let same_key = codec.probe_cached(&entry, probe_key);
                        let mut errors: Vec<String> = (1..4)
                            .map(|i| 1 + (probe_key + 3 * i) % 12)
                            .filter_map(|key| codec.probe_cached(&entry, key).err())
                            .chain(codec.decode_cached(&entry).err())
                            .map(|e| format!("{e}"))
                            .collect();
                        errors.extend(same_key.as_ref().err().map(|e| format!("{e}")));
                        // Once more, after those probes and the decode have
                        // memoised all they could: a failed unseal must not
                        // have been kept, a kept one must not move the answer.
                        let again = codec.probe_cached(&entry, probe_key);
                        let mut over = vec![0u8; page.len()];
                        let wrote = codec.encode_over(node, Some(&entry), &mut over);
                        (same_key, again, errors, wrote.map(|_| over))
                    });
                    (decoded, probed, cached)
                }));
                let (decoded, probed, cached) = match outcome {
                    Err(_) => {
                        return Err(format!(
                            "{scheme:?}: corrupt page panicked the codec (node {})",
                            node.id.0
                        ))
                    }
                    Ok(r) => r,
                };
                if let Ok(n) = decoded {
                    // Semantic validity for whatever survives the seal.
                    if n.data_ptrs.len() != n.keys.len()
                        || (!n.children.is_empty() && n.children.len() != n.keys.len() + 1)
                    {
                        return Err(format!(
                            "{scheme:?}: corrupt page decoded to a structurally invalid node"
                        ));
                    }
                }
                let mut texts = Vec::new();
                match cached {
                    Ok((same_key, again, errors, wrote)) => {
                        if same_key != probed || again != probed {
                            return Err(format!(
                                "{scheme:?}: cached probe diverged from a fresh probe of \
                                 the same corrupt page (node {})",
                                node.id.0
                            ));
                        }
                        if wrote.as_ref() != Ok(&page) {
                            return Err(format!(
                                "{scheme:?}: a write over the corrupt page's image differs \
                                 from the from-scratch page (node {})",
                                node.id.0
                            ));
                        }
                        texts = errors;
                    }
                    Err(e) => texts.push(format!("{e}")),
                }
                texts.extend(probed.err().map(|e| format!("{e}")));
                for text in texts {
                    assert_sealed_error(&format!("{scheme:?} codec"), &text)?;
                }
            }
        }
    }
    Ok(())
}

/// Builds an on-disk tree (nodes + record store + manifest), corrupts one
/// of its files, and reopens: opening and reading must fail closed — no
/// panic, no marker plaintext in errors.
pub fn run_tree_dir_case(seed: u64) -> Result<(), String> {
    let mut rng = FuzzRng::new(seed ^ 0xDEC0_DE5A_11ED_0003);
    let scratch = ScratchDir::new("dec-tree", seed);
    let dir = scratch.path().join("tree");
    let scheme = Scheme::ALL[(seed / 5) as usize % Scheme::ALL.len()];
    let mk_config = || SchemeConfig::with_capacity(scheme, 64).on_disk(&dir);

    {
        let mut tree =
            EncipheredBTree::create(mk_config()).map_err(|e| format!("create tree: {e}"))?;
        // Keys 1..=12 sit inside every scheme's disguise domain (the
        // figure-literal ExponentiationPaper construction caps it at 13).
        for key in 1..=12 {
            tree.insert(key, format!("{MARKER}-{key}").into_bytes())
                .map_err(|e| format!("insert: {e}"))?;
        }
        // A few deletes so the data pages carry tombstones.
        for key in [3u64, 7, 11] {
            tree.delete(key).map_err(|e| format!("delete: {e}"))?;
        }
        tree.flush().map_err(|e| format!("flush: {e}"))?;
    }

    // Corrupt one store file, drawn from the seed.
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read tree dir: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    if files.is_empty() {
        return Err("tree directory holds no files to corrupt".into());
    }
    let victim = &files[rng.below(files.len() as u64) as usize];
    let pristine = std::fs::read(victim).map_err(|e| format!("read victim: {e}"))?;
    let corrupt = mutate(&mut rng, &pristine, 4);
    std::fs::write(victim, &corrupt).map_err(|e| format!("write victim: {e}"))?;

    let victim_name = victim.file_name().unwrap_or_default().to_string_lossy();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let tree = match EncipheredBTree::open(mk_config()) {
            Ok(t) => t,
            Err(e) => return assert_sealed_error("tree open", &format!("{e}")),
        };
        // Open survived (corruption may sit in unread blocks): every read
        // must still fail closed rather than panic.
        for key in 0..26 {
            if let Err(e) = tree.get(key) {
                assert_sealed_error("tree get", &format!("{e}"))?;
            }
        }
        Ok(())
    }));
    match outcome {
        Err(_) => Err(format!(
            "corrupt {victim_name} ({scheme:?}) panicked tree open/read"
        )),
        Ok(r) => r.map_err(|e| format!("{e} (victim {victim_name}, {scheme:?})")),
    }
}

/// Cuts one live record slot of an on-disk tree shorter than the 8-byte
/// key every record seals, then reopens: the read of that record, and the
/// maintenance pass whose victim read meets the slot (its page holds the
/// tombstones of the deleted keys, and nothing is the open fill block
/// after a reopen), must fail closed with a record error — no panic, no
/// marker plaintext in errors — while every other record still reads back
/// intact.
pub fn run_data_page_case(seed: u64) -> Result<(), String> {
    let mut rng = FuzzRng::new(seed ^ 0xDEC0_DE5A_11ED_0005);
    let scratch = ScratchDir::new("dec-page", seed);
    let dir = scratch.path().join("tree");
    let scheme = Scheme::ALL[(seed / 5) as usize % Scheme::ALL.len()];
    let mk_config = || SchemeConfig::with_capacity(scheme, 64).on_disk(&dir);
    let value = |key: u64| format!("{MARKER}-{key}").into_bytes();
    let (live, victim, ptr) = {
        let mut tree =
            EncipheredBTree::create(mk_config()).map_err(|e| format!("create tree: {e}"))?;
        for key in 1..=12 {
            tree.insert(key, value(key))
                .map_err(|e| format!("insert: {e}"))?;
        }
        for key in [3u64, 7, 11] {
            tree.delete(key).map_err(|e| format!("delete: {e}"))?;
        }
        tree.flush().map_err(|e| format!("flush: {e}"))?;
        // The keys that read back intact (the figure-literal
        // ExponentiationPaper construction cannot tell 1 from 2).
        let live: Vec<u64> = (1..=12)
            .filter(|&k| tree.get(k).ok().flatten() == Some(value(k)))
            .collect();
        let victim = live[rng.below(live.len() as u64) as usize];
        let ptr = tree
            .get_pointer(victim)
            .map_err(|e| format!("get_pointer: {e}"))?
            .ok_or("the victim key is live")?;
        (live, victim, ptr)
    };

    // The slot directory entry is `off u16, len u16` at 12 + 4·slot.
    let short = rng.below(8) as u16;
    {
        let io = |e: sks_storage::StorageError| format!("data.sks: {e}");
        let [_, mut store] = EncipheredBTree::open_file_stores(&dir, 8, &OpCounters::new())
            .map_err(|e| format!("open stores: {e}"))?;
        let mut page = store.read_block_vec(ptr.block()).map_err(io)?;
        let at = 12 + 4 * ptr.slot() as usize + 2;
        page[at..at + 2].copy_from_slice(&short.to_be_bytes());
        store.write_block(ptr.block(), &page).map_err(io)?;
        store.flush().map_err(io)?;
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let mut tree = EncipheredBTree::open(mk_config()).map_err(|e| format!("open: {e}"))?;
        match tree.get(victim) {
            Err(CoreError::Record(e)) => assert_sealed_error("short slot get", &e)?,
            other => {
                return Err(format!(
                    "a {short}-byte slot read as {:?}",
                    other.map(|v| v.map(|bytes| bytes.len()))
                ))
            }
        }
        for key in live.iter().filter(|&&k| k != victim) {
            if tree.get(*key).ok().flatten() != Some(value(*key)) {
                return Err(format!("key {key} next to the short slot was lost"));
            }
        }
        match tree.compact_step(64) {
            Err(CoreError::Record(e)) => assert_sealed_error("short slot compaction", &e),
            other => Err(format!("compacting a {short}-byte slot gave {other:?}")),
        }
    }));
    match outcome {
        Err(_) => Err(format!(
            "a {short}-byte slot ({scheme:?}) panicked the stack"
        )),
        Ok(r) => r.map_err(|e| format!("{e} ({scheme:?})")),
    }
}

/// Builds a full engine directory (WAL plus checkpointed store files),
/// corrupts one file, and reopens the database: recovery must fail closed
/// or come up readable — no panic, no marker plaintext in errors.
pub fn run_engine_dir_case(seed: u64) -> Result<(), String> {
    let mut rng = FuzzRng::new(seed ^ 0xDEC0_DE5A_11ED_0004);
    let scratch = ScratchDir::new("dec-eng", seed);
    let dir = scratch.path();
    let mk_config = || {
        EngineConfig::new(SchemeConfig::with_capacity(Scheme::Oval, 128).partitions(2))
            .sync(SyncPolicy::Always)
    };

    {
        let db = SksDb::open(dir, mk_config()).map_err(|e| format!("build engine: {e}"))?;
        for key in 0..32u64 {
            db.insert(key, format!("{MARKER}-{key}").into_bytes())
                .map_err(|e| format!("insert: {e}"))?;
        }
        // A checkpoint so flushed store files exist alongside the WAL.
        db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        for key in 32..40u64 {
            db.insert(key, format!("{MARKER}-{key}").into_bytes())
                .map_err(|e| format!("insert: {e}"))?;
        }
    }

    // Corrupt one file anywhere under the engine directory.
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).map_err(|e| format!("read dir: {e}"))? {
            let path = entry.map_err(|e| format!("read dir entry: {e}"))?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "sks") {
                files.push(path);
            }
        }
    }
    files.sort();
    if files.is_empty() {
        return Err("engine directory holds no sealed files to corrupt".into());
    }
    let victim = &files[rng.below(files.len() as u64) as usize];
    let pristine = std::fs::read(victim).map_err(|e| format!("read victim: {e}"))?;
    let corrupt = mutate(&mut rng, &pristine, 4);
    std::fs::write(victim, &corrupt).map_err(|e| format!("write victim: {e}"))?;
    let victim_name = victim.file_name().unwrap_or_default().to_string_lossy();

    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let db = match SksDb::open(dir, mk_config()) {
            Ok(db) => db,
            Err(e) => return assert_sealed_error("engine open", &format!("{e}")),
        };
        // Recovery survived; reads must fail closed, and whatever data
        // is visible must be records we actually wrote (a torn-prefix
        // image is legal, invented or cross-wired records are not).
        match db.range(0, u64::MAX) {
            Err(e) => assert_sealed_error("engine range", &format!("{e}"))?,
            Ok(image) => {
                let all: BTreeMap<u64, Vec<u8>> = (0..40u64)
                    .map(|k| (k, format!("{MARKER}-{k}").into_bytes()))
                    .collect();
                for (key, value) in image {
                    if all.get(&key) != Some(&value) {
                        return Err(format!(
                            "recovered image invented key {key} after corrupting {victim_name}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }));
    match outcome {
        Err(_) => Err(format!("corrupt {victim_name} panicked engine open/read")),
        Ok(r) => r.map_err(|e| format!("{e} (victim {victim_name})")),
    }
}
