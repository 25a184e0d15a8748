//! The WAL's one frame grammar, pinned from the raw file:
//!
//! ```text
//! tag(1)=0xA5 ‖ crc32(4) ‖ first_seq(8) ‖ nonce(8) ‖ blen(4) ‖
//!     E( count(4) ‖ ( op(1) ‖ key(8) ‖ vlen(4) ‖ value )^count )
//! ```
//!
//! Every frame — the key-check sentinel, a singleton commit, a commit
//! group, a multi-key transaction — is that shape, and a sealed body that
//! breaks it under a *valid* CRC replays as a torn tail: a clean prefix,
//! never a panic, never an allocation sized by the count word.

use sks_btree::crypto::modes::ctr_xor;
use sks_btree::crypto::speck::Speck64;
use sks_btree::engine::{EngineError, Wal, WalOp};
use sks_btree::storage::{crc32, BlockId, BlockStore, FileDisk, OpCounters, SyncPolicy};

const KEY: u128 = 0x0F1E_2D3C_4B5A_6978_8796_A5B4_C3D2_E1F0;
const BLOCK: usize = 512;
/// The log file's header (magic and piece length) precedes the stream.
const STREAM_START: usize = 12;
const HEADER_LEN: usize = 25;
const TAG: u8 = 0xA5;
const OP_INSERT: u8 = 1;
const OP_KEYCHECK: u8 = 3;

fn tmpfile(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sks_walfmt_{}_{}", std::process::id(), name))
}

fn create(path: &std::path::Path) -> Wal {
    Wal::create(path, BLOCK, KEY, SyncPolicy::Always, OpCounters::new()).unwrap()
}

/// Parses the frame at stream offset `at`, asserting the header layout:
/// `(first_seq, unsealed body, stream offset just past the frame)`.
fn frame_at(stream: &[u8], at: usize) -> (u64, Vec<u8>, usize) {
    let f = &stream[at..];
    assert_eq!(f[0], TAG, "every frame carries the one tag");
    let crc = u32::from_be_bytes(f[1..5].try_into().unwrap());
    let seq = u64::from_be_bytes(f[5..13].try_into().unwrap());
    let nonce = u64::from_be_bytes(f[13..21].try_into().unwrap());
    let total = HEADER_LEN + u32::from_be_bytes(f[21..25].try_into().unwrap()) as usize;
    assert_eq!(
        crc32(&f[5..total]),
        crc,
        "crc covers seq ‖ nonce ‖ blen ‖ body"
    );
    let body = ctr_xor(&Speck64::from_u128(KEY), nonce, &f[HEADER_LEN..total]);
    (seq, body, at + total)
}

fn count(body: &[u8]) -> u32 {
    u32::from_be_bytes(body[..4].try_into().unwrap())
}

fn stream_of(path: &std::path::Path) -> Vec<u8> {
    std::fs::read(path).unwrap()[STREAM_START..].to_vec()
}

/// Seals `body` into a CRC-valid frame under the one tag.
fn seal_frame(seq: u64, nonce: u64, body: &[u8]) -> Vec<u8> {
    let sealed = ctr_xor(&Speck64::from_u128(KEY), nonce, body);
    let mut frame = vec![TAG, 0, 0, 0, 0];
    frame.extend_from_slice(&seq.to_be_bytes());
    frame.extend_from_slice(&nonce.to_be_bytes());
    frame.extend_from_slice(&(sealed.len() as u32).to_be_bytes());
    frame.extend_from_slice(&sealed);
    let crc = crc32(&frame[5..]);
    frame[1..5].copy_from_slice(&crc.to_be_bytes());
    frame
}

fn entry(op: u8, key: u64, vlen: u32, value: &[u8]) -> Vec<u8> {
    let mut e = vec![op];
    e.extend_from_slice(&key.to_be_bytes());
    e.extend_from_slice(&vlen.to_be_bytes());
    e.extend_from_slice(value);
    e
}

#[test]
fn sentinel_singleton_and_txn_are_the_same_frame_shape() {
    let path = tmpfile("shapes");
    let mut wal = create(&path);
    let sentinel_end = wal.len_bytes() as usize;
    wal.append_insert(7, b"solo").unwrap();
    wal.commit().unwrap();
    let singleton_end = wal.len_bytes() as usize;
    wal.append_group([(1, Some(&b"a"[..])), (2, None), (3, Some(&b"ccc"[..]))])
        .unwrap();
    wal.commit().unwrap();
    let txn_end = wal.len_bytes() as usize;
    drop(wal);
    let stream = stream_of(&path);

    // The sentinel: a group of one OP_KEYCHECK sealing a 16-byte constant.
    let (seq, body, end) = frame_at(&stream, 0);
    assert_eq!((seq, end, count(&body)), (1, sentinel_end, 1));
    assert_eq!(body.len(), 4 + 13 + 16);
    assert_eq!(body[4], OP_KEYCHECK);

    // A singleton commit: one frame, count == 1.
    let (seq, body, end) = frame_at(&stream, end);
    assert_eq!((seq, end, count(&body)), (2, singleton_end, 1));
    assert_eq!(body[4..], entry(OP_INSERT, 7, 4, b"solo")[..]);

    // A 3-op transaction: one frame, count == 3, three consecutive seqs.
    let (seq, body, end) = frame_at(&stream, end);
    assert_eq!((seq, end, count(&body)), (3, txn_end, 3));
    assert_eq!(body.len(), 4 + 3 * 13 + 1 + 3);
    assert!(
        stream[end..].iter().all(|&b| b == 0),
        "nothing but zero padding follows the last frame"
    );
    std::fs::remove_file(&path).ok();
}

/// A good record, then one hand-sealed frame whose body breaks the group
/// grammar under a valid CRC: replay must keep the good record, flag the
/// rest torn, and leave a log that still takes appends.
#[test]
fn corrupt_bodies_under_a_valid_crc_replay_as_a_clean_prefix() {
    let good = entry(OP_INSERT, 9, 2, b"ok");
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("count == 0", [&0u32.to_be_bytes()[..], &good].concat()),
        (
            "count > blen / 13",
            [&3u32.to_be_bytes()[..], &good, &good].concat(),
        ),
        ("count == u32::MAX", {
            let mut body = vec![0u8; 4 + 2 * 13];
            body[..4].copy_from_slice(&u32::MAX.to_be_bytes());
            body
        }),
        (
            "unknown op",
            [&1u32.to_be_bytes()[..], &entry(9, 9, 2, b"ok")].concat(),
        ),
        (
            "key-check op past seq 1",
            [&1u32.to_be_bytes()[..], &entry(OP_KEYCHECK, 0, 2, b"ok")].concat(),
        ),
        (
            "trailing bytes",
            [&1u32.to_be_bytes()[..], &good, &[0xEE; 3]].concat(),
        ),
        (
            "vlen past the end",
            [&1u32.to_be_bytes()[..], &entry(OP_INSERT, 9, 200, b"ok")].concat(),
        ),
        (
            "vlen == u32::MAX",
            [
                &1u32.to_be_bytes()[..],
                &entry(OP_INSERT, 9, u32::MAX, b"ok"),
            ]
            .concat(),
        ),
    ];
    for (i, (name, body)) in cases.into_iter().enumerate() {
        let path = tmpfile(&format!("corrupt_{i}"));
        let mut wal = create(&path);
        wal.append_insert(1, b"good").unwrap();
        wal.commit().unwrap();
        let at = STREAM_START + wal.len_bytes() as usize;
        drop(wal);

        let frame = seal_frame(3, 0xBAD0_0000 + i as u64, &body);
        let mut raw = std::fs::read(&path).unwrap();
        raw[at..at + frame.len()].copy_from_slice(&frame);
        std::fs::write(&path, &raw).unwrap();

        let (mut wal, replay) =
            Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        assert_eq!(replay.records.len(), 1, "{name}: the prefix survives");
        assert_eq!(
            replay.records[0].op,
            WalOp::Insert {
                key: 1,
                value: b"good".to_vec()
            },
            "{name}"
        );
        assert!(replay.torn_tail, "{name}: the bad frame is a torn tail");
        assert_eq!(replay.bytes_discarded, frame.len() as u64, "{name}");
        wal.append_insert(2, b"after").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new()).unwrap();
        assert!(!replay.torn_tail, "{name}: the scrub was durable");
        assert_eq!(replay.records.len(), 2, "{name}");
        std::fs::remove_file(&path).ok();
    }
}

/// Logs this build cannot read must be *refused*, like a wrong key: a
/// configuration error, and not one byte of the file touched. Treating
/// one as a torn tail would cut a log this build merely cannot read. Two
/// older formats, both in the block-device container (`FileDisk`, magic
/// `SKSBTRE1`): a legacy `E(op ‖ key ‖ value)` grammar under the same
/// `0xA5` tag, and today's frame grammar in blocks, as the log was
/// written before it became a plain byte file.
#[test]
fn parent_format_log_is_refused_not_scrubbed() {
    let legacy_body = |op: u8, key: u64, value: &[u8]| {
        let mut b = vec![op];
        b.extend_from_slice(&key.to_be_bytes());
        b.extend_from_slice(value);
        b
    };
    let group_body = |op: u8, key: u64, value: &[u8]| {
        [
            &1u32.to_be_bytes()[..],
            &entry(op, key, value.len() as u32, value),
        ]
        .concat()
    };
    let cases = [
        (
            "legacy grammar",
            seal_frame(1, 0x1111, &legacy_body(OP_KEYCHECK, 0, b"SKSWAL-KEYCHECK1")),
            seal_frame(2, 0x2222, &legacy_body(OP_INSERT, 5, b"legacy-record")),
        ),
        (
            "block container",
            seal_frame(1, 0x3333, &group_body(OP_KEYCHECK, 0, b"SKSWAL-KEYCHECK1")),
            seal_frame(2, 0x4444, &group_body(OP_INSERT, 5, b"block-record")),
        ),
    ];
    for (i, (name, sentinel, record)) in cases.into_iter().enumerate() {
        let path = tmpfile(&format!("parent_format_{i}"));
        let mut block = vec![0u8; BLOCK];
        block[..sentinel.len()].copy_from_slice(&sentinel);
        block[sentinel.len()..sentinel.len() + record.len()].copy_from_slice(&record);
        {
            let mut disk = FileDisk::create(&path, BLOCK).unwrap();
            let id = disk.allocate().unwrap();
            assert_eq!(id, BlockId(0));
            disk.write_block(id, &block).unwrap();
            disk.flush().unwrap();
        }
        let before = std::fs::read(&path).unwrap();

        let err = Wal::open(&path, KEY, SyncPolicy::Always, OpCounters::new())
            .map(|_| ())
            .expect_err("an older-format log must be refused");
        assert!(matches!(err, EngineError::Config(_)), "{name}: got {err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "{name}: a refused open must not modify the file"
        );
        std::fs::remove_file(&path).ok();
    }
}
