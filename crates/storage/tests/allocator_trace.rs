//! Every block store allocates the same way: one seeded trace of
//! `allocate`, `allocate_min`, `free`, `claim_free` and
//! `truncate_free_tail` (plus writes and reads) runs against a bare
//! `MemDisk` and one other store — `MemDisk` behind `FailStore`, or
//! `PagedFileStore` or `FileDisk`, each bare and behind `FailStore` — and
//! after every step both report the same ids, results, free lists and
//! device lengths. The file stores also flush and reopen mid-trace, so the
//! persisted free chain must come back in the same order.

use std::path::{Path, PathBuf};

use sks_storage::{
    BlockId, BlockStore, FailStore, FileDisk, MemDisk, OpCounters, PagedFileStore, StorageError,
};

const BLOCK: usize = 64;
const STEPS: usize = 1_500;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

type Store = Box<dyn BlockStore>;

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sks_alloc_trace_{}_{}", std::process::id(), name));
    std::fs::remove_file(&p).ok();
    std::fs::remove_file(journal_of(&p)).ok();
    p
}

fn journal_of(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap().to_os_string();
    name.push(".journal");
    path.with_file_name(name)
}

fn failing(store: impl BlockStore + 'static) -> Store {
    Box::new(FailStore::new(store).0)
}

/// Runs the trace on a bare `MemDisk` and on `store`. Where `reopen` is
/// given, the trace now and then flushes and drops `store` and carries on
/// with what `reopen` returns.
fn replay(seed: u64, mut store: Store, reopen: Option<&dyn Fn() -> Store>) {
    let mut mem: Store = Box::new(MemDisk::new(BLOCK));
    let mut rng = seed;
    for step in 0..STEPS {
        let r = splitmix64(&mut rng);
        let blocks = mem.num_blocks();
        let any = BlockId((r >> 32) as u32 % (blocks + 1));
        let free = mem.free_block_ids();
        let ctx = format!("seed {seed} step {step} op {}", r % 12);
        match r % 12 {
            0..=2 => {
                let id = mem.allocate().unwrap();
                assert_eq!(store.allocate(), Ok(id), "{ctx}");
                let page = [step as u8 | 1; BLOCK];
                mem.write_block(id, &page).unwrap();
                store.write_block(id, &page).unwrap();
            }
            3 => assert_eq!(store.allocate_min(), mem.allocate_min(), "{ctx}"),
            4..=6 => assert_eq!(store.free(any), mem.free(any), "{ctx}"),
            7 => {
                // Mostly a free block, sometimes any block.
                let id = match free.len() {
                    0 => any,
                    n if r & 0x100 == 0 => BlockId(free[(r >> 40) as usize % n]),
                    _ => any,
                };
                assert_eq!(store.claim_free(id), mem.claim_free(id), "{ctx}");
            }
            8 => assert_eq!(
                store.truncate_free_tail(),
                mem.truncate_free_tail(),
                "{ctx}"
            ),
            9 | 10 => assert_eq!(store.read_block_vec(any), mem.read_block_vec(any), "{ctx}"),
            _ => {
                if let Some(reopen) = reopen {
                    store.flush().unwrap();
                    drop(store);
                    store = reopen();
                }
            }
        }
        assert_eq!(store.num_blocks(), mem.num_blocks(), "{ctx}");
        assert_eq!(store.free_blocks(), mem.free_blocks(), "{ctx}");
        assert_eq!(store.free_block_ids(), mem.free_block_ids(), "{ctx}");
    }
    // Every live block holds what the reference holds.
    for id in (0..mem.num_blocks()).map(BlockId) {
        assert_eq!(store.read_block_vec(id), mem.read_block_vec(id), "{id}");
    }
}

const SEEDS: [u64; 3] = [1, 7, 2024];

#[test]
fn memdisk_behind_failstore_allocates_as_memdisk() {
    for seed in SEEDS {
        replay(seed, failing(MemDisk::new(BLOCK)), None);
    }
}

fn paged(name: &str, wrap: fn(PagedFileStore) -> Store) {
    for seed in SEEDS {
        let path = tmpfile(&format!("{name}_{seed}"));
        let create = PagedFileStore::create(&path, BLOCK, 8, OpCounters::new()).unwrap();
        let reopen = || wrap(PagedFileStore::open(&path, 8, OpCounters::new()).unwrap());
        replay(seed, wrap(create), Some(&reopen));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(journal_of(&path)).ok();
    }
}

fn filedisk(name: &str, wrap: fn(FileDisk) -> Store) {
    for seed in SEEDS {
        let path = tmpfile(&format!("{name}_{seed}"));
        let create = FileDisk::create(&path, BLOCK).unwrap();
        let reopen = || wrap(FileDisk::open(&path).unwrap());
        replay(seed, wrap(create), Some(&reopen));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn paged_store_allocates_as_memdisk() {
    paged("paged", |s| Box::new(s));
}

#[test]
fn paged_store_behind_failstore_allocates_as_memdisk() {
    paged("paged_fail", failing);
}

#[test]
fn filedisk_allocates_as_memdisk() {
    filedisk("file", |s| Box::new(s));
}

#[test]
fn filedisk_behind_failstore_allocates_as_memdisk() {
    filedisk("file_fail", failing);
}

/// A chain whose link leaves the device, or loops, is refused at open as
/// corrupt; it neither panics nor reads as "nothing free".
#[test]
fn a_free_chain_past_the_device_fails_open_as_corrupt() {
    for (name, link) in [("escape", 1_000u32), ("loop", 1)] {
        let path = tmpfile(name);
        {
            let mut disk = FileDisk::create(&path, BLOCK).unwrap();
            for _ in 0..3 {
                disk.allocate().unwrap();
            }
            disk.free(BlockId(1)).unwrap();
            disk.flush().unwrap();
        }
        // Block 1 is the chain's only link; aim it elsewhere. The header
        // is 8 KiB.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = 8192 + BLOCK;
        bytes[at..at + 4].copy_from_slice(&link.to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(FileDisk::open(&path), Err(StorageError::Corrupt(_))),
            "{name}"
        );
        assert!(
            matches!(
                PagedFileStore::open(&path, 8, OpCounters::new()),
                Err(StorageError::Corrupt(_))
            ),
            "{name}"
        );
        std::fs::remove_file(&path).ok();
    }
}
