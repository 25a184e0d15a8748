//! `read_with` / `update_with` are the copy path without the copy: on the
//! stores that lend their pages (`MemDisk`, `PagedFileStore`) a random
//! trace run through the borrowed methods moves every `OpCounters` field
//! exactly as the same trace through `read_block_vec` and a read, modify,
//! `write_block` round moves it, and leaves the same pages behind.

use std::path::PathBuf;

use sks_storage::{BlockId, BlockStore, MemDisk, OpCounters, PagedFileStore, StorageError};

const BLOCK: usize = 64;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What an update does to a page: a deterministic edit of a few bytes.
fn edit(page: &mut [u8], r: u64) {
    let at = (r >> 16) as usize % page.len();
    page[at] ^= (r >> 8) as u8 | 1;
    page[0] = page[0].wrapping_add(1);
}

/// Runs one seeded trace on both stores, `copy` through the copy path and
/// `lent` through the borrowed methods, checking after every step.
fn replay<S: BlockStore>(mut copy: S, mut lent: S, seed: u64, steps: usize) {
    let mut rng = seed;
    for step in 0..steps {
        let r = splitmix64(&mut rng);
        let blocks = copy.num_blocks();
        let id = BlockId(if blocks == 0 {
            0
        } else {
            (r >> 32) as u32 % blocks
        });
        match r % 10 {
            0 => {
                assert_eq!(copy.allocate(), lent.allocate(), "step {step}");
            }
            1..=3 => {
                let want = copy.read_block_vec(id);
                let mut got = None;
                let res = lent.read_with(id, &mut |page| got = Some(page.to_vec()));
                match want {
                    Ok(page) => {
                        res.unwrap();
                        assert_eq!(got, Some(page), "step {step}");
                    }
                    Err(e) => {
                        assert_eq!(res, Err(e), "step {step}");
                        assert_eq!(got, None, "step {step}");
                    }
                }
            }
            4..=6 => {
                let want = copy.read_block_vec(id).and_then(|mut page| {
                    edit(&mut page, r);
                    copy.write_block(id, &page)
                });
                let got = lent.update_with(id, &mut |page| edit(page, r));
                assert_eq!(got, want, "step {step}");
            }
            7 => {
                let page = [(r >> 24) as u8; BLOCK];
                assert_eq!(
                    copy.write_block(id, &page),
                    lent.write_block(id, &page),
                    "step {step}"
                );
            }
            8 => {
                assert_eq!(copy.free(id), lent.free(id), "step {step}");
            }
            _ => {
                assert_eq!(copy.flush(), lent.flush(), "step {step}");
            }
        }
        assert_eq!(
            copy.counters().snapshot(),
            lent.counters().snapshot(),
            "step {step}"
        );
        assert_eq!(copy.dirty_pages(), lent.dirty_pages(), "step {step}");
    }
    let pages = |s: &S| -> Vec<Result<Vec<u8>, StorageError>> {
        (0..s.num_blocks())
            .map(|b| s.read_block_vec(BlockId(b)))
            .collect()
    };
    assert_eq!(pages(&copy), pages(&lent));
    copy.flush().unwrap();
    lent.flush().unwrap();
    assert_eq!(copy.raw_image().unwrap(), lent.raw_image().unwrap());
}

#[test]
fn memdisk_borrowed_access_counts_as_the_copy_path() {
    for seed in 0..4 {
        replay(MemDisk::new(BLOCK), MemDisk::new(BLOCK), seed, 3_000);
    }
}

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sks_borrowed_{}_{name}", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

/// A pool of four frames over a few dozen blocks: hits, misses, clean and
/// pinned-dirty evictions and checkpoints all occur.
#[test]
fn paged_store_borrowed_access_counts_as_the_copy_path() {
    for seed in 0..4 {
        let (a, b) = (
            tmpfile(&format!("copy{seed}")),
            tmpfile(&format!("lent{seed}")),
        );
        let open = |p: &PathBuf| PagedFileStore::create(p, BLOCK, 4, OpCounters::new()).unwrap();
        replay(open(&a), open(&b), seed, 3_000);
        for p in [a, b] {
            let mut journal = p.clone().into_os_string();
            journal.push(".journal");
            std::fs::remove_file(&p).ok();
            std::fs::remove_file(journal).ok();
        }
    }
}
