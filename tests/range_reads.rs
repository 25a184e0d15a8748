//! A range scan reads its records a data-block run at a time; a point get
//! reads one. For every scheme, on the memory and the file backend, a
//! range must equal the per-key gets of its keys and a model of the
//! writes: over runs that span many data blocks, keys overwritten (their
//! new records break the runs) and deleted, and records the point gets
//! left in the record cache mixed in with ones read from the page.

use std::collections::BTreeMap;

use sks_btree::core::{EncipheredBTree, Scheme, SchemeConfig};

/// A scheme's configuration, the keys it holds and the longest value: the
/// literal §4.2 construction only has its worked example's domain.
fn setup(scheme: Scheme) -> (SchemeConfig, Vec<u64>, usize) {
    match scheme {
        Scheme::ExponentiationPaper => (SchemeConfig::demo(scheme), vec![3, 4, 5, 6, 8, 9, 11], 40),
        _ => {
            // More records than the record cache holds, so the oldest
            // inserts are read off the page on the memory backend too.
            let mut config = SchemeConfig::with_capacity(scheme, 1_500);
            config.block_size = 1024;
            (config, (1..=1_300).collect(), 120)
        }
    }
}

fn value(key: u64, version: u8, max_len: usize) -> Vec<u8> {
    let len = 10 + (key as usize * 37 + version as usize * 11) % (max_len - 10);
    (0..len)
        .map(|i| (key as u8) ^ version ^ (i as u8))
        .collect()
}

fn dir(scheme: Scheme) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sks_range_reads_{}_{}",
        std::process::id(),
        scheme.name()
    ))
}

#[test]
fn ranges_equal_per_key_gets_for_every_scheme_on_both_backends() {
    for scheme in Scheme::ALL {
        for on_disk in [false, true] {
            let what = format!(
                "{} on {}",
                scheme.name(),
                if on_disk { "file" } else { "memory" }
            );
            let (config, keys, max_len) = setup(scheme);
            let config = if on_disk {
                std::fs::remove_dir_all(dir(scheme)).ok();
                config.on_disk(dir(scheme))
            } else {
                config
            };
            let mut tree = EncipheredBTree::create(config.clone()).unwrap();
            let mut model = BTreeMap::new();
            for &k in &keys {
                tree.insert(k, value(k, 0, max_len)).unwrap();
                model.insert(k, value(k, 0, max_len));
            }
            for &k in keys.iter().step_by(5) {
                tree.insert(k, value(k, 1, max_len)).unwrap();
                model.insert(k, value(k, 1, max_len));
            }
            for &k in keys.iter().skip(1).step_by(7) {
                assert!(tree.delete(k).unwrap().is_some(), "{what}: delete {k}");
                model.remove(&k);
            }
            if on_disk {
                // Reopened: the records come off the file's pages and the
                // record cache starts empty.
                tree.flush().unwrap();
                drop(tree);
                tree = EncipheredBTree::open(config).unwrap();
            }
            // Point gets leave every third live record in the cache.
            for (&k, v) in model.iter().step_by(3) {
                assert_eq!(tree.get(k).unwrap().as_ref(), Some(v), "{what}: get {k}");
            }
            let blocks: std::collections::BTreeSet<u32> = model
                .keys()
                .map(|&k| tree.get_pointer(k).unwrap().unwrap().block().as_u32())
                .collect();
            assert!(
                blocks.len() >= 2,
                "{what}: the records span several data blocks"
            );

            let (first, last) = (keys[0], keys[keys.len() - 1]);
            let mut ranges = vec![
                (0, u64::MAX),
                (first, last),
                (first + 1, last - 1),
                (last, first),
            ];
            for &k in keys.iter().step_by(keys.len() / 5 + 1) {
                ranges.push((k, k));
                ranges.push((k, k + keys.len() as u64 / 4));
            }
            for (lo, hi) in ranges {
                let before = tree.snapshot();
                let got = tree.range(lo, hi).unwrap();
                let spent = tree.snapshot().delta(&before);
                let want: Vec<(u64, Vec<u8>)> = model
                    .iter()
                    .filter(|(&k, _)| lo <= k && k <= hi)
                    .map(|(&k, v)| (k, v.clone()))
                    .collect();
                assert_eq!(got, want, "{what}: range({lo}, {hi})");
                assert_eq!(
                    spent.data_decrypts,
                    want.len() as u64,
                    "{what}: range({lo}, {hi})"
                );
                let evicted = keys.len() > SchemeConfig::DEFAULT_RECORD_CACHE;
                if (lo, hi) == (0, u64::MAX) && (on_disk || evicted) {
                    // The first range, where only the point gets above
                    // have filled the cache.
                    assert!(spent.record_cache_hits > 0, "{what}: cache hits mixed in");
                    assert!(spent.record_cache_misses > 0, "{what}: page reads mixed in");
                }
                for (k, v) in &got {
                    assert_eq!(tree.get(*k).unwrap().as_ref(), Some(v), "{what}: get {k}");
                }
            }
            tree.validate().unwrap();
            drop(tree);
            if on_disk {
                std::fs::remove_dir_all(dir(scheme)).ok();
            }
        }
    }
}
