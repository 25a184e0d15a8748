//! The observability neutrality pin: the paper's comparative claims are
//! *counts*, so turning clocks and the flight recorder on or off must
//! never change a single counter. This runs an identical workload for
//! every measured scheme at every observability level and requires the
//! full counter snapshot — logical crypto counters and physical I/O
//! counters alike — to be byte-identical across levels.

use sks_core::{EncipheredBTree, ObsLevel, Scheme, SchemeConfig};
use sks_storage::{BlockId, BlockStore, Stage};

/// `node_unseal` samples recorded so far (0 below `Histograms`).
fn node_unseal_samples(tree: &EncipheredBTree) -> u64 {
    let stages = tree.counters().obs().stages_snapshot();
    let node_unseal = stages.iter().find(|(s, _)| *s == Stage::NodeUnseal);
    node_unseal.map_or(0, |(_, h)| h.count)
}

/// A workload touching every counted path: inserts (with replaces),
/// gets (hits and misses), deletes, range scans, compaction sweeps and
/// node-device passes, and a flush. The gets start on an emptied node
/// cache, so they cross the get path's timed sites — the miss fill and
/// each physical lazy unseal — at every level that reads a clock.
fn run_workload(scheme: Scheme, level: ObsLevel) -> Vec<(&'static str, u64)> {
    let mut cfg = SchemeConfig::with_capacity(scheme, 512).observability(level);
    cfg.block_size = 256;
    let mut tree = EncipheredBTree::create_in_memory(cfg).unwrap();
    // Exponentiation disguises exclude key 0; start at 1 everywhere so
    // the workload is scheme-independent.
    for k in 1..=120u64 {
        tree.insert(k, vec![k as u8; 48]).unwrap();
    }
    for k in (1..=120u64).step_by(3) {
        tree.insert(k, vec![0xC3; 64]).unwrap(); // replaces
    }
    let nodes = tree.tree();
    for id in 0..nodes.store().num_blocks() {
        nodes.node_cache().invalidate(BlockId(id));
    }
    let timed_before = node_unseal_samples(&tree);
    for k in 1..=160u64 {
        let _ = tree.get(k); // hits and (beyond 120) misses
    }
    assert_eq!(
        node_unseal_samples(&tree) > timed_before,
        level >= ObsLevel::Histograms,
        "{}: the get path is timed exactly when clocks are on",
        scheme.name()
    );
    for k in (1..=120u64).step_by(2) {
        tree.delete(k).unwrap();
    }
    tree.range(10, 90).unwrap();
    for _ in 0..6 {
        tree.compact_step(8).unwrap();
        tree.compact_nodes(8).unwrap();
    }
    tree.flush().unwrap();
    tree.validate().unwrap();
    tree.snapshot().fields()
}

#[test]
fn observability_preserves_logical_counters_exactly() {
    for scheme in Scheme::MEASURED {
        let baseline = run_workload(scheme, ObsLevel::Off);
        // The physical reuse telemetry is pinned with the rest: per-triplet
        // schemes copy cryptograms on this workload's writes, page-wide and
        // plaintext ones have none to copy.
        let reused = baseline
            .iter()
            .find(|(name, _)| *name == "triplet_seals_reused");
        let per_triplet = !matches!(scheme, Scheme::Plaintext | Scheme::BayerMetzgerPage);
        assert_eq!(reused.unwrap().1 > 0, per_triplet, "{}", scheme.name());
        for level in [
            ObsLevel::Counters,
            ObsLevel::Histograms,
            ObsLevel::FullTrace,
        ] {
            let got = run_workload(scheme, level);
            for (base, other) in baseline.iter().zip(&got) {
                assert_eq!(base.0, other.0, "counter order is fixed");
                assert_eq!(
                    base.1,
                    other.1,
                    "{}: counter `{}` changed between Off and {} ({} vs {})",
                    scheme.name(),
                    base.0,
                    level.name(),
                    base.1,
                    other.1,
                );
            }
        }
    }
}
