//! Workload generation for the experiments: deterministic key sets, tree
//! builders per scheme, and ground truth extraction for the attack
//! experiment.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use sks_attack::{Edge, GroundTruth};
use sks_core::{EncipheredBTree, Scheme, SchemeConfig};

/// Deterministic shuffled key set `start..start+n`.
pub fn shuffled_keys(start: u64, n: u64, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (start..start + n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    keys.shuffle(&mut rng);
    keys
}

/// Keys valid for a scheme: exponentiation schemes exclude 0.
pub fn keys_for(scheme: Scheme, n: u64, seed: u64) -> Vec<u64> {
    match scheme {
        Scheme::Exponentiation | Scheme::ExponentiationPaper => shuffled_keys(1, n, seed),
        _ => shuffled_keys(0, n, seed),
    }
}

/// Builds a populated tree for a scheme at a given scale and block size.
pub fn build_tree(scheme: Scheme, n_keys: u64, block_size: usize, seed: u64) -> EncipheredBTree {
    let mut cfg = SchemeConfig::with_capacity(scheme, n_keys + 2);
    cfg.block_size = block_size;
    let mut tree = EncipheredBTree::create_in_memory(cfg).expect("config must build");
    for k in keys_for(scheme, n_keys, seed) {
        tree.insert(k, record_for(k)).expect("insert in-domain key");
    }
    tree
}

/// Synthetic record payload for key `k`.
pub fn record_for(k: u64) -> Vec<u8> {
    format!("employee:{k:08};dept:{};salary:{}", k % 17, 30_000 + k * 13).into_bytes()
}

/// Random lookup keys drawn from the inserted domain.
pub fn lookup_keys(scheme: Scheme, n_keys: u64, lookups: usize, seed: u64) -> Vec<u64> {
    let lo = match scheme {
        Scheme::Exponentiation | Scheme::ExponentiationPaper => 1,
        _ => 0,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    (0..lookups)
        .map(|_| rng.gen_range(lo..lo + n_keys))
        .collect()
}

/// Extracts the true parent→child edge set and (key, disguised) pairs from a
/// live tree — the experimenter's ground truth for the attack report.
pub fn ground_truth(tree: &EncipheredBTree) -> GroundTruth {
    let mut edges = Vec::new();
    let mut stack = vec![tree.tree().root_id()];
    let mut keys = Vec::new();
    while let Some(id) = stack.pop() {
        let node = tree.tree().inspect_node(id).expect("live tree");
        keys.extend_from_slice(&node.keys);
        for &child in &node.children {
            edges.push(Edge {
                parent: id.as_u32(),
                child: child.as_u32(),
            });
            stack.push(child);
        }
    }
    let key_pairs = match tree.disguise() {
        Some(d) => keys
            .iter()
            .filter_map(|&k| d.disguise(k).ok().map(|dk| (k, dk)))
            .collect(),
        None => Vec::new(),
    };
    GroundTruth { edges, key_pairs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_keys_are_a_permutation() {
        let keys = shuffled_keys(0, 100, 7);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u64>>());
        assert_ne!(keys, sorted, "seeded shuffle must actually shuffle");
        // Deterministic.
        assert_eq!(keys, shuffled_keys(0, 100, 7));
    }

    #[test]
    fn build_tree_all_measured_schemes() {
        for scheme in Scheme::MEASURED {
            let tree = build_tree(scheme, 200, 1024, 3);
            assert_eq!(tree.len(), 200, "{}", scheme.name());
            tree.validate().unwrap();
        }
    }

    #[test]
    fn ground_truth_edges_count_matches_structure() {
        let tree = build_tree(Scheme::Oval, 500, 512, 1);
        let gt = ground_truth(&tree);
        // A tree with E edges has E+1 nodes.
        let mut nodes: std::collections::HashSet<u32> = gt.edges.iter().map(|e| e.child).collect();
        nodes.insert(tree.tree().root_id().as_u32());
        assert_eq!(nodes.len(), gt.edges.len() + 1);
        assert_eq!(gt.key_pairs.len() as u64, tree.len());
    }

    #[test]
    fn exp_keys_exclude_zero() {
        let keys = keys_for(Scheme::Exponentiation, 50, 9);
        assert!(!keys.contains(&0));
        assert!(keys.contains(&50));
    }
}
