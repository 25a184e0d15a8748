//! Every concrete number printed in the paper, verified through the public
//! facade. If any of these fail, the reproduction has drifted from the
//! source.

use sks_btree::core::disguise::{KeyDisguise, PaperExpSubstitution, SumSubstitution};
use sks_btree::core::OvalSubstitution;
use sks_btree::designs::arith::pow_mod;
use sks_btree::designs::DifferenceSet;
use sks_btree::storage::OpCounters;

/// p. 53, left-hand block design (lines) — all 13 rows.
#[test]
fn page53_lines_table() {
    let ds = DifferenceSet::paper_13_4_1();
    let expected: [[u64; 4]; 13] = [
        [0, 1, 3, 9],
        [1, 2, 4, 10],
        [2, 3, 5, 11],
        [3, 4, 6, 12],
        [4, 5, 7, 0],
        [5, 6, 8, 1],
        [6, 7, 9, 2],
        [7, 8, 10, 3],
        [8, 9, 11, 4],
        [9, 10, 12, 5],
        [10, 11, 0, 6],
        [11, 12, 1, 7],
        [12, 0, 2, 8],
    ];
    for (y, row) in expected.iter().enumerate() {
        assert_eq!(ds.line_in_base_order(y as u64), row.to_vec(), "L{y}");
    }
}

/// p. 53, right-hand block design (ovals, t = 7) — all 13 rows.
#[test]
fn page53_ovals_table() {
    let ds = DifferenceSet::paper_13_4_1();
    let expected: [[u64; 4]; 13] = [
        [0, 7, 8, 11],
        [7, 1, 2, 5],
        [1, 8, 9, 12],
        [8, 2, 3, 6],
        [2, 9, 10, 0],
        [9, 3, 4, 7],
        [3, 10, 11, 1],
        [10, 4, 5, 8],
        [4, 11, 12, 2],
        [11, 5, 6, 9],
        [5, 12, 0, 3],
        [12, 6, 7, 10],
        [6, 0, 1, 4],
    ];
    for (y, row) in expected.iter().enumerate() {
        assert_eq!(ds.oval_in_base_order(y as u64, 7), row.to_vec(), "O{y}");
    }
}

/// §4.1's prose: "the search key 1 is substituted by 7, 2 by 1, 3 by 8,
/// 4 by 2 and so on".
#[test]
fn section_4_1_substitution_prose() {
    let d = OvalSubstitution::paper_example(OpCounters::new());
    assert_eq!(d.disguise(1).unwrap(), 7);
    assert_eq!(d.disguise(2).unwrap(), 1);
    assert_eq!(d.disguise(3).unwrap(), 8);
    assert_eq!(d.disguise(4).unwrap(), 2);
}

/// §4.1's secrecy claim: only {v,k,λ}, L₀ and the mapping are secret —
/// constant-size material, no conversion tables.
#[test]
fn section_4_1_secret_material_is_constant_size() {
    let d = OvalSubstitution::paper_example(OpCounters::new());
    // 3 params + 4 base treatments + t, all u64.
    assert_eq!(d.secret_size_bytes(), 3 * 8 + 4 * 8 + 8);
}

/// §4.2's example parameters: g = 7 is a primitive element of Z₁₃, and the
/// printed grid rows hold.
#[test]
fn section_4_2_grid() {
    assert!(sks_btree::designs::primes::is_primitive_root(7, 13));
    let d = PaperExpSubstitution::paper_example(OpCounters::new());
    let lines = d.line_exponent_grid();
    let ovals = d.oval_exponent_grid();
    // Printed row 0: 7^0 7^1 7^3 7^9 | 7^0 7^7 7^8 7^11.
    assert_eq!(lines[0], vec![0, 1, 3, 9]);
    assert_eq!(ovals[0], vec![0, 7, 8, 11]);
    // Printed row 8: 7^8 7^9 7^11 7^4 | 7^4 7^11 7^12 7^2.
    assert_eq!(lines[8], vec![8, 9, 11, 4]);
    assert_eq!(ovals[8], vec![4, 11, 12, 2]);
    // Substitution of an actual key: k = 7^2 mod 13 = 10 has treatment 2,
    // oval exponent 14 mod 13 = 1, so k̂ = 7^1 = 7.
    assert_eq!(d.disguise(10).unwrap(), 7);
    assert_eq!(pow_mod(7, 2, 13), 10);
}

/// §4.3's printed k̂ column: 13, 30, 51, 76, 92, 112, 136, 164, 196, 232,
/// 259, 290, 312.
#[test]
fn section_4_3_cumulative_sums() {
    let ds = DifferenceSet::paper_13_4_1();
    let expected: [u128; 13] = [13, 30, 51, 76, 92, 112, 136, 164, 196, 232, 259, 290, 312];
    for (x, &want) in expected.iter().enumerate() {
        assert_eq!(ds.cumulative_sum(0, x as u64), want, "key {x}");
    }
}

/// §4.3's ordering claim: "the corresponding substitute search keys derived
/// through the summation of treatments is a set of integers maintaining
/// that ascending order".
#[test]
fn section_4_3_order_preservation() {
    let d = SumSubstitution::paper_example(OpCounters::new());
    let subs: Vec<u64> = (0..11).map(|k| d.disguise(k).unwrap()).collect();
    assert!(subs.windows(2).all(|w| w[0] < w[1]));
    assert!(d.order_preserving());
}

/// §4's structural requirement `v > R` (the design must out-size the
/// record count) is enforced.
#[test]
fn v_much_greater_than_r_enforced() {
    use sks_btree::core::{Scheme, SchemeConfig};
    for r in [100u64, 5_000, 200_000] {
        let cfg = SchemeConfig::with_capacity(Scheme::Oval, r);
        let ds = cfg.build_design().unwrap();
        assert!(ds.v() > r, "v = {} for R = {r}", ds.v());
    }
}

/// The (13,4,1) design is the projective plane of order 3 (v = n²+n+1,
/// k = n+1, λ = 1 with n = 3), as §4 sets up.
#[test]
fn design_is_projective_plane_order_3() {
    let ds = DifferenceSet::paper_13_4_1();
    let n = 3u64;
    assert_eq!(ds.v(), n * n + n + 1);
    assert_eq!(ds.k(), n + 1);
    assert_eq!(ds.lambda(), 1);
    let dev = sks_btree::designs::BlockDesign::develop(&ds);
    dev.verify_bibd().unwrap();
}

/// §3's comparison as physical work, through the node cache: a cold search
/// under key substitution deciphers one pointer per node visited, the
/// Bayer–Metzger baseline the triplets each node's binary
/// search-and-decrypt crosses.
#[test]
fn section_3_cold_search_deciphers_fewer_triplets_under_substitution() {
    use sks_btree::core::{EncipheredBTree, ObsLevel, Scheme, SchemeConfig};
    use sks_btree::storage::Stage;

    let n = 2_000u64;
    let items: Vec<(u64, Vec<u8>)> = (0..n).map(|k| (k, vec![7])).collect();
    // (triplets physically deciphered, logical counter delta) of the same
    // cold point searches under `scheme`.
    let search = |scheme| {
        let cfg = SchemeConfig::with_capacity(scheme, n + 2).observability(ObsLevel::Histograms);
        let tree = EncipheredBTree::bulk_create(cfg, &items).unwrap();
        // A miss is one `NodeUnseal` sample, each triplet a cached node
        // deciphers another.
        let deciphered = || {
            let stages = tree.counters().obs().stages_snapshot();
            stages[Stage::NodeUnseal as usize].1.count - tree.snapshot().node_cache_misses
        };
        let (held, before) = (deciphered(), tree.snapshot());
        for k in (0..n).step_by(97) {
            assert!(tree.get_pointer(k).unwrap().is_some());
        }
        (deciphered() - held, tree.snapshot().delta(&before))
    };
    let (oval, logical) = search(Scheme::Oval);
    assert_eq!(logical.key_decrypts, 0);
    assert!(oval <= logical.ptr_decrypts && logical.ptr_decrypts <= logical.node_visits);
    let (bm, logical) = search(Scheme::BayerMetzger);
    assert!(bm <= logical.key_decrypts + logical.ptr_decrypts);
    assert!(
        bm > 2 * oval,
        "substitution {oval} triplets, search-and-decrypt {bm}"
    );
}
