//! The opponent who images the medium twice. Every per-triplet cryptogram
//! is a deterministic function of the block number and the triplet's
//! content, so diffing two images of one leaf shows *which* slots an update
//! touched and whether the (disguised) key set changed — and nothing else:
//! no pointer plaintext, and no trace of whether the engine re-sealed the
//! whole node or copied the unchanged cryptograms from its node cache.

use sks_attack::{parse_block, FormatKnowledge, VisibleBlock};
use sks_btree_core::NodeCodec;
use sks_core::{EncipheredBTree, Scheme, SchemeConfig};

/// What one image of a leaf shows without any secret: the disguised key
/// fields (substitution only — Bayer–Metzger seals the keys inside) and
/// one cryptogram per slot.
struct VisibleLeaf<'a> {
    raw_keys: Option<Vec<u64>>,
    cryptograms: Vec<&'a [u8]>,
}

fn visible_leaf(page: &[u8]) -> VisibleLeaf<'_> {
    let knowledge = FormatKnowledge::default();
    let cut = |n: usize, stride: usize, skip: usize| {
        let slot = |i: usize| &page[8 + i * stride + skip..8 + (i + 1) * stride];
        (0..n).map(slot).collect()
    };
    match parse_block(page, &knowledge) {
        VisibleBlock::SubstitutionNode {
            is_leaf: true,
            raw_keys,
            ..
        } => VisibleLeaf {
            cryptograms: cut(raw_keys.len(), 8 + knowledge.seal_len, 8),
            raw_keys: Some(raw_keys),
        },
        VisibleBlock::SealedNode {
            is_leaf: true, n, ..
        } => VisibleLeaf {
            raw_keys: None,
            cryptograms: cut(n, 24, 0),
        },
        other => panic!("not a leaf image: {other:?}"),
    }
}

/// The opponent's diff: slots of `after` whose cryptogram no slot of
/// `before` holds, slots of `before` whose cryptogram is gone, and — where
/// key fields are visible — whether their set changed.
fn diff(before: &[u8], after: &[u8]) -> (Vec<usize>, Vec<usize>, Option<bool>) {
    let (before, after) = (visible_leaf(before), visible_leaf(after));
    let missing_from = |these: &[&[u8]], those: &[&[u8]]| -> Vec<usize> {
        let absent = |slot: &usize| !those.contains(&these[*slot]);
        (0..these.len()).filter(absent).collect()
    };
    let sorted = |mut keys: Vec<u64>| {
        keys.sort_unstable();
        keys
    };
    let keys_changed = before
        .raw_keys
        .zip(after.raw_keys)
        .map(|(b, a)| sorted(b) != sorted(a));
    (
        missing_from(&after.cryptograms, &before.cryptograms),
        missing_from(&before.cryptograms, &after.cryptograms),
        keys_changed,
    )
}

/// Four images of one leaf — as built, after an overwrite, after an insert
/// and after a delete — with what sealing the leaf each holds from scratch
/// writes instead, the leaf's keys and the data pointers that were ever
/// sealed into the touched slots.
type History = (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<u64>, Vec<u64>);

fn leaf_history(scheme: Scheme) -> History {
    let mut config = SchemeConfig::with_capacity(scheme, 400);
    config.block_size = 512;
    let mut tree = EncipheredBTree::create_in_memory(config).unwrap();
    for k in 1..=60u64 {
        tree.insert(2 * k, format!("row-{k}").into_bytes()).unwrap();
    }
    let btree = tree.tree();
    assert_eq!(btree.height(), 2);
    // A leaf with room both ways, so no update below rebalances.
    let root = btree.inspect_node(btree.root_id()).unwrap();
    let roomy = btree.min_degree()..btree.max_keys_per_node();
    let mut leaves = root
        .children
        .iter()
        .map(|&c| btree.inspect_node(c).unwrap());
    let leaf = leaves.find(|leaf| roomy.contains(&leaf.n())).unwrap();
    let image = |tree: &EncipheredBTree| tree.raw_node_image().unwrap()[leaf.id.0 as usize].clone();

    let (hit, fresh) = (leaf.keys[1], leaf.keys[1] + 1);
    let mut images = vec![image(&tree)];
    let mut pointers = vec![tree.get_pointer(hit).unwrap().unwrap().0];
    tree.insert(hit, b"row-rewritten".to_vec()).unwrap();
    pointers.push(tree.get_pointer(hit).unwrap().unwrap().0);
    images.push(image(&tree));
    tree.insert(fresh, b"row-new".to_vec()).unwrap();
    pointers.push(tree.get_pointer(fresh).unwrap().unwrap().0);
    images.push(image(&tree));
    tree.delete(hit).unwrap();
    images.push(image(&tree));
    let codec = tree.tree().codec();
    let from_scratch = images.iter().map(|page| {
        let node = codec.decode(leaf.id, page).unwrap();
        let mut scratch = vec![0u8; page.len()];
        codec.encode(&node, &mut scratch).unwrap();
        scratch
    });
    let from_scratch = from_scratch.collect();
    (images, from_scratch, leaf.keys.clone(), pointers)
}

#[test]
fn diffing_two_images_of_a_leaf_shows_the_touched_slot_and_no_more() {
    for scheme in [Scheme::Oval, Scheme::SumOfTreatments, Scheme::BayerMetzger] {
        let (images, from_scratch, keys, pointers) = leaf_history(scheme);
        let [built, overwritten, inserted, deleted] = &images[..] else {
            panic!("four images");
        };
        let substitution = scheme != Scheme::BayerMetzger;
        let n = keys.len();
        assert_eq!(visible_leaf(built).cryptograms.len(), n);

        // Overwrite of the second key: that slot's cryptogram changed in
        // place; the key set did not.
        let (new, gone, keys_changed) = diff(built, overwritten);
        assert_eq!((new, gone), (vec![1], vec![1]), "{scheme:?}");
        assert_eq!(keys_changed, substitution.then_some(false), "{scheme:?}");
        // At cipher-block granularity, as under any deterministic CBC: the
        // leading block — `b ‖ a_hi` under the sealer, the key under
        // Bayer–Metzger — was not touched and reads the same; the rest of
        // the cryptogram shares nothing with what it replaced.
        let (was, is) = (
            visible_leaf(built).cryptograms[1],
            visible_leaf(overwritten).cryptograms[1],
        );
        assert_eq!(was[..8], is[..8], "{scheme:?}");
        assert!(was[8..]
            .chunks(8)
            .zip(is[8..].chunks(8))
            .all(|(w, i)| w != i));
        // Insert of its successor: one new cryptogram, right after it (the
        // slot is the new key's rank in the leaf), none gone.
        let (new, gone, keys_changed) = diff(overwritten, inserted);
        assert_eq!((new, gone), (vec![2], vec![]), "{scheme:?}");
        assert_eq!(keys_changed, substitution.then_some(true), "{scheme:?}");
        // Delete of the second key: its cryptogram is gone, none is new.
        let (new, gone, keys_changed) = diff(inserted, deleted);
        assert_eq!((new, gone), (vec![], vec![1]), "{scheme:?}");
        assert_eq!(keys_changed, substitution.then_some(true), "{scheme:?}");
        assert_eq!(visible_leaf(deleted).cryptograms.len(), n);

        // Nothing of `a`: no data pointer ever sealed into a touched slot
        // shows in any image. (`p` is 0 in a leaf.)
        for (page, a) in images
            .iter()
            .flat_map(|p| pointers.iter().map(move |a| (p, a)))
        {
            let plain = a.to_be_bytes();
            assert!(!page.windows(8).any(|w| w == plain), "{scheme:?}: {a:#x}");
        }

        // And nothing of the engine: sealing each image's leaf from
        // scratch, as a write with no image to copy from would, writes
        // the same four images.
        assert!(from_scratch == images, "{scheme:?}");
    }
}
