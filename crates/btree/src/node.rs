//! In-memory representation of a B-tree node block.
//!
//! Following §3 (and Elmasri & Navathe's layout), a node block with `n`
//! triplets carries `n` search keys `k₁ < … < k_n`, `n` data pointers
//! `a₁ … a_n`, and — when internal — `n + 1` tree pointers `p₀ … p_n`. The
//! *disk* representation of a node is owned entirely by the
//! [`NodeCodec`](crate::codec::NodeCodec); this struct is always plaintext.

use sks_storage::{wipe, BlockId};

/// Pointer to a record in a data block (opaque to the tree; the record
/// store packs block number and slot into it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordPtr(pub u64);

impl RecordPtr {
    /// Packs a data-block id and slot index.
    pub fn pack(block: BlockId, slot: u16) -> Self {
        RecordPtr(((block.0 as u64) << 16) | slot as u64)
    }

    pub fn block(self) -> BlockId {
        BlockId((self.0 >> 16) as u32)
    }

    pub fn slot(self) -> u16 {
        self.0 as u16
    }
}

impl std::fmt::Display for RecordPtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.block(), self.slot())
    }
}

/// One slot of a node in page order, as [`Node::slots`] lays it out,
/// unseals return it and [`crate::CachedNode::triplet`] reads it back:
/// `(kᵢ, aᵢ, pᵢ)`. `key` is 0 under schemes that keep the key outside the
/// cryptogram (substitution: it sits disguised in
/// [`crate::CachedNode::raw_keys`]); `child` is 0 in a leaf, and an
/// internal node's lone leftmost-pointer slot carries only `child`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Triplet {
    pub key: u64,
    pub data_ptr: u64,
    pub child: u32,
}

/// A plaintext B-tree node. Its keys and pointers are zeroized when it
/// drops, as a cache entry's are ([`crate::CachedNode`]): a node is built
/// to be rewritten, and the plaintext it held must not outlive the write
/// in freed heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The block this node lives in (bound into pointer cryptograms as `b`).
    pub id: BlockId,
    /// Search keys, strictly ascending.
    pub keys: Vec<u64>,
    /// Data pointer `aᵢ` for each key.
    pub data_ptrs: Vec<RecordPtr>,
    /// Child pointers; empty iff leaf, else `keys.len() + 1` entries.
    pub children: Vec<BlockId>,
}

impl Node {
    /// A fresh empty leaf.
    pub fn leaf(id: BlockId) -> Self {
        Node {
            id,
            keys: Vec::new(),
            data_ptrs: Vec::new(),
            children: Vec::new(),
        }
    }

    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Number of triplets `n`.
    pub fn n(&self) -> usize {
        self.keys.len()
    }

    /// The node's slots in page order — as every per-triplet codec lays
    /// them out and [`crate::CachedNode`] numbers them: an internal node's
    /// leftmost tree pointer alone in slot 0, then `(kᵢ, aᵢ, pᵢ)` per key
    /// (`child` 0 in a leaf).
    pub fn slots(&self) -> impl Iterator<Item = Triplet> + '_ {
        let lead = self.children.first().map(|c| Triplet {
            child: c.0,
            ..Triplet::default()
        });
        let keyed = self.keys.iter().zip(&self.data_ptrs).enumerate();
        lead.into_iter().chain(keyed.map(|(i, (&key, a))| Triplet {
            key,
            data_ptr: a.0,
            child: self.children.get(i + 1).map_or(0, |c| c.0),
        }))
    }

    /// Structural well-formedness (shape only; ordering is checked by
    /// [`check_sorted`](Node::check_sorted)).
    pub fn check_shape(&self) -> Result<(), String> {
        if self.keys.len() != self.data_ptrs.len() {
            return Err(format!(
                "node {}: {} keys but {} data pointers",
                self.id,
                self.keys.len(),
                self.data_ptrs.len()
            ));
        }
        if !self.children.is_empty() && self.children.len() != self.keys.len() + 1 {
            return Err(format!(
                "node {}: {} keys but {} children",
                self.id,
                self.keys.len(),
                self.children.len()
            ));
        }
        Ok(())
    }

    /// Zeroes the keys and pointers in place.
    fn scrub(&mut self) {
        wipe::words(&mut self.keys);
        wipe::words(&mut self.data_ptrs);
        wipe::words(&mut self.children);
    }

    /// Keys must be strictly ascending.
    pub fn check_sorted(&self) -> Result<(), String> {
        for w in self.keys.windows(2) {
            if w[0] >= w[1] {
                return Err(format!(
                    "node {}: keys not strictly ascending ({} >= {})",
                    self.id, w[0], w[1]
                ));
            }
        }
        Ok(())
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.scrub();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_ptr_packing() {
        let p = RecordPtr::pack(BlockId(0xABCD), 0x1234);
        assert_eq!(p.block(), BlockId(0xABCD));
        assert_eq!(p.slot(), 0x1234);
        assert_eq!(p.to_string(), "b43981#4660");
        let max = RecordPtr::pack(BlockId(u32::MAX), u16::MAX);
        assert_eq!(max.block(), BlockId(u32::MAX));
        assert_eq!(max.slot(), u16::MAX);
    }

    fn sample_internal() -> Node {
        Node {
            id: BlockId(5),
            keys: vec![10, 20, 30],
            data_ptrs: vec![RecordPtr(1), RecordPtr(2), RecordPtr(3)],
            children: vec![BlockId(1), BlockId(2), BlockId(3), BlockId(4)],
        }
    }

    #[test]
    fn shape_checks() {
        let node = sample_internal();
        node.check_shape().unwrap();
        node.check_sorted().unwrap();

        let mut bad = sample_internal();
        bad.children.pop();
        assert!(bad.check_shape().is_err());

        let mut bad = sample_internal();
        bad.data_ptrs.pop();
        assert!(bad.check_shape().is_err());

        let mut bad = sample_internal();
        bad.keys = vec![10, 10, 30];
        assert!(bad.check_sorted().is_err());
    }

    #[test]
    fn nodes_zeroize_on_drop() {
        // What `Drop` runs, run in place so its effect can be read back.
        let mut node = sample_internal();
        node.scrub();
        assert!(node.keys.iter().all(|&k| k == 0), "the keys");
        assert!(
            node.data_ptrs.iter().all(|&a| a == RecordPtr(0)),
            "the data pointers"
        );
        assert!(
            node.children.iter().all(|&c| c == BlockId(0)),
            "the children"
        );
        assert_eq!((node.n(), node.children.len()), (3, 4), "wiped, not cut");
    }

    #[test]
    fn leaf_properties() {
        let leaf = Node::leaf(BlockId(7));
        assert!(leaf.is_leaf());
        assert_eq!(leaf.n(), 0);
        leaf.check_shape().unwrap();
    }
}
