//! # sks-btree-core — the disk B-tree substrate
//!
//! A paged B-tree of `[search key, data pointer, tree pointer]` triplets in
//! the Elmasri & Navathe layout the paper adopts in §3: `n` keys, `n` data
//! pointers and `n+1` tree pointers per node block.
//!
//! The crate is deliberately agnostic about *how* a node is laid out on
//! disk: all (de)serialisation and all cryptography live behind the
//! [`NodeCodec`] trait, so the identical tree algorithms run plaintext
//! (this crate's [`PlainCodec`]), fully enciphered (Bayer–Metzger, in
//! `sks-core`), or key-disguised (the paper's scheme, in `sks-core`) —
//! which is precisely the paper's point that the substitution happens
//! "after the shape of the B-Tree has been determined".
//!
//! * [`node`] — plaintext node representation.
//! * [`codec`] — the [`NodeCodec`] boundary, probe semantics, [`PlainCodec`].
//! * [`cache`] — the bounded node cache (RAM-only, zeroized on evict):
//!   nodes as stored plus the triplets probes have deciphered, so a search
//!   pays each physical decipherment once and only for what it follows,
//!   and a node a write has sealed stays whole, so the next update of it
//!   pays none; a node completed once keeps its plaintext keys, so later
//!   whole-node visits and range scans recompute nothing — while the
//!   logical counters keep reporting the paper's cost.
//! * [`tree`] — create/open, get/insert/delete/range, validation; CLRS
//!   preemptive split/merge balancing; every access counted.
//! * [`render`] — ASCII renderings for the paper's figures.

#![forbid(unsafe_code)]

pub mod cache;
pub mod codec;
pub mod node;
pub mod render;
pub mod tree;

#[cfg(test)]
mod tree_tests;

pub use cache::{never_sealed, CachedNode, Keys, NodeCache};
pub use codec::{CodecError, NodeCodec, PlainCodec, Probe, NODE_HEADER_LEN};
pub use node::{Node, RecordPtr, Triplet};
pub use render::{render_logical, render_with};
pub use tree::{BTree, RangeIter, TreeError};
