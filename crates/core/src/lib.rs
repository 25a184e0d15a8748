//! # sks-core — Search Key Substitution in the Encipherment of B-Trees
//!
//! The primary contribution of Hardjono & Seberry (VLDB 1990), built on the
//! workspace substrates:
//!
//! * [`disguise`] — the key disguises of §4: oval substitution (§4.1),
//!   exponentiation substitution (§4.2, both the invertible reading and the
//!   literal worked example), sum-of-treatments (§4.3), plus the identity
//!   and conversion-table baselines.
//! * [`codec`] — the node-block encipherment formats of §3/§5: the paper's
//!   `f(k), E(b‖a‖p)` layout with pluggable DES/Speck/RSA pointer sealers,
//!   and both Bayer–Metzger baselines (per-triplet search-and-decrypt and
//!   whole-page).
//! * [`config`] / [`tree`] — [`EncipheredBTree`]: one declarative
//!   [`SchemeConfig`] builds the full stack (design → disguise → sealer →
//!   codec → B-tree → enciphered data blocks) with exact operation counts.
//! * [`filter`] — the §4.3 high-level [`SecurityFilter`] retrofitted onto
//!   an unmodified plaintext DBMS stand-in.
//! * [`records`] — enciphered data blocks with the independent cipher of §5.
//! * [`mls`] — per-record security levels via the Akl–Taylor hierarchy
//!   (§5's multilevel suggestion).
//! * [`layout`] — the storage/fanout/depth arithmetic of experiment E3.
//!
//! The experiment index (E1–E10) lives in `sks-bench`'s `experiments`
//! module; `cargo run --release -p sks-bench --bin repro` regenerates the
//! paper's tables, figures and measurements.

#![forbid(unsafe_code)]

pub mod codec;
pub mod config;
pub mod disguise;
pub mod error;
pub mod filter;
pub mod layout;
pub mod mls;
pub mod records;
pub mod tree;

pub use codec::{
    AnyCodec, BayerMetzgerCodec, BlockCipherSealer, FullPageCodec, RsaSealer, SubstitutionCodec,
    TripletSealer,
};
pub use config::{Scheme, SchemeConfig, SealerKind, StorageBackend};
pub use disguise::{
    DisguiseError, ExpSubstitution, IdentityDisguise, KeyDisguise, OvalSubstitution,
    PaperExpSubstitution, SumSubstitution, TableDisguise,
};
pub use error::CoreError;
pub use filter::{FilterSecrets, SecurityFilter};
pub use layout::{layouts_at, SchemeLayout};
pub use mls::MultilevelRecordStore;
pub use records::RecordStore;
pub use tree::{CompactionReport, EncipheredBTree};

// The observability level knob `SchemeConfig::observability` takes,
// re-exported so callers need no direct sks-storage dependency.
pub use sks_storage::ObsLevel;
