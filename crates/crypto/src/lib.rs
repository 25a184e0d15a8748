//! # sks-crypto — the cryptographic substrate
//!
//! Every cryptographic primitive the VLDB 1990 paper depends on, implemented
//! from scratch (the offline dependency set contains no cryptography, and
//! reproducing the 1976/1977/1978-era machinery is part of the exercise):
//!
//! * [`des`] — FIPS 46 DES (§5 names DES for node/data blocks):
//!   S-box∘P and per-byte permutation tables built at compile time from
//!   the FIPS tables, checked against a bit-at-a-time test oracle.
//! * [`rsa`] / [`bignum`] — textbook RSA in secret-parameter mode over an
//!   in-crate bignum (§5's second cryptosystem).
//! * [`speck`] — Speck64/128, the modern software stand-in for the
//!   *hardware* encryption module Bayer–Metzger assume.
//! * [`modes`] — CBC/CTR and a CBC-MAC checksum (Denning-style, for the
//!   §4.3 security filter).
//! * [`pagekey`] — the Bayer–Metzger per-page key derivation `PK(K_E, P_id)`.
//! * [`oneway`] — one-way functions for the disguise function `f` of §3.
//! * [`multilevel`] — the Akl–Taylor-style multilevel key hierarchy of §5 /
//!   reference \[14\].
//!
//! **Security warning:** these are faithful reproductions of historical
//! algorithms for a systems-reproduction study. None of this is suitable
//! for protecting real data today.

#![deny(unsafe_code)]

pub mod bignum;
pub mod cipher;
pub mod des;
pub mod modes;
pub mod multilevel;
pub mod oneway;
pub mod pagekey;
pub mod rsa;
pub mod speck;

pub use bignum::BigUint;
pub use cipher::BlockCipher64;
pub use des::Des;
pub use modes::ModeError;
pub use multilevel::{ClearanceKey, KeyHierarchy};
pub use pagekey::{PageCipherKind, PageKeyScheme};
pub use rsa::{RsaError, RsaKey};
pub use speck::Speck64;
