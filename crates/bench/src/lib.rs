//! # sks-bench — reproduction harness
//!
//! * [`tables`] — bit-exact regeneration of the paper's printed tables
//!   (T1: lines→ovals; T2: exponentiation grid; T3: cumulative sums).
//! * [`figures`] — the Figure 1–3 B-trees, logical and disk views.
//! * [`experiments`] — the quantitative experiments E1–E10 derived from the
//!   paper's claims; each one's doc comment names the section it measures.
//! * [`workload`] — deterministic key sets, tree builders, ground truth.
//!
//! The `repro` binary prints all of it; the root `tests/paper_artefacts.rs`
//! pins every deterministic line of `repro --quick` as golden text.

pub mod experiments;
pub mod figures;
pub mod tables;
pub mod workload;
