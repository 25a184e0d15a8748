//! Key disguises — the `f` of §3 and the substitution schemes of §4.
//!
//! A [`KeyDisguise`] is an injective map on search keys applied just before
//! the disk-write stage, "after the correct tree pointer and data pointer
//! have been obtained" (§4.1). Unlike encryption, a disguise leaves the key
//! field one machine word wide and costs integer arithmetic instead of
//! cipher rounds; unlike a conversion table, a design-based disguise needs
//! only the design parameters as secret material.
//!
//! | impl | paper section | order-preserving | secret |
//! |------|--------------|------------------|--------|
//! | [`IdentityDisguise`] | baseline | yes | none |
//! | [`OvalSubstitution`] | §4.1 | no | design + `t` |
//! | [`ExpSubstitution`] | §4.2 (invertible reading) | no | design + `g`, `N`, `t` |
//! | [`PaperExpSubstitution`] | §4.2 (literal worked example) | no | design + `g`, `N`, `t` |
//! | [`SumSubstitution`] | §4.3 | **yes** | design + `w` |
//! | [`TableDisguise`] | §4.1's strawman | no | whole table |

mod exp;
mod exp_paper;
mod oval;
mod sum;
mod table;

pub use exp::ExpSubstitution;
pub use exp_paper::PaperExpSubstitution;
pub use oval::OvalSubstitution;
pub use sum::SumSubstitution;
pub use table::TableDisguise;

use sks_storage::OpCounters;

/// Errors from disguise application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisguiseError {
    /// Key outside the disguise's domain (e.g. `k ≥ v`, or `k = 0` for the
    /// exponentiation scheme).
    OutOfDomain { key: u64, domain: String },
    /// A disguised value could not be inverted (corrupt page or wrong
    /// secret parameters).
    NotInImage { value: u64 },
    /// Parameters are internally inconsistent.
    BadParameters(String),
}

impl std::fmt::Display for DisguiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DisguiseError::OutOfDomain { key, domain } => {
                write!(f, "key {key} outside disguise domain {domain}")
            }
            DisguiseError::NotInImage { value } => {
                write!(
                    f,
                    "value {value} is not a disguised key under these parameters"
                )
            }
            DisguiseError::BadParameters(msg) => write!(f, "bad disguise parameters: {msg}"),
        }
    }
}

impl std::error::Error for DisguiseError {}

/// An invertible search-key disguise.
pub trait KeyDisguise: Send + Sync {
    /// `f(k)`: the value written to disk in the key field.
    fn disguise(&self, key: u64) -> Result<u64, DisguiseError>;

    /// `f⁻¹(k̂)`: recovers the original key.
    fn recover(&self, disguised: u64) -> Result<u64, DisguiseError>;

    /// Whether `a < b ⇒ f(a) < f(b)` — the property that keeps the B-tree
    /// shape identical to the plaintext tree (§4.3) and allows direct
    /// comparisons against on-disk values.
    fn order_preserving(&self) -> bool;

    /// Charges the counters exactly as `disguises` successful
    /// [`KeyDisguise::disguise`] calls and `recoveries` successful
    /// [`KeyDisguise::recover`] calls would, computing nothing, and
    /// returns `true`. Only a disguise may do so whose successful calls
    /// each move the same counters by the same amounts, and whose
    /// `disguise` and `recover` are exact inverses on every value `recover`
    /// accepts: a node codec then keeps a node's recovered keys, and the
    /// stored fields they came from, instead of computing either again.
    /// Any other disguise charges nothing and returns `false`, and its
    /// callers compute.
    fn charge(&self, disguises: u64, recoveries: u64) -> bool;

    /// Largest valid key plus one, if the domain is bounded.
    fn domain_size(&self) -> Option<u64>;

    /// Bytes of secret material a legal user must carry (the §4.1/§6
    /// "small amount of information that needs to be kept secret").
    fn secret_size_bytes(&self) -> usize;

    /// Scheme name for reports.
    fn name(&self) -> &'static str;
}

/// The identity disguise: `f(k) = k`. Baseline for all experiments.
#[derive(Debug, Clone, Default)]
pub struct IdentityDisguise;

impl KeyDisguise for IdentityDisguise {
    fn disguise(&self, key: u64) -> Result<u64, DisguiseError> {
        Ok(key)
    }

    fn recover(&self, disguised: u64) -> Result<u64, DisguiseError> {
        Ok(disguised)
    }

    fn order_preserving(&self) -> bool {
        true
    }

    fn charge(&self, _disguises: u64, _recoveries: u64) -> bool {
        // Nothing computed, nothing counted.
        true
    }

    fn domain_size(&self) -> Option<u64> {
        None
    }

    fn secret_size_bytes(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

/// Shared helper: bump the disguise/recover counters consistently.
pub(crate) fn bump_disguise(counters: &OpCounters) {
    counters.bump(|c| &c.disguise_ops);
}

pub(crate) fn bump_recover(counters: &OpCounters) {
    counters.bump(|c| &c.recover_ops);
}

/// What `disguises` calls of [`bump_disguise`] and `recoveries` of
/// [`bump_recover`] charge, in two adds.
pub(crate) fn bump_by_count(counters: &OpCounters, disguises: u64, recoveries: u64) {
    if disguises > 0 {
        counters.bump_by(|c| &c.disguise_ops, disguises);
    }
    if recoveries > 0 {
        counters.bump_by(|c| &c.recover_ops, recoveries);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::KeyDisguise;

    /// Behavioural contract every disguise must satisfy over a key sample.
    pub fn assert_disguise_contract<D: KeyDisguise>(d: &D, keys: &[u64]) {
        let mut images = std::collections::HashSet::new();
        for &k in keys {
            let dk = d
                .disguise(k)
                .unwrap_or_else(|e| panic!("{}: disguise({k}): {e}", d.name()));
            assert!(
                images.insert(dk),
                "{}: disguise is not injective at {k} -> {dk}",
                d.name()
            );
            let back = d
                .recover(dk)
                .unwrap_or_else(|e| panic!("{}: recover({dk}): {e}", d.name()));
            assert_eq!(back, k, "{}: roundtrip failed for {k}", d.name());
        }
        if d.order_preserving() {
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let disguised: Vec<u64> = sorted.iter().map(|&k| d.disguise(k).unwrap()).collect();
            assert!(
                disguised.windows(2).all(|w| w[0] < w[1]),
                "{}: claims order preservation but violates it",
                d.name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheme, SchemeConfig};
    use sks_storage::OpSnapshot;
    use std::sync::Arc;

    /// Runs `op` and returns its result with the counters it moved.
    fn charged<T>(counters: &OpCounters, op: impl FnOnce() -> T) -> (T, OpSnapshot) {
        let before = counters.snapshot();
        let out = op();
        (out, counters.snapshot().delta(&before))
    }

    /// The disguise `scheme` runs on `counters`; `None` is the identity.
    fn disguise_of(scheme: Option<Scheme>, counters: &OpCounters) -> Arc<dyn KeyDisguise> {
        match scheme {
            None => Arc::new(IdentityDisguise),
            Some(scheme) => SchemeConfig::with_capacity(scheme, 64)
                .build_disguise(counters)
                .unwrap()
                .unwrap(),
        }
    }

    /// `charge(n, m)` moves every counter exactly as `n` real disguises
    /// and `m` real recoveries do, for every disguise that charges; the
    /// literal exponentiation construction, whose calls cost different
    /// numbers of comparisons, refuses and charges nothing.
    #[test]
    fn charging_by_count_equals_calling_for_every_disguise() {
        for scheme in [
            Some(Scheme::Oval),
            Some(Scheme::Exponentiation),
            Some(Scheme::SumOfTreatments),
            Some(Scheme::ConversionTable),
            None,
            Some(Scheme::ExponentiationPaper),
        ] {
            let counters = OpCounters::new();
            let d = disguise_of(scheme, &counters);
            // Keys inside every domain (the literal construction's is
            // 1..13).
            let fields: Vec<u64> = (1..=12).map(|k| d.disguise(k).unwrap()).collect();
            for (n, m) in [(0, 0), (1, 0), (0, 1), (5, 7), (12, 12)] {
                let ((), calls) = charged(&counters, || {
                    for k in 1..=n {
                        d.disguise(k).unwrap();
                    }
                    for &field in &fields[..m as usize] {
                        d.recover(field).unwrap();
                    }
                });
                let (charges, by_count) = charged(&counters, || d.charge(n, m));
                let what = format!("{}: charge({n}, {m})", d.name());
                if scheme == Some(Scheme::ExponentiationPaper) {
                    assert!(!charges, "{what}");
                    assert_eq!(by_count, OpSnapshot::default(), "{what}");
                } else {
                    assert!(charges, "{what}");
                    assert_eq!(by_count, calls, "{what}");
                }
            }
        }
        // Why the literal construction refuses: its calls' costs differ.
        let counters = OpCounters::new();
        let d = disguise_of(Some(Scheme::ExponentiationPaper), &counters);
        let compares = |k| charged(&counters, || d.disguise(k).unwrap()).1.key_compares;
        assert_ne!(compares(1), compares(12));
    }

    #[test]
    fn identity_contract() {
        let d = IdentityDisguise;
        testutil::assert_disguise_contract(&d, &[0, 1, 5, 1000, u64::MAX]);
        assert!(d.order_preserving());
        assert_eq!(d.secret_size_bytes(), 0);
        assert_eq!(d.domain_size(), None);
    }
}
