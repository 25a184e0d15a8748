//! §4.1 — substitution using treatments on ovals.
//!
//! Search keys are identified with treatments of a `(v, k, λ)` difference-set
//! design; the line→oval map multiplies treatments by `t` with
//! `gcd(t, v) = 1`, so the substitution is `k̂ = k·t (mod v)` and its inverse
//! is multiplication by `t⁻¹ (mod v)`. With the paper's `(13,4,1)` design and
//! `t = 7`: "the search key 1 is substituted by 7, 2 by 1, 3 by 8, 4 by 2
//! and so on".
//!
//! The secret material is only `{v, k, λ}`, the first line `L₀`, and the
//! multiplier — no conversion tables (§4.1's headline advantage).

use sks_designs::arith::{inv_mod, mul_mod};
use sks_designs::diffset::DifferenceSet;
use sks_storage::OpCounters;

use super::{bump_by_count, bump_disguise, bump_recover, DisguiseError, KeyDisguise};

/// The oval substitution `k̂ = k·t mod v`.
#[derive(Debug, Clone)]
pub struct OvalSubstitution {
    design: DifferenceSet,
    t: u64,
    t_inv: u64,
    counters: OpCounters,
}

impl OvalSubstitution {
    /// Builds the disguise from a design and multiplier. `t` must be a unit
    /// of `Z_v` (otherwise lines do not map to ovals bijectively).
    pub fn new(design: DifferenceSet, t: u64, counters: OpCounters) -> Result<Self, DisguiseError> {
        let v = design.v();
        let t = t % v;
        let t_inv = inv_mod(t, v).ok_or_else(|| {
            DisguiseError::BadParameters(format!("t = {t} is not invertible mod v = {v}"))
        })?;
        Ok(OvalSubstitution {
            design,
            t,
            t_inv,
            counters,
        })
    }

    /// The paper's running example: `(13,4,1)`, `D = {0,1,3,9}`, `t = 7`.
    pub fn paper_example(counters: OpCounters) -> Self {
        OvalSubstitution::new(DifferenceSet::paper_13_4_1(), 7, counters)
            .expect("paper parameters are valid")
    }

    pub fn design(&self) -> &DifferenceSet {
        &self.design
    }
}

impl KeyDisguise for OvalSubstitution {
    fn disguise(&self, key: u64) -> Result<u64, DisguiseError> {
        let v = self.design.v();
        if key >= v {
            return Err(DisguiseError::OutOfDomain {
                key,
                domain: format!("[0, {v})"),
            });
        }
        bump_disguise(&self.counters);
        Ok(mul_mod(key, self.t, v))
    }

    fn recover(&self, disguised: u64) -> Result<u64, DisguiseError> {
        let v = self.design.v();
        if disguised >= v {
            return Err(DisguiseError::NotInImage { value: disguised });
        }
        bump_recover(&self.counters);
        Ok(mul_mod(disguised, self.t_inv, v))
    }

    fn order_preserving(&self) -> bool {
        false
    }

    fn charge(&self, disguises: u64, recoveries: u64) -> bool {
        bump_by_count(&self.counters, disguises, recoveries);
        true
    }

    fn domain_size(&self) -> Option<u64> {
        Some(self.design.v())
    }

    fn secret_size_bytes(&self) -> usize {
        // {v, k, λ} + the k base-block treatments of L₀ + t.
        3 * 8 + self.design.base().len() * 8 + 8
    }

    fn name(&self) -> &'static str {
        "oval"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disguise::testutil::assert_disguise_contract;
    use proptest::prelude::*;

    fn paper() -> OvalSubstitution {
        OvalSubstitution::paper_example(OpCounters::new())
    }

    #[test]
    fn paper_substitutions_match_section_4_1() {
        // "the search key 1 is substituted by 7, 2 by 1, 3 by 8, 4 by 2".
        let d = paper();
        assert_eq!(d.disguise(1).unwrap(), 7);
        assert_eq!(d.disguise(2).unwrap(), 1);
        assert_eq!(d.disguise(3).unwrap(), 8);
        assert_eq!(d.disguise(4).unwrap(), 2);
        assert_eq!(d.disguise(0).unwrap(), 0);
    }

    #[test]
    fn contract_over_full_domain() {
        let d = paper();
        let keys: Vec<u64> = (0..13).collect();
        assert_disguise_contract(&d, &keys);
    }

    #[test]
    fn domain_enforced() {
        let d = paper();
        assert!(matches!(
            d.disguise(13),
            Err(DisguiseError::OutOfDomain { .. })
        ));
        assert!(matches!(
            d.recover(13),
            Err(DisguiseError::NotInImage { .. })
        ));
    }

    #[test]
    fn non_coprime_multiplier_rejected() {
        let err = OvalSubstitution::new(DifferenceSet::paper_13_4_1(), 13, OpCounters::new())
            .unwrap_err();
        assert!(matches!(err, DisguiseError::BadParameters(_)));
    }

    #[test]
    fn counts_operations() {
        let counters = OpCounters::new();
        let d = OvalSubstitution::paper_example(counters.clone());
        let _ = d.disguise(5).unwrap();
        let _ = d.disguise(6).unwrap();
        let _ = d.recover(7).unwrap();
        let s = counters.snapshot();
        assert_eq!((s.disguise_ops, s.recover_ops), (2, 1));
        assert_eq!(s.total_decrypts(), 0, "disguising is not decryption");
    }

    #[test]
    fn not_order_preserving_scrambles_shape() {
        let d = paper();
        let disguised: Vec<u64> = (0..13).map(|k| d.disguise(k).unwrap()).collect();
        let mut sorted = disguised.clone();
        sorted.sort_unstable();
        assert_ne!(disguised, sorted, "oval substitution must scramble order");
    }

    #[test]
    fn singer_scale_roundtrip() {
        let ds = DifferenceSet::singer(101).unwrap(); // v = 10303
        let d = OvalSubstitution::new(ds, 4999, OpCounters::new()).unwrap();
        let keys: Vec<u64> = (0..10303).step_by(97).collect();
        assert_disguise_contract(&d, &keys);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_random_multipliers(t in 1u64..13, k in 0u64..13) {
            prop_assume!(sks_designs::arith::coprime(t, 13));
            let d = OvalSubstitution::new(
                DifferenceSet::paper_13_4_1(), t, OpCounters::new()
            ).unwrap();
            prop_assert_eq!(d.recover(d.disguise(k).unwrap()).unwrap(), k);
        }
    }
}
