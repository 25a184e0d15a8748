//! §4.3 — substitution using the sum of treatments in blocks.
//!
//! Key `x` is associated with line `L_{w+x}` and substituted by the running
//! total of all integer treatments on lines `L_w ..= L_{w+x}` ("the
//! summation is done without reducing modulo v"). Because every line sum is
//! positive, the substitutes are strictly increasing in `x`: the disguise is
//! **order-preserving**, so the B-tree built over substitutes has the same
//! shape as the plaintext tree, range searches keep working, and the scheme
//! can run inside a high-level security filter in front of an unmodifiable
//! DBMS (the paper's §4.3 deployment story).
//!
//! The starting line `w > 0` hides the design's first block `B₀` from an
//! opponent who sees substitutes (§4.3: "chosen to prevent the opponent
//! from discovering the first block").

use sks_designs::diffset::DifferenceSet;
use sks_storage::OpCounters;

use super::{bump_by_count, bump_disguise, bump_recover, DisguiseError, KeyDisguise};

/// The cumulative-sum substitution.
#[derive(Debug, Clone)]
pub struct SumSubstitution {
    design: DifferenceSet,
    /// `prefix[x] = Σ_{α=w}^{w+x} line_sum(α)` — the substitute for key `x`.
    prefix: Vec<u64>,
    counters: OpCounters,
}

impl SumSubstitution {
    /// Supports keys `0 ..< capacity`; requires `w + capacity < v − 1`
    /// (the paper's `w + R < v − 1` bound).
    pub fn new(
        design: DifferenceSet,
        w: u64,
        capacity: u64,
        counters: OpCounters,
    ) -> Result<Self, DisguiseError> {
        if capacity == 0 {
            return Err(DisguiseError::BadParameters(
                "capacity must be positive".into(),
            ));
        }
        let v = design.v();
        if w.checked_add(capacity).is_none_or(|end| end >= v - 1) {
            return Err(DisguiseError::BadParameters(format!(
                "need w + R < v - 1 (w = {w}, R = {capacity}, v = {v})"
            )));
        }
        let mut prefix = Vec::with_capacity(capacity as usize);
        let mut acc: u128 = 0;
        for x in 0..capacity {
            acc += design.line_sum(w + x);
            let val = u64::try_from(acc).map_err(|_| {
                DisguiseError::BadParameters(format!(
                    "cumulative sum overflows u64 at key {x}; use a smaller design or capacity"
                ))
            })?;
            prefix.push(val);
        }
        Ok(SumSubstitution {
            design,
            prefix,
            counters,
        })
    }

    /// The paper's worked table: `(13,4,1)` with `w = 0`, all 13 keys.
    pub fn paper_example(counters: OpCounters) -> Self {
        SumSubstitution::new(DifferenceSet::paper_13_4_1(), 0, 11, counters)
            .expect("paper parameters are valid")
    }

    pub fn design(&self) -> &DifferenceSet {
        &self.design
    }

    /// Number of supported keys `R`.
    pub fn capacity(&self) -> u64 {
        self.prefix.len() as u64
    }
}

impl KeyDisguise for SumSubstitution {
    fn disguise(&self, key: u64) -> Result<u64, DisguiseError> {
        let Some(&val) = self.prefix.get(key as usize) else {
            return Err(DisguiseError::OutOfDomain {
                key,
                domain: format!("[0, {})", self.prefix.len()),
            });
        };
        bump_disguise(&self.counters);
        Ok(val)
    }

    fn recover(&self, disguised: u64) -> Result<u64, DisguiseError> {
        bump_recover(&self.counters);
        match self.prefix.binary_search(&disguised) {
            Ok(i) => Ok(i as u64),
            Err(_) => Err(DisguiseError::NotInImage { value: disguised }),
        }
    }

    fn order_preserving(&self) -> bool {
        true
    }

    fn charge(&self, disguises: u64, recoveries: u64) -> bool {
        bump_by_count(&self.counters, disguises, recoveries);
        true
    }

    fn domain_size(&self) -> Option<u64> {
        Some(self.prefix.len() as u64)
    }

    fn secret_size_bytes(&self) -> usize {
        // {v, k, λ} + base block + w. The prefix table is derived from the
        // secret, not part of it.
        3 * 8 + self.design.base().len() * 8 + 8
    }

    fn name(&self) -> &'static str {
        "sum-of-treatments"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disguise::testutil::assert_disguise_contract;

    #[test]
    fn paper_table_values() {
        // §4.3: k̂ = 13, 30, 51, 76, 92, 112, 136, 164, 196, 232, 259 for
        // keys 0..=10 (w = 0; capacity limited by w + R < v - 1).
        let d = SumSubstitution::paper_example(OpCounters::new());
        let want = [13u64, 30, 51, 76, 92, 112, 136, 164, 196, 232, 259];
        for (k, &expected) in want.iter().enumerate() {
            assert_eq!(d.disguise(k as u64).unwrap(), expected, "key {k}");
        }
    }

    #[test]
    fn full_paper_column_via_design() {
        // The remaining printed values (290, 312) exceed the w + R < v - 1
        // capacity bound but are reproducible straight from the design.
        let ds = DifferenceSet::paper_13_4_1();
        assert_eq!(ds.cumulative_sum(0, 11), 290);
        assert_eq!(ds.cumulative_sum(0, 12), 312);
    }

    #[test]
    fn contract_and_order_preservation() {
        let d = SumSubstitution::paper_example(OpCounters::new());
        let keys: Vec<u64> = (0..11).collect();
        assert_disguise_contract(&d, &keys);
        assert!(d.order_preserving());
    }

    #[test]
    fn nonzero_starting_line() {
        let ds = DifferenceSet::singer(7).unwrap(); // v = 57
        let d = SumSubstitution::new(ds.clone(), 5, 40, OpCounters::new()).unwrap();
        let keys: Vec<u64> = (0..40).collect();
        assert_disguise_contract(&d, &keys);
        // First substitute is line_sum(5), not line_sum(0).
        assert_eq!(d.disguise(0).unwrap() as u128, ds.line_sum(5));
    }

    #[test]
    fn capacity_bound_enforced() {
        let ds = DifferenceSet::paper_13_4_1();
        assert!(SumSubstitution::new(ds.clone(), 0, 12, OpCounters::new()).is_err());
        assert!(SumSubstitution::new(ds.clone(), 5, 7, OpCounters::new()).is_err());
        assert!(SumSubstitution::new(ds, 0, 0, OpCounters::new()).is_err());
    }

    #[test]
    fn out_of_domain_and_not_in_image() {
        let d = SumSubstitution::paper_example(OpCounters::new());
        assert!(matches!(
            d.disguise(11),
            Err(DisguiseError::OutOfDomain { .. })
        ));
        assert!(matches!(
            d.recover(14),
            Err(DisguiseError::NotInImage { .. })
        ));
    }

    #[test]
    fn singer_scale_capacity() {
        // v = 10303: support 10k keys.
        let ds = DifferenceSet::singer(101).unwrap();
        let d = SumSubstitution::new(ds, 17, 10_000, OpCounters::new()).unwrap();
        let keys: Vec<u64> = (0..10_000).step_by(103).collect();
        assert_disguise_contract(&d, &keys);
    }

    #[test]
    fn counts_ops() {
        let counters = OpCounters::new();
        let d = SumSubstitution::paper_example(counters.clone());
        let v = d.disguise(3).unwrap();
        let _ = d.recover(v).unwrap();
        let s = counters.snapshot();
        assert_eq!((s.disguise_ops, s.recover_ops), (1, 1));
    }
}
