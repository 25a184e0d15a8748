//! The conversion-table strawman.
//!
//! §4.1 stresses that with design-based substitution, "conversion tables to
//! maintain the correspondence between the actual and the disguised search
//! keys are not required". This type *is* that conversion table — a random
//! permutation held in memory — implemented so experiment E8 can measure the
//! secret-material gap the paper claims (O(k) design parameters vs. O(R)
//! table entries).

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::Rng;
use sks_storage::OpCounters;

use super::{bump_by_count, bump_disguise, bump_recover, DisguiseError, KeyDisguise};

/// An explicit random-permutation disguise over `[0, n)`.
#[derive(Debug, Clone)]
pub struct TableDisguise {
    forward: Vec<u64>,
    inverse: HashMap<u64, u64>,
    counters: OpCounters,
}

impl TableDisguise {
    /// A uniformly random permutation of `[0, n)`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: u64, counters: OpCounters) -> Self {
        let mut forward: Vec<u64> = (0..n).collect();
        forward.shuffle(rng);
        let inverse = forward
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, k as u64))
            .collect();
        TableDisguise {
            forward,
            inverse,
            counters,
        }
    }
}

impl KeyDisguise for TableDisguise {
    fn disguise(&self, key: u64) -> Result<u64, DisguiseError> {
        let Some(&v) = self.forward.get(key as usize) else {
            return Err(DisguiseError::OutOfDomain {
                key,
                domain: format!("[0, {})", self.forward.len()),
            });
        };
        bump_disguise(&self.counters);
        Ok(v)
    }

    fn recover(&self, disguised: u64) -> Result<u64, DisguiseError> {
        bump_recover(&self.counters);
        self.inverse
            .get(&disguised)
            .copied()
            .ok_or(DisguiseError::NotInImage { value: disguised })
    }

    fn order_preserving(&self) -> bool {
        false
    }

    fn charge(&self, disguises: u64, recoveries: u64) -> bool {
        bump_by_count(&self.counters, disguises, recoveries);
        true
    }

    fn domain_size(&self) -> Option<u64> {
        Some(self.forward.len() as u64)
    }

    fn secret_size_bytes(&self) -> usize {
        // The whole table is secret: one (key, image) pair per entry.
        self.forward.len() * 16
    }

    fn name(&self) -> &'static str {
        "conversion-table"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disguise::testutil::assert_disguise_contract;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_table_contract() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = TableDisguise::random(&mut rng, 500, OpCounters::new());
        let keys: Vec<u64> = (0..500).collect();
        assert_disguise_contract(&d, &keys);
    }

    #[test]
    fn secret_size_scales_with_records_not_design() {
        let mut rng = StdRng::seed_from_u64(5);
        let small = TableDisguise::random(&mut rng, 100, OpCounters::new());
        let big = TableDisguise::random(&mut rng, 10_000, OpCounters::new());
        assert_eq!(small.secret_size_bytes(), 1600);
        assert_eq!(big.secret_size_bytes(), 160_000);
        // This is the contrast with the oval scheme, whose secret stays O(k).
    }

    #[test]
    fn domain_errors() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = TableDisguise::random(&mut rng, 10, OpCounters::new());
        assert!(matches!(
            d.disguise(10),
            Err(DisguiseError::OutOfDomain { .. })
        ));
        assert!(matches!(
            d.recover(10),
            Err(DisguiseError::NotInImage { .. })
        ));
    }
}
