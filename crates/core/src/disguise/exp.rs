//! §4.2 — substitution using exponentiation modulus (invertible reading).
//!
//! The paper substitutes a key `k` by first finding the treatment `e` with
//! `g^e ≡ k (mod N)` (a discrete log the *legal user* computes, knowing `g`
//! and `N`), then re-exponentiating with the oval treatment `t·e`:
//! `k̂ = g^(t·e) mod N`. Taking exponent arithmetic modulo the group order
//! `N−1` — the reading under which the map is a bijection — this is exactly
//! the Pohlig–Hellman permutation `k̂ = k^t mod N` with inverse exponent
//! `t⁻¹ mod (N−1)`.
//!
//! (The paper's own worked example reduces exponents mod `v = N` instead,
//! which is not injective; [`super::PaperExpSubstitution`] reproduces that
//! literal construction for Figure 2 while this type is used for all
//! quantitative experiments.)

use sks_designs::arith::{inv_mod, pow_mod};
use sks_designs::diffset::DifferenceSet;
use sks_designs::dlog::DlogTable;
use sks_designs::primes::{is_prime, is_primitive_root};
use sks_storage::OpCounters;

use super::{bump_by_count, bump_disguise, bump_recover, DisguiseError, KeyDisguise};

/// The invertible exponentiation substitution `k̂ = k^t mod N`.
///
/// Domain: `1 ..= N−1` (zero has no discrete log). The associated block
/// design supplies the treatments-as-exponents narrative and the secret
/// material accounting; `N ≥ v` as the paper requires.
#[derive(Debug, Clone)]
pub struct ExpSubstitution {
    design: DifferenceSet,
    g: u64,
    n: u64,
    t: u64,
    t_inv: u64,
    /// Baby-step table so the legal user's dlog (treatment lookup) can be
    /// exercised and counted, as the paper describes the substitution step.
    dlog: DlogTable,
    counters: OpCounters,
}

impl ExpSubstitution {
    /// `N` must be prime with `N ≥ v`; `g` a primitive root of `N`;
    /// `gcd(t, N−1) = 1`.
    pub fn new(
        design: DifferenceSet,
        g: u64,
        n: u64,
        t: u64,
        counters: OpCounters,
    ) -> Result<Self, DisguiseError> {
        if !is_prime(n) {
            return Err(DisguiseError::BadParameters(format!(
                "N = {n} is not prime"
            )));
        }
        if n < design.v() {
            return Err(DisguiseError::BadParameters(format!(
                "N = {n} must not be less than v = {} (§4.2: 'N should never be less than v')",
                design.v()
            )));
        }
        if !is_primitive_root(g, n) {
            return Err(DisguiseError::BadParameters(format!(
                "g = {g} is not a primitive element of Z_{n}"
            )));
        }
        let group = n - 1;
        let t = t % group;
        let t_inv = inv_mod(t, group).ok_or_else(|| {
            DisguiseError::BadParameters(format!(
                "t = {t} is not invertible mod N-1 = {group}; the exponent map would not be a bijection"
            ))
        })?;
        let dlog = DlogTable::new(g, n);
        Ok(ExpSubstitution {
            design,
            g,
            n,
            t,
            t_inv,
            dlog,
            counters,
        })
    }

    pub fn modulus(&self) -> u64 {
        self.n
    }

    pub fn design(&self) -> &DifferenceSet {
        &self.design
    }

    /// The treatment (discrete log) of a key — the `t_αβ` the paper scans
    /// lines for. Exposed for the table/figure reproduction.
    pub fn treatment_of(&self, key: u64) -> Result<u64, DisguiseError> {
        self.counters.bump(|c| &c.dlog_ops);
        self.dlog
            .dlog(key)
            .ok_or(DisguiseError::NotInImage { value: key })
    }
}

impl KeyDisguise for ExpSubstitution {
    fn disguise(&self, key: u64) -> Result<u64, DisguiseError> {
        if key == 0 || key >= self.n {
            return Err(DisguiseError::OutOfDomain {
                key,
                domain: format!("[1, {})", self.n),
            });
        }
        bump_disguise(&self.counters);
        // Find the treatment e with g^e = k (the paper's scan), then emit
        // g^(t·e). Equivalently k^t, but we exercise the dlog to model the
        // legal user's procedure and count it.
        let e = self.treatment_of(key)?;
        let te = ((e as u128 * self.t as u128) % (self.n as u128 - 1)) as u64;
        Ok(pow_mod(self.g, te, self.n))
    }

    fn recover(&self, disguised: u64) -> Result<u64, DisguiseError> {
        if disguised == 0 || disguised >= self.n {
            return Err(DisguiseError::NotInImage { value: disguised });
        }
        bump_recover(&self.counters);
        Ok(pow_mod(disguised, self.t_inv, self.n))
    }

    fn order_preserving(&self) -> bool {
        false
    }

    fn charge(&self, disguises: u64, recoveries: u64) -> bool {
        // Each disguise also runs one counted discrete log.
        bump_by_count(&self.counters, disguises, recoveries);
        if disguises > 0 {
            self.counters.bump_by(|c| &c.dlog_ops, disguises);
        }
        true
    }

    fn domain_size(&self) -> Option<u64> {
        Some(self.n) // keys 1..N-1; 0 invalid but the bound is N
    }

    fn secret_size_bytes(&self) -> usize {
        // {v, k, λ} + base block + t + g + N.
        3 * 8 + self.design.base().len() * 8 + 3 * 8
    }

    fn name(&self) -> &'static str {
        "exponentiation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disguise::testutil::assert_disguise_contract;
    use sks_designs::primes::next_prime;

    /// The paper's demo parameters: the `(13,4,1)` design with `g = 7`,
    /// `N = 13` and `t = 7` (note `gcd(7, 12) = 1`, so the invertible
    /// reading accepts the paper's multiplier unchanged).
    fn paper_scale_with(counters: OpCounters) -> ExpSubstitution {
        ExpSubstitution::new(DifferenceSet::paper_13_4_1(), 7, 13, 7, counters)
            .expect("demo parameters are valid")
    }

    fn paper_scale() -> ExpSubstitution {
        paper_scale_with(OpCounters::new())
    }

    #[test]
    fn pohlig_hellman_equivalence() {
        // g^(t·dlog(k)) must equal k^t.
        let d = paper_scale();
        for k in 1..13u64 {
            assert_eq!(d.disguise(k).unwrap(), pow_mod(k, 7, 13), "k={k}");
        }
    }

    #[test]
    fn contract_over_domain() {
        let d = paper_scale();
        let keys: Vec<u64> = (1..13).collect();
        assert_disguise_contract(&d, &keys);
    }

    #[test]
    fn zero_and_overflow_rejected() {
        let d = paper_scale();
        assert!(matches!(
            d.disguise(0),
            Err(DisguiseError::OutOfDomain { .. })
        ));
        assert!(matches!(
            d.disguise(13),
            Err(DisguiseError::OutOfDomain { .. })
        ));
        assert!(matches!(
            d.recover(0),
            Err(DisguiseError::NotInImage { .. })
        ));
    }

    #[test]
    fn parameter_validation() {
        let ds = DifferenceSet::paper_13_4_1;
        // Composite N.
        assert!(ExpSubstitution::new(ds(), 7, 15, 7, OpCounters::new()).is_err());
        // N < v.
        assert!(ExpSubstitution::new(ds(), 7, 11, 7, OpCounters::new()).is_err());
        // Non-primitive g (3 has order 3 mod 13).
        assert!(ExpSubstitution::new(ds(), 3, 13, 7, OpCounters::new()).is_err());
        // t not coprime to N-1 = 12.
        assert!(ExpSubstitution::new(ds(), 7, 13, 6, OpCounters::new()).is_err());
    }

    #[test]
    fn treatments_match_dlog() {
        let d = paper_scale();
        // 7^1 = 7, so treatment of key 7 is 1.
        assert_eq!(d.treatment_of(7).unwrap(), 1);
        assert_eq!(d.treatment_of(1).unwrap(), 0);
        // 7^2 = 49 = 10 mod 13.
        assert_eq!(d.treatment_of(10).unwrap(), 2);
    }

    #[test]
    fn counts_dlogs_and_disguises() {
        let counters = OpCounters::new();
        let d = paper_scale_with(counters.clone());
        let _ = d.disguise(5).unwrap();
        let _ = d.recover(5).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.disguise_ops, 1);
        assert_eq!(s.dlog_ops, 1, "disguising pays one discrete log");
        assert_eq!(s.recover_ops, 1);
    }

    #[test]
    fn larger_modulus_with_singer_design() {
        // v = 10303 (Singer q=101); N = next prime >= v.
        let ds = DifferenceSet::singer(101).unwrap();
        let n = next_prime(ds.v());
        let g = sks_designs::primes::primitive_root(n);
        // Pick t coprime to n-1.
        let t = (3..n)
            .find(|&t| sks_designs::arith::coprime(t, n - 1))
            .unwrap();
        let d = ExpSubstitution::new(ds, g, n, t, OpCounters::new()).unwrap();
        let keys: Vec<u64> = (1..n).step_by(131).collect();
        assert_disguise_contract(&d, &keys);
    }
}
