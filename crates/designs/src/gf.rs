//! The prime field `GF(p)`.
//!
//! A lightweight context type: elements are plain `u64` residues and all
//! operations go through a [`Gf`] handle that carries the modulus. This keeps
//! element values trivially copyable and serialisable, which matters because
//! disguised search keys are stored raw in node blocks.

use crate::arith::{add_mod, inv_mod, mul_mod, pow_mod, sub_mod};
use crate::primes::is_prime;

/// A prime field `GF(p)`. Construct with [`Gf::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gf {
    p: u64,
}

impl Gf {
    /// Creates the field `GF(p)`. Panics if `p` is not prime — a non-prime
    /// modulus silently breaks inversion, so this is a programming error.
    pub fn new(p: u64) -> Self {
        assert!(is_prime(p), "GF modulus {p} must be prime");
        Gf { p }
    }

    /// The field characteristic / modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Canonical representative of `x`.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        x % self.p
    }

    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        add_mod(a, b, self.p)
    }

    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        sub_mod(a, b, self.p)
    }

    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        sub_mod(0, a, self.p)
    }

    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        mul_mod(a, b, self.p)
    }

    /// Multiplicative inverse; `None` for zero.
    #[inline]
    pub fn inv(&self, a: u64) -> Option<u64> {
        inv_mod(a % self.p, self.p)
    }

    #[inline]
    pub fn pow(&self, a: u64, e: u64) -> u64 {
        pow_mod(a, e, self.p)
    }

    /// Evaluates the polynomial with coefficients `coeffs` (low-to-high
    /// degree) at `x`, by Horner's rule.
    pub fn eval_poly(&self, coeffs: &[u64], x: u64) -> u64 {
        coeffs
            .iter()
            .rev()
            .fold(0u64, |acc, &c| self.add(self.mul(acc, x), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn field_axioms_gf13() {
        let f = Gf::new(13);
        for a in 0..13 {
            for b in 0..13 {
                assert_eq!(f.add(a, b), (a + b) % 13);
                assert_eq!(f.mul(a, b), (a * b) % 13);
                assert_eq!(f.add(a, f.neg(a)), 0);
                if b != 0 {
                    let q = f.mul(a, f.inv(b).unwrap());
                    assert_eq!(f.mul(q, b), a);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn rejects_composite_modulus() {
        Gf::new(12);
    }

    #[test]
    fn inverse_of_zero_is_none() {
        let f = Gf::new(7);
        assert_eq!(f.inv(0), None);
    }

    #[test]
    fn horner_eval() {
        let f = Gf::new(13);
        // 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38 = 12 mod 13
        assert_eq!(f.eval_poly(&[3, 2, 1], 5), 12);
        assert_eq!(f.eval_poly(&[], 5), 0);
        assert_eq!(f.eval_poly(&[7], 5), 7);
    }

    proptest! {
        #[test]
        fn prop_distributivity(a in 0u64..97, b in 0u64..97, c in 0u64..97) {
            let f = Gf::new(97);
            prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        }

        #[test]
        fn prop_inverse(a in 1u64..996, pidx in 0usize..3) {
            let p = [997u64, 499, 157][pidx];
            let f = Gf::new(p);
            let a = a % p;
            if a != 0 {
                prop_assert_eq!(f.mul(a, f.inv(a).unwrap()), 1);
            }
        }
    }
}
