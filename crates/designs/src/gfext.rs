//! The cubic extension field `GF(p³)`, used by the Singer construction of
//! planar difference sets (see [`crate::diffset::DifferenceSet::singer`]).
//!
//! Elements are polynomials `c0 + c1·α + c2·α²` over `GF(p)` reduced modulo a
//! monic irreducible cubic `x³ + a2·x² + a1·x + a0`, represented as `[u64; 3]`
//! coefficient arrays (low degree first).

use crate::gf::Gf;
use crate::primes::{distinct_prime_factors, is_prime};

/// An element of `GF(p³)`: coefficients `[c0, c1, c2]` of `c0 + c1 α + c2 α²`.
pub type Elt = [u64; 3];

/// The field `GF(p³)` for a prime `p`, with a certified irreducible modulus.
#[derive(Debug, Clone)]
pub struct GfCubic {
    base: Gf,
    /// `[a0, a1, a2]` of the monic modulus `x³ + a2 x² + a1 x + a0`.
    modulus_poly: [u64; 3],
    /// Trace of the basis elements `1, α, α²` (precomputed closed forms).
    trace_basis: [u64; 3],
}

impl GfCubic {
    /// Builds `GF(p³)` by searching deterministically for an irreducible
    /// monic cubic over `GF(p)`.
    pub fn new(p: u64) -> Self {
        assert!(is_prime(p), "GF(p^3) characteristic {p} must be prime");
        let base = Gf::new(p);
        // Deterministic scan over x^3 + a1 x + a0 first (depressed cubics),
        // then fall back to full cubics. Roughly 1/3 of cubics are
        // irreducible, so this terminates almost immediately.
        let mut found: Option<[u64; 3]> = None;
        'search: for a1 in 0..p {
            for a0 in 1..p {
                let cand = [a0, a1, 0];
                if cubic_is_irreducible(&base, cand) {
                    found = Some(cand);
                    break 'search;
                }
            }
        }
        let modulus_poly = found.expect("irreducible cubics exist over every GF(p)");
        Self::with_modulus(p, modulus_poly)
    }

    /// Builds `GF(p³)` with an explicit modulus `x³ + a2 x² + a1 x + a0`
    /// given as `[a0, a1, a2]`. Panics if the cubic is reducible.
    pub fn with_modulus(p: u64, modulus_poly: [u64; 3]) -> Self {
        let base = Gf::new(p);
        assert!(
            cubic_is_irreducible(&base, modulus_poly),
            "modulus cubic is reducible over GF({p})"
        );
        let [_, a1, a2] = modulus_poly;
        // Power sums of the roots of the monic cubic: Tr(1) = 3,
        // Tr(α) = -a2, Tr(α²) = a2² - 2·a1.
        let trace_basis = [
            base.reduce(3),
            base.neg(a2),
            base.sub(base.mul(a2, a2), base.mul(2, a1)),
        ];
        GfCubic {
            base,
            modulus_poly,
            trace_basis,
        }
    }

    /// The base field `GF(p)`.
    pub fn base(&self) -> &Gf {
        &self.base
    }

    /// Characteristic `p`.
    pub fn characteristic(&self) -> u64 {
        self.base.modulus()
    }

    /// Field size `p³` as `u128` (may exceed `u64`).
    pub fn order(&self) -> u128 {
        let p = self.base.modulus() as u128;
        p * p * p
    }

    /// Multiplicative group order `p³ − 1` (panics on overflow past `u64`;
    /// Singer parameters keep this far below the limit).
    pub fn group_order(&self) -> u64 {
        let o = self.order() - 1;
        u64::try_from(o).expect("p^3 - 1 must fit in u64 for this construction")
    }

    pub fn zero(&self) -> Elt {
        [0, 0, 0]
    }

    pub fn one(&self) -> Elt {
        [1, 0, 0]
    }

    /// The adjoined root `α` of the modulus cubic.
    pub fn alpha(&self) -> Elt {
        [0, 1, 0]
    }

    pub fn is_zero(&self, a: &Elt) -> bool {
        a.iter().all(|&c| c == 0)
    }

    pub fn add(&self, a: &Elt, b: &Elt) -> Elt {
        [
            self.base.add(a[0], b[0]),
            self.base.add(a[1], b[1]),
            self.base.add(a[2], b[2]),
        ]
    }

    pub fn sub(&self, a: &Elt, b: &Elt) -> Elt {
        [
            self.base.sub(a[0], b[0]),
            self.base.sub(a[1], b[1]),
            self.base.sub(a[2], b[2]),
        ]
    }

    /// Product with reduction modulo the cubic.
    pub fn mul(&self, a: &Elt, b: &Elt) -> Elt {
        let f = &self.base;
        // Schoolbook convolution to degree 4.
        let mut c = [0u64; 5];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                c[i + j] = f.add(c[i + j], f.mul(ai, bj));
            }
        }
        // Reduce: x³ ≡ -(a2 x² + a1 x + a0).
        let [a0, a1, a2] = self.modulus_poly;
        for deg in (3..=4).rev() {
            let coef = c[deg];
            if coef == 0 {
                continue;
            }
            c[deg] = 0;
            c[deg - 1] = f.sub(c[deg - 1], f.mul(coef, a2));
            c[deg - 2] = f.sub(c[deg - 2], f.mul(coef, a1));
            c[deg - 3] = f.sub(c[deg - 3], f.mul(coef, a0));
        }
        [c[0], c[1], c[2]]
    }

    /// `a^e` by square-and-multiply.
    pub fn pow(&self, a: &Elt, mut e: u64) -> Elt {
        let mut acc = self.one();
        let mut base = *a;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(&acc, &base);
            }
            base = self.mul(&base, &base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via `a^(p³−2)`; `None` for zero.
    pub fn inv(&self, a: &Elt) -> Option<Elt> {
        if self.is_zero(a) {
            return None;
        }
        Some(self.pow(a, self.group_order() - 1))
    }

    /// Field trace to `GF(p)`: `Tr(x) = x + x^p + x^(p²)`, computed via the
    /// precomputed traces of the basis (trace is `GF(p)`-linear).
    pub fn trace(&self, a: &Elt) -> u64 {
        let f = &self.base;
        let t = &self.trace_basis;
        f.add(
            f.add(f.mul(a[0], t[0]), f.mul(a[1], t[1])),
            f.mul(a[2], t[2]),
        )
    }

    /// The exponents `i < n`, ascending, at which `g^i` has trace zero.
    ///
    /// Multiplication by a fixed `g` is a `GF(p)`-linear map, so the walk
    /// `x ← x·g` is a 3×3 matrix product over plain integers with one
    /// reduction per coefficient, and the trace one dot product with one
    /// more: four reductions a point instead of one per coefficient
    /// product. No intermediate overflows: `p³ − 1` fits in `u64`, so
    /// `p < 2²²` and a sum of three products of residues stays below
    /// `3p² < 2⁴⁶`.
    pub(crate) fn trace_zero_powers(&self, g: &Elt, n: u64) -> Vec<u64> {
        let p = self.characteristic();
        assert!(u64::try_from(self.order()).is_ok(), "p³ must fit in u64");
        // Column i of the matrix is α^i · g.
        let cols = [
            self.one(),
            self.alpha(),
            self.mul(&self.alpha(), &self.alpha()),
        ]
        .map(|basis| self.mul(&basis, g));
        let t = self.trace_basis;
        let mut out = Vec::new();
        let mut x = self.one();
        for i in 0..n {
            if (x[0] * t[0] + x[1] * t[1] + x[2] * t[2]).is_multiple_of(p) {
                out.push(i);
            }
            x = [0, 1, 2].map(|j| (cols[0][j] * x[0] + cols[1][j] * x[1] + cols[2][j] * x[2]) % p);
        }
        out
    }

    /// A generator of the cyclic group `GF(p³)*`, found by deterministic
    /// search certified against the factorisation of `p³ − 1`.
    pub fn primitive_element(&self) -> Elt {
        let n = self.group_order();
        let factors = distinct_prime_factors(n);
        let is_generator = |g: &Elt| -> bool {
            !self.is_zero(g) && factors.iter().all(|&q| self.pow(g, n / q) != self.one())
        };
        // α itself is often primitive; then walk simple affine candidates.
        let alpha = self.alpha();
        if is_generator(&alpha) {
            return alpha;
        }
        let p = self.characteristic();
        for c1 in 1..p {
            for c0 in 0..p {
                let g = [c0, c1, 0];
                if is_generator(&g) {
                    return g;
                }
            }
        }
        for c2 in 1..p {
            for c0 in 0..p {
                let g = [c0, 1, c2];
                if is_generator(&g) {
                    return g;
                }
            }
        }
        unreachable!("GF(p^3)* is cyclic and must contain a generator")
    }
}

/// Irreducibility test for a monic cubic over `GF(p)`: a cubic is reducible
/// iff it has a root in the base field, i.e. iff `gcd(x^p − x, f) ≠ 1`.
fn cubic_is_irreducible(base: &Gf, modulus: [u64; 3]) -> bool {
    let [a0, _, _] = modulus;
    if a0 == 0 {
        return false; // x divides f
    }
    let p = base.modulus();
    if p <= 4096 {
        // Direct root scan is cheapest at small characteristic.
        let coeffs = [modulus[0], modulus[1], modulus[2], 1];
        return (0..p).all(|x| base.eval_poly(&coeffs, x) != 0);
    }
    // x^p mod f by square-and-multiply on degree-<3 residues.
    let xp = poly_pow_x(base, modulus, p);
    // gcd(x^p - x, f): x^p - x as residue is xp with x subtracted.
    let mut g = xp;
    g[1] = base.sub(g[1], 1);
    poly_gcd_is_one(base, modulus, g)
}

/// Computes `x^e mod (x³ + a2 x² + a1 x + a0)` over `GF(p)`.
fn poly_pow_x(base: &Gf, modulus: [u64; 3], e: u64) -> [u64; 3] {
    let fld = CubicModCtx { base, modulus };
    let mut acc = [1u64, 0, 0];
    let mut b = [0u64, 1, 0];
    let mut e = e;
    while e > 0 {
        if e & 1 == 1 {
            acc = fld.mul(&acc, &b);
        }
        b = fld.mul(&b, &b);
        e >>= 1;
    }
    acc
}

/// Minimal residue-multiplication context (avoids constructing a full
/// `GfCubic`, which asserts irreducibility — circular during the test).
struct CubicModCtx<'a> {
    base: &'a Gf,
    modulus: [u64; 3],
}

impl CubicModCtx<'_> {
    fn mul(&self, a: &[u64; 3], b: &[u64; 3]) -> [u64; 3] {
        let f = self.base;
        let mut c = [0u64; 5];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                c[i + j] = f.add(c[i + j], f.mul(ai, bj));
            }
        }
        let [a0, a1, a2] = self.modulus;
        for deg in (3..=4).rev() {
            let coef = c[deg];
            if coef == 0 {
                continue;
            }
            c[deg] = 0;
            c[deg - 1] = f.sub(c[deg - 1], f.mul(coef, a2));
            c[deg - 2] = f.sub(c[deg - 2], f.mul(coef, a1));
            c[deg - 3] = f.sub(c[deg - 3], f.mul(coef, a0));
        }
        [c[0], c[1], c[2]]
    }
}

/// `true` iff `gcd(f, g) == 1` where `f` is the monic cubic `[a0,a1,a2]`+x³
/// and `g` is a polynomial of degree < 3 given by its coefficients.
fn poly_gcd_is_one(base: &Gf, modulus: [u64; 3], g: [u64; 3]) -> bool {
    // Represent polys as Vec<u64> low-first, trimmed.
    let trim = |mut v: Vec<u64>| -> Vec<u64> {
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    };
    let mut a: Vec<u64> = trim(vec![modulus[0], modulus[1], modulus[2], 1]);
    let mut b: Vec<u64> = trim(g.to_vec());
    while !b.is_empty() {
        // a mod b
        let mut r = a.clone();
        let bl = *b.last().unwrap();
        let bl_inv = base.inv(bl).expect("leading coeff nonzero in GF(p)");
        while r.len() >= b.len() && !r.is_empty() {
            let shift = r.len() - b.len();
            let q = base.mul(*r.last().unwrap(), bl_inv);
            for (i, &bc) in b.iter().enumerate() {
                let idx = i + shift;
                r[idx] = base.sub(r[idx], base.mul(q, bc));
            }
            r = trim(r);
        }
        a = b;
        b = r;
    }
    a.len() == 1 // gcd is a nonzero constant
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builds_small_fields() {
        for p in [2u64, 3, 5, 7, 13, 97] {
            let f = GfCubic::new(p);
            assert_eq!(f.characteristic(), p);
            assert_eq!(f.order(), (p as u128).pow(3));
        }
    }

    #[test]
    fn mul_matches_manual_gf2() {
        // GF(8) with some irreducible cubic; check α³ resolves per modulus.
        let f = GfCubic::new(2);
        let [a0, a1, a2] = f.modulus_poly;
        let alpha = f.alpha();
        let a3 = f.mul(&f.mul(&alpha, &alpha), &alpha);
        // α³ = -(a2 α² + a1 α + a0) = a2 α² + a1 α + a0 over GF(2)
        assert_eq!(a3, [a0, a1, a2]);
    }

    #[test]
    fn group_order_and_inverse() {
        let f = GfCubic::new(5);
        let n = f.group_order();
        assert_eq!(n, 124);
        for elt in [[1u64, 2, 3], [4, 0, 1], [0, 0, 2], [3, 3, 3]] {
            let inv = f.inv(&elt).unwrap();
            assert_eq!(f.mul(&elt, &inv), f.one());
            assert_eq!(f.pow(&elt, n), f.one(), "Lagrange for {elt:?}");
        }
        assert_eq!(f.inv(&f.zero()), None);
    }

    #[test]
    fn primitive_element_has_full_order() {
        for p in [2u64, 3, 5, 7, 11, 13] {
            let f = GfCubic::new(p);
            let g = f.primitive_element();
            let n = f.group_order();
            assert_eq!(f.pow(&g, n), f.one());
            for q in crate::primes::distinct_prime_factors(n) {
                assert_ne!(f.pow(&g, n / q), f.one(), "p={p}, q={q}");
            }
        }
    }

    #[test]
    fn trace_matches_frobenius_definition() {
        // Tr(x) = x + x^p + x^{p²} must land in GF(p) and match closed form.
        for p in [3u64, 5, 7, 13] {
            let f = GfCubic::new(p);
            for elt in [
                [1u64, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
                [2, 1, 2],
                [p - 1, 3 % p, 1],
            ] {
                let frob1 = f.pow(&elt, p);
                let frob2 = f.pow(&frob1, p);
                let s = f.add(&f.add(&elt, &frob1), &frob2);
                assert_eq!(s[1], 0, "trace must be scalar (p={p}, e={elt:?})");
                assert_eq!(s[2], 0);
                assert_eq!(s[0], f.trace(&elt), "closed form (p={p}, e={elt:?})");
            }
        }
    }

    #[test]
    fn trace_is_linear_and_onto() {
        let f = GfCubic::new(7);
        // Linearity over random-ish pairs.
        let a = [3u64, 5, 1];
        let b = [6u64, 2, 4];
        assert_eq!(
            f.trace(&f.add(&a, &b)),
            f.base().add(f.trace(&a), f.trace(&b))
        );
        // Surjectivity: the kernel has size p², so every value is hit p² times.
        let mut counts = [0u64; 7];
        for c0 in 0..7 {
            for c1 in 0..7 {
                for c2 in 0..7 {
                    counts[f.trace(&[c0, c1, c2]) as usize] += 1;
                }
            }
        }
        assert!(counts.iter().all(|&c| c == 49));
    }

    #[test]
    fn explicit_modulus_rejected_if_reducible() {
        // x³ - 1 = (x-1)(x²+x+1) over GF(7) is reducible.
        let res = std::panic::catch_unwind(|| GfCubic::with_modulus(7, [6, 0, 0]));
        assert!(res.is_err());
    }

    #[test]
    fn larger_characteristic_smoke() {
        // q = 1009 is the Singer scale used by benches.
        let f = GfCubic::new(1009);
        let g = f.primitive_element();
        assert_ne!(f.pow(&g, f.group_order() / 3), f.one());
        assert_eq!(f.pow(&g, f.group_order()), f.one());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_mul_commutes_and_associates(
            a0 in 0u64..13, a1 in 0u64..13, a2 in 0u64..13,
            b0 in 0u64..13, b1 in 0u64..13, b2 in 0u64..13,
            c0 in 0u64..13, c1 in 0u64..13, c2 in 0u64..13,
        ) {
            let f = GfCubic::new(13);
            let a = [a0, a1, a2];
            let b = [b0, b1, b2];
            let c = [c0, c1, c2];
            prop_assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
            prop_assert_eq!(f.mul(&f.mul(&a, &b), &c), f.mul(&a, &f.mul(&b, &c)));
            prop_assert_eq!(
                f.mul(&a, &f.add(&b, &c)),
                f.add(&f.mul(&a, &b), &f.mul(&a, &c))
            );
        }

        #[test]
        fn prop_pow_adds_exponents(e1 in 0u64..200, e2 in 0u64..200) {
            let f = GfCubic::new(11);
            let g = f.primitive_element();
            let lhs = f.mul(&f.pow(&g, e1), &f.pow(&g, e2));
            prop_assert_eq!(lhs, f.pow(&g, e1 + e2));
        }
    }
}
