//! Cyclic `(v, k, λ)` difference sets — the secret material of every disguise
//! in the paper.
//!
//! A subset `D = {d₀, …, d_{k−1}} ⊆ Z_v` is a `(v, k, λ)` difference set when
//! every nonzero residue of `Z_v` arises exactly `λ` times as a difference
//! `dᵢ − dⱼ (mod v)`. Its *development* (the translates `D + y mod v`) is a
//! symmetric BIBD with `b = v` blocks and replication `r = k`; for `λ = 1`
//! the development is a finite projective plane of order `n = k − 1` and the
//! blocks are its *lines* — the object §4 of the paper works with.
//!
//! Constructions provided:
//! * [`DifferenceSet::paper_13_4_1`] — the `(13,4,1)` set `{0,1,3,9}` used in
//!   every worked example of the paper.
//! * [`DifferenceSet::singer`] — planar `(q²+q+1, q+1, 1)` Singer sets for
//!   any prime `q`, built from the trace-zero hyperplane of `GF(q³)`. These
//!   scale to the millions of treatments needed for `v ≫ R` (§4: "we must
//!   have `v ≫ R`, where `R` is the number of records").
//! * [`DifferenceSet::quadratic_residue`] — Paley `(p, (p−1)/2, (p−3)/4)`
//!   sets for primes `p ≡ 3 (mod 4)`.

use crate::arith::{coprime, mul_mod};
use crate::gfext::GfCubic;
use crate::primes::is_prime;

/// Errors from difference-set construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// Parameters fail a structural precondition (message explains which).
    BadParameters(String),
    /// The element set is not a `(v,k,λ)` difference set.
    NotADifferenceSet {
        residue: u64,
        count: u64,
        expected: u64,
    },
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::BadParameters(msg) => write!(f, "bad design parameters: {msg}"),
            DesignError::NotADifferenceSet {
                residue,
                count,
                expected,
            } => write!(
                f,
                "not a difference set: residue {residue} occurs {count} times, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for DesignError {}

/// A verified cyclic `(v, k, λ)` difference set over `Z_v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferenceSet {
    v: u64,
    k: u64,
    lambda: u64,
    /// Base block, sorted ascending, all `< v`.
    base: Vec<u64>,
}

impl DifferenceSet {
    /// Wraps and verifies an explicit base block as a `(v, k, λ)` set.
    pub fn new(v: u64, lambda: u64, mut base: Vec<u64>) -> Result<Self, DesignError> {
        if v == 0 {
            return Err(DesignError::BadParameters("v must be positive".into()));
        }
        base.sort_unstable();
        base.dedup();
        if base.iter().any(|&d| d >= v) {
            return Err(DesignError::BadParameters(
                "base elements must lie in [0, v)".into(),
            ));
        }
        let k = base.len() as u64;
        // Necessary counting identity: k(k-1) = λ(v-1).
        if k * (k - 1) != lambda * (v - 1) {
            return Err(DesignError::BadParameters(format!(
                "k(k-1) = {} but λ(v-1) = {}",
                k * (k - 1),
                lambda * (v - 1)
            )));
        }
        let ds = DifferenceSet { v, k, lambda, base };
        ds.verify()?;
        Ok(ds)
    }

    /// The `(13, 4, 1)` difference set `{0, 1, 3, 9}` used throughout the
    /// paper's worked examples (a Singer set for the projective plane of
    /// order 3).
    pub fn paper_13_4_1() -> Self {
        DifferenceSet::new(13, 1, vec![0, 1, 3, 9]).expect("the paper's design is valid")
    }

    /// Singer construction: a planar `(q²+q+1, q+1, 1)` difference set for
    /// prime `q`, from the trace-zero points of `PG(2, q)` realised inside
    /// `GF(q³)*`.
    pub fn singer(q: u64) -> Result<Self, DesignError> {
        if !is_prime(q) {
            return Err(DesignError::BadParameters(format!(
                "Singer order q = {q} must be prime (prime powers need GF(p^k) bases)"
            )));
        }
        let v = q * q + q + 1;
        let field = GfCubic::new(q);
        let gamma = field.primitive_element();
        // Points of PG(2,q) are γ^i for i in [0, v); the trace-zero ones form
        // a line, and their indices form a perfect difference set.
        let base = field.trace_zero_powers(&gamma, v);
        if base.len() as u64 != q + 1 {
            return Err(DesignError::BadParameters(format!(
                "Singer hyperplane has {} points, expected {}",
                base.len(),
                q + 1
            )));
        }
        DifferenceSet::new(v, 1, base)
    }

    /// Paley construction: quadratic residues mod a prime `p ≡ 3 (mod 4)`
    /// form a `(p, (p−1)/2, (p−3)/4)` difference set.
    pub fn quadratic_residue(p: u64) -> Result<Self, DesignError> {
        if !is_prime(p) || p % 4 != 3 {
            return Err(DesignError::BadParameters(format!(
                "QR construction needs a prime p ≡ 3 (mod 4), got {p}"
            )));
        }
        let mut base: Vec<u64> = Vec::with_capacity(((p - 1) / 2) as usize);
        for x in 1..p {
            base.push(mul_mod(x, x, p));
        }
        base.sort_unstable();
        base.dedup();
        DifferenceSet::new(p, (p - 3) / 4, base)
    }

    /// Number of treatments (points) `v`.
    pub fn v(&self) -> u64 {
        self.v
    }

    /// Block size `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Pair-coverage index `λ`.
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// The base block `D` (sorted).
    pub fn base(&self) -> &[u64] {
        &self.base
    }

    /// Re-checks the difference-set property (used by `new`; exposed for
    /// property tests and for validating deserialised secrets).
    pub fn verify(&self) -> Result<(), DesignError> {
        check_differences(self.v, self.lambda, &self.base)
    }

    /// The translate `L_y = D + y (mod v)`, sorted — line `y` of the
    /// development. For `λ = 1` these are exactly the lines of the projective
    /// plane the paper draws its points from.
    pub fn line(&self, y: u64) -> Vec<u64> {
        let y = y % self.v;
        let mut l: Vec<u64> = self
            .base
            .iter()
            .map(|&d| {
                let s = d + y;
                if s >= self.v {
                    s - self.v
                } else {
                    s
                }
            })
            .collect();
        l.sort_unstable();
        l
    }

    /// The translate in *base order* (unsorted): element `i` is
    /// `(dᵢ + y) mod v`. This is the order the paper's tables list points in.
    pub fn line_in_base_order(&self, y: u64) -> Vec<u64> {
        let y = y % self.v;
        self.base
            .iter()
            .map(|&d| {
                let s = d + y;
                if s >= self.v {
                    s - self.v
                } else {
                    s
                }
            })
            .collect()
    }

    /// Multiplies every treatment by `t` (mod v) — the line→oval map of
    /// §4.1. Requires `gcd(t, v) = 1` so the map is invertible. Returns the
    /// image of the *base block*; images of all lines follow by translation
    /// of the multiplied set.
    pub fn multiply(&self, t: u64) -> Result<Vec<u64>, DesignError> {
        if !coprime(t, self.v) {
            return Err(DesignError::BadParameters(format!(
                "multiplier t = {t} must be coprime to v = {}",
                self.v
            )));
        }
        let mut img: Vec<u64> = self.base.iter().map(|&d| mul_mod(d, t, self.v)).collect();
        img.sort_unstable();
        Ok(img)
    }

    /// The oval `O_y = t · L_y (mod v)` in base order — row `y` of the
    /// right-hand table on p. 53 of the paper.
    pub fn oval_in_base_order(&self, y: u64, t: u64) -> Vec<u64> {
        self.line_in_base_order(y)
            .into_iter()
            .map(|x| mul_mod(x, t, self.v))
            .collect()
    }

    /// Sum of the (mod-v reduced) integer treatments on line `L_y` — the
    /// inner sum of the §4.3 substitution. `O(log k)` via the sorted base:
    /// `Σ((dᵢ+y) mod v) = Σdᵢ + k·y − v·#{i : dᵢ ≥ v−y}`.
    pub fn line_sum(&self, y: u64) -> u128 {
        let y = y % self.v;
        let base_sum: u128 = self.base.iter().map(|&d| d as u128).sum();
        let wraps = if y == 0 {
            0u128
        } else {
            let threshold = self.v - y; // dᵢ >= threshold wraps
            let idx = self.base.partition_point(|&d| d < threshold);
            (self.base.len() - idx) as u128
        };
        base_sum + (self.k as u128) * (y as u128) - (self.v as u128) * wraps
    }

    /// Cumulative treatment sum over lines `L_w ..= L_x` — the §4.3
    /// substitute `k̂` for the key assigned line `L_x` with starting line
    /// `L_w`. Sums are *not* reduced mod `v` (paper's explicit rule).
    /// Requires `w <= x < v`.
    pub fn cumulative_sum(&self, w: u64, x: u64) -> u128 {
        assert!(w <= x && x < self.v, "need w <= x < v");
        (w..=x).map(|y| self.line_sum(y)).sum()
    }
}

/// Checks that every nonzero residue occurs exactly `λ` times among pairwise
/// differences of `base`.
fn check_differences(v: u64, lambda: u64, base: &[u64]) -> Result<(), DesignError> {
    let mut counts = vec![0u64; v as usize];
    for (i, &a) in base.iter().enumerate() {
        for (j, &b) in base.iter().enumerate() {
            if i != j {
                let d = crate::arith::sub_mod(a, b, v);
                counts[d as usize] += 1;
            }
        }
    }
    for (residue, &count) in counts.iter().enumerate().skip(1) {
        if count != lambda {
            return Err(DesignError::NotADifferenceSet {
                residue: residue as u64,
                count,
                expected: lambda,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_design_is_valid_and_matches() {
        let ds = DifferenceSet::paper_13_4_1();
        assert_eq!((ds.v(), ds.k(), ds.lambda()), (13, 4, 1));
        assert_eq!(ds.base(), &[0, 1, 3, 9]);
        ds.verify().unwrap();
    }

    #[test]
    fn paper_lines_match_left_table() {
        // Rows of the left-hand table on p. 53 of the paper.
        let ds = DifferenceSet::paper_13_4_1();
        let expected: [[u64; 4]; 13] = [
            [0, 1, 3, 9],
            [1, 2, 4, 10],
            [2, 3, 5, 11],
            [3, 4, 6, 12],
            [4, 5, 7, 0],
            [5, 6, 8, 1],
            [6, 7, 9, 2],
            [7, 8, 10, 3],
            [8, 9, 11, 4],
            [9, 10, 12, 5],
            [10, 11, 0, 6],
            [11, 12, 1, 7],
            [12, 0, 2, 8],
        ];
        for (y, row) in expected.iter().enumerate() {
            assert_eq!(ds.line_in_base_order(y as u64), row.to_vec(), "line {y}");
        }
    }

    #[test]
    fn paper_ovals_match_right_table() {
        // Rows of the right-hand (oval) table on p. 53, t = 7.
        let ds = DifferenceSet::paper_13_4_1();
        let expected: [[u64; 4]; 13] = [
            [0, 7, 8, 11],
            [7, 1, 2, 5],
            [1, 8, 9, 12],
            [8, 2, 3, 6],
            [2, 9, 10, 0],
            [9, 3, 4, 7],
            [3, 10, 11, 1],
            [10, 4, 5, 8],
            [4, 11, 12, 2],
            [11, 5, 6, 9],
            [5, 12, 0, 3],
            [12, 6, 7, 10],
            [6, 0, 1, 4],
        ];
        for (y, row) in expected.iter().enumerate() {
            assert_eq!(ds.oval_in_base_order(y as u64, 7), row.to_vec(), "oval {y}");
        }
    }

    #[test]
    fn paper_cumulative_sums_match_table() {
        // The §4.3 k̂ column: 13, 30, 51, 76, 92, 112, 136, 164, 196, 232,
        // 259, 290, 312.
        let ds = DifferenceSet::paper_13_4_1();
        let expected: [u128; 13] = [13, 30, 51, 76, 92, 112, 136, 164, 196, 232, 259, 290, 312];
        for (x, &want) in expected.iter().enumerate() {
            assert_eq!(ds.cumulative_sum(0, x as u64), want, "k̂ for key {x}");
        }
    }

    #[test]
    fn line_sum_closed_form_matches_naive() {
        let ds = DifferenceSet::paper_13_4_1();
        for y in 0..13 {
            let naive: u128 = ds.line(y).iter().map(|&x| x as u128).sum();
            assert_eq!(ds.line_sum(y), naive, "line {y}");
        }
    }

    #[test]
    fn singer_small_orders() {
        for q in [2u64, 3, 5, 7, 11, 13] {
            let ds = DifferenceSet::singer(q).unwrap();
            assert_eq!(ds.v(), q * q + q + 1);
            assert_eq!(ds.k(), q + 1);
            assert_eq!(ds.lambda(), 1);
            ds.verify().unwrap();
        }
    }

    /// The Singer scan as first written: one field product (a modular
    /// reduction per coefficient product) and one trace per point.
    fn singer_per_product(q: u64) -> Vec<u64> {
        let field = GfCubic::new(q);
        let gamma = field.primitive_element();
        let mut base = Vec::new();
        let mut x = field.one();
        for i in 0..q * q + q + 1 {
            if field.trace(&x) == 0 {
                base.push(i);
            }
            x = field.mul(&x, &gamma);
        }
        base
    }

    #[test]
    fn singer_base_sets_equal_the_per_product_scan() {
        // 227, 229 and 239 are the orders the 50k-key engine workloads
        // build; 557 is the 300k-key one.
        for q in [2u64, 3, 5, 7, 11, 13, 31, 101, 211, 227, 229, 239, 557] {
            let ds = DifferenceSet::singer(q).unwrap();
            assert_eq!(ds.base(), &singer_per_product(q)[..], "q = {q}");
        }
    }

    #[test]
    fn singer_rejects_composite_order() {
        assert!(matches!(
            DifferenceSet::singer(6),
            Err(DesignError::BadParameters(_))
        ));
    }

    #[test]
    fn singer_order_three_is_translate_equivalent_to_paper() {
        // Both are (13,4,1) planar sets; the development must be a projective
        // plane of order 3 either way.
        let ds = DifferenceSet::singer(3).unwrap();
        assert_eq!((ds.v(), ds.k(), ds.lambda()), (13, 4, 1));
    }

    #[test]
    fn quadratic_residue_sets() {
        for p in [7u64, 11, 19, 23, 31] {
            let ds = DifferenceSet::quadratic_residue(p).unwrap();
            assert_eq!(ds.v(), p);
            assert_eq!(ds.k(), (p - 1) / 2);
            assert_eq!(ds.lambda(), (p - 3) / 4);
        }
        assert!(DifferenceSet::quadratic_residue(13).is_err()); // 13 ≡ 1 mod 4
        assert!(DifferenceSet::quadratic_residue(15).is_err()); // composite
    }

    #[test]
    fn new_rejects_invalid_sets() {
        // Right counting identity, wrong structure: {0,1,2,4} mod 13.
        let err = DifferenceSet::new(13, 1, vec![0, 1, 2, 4]).unwrap_err();
        assert!(matches!(err, DesignError::NotADifferenceSet { .. }));
        // Out-of-range element.
        assert!(DifferenceSet::new(13, 1, vec![0, 1, 3, 13]).is_err());
    }

    #[test]
    fn multiply_requires_coprime() {
        let ds = DifferenceSet::paper_13_4_1();
        assert!(ds.multiply(13).is_err());
        assert!(ds.multiply(0).is_err());
        let img = ds.multiply(7).unwrap();
        assert_eq!(img, vec![0, 7, 8, 11]);
    }

    #[test]
    fn multiplied_planar_set_is_still_a_difference_set() {
        // Multiplication by a unit is an automorphism of Z_v, so the image is
        // again a (v,k,λ) difference set.
        let ds = DifferenceSet::paper_13_4_1();
        for t in (1..13).filter(|&t| crate::arith::coprime(t, 13)) {
            let img = ds.multiply(t).unwrap();
            DifferenceSet::new(13, 1, img).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_line_sums_nonneg_and_bounded(y in 0u64..13) {
            let ds = DifferenceSet::paper_13_4_1();
            let s = ds.line_sum(y);
            prop_assert!(s <= (ds.k() as u128) * (ds.v() as u128 - 1));
        }

        #[test]
        fn prop_cumulative_sum_strictly_monotone(w in 0u64..6, a_off in 0u64..3, b_extra in 1u64..4) {
            let ds = DifferenceSet::paper_13_4_1();
            let xa = w + a_off;
            let xb = xa + b_extra; // strictly later line, still < v = 13
            let a = ds.cumulative_sum(w, xa);
            let b = ds.cumulative_sum(w, xb);
            // Longer prefix ⇒ strictly larger sum (line sums are positive for
            // this design since every line contains a nonzero treatment).
            prop_assert!(b > a);
        }

        #[test]
        fn prop_singer_line_sums_match_naive(q_idx in 0usize..3, y in 0u64..50) {
            let q = [3u64, 5, 7][q_idx];
            let ds = DifferenceSet::singer(q).unwrap();
            let y = y % ds.v();
            let naive: u128 = ds.line(y).iter().map(|&x| x as u128).sum();
            prop_assert_eq!(ds.line_sum(y), naive);
        }
    }
}
