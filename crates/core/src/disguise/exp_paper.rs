//! §4.2 — the *literal* worked example of substitution using exponentiation
//! modulus, reproduced exactly as printed (`v = N = 13`, `g = 7`, `t = 7`).
//!
//! The paper finds the treatment `t_αβ` of a key by scanning lines
//! `L₀, L₁, …` and comparing `g^treatment mod N` with the key, then
//! substitutes `g^(oval treatment) = g^(t·t_αβ mod v) mod N`. Because the
//! paper reduces exponents modulo `v = 13` while `g` has order `N − 1 = 12`,
//! treatments 0 and 12 denote the same key and the map collides (keys 1 and
//! 2 both substitute to 1 in the example). This type reproduces the printed
//! tables *verbatim* and restricts the usable key domain to the collision-
//! free subset; [`super::ExpSubstitution`] is the invertible reading used by
//! the quantitative experiments.

use sks_designs::arith::{inv_mod, mul_mod, pow_mod};
use sks_designs::diffset::DifferenceSet;
use sks_storage::OpCounters;

use super::{bump_disguise, bump_recover, DisguiseError, KeyDisguise};

/// The paper's literal exponentiation substitution.
#[derive(Debug, Clone)]
pub struct PaperExpSubstitution {
    design: DifferenceSet,
    g: u64,
    n: u64,
    t: u64,
    t_inv_mod_v: u64,
    counters: OpCounters,
}

impl PaperExpSubstitution {
    /// Requires `v == N` (the worked example's setting) so treatments and
    /// exponent residues coincide the way the paper uses them.
    pub fn new(
        design: DifferenceSet,
        g: u64,
        n: u64,
        t: u64,
        counters: OpCounters,
    ) -> Result<Self, DisguiseError> {
        if design.v() != n {
            return Err(DisguiseError::BadParameters(format!(
                "the literal construction needs v == N (got v = {}, N = {n})",
                design.v()
            )));
        }
        let t_inv_mod_v = inv_mod(t, design.v()).ok_or_else(|| {
            DisguiseError::BadParameters(format!("t = {t} not invertible mod v = {}", design.v()))
        })?;
        Ok(PaperExpSubstitution {
            design,
            g,
            n,
            t,
            t_inv_mod_v,
            counters,
        })
    }

    /// The exact Figure 2 parameters: `(13,4,1)`, `g = 7`, `N = 13`, `t = 7`.
    pub fn paper_example(counters: OpCounters) -> Self {
        PaperExpSubstitution::new(DifferenceSet::paper_13_4_1(), 7, 13, 7, counters)
            .expect("paper parameters are valid")
    }

    pub fn design(&self) -> &DifferenceSet {
        &self.design
    }

    /// Scans lines `L₀, L₁, …` for the first point whose exponentiation
    /// matches `key`, exactly as §4.2 prescribes. Returns
    /// `(line, point index within line, treatment)`.
    pub fn scan_for_treatment(&self, key: u64) -> Result<(u64, usize, u64), DisguiseError> {
        self.counters.bump(|c| &c.dlog_ops);
        for y in 0..self.design.v() {
            let line = self.design.line_in_base_order(y);
            for (idx, &treatment) in line.iter().enumerate() {
                self.counters.bump(|c| &c.key_compares);
                if pow_mod(self.g, treatment, self.n) == key {
                    return Ok((y, idx, treatment));
                }
            }
        }
        Err(DisguiseError::NotInImage { value: key })
    }

    /// The lines-side exponent grid: row `y` lists the treatments of line
    /// `L_y` (to be read as `g^treatment`), matching the left column of the
    /// p. 55 table.
    pub fn line_exponent_grid(&self) -> Vec<Vec<u64>> {
        (0..self.design.v())
            .map(|y| self.design.line_in_base_order(y))
            .collect()
    }

    /// The ovals-side exponent grid: row `y` lists `t·treatment mod v` — the
    /// right column of the p. 55 table.
    pub fn oval_exponent_grid(&self) -> Vec<Vec<u64>> {
        (0..self.design.v())
            .map(|y| self.design.oval_in_base_order(y, self.t))
            .collect()
    }
}

impl KeyDisguise for PaperExpSubstitution {
    fn disguise(&self, key: u64) -> Result<u64, DisguiseError> {
        if key == 0 || key >= self.n {
            return Err(DisguiseError::OutOfDomain {
                key,
                domain: format!("[1, {})", self.n),
            });
        }
        bump_disguise(&self.counters);
        let (_, _, e) = self.scan_for_treatment(key)?;
        let oval_exp = mul_mod(e, self.t, self.design.v());
        Ok(pow_mod(self.g, oval_exp, self.n))
    }

    fn recover(&self, disguised: u64) -> Result<u64, DisguiseError> {
        if disguised == 0 || disguised >= self.n {
            return Err(DisguiseError::NotInImage { value: disguised });
        }
        bump_recover(&self.counters);
        // Find the oval exponent by the same scan, invert the oval map mod
        // v, and re-exponentiate.
        let (_, _, e_prime) = self.scan_for_treatment(disguised)?;
        let e = mul_mod(e_prime, self.t_inv_mod_v, self.design.v());
        Ok(pow_mod(self.g, e, self.n))
    }

    fn order_preserving(&self) -> bool {
        false
    }

    fn charge(&self, _disguises: u64, _recoveries: u64) -> bool {
        // The line scan counts one comparison per point it reads, so no
        // two calls need cost the same; and the literal construction is
        // not injective, so a recovered key need not disguise back to its
        // field. Callers compute.
        false
    }

    fn domain_size(&self) -> Option<u64> {
        Some(self.n)
    }

    fn secret_size_bytes(&self) -> usize {
        3 * 8 + self.design.base().len() * 8 + 3 * 8
    }

    fn name(&self) -> &'static str {
        "exponentiation-paper"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> PaperExpSubstitution {
        PaperExpSubstitution::paper_example(OpCounters::new())
    }

    /// Whether a key is inside the collision-free domain (its treatment's
    /// oval exponent does not alias `g`'s order wraparound).
    fn key_is_unambiguous(d: &PaperExpSubstitution, key: u64) -> bool {
        if key == 0 || key >= d.n {
            return false;
        }
        let Ok((_, _, e)) = d.scan_for_treatment(key) else {
            return false;
        };
        let oval_exp = mul_mod(e, d.t, d.design.v());
        // Ambiguous iff either exponent is a multiple of the group order
        // N−1 (exponents 0 and N−1 denote the same element, the identity).
        e % (d.n - 1) != 0 && !oval_exp.is_multiple_of(d.n - 1)
    }

    #[test]
    fn exponent_grids_match_page_55() {
        let d = paper();
        let lines = d.line_exponent_grid();
        let ovals = d.oval_exponent_grid();
        // Row 0 of the printed table: 7^0 7^1 7^3 7^9  |  7^0 7^7 7^8 7^11.
        assert_eq!(lines[0], vec![0, 1, 3, 9]);
        assert_eq!(ovals[0], vec![0, 7, 8, 11]);
        // Row 7: 7^7 7^8 7^10 7^3  |  7^10 7^4 7^5 7^8.
        assert_eq!(lines[7], vec![7, 8, 10, 3]);
        assert_eq!(ovals[7], vec![10, 4, 5, 8]);
        assert_eq!(lines.len(), 13);
        assert_eq!(ovals.len(), 13);
    }

    #[test]
    fn scan_finds_smallest_treatment_in_line_order() {
        let d = paper();
        // Key 1 = 7^0: treatment 0 sits on line L0.
        assert_eq!(d.scan_for_treatment(1).unwrap(), (0, 0, 0));
        // Key 7 = 7^1: treatment 1 also sits on line L0 (point index 1).
        assert_eq!(d.scan_for_treatment(7).unwrap(), (0, 1, 1));
        // Key 10 = 7^2: treatment 2 first appears on line L1 at index 1.
        assert_eq!(d.scan_for_treatment(10).unwrap(), (1, 1, 2));
    }

    #[test]
    fn literal_substitution_values() {
        let d = paper();
        // Key 7 has treatment 1 → oval exponent 7 → k̂ = 7^7 mod 13 = 6.
        assert_eq!(d.disguise(7).unwrap(), pow_mod(7, 7, 13));
        // Key 10 has treatment 2 → oval exponent 1 → k̂ = 7.
        assert_eq!(d.disguise(10).unwrap(), 7);
    }

    #[test]
    fn documented_collision_of_the_literal_scheme() {
        // Keys 1 (treatment 0) and 2 (treatment 11, oval exponent 77 mod 13
        // = 12) both substitute to 7^0 = 7^12 = 1: the paper's construction
        // is not injective. This test pins the deviation we document.
        let d = paper();
        assert_eq!(d.disguise(1).unwrap(), 1);
        assert_eq!(d.disguise(2).unwrap(), 1);
        assert!(!key_is_unambiguous(&d, 1) || !key_is_unambiguous(&d, 2));
    }

    #[test]
    fn roundtrip_on_unambiguous_domain() {
        let d = paper();
        for key in 3..13u64 {
            if key_is_unambiguous(&d, key) {
                let dk = d.disguise(key).unwrap();
                assert_eq!(d.recover(dk).unwrap(), key, "key {key}");
            }
        }
    }

    #[test]
    fn requires_v_equals_n() {
        let err =
            PaperExpSubstitution::new(DifferenceSet::paper_13_4_1(), 7, 17, 7, OpCounters::new())
                .unwrap_err();
        assert!(matches!(err, DisguiseError::BadParameters(_)));
    }

    #[test]
    fn counts_scans_as_dlogs() {
        let counters = OpCounters::new();
        let d = PaperExpSubstitution::paper_example(counters.clone());
        let _ = d.disguise(7).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.dlog_ops, 1);
        assert!(s.key_compares >= 1, "the scan compares points on lines");
    }
}
