//! Bit-exact regeneration of the paper's printed tables (T1, T2, T3).

use sks_core::disguise::{KeyDisguise, PaperExpSubstitution};
use sks_core::OvalSubstitution;
use sks_designs::DifferenceSet;
use sks_storage::OpCounters;

/// T1 — the `(13,4,1)` lines→ovals table of §4.1 (p. 53), `t = 7`.
pub fn table_t1() -> String {
    let ds = DifferenceSet::paper_13_4_1();
    let mut out = String::new();
    out.push_str("T1  (13,4,1) block design: points on lines Ly (left) mapped to ovals Oy = 7·Ly mod 13 (right)\n");
    out.push_str("    [paper p. 53; D = {0,1,3,9}, t = 7]\n\n");
    out.push_str("      lines L0..L12          ovals O0..O12\n");
    for y in 0..13 {
        let line = ds.line_in_base_order(y);
        let oval = ds.oval_in_base_order(y, 7);
        let fmt = |v: &[u64]| {
            v.iter()
                .map(|x| format!("{x:>2}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.push_str(&format!("    {}    |    {}\n", fmt(&line), fmt(&oval)));
    }
    out
}

/// The raw rows of T1 for programmatic checks.
pub fn t1_rows() -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let ds = DifferenceSet::paper_13_4_1();
    let lines = (0..13).map(|y| ds.line_in_base_order(y)).collect();
    let ovals = (0..13).map(|y| ds.oval_in_base_order(y, 7)).collect();
    (lines, ovals)
}

/// T2 — the §4.2 exponentiation grid (p. 55): the same table with every
/// treatment read as an exponent of `g = 7 (mod 13)`.
pub fn table_t2() -> String {
    let d = PaperExpSubstitution::paper_example(OpCounters::new());
    let lines = d.line_exponent_grid();
    let ovals = d.oval_exponent_grid();
    let mut out = String::new();
    out.push_str("T2  Exponentiation substitution grid (§4.2, p. 55): g = 7, N = 13\n");
    out.push_str("    each cell printed as 7^e — lines (left) and ovals (right)\n\n");
    for y in 0..13usize {
        let fmt = |v: &[u64]| {
            v.iter()
                .map(|e| format!("7^{e:<2}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.push_str(&format!(
            "    {}   |   {}\n",
            fmt(&lines[y]),
            fmt(&ovals[y])
        ));
    }
    out.push_str("\n    substitution: key k = 7^e mod 13 is replaced by 7^(7e mod 13) mod 13\n");
    out
}

/// T3 — the §4.3 cumulative-sum column: k̂ = 13, 30, 51, …, 312.
pub fn table_t3() -> String {
    let ds = DifferenceSet::paper_13_4_1();
    let mut out = String::new();
    out.push_str("T3  Sum-of-treatments substitutes (§4.3): w = 0, (13,4,1) design\n\n");
    out.push_str("    key   line (points)      k-hat\n");
    for x in 0..13u64 {
        let line = ds.line_in_base_order(x);
        let sum = ds.cumulative_sum(0, x);
        let pts = line
            .iter()
            .map(|p| format!("{p:>2}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!("    {x:>3}   {pts}     {sum:>5}\n"));
    }
    out
}

/// The k̂ column of T3.
pub fn t3_column() -> Vec<u128> {
    let ds = DifferenceSet::paper_13_4_1();
    (0..13).map(|x| ds.cumulative_sum(0, x)).collect()
}

/// The oval-substitution mapping used in T1/F1 (`k → 7k mod 13`).
pub fn t1_substitution_pairs() -> Vec<(u64, u64)> {
    let d = OvalSubstitution::paper_example(OpCounters::new());
    (0..13).map(|k| (k, d.disguise(k).unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_matches_paper_exactly() {
        let (lines, ovals) = t1_rows();
        // First and last rows as printed on p. 53.
        assert_eq!(lines[0], vec![0, 1, 3, 9]);
        assert_eq!(ovals[0], vec![0, 7, 8, 11]);
        assert_eq!(lines[12], vec![12, 0, 2, 8]);
        assert_eq!(ovals[12], vec![6, 0, 1, 4]);
        let rendered = table_t1();
        assert!(rendered.contains("0  1  3  9"));
        assert!(rendered.contains("0  7  8 11"));
    }

    #[test]
    fn t2_prints_exponent_grid() {
        let rendered = table_t2();
        assert!(rendered.contains("7^0"));
        assert!(rendered.contains("7^12"));
    }

    #[test]
    fn t3_matches_paper_column() {
        assert_eq!(
            t3_column(),
            vec![13, 30, 51, 76, 92, 112, 136, 164, 196, 232, 259, 290, 312]
        );
        let rendered = table_t3();
        for v in [13u64, 30, 312] {
            assert!(rendered.contains(&format!("{v}")), "missing {v}");
        }
    }

    #[test]
    fn t1_substitution_matches_section_text() {
        // "1 is substituted by 7, 2 by 1, 3 by 8, 4 by 2".
        let pairs = t1_substitution_pairs();
        assert_eq!(pairs[1], (1, 7));
        assert_eq!(pairs[2], (2, 1));
        assert_eq!(pairs[3], (3, 8));
        assert_eq!(pairs[4], (4, 2));
    }
}
