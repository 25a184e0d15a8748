//! Bit-exact regeneration of the paper's printed tables (T1, T2, T3).

use sks_core::disguise::PaperExpSubstitution;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_matches_paper_exactly() {
        // First and last rows as printed on p. 53.
        let rendered = table_t1();
        assert!(rendered.contains(" 0  1  3  9    |     0  7  8 11"));
        assert!(rendered.contains("12  0  2  8    |     6  0  1  4"));
    }

    #[test]
    fn t2_prints_exponent_grid() {
        let rendered = table_t2();
        assert!(rendered.contains("7^0"));
        assert!(rendered.contains("7^12"));
    }

    #[test]
    fn t3_prints_the_paper_column() {
        let rendered = table_t3();
        for v in [
            13u64, 30, 51, 76, 92, 112, 136, 164, 196, 232, 259, 290, 312,
        ] {
            assert!(rendered.contains(&format!("{v}")), "missing {v}");
        }
    }
}
