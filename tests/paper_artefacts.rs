//! Golden text for the paper artefacts: every deterministic line that
//! `repro --quick` prints, regenerated through the same `sks_bench`
//! functions with the same arguments and compared with `tests/golden/`.
//!
//! Tables T1–T3, figures F0–F3 and experiments E1, E3, E4, E5, E8, E9
//! (the §4.3 security filter) and E10 (the §5 multilevel records) are
//! pinned verbatim. E6 and E7 also print a wall-clock column, so their
//! golden files hold each row without it (the columns `repro` prints
//! before the clock). E2 is wall-clock only and is not pinned.
//!
//! On a mismatch the test prints the section's actual text; after checking
//! that the change is meant, paste it over the golden file.

use sks_bench::experiments::{self, Scale};
use sks_bench::{figures, tables};

const QUICK: Scale = Scale::QUICK;

fn pin(golden_file: &str, golden: &str, actual: &str) {
    assert!(
        actual == golden,
        "tests/golden/{golden_file} no longer matches; the section now reads:\n{actual}"
    );
}

#[test]
fn tables_t1_t3() {
    pin("t1.txt", include_str!("golden/t1.txt"), &tables::table_t1());
    pin("t2.txt", include_str!("golden/t2.txt"), &tables::table_t2());
    pin("t3.txt", include_str!("golden/t3.txt"), &tables::table_t3());
}

#[test]
fn figures_f0_f3() {
    pin(
        "figures.txt",
        include_str!("golden/figures.txt"),
        &figures::all_figures(),
    );
}

#[test]
fn e1_decryptions_per_lookup() {
    let (text, _) = experiments::e1_decryptions(QUICK.n_mid, &[512, 1024, 4096]);
    pin("e1.txt", include_str!("golden/e1.txt"), &text);
}

#[test]
fn e3_node_layout() {
    pin(
        "e3.txt",
        include_str!("golden/e3.txt"),
        &experiments::e3_layout(4096).0,
    );
}

#[test]
fn e4_reencipherment_under_churn() {
    let (text, _) = experiments::e4_reorg(QUICK.n_small, QUICK.churn, 512);
    pin("e4.txt", include_str!("golden/e4.txt"), &text);
}

#[test]
fn e5_shape_reconstruction() {
    pin(
        "e5.txt",
        include_str!("golden/e5.txt"),
        &experiments::e5_shape_security(150, 512).0,
    );
}

#[test]
fn e6_range_scans_without_the_clock() {
    let (_, rows) = experiments::e6_ranges(QUICK.n_mid, 1024);
    let text: String = rows
        .iter()
        .map(|r| {
            format!(
                "    {:<18} {:>7} {:>8} {:>12}\n",
                r.scheme.name(),
                r.width,
                r.results,
                r.seal_decrypts
            )
        })
        .collect();
    pin("e6.txt", include_str!("golden/e6.txt"), &text);
}

#[test]
fn e7_pointer_ciphers_without_the_clock() {
    let (_, rows) = experiments::e7_pointer_ciphers();
    let text: String = rows
        .iter()
        .map(|(cipher, _, sealed_len)| format!("    {cipher:<10} {sealed_len:>12}\n"))
        .collect();
    pin("e7.txt", include_str!("golden/e7.txt"), &text);
}

#[test]
fn e8_secret_material() {
    let (text, _) = experiments::e8_secret_material(&[1_000, 10_000, 100_000]);
    pin("e8.txt", include_str!("golden/e8.txt"), &text);
}

#[test]
fn e9_security_filter() {
    pin(
        "e9.txt",
        include_str!("golden/e9.txt"),
        &experiments::e9_security_filter(),
    );
}

#[test]
fn e10_multilevel_records() {
    pin(
        "e10.txt",
        include_str!("golden/e10.txt"),
        &experiments::e10_multilevel_records(),
    );
}
