//! `repro` — regenerates every table, figure and experiment of the
//! reproduction.
//!
//! ```text
//! repro --all                  everything (tables, figures, E1–E10)
//! repro --tables               T1 T2 T3
//! repro --figures              F1 F2 F3 (+ the plaintext reference)
//! repro --table t1|t2|t3
//! repro --figure f1|f2|f3
//! repro --exp e1|e2|…|e10      one experiment
//! repro --quick                everything at the small scale
//! ```
//!
//! `--quick` only sets the scale ([`Scale::QUICK`]), so `--exp e1 --quick`
//! runs E1 alone, small. An unknown argument or name exits with status 2
//! before anything runs.

use sks_bench::experiments::{self, Scale};
use sks_bench::{figures, tables};

const TABLES: [&str; 3] = ["t1", "t2", "t3"];
const FIGURES: [&str; 3] = ["f1", "f2", "f3"];
const EXPERIMENTS: [&str; 10] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

const USAGE: &str =
    "usage: repro [--all | --quick | --tables | --figures | --table tN | --figure fN | --exp eN] [--quick]";

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

/// The value of `--table`/`--figure`/`--exp`, checked against `known`.
fn selector(flag: &str, value: Option<String>, known: &[&'static str]) -> &'static str {
    let value = value.unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    known
        .iter()
        .find(|&&k| k == value)
        .copied()
        .unwrap_or_else(|| {
            fail(&format!(
                "unknown {flag} {value} (expected {})",
                known.join("|")
            ))
        })
}

/// One section's text; `figures` is F0–F3 together.
fn render(section: &str, scale: Scale) -> String {
    match section {
        "t1" => tables::table_t1(),
        "t2" => tables::table_t2(),
        "t3" => tables::table_t3(),
        "figures" => figures::all_figures(),
        "f1" => figures::figure_f1(),
        "f2" => figures::figure_f2(),
        "f3" => figures::figure_f3(),
        "e1" => experiments::e1_decryptions(scale.n_mid, &[512, 1024, 4096]).0,
        "e2" => experiments::e2_throughput(scale.n_mid, 1024).0,
        "e3" => experiments::e3_layout(4096).0,
        "e4" => experiments::e4_reorg(scale.n_small, scale.churn, 512).0,
        "e5" => experiments::e5_shape_security(150, 512).0,
        "e6" => experiments::e6_ranges(scale.n_mid, 1024).0,
        "e7" => experiments::e7_pointer_ciphers().0,
        "e8" => experiments::e8_secret_material(&[1_000, 10_000, 100_000]).0,
        "e9" => experiments::e9_security_filter(),
        "e10" => experiments::e10_multilevel_records(),
        other => unreachable!("section {other} is checked while parsing"),
    }
}

fn main() {
    let mut quick = false;
    let mut all = false;
    let mut picked: Vec<&'static str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--all" => all = true,
            "--tables" => picked.extend(TABLES),
            "--figures" => picked.push("figures"),
            "--table" => picked.push(selector("--table", args.next(), &TABLES)),
            "--figure" => picked.push(selector("--figure", args.next(), &FIGURES)),
            "--exp" => picked.push(selector("--exp", args.next(), &EXPERIMENTS)),
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    if all || (quick && picked.is_empty()) {
        println!("=== Paper tables ===\n");
        for t in TABLES {
            println!("{}", render(t, scale));
        }
        println!("=== Paper figures ===\n");
        println!("{}", render("figures", scale));
        println!("=== Experiments ===\n");
        for e in EXPERIMENTS {
            println!("{}", render(e, scale));
        }
    } else if picked.is_empty() {
        fail("nothing to print");
    } else {
        for section in picked {
            println!("{}", render(section, scale));
        }
    }
}
