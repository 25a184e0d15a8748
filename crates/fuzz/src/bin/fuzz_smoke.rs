//! The CI smoke runner: sweeps a fixed, deterministic seed range through
//! all three fuzz drivers and exits non-zero printing the failing seed
//! (and driver) on the first contract violation. Reproduce any failure
//! with:
//!
//! ```text
//! cargo run -p sks-fuzz --bin fuzz_smoke -- --driver <name> --start <seed> --seeds 1
//! ```
//!
//! Flags: `--driver all|opseq|walfault|decoder` (default `all`),
//! `--seeds N` (per driver; default 24/24/48), `--start N` (first seed,
//! default 0). Each op-sequence seed runs under `SyncPolicy::Always` and
//! under `SyncPolicy::EveryN(4)`, once from an empty database and once
//! opening with a `bulk_load`.

use sks_fuzz::op_seq::{self, Opening};
use sks_fuzz::{decoders, wal_fault};
use sks_storage::SyncPolicy;

fn main() {
    let mut driver = String::from("all");
    let mut seeds: Option<u64> = None;
    let mut start = 0u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--driver" => driver = value("--driver"),
            "--seeds" => seeds = Some(value("--seeds").parse().expect("--seeds: not a number")),
            "--start" => start = value("--start").parse().expect("--start: not a number"),
            "--help" | "-h" => {
                println!("usage: fuzz_smoke [--driver all|opseq|walfault|decoder] [--seeds N] [--start N]");
                return;
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let run_opseq = driver == "all" || driver == "opseq";
    let run_walfault = driver == "all" || driver == "walfault";
    let run_decoder = driver == "all" || driver == "decoder";
    let mut total = 0u64;
    let mut crashes = 0usize;
    let mut faults = 0usize;

    if run_opseq {
        let n = seeds.unwrap_or(24);
        for seed in start..start + n {
            // Each seed runs under the strict and the lazy sync policy,
            // from an empty database and from a bulk load.
            for opening in [Opening::Empty, Opening::BulkLoad] {
                for policy in [SyncPolicy::Always, SyncPolicy::EveryN(4)] {
                    match op_seq::run_op_sequence_leg(seed, policy, opening) {
                        Ok(report) => crashes += report.crashes,
                        Err(e) => die(
                            "opseq",
                            seed,
                            &format!("under {policy:?}, opening {opening:?}: {e}"),
                        ),
                    }
                }
            }
            total += 1;
        }
        println!(
            "opseq: {n} seeds under Always and EveryN(4), from empty and from a bulk load, \
             {crashes} injected crashes, all recoveries consistent"
        );
    }
    if run_walfault {
        let n = seeds.unwrap_or(24);
        for seed in start..start + n {
            match wal_fault::run_wal_fault_case(seed) {
                Ok(report) => faults += report.fired as usize,
                Err(e) => die("walfault", seed, &e),
            }
            total += 1;
        }
        println!("walfault: {n} seeds, {faults} kill points fired, all replays consistent");
    }
    if run_decoder {
        let n = seeds.unwrap_or(48);
        for seed in start..start + n {
            if let Err(e) = decoders::run_decoder_case(seed) {
                die("decoder", seed, &e);
            }
            total += 1;
        }
        println!("decoder: {n} corrupt-ciphertext seeds, every decoder failed closed");
    }

    println!("fuzz-smoke: {total} seeds green");
}

fn die(driver: &str, seed: u64, error: &str) -> ! {
    eprintln!("FUZZ FAILURE: driver={driver} seed={seed}");
    eprintln!("  {error}");
    eprintln!(
        "  reproduce: cargo run -p sks-fuzz --bin fuzz_smoke -- \
         --driver {driver} --start {seed} --seeds 1"
    );
    std::process::exit(1);
}
