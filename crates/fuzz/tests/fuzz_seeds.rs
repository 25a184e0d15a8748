//! Fixed-seed regression coverage: a slice of every fuzz driver runs in
//! the ordinary test suite, so the drivers themselves can never rot. The
//! full sweep runs in CI as the `fuzz-smoke` job via the `fuzz_smoke`
//! binary.

use sks_fuzz::{decoders, op_seq, wal_fault};
use sks_storage::SyncPolicy;

#[test]
fn op_sequence_crash_seeds_recover_consistently() {
    for seed in (0..8).chain([101]) {
        if let Err(e) = op_seq::run_op_sequence_case(seed) {
            panic!("opseq seed {seed}: {e}");
        }
    }
}

/// The same seeds under the lazy `EveryN(4)` policy, where a
/// cross-partition transaction waits for its fsync after the apply, so
/// the seeded fsync kills reach that wait.
#[test]
fn op_sequence_crash_seeds_recover_consistently_under_a_lazy_policy() {
    for seed in (0..8).chain([101]) {
        if let Err(e) = op_seq::run_op_sequence_case_under(seed, SyncPolicy::EveryN(4)) {
            panic!("opseq seed {seed} under EveryN(4): {e}");
        }
    }
}

/// The same seeds opening with a `bulk_load`, so the kill points reach
/// its log frames and the trees built from them.
#[test]
fn op_sequence_crash_seeds_recover_consistently_from_a_bulk_load() {
    let mut crashes = 0;
    for seed in (0..8).chain([101]) {
        for policy in [SyncPolicy::Always, SyncPolicy::EveryN(4)] {
            match op_seq::run_op_sequence_leg(seed, policy, op_seq::Opening::BulkLoad) {
                Ok(report) => crashes += report.crashes,
                Err(e) => panic!("opseq seed {seed} under {policy:?} from a bulk load: {e}"),
            }
        }
    }
    assert!(crashes > 0, "the kill points must engage");
}

#[test]
fn wal_fault_seeds_replay_consistently() {
    let mut fired = 0usize;
    for seed in 0..12 {
        match wal_fault::run_wal_fault_case(seed) {
            Ok(report) => fired += report.fired as usize,
            Err(e) => panic!("walfault seed {seed}: {e}"),
        }
    }
    // The kill-point registry must actually engage for the sweep to mean
    // anything; a mostly-idle plan means the ordinal bounds drifted.
    assert!(fired >= 4, "only {fired}/12 kill points fired");
}

/// Four seeds per decoder family: the per-scheme families (`seed / 5`)
/// walk schemes 0–3.
#[test]
fn decoder_seeds_fail_closed() {
    for seed in 0..20 {
        if let Err(e) = decoders::run_decoder_case(seed) {
            panic!("decoder seed {seed}: {e}");
        }
    }
}

/// The data-page decoder case on one fixed seed: a record slot cut
/// shorter than the 8-byte key every record seals is a record error on
/// read and in the orphan sweep, never a panic.
#[test]
fn short_data_slot_fails_closed() {
    if let Err(e) = decoders::run_data_page_case(4) {
        panic!("data-page seed 4: {e}");
    }
}

/// An engine-directory case that corrupts `data.sks` so that a range
/// read reaches, for key 3, a value that was never key 3's: the record's
/// owner check must refuse it rather than serve it.
#[test]
fn engine_dir_seed_1298_refuses_another_keys_record() {
    if let Err(e) = decoders::run_decoder_case(1298) {
        panic!("decoder seed 1298: {e}");
    }
}
