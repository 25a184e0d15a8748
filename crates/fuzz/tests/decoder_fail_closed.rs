//! Property: `decode(mutate(valid_bytes))` is an error or a semantically
//! valid result — never a panic — for every disguise scheme's node codec,
//! the sealed WAL stream and whole engine directories. The seeded
//! drivers in `sks_fuzz::decoders` do the heavy sweeping; this pins the
//! property in proptest form so the contract is stated (and re-checked)
//! independently of the driver plumbing.

use proptest::prelude::*;
use sks_fuzz::decoders;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every scheme's node codec survives arbitrary page corruption.
    #[test]
    fn node_codecs_never_panic_on_corrupt_pages(seed in 0u64..1_000_000) {
        if let Err(e) = decoders::run_node_codec_case(seed) {
            panic!("seed {seed}: {e}");
        }
    }

    /// The sealed WAL stream decoder recovers a clean prefix or fails
    /// cleanly under arbitrary file corruption.
    #[test]
    fn wal_stream_decoder_fails_closed(seed in 0u64..1_000_000) {
        if let Err(e) = decoders::run_wal_stream_case(seed) {
            panic!("seed {seed}: {e}");
        }
    }
}

proptest! {
    // Whole-directory cases build real trees/engines; keep the case count
    // CI-sized.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Record store and manifest decoders fail closed when any tree file
    /// is corrupted.
    #[test]
    fn tree_directory_decoders_fail_closed(seed in 0u64..1_000_000) {
        if let Err(e) = decoders::run_tree_dir_case(seed) {
            panic!("seed {seed}: {e}");
        }
    }

    /// Engine recovery (WAL + store superblocks) fails closed when any
    /// sealed file is corrupted.
    #[test]
    fn engine_recovery_fails_closed(seed in 0u64..1_000_000) {
        if let Err(e) = decoders::run_engine_dir_case(seed) {
            panic!("seed {seed}: {e}");
        }
    }
}
