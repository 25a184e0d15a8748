//! The quantitative experiments E1–E10; each one's doc comment names the
//! paper section whose claim it measures.
//!
//! The paper has no measured evaluation; each experiment operationalises one
//! of its comparative *claims* and prints the table the authors would have.
//! Counts come from the shared [`sks_storage::OpCounters`] and are exact;
//! wall-clock columns are secondary (the engine's clocks are `sks_bench`'s).

use std::time::Instant;

use sks_attack::{AttackReport, DiskImage, FormatKnowledge};
use sks_core::{
    layouts_at, EncipheredBTree, FilterSecrets, KeyDisguise, MultilevelRecordStore, Scheme,
    SchemeConfig, SchemeLayout, SealerKind, SecurityFilter, SumSubstitution,
};
use sks_designs::diffset::DifferenceSet;
use sks_storage::{MemDisk, OpCounters, OpSnapshot};

use crate::workload::{build_tree, ground_truth, lookup_keys};

/// The key counts `repro` runs the size-dependent experiments at.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// E4's key count.
    pub n_small: u64,
    /// E1, E2 and E6's key count.
    pub n_mid: u64,
    /// E4's delete + reinsert pairs.
    pub churn: usize,
}

impl Scale {
    /// `repro --quick`, the scale the golden test pins.
    pub const QUICK: Scale = Scale {
        n_small: 400,
        n_mid: 800,
        churn: 100,
    };
    /// `repro` without `--quick`.
    pub const FULL: Scale = Scale {
        n_small: 2_000,
        n_mid: 5_000,
        churn: 500,
    };
}

/// One measured row of E1/E2.
#[derive(Debug, Clone)]
pub struct SearchCostRow {
    pub scheme: Scheme,
    pub block_size: usize,
    pub fanout: usize,
    pub height: u32,
    pub lookups: usize,
    /// Triplet/seal-unit decryptions per lookup (key + ptr classes).
    pub seal_decrypts_per_lookup: f64,
    /// Cipher-block operations per lookup for whole-page schemes.
    pub page_blocks_per_lookup: f64,
    /// Key comparisons per lookup.
    pub compares_per_lookup: f64,
    pub nanos_per_lookup: f64,
}

fn search_cost_for(scheme: Scheme, n_keys: u64, block_size: usize) -> SearchCostRow {
    let tree = build_tree(scheme, n_keys, block_size, 11);
    let queries = lookup_keys(scheme, n_keys, 400, 17);
    tree.counters().reset();
    let start = Instant::now();
    for &q in &queries {
        let _ = tree.get_pointer(q).expect("lookup");
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let s: OpSnapshot = tree.snapshot();
    let l = queries.len() as f64;
    SearchCostRow {
        scheme,
        block_size,
        fanout: tree.max_keys_per_node(),
        height: tree.height(),
        lookups: queries.len(),
        seal_decrypts_per_lookup: (s.key_decrypts + s.ptr_decrypts) as f64 / l,
        page_blocks_per_lookup: s.page_decrypts as f64 / l,
        compares_per_lookup: s.key_compares as f64 / l,
        nanos_per_lookup: elapsed / l,
    }
}

/// E1 — decryptions per search: 1 (substitution) vs `log₂ n`
/// (search-and-decrypt) vs whole page (§3/§6).
pub fn e1_decryptions(n_keys: u64, block_sizes: &[usize]) -> (String, Vec<SearchCostRow>) {
    let schemes = [
        Scheme::Oval,
        Scheme::SumOfTreatments,
        Scheme::BayerMetzger,
        Scheme::BayerMetzgerPage,
        Scheme::Plaintext,
    ];
    let mut rows = Vec::new();
    let mut out = String::new();
    out.push_str(&format!(
        "E1  Decryptions per point lookup ({n_keys} keys; seal units, page schemes in cipher blocks)\n\n"
    ));
    out.push_str(&format!(
        "    {:<18} {:>6} {:>7} {:>7} {:>12} {:>12} {:>10}\n",
        "scheme", "page", "fanout", "height", "seal-dec/op", "pageblk/op", "cmp/op"
    ));
    for &bs in block_sizes {
        for &scheme in &schemes {
            let row = search_cost_for(scheme, n_keys, bs);
            out.push_str(&format!(
                "    {:<18} {:>6} {:>7} {:>7} {:>12.2} {:>12.1} {:>10.1}\n",
                scheme.name(),
                bs,
                row.fanout,
                row.height,
                row.seal_decrypts_per_lookup,
                row.page_blocks_per_lookup,
                row.compares_per_lookup,
            ));
            rows.push(row);
        }
        out.push('\n');
    }
    out.push_str("    claim check: substitution ≈ height (1/node), BM ≈ height·log2(fanout), page ≈ height·page/8\n");
    (out, rows)
}

/// E2 — wall-clock search latency behind E1's counts (§3): an in-process
/// timing of the same lookups, the only E-table with no exact column.
pub fn e2_throughput(n_keys: u64, block_size: usize) -> (String, Vec<SearchCostRow>) {
    let schemes = [
        Scheme::Plaintext,
        Scheme::Oval,
        Scheme::SumOfTreatments,
        Scheme::Exponentiation,
        Scheme::BayerMetzger,
        Scheme::BayerMetzgerPage,
    ];
    let mut out = String::new();
    out.push_str(&format!(
        "E2  Lookup latency ({n_keys} keys, {block_size}-byte pages, DES pointer cipher)\n\n"
    ));
    out.push_str(&format!(
        "    {:<18} {:>10} {:>14}\n",
        "scheme", "ns/lookup", "vs plaintext"
    ));
    let mut rows = Vec::new();
    let mut base = None;
    for &scheme in &schemes {
        let row = search_cost_for(scheme, n_keys, block_size);
        if scheme == Scheme::Plaintext {
            base = Some(row.nanos_per_lookup);
        }
        let rel = row.nanos_per_lookup / base.unwrap_or(row.nanos_per_lookup);
        out.push_str(&format!(
            "    {:<18} {:>10.0} {:>13.1}x\n",
            scheme.name(),
            row.nanos_per_lookup,
            rel
        ));
        rows.push(row);
    }
    (out, rows)
}

/// E3 — node layout: bytes/triplet, fanout, expected depth (§4.2's storage
/// claim), including RSA-sized key cryptograms.
pub fn e3_layout(page_size: usize) -> (String, Vec<SchemeLayout>) {
    let mut layouts = layouts_at(page_size).expect("layouts");
    // Add RSA-sealed substitution variants (the §4.2 "encrypted search keys
    // consume large storage" contrast).
    for bits in [256usize, 512, 1024] {
        let mut cfg = SchemeConfig::demo(Scheme::Oval);
        cfg.block_size = page_size;
        cfg.sealer = SealerKind::Rsa(bits);
        layouts.push(SchemeLayout::for_config(&cfg).expect("rsa layout"));
    }
    let mut out = String::new();
    out.push_str(&format!(
        "E3  Node layout at {page_size}-byte pages (heights for R = 10^6 records)\n\n"
    ));
    out.push_str(&format!(
        "    {:<22} {:>9} {:>9} {:>8} {:>10} {:>12} {:>12}\n",
        "scheme/sealer", "key B", "seal B", "fanout", "bytes/key", "height best", "height worst"
    ));
    for (i, l) in layouts.iter().enumerate() {
        let label = if i >= 6 {
            format!("oval + rsa-{}", l.seal_bytes * 8)
        } else {
            l.scheme.name().to_string()
        };
        out.push_str(&format!(
            "    {:<22} {:>9} {:>9} {:>8} {:>10.1} {:>12} {:>12}\n",
            label,
            l.key_field_bytes,
            l.seal_bytes,
            l.max_keys,
            l.bytes_per_key(),
            l.best_case_height(1_000_000),
            l.worst_case_height(1_000_000),
        ));
    }
    (out, layouts)
}

/// One row of the E4 reorganisation-cost table.
#[derive(Debug, Clone)]
pub struct ReorgRow {
    pub scheme: Scheme,
    pub churn_ops: usize,
    pub key_encrypts: u64,
    pub ptr_encrypts: u64,
    pub page_encrypt_blocks: u64,
    pub disguise_ops: u64,
    pub splits: u64,
    pub merges: u64,
}

/// E4 — re-encipherment cost of inserts/deletes: §3's "static search keys"
/// argument. Counts *key* encryptions (BM pays them, substitution never
/// does) across a random churn.
pub fn e4_reorg(n_keys: u64, churn: usize, block_size: usize) -> (String, Vec<ReorgRow>) {
    let schemes = [
        Scheme::Oval,
        Scheme::SumOfTreatments,
        Scheme::BayerMetzger,
        Scheme::BayerMetzgerPage,
        Scheme::Plaintext,
    ];
    let mut out = String::new();
    out.push_str(&format!(
        "E4  Re-encipherment under churn ({churn} delete+reinsert pairs over {n_keys} keys)\n\n"
    ));
    out.push_str(&format!(
        "    {:<18} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}\n",
        "scheme", "key-enc", "ptr-enc", "page-blk", "disguise", "splits", "merges"
    ));
    let mut rows = Vec::new();
    for &scheme in &schemes {
        let mut tree = build_tree(scheme, n_keys, block_size, 23);
        let victims = lookup_keys(scheme, n_keys, churn, 29);
        tree.counters().reset();
        for &k in &victims {
            let old = tree.delete(k).expect("churn delete");
            if let Some(rec) = old {
                tree.insert(k, rec).expect("churn reinsert");
            }
        }
        let s = tree.snapshot();
        out.push_str(&format!(
            "    {:<18} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}\n",
            scheme.name(),
            s.key_encrypts,
            s.ptr_encrypts,
            s.page_encrypts,
            s.disguise_ops,
            s.splits,
            s.merges
        ));
        rows.push(ReorgRow {
            scheme,
            churn_ops: churn,
            key_encrypts: s.key_encrypts,
            ptr_encrypts: s.ptr_encrypts,
            page_encrypt_blocks: s.page_encrypts,
            disguise_ops: s.disguise_ops,
            splits: s.splits,
            merges: s.merges,
        });
    }
    out.push_str("\n    claim check: substitution schemes show key-enc = 0 (keys re-disguised, never re-encrypted)\n");
    (out, rows)
}

/// E5 — the opponent's shape reconstruction per scheme (§4.1/§6).
pub fn e5_shape_security(n_keys: u64, block_size: usize) -> (String, Vec<AttackReport>) {
    let schemes = [
        Scheme::Plaintext,
        Scheme::SumOfTreatments,
        Scheme::Oval,
        Scheme::Exponentiation,
        Scheme::BayerMetzger,
        Scheme::BayerMetzgerPage,
    ];
    let mut out = String::new();
    out.push_str(&format!(
        "E5  Shape reconstruction by the opponent ({n_keys} keys, raw disk image)\n\n    {}\n",
        AttackReport::header()
    ));
    let mut reports = Vec::new();
    for &scheme in &schemes {
        let tree = build_tree(scheme, n_keys, block_size, 31);
        let truth = ground_truth(&tree);
        let image = DiskImage::new(block_size, tree.raw_node_image().expect("raw image"));
        let report = AttackReport::run(scheme.name(), &image, &FormatKnowledge::default(), &truth);
        out.push_str(&format!("    {}\n", report.row()));
        reports.push(report);
    }
    out.push_str("\n    claim check: recall ≈ 1 for plaintext/order-preserving, ≈ 0 for oval/exp and both BM baselines;\n");
    out.push_str("    |tau| ≈ 1 shows the §4.3 trade-off (order deliberately preserved)\n");
    (out, reports)
}

/// One row of the E6 range-scan table.
#[derive(Debug, Clone)]
pub struct RangeRow {
    pub scheme: Scheme,
    pub width: u64,
    pub results: usize,
    pub nanos: f64,
    pub seal_decrypts: u64,
}

/// E6 — range queries stay possible (§1 motivation, §4.3): correctness and
/// cost of scans of increasing width.
pub fn e6_ranges(n_keys: u64, block_size: usize) -> (String, Vec<RangeRow>) {
    let schemes = [
        Scheme::Plaintext,
        Scheme::Oval,
        Scheme::SumOfTreatments,
        Scheme::BayerMetzger,
    ];
    let widths = [10u64, 100, 1000];
    let mut out = String::new();
    out.push_str(&format!("E6  Range scans over {n_keys} keys\n\n"));
    out.push_str(&format!(
        "    {:<18} {:>7} {:>8} {:>12} {:>12}\n",
        "scheme", "width", "rows", "seal-dec", "us/scan"
    ));
    let mut rows = Vec::new();
    for &scheme in &schemes {
        let tree = build_tree(scheme, n_keys, block_size, 37);
        for &w in &widths {
            let lo = n_keys / 3;
            let hi = lo + w - 1;
            tree.counters().reset();
            let start = Instant::now();
            let result = tree.range(lo, hi).expect("range scan");
            let nanos = start.elapsed().as_nanos() as f64;
            // Every stored key in [lo, hi] must come back, in order.
            assert!(result.windows(2).all(|p| p[0].0 < p[1].0));
            let s = tree.snapshot();
            out.push_str(&format!(
                "    {:<18} {:>7} {:>8} {:>12} {:>12.1}\n",
                scheme.name(),
                w,
                result.len(),
                s.key_decrypts + s.ptr_decrypts,
                nanos / 1000.0
            ));
            rows.push(RangeRow {
                scheme,
                width: w,
                results: result.len(),
                nanos,
                seal_decrypts: s.key_decrypts + s.ptr_decrypts,
            });
        }
    }
    (out, rows)
}

/// E7 — pointer-cipher microbenchmark: DES vs Speck vs secret-parameter RSA
/// (§5's cipher discussion).
pub fn e7_pointer_ciphers() -> (String, Vec<(String, f64, usize)>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sks_core::codec::{BlockCipherSealer, RsaSealer, TripletSealer};
    use sks_crypto::rsa::RsaKey;

    let mut rng = StdRng::seed_from_u64(41);
    let sealers: Vec<(String, Box<dyn TripletSealer>)> = vec![
        (
            "des".into(),
            Box::new(BlockCipherSealer::des(0x0123456789ABCDEF)),
        ),
        (
            "speck".into(),
            Box::new(BlockCipherSealer::speck(
                0x0011223344556677_8899AABBCCDDEEFF,
            )),
        ),
        (
            "rsa-256".into(),
            Box::new(RsaSealer::new(RsaKey::generate(&mut rng, 256)).unwrap()),
        ),
        (
            "rsa-512".into(),
            Box::new(RsaSealer::new(RsaKey::generate(&mut rng, 512)).unwrap()),
        ),
    ];
    let payload = seal_payload(7, 0xAABB, 3);
    let mut out = String::new();
    out.push_str("E7  Pointer seal/unseal cost (§5: DES vs secret-parameter RSA)\n\n");
    out.push_str(&format!(
        "    {:<10} {:>12} {:>14}\n",
        "cipher", "ct bytes", "us/roundtrip"
    ));
    let mut rows = Vec::new();
    for (name, sealer) in &sealers {
        let iters = if name.starts_with("rsa") { 20 } else { 2000 };
        let start = Instant::now();
        for _ in 0..iters {
            let ct = sealer.seal(&payload);
            let _ = sealer.unseal(&ct).expect("roundtrip");
        }
        let us = start.elapsed().as_micros() as f64 / iters as f64;
        out.push_str(&format!(
            "    {:<10} {:>12} {:>14.2}\n",
            name,
            sealer.sealed_len(),
            us
        ));
        rows.push((name.clone(), us, sealer.sealed_len()));
    }
    (out, rows)
}

/// E7's sample of the paper's pointer payload `b ‖ a ‖ p`.
fn seal_payload(block: u32, a: u64, p: u32) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&block.to_be_bytes());
    out[4..12].copy_from_slice(&a.to_be_bytes());
    out[12..16].copy_from_slice(&p.to_be_bytes());
    out
}

/// E8 — secret material per scheme (§4.1/§6's "small amount of information
/// that needs to be kept secret") vs the conversion-table strawman.
pub fn e8_secret_material(capacities: &[u64]) -> (String, Vec<(String, u64, usize)>) {
    let mut out = String::new();
    out.push_str("E8  Secret material to carry (bytes; smartcard-sized vs table-sized)\n\n");
    out.push_str(&format!(
        "    {:<22} {:>12} {:>14}\n",
        "scheme", "R (records)", "secret bytes"
    ));
    let mut rows = Vec::new();
    for &r in capacities {
        for scheme in [
            Scheme::Oval,
            Scheme::Exponentiation,
            Scheme::SumOfTreatments,
            Scheme::ConversionTable,
        ] {
            let cfg = SchemeConfig::with_capacity(scheme, r);
            let counters = OpCounters::new();
            let disguise = cfg
                .build_disguise(&counters)
                .expect("build")
                .expect("substitution scheme");
            let bytes = disguise.secret_size_bytes();
            out.push_str(&format!(
                "    {:<22} {:>12} {:>14}\n",
                scheme.name(),
                r,
                bytes
            ));
            rows.push((scheme.name().to_string(), r, bytes));
        }
        out.push('\n');
    }
    out.push_str("    claim check: design-based schemes stay O(k) (fits the paper's smartcard);\n");
    out.push_str("    the conversion table grows linearly with R\n");
    (out, rows)
}

/// The counters that moved in any phase, one row each, one column per
/// phase.
fn counter_table(phases: &[(&str, OpSnapshot)]) -> String {
    let mut out = format!("    {:<22}", "counter");
    for (name, _) in phases {
        out.push_str(&format!(" {name:>12}"));
    }
    out.push('\n');
    let columns: Vec<Vec<(&str, u64)>> = phases.iter().map(|(_, s)| s.fields()).collect();
    for (i, &(field, _)) in columns[0].iter().enumerate() {
        if columns.iter().all(|c| c[i].1 == 0) {
            continue;
        }
        out.push_str(&format!("    {field:<22}"));
        for c in &columns {
            out.push_str(&format!(" {:>12}", c[i].1));
        }
        out.push('\n');
    }
    out
}

/// E9's personnel record for employee `emp`.
fn personnel_record(emp: u64) -> String {
    format!(
        "name=Employee{emp:03};grade={};salary={}",
        emp % 9,
        42_000 + (emp * 577) % 30_000
    )
}

/// E9 — the §4.3 security filter: a trusted filter substitutes every key
/// with its order-preserving sum-of-treatments value and seals the record,
/// so the DBMS below is an unmodified plaintext B-tree that never sees a
/// real key, yet still answers range queries and keeps the plaintext shape.
pub fn e9_security_filter() -> String {
    const RECORDS: u64 = 400;
    const BLOCK: usize = 1024;
    let design = DifferenceSet::singer(31).expect("Singer design, v = 993");
    let substitution =
        SumSubstitution::new(design, 12, 900, OpCounters::new()).expect("w + R < v - 1");
    let mut out = String::new();
    out.push_str("E9  §4.3 security filter in front of an unmodified plaintext DBMS\n\n");
    out.push_str(&format!(
        "    filter secret: ({},{},1) design + starting line w = 12, {} bytes\n",
        substitution.design().v(),
        substitution.design().k(),
        substitution.secret_size_bytes()
    ));
    let mut filter = SecurityFilter::new(
        FilterSecrets {
            substitution,
            record_key: 0x0F1E_2D3C_4B5A_6978_8796_A5B4_C3D2_E1F0,
            checksum_key: 0x1357_9BDF_0246_8ACE,
        },
        BLOCK,
    )
    .expect("filter");
    let mut cfg = SchemeConfig::with_capacity(Scheme::Plaintext, 900);
    cfg.block_size = BLOCK;
    let mut plain = EncipheredBTree::create_in_memory(cfg).expect("plaintext tree");
    for emp in 0..RECORDS {
        let record = personnel_record(emp);
        filter.insert(emp, record.as_bytes()).expect("insert");
        plain.insert(emp, record.into_bytes()).expect("insert");
    }
    let load = filter.snapshot();
    out.push_str(&format!(
        "    {} records loaded through the filter; DBMS height {}, plaintext tree height {}\n",
        filter.len(),
        filter.dbms_height(),
        plain.height()
    ));

    let visible = filter.dbms_visible_keys().expect("scan");
    let leaked = visible.iter().filter(|&&k| k < RECORDS).count();
    out.push_str(&format!(
        "    DBMS-visible keys (first 8 of {}): {:?}\n",
        visible.len(),
        &visible[..8]
    ));
    out.push_str(&format!(
        "    visible keys in ascending order: {}; real ids among them: {leaked}\n\n",
        visible.windows(2).all(|w| w[0] < w[1])
    ));

    filter.counters().reset();
    let rows = filter.range(100, 109).expect("range");
    let range = filter.snapshot();
    out.push_str(&format!(
        "    range(100..=109) through the filter: {} records\n",
        rows.len()
    ));
    for (emp, record) in &rows {
        out.push_str(&format!(
            "      {emp:>4}  {}\n",
            String::from_utf8_lossy(record)
        ));
    }
    out.push('\n');
    out.push_str(&counter_table(&[("load 400", load), ("range", range)]));

    filter.tamper_with(77).expect("tamper");
    let verdict = match filter.get(77) {
        Err(e) => format!("refused: {e}"),
        Ok(_) => "served (the checksum missed it)".to_string(),
    };
    out.push_str(&format!(
        "\n    one byte of record 77 flipped on the medium; get(77) {verdict}\n"
    ));
    out.push_str("    claim check: the DBMS sees only disguised keys, in order, and keeps the plaintext height\n");
    out
}

/// E10 — §5's multilevel suggestion: every record is sealed under its
/// security level's key from the Akl–Taylor hierarchy, and a clearance
/// derives the keys of its own and every less sensitive level only.
pub fn e10_multilevel_records() -> String {
    const LEVELS: u32 = 4;
    let counters = OpCounters::new();
    let mut mls =
        MultilevelRecordStore::new(MemDisk::with_counters(512, counters.clone()), LEVELS, 2026);
    let mut out = String::new();
    out.push_str(
        "E10  §5 multilevel records: one key per security level (Akl–Taylor hierarchy)\n\n",
    );
    out.push_str(&format!(
        "    {} levels over a {}-bit RSA modulus; level 1 is the most privileged\n\n",
        mls.hierarchy().levels(),
        mls.hierarchy().modulus().bit_length()
    ));
    let authority = mls.hierarchy().clearance(1).expect("level 1");
    let ptrs: Vec<_> = (1..=LEVELS)
        .map(|level| {
            let record = format!("level-{level} dossier");
            mls.insert(&authority, level, record.as_bytes())
                .expect("insert")
        })
        .collect();
    let insert = counters.snapshot();
    for (level, &ptr) in (1..=LEVELS).zip(&ptrs) {
        let label = mls.level_of(ptr).expect("read").expect("present");
        out.push_str(&format!(
            "    sealed \"level-{level} dossier\" at level {level}; public label {label}\n"
        ));
    }

    counters.reset();
    out.push_str(&format!("\n    {:<10}", "clearance"));
    for level in 1..=LEVELS {
        out.push_str(&format!(" {:>8}", format!("L{level}")));
    }
    out.push('\n');
    let mut refusal = String::new();
    for have in 1..=LEVELS {
        let clearance = mls.hierarchy().clearance(have).expect("level");
        out.push_str(&format!("    {have:<10}"));
        for (level, &ptr) in (1..=LEVELS).zip(&ptrs) {
            let cell = match mls.get(&clearance, ptr) {
                Ok(Some(body)) if body == format!("level-{level} dossier").as_bytes() => "opens",
                Ok(Some(_)) => "garbled",
                Ok(None) => "missing",
                Err(e) => {
                    if refusal.is_empty() {
                        refusal = e.to_string();
                    }
                    "refused"
                }
            };
            out.push_str(&format!(" {cell:>8}"));
        }
        out.push('\n');
    }
    let opens = counters.snapshot();
    out.push_str(&format!("    first refusal: {refusal}\n\n"));
    out.push_str(&counter_table(&[("insert 4", insert), ("open 4x4", opens)]));
    out.push_str(
        "\n    claim check: a clearance opens its own level and every less sensitive one, never more\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_substitution_beats_bm_on_decrypt_counts() {
        let (_, rows) = e1_decryptions(800, &[1024]);
        let get = |s: Scheme| rows.iter().find(|r| r.scheme == s).unwrap();
        let oval = get(Scheme::Oval);
        let bm = get(Scheme::BayerMetzger);
        let page = get(Scheme::BayerMetzgerPage);
        // One seal per node visit ⇒ ≈ height.
        assert!(
            (oval.seal_decrypts_per_lookup - oval.height as f64).abs() <= 0.5,
            "oval {} vs height {}",
            oval.seal_decrypts_per_lookup,
            oval.height
        );
        assert!(bm.seal_decrypts_per_lookup > oval.seal_decrypts_per_lookup);
        assert!(page.page_blocks_per_lookup > bm.seal_decrypts_per_lookup);
    }

    #[test]
    fn e3_rsa_layouts_have_tiny_fanout() {
        let (_, layouts) = e3_layout(4096);
        let rsa1024 = layouts.last().unwrap();
        assert_eq!(rsa1024.seal_bytes, 128);
        let des_oval = layouts.iter().find(|l| l.scheme == Scheme::Oval).unwrap();
        assert!(rsa1024.max_keys * 3 < des_oval.max_keys);
    }

    #[test]
    fn e4_substitution_never_reencrypts_keys() {
        let (_, rows) = e4_reorg(600, 80, 512);
        let oval = rows.iter().find(|r| r.scheme == Scheme::Oval).unwrap();
        let bm = rows
            .iter()
            .find(|r| r.scheme == Scheme::BayerMetzger)
            .unwrap();
        assert_eq!(oval.key_encrypts, 0);
        assert!(bm.key_encrypts > 0);
        assert!(oval.disguise_ops > 0, "keys are re-disguised instead");
    }

    #[test]
    fn e5_oval_hides_shape_sum_reveals_it() {
        let (_, reports) = e5_shape_security(150, 512);
        let find = |n: &str| reports.iter().find(|r| r.scheme == n).unwrap();
        let plain = find("plaintext");
        let sum = find("sum-of-treatments");
        let oval = find("oval");
        let bm = find("bayer-metzger");
        assert!(
            plain.shape.recall > 0.6,
            "plaintext recall {}",
            plain.shape.recall
        );
        assert!(sum.shape.recall > 0.6, "sum recall {}", sum.shape.recall);
        assert!(
            oval.shape.recall < 0.35,
            "oval must hide shape: {}",
            oval.shape.recall
        );
        assert_eq!(
            bm.shape.inferred, 0,
            "sealed nodes give the attacker nothing"
        );
        // Order leakage mirrors the same story.
        assert!(sum.order_leakage.unwrap() > 0.99);
        assert!(oval.order_leakage.unwrap().abs() < 0.35);
    }

    #[test]
    fn e6_all_schemes_agree_on_range_contents() {
        let (_, rows) = e6_ranges(600, 512);
        for w in [10u64, 100, 1000] {
            let counts: std::collections::HashSet<usize> = rows
                .iter()
                .filter(|r| r.width == w)
                .map(|r| r.results)
                .collect();
            assert_eq!(counts.len(), 1, "schemes disagree at width {w}: {counts:?}");
        }
    }

    #[test]
    fn e7_rsa_dwarfs_des() {
        let (_, rows) = e7_pointer_ciphers();
        let des = rows.iter().find(|(n, _, _)| n == "des").unwrap();
        let rsa = rows.iter().find(|(n, _, _)| n == "rsa-512").unwrap();
        assert!(rsa.1 > des.1, "RSA {}us vs DES {}us", rsa.1, des.1);
        assert!(rsa.2 > des.2, "RSA cryptograms are wider");
    }

    #[test]
    fn e8_table_grows_design_does_not() {
        let (_, rows) = e8_secret_material(&[1_000, 10_000]);
        let table_1k = rows
            .iter()
            .find(|(n, r, _)| n == "conversion-table" && *r == 1_000)
            .unwrap()
            .2;
        let table_10k = rows
            .iter()
            .find(|(n, r, _)| n == "conversion-table" && *r == 10_000)
            .unwrap()
            .2;
        assert!(table_10k >= table_1k * 9);
        let oval_1k = rows
            .iter()
            .find(|(n, r, _)| n == "oval" && *r == 1_000)
            .unwrap()
            .2;
        let oval_10k = rows
            .iter()
            .find(|(n, r, _)| n == "oval" && *r == 10_000)
            .unwrap()
            .2;
        // Design secret grows with k ≈ sqrt(v) only.
        assert!(oval_10k < oval_1k * 4);
        assert!(oval_10k < table_10k / 10);
    }
}
