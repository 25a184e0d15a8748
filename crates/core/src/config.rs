//! Scheme configuration: one declarative description that builds the whole
//! stack (design, disguise, sealer, codec) for any of the paper's schemes
//! or baselines.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sks_btree_core::PlainCodec;
use sks_crypto::pagekey::{PageCipherKind, PageKeyScheme};
use sks_crypto::rsa::RsaKey;
use sks_designs::diffset::DifferenceSet;
use sks_designs::primes::{next_prime, primitive_root};
use sks_storage::OpCounters;

use crate::codec::{
    AnyCodec, BayerMetzgerCodec, BlockCipherSealer, FullPageCodec, RsaSealer, SubstitutionCodec,
    TripletSealer,
};
use crate::disguise::{
    ExpSubstitution, IdentityDisguise, KeyDisguise, OvalSubstitution, PaperExpSubstitution,
    SumSubstitution, TableDisguise,
};
use crate::error::CoreError;

/// Which encipherment scheme the tree runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No cryptography (baseline).
    Plaintext,
    /// Bayer–Metzger per-triplet encipherment with binary
    /// search-and-decrypt (§3 baseline).
    BayerMetzger,
    /// Bayer–Metzger whole-page encipherment (§2 baseline).
    BayerMetzgerPage,
    /// §4.1 oval substitution + encrypted pointers — the paper's scheme.
    Oval,
    /// §4.2 exponentiation substitution (invertible Pohlig–Hellman reading).
    Exponentiation,
    /// §4.2 literal worked-example construction (figure reproduction only).
    ExponentiationPaper,
    /// §4.3 order-preserving sum-of-treatments substitution.
    SumOfTreatments,
    /// Conversion-table strawman (E8 comparison).
    ConversionTable,
}

impl Scheme {
    pub const ALL: [Scheme; 8] = [
        Scheme::Plaintext,
        Scheme::BayerMetzger,
        Scheme::BayerMetzgerPage,
        Scheme::Oval,
        Scheme::Exponentiation,
        Scheme::ExponentiationPaper,
        Scheme::SumOfTreatments,
        Scheme::ConversionTable,
    ];

    /// The schemes used in quantitative experiments (excludes the literal
    /// figure-only construction).
    pub const MEASURED: [Scheme; 6] = [
        Scheme::Plaintext,
        Scheme::BayerMetzger,
        Scheme::BayerMetzgerPage,
        Scheme::Oval,
        Scheme::Exponentiation,
        Scheme::SumOfTreatments,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Plaintext => "plaintext",
            Scheme::BayerMetzger => "bayer-metzger",
            Scheme::BayerMetzgerPage => "bm-full-page",
            Scheme::Oval => "oval",
            Scheme::Exponentiation => "exponentiation",
            Scheme::ExponentiationPaper => "exponentiation-paper",
            Scheme::SumOfTreatments => "sum-of-treatments",
            Scheme::ConversionTable => "conversion-table",
        }
    }
}

/// Pointer-seal cipher selection (§5 leaves this open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealerKind {
    Des,
    Speck,
    /// Secret-parameter RSA with this modulus size in bits.
    Rsa(usize),
}

/// Where a single [`crate::EncipheredBTree`]'s enciphered node/record
/// blocks live.
///
/// The paper's threat model is an opponent holding the *storage medium*;
/// `Memory` simulates that medium in RAM (every byte lost on restart —
/// the paper's experimental setup), while `File` puts the same enciphered
/// blocks on an actual on-disk device behind a buffer pool that writes
/// nothing over the last checkpoint's image before the next journaled
/// checkpoint. Only enciphered bytes ever reach the file
/// either way; the backend changes *where* the opponent's view lives,
/// never *what* it contains. An engine ignores this choice: it always
/// keeps its partitions on disk under its own directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageBackend {
    /// Simulated in-RAM device (the paper's experimental setup).
    Memory,
    /// File-backed device under `dir` (`nodes.sks` + `data.sks` + a sealed
    /// manifest), each store cached by a buffer pool of
    /// [`StorageBackend::DEFAULT_POOL_PAGES`] frames.
    File { dir: std::path::PathBuf },
}

impl StorageBackend {
    /// Buffer-pool frames of every file-backed store, an engine's
    /// partitions included: enough to keep a hot tree's upper levels
    /// resident without hiding the I/O cost of leaf traffic.
    pub const DEFAULT_POOL_PAGES: usize = 256;

    /// Convenience constructor for the file backend.
    pub fn file<P: Into<std::path::PathBuf>>(dir: P) -> Self {
        StorageBackend::File { dir: dir.into() }
    }
}

/// Full configuration for an [`crate::EncipheredBTree`]: the choices a
/// caller makes. §4's derived parameters — the design, the multiplier
/// `t` and the sum scheme's starting line `w` — follow from `capacity`
/// and from the constructor that built the configuration.
#[derive(Debug, Clone)]
pub struct SchemeConfig {
    pub scheme: Scheme,
    /// Node/data block size in bytes.
    pub block_size: usize,
    pub sealer: SealerKind,
    /// Tree key `K_E` (file key for page-key schemes, sealer key otherwise).
    pub tree_key: u64,
    /// Independent data-block key (§5).
    pub data_key: u128,
    /// Maximum number of distinct keys the tree must support (`R`). Keys
    /// are `0..capacity` (or `1..=capacity` for exponentiation).
    pub capacity: u64,
    /// How many independent tree partitions an engine should shard this
    /// configuration across (each partition is a full `EncipheredBTree`
    /// covering the whole key domain; a router hashes disguised keys to
    /// pick one). `1` means unsharded. Ignored by the single-tree API.
    pub partitions: usize,
    /// Where the enciphered blocks live (see [`StorageBackend`]).
    /// [`crate::EncipheredBTree::create_in_memory`] ignores this; the
    /// backend-aware [`crate::EncipheredBTree::create`]/`open` honour it,
    /// and the engine reads none of it.
    pub backend: StorageBackend,
    /// Physical observability level (see [`sks_storage::ObsLevel`]):
    /// `Off` strips every probe to a `None` check, `Counters` (default)
    /// keeps counting plus rare flight-recorder events, `Histograms` adds
    /// stage/latency timing, `FullTrace` adds per-op flight-recorder
    /// events. The *logical* paper counters are byte-identical at every
    /// level — only physical telemetry changes.
    pub observability: sks_storage::ObsLevel,
    /// Built by [`SchemeConfig::demo`]: the paper's `(13,4,1)` design,
    /// `t = 7` and `w = 0` at any capacity. Otherwise the smallest Singer
    /// design with `v` comfortably above the key domain (§4's `v ≫ R`),
    /// `t` picked from `v` and `w = 17 mod q²`.
    paper_scale: bool,
}

/// Deterministic seed for table construction and RSA key generation.
const RNG_SEED: u64 = 42;

impl SchemeConfig {
    /// Paper-scale parameters: the `(13,4,1)` design, 13-key domain, 256-byte
    /// blocks. Matches every worked example in the paper.
    pub fn demo(scheme: Scheme) -> Self {
        SchemeConfig {
            block_size: 256,
            capacity: 11, // w + R < v - 1 for the sum scheme
            paper_scale: true,
            ..Self::with_capacity(scheme, 0)
        }
    }

    /// Parameters sized for `capacity` records: the design is the smallest
    /// Singer design with `v` comfortably above the key domain.
    pub fn with_capacity(scheme: Scheme, capacity: u64) -> Self {
        SchemeConfig {
            scheme,
            block_size: 4096,
            sealer: SealerKind::Des,
            tree_key: 0x133457799BBCDFF1,
            data_key: 0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF,
            capacity,
            partitions: 1,
            backend: StorageBackend::Memory,
            observability: sks_storage::ObsLevel::Counters,
            paper_scale: false,
        }
    }

    /// Node-cache capacity (nodes) of every tree, an engine's partitions
    /// included. Every node visit goes through the cache. A node is cached
    /// as stored and a probe deciphers only the triplet it follows, once:
    /// a cold search pays what the scheme promises, and repeated point
    /// reads of a cached node pay zero *physical* decipherments, while the
    /// logical operation counters keep reporting the paper's per-scheme
    /// cost. A node write replaces its node's entry with the image of the
    /// page it wrote, so updating that node again deciphers nothing.
    /// Entries are RAM-only and zeroized on eviction; the medium still
    /// holds only enciphered bytes.
    pub const DEFAULT_NODE_CACHE: usize = 1024;

    /// Decoded-record cache capacity (records) of every tree, above the
    /// data blocks' CTR unseal: repeated `get`s of a hot record pay zero
    /// *physical* unseals while the logical `data_decrypts` counter keeps
    /// reporting the paper's per-get cost. Entries are RAM-only,
    /// invalidated on delete/compaction, zeroized on drop.
    pub const DEFAULT_RECORD_CACHE: usize = 1024;

    /// Builder-style observability knob (see the `observability` field).
    pub fn observability(mut self, level: sks_storage::ObsLevel) -> Self {
        self.observability = level;
        self
    }

    /// Builder-style partition knob for the engine: shard the key space
    /// across `n` independent trees behind one router (see `sks-engine`,
    /// which refuses `0`).
    pub fn partitions(mut self, n: usize) -> Self {
        self.partitions = n;
        self
    }

    /// Builder-style backend knob: where the enciphered blocks live.
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand for [`SchemeConfig::backend`] with the file backend.
    pub fn on_disk<P: Into<std::path::PathBuf>>(self, dir: P) -> Self {
        self.backend(StorageBackend::file(dir))
    }

    /// The Singer design's order `q`: the smallest prime from 3 up whose
    /// `v = q² + q + 1` clears the key domain by a margin.
    fn singer_order(&self) -> u64 {
        let mut q = 3u64;
        while q * q + q + 1 < self.capacity + 64 {
            q = next_prime(q + 1);
        }
        q
    }

    /// Materialises the difference set.
    pub fn build_design(&self) -> Result<DifferenceSet, CoreError> {
        Ok(if self.paper_scale {
            DifferenceSet::paper_13_4_1()
        } else {
            DifferenceSet::singer(self.singer_order())?
        })
    }

    /// Oval / exponent multiplier `t`.
    fn pick_multiplier(&self, v: u64) -> u64 {
        if self.paper_scale {
            return 7;
        }
        // Deterministic unit of Z_v away from ±1 so the scrambling is real.
        let mut t = v / 2 + 3;
        while sks_designs::arith::gcd(t, v) != 1 || t == 1 || t == v - 1 {
            t += 1;
        }
        t
    }

    fn build_sealer(&self) -> Result<Arc<dyn TripletSealer>, CoreError> {
        Ok(match self.sealer {
            SealerKind::Des => Arc::new(BlockCipherSealer::des(self.tree_key)),
            SealerKind::Speck => Arc::new(BlockCipherSealer::speck(
                ((self.tree_key as u128) << 64) | !self.tree_key as u128,
            )),
            SealerKind::Rsa(bits) => {
                let mut rng = StdRng::seed_from_u64(RNG_SEED);
                let key = RsaKey::generate(&mut rng, bits);
                Arc::new(RsaSealer::new(key)?)
            }
        })
    }

    /// Builds the disguise for substitution schemes (`None` for baselines).
    pub fn build_disguise(
        &self,
        counters: &OpCounters,
    ) -> Result<Option<Arc<dyn KeyDisguise>>, CoreError> {
        let disguise: Arc<dyn KeyDisguise> = match self.scheme {
            Scheme::Plaintext | Scheme::BayerMetzger | Scheme::BayerMetzgerPage => return Ok(None),
            Scheme::Oval => {
                let ds = self.build_design()?;
                let t = self.pick_multiplier(ds.v());
                Arc::new(OvalSubstitution::new(ds, t, counters.clone())?)
            }
            Scheme::Exponentiation => {
                let ds = self.build_design()?;
                let n = next_prime(ds.v().max(self.capacity + 2));
                let g = primitive_root(n);
                let mut t = self.pick_multiplier(n - 1);
                while sks_designs::arith::gcd(t, n - 1) != 1 {
                    t += 1;
                }
                Arc::new(ExpSubstitution::new(ds, g, n, t, counters.clone())?)
            }
            Scheme::ExponentiationPaper => {
                Arc::new(PaperExpSubstitution::paper_example(counters.clone()))
            }
            Scheme::SumOfTreatments => {
                let ds = self.build_design()?;
                // The starting line `w`.
                let w = if self.paper_scale {
                    0
                } else {
                    17 % self.singer_order().pow(2)
                };
                if w + self.capacity >= ds.v() - 1 {
                    return Err(CoreError::Config(format!(
                        "sum scheme needs w + R < v - 1 (w={w}, R={}, v={})",
                        self.capacity,
                        ds.v()
                    )));
                }
                Arc::new(SumSubstitution::new(
                    ds,
                    w,
                    self.capacity,
                    counters.clone(),
                )?)
            }
            Scheme::ConversionTable => {
                let mut rng = StdRng::seed_from_u64(RNG_SEED);
                Arc::new(TableDisguise::random(
                    &mut rng,
                    self.capacity.max(2),
                    counters.clone(),
                ))
            }
        };
        Ok(Some(disguise))
    }

    /// Builds the node codec (and returns the disguise it uses, if any).
    pub fn build_codec(
        &self,
        counters: &OpCounters,
    ) -> Result<(AnyCodec, Option<Arc<dyn KeyDisguise>>), CoreError> {
        self.build_codec_with(counters, None)
    }

    /// [`SchemeConfig::build_codec`] reusing an already-built disguise.
    /// Constructing a disguise means constructing its difference-set
    /// design — milliseconds of arithmetic at paper scale — and every
    /// partition of an engine uses an identical one, so the engine
    /// builds it once and shares the `Arc` instead of paying the
    /// construction per partition at every open. `None` builds fresh.
    pub fn build_codec_with(
        &self,
        counters: &OpCounters,
        prebuilt: Option<Arc<dyn KeyDisguise>>,
    ) -> Result<(AnyCodec, Option<Arc<dyn KeyDisguise>>), CoreError> {
        match self.scheme {
            Scheme::Plaintext => Ok((AnyCodec::Plain(PlainCodec::new(counters.clone())), None)),
            Scheme::BayerMetzger => Ok((
                AnyCodec::BayerMetzger(BayerMetzgerCodec::new(
                    PageKeyScheme::new(self.tree_key, PageCipherKind::Des),
                    counters.clone(),
                )),
                None,
            )),
            Scheme::BayerMetzgerPage => Ok((
                AnyCodec::FullPage(FullPageCodec::new(
                    PageKeyScheme::new(self.tree_key, PageCipherKind::Des),
                    counters.clone(),
                )),
                None,
            )),
            _ => {
                let disguise = match prebuilt {
                    Some(d) => d,
                    None => self
                        .build_disguise(counters)?
                        .unwrap_or_else(|| Arc::new(IdentityDisguise)),
                };
                let sealer = self.build_sealer()?;
                Ok((
                    AnyCodec::Substitution(SubstitutionCodec::new(
                        disguise.clone(),
                        sealer,
                        counters.clone(),
                    )),
                    Some(disguise),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_configs_build_for_all_schemes() {
        for scheme in Scheme::ALL {
            let cfg = SchemeConfig::demo(scheme);
            let counters = OpCounters::new();
            let (codec, disguise) = cfg.build_codec(&counters).unwrap();
            use sks_btree_core::NodeCodec;
            assert!(codec.max_keys(cfg.block_size) >= 3, "{}", scheme.name());
            match scheme {
                Scheme::Plaintext | Scheme::BayerMetzger | Scheme::BayerMetzgerPage => {
                    assert!(disguise.is_none())
                }
                _ => assert!(disguise.is_some()),
            }
        }
    }

    #[test]
    fn capacity_configs_choose_big_enough_designs() {
        for capacity in [100u64, 1_000, 50_000] {
            let cfg = SchemeConfig::with_capacity(Scheme::Oval, capacity);
            let ds = cfg.build_design().unwrap();
            assert!(ds.v() > capacity, "v={} cap={capacity}", ds.v());
            let counters = OpCounters::new();
            let disguise = cfg.build_disguise(&counters).unwrap().unwrap();
            // Spot-check the domain covers the capacity.
            assert!(disguise.domain_size().unwrap() > capacity);
        }
    }

    #[test]
    fn sum_capacity_bound_is_validated() {
        let mut cfg = SchemeConfig::demo(Scheme::SumOfTreatments);
        cfg.capacity = 13;
        let counters = OpCounters::new();
        assert!(cfg.build_disguise(&counters).is_err());
    }

    #[test]
    fn scheme_names_unique() {
        let names: std::collections::HashSet<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Scheme::ALL.len());
    }

    #[test]
    fn rsa_sealer_config_builds() {
        let mut cfg = SchemeConfig::demo(Scheme::Oval);
        cfg.sealer = SealerKind::Rsa(256);
        let counters = OpCounters::new();
        let (codec, _) = cfg.build_codec(&counters).unwrap();
        use sks_btree_core::NodeCodec;
        // RSA-sized seals shrink the fanout substantially.
        let des_cfg = SchemeConfig::demo(Scheme::Oval);
        let (des_codec, _) = des_cfg.build_codec(&counters).unwrap();
        assert!(codec.max_keys(4096) < des_codec.max_keys(4096));
    }
}
