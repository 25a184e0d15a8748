//! Seeded input generation: the PRNG, the key-choice distributions, the
//! self-verifying record values and the shadow version table. The engine
//! only ever sees what these produce; the same `--seed` gives the same
//! op stream.

/// xoshiro256** seeded through splitmix64 (no `rand` dependency: the
/// benchmark's inputs must not change when the vendored shim does).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// `stream` separates independent generators under one `--seed`
    /// (one per client thread).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut st = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut st);
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`). The modulo bias at n ≤ 2³² is below
    /// 2⁻³², far under anything a frequency check can see.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub const ZIPF_THETA: f64 = 0.99;

/// YCSB's zipfian generator over ranks `0..n` (Gray et al.'s method):
/// rank `i` is drawn with probability ≈ `(i+1)^-θ / ζ(n, θ)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

pub fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| (i as f64).powf(-theta)).sum()
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    #[cfg(test)]
    pub fn zetan(&self) -> f64 {
        self.zetan
    }

    /// A rank in `0..n`, 0 the most popular.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Scrambled zipfian: the popular ranks are scattered over the key
    /// space by a hash, so hot keys do not share leaves. A key in `1..=n`.
    pub fn scrambled_key(&self, rng: &mut Rng) -> u64 {
        fnv1a64(self.rank(rng)) % self.n + 1
    }
}

pub fn fnv1a64(x: u64) -> u64 {
    fnv1a64_bytes(&x.to_le_bytes())
}

pub fn fnv1a64_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const VALUE_LEN: usize = 100;
/// A stored record is charged its value plus the 8-byte key.
pub const RECORD_BYTES: u64 = VALUE_LEN as u64 + 8;

/// The record stored under `key` at `version`: a pure function of the
/// two, carrying both in its header, so any value the engine returns can
/// be checked on its own ([`parse_value`]) and against the shadow table.
pub fn value(key: u64, version: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(VALUE_LEN);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let mut st = key.wrapping_mul(0xA076_1D64_78BD_642F) ^ (version as u64) << 32;
    while out.len() < VALUE_LEN {
        let word = splitmix64(&mut st).to_le_bytes();
        let take = word.len().min(VALUE_LEN - out.len());
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// `(key, version)` if `bytes` is exactly what [`value`] produces for the
/// header it carries; `None` for anything else.
pub fn parse_value(bytes: &[u8]) -> Option<(u64, u32)> {
    if bytes.len() != VALUE_LEN {
        return None;
    }
    let key = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    let version = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    (value(key, version) == bytes).then_some((key, version))
}

/// What the harness believes the database holds: per key, the version of
/// the last acknowledged write and whether that write was a delete.
#[derive(Debug, Clone)]
pub struct Shadow {
    /// Index = key. Low 31 bits: last version written (0 = never);
    /// top bit: the key is currently deleted.
    state: Vec<u32>,
    /// Keys `1..=loaded` were bulk-loaded at version 1.
    loaded: u64,
    live: u64,
}

const DEAD: u32 = 1 << 31;

impl Shadow {
    pub fn new(loaded: u64, key_space: u64) -> Self {
        let mut state = vec![0u32; key_space as usize + 1];
        for slot in &mut state[1..=loaded as usize] {
            *slot = 1;
        }
        Shadow {
            state,
            loaded,
            live: loaded,
        }
    }

    /// Version currently readable under `key`, if any.
    pub fn current(&self, key: u64) -> Option<u32> {
        let s = self.state[key as usize];
        (s != 0 && s & DEAD == 0).then_some(s)
    }

    /// Records a put and returns the version to write.
    pub fn put(&mut self, key: u64) -> u32 {
        let slot = &mut self.state[key as usize];
        if *slot == 0 || *slot & DEAD != 0 {
            self.live += 1;
        }
        *slot = (*slot & !DEAD) + 1;
        *slot
    }

    pub fn delete(&mut self, key: u64) {
        let slot = &mut self.state[key as usize];
        if *slot != 0 && *slot & DEAD == 0 {
            self.live -= 1;
            *slot |= DEAD;
        }
    }

    pub fn live(&self) -> u64 {
        self.live
    }

    /// Keys whose state differs from the bulk-loaded image: every key an
    /// acknowledged write touched.
    pub fn written_keys(&self) -> impl Iterator<Item = u64> + '_ {
        let loaded = self.loaded;
        self.state
            .iter()
            .enumerate()
            .skip(1)
            .filter(move |&(k, &s)| s != if k as u64 <= loaded { 1 } else { 0 })
            .map(|(k, _)| k as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_frequencies_match_the_closed_form() {
        let n = 10_000u64;
        let z = Zipf::new(n, ZIPF_THETA);
        let mut rng = Rng::new(7, 0);
        let samples = 2_000_000u64;
        let mut hits = vec![0u64; n as usize];
        for _ in 0..samples {
            hits[z.rank(&mut rng) as usize] += 1;
        }
        // Ranks 0 and 1 are exact in Gray's method. The tail is a
        // continuous approximation, compared in bands: it over-weights
        // the ranks just after the exact ones by ~9 % (as YCSB's does)
        // and is within 3 % everywhere else.
        for (rank, &count) in hits.iter().enumerate().take(2) {
            let want = ((rank + 1) as f64).powf(-ZIPF_THETA) / z.zetan();
            let got = count as f64 / samples as f64;
            assert!(
                (got - want).abs() / want < 0.02,
                "rank {rank}: got {got}, want {want}"
            );
        }
        for (lo, hi, tolerance) in [
            (2usize, 10usize, 0.12),
            (10, 100, 0.03),
            (100, 1_000, 0.03),
            (1_000, 10_000, 0.03),
        ] {
            let want: f64 = (lo..hi)
                .map(|r| ((r + 1) as f64).powf(-ZIPF_THETA) / z.zetan())
                .sum();
            let got = hits[lo..hi].iter().sum::<u64>() as f64 / samples as f64;
            assert!(
                (got - want).abs() / want < tolerance,
                "ranks {lo}..{hi}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn scrambled_keys_stay_in_range_and_spread_the_hot_ranks() {
        let n = 50_000u64;
        let z = Zipf::new(n, ZIPF_THETA);
        let mut rng = Rng::new(1, 0);
        for _ in 0..100_000 {
            let k = z.scrambled_key(&mut rng);
            assert!((1..=n).contains(&k));
        }
        let hot: Vec<u64> = (0..8).map(|r| fnv1a64(r) % n + 1).collect();
        let mut sorted = hot.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hot.len(), "hot ranks collide: {hot:?}");
        assert!(sorted.windows(2).all(|w| w[1] - w[0] > 200), "{sorted:?}");
    }

    #[test]
    fn values_verify_themselves() {
        let v = value(42, 7);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(parse_value(&v), Some((42, 7)));
        let mut bad = v.clone();
        bad[50] ^= 1;
        assert_eq!(parse_value(&bad), None);
        assert_eq!(parse_value(&v[..99]), None);
        assert_ne!(value(42, 8), v);
        assert_ne!(value(43, 7), v);
    }

    #[test]
    fn shadow_tracks_versions_and_liveness() {
        let mut s = Shadow::new(10, 20);
        assert_eq!(s.current(3), Some(1));
        assert_eq!(s.current(11), None);
        assert_eq!(s.put(3), 2);
        s.delete(3);
        assert_eq!(s.current(3), None);
        assert_eq!(s.live(), 9);
        assert_eq!(s.put(3), 3, "a re-insert must not reuse a version");
        assert_eq!(s.put(11), 1);
        assert_eq!(s.live(), 11);
        assert_eq!(s.written_keys().collect::<Vec<_>>(), vec![3, 11]);
    }
}
