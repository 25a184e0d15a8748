//! Fixed-bucket log histogram for harness-side latencies: 64 linear
//! sub-buckets per power of two, so a bucket is at most 1/64 wide
//! relative to its lower edge and a reported quantile is within 1 % of
//! the sample it stands for.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `2 * SUB` get a bucket each; above, 64 per octave up to
/// 2⁶⁴ ns.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS + 1
    let shift = exp - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// `[lo, hi)` covered by bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return (idx, idx + 1);
    }
    let shift = idx / SUB - 1;
    let lo = (SUB + idx % SUB) << shift;
    (lo, lo.saturating_add(1 << shift))
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum += ns;
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile in nanoseconds (0 when empty), interpolated
    /// linearly inside the bucket that holds it: the result moves with
    /// the counts instead of snapping to a bucket edge, so two runs never
    /// report a latency that is identical by construction.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).clamp(0.0, self.count as f64);
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let hi = hi.min(self.max + 1);
                let frac = (rank - seen as f64) / n as f64;
                return lo as f64 + (hi - lo) as f64 * frac;
            }
            seen += n;
        }
        self.max as f64
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn buckets_tile_the_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            123_456_789,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
            if v >= 128 {
                assert!((hi - lo) as f64 / lo as f64 <= 1.0 / 64.0 + 1e-12);
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_are_within_one_percent_of_a_sorted_vector() {
        let mut rng = Rng::new(3, 0);
        // Log-uniform over 200 ns .. 20 ms: the spread of real latencies.
        let mut samples: Vec<u64> = (0..200_000)
            .map(|_| (200.0 * 10f64.powf(rng.next_f64() * 5.0)) as u64)
            .collect();
        let mut h = Hist::default();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact =
                samples[((q * samples.len() as f64) as usize).min(samples.len() - 1)] as f64;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: hist {got}, sorted {exact}"
            );
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
    }

    #[test]
    fn empty_and_single_sample() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(5_000);
        let got = h.quantile(0.5);
        assert!((got - 5_000.0).abs() / 5_000.0 < 0.01, "{got}");
    }
}
