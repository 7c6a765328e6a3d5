//! A log-linear histogram with bounded relative error.
//!
//! Values below 128 get one bucket each; above, every power of two is
//! split into 128 equal sub-buckets, so a bucket is never wider than
//! 1/128 of its lower edge. Quantiles report the bucket midpoint, which
//! is within 0.4% of the exact sample at that rank.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// Histogram of `u64` samples (the benchmark records nanoseconds).
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// `[low, high)` of a bucket.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, b + 1);
    }
    let shift = b / SUB - 1;
    let low = (SUB + b % SUB) << shift;
    (low, low + (1 << shift))
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHist { counts: vec![0; bucket_of(u64::MAX) + 1], n: 0, sum: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.sum += v as u128;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The nearest-rank `q`-quantile (0 when empty): the midpoint of the
    /// bucket holding the sample of rank `ceil(q * n)`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, high) = bucket_range(b);
                return if high - low == 1 { low as f64 } else { (low + high) as f64 / 2.0 };
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_range() {
        for b in 0..bucket_of(u64::MAX) {
            let (_, high) = bucket_range(b);
            assert_eq!(bucket_range(b + 1).0, high, "gap after bucket {b}");
            assert_eq!(bucket_of(high - 1), b);
            assert_eq!(bucket_of(high), b + 1);
        }
    }

    #[test]
    fn quantiles_within_one_percent_of_exact() {
        // Delays in ns spread over five decades, drawn from a fixed LCG.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut samples = Vec::new();
        let mut h = LogHist::new();
        for _ in 0..200_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let decades = (x >> 40) as f64 / (1u64 << 24) as f64 * 5.0;
            let v = (1_000.0 * 10f64.powf(decades)) as u64;
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        for q in [0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = exact(&samples, q) as f64;
            let got = h.quantile(q);
            assert!((got - want).abs() / want <= 0.01, "q={q}: {got} vs exact {want}");
        }
        let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
        assert!((h.mean() - mean).abs() / mean < 1e-9);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHist::new();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 49.0);
        assert_eq!(h.quantile(1.0), 99.0);
        assert_eq!(h.mean(), 49.5);
    }
}
