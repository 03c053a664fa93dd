//! Allocation-free log-bucketed latency histogram.
//!
//! Values are nanoseconds. Below 64 ns every value has its own bucket; above,
//! each power of two is cut into 64 equal sub-buckets, so a bucket is at most
//! 1/64 (1.6 %) of its lower edge wide. Recording is an index computation and
//! one increment; workers own one histogram per transaction type and the
//! histograms are merged after the window.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Fixed-size histogram of nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Lowest value of a bucket and how many distinct values it holds.
fn range_of(bucket: usize) -> (u64, u64) {
    let b = bucket as u64;
    if b < SUB {
        return (b, 1);
    }
    let shift = b / SUB - 1;
    ((SUB + b % SUB) << shift, 1 << shift)
}

/// Median of `values` (mean of the middle two for an even count); `0.0`
/// for none. Sorts the slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum += ns;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of the recorded values (exact, not bucketed).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Value at quantile `q` in `0.0..=1.0`: the sample of rank `ceil(q * n)`,
    /// placed inside its bucket by its rank among the bucket's samples (as if
    /// they were spread evenly), so the result is not quantized to bucket
    /// edges. `0.0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if seen + n >= rank {
                let (lower, width) = range_of(bucket);
                let within = ((rank - seen) as f64 - 0.5) / n as f64;
                return lower as f64 + (width - 1) as f64 * within;
            }
            seen += n;
        }
        unreachable!("rank is at most the number of samples");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut last = 0usize;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "bucket order at {v}");
            last = b;
            let (lower, width) = range_of(b);
            assert!(
                lower <= v && v - lower < width,
                "value {v} outside its bucket"
            );
            assert!(width == 1 || width as f64 / lower as f64 <= 1.0 / 64.0);
        }
        assert_eq!(bucket_of(63) + 1, bucket_of(64));
    }

    #[test]
    fn quantiles_match_a_sorted_vector() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut hist = Histogram::default();
        let mut values = Vec::new();
        for _ in 0..200_000 {
            // Log-uniform over 50 ns .. 50 ms, the range latencies live in.
            let v = (50.0 * 10f64.powf(rng.gen::<f64>() * 6.0)) as u64;
            hist.record(v);
            values.push(v);
        }
        values.sort_unstable();
        assert_eq!(hist.count(), values.len() as u64);
        assert_eq!(hist.sum(), values.iter().sum::<u64>());
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1] as f64;
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() / exact <= 0.02,
                "q={q}: histogram {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn merge_adds_samples() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(100);
        b.record(10_000);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.quantile(0.5) - 10_000.0).abs() / 10_000.0 <= 0.02);
        assert_eq!(Histogram::default().quantile(0.99), 0.0);
    }
}
