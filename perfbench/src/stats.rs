//! Order statistics and the percentile rule: a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule may fall back to, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported (may be below the one asked for).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let r = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Samples strictly beyond percentile `pct` of `n` samples.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct) - 1
    }
}

/// The highest percentile not above `max_pct` that has at least
/// [`MIN_BEYOND`] samples beyond it. With too few samples for even the
/// median, the maximum is returned with `beyond == 0`, so a caller can see
/// the rule was not met. `sorted` must be ascending.
pub fn tail(sorted: &[f64], max_pct: f64) -> Percentile {
    let n = sorted.len();
    for pct in TAIL_LADDER.into_iter().filter(|&p| p <= max_pct) {
        if beyond(n, pct) >= MIN_BEYOND {
            return Percentile {
                pct,
                value: sorted[rank(n, pct)],
                beyond: beyond(n, pct),
                samples: n,
            };
        }
    }
    Percentile {
        pct: 100.0,
        value: sorted.last().copied().unwrap_or(0.0),
        beyond: 0,
        samples: n,
    }
}

/// The median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Requests per block.
pub const BLOCK: usize = 1_000;

/// A tail percentile [`Blocks`] keeps per block. Both have at least
/// [`MIN_BEYOND`] samples beyond them in a block of [`BLOCK`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tail {
    P95,
    P99,
}

impl Tail {
    /// The percentile.
    pub fn pct(self) -> f64 {
        match self {
            Tail::P95 => 95.0,
            Tail::P99 => 99.0,
        }
    }
}

/// Order statistics of a request stream taken per block of [`BLOCK`]
/// consecutive requests, then reduced to their medians. A stall of a
/// shared machine then moves the blocks it falls in, not the figure, and
/// memory stays bounded however many requests a run completes.
#[derive(Clone, Debug, Default)]
pub struct Blocks {
    current: Vec<f64>,
    verdicts: u64,
    busy_s: f64,
    p50s: Vec<f64>,
    p95s: Vec<f64>,
    p99s: Vec<f64>,
    closed_verdicts: u64,
    closed_busy_s: f64,
}

impl Blocks {
    /// Records one request: its latency, the verdicts it delivered, and
    /// the seconds of the run it accounts for.
    pub fn push(&mut self, latency_us: f64, verdicts: u64, busy_s: f64) {
        self.current.push(latency_us);
        self.verdicts += verdicts;
        self.busy_s += busy_s;
        if self.current.len() == BLOCK {
            self.close();
        }
    }

    fn close(&mut self) {
        let block = sorted(std::mem::take(&mut self.current));
        self.p50s.push(tail(&block, 50.0).value);
        self.p95s.push(tail(&block, Tail::P95.pct()).value);
        self.p99s.push(tail(&block, Tail::P99.pct()).value);
        self.closed_verdicts += self.verdicts;
        self.closed_busy_s += self.busy_s;
        self.verdicts = 0;
        self.busy_s = 0.0;
    }

    /// Ends the stream: a trailing partial block counts only when no full
    /// block exists (a short run).
    pub fn finish(&mut self) {
        if self.p50s.is_empty() && !self.current.is_empty() {
            self.close();
        }
        self.current.clear();
    }

    /// Appends another stream's blocks.
    pub fn absorb(&mut self, other: Blocks) {
        self.p50s.extend(other.p50s);
        self.p95s.extend(other.p95s);
        self.p99s.extend(other.p99s);
        self.closed_verdicts += other.closed_verdicts;
        self.closed_busy_s += other.closed_busy_s;
    }

    /// Median of the block medians.
    pub fn p50(&self) -> f64 {
        median(&self.p50s)
    }

    /// Median of the blocks' `tail` percentiles.
    pub fn tail(&self, tail: Tail) -> f64 {
        median(match tail {
            Tail::P95 => &self.p95s,
            Tail::P99 => &self.p99s,
        })
    }

    /// Verdicts per second over the recorded blocks: their verdicts over
    /// their seconds. The host's fast and slow periods shift this total in
    /// proportion to their share of the run, where a median of per-block
    /// rates jumps between the two speeds (over ten 40 s `bulk_scoring`
    /// runs the quartile spread was 20% of the median against 26%).
    pub fn rate(&self) -> f64 {
        self.closed_verdicts as f64 / self.closed_busy_s.max(f64::MIN_POSITIVE)
    }

    /// Blocks recorded.
    pub fn count(&self) -> usize {
        self.p50s.len()
    }
}

/// Sorts in place and returns the slice, for chaining into [`tail`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten samples beyond.
        let p = tail(&ramp(1000), 99.0);
        assert_eq!((p.pct, p.value, p.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 would leave only nine beyond, so p95 is reported.
        let p = tail(&ramp(999), 99.0);
        assert_eq!(p.pct, 95.0);
        assert!(p.beyond >= MIN_BEYOND);
    }

    #[test]
    fn p999_is_reported_only_at_ten_thousand_samples() {
        assert_eq!(tail(&ramp(10_000), 99.9).pct, 99.9);
        assert_eq!(tail(&ramp(9_999), 99.9).pct, 99.0);
    }

    #[test]
    fn every_reported_percentile_has_ten_beyond() {
        for n in [20, 40, 100, 200, 1000, 1001, 5000] {
            let p = tail(&ramp(n), 99.9);
            assert!(p.beyond >= MIN_BEYOND, "n = {n}: {p:?}");
            assert_eq!(p.beyond, n - p.value as usize, "n = {n}");
        }
    }

    #[test]
    fn too_few_samples_fall_back_to_the_maximum() {
        let p = tail(&ramp(10), 99.0);
        assert_eq!((p.pct, p.value, p.beyond), (100.0, 10.0, 0));
        assert_eq!(tail(&[], 99.0).samples, 0);
    }

    #[test]
    fn blocks_take_medians_of_per_block_statistics() {
        let mut b = Blocks::default();
        // Four calm blocks and one stalled block.
        for block in 0..5 {
            let stalled = block == 2;
            for i in 0..BLOCK {
                let latency = if stalled { 1e6 } else { (i + 1) as f64 };
                b.push(latency, 10, if stalled { 1.0 } else { 0.01 });
            }
        }
        b.push(5.0, 1, 0.1);
        b.finish();
        assert_eq!(b.count(), 5, "the trailing partial block is dropped");
        assert_eq!(b.p50(), 500.0);
        assert_eq!(b.tail(Tail::P95), 950.0);
        assert_eq!(b.tail(Tail::P99), 990.0);
        // 5 000 requests of 10 verdicts over 4 x 1000 x 0.01 s calm and
        // 1000 x 1 s stalled.
        let rate = 50_000.0 / 1_040.0;
        assert!((b.rate() - rate).abs() < 1e-9, "rate {}", b.rate());
    }

    #[test]
    fn a_short_stream_still_yields_one_block() {
        let mut b = Blocks::default();
        for i in 0..20 {
            b.push(i as f64, 1, 1.0);
        }
        b.finish();
        assert_eq!(b.count(), 1);
        assert_eq!(b.rate(), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
