//! Order statistics, metric names and the one-line JSON report.

/// Samples a tail percentile must leave beyond it before it is reported:
/// a p90 needs at least 100 samples, a p99 at least 1,000.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `values`: the smallest sample with at
/// least a `q` share of all samples at or below it. `None` when empty.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (nearest rank), reported for any non-empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(values, 0.5)
}

/// A tail percentile, reported only when at least [`MIN_BEYOND`]
/// samples lie beyond its rank; with fewer it would be a maximum.
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    let rank = (q * values.len() as f64).ceil() as usize;
    if values.is_empty() || values.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    nearest_rank(values, q)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// FNV-1a, 64 bit: the digest the output checks compare against the
/// recorded reference.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: the seeded generator behind every benchmark input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, split by `stream` so independent inputs
    /// drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line every run ends with.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Counts one operation and whether it failed.
    pub fn count(&mut self, ok: bool) {
        self.tally(1, usize::from(!ok));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// A run is correct when every operation and check passed and every
    /// metric is a finite number under a valid name.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite() && valid_name(&m.name))
    }

    /// The JSON line. A run that failed a check reports no metrics.
    pub fn to_json(&self) -> String {
        let correct = self.correct();
        let metrics: Vec<String> = if correct {
            self.metrics
                .iter()
                .map(|m| {
                    format!("\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit)
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&values, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&values, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&values, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&values, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tails_need_ten_samples_beyond_their_rank() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&values, 0.9), None, "p90 of 99 leaves only 9 beyond");
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values, 0.9), Some(90.0));
        assert_eq!(tail(&values, 0.99), None);
        assert_eq!(tail(&values[..20], 0.5), Some(10.0));
        assert_eq!(tail(&values[..19], 0.5), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for good in ["wall_s", "artifact.t2_s", "trace.overhead_pct", "9x"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ünit", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn a_failed_check_reports_no_metrics() {
        let mut report = Report::default();
        report.count(true);
        report.put("wall_s", 1.25, "s");
        assert!(report.to_json().contains("\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        report.count(false);
        assert_eq!(
            report.to_json(),
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{}}"
        );
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }
}
