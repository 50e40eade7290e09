//! Sample statistics, digests and process facts shared by every workload.

/// Percentiles the tail metric may report, highest first. The rungs are
/// far apart so that run-to-run changes in the sample count do not switch
/// the reported percentile: p99 needs 1,000 samples, p90 100, p50 20.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).saturating_sub(1)]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding of `p` (99.9) from bumping a rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// strictly above its rank.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= MIN_BEYOND)
}

/// Sort a copy of the samples ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// 64-bit FNV-1a, the digest of simulated results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the benchmark derives its inputs from `--seed` with its own
/// generator, so they do not change when the program's RNG does.
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.0));
        // The rule itself, checked against every size up to 12,000.
        for n in 1..12_000usize {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
                if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                    assert!(n - rank(n, higher) < MIN_BEYOND, "n={n} skips p{higher}");
                }
            }
        }
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "sim.engine.self_ns_per_event",
            "op-ms.p50",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/s",
            "ünï",
            "a:b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn digest_and_rng_are_stable() {
        let mut d = Digest::default();
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let draws: Vec<u64> = (0..3).map(|_| SplitMix::new(7, 1).next_u64()).collect();
        assert!(draws.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::new(7, 1).next_u64(),
            SplitMix::new(7, 2).next_u64()
        );
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix::new(3, 0).shuffle(&mut v);
        let mut back = v.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<_>>());
    }
}
