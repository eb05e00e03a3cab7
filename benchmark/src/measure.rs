//! Measurement helpers: exact latency percentiles, medians, counter
//! deltas over the program's stat registries, and peak memory.

use std::collections::BTreeMap;

use triad_sim::StatRegistry;

/// Latency of an op that failed: it ranks above every completed op.
pub const FAILED: u64 = u64::MAX;

/// Exact per-op latency samples (ns); failed ops hold [`FAILED`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Latencies {
    samples: Vec<u64>,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    pub fn fail(&mut self, i: usize) {
        self.samples[i] = FAILED;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The samples whose index `keep` accepts, in order.
    pub fn select(&self, keep: impl Fn(usize) -> bool) -> Latencies {
        Latencies {
            samples: (0..self.samples.len())
                .filter(|&i| keep(i))
                .map(|i| self.samples[i])
                .collect(),
        }
    }

    /// The nearest-rank `p`-th percentile in µs, with every failed op
    /// taking `failed_ns`. Pass a value no completed op can exceed
    /// (the length of the run) so failures rank above completions.
    pub fn percentile_us(&self, p: f64, failed_ns: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<u64> = self
            .samples
            .iter()
            .map(|&v| if v == FAILED { failed_ns } else { v })
            .collect();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1] as f64 / 1e3
    }

    /// Samples strictly above the `p`-th percentile rank.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.samples.len();
        n - ((p / 100.0) * n as f64).ceil() as usize
    }

    /// Exact mean over completed ops, in µs.
    pub fn mean_us(&self) -> f64 {
        let done: Vec<u64> = self
            .samples
            .iter()
            .copied()
            .filter(|&v| v != FAILED)
            .collect();
        if done.is_empty() {
            0.0
        } else {
            done.iter().map(|&v| v as f64).sum::<f64>() / done.len() as f64 / 1e3
        }
    }

    pub fn completed(&self) -> usize {
        self.samples.iter().filter(|&&v| v != FAILED).count()
    }
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What changed in one or more stat registries between two points:
/// counter deltas and histogram `(count, sum)` deltas, which give exact
/// means over the interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u128)>,
}

impl Delta {
    /// Adds `after - before` of one component (e.g. one shard).
    pub fn add(&mut self, before: &StatRegistry, after: &StatRegistry) {
        for (name, v) in after.counters() {
            *self.counters.entry(name.to_string()).or_default() +=
                v.saturating_sub(before.counter(name));
        }
        for (name, h) in after.histograms() {
            let (c0, s0) = before
                .histogram(name)
                .map_or((0, 0), |b| (b.count(), b.sum()));
            let e = self.hists.entry(name.to_string()).or_default();
            e.0 += h.count() - c0;
            e.1 += h.sum() - s0;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Exact mean of the samples a histogram gained (0 when none).
    pub fn hist_mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(c, s)) if c > 0 => s as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// The hit fraction `hits / (hits + misses)` of two counters.
    pub fn frac(&self, hits: &str, misses: &str) -> f64 {
        ratio(
            self.counter(hits) as f64,
            (self.counter(hits) + self.counter(misses)) as f64,
        )
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Calibration iterations per second of a reference host. Host times
/// are reported in seconds of this reference host.
pub const REFERENCE_CALIBRATION_RATE: f64 = 3.0e6;

/// Iterations per second of a fixed calibration loop: how fast this
/// host runs right now. On a shared 2-vCPU virtual machine, host speed
/// drifts by 20–30% over minutes as other tenants come and go, and
/// every host-time figure drifts with it; dividing by this rate
/// cancels the drift. The loop mixes ordered-map operations with
/// byte-table lookups, as the simulator does, and uses only the
/// standard library, so no change to the program under test can
/// change it.
pub fn calibration_rate() -> f64 {
    const ITERATIONS: u64 = 100_000;
    let mut sbox = [0u8; 256];
    for (i, b) in sbox.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(167).wrapping_add(13);
    }
    let t = std::time::Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x & 0x3_ffff, i);
        acc = acc.wrapping_add(*map.get(&(x >> 46)).unwrap_or(&0));
        for b in x.to_le_bytes() {
            acc = acc.rotate_left(5) ^ u64::from(sbox[usize::from(b ^ acc as u8)]);
        }
    }
    std::hint::black_box(acc);
    ITERATIONS as f64 / t.elapsed().as_secs_f64()
}

/// Peak resident memory of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ops_rank_above_completed_ones() {
        let mut l = Latencies::default();
        for ns in 1..=100u64 {
            l.push(ns * 1000);
        }
        assert_eq!(l.percentile_us(99.0, 1_000_000), 99.0);
        l.fail(0);
        // One failure shifts the tail up by one rank.
        assert_eq!(l.percentile_us(99.0, 1_000_000), 100.0);
        l.fail(1);
        assert_eq!(l.percentile_us(99.0, 1_000_000), 1000.0);
        assert_eq!(l.completed(), 98);
        assert_eq!(l.beyond(99.0), 1);
        assert_eq!(l.mean_us(), (3..=100).sum::<u64>() as f64 / 98.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
