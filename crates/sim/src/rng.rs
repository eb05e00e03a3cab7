//! A tiny deterministic pseudo-random generator (SplitMix64).
//!
//! This is the **only** source of randomness in the whole workspace:
//! simulator internals (random cache replacement), workload generators
//! (SPEC profiles, PMDK traces, Zipf sampling) and the in-repo
//! property-testing harness ([`crate::prop`]) all draw from it, which
//! keeps every run reproducible from a single `u64` seed with zero
//! external crates.

/// SplitMix64: a fast, well-distributed 64-bit PRNG (Steele et al.,
/// "Fast splittable pseudorandom number generators", OOPSLA 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 state increment ("golden gamma").
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalising mix of the SplitMix64 reference implementation.
const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds give equal streams.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Creates the generator for stream `stream` of `seed`: the same
    /// seed yields independent, reproducible streams for distinct
    /// stream indices (e.g. one per property-test case).
    pub const fn stream(seed: u64, stream: u64) -> Self {
        SplitMix64 {
            state: seed ^ mix(stream.wrapping_mul(GAMMA).wrapping_add(GAMMA)),
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Splits off an independent child generator (Steele et al.'s
    /// `split`): the child's stream shares no prefix with the parent's,
    /// and the parent advances by one step, so repeated forks yield
    /// pairwise-independent streams.
    pub fn fork(&mut self) -> Self {
        SplitMix64 {
            state: mix(self.next_u64().wrapping_add(GAMMA)),
        }
    }

    /// Fills `dest` with uniformly distributed bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        let v = self.peek_below(bound);
        self.state = self.state.wrapping_add(GAMMA);
        v
    }

    /// The value the next [`SplitMix64::below`] with this `bound`
    /// returns, without advancing the stream.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn peek_below(&self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift: unbiased enough for replacement decisions.
        ((mix(self.state.wrapping_add(GAMMA)) as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.below(range.end - range.start)
    }

    /// Uniform value in the closed range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range_inclusive(&mut self, range: std::ops::RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)` with full 53-bit mantissa resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.next_f64() < p
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0x5EED_5EED_5EED_5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_first_output() {
        // Reference value for seed 0 from the SplitMix64 reference
        // implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn below_respects_bound() {
        let mut g = SplitMix64::new(42);
        for _ in 0..1000 {
            assert!(g.below(10) < 10);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut g = SplitMix64::new(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[g.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn peek_below_predicts_below() {
        let mut g = SplitMix64::new(5);
        for bound in (1..200).chain([u64::MAX]) {
            let peeked = g.peek_below(bound);
            assert_eq!(peeked, g.peek_below(bound), "peeking does not advance");
            assert_eq!(g.below(bound), peeked);
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SplitMix64::new(1).below(0);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let mut a = SplitMix64::new(11);
        let mut b = SplitMix64::new(11);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..100 {
            assert_eq!(fa.next_u64(), fb.next_u64(), "equal states fork equally");
        }
        // The fork and its parent produce different streams.
        let mut parent = SplitMix64::new(11);
        let mut child = parent.fork();
        let collide = (0..100)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(collide == 0, "parent and child streams overlap");
    }

    #[test]
    fn sibling_forks_differ() {
        let mut g = SplitMix64::new(3);
        let mut f1 = g.fork();
        let mut f2 = g.fork();
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn streams_differ_but_reproduce() {
        let mut s0 = SplitMix64::stream(77, 0);
        let mut s1 = SplitMix64::stream(77, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        let mut again = SplitMix64::stream(77, 1);
        let mut s1b = SplitMix64::stream(77, 1);
        assert_eq!(again.next_u64(), s1b.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut g = SplitMix64::new(5);
        let mut buf = [0u8; 13];
        g.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        // Same seed, same bytes.
        let mut g2 = SplitMix64::new(5);
        let mut buf2 = [0u8; 13];
        g2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut g = SplitMix64::new(21);
        for _ in 0..2000 {
            let v = g.gen_range(10..17);
            assert!((10..17).contains(&v));
            let w = g.gen_range_inclusive(3..=3);
            assert_eq!(w, 3);
            let x = g.gen_range_inclusive(0..=6);
            assert!(x <= 6);
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut g = SplitMix64::new(8);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[(g.gen_range(5..12) - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(1).gen_range(4..4);
    }

    #[test]
    fn f64_is_uniform_unit_interval() {
        let mut g = SplitMix64::new(13);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut g = SplitMix64::new(17);
        let hits = (0..10_000).filter(|_| g.gen_bool(0.3)).count();
        let ratio = hits as f64 / 10_000.0;
        assert!((ratio - 0.3).abs() < 0.02, "ratio = {ratio}");
        assert!(!g.gen_bool(0.0));
        assert!(g.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn gen_bool_rejects_bad_probability() {
        SplitMix64::new(1).gen_bool(1.5);
    }
}
