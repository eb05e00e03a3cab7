//! Set-associative cache models for the Triad-NVM simulator.
//!
//! A [`Cache`] tracks the presence, dirtiness and replacement order of
//! 64-byte blocks, and can hold each line's *value* beside its tag: a
//! `Cache<V>` keeps one `V` per way, sized by the geometry at
//! construction, so a hit finds tag and value in one set scan and a
//! victim leaves carrying the value it held. The secure engine's
//! on-chip caches hold their values this way (L3 plaintext, counter
//! blocks, Merkle-tree nodes and MAC blocks); the per-core L1/L2 model
//! timing only and are `Cache<()>`, whose value slots take no space.
//! Either way hits, misses, evictions and write-backs happen exactly
//! where a hardware cache would produce them.
//!
//! The same type models every array in Table 1: the per-core L1/L2, the
//! shared L3, the 128 KB counter cache and the 128 KB Merkle-tree cache.
//!
//! # Example
//!
//! ```rust
//! use triad_cache::{Cache, Replacement};
//! use triad_sim::config::CacheConfig;
//! use triad_sim::BlockAddr;
//!
//! let mut l1 = Cache::new("l1", CacheConfig::new(1024, 2, 2), Replacement::Lru);
//! let first = l1.access(BlockAddr(0), false);
//! assert!(!first.hit);
//! let again = l1.access(BlockAddr(0), false);
//! assert!(again.hit);
//!
//! // A value-holding cache: the victim leaves with its value.
//! let mut dm = Cache::with_values("dm", CacheConfig::new(64, 1, 1), Replacement::Lru, 0u32);
//! *dm.access_value(BlockAddr(0), true).value = 7;
//! let fill = dm.access_value(BlockAddr(1), false);
//! assert_eq!(fill.victim.map(|v| (v.addr, v.value)), Some((BlockAddr(0), 7)));
//! ```

#![warn(missing_docs)]

pub mod prefetch;

pub use prefetch::{BatchPrefetcher, PrefetchClass, PrefetchPlan, PrefetchStats};

use triad_sim::config::CacheConfig;
use triad_sim::rng::SplitMix64;
use triad_sim::stats::{Scope, StatRegister};
use triad_sim::time::Duration;
use triad_sim::BlockAddr;

/// Replacement policy for a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used (default for all Table 1 caches).
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Pseudo-random (seeded, deterministic).
    Random,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp (access order) or FIFO fill order.
    stamp: u64,
}

/// A block evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Address of the evicted block.
    pub addr: BlockAddr,
    /// Whether it was dirty (must be written back downstream).
    pub dirty: bool,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was already present.
    pub hit: bool,
    /// Block evicted by the fill (only on misses in full sets).
    pub victim: Option<Victim>,
}

/// A block evicted from a value-holding cache, with the value its line
/// held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted<V> {
    /// Address of the evicted block.
    pub addr: BlockAddr,
    /// Whether it was dirty (must be written back downstream).
    pub dirty: bool,
    /// The evicted line's value.
    pub value: V,
}

/// Result of [`Cache::access_value`].
#[derive(Debug)]
pub struct ValueAccess<'a, V> {
    /// Whether the block was already present.
    pub hit: bool,
    /// The accessed line's value: the stored value on a hit, the
    /// cache's empty value after a miss (the fill is the caller's).
    pub value: &'a mut V,
    /// Block evicted by the fill (only on misses in full sets).
    pub victim: Option<Evicted<V>>,
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Evictions performed (any cleanliness).
    pub evictions: u64,
    /// Evictions of dirty blocks (write-backs generated).
    pub dirty_evictions: u64,
    /// Explicit flushes of dirty blocks (clwb traffic).
    pub flushes: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.read_hits + self.write_hits) as f64 / total as f64
        }
    }
}

/// A write-back, write-allocate set-associative cache whose lines hold
/// a value of type `V` (`()` for a cache that models timing only).
#[derive(Debug, Clone)]
pub struct Cache<V = ()> {
    name: String,
    sets: usize,
    ways: usize,
    latency: Duration,
    policy: Replacement,
    lines: Vec<Line>,
    /// One value per line, beside `lines`; an invalid line holds `empty`.
    values: Vec<V>,
    empty: V,
    clock: u64,
    rng: SplitMix64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache with the given geometry and replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the configured size is not an exact number of sets
    /// (see [`CacheConfig::sets`]).
    pub fn new(name: impl Into<String>, config: CacheConfig, policy: Replacement) -> Self {
        Cache::with_values(name, config, policy, ())
    }

    /// Accesses `block`; on a miss the block is allocated, possibly
    /// evicting a victim which the caller must handle (write back if
    /// dirty). `write` marks the block dirty.
    pub fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome {
        let (_, hit, victim) = self.access_slot(block, write);
        AccessOutcome {
            hit,
            victim: victim.map(|v| Victim {
                addr: v.addr,
                dirty: v.dirty,
            }),
        }
    }
}

impl<V: Clone> Cache<V> {
    /// Creates a value-holding cache with the given geometry and
    /// replacement policy. Every line's value starts as `empty`, and a
    /// line holds `empty` again whenever it is invalid.
    ///
    /// # Panics
    ///
    /// Panics if the configured size is not an exact number of sets
    /// (see [`CacheConfig::sets`]).
    pub fn with_values(
        name: impl Into<String>,
        config: CacheConfig,
        policy: Replacement,
        empty: V,
    ) -> Self {
        let sets = config.sets();
        let name = name.into();
        let seed = name
            .bytes()
            .fold(0xC0FF_EE00u64, |acc, b| acc.rotate_left(7) ^ b as u64);
        let rng = SplitMix64::new(seed);
        Cache {
            name,
            sets,
            ways: config.ways,
            latency: config.latency,
            policy,
            lines: vec![Line::default(); sets * config.ways],
            values: vec![empty.clone(); sets * config.ways],
            empty,
            clock: 0,
            rng,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configured hit latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// The cache's name (as given at construction).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 % self.sets as u64) as usize
    }

    /// Index of `block`'s line in `lines`/`values`, if present.
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let base = self.set_of(block) * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .position(|l| l.valid && l.tag == block.0)
            .map(|way| base + way)
    }

    /// Counts a hit on line `i` and refreshes its replacement state.
    fn hit_line(&mut self, i: usize, write: bool) {
        self.clock += 1;
        let line = &mut self.lines[i];
        if self.policy == Replacement::Lru {
            line.stamp = self.clock;
        }
        line.dirty |= write;
        if write {
            self.stats.write_hits += 1;
        } else {
            self.stats.read_hits += 1;
        }
    }

    /// The access behind [`Cache::access`] and [`Cache::access_value`]:
    /// returns the accessed line's index, whether it hit, and the
    /// victim of a miss.
    fn access_slot(&mut self, block: BlockAddr, write: bool) -> (usize, bool, Option<Evicted<V>>) {
        if let Some(i) = self.find(block) {
            self.hit_line(i, write);
            return (i, true, None);
        }
        self.clock += 1;
        let base = self.set_of(block) * self.ways;
        let set = &self.lines[base..base + self.ways];
        let i = base + fill_way(set, self.policy, |ways| self.rng.below(ways));
        let line = &mut self.lines[i];
        let victim = if line.valid {
            Some(Evicted {
                addr: BlockAddr(line.tag),
                dirty: line.dirty,
                value: std::mem::replace(&mut self.values[i], self.empty.clone()),
            })
        } else {
            None
        };
        *line = Line {
            tag: block.0,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        if let Some(v) = &victim {
            self.stats.evictions += 1;
            if v.dirty {
                self.stats.dirty_evictions += 1;
            }
        }
        (i, false, victim)
    }

    /// Accesses `block` like [`Cache::access`] and returns its line's
    /// value; on a miss the victim leaves carrying its value, and the
    /// new line holds the empty value until the caller fills it.
    pub fn access_value(&mut self, block: BlockAddr, write: bool) -> ValueAccess<'_, V> {
        let (i, hit, victim) = self.access_slot(block, write);
        ValueAccess {
            hit,
            value: &mut self.values[i],
            victim,
        }
    }

    /// Accesses `block` only if it is present: a hit is counted and
    /// refreshes replacement state exactly as [`Cache::access`] does,
    /// and returns the line's value; a miss changes nothing (no
    /// statistics, no allocation) and returns `None`.
    pub fn touch(&mut self, block: BlockAddr, write: bool) -> Option<&mut V> {
        let i = self.find(block)?;
        self.hit_line(i, write);
        Some(&mut self.values[i])
    }

    /// The value of `block`, if present, without disturbing replacement
    /// state or statistics.
    pub fn value(&self, block: BlockAddr) -> Option<&V> {
        self.find(block).map(|i| &self.values[i])
    }

    /// Mutable value of `block`, if present, without disturbing
    /// replacement state, dirtiness or statistics.
    pub fn value_mut(&mut self, block: BlockAddr) -> Option<&mut V> {
        self.find(block).map(|i| &mut self.values[i])
    }

    /// The value of `block` if it is present *and dirty*.
    pub fn dirty_value(&self, block: BlockAddr) -> Option<&V> {
        self.find(block)
            .filter(|&i| self.lines[i].dirty)
            .map(|i| &self.values[i])
    }

    /// The line an access of `block` would evict, with its value, or
    /// `None` when the access would hit or fill a free way. Disturbs
    /// nothing: the next access of `block` evicts exactly this line
    /// unless the cache changes in between.
    pub fn would_evict(&self, block: BlockAddr) -> Option<(BlockAddr, &V)> {
        if self.find(block).is_some() {
            return None;
        }
        let base = self.set_of(block) * self.ways;
        let set = &self.lines[base..base + self.ways];
        let i = base + fill_way(set, self.policy, |ways| self.rng.peek_below(ways));
        let line = &self.lines[i];
        line.valid.then(|| (BlockAddr(line.tag), &self.values[i]))
    }

    /// Whether `block` is present, without disturbing replacement state
    /// or statistics.
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.value(block).is_some()
    }

    /// Whether `block` is present *and dirty*.
    pub fn probe_dirty(&self, block: BlockAddr) -> bool {
        self.dirty_value(block).is_some()
    }

    /// Writes back `block` if present and dirty (clwb semantics: the
    /// line stays valid but becomes clean). Returns whether a
    /// write-back was generated.
    pub fn flush(&mut self, block: BlockAddr) -> bool {
        match self.find(block) {
            Some(i) if self.lines[i].dirty => {
                self.lines[i].dirty = false;
                self.stats.flushes += 1;
                true
            }
            _ => false,
        }
    }

    /// Invalidates `block` if present, dropping its value, and returns
    /// whether it was dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let i = self.find(block)?;
        let dirty = self.lines[i].dirty;
        self.lines[i] = Line::default();
        self.values[i] = self.empty.clone();
        Some(dirty)
    }

    /// Drops every line and its value (a power loss: volatile contents
    /// vanish). Dirty lines are *lost*, not written back — that is the
    /// point of the paper's crash experiments.
    pub fn lose_all(&mut self) {
        for (l, v) in self.lines.iter_mut().zip(&mut self.values) {
            if l.valid {
                *v = self.empty.clone();
            }
            *l = Line::default();
        }
    }

    /// Returns all dirty blocks (used by orderly shutdown and by tests).
    pub fn dirty_blocks(&self) -> Vec<BlockAddr> {
        self.lines
            .iter()
            .filter(|l| l.valid && l.dirty)
            .map(|l| BlockAddr(l.tag))
            .collect()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// The way of `set` a miss fills: its first free way, else the
/// policy's choice (`draw(ways)` for `Random`, called only then).
fn fill_way(set: &[Line], policy: Replacement, draw: impl FnOnce(u64) -> u64) -> usize {
    match set.iter().position(|l| !l.valid) {
        Some(free) => free,
        None => match policy {
            Replacement::Lru | Replacement::Fifo => set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
                .expect("ways >= 1"),
            Replacement::Random => draw(set.len() as u64) as usize,
        },
    }
}

impl<V> StatRegister for Cache<V> {
    fn register(&self, scope: &mut Scope<'_>) {
        let s = &self.stats;
        scope.set("read_hits", s.read_hits);
        scope.set("read_misses", s.read_misses);
        scope.set("write_hits", s.write_hits);
        scope.set("write_misses", s.write_misses);
        scope.set("evictions", s.evictions);
        scope.set("dirty_evictions", s.dirty_evictions);
        scope.set("flushes", s.flushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize) -> Cache {
        // 4 sets × `ways` ways.
        Cache::new(
            "t",
            CacheConfig::new(4 * ways * 64, ways, 1),
            Replacement::Lru,
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(2);
        assert!(!c.access(BlockAddr(0), false).hit);
        assert!(c.access(BlockAddr(0), false).hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = tiny(1); // direct-mapped, 4 sets
        c.access(BlockAddr(0), true);
        assert!(c.probe_dirty(BlockAddr(0)));
        // Block 4 maps to the same set in a 4-set cache.
        let out = c.access(BlockAddr(4), false);
        assert!(!out.hit);
        assert_eq!(
            out.victim,
            Some(Victim {
                addr: BlockAddr(0),
                dirty: true
            })
        );
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2);
        c.access(BlockAddr(0), false); // set 0
        c.access(BlockAddr(4), false); // set 0
        c.access(BlockAddr(0), false); // touch 0 again
        let out = c.access(BlockAddr(8), false); // set 0, evict 4
        assert_eq!(out.victim.unwrap().addr, BlockAddr(4));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = Cache::new("f", CacheConfig::new(2 * 64, 2, 1), Replacement::Fifo);
        c.access(BlockAddr(0), false);
        c.access(BlockAddr(1), false);
        c.access(BlockAddr(0), false); // touch does not refresh FIFO order
        let out = c.access(BlockAddr(2), false);
        assert_eq!(out.victim.unwrap().addr, BlockAddr(0));
    }

    #[test]
    fn random_policy_is_deterministic_per_name() {
        let mk = || {
            let mut c = Cache::new("r", CacheConfig::new(2 * 64, 2, 1), Replacement::Random);
            c.access(BlockAddr(0), false);
            c.access(BlockAddr(1), false);
            c.access(BlockAddr(2), false).victim.unwrap().addr
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn flush_cleans_but_keeps_line() {
        let mut c = tiny(2);
        c.access(BlockAddr(0), true);
        assert!(c.flush(BlockAddr(0)));
        assert!(c.probe(BlockAddr(0)));
        assert!(!c.probe_dirty(BlockAddr(0)));
        assert!(!c.flush(BlockAddr(0)), "second flush is a no-op");
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny(2);
        c.access(BlockAddr(0), true);
        c.access(BlockAddr(1), false);
        assert_eq!(c.invalidate(BlockAddr(0)), Some(true));
        assert_eq!(c.invalidate(BlockAddr(1)), Some(false));
        assert_eq!(c.invalidate(BlockAddr(2)), None);
        assert!(!c.probe(BlockAddr(0)));
    }

    #[test]
    fn lose_all_drops_dirty_data() {
        let mut c = tiny(2);
        c.access(BlockAddr(0), true);
        c.access(BlockAddr(9), true);
        assert_eq!(c.dirty_blocks().len(), 2);
        c.lose_all();
        assert_eq!(c.occupancy(), 0);
        assert!(c.dirty_blocks().is_empty());
    }

    #[test]
    fn hit_rate_math() {
        let mut c = tiny(2);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(BlockAddr(0), false);
        c.access(BlockAddr(0), false);
        c.access(BlockAddr(0), true);
        c.access(BlockAddr(0), true);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(c.stats().accesses(), 4);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn stat_register_reports_scoped() {
        let mut c = tiny(2);
        c.access(BlockAddr(0), false);
        let mut reg = triad_sim::stats::StatRegistry::new();
        c.register(&mut reg.scope("l1"));
        assert_eq!(reg.counter("l1.read_misses"), 1);
        assert_eq!(reg.to_stat_set().get("l1.read_misses"), 1);
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = tiny(2); // 8 lines total
        for i in 0..100 {
            c.access(BlockAddr(i), false);
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn latency_and_name_accessors() {
        let c = tiny(2);
        assert_eq!(c.latency(), Duration::from_cpu_cycles(1));
        assert_eq!(c.name(), "t");
    }
}
