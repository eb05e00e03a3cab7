//! [`BlockMap`]: a fixed-key open-addressing map from `u64` block
//! addresses to small `Copy` values.
//!
//! The secure engine keeps its on-chip state (plaintext lines, counter
//! blocks, tree nodes, MAC lines), the batch staging index and the wear
//! tracker in maps keyed by block address and read by point lookups.
//! This map serves those lookups from a flat key array probed linearly
//! from a fixed multiplicative (Fibonacci) hash, so it is a pure
//! function of its insert/remove history: no per-process seed, no
//! `RandomState`. Removal shifts the rest of the probe cluster back
//! (no tombstones), so lookups never slow down with churn.
//!
//! Iteration is offered only in ascending key order (it sorts), which
//! keeps every observable order the same as an ordered map's. Point
//! operations allocate only when the table grows: a new map owns no
//! table until its first insert, and `clear` keeps the table it has.
//!
//! # Example
//!
//! ```rust
//! use triad_sim::BlockMap;
//!
//! let mut m = BlockMap::new();
//! m.insert(0x40, 'b');
//! m.insert(0x10, 'a');
//! assert_eq!(m.get(0x40), Some(&'b'));
//! assert_eq!(m.remove(0x10), Some('a'));
//! assert_eq!(m.keys().collect::<Vec<_>>(), vec![0x40]);
//! ```

/// Marks a vacant slot. A real entry under this key lives in
/// [`BlockMap::max_key`] instead.
const EMPTY: u64 = u64::MAX;

/// Fibonacci-hashing multiplier (2^64 / φ): consecutive block addresses
/// land far apart.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest table the map allocates.
const MIN_CAPACITY: usize = 16;

/// A fixed-key open-addressing map from `u64` keys to `Copy` values (see
/// module docs).
#[derive(Clone)]
pub struct BlockMap<V: Copy> {
    /// Slot keys, [`EMPTY`] when vacant; length 0 or a power of two.
    keys: Vec<u64>,
    /// Slot values. A vacant slot holds a stale copy of some value and
    /// is never read.
    vals: Vec<V>,
    /// Entries in `keys` (excluding `max_key`).
    len: usize,
    /// `64 - log2(keys.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// The value under key `u64::MAX`, which cannot live in the table.
    max_key: Option<V>,
}

impl<V: Copy> Default for BlockMap<V> {
    fn default() -> Self {
        BlockMap::new()
    }
}

impl<V: Copy + std::fmt::Debug> std::fmt::Debug for BlockMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: Copy> BlockMap<V> {
    /// An empty map. Allocates nothing until the first insert.
    pub const fn new() -> Self {
        BlockMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
            shift: 64,
            max_key: None,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.max_key.is_some())
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Home slot of `key`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(MULTIPLIER) >> self.shift) as usize
    }

    /// Slot holding `key` (`key != EMPTY`), if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if key == EMPTY {
            return self.max_key.as_ref();
        }
        self.find(key).map(|i| &self.vals[i])
    }

    /// The value under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if key == EMPTY {
            return self.max_key.as_mut();
        }
        self.find(key).map(|i| &mut self.vals[i])
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if key == EMPTY {
            return self.max_key.replace(value);
        }
        match self.find(key) {
            Some(i) => Some(std::mem::replace(&mut self.vals[i], value)),
            None => {
                self.insert_new(key, value);
                None
            }
        }
    }

    /// The value under `key`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        if key == EMPTY {
            return self.max_key.get_or_insert_with(make);
        }
        let i = match self.find(key) {
            Some(i) => i,
            None => self.insert_new(key, make()),
        };
        &mut self.vals[i]
    }

    /// Places absent `key` (`key != EMPTY`), growing first if the table
    /// would pass 3/4 full. Returns its slot.
    fn insert_new(&mut self, key: u64, value: V) -> usize {
        if 4 * (self.len + 1) > 3 * self.keys.len() {
            self.grow(value);
        }
        let i = self.vacant_slot(key);
        self.keys[i] = key;
        self.vals[i] = value;
        self.len += 1;
        i
    }

    /// First vacant slot on `key`'s probe path (the table has one).
    fn vacant_slot(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        while self.keys[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the table (or allocates the first one), rehashing every
    /// entry. `filler` initialises the vacant value slots.
    fn grow(&mut self, filler: V) {
        let capacity = (2 * self.keys.len()).max(MIN_CAPACITY);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; capacity]);
        let old_vals = std::mem::replace(&mut self.vals, vec![filler; capacity]);
        self.shift = 64 - capacity.trailing_zeros();
        for (key, value) in old_keys.into_iter().zip(old_vals) {
            if key != EMPTY {
                let i = self.vacant_slot(key);
                self.keys[i] = key;
                self.vals[i] = value;
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if key == EMPTY {
            return self.max_key.take();
        }
        let mut hole = self.find(key)?;
        let value = self.vals[hole];
        let mask = self.keys.len() - 1;
        // Backward-shift deletion: walk the rest of the cluster and pull
        // back every entry whose home lies at or before the hole, so
        // no probe chain ever crosses a vacant slot.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let home = self.home(k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(value)
    }

    /// Removes every entry, keeping the table for reuse.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
        self.max_key = None;
    }

    /// Every `(key, value)` pair in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let mut slots: Vec<usize> = (0..self.keys.len())
            .filter(|&i| self.keys[i] != EMPTY)
            .collect();
        slots.sort_unstable_by_key(|&i| self.keys[i]);
        slots
            .into_iter()
            .map(|i| (self.keys[i], &self.vals[i]))
            .chain(self.max_key.as_ref().map(|v| (EMPTY, v)))
    }

    /// Every key in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Every value, in ascending order of key.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, Config};
    use crate::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// Draws a key from a small pool so inserts, hits and removals all
    /// collide often; pool members are consecutive block addresses
    /// (the engine's real pattern), a few far-apart ones, and the
    /// sentinel-valued `u64::MAX`.
    fn key(rng: &mut SplitMix64, pool: u64) -> u64 {
        match rng.below(16) {
            0 => u64::MAX,
            1 => rng.below(pool) << 40,
            _ => 0x1000 + rng.below(pool),
        }
    }

    /// Runs one seeded op sequence against the map and a `BTreeMap`
    /// model; returns the map's final entries.
    fn run_against_model(rng: &mut SplitMix64) -> Result<Vec<(u64, u32)>, String> {
        let pool = 1 + rng.below(600);
        let ops = 200 + rng.below(3000);
        let mut map: BlockMap<u32> = BlockMap::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for step in 0..ops {
            let k = key(rng, pool);
            let v = rng.next_u32();
            let (got, want) = match rng.below(20) {
                0..=7 => (map.insert(k, v), model.insert(k, v)),
                8..=12 => (map.remove(k), model.remove(&k)),
                13..=17 => (map.get(k).copied(), model.get(&k).copied()),
                18 => {
                    let got = *map.get_or_insert_with(k, || v);
                    (Some(got), Some(*model.entry(k).or_insert(v)))
                }
                _ => {
                    if rng.below(8) == 0 {
                        map.clear();
                        model.clear();
                    }
                    (None, None)
                }
            };
            if got != want {
                return Err(format!(
                    "step {step}, key {k:#x}: map {got:?}, model {want:?}"
                ));
            }
            if map.len() != model.len() {
                return Err(format!("step {step}: len {} vs {}", map.len(), model.len()));
            }
        }
        let entries: Vec<(u64, u32)> = map.iter().map(|(k, v)| (k, *v)).collect();
        let expected: Vec<(u64, u32)> = model.into_iter().collect();
        if entries != expected {
            return Err(format!("final entries differ: {entries:?} vs {expected:?}"));
        }
        // Every surviving key is still reachable through its probe
        // chain (a broken backward shift strands keys past a hole).
        for &(k, v) in &entries {
            if map.get(k) != Some(&v) {
                return Err(format!("key {k:#x} unreachable after the run"));
            }
        }
        Ok(entries)
    }

    #[test]
    fn block_map_matches_btreemap_model() {
        check(
            "block_map_matches_btreemap_model",
            Config::cases(200),
            |rng| run_against_model(rng).map(|_| ()),
        );
    }

    #[test]
    fn block_map_runs_are_identical_across_runs() {
        for seed in 0..8 {
            let a = run_against_model(&mut SplitMix64::new(seed));
            let b = run_against_model(&mut SplitMix64::new(seed));
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn removal_inside_a_probe_cluster_keeps_the_rest_reachable() {
        // Twelve keys whose homes in the first 16-slot table are slots
        // 14, 15 and 0 (four each): one cluster that wraps the end of
        // the table and fills it to its 3/4 limit. Removing any one
        // must leave the other eleven reachable and no tombstone behind
        // (a re-insert lands without growing).
        let home = |k: u64| (k.wrapping_mul(MULTIPLIER) >> 60) as usize;
        let mut keys = Vec::new();
        for want in [14, 15, 0] {
            keys.extend((1..).filter(|&k| home(k) == want).take(4));
        }
        let mut full: BlockMap<u64> = BlockMap::new();
        for &k in &keys {
            full.insert(k, !k);
        }
        assert_eq!(full.keys.len(), 16, "twelve entries fit the first table");
        assert!(keys.iter().all(|&k| full.home(k) == home(k)));
        for &victim in &keys {
            let mut m = full.clone();
            assert_eq!(m.remove(victim), Some(!victim));
            for &k in keys.iter().filter(|&&k| k != victim) {
                assert_eq!(m.get(k), Some(&!k), "victim {victim}, key {k}");
            }
            m.insert(victim, !victim);
            assert_eq!(m.keys.len(), 16);
            assert!(m.iter().eq(full.iter()), "victim {victim}");
        }
    }

    #[test]
    fn growth_rehashes_every_entry_and_iterates_in_order() {
        let mut m: BlockMap<u64> = BlockMap::new();
        assert_eq!(m.keys.capacity(), 0, "a new map allocates nothing");
        let keys: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 5003).collect();
        for &k in &keys {
            assert_eq!(m.insert(k, k + 1), None);
        }
        assert_eq!(m.len(), 5000);
        assert!(m.keys.len().is_power_of_two() && 4 * m.len() <= 3 * m.keys.len());
        for &k in &keys {
            assert_eq!(m.get(k), Some(&(k + 1)));
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(m.keys().collect::<Vec<_>>(), sorted);
        let capacity = m.keys.len();
        m.clear();
        assert!(m.is_empty() && m.iter().next().is_none());
        assert_eq!(m.keys.len(), capacity, "clear keeps the table");
    }

    #[test]
    fn max_key_lives_beside_the_table() {
        let mut m: BlockMap<()> = BlockMap::new();
        assert!(!m.contains_key(u64::MAX));
        m.insert(u64::MAX, ());
        m.insert(3, ());
        assert!(m.contains_key(u64::MAX) && m.contains_key(3));
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![3, u64::MAX]);
        assert_eq!(m.remove(u64::MAX), Some(()));
        assert_eq!(m.len(), 1);
        assert_eq!(format!("{m:?}"), "{3: ()}");
    }
}
