//! The functional contents of the NVM: a sparse image of 64-byte
//! blocks.
//!
//! Unwritten blocks read as zero (real NVM ships zeroed; the simulator
//! does not charge for the initial state). The store also provides the
//! attacker's interface — [`SparseStore::tamper`] and
//! [`SparseStore::rollback_to`] — used by integrity tests to model the
//! threat model of §3.1 (an attacker who can read and modify NVM
//! contents between and during boot episodes).
//!
//! # Layout
//!
//! Resident blocks live in a dense slab of fixed-size chunks, each
//! boxed once and never reallocated or copied as the image grows. A
//! [`BlockMap`] indexes block address → slot, so a read is one hash
//! probe plus one slab load. Writing zero removes the index entry and
//! puts the slot on a free list for the next new block. Iteration
//! sorts the index, so it stays in ascending address order, and
//! equality compares contents, not slot layout.

use triad_sim::{BlockAddr, BlockMap, BLOCK_BYTES};

/// One 64-byte memory block.
pub type Block = [u8; BLOCK_BYTES];

/// Blocks per slab chunk (16 KiB): small enough that a sparse image
/// wastes little in its last chunk, large enough that chunk
/// allocations are rare.
const CHUNK_BLOCKS: usize = 256;

/// Most chunks the slab may hold, so every slot number fits a `u32`.
const MAX_CHUNKS: usize = u32::MAX as usize / CHUNK_BLOCKS;

/// A sparse, functional NVM image (see the module docs for its layout).
#[derive(Clone, Default)]
pub struct SparseStore {
    /// Block address → slot in `chunks`, for resident blocks only.
    index: BlockMap<u32>,
    /// The slab: slot `s` is `chunks[s / CHUNK_BLOCKS][s % CHUNK_BLOCKS]`.
    /// Slots `0..index.len() + free.len()` have been handed out.
    chunks: Vec<Box<[Block; CHUNK_BLOCKS]>>,
    /// Freed slots, reused before the slab grows.
    free: Vec<u32>,
}

impl SparseStore {
    /// An empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&self, slot: u32) -> &Block {
        let s = slot as usize;
        &self.chunks[s / CHUNK_BLOCKS][s % CHUNK_BLOCKS]
    }

    #[inline]
    fn slot_mut(&mut self, slot: u32) -> &mut Block {
        let s = slot as usize;
        &mut self.chunks[s / CHUNK_BLOCKS][s % CHUNK_BLOCKS]
    }

    /// Reads a block; unwritten blocks are zero.
    #[inline]
    pub fn read(&self, addr: BlockAddr) -> Block {
        match self.index.get(addr.0) {
            Some(&slot) => *self.slot(slot),
            None => [0; BLOCK_BYTES],
        }
    }

    /// Writes a block.
    pub fn write(&mut self, addr: BlockAddr, data: Block) {
        if data == [0; BLOCK_BYTES] {
            // Keep the image sparse: zero blocks are the default.
            if let Some(slot) = self.index.remove(addr.0) {
                self.free.push(slot);
            }
            return;
        }
        let next = self.index.len() + self.free.len();
        let SparseStore {
            index,
            chunks,
            free,
        } = self;
        let slot = *index.get_or_insert_with(addr.0, || {
            free.pop().unwrap_or_else(|| {
                if next == chunks.len() * CHUNK_BLOCKS {
                    assert!(chunks.len() < MAX_CHUNKS, "NVM image slab is full");
                    chunks.push(Box::new([[0; BLOCK_BYTES]; CHUNK_BLOCKS]));
                }
                next as u32
            })
        });
        *self.slot_mut(slot) = data;
    }

    /// Number of non-zero blocks resident.
    pub fn resident_blocks(&self) -> usize {
        self.index.len()
    }

    /// XORs `mask` into the block at `addr` — the attacker's direct
    /// tampering primitive.
    pub fn tamper(&mut self, addr: BlockAddr, mask: Block) {
        let mut b = self.read(addr);
        for (x, m) in b.iter_mut().zip(mask.iter()) {
            *x ^= m;
        }
        self.write(addr, b);
    }

    /// Replaces the block at `addr` with an arbitrary value (e.g. a
    /// captured stale version — the replay attack of §2.2).
    pub fn rollback_to(&mut self, addr: BlockAddr, old: Block) {
        self.write(addr, old);
    }

    /// Iterates over resident (non-zero) blocks in ascending address
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &Block)> {
        self.index
            .iter()
            .map(|(addr, &slot)| (BlockAddr(addr), self.slot(slot)))
    }
}

impl PartialEq for SparseStore {
    /// Two images are equal when every address reads the same; where
    /// each block sits in the slab does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.resident_blocks() == other.resident_blocks()
            && self.iter().all(|(addr, block)| {
                other
                    .index
                    .get(addr.0)
                    .is_some_and(|&slot| other.slot(slot) == block)
            })
    }
}

impl Eq for SparseStore {}

impl std::fmt::Debug for SparseStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(addr, block)| (addr.0, block)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use triad_sim::prop::{check, Config};
    use triad_sim::rng::SplitMix64;

    #[test]
    fn unwritten_reads_zero() {
        let s = SparseStore::new();
        assert_eq!(s.read(BlockAddr(99)), [0u8; 64]);
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(5), [7; 64]);
        assert_eq!(s.read(BlockAddr(5)), [7; 64]);
        assert_eq!(s.resident_blocks(), 1);
    }

    #[test]
    fn zero_write_keeps_store_sparse() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(5), [7; 64]);
        s.write(BlockAddr(5), [0; 64]);
        assert_eq!(s.resident_blocks(), 0);
        assert_eq!(s.read(BlockAddr(5)), [0; 64]);
    }

    #[test]
    fn tamper_flips_selected_bits() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(1), [0xFF; 64]);
        let mut mask = [0u8; 64];
        mask[3] = 0x0F;
        s.tamper(BlockAddr(1), mask);
        let b = s.read(BlockAddr(1));
        assert_eq!(b[3], 0xF0);
        assert_eq!(b[4], 0xFF);
    }

    #[test]
    fn rollback_restores_old_version() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(1), [1; 64]);
        let captured = s.read(BlockAddr(1));
        s.write(BlockAddr(1), [2; 64]);
        s.rollback_to(BlockAddr(1), captured);
        assert_eq!(s.read(BlockAddr(1)), [1; 64]);
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(1), [1; 64]);
        let snap = s.clone();
        s.write(BlockAddr(1), [2; 64]);
        assert_eq!(snap.read(BlockAddr(1)), [1; 64]);
        assert_eq!(s.read(BlockAddr(1)), [2; 64]);
    }

    #[test]
    fn iter_visits_resident_blocks_in_address_order() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(2), [2; 64]);
        s.write(BlockAddr(1), [1; 64]);
        let addrs: Vec<u64> = s.iter().map(|(a, _)| a.0).collect();
        assert_eq!(addrs, [1, 2]);
    }

    #[test]
    fn freed_slots_are_reused_before_the_slab_grows() {
        let mut s = SparseStore::new();
        for a in 0..CHUNK_BLOCKS as u64 {
            s.write(BlockAddr(a), [1; 64]);
        }
        assert_eq!(s.chunks.len(), 1);
        s.write(BlockAddr(7), [0; 64]);
        s.write(BlockAddr(1 << 40), [2; 64]);
        assert_eq!(s.chunks.len(), 1, "the freed slot took the new block");
        assert_eq!(s.index.get(1 << 40), Some(&7));
        s.write(BlockAddr(u64::MAX), [3; 64]);
        assert_eq!(s.chunks.len(), 2, "a full slab grows by one chunk");
        assert_eq!(s.read(BlockAddr(7)), [0; 64]);
        assert_eq!(s.read(BlockAddr(1 << 40)), [2; 64]);
        assert_eq!(s.read(BlockAddr(u64::MAX)), [3; 64]);
    }

    /// A block address drawn from a small dense pool (so rewrites,
    /// zero writes and slot reuse collide often), far-apart addresses,
    /// and the top of the address space.
    fn addr(rng: &mut SplitMix64, pool: u64) -> u64 {
        match rng.below(16) {
            0 => u64::MAX - rng.below(4),
            1 => rng.below(pool) << 44,
            _ => 0x4000 + rng.below(pool),
        }
    }

    /// A block value: zero a fifth of the time, else a seeded fill with
    /// a few random bytes.
    fn block(rng: &mut SplitMix64) -> Block {
        if rng.below(5) == 0 {
            return [0; BLOCK_BYTES];
        }
        let mut b = [rng.next_u32() as u8 | 1; BLOCK_BYTES];
        b[rng.below(64) as usize] = rng.next_u32() as u8;
        b
    }

    /// The oracle's view of `store`, checked through every read path.
    fn agrees(store: &SparseStore, model: &BTreeMap<u64, Block>) -> Result<(), String> {
        if store.resident_blocks() != model.len() {
            return Err(format!(
                "resident {} vs model {}",
                store.resident_blocks(),
                model.len()
            ));
        }
        let got: Vec<(u64, Block)> = store.iter().map(|(a, b)| (a.0, *b)).collect();
        let want: Vec<(u64, Block)> = model.iter().map(|(a, b)| (*a, *b)).collect();
        if got != want {
            return Err("iteration differs from the model".to_string());
        }
        for (&a, b) in model {
            if store.read(BlockAddr(a)) != *b {
                return Err(format!("read {a:#x} differs from the model"));
            }
        }
        Ok(())
    }

    #[test]
    fn sparse_store_matches_btreemap_model() {
        check(
            "sparse_store_matches_btreemap_model",
            Config::cases(100),
            |rng| {
                let pool = 1 + rng.below(700);
                let ops = 100 + rng.below(2000);
                let mut store = SparseStore::new();
                let mut model: BTreeMap<u64, Block> = BTreeMap::new();
                let mut snapshot: Option<(SparseStore, BTreeMap<u64, Block>)> = None;
                for step in 0..ops {
                    let a = addr(rng, pool);
                    let zero = [0; BLOCK_BYTES];
                    match rng.below(20) {
                        0..=9 => {
                            let b = block(rng);
                            store.write(BlockAddr(a), b);
                            if b == zero {
                                model.remove(&a);
                            } else {
                                model.insert(a, b);
                            }
                        }
                        10..=11 => {
                            let mut mask = [0u8; BLOCK_BYTES];
                            let len = rng.below(65) as usize;
                            rng.fill_bytes(&mut mask[..len]);
                            store.tamper(BlockAddr(a), mask);
                            let mut b = model.get(&a).copied().unwrap_or(zero);
                            b.iter_mut().zip(mask).for_each(|(x, m)| *x ^= m);
                            if b == zero {
                                model.remove(&a);
                            } else {
                                model.insert(a, b);
                            }
                        }
                        12 => {
                            // Roll back to whatever another address holds
                            // (zero for an unwritten one).
                            let old = store.read(BlockAddr(addr(rng, pool)));
                            store.rollback_to(BlockAddr(a), old);
                            if old == zero {
                                model.remove(&a);
                            } else {
                                model.insert(a, old);
                            }
                        }
                        13..=17 => {
                            let want = model.get(&a).copied().unwrap_or(zero);
                            if store.read(BlockAddr(a)) != want {
                                return Err(format!("step {step}: read {a:#x} differs"));
                            }
                        }
                        18 => snapshot = Some((store.clone(), model.clone())),
                        _ if rng.below(4) == 0 => {
                            // A store rebuilt from the model in a shuffled
                            // order (a different slot layout) is equal.
                            let mut entries: Vec<(u64, Block)> =
                                model.iter().map(|(a, b)| (*a, *b)).collect();
                            for i in (1..entries.len()).rev() {
                                entries.swap(i, rng.below(i as u64 + 1) as usize);
                            }
                            let mut rebuilt = SparseStore::new();
                            for (a, b) in entries {
                                rebuilt.write(BlockAddr(a), b);
                            }
                            if rebuilt != store {
                                return Err(format!("step {step}: rebuilt store differs"));
                            }
                            rebuilt.write(BlockAddr(a), [0xA5; BLOCK_BYTES]);
                            if model.get(&a) != Some(&[0xA5; BLOCK_BYTES]) && rebuilt == store {
                                return Err(format!("step {step}: unequal stores compare equal"));
                            }
                        }
                        _ => {}
                    }
                }
                agrees(&store, &model)?;
                if let Some((snap, snap_model)) = snapshot {
                    agrees(&snap, &snap_model).map_err(|e| format!("snapshot: {e}"))?;
                }
                Ok(())
            },
        );
    }
}
