//! The persist path allocates nothing in steady state: once a fixed
//! working set has been persisted a few times (so every on-chip map,
//! staging buffer and NVM slab slot it needs exists), further
//! `persist_batch` and standalone `persist_block` calls over the same
//! blocks make no heap allocation. A counting global allocator checks
//! this per thread.
//!
//! The working set spans more pages than the tiny configuration's
//! caches hold, so the measured calls also evict, drain write-backs,
//! settle deferred hashes and re-encrypt pages on minor-counter
//! overflow.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use triad_core::{
    CounterPersistence, PersistScheme, SecureMemory, SecureMemoryBuilder, WriteBatch,
};
use triad_sim::{BlockAddr, PhysAddr, Time, BLOCK_BYTES};

/// Counts this thread's allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Persistent-region blocks of the working set: four blocks in each of
/// 48 pages, so counters, MAC lines and tree paths are shared within a
/// page and the caches keep evicting.
fn working_set(mem: &SecureMemory) -> Vec<BlockAddr> {
    let base = mem.persistent_region().start();
    (0..48u64)
        .flat_map(|page| (0..4u64).map(move |slot| PhysAddr(base.0 + page * 4096 + slot * 64)))
        .map(|a| a.block())
        .collect()
}

/// Non-zero contents for round `round` (a zero block would free its
/// NVM slot, and the next round would allocate it again).
fn contents(round: u64, i: usize) -> [u8; BLOCK_BYTES] {
    let mut data = [0u8; BLOCK_BYTES];
    data[..8].copy_from_slice(&(round * 1_000 + i as u64 + 1).to_le_bytes());
    data
}

/// Refills `batches` with round `round`'s contents of the working set,
/// eight blocks per batch. A `WriteBatch` is the caller's buffer, so
/// this runs outside the measured window.
fn fill(batches: &mut [WriteBatch], blocks: &[BlockAddr], round: u64) {
    for (c, (batch, members)) in batches.iter_mut().zip(blocks.chunks(8)).enumerate() {
        *batch = WriteBatch::new();
        for (j, block) in members.iter().enumerate() {
            batch.push(*block, contents(round, c * 8 + j));
        }
    }
}

/// One round: every batch, then every fourth block alone.
fn persist_round(
    mem: &mut SecureMemory,
    batches: &[WriteBatch],
    blocks: &[BlockAddr],
    round: u64,
    mut t: Time,
) -> Time {
    for batch in batches {
        t = mem.persist_batch(batch, t).expect("persist_batch");
    }
    for (i, block) in blocks.iter().enumerate().step_by(4) {
        t = mem
            .persist_block(*block, contents(round + 7, i), t)
            .expect("persist_block");
    }
    t
}

fn check(scheme: PersistScheme, policy: CounterPersistence) {
    let mut mem = SecureMemoryBuilder::new()
        .scheme(scheme)
        .counter_persistence(policy)
        .build()
        .expect("build");
    let blocks = working_set(&mem);
    let mut batches = vec![WriteBatch::new(); blocks.len().div_ceil(8)];
    let mut t = Time::ZERO;
    // Warm-up: enough rounds to overflow every written block's minor
    // counter, so re-encryption has run and grown its buffers too.
    for r in 0..300 {
        fill(&mut batches, &blocks, r);
        t = persist_round(&mut mem, &batches, &blocks, r, t);
    }
    let reencryptions = mem.stats().page_reencryptions;
    assert!(reencryptions > 0, "warm-up must overflow minor counters");
    for r in 300..600 {
        fill(&mut batches, &blocks, r);
        let before = allocs();
        t = persist_round(&mut mem, &batches, &blocks, r, t);
        let made = allocs() - before;
        assert_eq!(
            made, 0,
            "{scheme} round {r}: {made} allocations on the persist path"
        );
    }
    assert!(
        mem.stats().page_reencryptions > reencryptions,
        "the measured rounds must re-encrypt pages too"
    );
    assert!(mem.validate_consistency().is_empty());
}

#[test]
fn steady_state_persists_allocate_nothing() {
    check(PersistScheme::triad_nvm(2), CounterPersistence::Strict);
    check(PersistScheme::Strict, CounterPersistence::Strict);
    check(
        PersistScheme::triad_nvm(3),
        CounterPersistence::Osiris { interval: 4 },
    );
}
