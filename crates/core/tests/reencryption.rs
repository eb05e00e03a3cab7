//! Page re-encryption keeps every neighbour readable after the MAC
//! line leaves the chip.
//!
//! A minor-counter overflow re-encrypts the whole page and rewrites the
//! tags of the page's other blocks. The overflowing write-back must
//! stage its MAC line as it stands *after* that rewrite: staging the
//! copy taken before it put stale neighbour tags into NVM and marked
//! the line clean, so once the line was evicted a neighbour's next
//! read failed with `MacMismatch` (or returned wrong data).

use triad_core::{PersistScheme, SecureMemory, SecureMemoryBuilder, WriteBatch};
use triad_sim::{BlockAddr, PhysAddr, Time, BLOCK_BYTES};

fn fill(tag: u64) -> [u8; BLOCK_BYTES] {
    let mut data = [0u8; BLOCK_BYTES];
    for (i, chunk) in data.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&(tag.wrapping_mul(31) + i as u64).to_le_bytes());
    }
    data
}

/// Writes the 8 blocks sharing one MAC line, overflows the minor
/// counter of one of them through `write`, evicts the page from every
/// on-chip cache by touching `flood` other pages, then reads the
/// neighbours back.
fn neighbours_survive(
    mem: &mut SecureMemory,
    base: PhysAddr,
    mut write: impl FnMut(&mut SecureMemory, BlockAddr, [u8; BLOCK_BYTES], Time) -> Time,
) {
    let at = |page: u64, slot: u64| PhysAddr(base.0 + page * 4096 + slot * 64).block();
    let mut t = Time::ZERO;
    for slot in 0..8 {
        t = write(mem, at(0, slot), fill(slot), t);
    }
    // Stop at the overflowing write: a later write of the same line
    // would re-stage it from the (current) on-chip copy.
    let hot = at(0, 3);
    let mut last = fill(3);
    for i in 0..200 {
        last = fill(1000 + i);
        t = write(mem, hot, last, t);
        if mem.stats().page_reencryptions > 0 {
            break;
        }
    }
    assert_eq!(mem.stats().page_reencryptions, 1, "no page re-encrypted");
    for page in 1..600 {
        t = write(mem, at(page, 0), fill(page), t);
    }
    for slot in 0..8 {
        let expect = if slot == 3 { last } else { fill(slot) };
        let (got, done) = mem
            .load_block(at(0, slot), t)
            .unwrap_or_else(|e| panic!("{}: slot {slot}: {e}", mem.scheme()));
        assert_eq!(got, expect, "{}: slot {slot}", mem.scheme());
        t = done;
    }
}

fn build(scheme: PersistScheme) -> SecureMemory {
    SecureMemoryBuilder::new()
        .capacity_bytes(1 << 24)
        .scheme(scheme)
        .build()
        .unwrap()
}

const SCHEMES: [PersistScheme; 5] = [
    PersistScheme::WriteBack,
    PersistScheme::TriadNvm { n: 1 },
    PersistScheme::TriadNvm { n: 2 },
    PersistScheme::TriadNvm { n: 3 },
    PersistScheme::Strict,
];

#[test]
fn persist_block_reencryption_keeps_neighbours_readable() {
    for scheme in SCHEMES {
        let mut mem = build(scheme);
        let base = mem.persistent_region().start();
        neighbours_survive(&mut mem, base, |mem, block, data, t| {
            mem.persist_block(block, data, t).unwrap()
        });
    }
}

#[test]
fn persist_batch_reencryption_keeps_neighbours_readable() {
    for scheme in SCHEMES {
        let mut mem = build(scheme);
        let base = mem.persistent_region().start();
        neighbours_survive(&mut mem, base, |mem, block, data, t| {
            let mut batch = WriteBatch::new();
            batch.push(block, data);
            mem.persist_batch(&batch, t).unwrap()
        });
    }
}

/// `Strict` commits non-persistent write-backs atomically too.
#[test]
fn strict_non_persistent_reencryption_keeps_neighbours_readable() {
    let mut mem = build(PersistScheme::Strict);
    let base = mem.non_persistent_region().start();
    neighbours_survive(&mut mem, base, |mem, block, data, t| {
        let t = mem.store_block(block, data, t).unwrap();
        mem.flush_block(block, t).unwrap()
    });
}
