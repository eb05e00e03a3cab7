//! The epoch-persistency extension (Liu et al.'s relaxation, which the
//! paper cites as orthogonal to Triad-NVM): persists inside an epoch
//! are deferred and write-combined; durability is guaranteed only at
//! the epoch boundary.

use triad_core::{PersistScheme, SecureMemoryBuilder};
use triad_sim::config::CacheConfig;
use triad_sim::rng::SplitMix64;
use triad_sim::{PhysAddr, Time};

fn build() -> triad_core::SecureMemory {
    SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(2))
        .build()
        .unwrap()
}

#[test]
fn epoch_defers_and_combines_persists() {
    let mut m = build();
    let p = m.persistent_region().start();
    m.begin_epoch().unwrap();
    assert!(m.epoch_open());
    // 50 persists of the same block inside one epoch…
    for i in 0..50u64 {
        m.persist_block(
            p.block(),
            {
                let mut b = [0u8; 64];
                b[..8].copy_from_slice(&i.to_le_bytes());
                b
            },
            Time::ZERO,
        )
        .unwrap();
    }
    // …perform no atomic metadata persists until the boundary.
    assert_eq!(m.stats().atomic_persists, 0);
    m.end_epoch(Time::ZERO).unwrap();
    assert!(!m.epoch_open());
    // Exactly one combined write-back.
    assert_eq!(m.stats().atomic_persists, 1);
    assert_eq!(m.stats().epochs, 1);
    // And it is durable.
    m.crash();
    assert!(m.recover().unwrap().persistent_recovered);
    assert_eq!(&m.read(p).unwrap()[..8], &49u64.to_le_bytes());
}

#[test]
fn epoch_boundary_guarantees_every_member() {
    let mut m = build();
    let p = m.persistent_region().start();
    m.begin_epoch().unwrap();
    for i in 0..16u64 {
        let a = PhysAddr(p.0 + i * 4096);
        m.write(a, &i.to_le_bytes()).unwrap();
        m.persist_block(
            a.block(),
            {
                let mut b = [0u8; 64];
                b[..8].copy_from_slice(&i.to_le_bytes());
                b
            },
            Time::ZERO,
        )
        .unwrap();
    }
    m.end_epoch(Time::ZERO).unwrap();
    m.crash();
    m.recover().unwrap();
    for i in 0..16u64 {
        let a = PhysAddr(p.0 + i * 4096);
        assert_eq!(&m.read(a).unwrap()[..8], &i.to_le_bytes(), "block {i}");
    }
}

#[test]
fn crash_inside_epoch_may_lose_its_persists_but_stays_consistent() {
    let mut m = build();
    let p = m.persistent_region().start();
    // Pre-epoch durable baseline.
    m.write(p, b"baseline").unwrap();
    m.persist(p).unwrap();
    m.begin_epoch().unwrap();
    m.persist_block(p.block(), [7u8; 64], Time::ZERO).unwrap();
    // Crash before the boundary: the deferred persist is allowed to be
    // lost, but recovery must verify and the baseline must remain.
    m.crash();
    let report = m.recover().unwrap();
    assert!(report.persistent_recovered, "{report:?}");
    let data = m.read(p).unwrap();
    assert!(
        &data[..8] == b"baseline" || data == [7u8; 64],
        "either pre-epoch or (if naturally evicted) epoch value: {data:?}"
    );
    assert!(!m.epoch_open(), "crash closes the epoch");
}

#[test]
fn end_epoch_without_begin_is_a_typed_error() {
    let mut m = build();
    assert_eq!(
        m.end_epoch(Time::ZERO),
        Err(triad_core::SecureMemoryError::EpochNotOpen)
    );
    // The unbalanced close changes nothing: no epoch is counted and
    // the engine keeps running (callers may recover and continue).
    assert_eq!(m.stats().epochs, 0);
    assert!(!m.epoch_open());
    m.begin_epoch().unwrap();
    m.end_epoch(Time::ZERO).unwrap();
    assert_eq!(m.stats().epochs, 1);
}

#[test]
fn nested_epochs_rejected() {
    let mut m = build();
    m.begin_epoch().unwrap();
    assert_eq!(
        m.begin_epoch(),
        Err(triad_core::SecureMemoryError::EpochAlreadyOpen)
    );
    // The original epoch is untouched by the rejected reentry.
    assert!(m.epoch_open());
    m.end_epoch(Time::ZERO).unwrap();
    assert!(!m.epoch_open());
}

#[test]
fn epoch_reduces_metadata_write_traffic() {
    // Same workload, per-persist vs one epoch: the epoch must issue
    // far fewer metadata persists (the Liu et al. win).
    let run = |epoch: bool| {
        let mut m = build();
        let p = m.persistent_region().start();
        if epoch {
            m.begin_epoch().unwrap();
        }
        for i in 0..200u64 {
            // 200 persists over 8 hot blocks.
            let a = PhysAddr(p.0 + (i % 8) * 64);
            let mut b = [0u8; 64];
            b[..8].copy_from_slice(&i.to_le_bytes());
            m.persist_block(a.block(), b, Time::ZERO).unwrap();
        }
        if epoch {
            m.end_epoch(Time::ZERO).unwrap();
        }
        m.stats().persist_metadata_writes()
    };
    let strict = run(false);
    let epoch = run(true);
    assert!(
        epoch * 10 <= strict,
        "epoch ({epoch}) should cut metadata persists ≥10× vs per-op ({strict})"
    );
}

#[test]
fn epoch_boundary_with_tiny_caches_keeps_every_member() {
    // A 4-line counter cache and an 8-line MT cache: the boundary's
    // members evict each other's counters and path nodes, and a member
    // whose counter is still queued for write-back pulls it back on
    // chip, evicting a counter whose path hashes are still deferred.
    // Those must settle before they leave the chip.
    let mut config = triad_sim::config::SystemConfig::tiny();
    config.security.counter_cache = CacheConfig::new(4 * 64, 2, 3);
    config.security.mt_cache = CacheConfig::new(8 * 64, 2, 3);
    let mut m = SecureMemoryBuilder::new()
        .config(config)
        .scheme(PersistScheme::triad_nvm(2))
        .build()
        .unwrap();
    let p = m.persistent_region().start();
    let mut rng = SplitMix64::new(0xE90C);
    let mut want = std::collections::BTreeMap::new();
    for round in 0..40u64 {
        m.begin_epoch().unwrap();
        for i in 0..24u64 {
            let page = rng.gen_range(0..24);
            let a = PhysAddr(p.0 + page * 4096 + rng.gen_range(0..4) * 64);
            let mut b = [0u8; 64];
            b[..16].copy_from_slice(&[round.to_le_bytes(), i.to_le_bytes()].concat());
            m.persist_block(a.block(), b, Time::ZERO).unwrap();
            want.insert(a.0, b);
        }
        m.end_epoch(Time::ZERO).unwrap();
        assert!(m.validate_consistency().is_empty(), "round {round}");
    }
    m.crash();
    assert!(m.recover().unwrap().persistent_recovered);
    for (addr, data) in want {
        assert_eq!(m.read(PhysAddr(addr)).unwrap(), data, "block {addr:#x}");
    }
}
