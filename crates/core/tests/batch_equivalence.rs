//! Batched/scalar equivalence property: replaying the same seeded
//! history of persist batches through `apply_batch` and through a
//! member-by-member `persist_block` loop must be observationally
//! identical — byte-identical NVM image (data, counters, MACs and BMT
//! nodes), identical persistent BMT root, and identical post-crash
//! recovery — under every scheme, with strict counters and with the
//! Osiris counter relaxation. The batch pipeline (shared pad pass,
//! prefetch planning, coalesced metadata commit) is a performance
//! transformation only.
//!
//! Six (scheme, counter policy) tests × 250 default cases = 1500
//! seeded histories; `TRIAD_PROP_CASES` rescales each test as usual.

use std::collections::BTreeMap;

use triad_core::{
    CounterPersistence, PersistScheme, SecureMemory, SecureMemoryBuilder, WriteBatch,
};
use triad_meta::layout::RegionKind;
use triad_sim::prop::{check, Config};
use triad_sim::rng::SplitMix64;
use triad_sim::{BlockAddr, PhysAddr, Time, BLOCK_BYTES};

/// One history event: a batch of persistent stores or a clean crash.
enum Event {
    Batch(Vec<(BlockAddr, [u8; BLOCK_BYTES])>),
    Crash,
}

/// Draws a history of 1–20 events. Blocks come from a 24-page window
/// so members routinely share counter blocks, MAC blocks and BMT
/// ancestors — the cases where coalescing actually merges writes.
fn gen_history(rng: &mut SplitMix64, base: PhysAddr, allow_crash: bool) -> Vec<Event> {
    let len = rng.gen_range(1..21) as usize;
    (0..len)
        .map(|_| {
            if allow_crash && rng.gen_bool(0.15) {
                Event::Crash
            } else {
                let members = rng.gen_range_inclusive(1..=8) as usize;
                Event::Batch(
                    (0..members)
                        .map(|_| {
                            let page = rng.gen_range(0..24);
                            let slot = rng.gen_range(0..4);
                            let addr = PhysAddr(base.0 + page * 4096 + slot * 64);
                            let mut data = [0u8; BLOCK_BYTES];
                            rng.fill_bytes(&mut data);
                            (addr.block(), data)
                        })
                        .collect(),
                )
            }
        })
        .collect()
}

fn build(scheme: PersistScheme, policy: CounterPersistence, key_seed: u64) -> SecureMemory {
    SecureMemoryBuilder::new()
        .scheme(scheme)
        .counter_persistence(policy)
        .key_seed(key_seed)
        .build()
        .unwrap()
}

fn image(mem: &SecureMemory) -> BTreeMap<u64, [u8; BLOCK_BYTES]> {
    mem.nvm_image().iter().map(|(a, b)| (a.0, *b)).collect()
}

fn check_equivalence(
    scheme: PersistScheme,
    policy: CounterPersistence,
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let key_seed = rng.next_u64();
    let mut scalar = build(scheme, policy, key_seed);
    let mut batched = build(scheme, policy, key_seed);
    let base = scalar.persistent_region().start();
    // WriteBack deliberately cannot recover the persistent region, so a
    // mid-history crash poisons every later persist on both sides;
    // keep its histories crash-free and let the final cycle below
    // check that both replicas poison identically.
    let allow_crash = scheme.persists_metadata();
    let history = gen_history(rng, base, allow_crash);

    let mut touched: Vec<BlockAddr> = Vec::new();
    let (mut ts, mut tb) = (Time::ZERO, Time::ZERO);
    for event in &history {
        match event {
            Event::Batch(members) => {
                for (block, data) in members {
                    ts = scalar
                        .persist_block(*block, *data, ts)
                        .map_err(|e| format!("scalar persist: {e}"))?;
                    if !touched.contains(block) {
                        touched.push(*block);
                    }
                }
                let mut batch = WriteBatch::new();
                for (block, data) in members {
                    batch.push(*block, *data);
                }
                tb = batched
                    .persist_batch(&batch, tb)
                    .map_err(|e| format!("batched persist: {e}"))?;
            }
            Event::Crash => {
                scalar.crash();
                batched.crash();
                scalar
                    .recover()
                    .map_err(|e| format!("scalar recover: {e}"))?;
                batched
                    .recover()
                    .map_err(|e| format!("batched recover: {e}"))?;
            }
        }
    }

    if image(&scalar) != image(&batched) {
        return Err("NVM images diverged after history".into());
    }
    if scalar.root(RegionKind::Persistent) != batched.root(RegionKind::Persistent) {
        return Err("persistent BMT roots diverged".into());
    }
    if scalar.stats().persists != batched.stats().persists {
        return Err(format!(
            "durability-point counts diverged: scalar {} vs batched {}",
            scalar.stats().persists,
            batched.stats().persists
        ));
    }

    // Both must also agree after one more crash/recovery cycle: the
    // staged-update replay paths converge on the same bytes.
    scalar.crash();
    batched.crash();
    let rs = scalar
        .recover()
        .map_err(|e| format!("scalar recover: {e}"))?;
    let rb = batched
        .recover()
        .map_err(|e| format!("batched recover: {e}"))?;
    if rs.persistent_recovered != rb.persistent_recovered {
        return Err("recovery reports diverged".into());
    }
    if !rs.persistent_recovered {
        // WriteBack: both replicas agree the region is unrecoverable.
        return Ok(());
    }
    for block in &touched {
        let a = scalar
            .read(block.base())
            .map_err(|e| format!("scalar post-recovery read: {e}"))?;
        let b = batched
            .read(block.base())
            .map_err(|e| format!("batched post-recovery read: {e}"))?;
        if a != b {
            return Err(format!("post-recovery contents diverged at {block:?}"));
        }
    }
    Ok(())
}

fn run(name: &'static str, scheme: PersistScheme, policy: CounterPersistence) {
    check(name, Config::cases(250), |rng| {
        check_equivalence(scheme, policy, rng)
    });
}

const STRICT: CounterPersistence = CounterPersistence::Strict;
const OSIRIS: CounterPersistence = CounterPersistence::Osiris { interval: 4 };

#[test]
fn batched_equals_scalar_write_back() {
    run(
        "batched_equals_scalar_write_back",
        PersistScheme::WriteBack,
        STRICT,
    );
}

#[test]
fn batched_equals_scalar_triad1() {
    run(
        "batched_equals_scalar_triad1",
        PersistScheme::triad_nvm(1),
        STRICT,
    );
}

#[test]
fn batched_equals_scalar_triad3() {
    run(
        "batched_equals_scalar_triad3",
        PersistScheme::triad_nvm(3),
        STRICT,
    );
}

#[test]
fn batched_equals_scalar_strict() {
    run(
        "batched_equals_scalar_strict",
        PersistScheme::Strict,
        STRICT,
    );
}

// TriadNVM-1 persists no BMT level, so the builder rejects Osiris
// (its recovery oracle) there; WriteBack persists no metadata at all.
#[test]
fn batched_equals_scalar_triad2_osiris() {
    run(
        "batched_equals_scalar_triad2_osiris",
        PersistScheme::triad_nvm(2),
        OSIRIS,
    );
}

#[test]
fn batched_equals_scalar_strict_osiris() {
    run(
        "batched_equals_scalar_strict_osiris",
        PersistScheme::Strict,
        OSIRIS,
    );
}
