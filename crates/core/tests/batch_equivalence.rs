//! Batched/scalar equivalence property: replaying the same seeded
//! history of persist batches through `apply_batch` and through a
//! member-by-member `persist_block` loop must be observationally
//! identical — byte-identical NVM image (data, counters, MACs and BMT
//! nodes), identical persistent BMT root, and identical post-crash
//! recovery — under every scheme, with strict counters and with the
//! Osiris counter relaxation. The batch pipeline (prefetch planning,
//! deferred path hashing, coalesced metadata commit) is a performance
//! transformation only.
//!
//! Every history runs twice: as drawn, on the default configuration,
//! and again on a configuration with tiny counter and MT caches, where
//! some batches crash at a member (the hook armed on both replicas).
//! The tiny caches evict unhashed counters and path nodes mid-batch,
//! and the member crashes leave deferred hashes at the crash; both
//! must settle to exactly the scalar walk's bytes.
//!
//! Six (scheme, counter policy) tests × 250 default cases = 1500
//! seeded histories; `TRIAD_PROP_CASES` rescales each test as usual.

use std::collections::BTreeMap;

use triad_core::{
    CounterPersistence, PersistScheme, SecureMemory, SecureMemoryBuilder, SecureMemoryError,
    WriteBatch,
};
use triad_meta::layout::RegionKind;
use triad_sim::config::{CacheConfig, SystemConfig};
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

/// The second run of every history: tiny counter and MT caches, and
/// member crashes.
struct Variant {
    /// Per event, the member a `Batch` crashes at (both replicas).
    crash_at: Vec<Option<usize>>,
}

impl Variant {
    /// Draws member crashes for `history` from a stream derived from
    /// the case's key seed, so the history's own draws stay as they
    /// were.
    fn draw(history: &[Event], key_seed: u64, allow_crash: bool) -> Self {
        let mut rng = SplitMix64::new(key_seed ^ 0x7A11_C0DE);
        let crash_at = history
            .iter()
            .map(|event| match event {
                Event::Batch(members) if allow_crash && rng.gen_bool(0.2) => {
                    Some(rng.gen_range(0..members.len() as u64) as usize)
                }
                _ => None,
            })
            .collect();
        Variant { crash_at }
    }
}

/// The default configuration with 4-line counter and 8-line MT caches.
fn tiny_caches() -> SystemConfig {
    let mut config = SystemConfig::tiny();
    config.security.counter_cache = CacheConfig::new(4 * 64, 2, 3);
    config.security.mt_cache = CacheConfig::new(8 * 64, 2, 3);
    config
}

fn build(
    scheme: PersistScheme,
    policy: CounterPersistence,
    key_seed: u64,
    variant: Option<&Variant>,
) -> SecureMemory {
    let builder = SecureMemoryBuilder::new();
    let builder = match variant {
        Some(_) => builder.config(tiny_caches()),
        None => builder,
    };
    builder
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
    let base = build(scheme, policy, key_seed, None)
        .persistent_region()
        .start();
    // WriteBack deliberately cannot recover the persistent region, so a
    // mid-history crash poisons every later persist on both sides;
    // keep its histories crash-free and let the final cycle below
    // check that both replicas poison identically.
    let allow_crash = scheme.persists_metadata();
    let history = gen_history(rng, base, allow_crash);
    replay(scheme, policy, key_seed, &history, None)?;
    let variant = Variant::draw(&history, key_seed, allow_crash);
    replay(scheme, policy, key_seed, &history, Some(&variant))
        .map_err(|e| format!("tiny caches, member crashes: {e}"))
}

/// Replays `history` on a scalar and a batched replica and compares
/// them.
fn replay(
    scheme: PersistScheme,
    policy: CounterPersistence,
    key_seed: u64,
    history: &[Event],
    variant: Option<&Variant>,
) -> Result<(), String> {
    let mut scalar = build(scheme, policy, key_seed, variant);
    let mut batched = build(scheme, policy, key_seed, variant);
    let mut touched: Vec<BlockAddr> = Vec::new();
    let (mut ts, mut tb) = (Time::ZERO, Time::ZERO);
    // The scalar path counts a persist before its crash point and the
    // batched path after it, so each member crash leaves the scalar
    // count one ahead.
    let mut member_crashes = 0;
    for (e, event) in history.iter().enumerate() {
        match event {
            Event::Batch(members) => {
                let crash_at = variant.and_then(|v| v.crash_at[e]);
                if let Some(n) = crash_at {
                    scalar.inject_crash_after_persists(n as u64);
                    batched.inject_crash_after_persists(n as u64);
                }
                let mut scalar_crashed = false;
                for (block, data) in members {
                    if !touched.contains(block) {
                        touched.push(*block);
                    }
                    match scalar.persist_block(*block, *data, ts) {
                        Ok(t) => ts = t,
                        Err(SecureMemoryError::NeedsRecovery) if crash_at.is_some() => {
                            scalar_crashed = true;
                            break;
                        }
                        Err(e) => return Err(format!("scalar persist: {e}")),
                    }
                }
                let mut batch = WriteBatch::new();
                for (block, data) in members {
                    batch.push(*block, *data);
                }
                let batched_crashed = match batched.persist_batch(&batch, tb) {
                    Ok(t) => {
                        tb = t;
                        false
                    }
                    Err(SecureMemoryError::NeedsRecovery) if crash_at.is_some() => true,
                    Err(e) => return Err(format!("batched persist: {e}")),
                };
                if scalar_crashed != batched_crashed || scalar_crashed != crash_at.is_some() {
                    return Err(format!(
                        "member crash at {crash_at:?}: scalar crashed {scalar_crashed}, \
                         batched crashed {batched_crashed}"
                    ));
                }
                if scalar_crashed {
                    member_crashes += 1;
                    scalar
                        .recover()
                        .map_err(|e| format!("scalar recover: {e}"))?;
                    batched
                        .recover()
                        .map_err(|e| format!("batched recover: {e}"))?;
                }
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
    if scalar.stats().persists != batched.stats().persists + member_crashes {
        return Err(format!(
            "durability-point counts diverged: scalar {} vs batched {} after {member_crashes} \
             member crashes",
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
