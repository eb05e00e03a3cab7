//! Property-based crash-consistency testing: arbitrary interleavings
//! of writes, persists, eviction pressure, crashes (including crashes
//! injected *inside* the atomic metadata-persist protocol) must always
//! recover to a verified state where every block reads a value that is
//!
//! 1. some value that was actually written to it (or zero), and
//! 2. at least as new as the last explicitly persisted value.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{run_history, Op};
use triad_nvm::core::{CounterPersistence, PersistScheme, SecureMemoryError};
use triad_nvm::kv::{DurabilityMode, KvError};
use triad_nvm::sim::prop::{check, check_ops, Config};
use triad_nvm::sim::rng::SplitMix64;
use triad_nvm::workloads::service::{
    generate_requests, service_crash_equivalence_check, KvMix, KvService, Request, Response,
    ServiceSpec,
};

/// Mirrors the old proptest weights — 4 Write : 3 Persist : 1 each for
/// Pressure / Crash / ArmCrash / BeginEpoch / EndEpoch.
fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.gen_range(0..12) {
        0..=3 => Op::Write {
            page: rng.gen_range(0..16) as u8,
        },
        4..=6 => Op::Persist {
            page: rng.gen_range(0..16) as u8,
        },
        7 => Op::Pressure {
            seed: rng.next_u32() as u8,
        },
        8 => Op::Crash,
        9 => Op::ArmCrash {
            n: rng.gen_range(0..24) as u8,
        },
        10 => Op::BeginEpoch,
        _ => Op::EndEpoch,
    }
}

#[test]
fn crash_consistency_holds_for_arbitrary_histories() {
    check_ops(
        "crash_consistency_holds_for_arbitrary_histories",
        Config::cases(24),
        |rng| {
            let len = rng.gen_range(1..120) as usize;
            (0..len).map(|_| gen_op(rng)).collect::<Vec<Op>>()
        },
        |ops, params| {
            let scheme_pick = params.gen_range(0..5) as u8;
            let scheme = match scheme_pick {
                0 => PersistScheme::triad_nvm(1),
                1 | 4 => PersistScheme::triad_nvm(2),
                2 => PersistScheme::triad_nvm(3),
                _ => PersistScheme::Strict,
            };
            // Variant 4 exercises the Osiris counter relaxation on top
            // of TriadNVM-2; it shares the same consistency contract.
            let counter_persistence = if scheme_pick == 4 {
                CounterPersistence::Osiris { interval: 3 }
            } else {
                CounterPersistence::Strict
            };
            run_history(ops, scheme, counter_persistence)
        },
    );
}

/// The triad-kv acceptance property, at group-commit granularity: a
/// seeded request schedule runs through the sharded [`KvService`]
/// front-end with a crash injected at *every* persist boundary of one
/// shard. Recovery (engine recovery + redo-log replay) must land on
/// exactly the pre- or post-group durable snapshot (a serial prefix of
/// flushed groups, nothing else), later batches must answer as in the
/// clean run, and the run must converge on the clean run's final
/// state — under every recoverable scheme.
///
/// `batch_len` is drawn from `1..8`, so one-mutation groups (a single
/// put or delete, the per-operation form of the property) are swept
/// alongside real groups; values reach 100 bytes, so entries span up
/// to three blocks. Each case runs the full boundary sweep under all
/// four schemes, so `TRIAD_PROP_CASES=100` exercises 100 schedules
/// *per scheme*. The default case count keeps the debug-mode CI run
/// cheap; the release acceptance sweep is recorded in `docs/kv.md`.
#[test]
fn service_crash_equivalence_holds_at_group_boundaries() {
    let schemes = [
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ];
    check(
        "service_crash_equivalence_holds_at_group_boundaries",
        Config::cases(2),
        |rng| {
            let batches = rng.gen_range(2..4) as usize;
            let batch_len = rng.gen_range(1..8) as usize;
            let seed = rng.next_u64();
            for scheme in schemes {
                let spec = ServiceSpec {
                    shards: 2,
                    scheme,
                    buckets: 16,
                    ..ServiceSpec::new(2)
                };
                service_crash_equivalence_check(&spec, batches, batch_len, seed)?;
            }
            Ok(())
        },
    );
}

/// The serving-layer determinism contract: threaded and
/// single-threaded execution of the same seeded schedule must be
/// byte-identical — responses, merged store and group-commit stats,
/// merged durable state, simulated makespan and total durability
/// points. This is what makes the threaded fleet a legitimate
/// subject for crash sweeps and report rows.
#[test]
fn service_threaded_and_serial_runs_are_identical() {
    check(
        "service_threaded_and_serial_runs_are_identical",
        Config::cases(3),
        |rng| {
            let spec = ServiceSpec {
                shards: 1 + rng.below(4),
                group_window: 1 + rng.below(8) as usize,
                buckets: 16,
                key_seed: rng.next_u64(),
                ..ServiceSpec::new(1)
            };
            let reqs =
                generate_requests(rng.next_u64(), 60, 48, (1, 64), None, KvMix::UPDATE_HEAVY);
            let mut threaded = KvService::create(&spec).map_err(|e| format!("create: {e}"))?;
            threaded.set_threaded(true);
            let rt = threaded
                .submit(&reqs)
                .map_err(|e| format!("threaded submit: {e}"))?;
            let mut serial = KvService::create(&spec).map_err(|e| format!("create: {e}"))?;
            serial.set_threaded(false);
            let rs = serial
                .submit(&reqs)
                .map_err(|e| format!("serial submit: {e}"))?;
            if rt != rs {
                return Err("responses differ between threaded and serial".into());
            }
            if threaded.merged_kv_stats() != serial.merged_kv_stats() {
                return Err("merged store stats differ".into());
            }
            if threaded.merged_group_stats() != serial.merged_group_stats() {
                return Err("merged group stats differ".into());
            }
            if threaded.total_persists() != serial.total_persists() {
                return Err("total persists differ".into());
            }
            if threaded.max_shard_time() != serial.max_shard_time() {
                return Err("simulated makespan differs".into());
            }
            let dt = threaded.dump().map_err(|e| format!("dump: {e}"))?;
            let ds = serial.dump().map_err(|e| format!("dump: {e}"))?;
            if dt != ds {
                return Err("merged durable state differs".into());
            }
            Ok(())
        },
    );
}

/// How many of a batch's requests are mutations (and so count toward
/// the acknowledged-mutation ledger once the batch's submit returns
/// `Ok`).
fn mutations_in(batch: &[Request]) -> u64 {
    batch
        .iter()
        .filter(|r| matches!(r, Request::Put { .. } | Request::Delete { .. }))
        .count() as u64
}

/// Invariant D3 (bounded loss) + D7 (honest reporting) for the
/// Buffered tier: a seeded single-shard schedule of puts, live-key
/// deletes and gets, served under `Buffered { flush_interval,
/// max_loss }`, replayed once per persist boundary with a crash armed
/// there. After every crash:
///
/// * the reported `mutations_lost` must not exceed `max_loss`,
/// * the recovered durable state must be an admit-order prefix of the
///   mutation sequence whose implied loss **equals** the reported
///   number (so the report is measured, not asserted).
///
/// Put values encode their admit index so prefixes are distinguishable;
/// deletes target live keys so every mutation changes the state. A
/// prefix that state-collides with another (delete returning to an
/// earlier map) is accepted through the any-consistent-prefix rule.
/// Returns the number of boundaries swept.
fn durability_buffered_check(
    max_loss: u64,
    flush_interval: u64,
    muts: usize,
    seed: u64,
) -> Result<u64, String> {
    const TENANT: u64 = 7;
    let spec = ServiceSpec {
        shards: 1,
        buckets: 16,
        log_blocks: 256,
        ..ServiceSpec::new(1)
    };
    let mode = DurabilityMode::Buffered {
        flush_interval,
        max_loss,
    };

    // Seeded schedule: ~1 get per 5 requests, deletes only of keys
    // still live, puts with globally unique values.
    let mut rng = SplitMix64::stream(seed, 0x6275_665f_7377_6570);
    let mut reqs: Vec<Request> = Vec::new();
    let mut live: Vec<u64> = Vec::new();
    let mut admitted = 0usize;
    while admitted < muts {
        if rng.below(5) == 0 {
            reqs.push(Request::Get { key: rng.below(12) });
            continue;
        }
        if !live.is_empty() && rng.below(4) == 0 {
            let key = live.swap_remove(rng.below(live.len() as u64) as usize);
            reqs.push(Request::Delete { key });
        } else {
            let key = rng.below(12);
            if !live.contains(&key) {
                live.push(key);
            }
            let i = admitted as u64;
            reqs.push(Request::Put {
                key,
                value: vec![(i >> 8) as u8, i as u8, key as u8, 0xB7],
            });
        }
        admitted += 1;
    }
    let batches: Vec<&[Request]> = reqs.chunks(3).collect();

    // Admit-order prefix snapshots: snaps[p] is the state after the
    // first p mutations.
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut snaps: Vec<BTreeMap<u64, Vec<u8>>> = vec![model.clone()];
    for req in &reqs {
        match req {
            Request::Put { key, value } => {
                model.insert(*key, value.clone());
                snaps.push(model.clone());
            }
            Request::Delete { key } => {
                model.remove(key);
                snaps.push(model.clone());
            }
            _ => {}
        }
    }

    // Clean run: verify read-your-writes through the DRAM backlog and
    // count the victim's persist boundaries.
    let mut svc = KvService::create(&spec).map_err(|e| format!("create: {e}"))?;
    svc.set_threaded(false);
    svc.set_tenant_mode(TENANT, mode);
    let persist_base = svc.shard_mem(0).map(|m| m.stats().persists).unwrap_or(0);
    let mut read_model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (b, batch) in batches.iter().enumerate() {
        let resps = svc
            .submit_as(TENANT, batch)
            .map_err(|e| format!("clean run, batch {b}: {e}"))?;
        for (req, resp) in batch.iter().zip(&resps) {
            match (req, resp) {
                (Request::Put { key, value }, Response::Done) => {
                    read_model.insert(*key, value.clone());
                }
                (Request::Delete { key }, Response::Done) => {
                    read_model.remove(key);
                }
                (Request::Get { key }, Response::Value(v)) => {
                    if v.as_ref() != read_model.get(key) {
                        return Err(format!(
                            "clean run, batch {b}: get({key}) does not read its own \
                             tier's writes"
                        ));
                    }
                }
                (rq, rs) => {
                    return Err(format!(
                        "clean run, batch {b}: unexpected response {rs:?} for {rq:?}"
                    ))
                }
            }
        }
    }
    let boundaries = svc.shard_mem(0).map(|m| m.stats().persists).unwrap_or(0) - persist_base;
    if boundaries == 0 {
        return Err("clean run never flushed; the sweep tested nothing".into());
    }

    for k in 0..boundaries {
        let mut svc = KvService::create(&spec).map_err(|e| format!("boundary {k}: create: {e}"))?;
        svc.set_threaded(false);
        svc.set_tenant_mode(TENANT, mode);
        if let Some(m) = svc.shard_mem_mut(0) {
            m.inject_crash_after_persists(k);
        }
        let mut acked = 0u64;
        let mut crashed = false;
        for (b, batch) in batches.iter().enumerate() {
            match svc.submit_as(TENANT, batch) {
                Ok(_) => acked += mutations_in(batch),
                Err(KvError::Memory(SecureMemoryError::NeedsRecovery)) => {
                    crashed = true;
                    let report = svc
                        .recover_shard(0)
                        .map_err(|e| format!("boundary {k}, batch {b}: recovery failed: {e}"))?;
                    if !report.persistent_recovered {
                        return Err(format!(
                            "boundary {k}, batch {b}: persistent region did not recover"
                        ));
                    }
                    let d = report
                        .durability
                        .ok_or(format!("boundary {k}, batch {b}: no durability report"))?;
                    // The report names the weakest tier that *acknowledged*
                    // mutations. A crash before any batch completed leaves
                    // no acknowledged tier, so the report truthfully falls
                    // back to the strict baseline with zero loss.
                    let (want_mode, want_bound) = if acked > 0 {
                        ("buffered", Some(max_loss))
                    } else {
                        ("strict", Some(0))
                    };
                    if d.mode != want_mode || d.loss_bound != want_bound {
                        return Err(format!(
                            "boundary {k}, batch {b}: report names tier {:?} bound {:?}, \
                             expected {want_mode:?} bound {want_bound:?}",
                            d.mode, d.loss_bound
                        ));
                    }
                    if d.mutations_lost > max_loss || !d.within_bound() {
                        return Err(format!(
                            "boundary {k}, batch {b}: lost {} acknowledged mutations, \
                             contract allows {max_loss}",
                            d.mutations_lost
                        ));
                    }
                    let state = svc
                        .dump()
                        .map_err(|e| format!("boundary {k}, batch {b}: dump: {e}"))?;
                    let consistent = snaps.iter().enumerate().any(|(p, s)| {
                        *s == state && acked.saturating_sub(p as u64) == d.mutations_lost
                    });
                    if !consistent {
                        return Err(format!(
                            "boundary {k}, batch {b}: recovered state is not an \
                             admit-order prefix consistent with the reported loss of {}",
                            d.mutations_lost
                        ));
                    }
                    break;
                }
                Err(e) => return Err(format!("boundary {k}, batch {b}: {e}")),
            }
        }
        if !crashed {
            return Err(format!("boundary {k}: armed crash never fired"));
        }
    }
    Ok(boundaries)
}

/// Invariant D5 (barrier floor) + D7 for the InMemory tier: a
/// puts-only schedule runs as barrier-terminated cycles; the only
/// persists are barrier promotions, so every armed crash lands inside
/// one. Recovery must land on the pre- or post-barrier snapshot of the
/// interrupted cycle, with the reported loss equal to the distinct
/// keys the interrupted promotion carried (pre) or zero (post).
/// Returns the number of boundaries swept.
fn durability_inmemory_check(cycles: usize, batch_len: usize, seed: u64) -> Result<u64, String> {
    const TENANT: u64 = 9;
    let spec = ServiceSpec {
        shards: 1,
        buckets: 16,
        log_blocks: 256,
        ..ServiceSpec::new(1)
    };
    let mut rng = SplitMix64::stream(seed, 0x696e_6d65_6d5f_6261);
    let schedule: Vec<Vec<Request>> = (0..cycles)
        .map(|c| {
            (0..batch_len)
                .map(|j| {
                    let i = (c * batch_len + j) as u64;
                    Request::Put {
                        key: rng.below(10),
                        value: vec![(i >> 8) as u8, i as u8, 0xAA],
                    }
                })
                .collect()
        })
        .collect();

    // Barrier-floor snapshots and the distinct keys each promotion
    // carries (duplicates within a cycle coalesce in the overlay).
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut floors: Vec<BTreeMap<u64, Vec<u8>>> = vec![model.clone()];
    let mut promoted: Vec<u64> = Vec::new();
    for batch in &schedule {
        let mut touched = BTreeSet::new();
        for req in batch {
            if let Request::Put { key, value } = req {
                model.insert(*key, value.clone());
                touched.insert(*key);
            }
        }
        floors.push(model.clone());
        promoted.push(touched.len() as u64);
    }

    let mut svc = KvService::create(&spec).map_err(|e| format!("create: {e}"))?;
    svc.set_threaded(false);
    svc.set_tenant_mode(TENANT, DurabilityMode::InMemory);
    let persist_base = svc.shard_mem(0).map(|m| m.stats().persists).unwrap_or(0);
    for (c, batch) in schedule.iter().enumerate() {
        svc.submit_as(TENANT, batch)
            .map_err(|e| format!("clean run, cycle {c}: {e}"))?;
        svc.barrier()
            .map_err(|e| format!("clean run, barrier {c}: {e}"))?;
    }
    let final_state = svc.dump().map_err(|e| format!("clean run: dump: {e}"))?;
    if final_state != model {
        return Err("clean run: barriers did not converge on the model".into());
    }
    let boundaries = svc.shard_mem(0).map(|m| m.stats().persists).unwrap_or(0) - persist_base;
    if boundaries == 0 {
        return Err("clean run never persisted; the sweep tested nothing".into());
    }

    for k in 0..boundaries {
        let mut svc = KvService::create(&spec).map_err(|e| format!("boundary {k}: create: {e}"))?;
        svc.set_threaded(false);
        svc.set_tenant_mode(TENANT, DurabilityMode::InMemory);
        if let Some(m) = svc.shard_mem_mut(0) {
            m.inject_crash_after_persists(k);
        }
        let mut crashed = false;
        for (c, batch) in schedule.iter().enumerate() {
            // Volatile staging never persists; the armed crash can only
            // fire inside the cycle's barrier promotion.
            svc.submit_as(TENANT, batch)
                .map_err(|e| format!("boundary {k}, cycle {c}: submit: {e}"))?;
            match svc.barrier() {
                Ok(()) => {}
                Err(KvError::Memory(SecureMemoryError::NeedsRecovery)) => {
                    crashed = true;
                    let report = svc
                        .recover_shard(0)
                        .map_err(|e| format!("boundary {k}, cycle {c}: recovery failed: {e}"))?;
                    let d = report
                        .durability
                        .ok_or(format!("boundary {k}, cycle {c}: no durability report"))?;
                    if d.mode != "in-memory" || d.loss_bound.is_some() || !d.within_bound() {
                        return Err(format!(
                            "boundary {k}, cycle {c}: report names tier {:?} bound {:?}",
                            d.mode, d.loss_bound
                        ));
                    }
                    let state = svc
                        .dump()
                        .map_err(|e| format!("boundary {k}, cycle {c}: dump: {e}"))?;
                    let pre = state == floors[c] && d.mutations_lost == promoted[c];
                    let post = state == floors[c + 1] && d.mutations_lost == 0;
                    if !pre && !post {
                        return Err(format!(
                            "boundary {k}, cycle {c}: recovered state is neither the \
                             pre- nor post-barrier floor with a matching loss of {}\n\
                             state: {state:?}\npre floor: {:?} (promoted {})\npost floor: {:?}",
                            d.mutations_lost,
                            floors[c],
                            promoted[c],
                            floors[c + 1]
                        ));
                    }
                    break;
                }
                Err(e) => return Err(format!("boundary {k}, cycle {c}: barrier: {e}")),
            }
        }
        if !crashed {
            return Err(format!("boundary {k}: armed crash never fired"));
        }
    }
    Ok(boundaries)
}

/// Invariant D1 (acknowledged ⇒ durable) + D7 for the Strict tier,
/// stated through the recovery report: whatever boundary the crash
/// lands on, the report must name the strict tier, a zero bound, and a
/// measured loss of zero — flushes inside the failed (unacknowledged)
/// batch never count against the contract. Returns the number of
/// boundaries swept.
fn durability_strict_check(batches: usize, batch_len: usize, seed: u64) -> Result<u64, String> {
    let spec = ServiceSpec {
        shards: 1,
        buckets: 16,
        log_blocks: 256,
        ..ServiceSpec::new(1)
    };
    let schedule: Vec<Vec<Request>> = (0..batches)
        .map(|b| {
            generate_requests(
                seed ^ (b as u64 + 1),
                batch_len,
                16,
                (1, 32),
                None,
                KvMix::UPDATE_HEAVY,
            )
        })
        .collect();

    let mut svc = KvService::create(&spec).map_err(|e| format!("create: {e}"))?;
    svc.set_threaded(false);
    let persist_base = svc.shard_mem(0).map(|m| m.stats().persists).unwrap_or(0);
    for (b, batch) in schedule.iter().enumerate() {
        svc.submit(batch)
            .map_err(|e| format!("clean run, batch {b}: {e}"))?;
    }
    let boundaries = svc.shard_mem(0).map(|m| m.stats().persists).unwrap_or(0) - persist_base;
    if boundaries == 0 {
        return Err("clean run never persisted; the sweep tested nothing".into());
    }

    for k in 0..boundaries {
        let mut svc = KvService::create(&spec).map_err(|e| format!("boundary {k}: create: {e}"))?;
        svc.set_threaded(false);
        if let Some(m) = svc.shard_mem_mut(0) {
            m.inject_crash_after_persists(k);
        }
        let mut crashed = false;
        for (b, batch) in schedule.iter().enumerate() {
            match svc.submit(batch) {
                Ok(_) => {}
                Err(KvError::Memory(SecureMemoryError::NeedsRecovery)) => {
                    crashed = true;
                    let report = svc
                        .recover_shard(0)
                        .map_err(|e| format!("boundary {k}, batch {b}: recovery failed: {e}"))?;
                    let d = report
                        .durability
                        .ok_or(format!("boundary {k}, batch {b}: no durability report"))?;
                    if d.mode != "strict" || d.loss_bound != Some(0) {
                        return Err(format!(
                            "boundary {k}, batch {b}: report names tier {:?} bound {:?}",
                            d.mode, d.loss_bound
                        ));
                    }
                    if d.mutations_lost != 0 {
                        return Err(format!(
                            "boundary {k}, batch {b}: strict tier reported {} lost \
                             acknowledged mutations",
                            d.mutations_lost
                        ));
                    }
                    break;
                }
                Err(e) => return Err(format!("boundary {k}, batch {b}: {e}")),
            }
        }
        if !crashed {
            return Err(format!("boundary {k}: armed crash never fired"));
        }
    }
    Ok(boundaries)
}

/// The Buffered tier's contract sweep (invariants D3/D4/D7). Half the
/// cases use a 1 ns flush interval so the group-fsync timer drives
/// flushes at run boundaries; the other half a ~17-minute interval so
/// only the `max_loss` counter flushes — the loss bound must hold
/// either way. The release CI sweep runs this at `TRIAD_PROP_CASES`
/// ≥ 100; `docs/durability-contract.md` records the acceptance run.
#[test]
fn durability_buffered_loss_stays_within_max_loss() {
    check(
        "durability_buffered_loss_stays_within_max_loss",
        Config::cases(3),
        |rng| {
            let max_loss = 1 + rng.below(6);
            let flush_interval = if rng.below(2) == 0 {
                1
            } else {
                1_000_000_000_000
            };
            let muts = (12 + rng.below(12)) as usize;
            durability_buffered_check(max_loss, flush_interval, muts, rng.next_u64())?;
            Ok(())
        },
    );
}

/// The InMemory tier's contract sweep (invariants D5/D7).
#[test]
fn durability_inmemory_recovers_to_the_last_barrier() {
    check(
        "durability_inmemory_recovers_to_the_last_barrier",
        Config::cases(3),
        |rng| {
            let cycles = (2 + rng.below(2)) as usize;
            let batch_len = (3 + rng.below(4)) as usize;
            durability_inmemory_check(cycles, batch_len, rng.next_u64())?;
            Ok(())
        },
    );
}

/// The Strict tier's report sweep (invariants D1/D7); state-level
/// crash equivalence for this tier is
/// [`service_crash_equivalence_holds_at_group_boundaries`].
#[test]
fn durability_strict_reports_zero_loss_at_every_boundary() {
    check(
        "durability_strict_reports_zero_loss_at_every_boundary",
        Config::cases(3),
        |rng| {
            let batches = (2 + rng.below(2)) as usize;
            let batch_len = (4 + rng.below(4)) as usize;
            durability_strict_check(batches, batch_len, rng.next_u64())?;
            Ok(())
        },
    );
}
