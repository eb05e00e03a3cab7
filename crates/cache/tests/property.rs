//! Model-based property tests: the set-associative cache against a
//! simple per-set reference model.

use std::collections::{BTreeMap, HashMap};
use triad_cache::{Cache, Replacement};
use triad_sim::config::CacheConfig;
use triad_sim::prop::{check, check_ops, Config};
use triad_sim::rng::SplitMix64;
use triad_sim::BlockAddr;

#[derive(Debug, Clone)]
enum Op {
    Access { addr: u64, write: bool },
    Flush { addr: u64 },
    Invalidate { addr: u64 },
}

fn gen_op(rng: &mut SplitMix64, addr_space: u64) -> Op {
    let addr = rng.gen_range(0..addr_space);
    match rng.gen_range(0..8) {
        0..=5 => Op::Access {
            addr,
            write: rng.gen_bool(0.5),
        },
        6 => Op::Flush { addr },
        _ => Op::Invalidate { addr },
    }
}

/// Reference model: per-set LRU list of (tag, dirty).
#[derive(Debug, Default, Clone)]
struct ModelSet {
    /// Most-recent last.
    lines: Vec<(u64, bool)>,
}

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

fn run_against_model(ops: &[Op], ways: usize) -> Result<(), String> {
    let sets = 4usize;
    let mut cache = Cache::new(
        "m",
        CacheConfig::new(sets * ways * 64, ways, 1),
        Replacement::Lru,
    );
    let mut model: HashMap<usize, ModelSet> = HashMap::new();

    for op in ops {
        match *op {
            Op::Access { addr, write } => {
                let out = cache.access(BlockAddr(addr), write);
                let set = model.entry(addr as usize % sets).or_default();
                let pos = set.lines.iter().position(|(t, _)| *t == addr);
                // Hit/miss agreement.
                ensure!(out.hit == pos.is_some(), "addr {addr}: hit disagreement");
                match pos {
                    Some(i) => {
                        let (t, d) = set.lines.remove(i);
                        set.lines.push((t, d || write));
                        ensure!(out.victim.is_none(), "addr {addr}: victim on a hit");
                    }
                    None => {
                        if set.lines.len() == ways {
                            let (vt, vd) = set.lines.remove(0);
                            let v = out.victim.ok_or("model expects a victim")?;
                            ensure!(v.addr == BlockAddr(vt), "victim addr {:?}", v.addr);
                            ensure!(v.dirty == vd, "victim dirty {}", v.dirty);
                        } else {
                            ensure!(out.victim.is_none(), "unexpected victim");
                        }
                        set.lines.push((addr, write));
                    }
                }
            }
            Op::Flush { addr } => {
                let flushed = cache.flush(BlockAddr(addr));
                let set = model.entry(addr as usize % sets).or_default();
                let model_flushed = set
                    .lines
                    .iter_mut()
                    .find(|(t, d)| *t == addr && *d)
                    .map(|entry| {
                        entry.1 = false;
                    })
                    .is_some();
                ensure!(flushed == model_flushed, "flush {addr} disagreement");
            }
            Op::Invalidate { addr } => {
                let inv = cache.invalidate(BlockAddr(addr));
                let set = model.entry(addr as usize % sets).or_default();
                let pos = set.lines.iter().position(|(t, _)| *t == addr);
                match pos {
                    Some(i) => {
                        let (_, d) = set.lines.remove(i);
                        ensure!(inv == Some(d), "invalidate {addr} dirty bit");
                    }
                    None => ensure!(inv.is_none(), "invalidate {addr} phantom line"),
                }
            }
        }
        // Global invariants after every step.
        let model_occupancy: usize = model.values().map(|s| s.lines.len()).sum();
        ensure!(
            cache.occupancy() == model_occupancy,
            "occupancy {} vs model {model_occupancy}",
            cache.occupancy()
        );
        let mut model_dirty: Vec<u64> = model
            .values()
            .flat_map(|s| s.lines.iter().filter(|(_, d)| *d).map(|(t, _)| *t))
            .collect();
        model_dirty.sort_unstable();
        let mut cache_dirty: Vec<u64> = cache.dirty_blocks().iter().map(|b| b.0).collect();
        cache_dirty.sort_unstable();
        ensure!(
            cache_dirty == model_dirty,
            "dirty sets diverged: {cache_dirty:?} vs {model_dirty:?}"
        );
    }
    Ok(())
}

#[test]
fn lru_cache_matches_reference_model() {
    check_ops(
        "lru_cache_matches_reference_model",
        Config::cases(64),
        |rng| {
            let len = rng.gen_range(1..400) as usize;
            (0..len).map(|_| gen_op(rng, 64)).collect::<Vec<Op>>()
        },
        |ops, params| {
            let ways = params.gen_range(1..4) as usize;
            run_against_model(ops, ways)
        },
    );
}

#[test]
fn occupancy_never_exceeds_capacity() {
    check(
        "occupancy_never_exceeds_capacity",
        Config::cases(64),
        |rng| {
            let len = rng.gen_range(1..500);
            let mut cache = Cache::new("c", CacheConfig::new(16 * 64, 4, 1), Replacement::Lru);
            for _ in 0..len {
                let a = rng.gen_range(0..10_000);
                cache.access(BlockAddr(a), a % 3 == 0);
                ensure!(cache.occupancy() <= 16, "occupancy {}", cache.occupancy());
            }
            Ok(())
        },
    );
}

#[test]
fn every_dirty_block_was_written() {
    check("every_dirty_block_was_written", Config::cases(64), |rng| {
        let len = rng.gen_range(1..300);
        let mut cache = Cache::new("d", CacheConfig::new(8 * 64, 2, 1), Replacement::Lru);
        let mut written = std::collections::HashSet::new();
        for _ in 0..len {
            let addr = rng.gen_range(0..128);
            let write = rng.gen_bool(0.5);
            cache.access(BlockAddr(addr), write);
            if write {
                written.insert(addr);
            }
        }
        for b in cache.dirty_blocks() {
            ensure!(written.contains(&b.0), "dirty block {} never written", b.0);
        }
        Ok(())
    });
}

#[derive(Debug, Clone)]
enum ValueOp {
    /// `access_value`, then store `store` into the line if given.
    Access {
        addr: u64,
        write: bool,
        store: Option<u32>,
    },
    /// Hit-only `touch`.
    Touch {
        addr: u64,
        write: bool,
    },
    Invalidate {
        addr: u64,
    },
    LoseAll,
}

fn gen_value_op(rng: &mut SplitMix64, addr_space: u64) -> ValueOp {
    let addr = rng.gen_range(0..addr_space);
    let write = rng.gen_bool(0.5);
    match rng.gen_range(0..32) {
        0..=21 => ValueOp::Access {
            addr,
            write,
            store: rng.gen_bool(0.7).then(|| rng.next_u32() | 1),
        },
        22..=27 => ValueOp::Touch { addr, write },
        28..=30 => ValueOp::Invalidate { addr },
        _ => ValueOp::LoseAll,
    }
}

/// A value-holding cache against a `BTreeMap` of resident values plus a
/// per-set replacement model: per set, (tag, dirty) in eviction order
/// (next victim first) for LRU and FIFO; for Random the model only
/// requires the victim to be a resident line of the full set.
fn run_values_against_model(
    ops: &[ValueOp],
    sets: usize,
    ways: usize,
    policy: Replacement,
) -> Result<(), String> {
    const EMPTY: u32 = 0;
    let mut cache = Cache::with_values(
        "v",
        CacheConfig::new(sets * ways * 64, ways, 1),
        policy,
        EMPTY,
    );
    let mut values: BTreeMap<u64, u32> = BTreeMap::new();
    let mut order: Vec<Vec<(u64, bool)>> = vec![Vec::new(); sets];
    for op in ops {
        match *op {
            ValueOp::Access { addr, write, store } => {
                let set = &mut order[addr as usize % sets];
                let predicted = cache.would_evict(BlockAddr(addr)).map(|(a, &v)| (a, v));
                let fill = cache.access_value(BlockAddr(addr), write);
                match set.iter().position(|(t, _)| *t == addr) {
                    Some(i) => {
                        ensure!(fill.hit, "{policy:?}: addr {addr} missed while resident");
                        ensure!(fill.victim.is_none(), "{policy:?}: victim on a hit");
                        ensure!(predicted.is_none(), "{policy:?}: predicted victim on a hit");
                        ensure!(
                            *fill.value == values[&addr],
                            "{policy:?}: hit on {addr} returned {} not {}",
                            fill.value,
                            values[&addr]
                        );
                        set[i].1 |= write;
                        if policy == Replacement::Lru {
                            let line = set.remove(i);
                            set.push(line);
                        }
                    }
                    None => {
                        ensure!(!fill.hit, "{policy:?}: addr {addr} hit while absent");
                        ensure!(
                            *fill.value == EMPTY,
                            "{policy:?}: new line {addr} holds {} not the empty value",
                            fill.value
                        );
                        let victim = fill.victim.map(|v| (v.addr, v.dirty, v.value));
                        if set.len() == ways {
                            let (va, vd, vv) = victim.ok_or("full set evicted nothing")?;
                            let i = match policy {
                                Replacement::Lru | Replacement::Fifo => 0,
                                Replacement::Random => set
                                    .iter()
                                    .position(|(t, _)| BlockAddr(*t) == va)
                                    .ok_or(format!("random victim {va} was not resident"))?,
                            };
                            let (vt, dirty) = set.remove(i);
                            ensure!(va == BlockAddr(vt), "{policy:?}: victim {va}, model {vt}");
                            ensure!(vd == dirty, "{policy:?}: victim {vt} dirty {vd}");
                            let model = values.remove(&vt).ok_or("victim has no model value")?;
                            ensure!(
                                vv == model,
                                "{policy:?}: victim {vt} carried {vv} not {model}"
                            );
                            ensure!(
                                predicted == Some((va, vv)),
                                "{policy:?}: would_evict said {predicted:?}, access evicted {va}"
                            );
                        } else {
                            ensure!(victim.is_none(), "{policy:?}: victim from a set with room");
                            ensure!(predicted.is_none(), "{policy:?}: predicted a victim");
                        }
                        set.push((addr, write));
                        values.insert(addr, EMPTY);
                    }
                }
                if let Some(v) = store {
                    *fill.value = v;
                    values.insert(addr, v);
                }
            }
            ValueOp::Touch { addr, write } => {
                let set = &mut order[addr as usize % sets];
                let got = cache.touch(BlockAddr(addr), write).map(|v| *v);
                match set.iter().position(|(t, _)| *t == addr) {
                    Some(i) => {
                        ensure!(
                            got == Some(values[&addr]),
                            "{policy:?}: touch {addr} gave {got:?}"
                        );
                        set[i].1 |= write;
                        if policy == Replacement::Lru {
                            let line = set.remove(i);
                            set.push(line);
                        }
                    }
                    None => ensure!(got.is_none(), "{policy:?}: touch {addr} found a phantom"),
                }
            }
            ValueOp::Invalidate { addr } => {
                let set = &mut order[addr as usize % sets];
                let inv = cache.invalidate(BlockAddr(addr));
                match set.iter().position(|(t, _)| *t == addr) {
                    Some(i) => {
                        let (_, dirty) = set.remove(i);
                        values.remove(&addr);
                        ensure!(
                            inv == Some(dirty),
                            "{policy:?}: invalidate {addr} dirty bit"
                        );
                    }
                    None => ensure!(inv.is_none(), "{policy:?}: invalidate {addr} phantom"),
                }
                ensure!(
                    cache.value(BlockAddr(addr)).is_none(),
                    "value survived invalidate"
                );
            }
            ValueOp::LoseAll => {
                cache.lose_all();
                values.clear();
                order.iter_mut().for_each(Vec::clear);
                ensure!(cache.occupancy() == 0, "lines survived lose_all");
            }
        }
        // Every resident value, and nothing else, is readable.
        for addr in 0..64u64 {
            let got = cache.value(BlockAddr(addr)).copied();
            ensure!(
                got == values.get(&addr).copied(),
                "{policy:?}: value({addr}) = {got:?}, model {:?}",
                values.get(&addr)
            );
            let dirty = order[addr as usize % sets]
                .iter()
                .any(|&(t, d)| t == addr && d);
            ensure!(
                cache.dirty_value(BlockAddr(addr)).is_some() == dirty,
                "{policy:?}: dirty_value({addr}) disagrees"
            );
        }
    }
    Ok(())
}

#[test]
fn value_cache_matches_reference_model() {
    check_ops(
        "value_cache_matches_reference_model",
        Config::cases(48),
        |rng| {
            let len = rng.gen_range(1..400) as usize;
            (0..len)
                .map(|_| gen_value_op(rng, 64))
                .collect::<Vec<ValueOp>>()
        },
        |ops, params| {
            let ways = params.gen_range(1..5) as usize;
            // A power-of-two set count and one that is not.
            for sets in [4, 3] {
                for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
                    run_values_against_model(ops, sets, ways, policy)?;
                }
            }
            Ok(())
        },
    );
}
