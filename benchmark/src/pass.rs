//! One pass of a workload: set up the program, run the timed phase,
//! then crash, recover and check everything against the oracle.
//!
//! Every simulated number a pass produces is a pure function of the
//! workload and seed, so every pass of a run must report the same
//! [`Sim`] and the same simulated per-layer counts; only host times
//! differ between passes.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use triad_core::{PersistScheme, SecureMemoryBuilder, System};
use triad_sim::config::SystemConfig;
use triad_sim::{Histogram, StatRegistry, Time};
use triad_workloads::service::{
    AdmissionPolicy, DurabilityMode, KvService, Request, Response, ServiceSpec,
};
use triad_workloads::{build_workload, WorkloadEnv};

use crate::inputs::{KvInputs, BUFFERED, PRELOAD_BATCH, STRICT};
use crate::layers::{self, LayerInputs};
use crate::measure::{ratio, Delta, Latencies};
use crate::span::Tracer;

/// The simulated, deterministic outcome of a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    /// Every request or memory op the client issued (preload included).
    pub attempted: u64,
    /// Failed at submit, read back wrong, or lost after recovery.
    pub failed: u64,
    /// Timed-phase ops (the latency samples) and the completed ones.
    pub timed: u64,
    pub timed_completed: u64,
    /// Latency over timed ops, in µs.
    pub p50_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
    /// Samples ranked above the p99 rank.
    pub beyond_p99: u64,
    /// Per durability tier (KV workloads), over timed requests.
    pub strict: Option<Tier>,
    pub buffered: Option<Tier>,
    pub sim_kops_per_s: f64,
    pub nvm_writes_per_op: f64,
    /// Gets of keys a failed batch left unknown to the oracle.
    pub unverified_gets: u64,
    /// Where the failures came from: requests of failed submits (ops a
    /// failed run never issued), gets that returned a wrong value,
    /// acknowledged writes missing or unreadable after recovery.
    pub failed_when_issued: u64,
    pub wrong_reads: u64,
    pub lost_after_recovery: u64,
    /// Simulated per-layer metrics of the timed phase.
    pub layers: BTreeMap<&'static str, f64>,
    /// Benchmark self-checks that failed (accounting identities).
    pub check_failures: Vec<String>,
}

impl Sim {
    /// The accounting identities every pass must satisfy.
    pub fn accounting_problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let timed_failed = self.timed - self.timed_completed;
        if self.timed_completed > self.timed
            || self.failed < timed_failed
            || self.failed - timed_failed > self.attempted - self.timed
        {
            out.push(format!(
                "completed + failed != attempted: attempted {} (timed {}), timed completed {}, failed {}",
                self.attempted, self.timed, self.timed_completed, self.failed
            ));
        }
        let tiers: Vec<&Tier> = [&self.strict, &self.buffered]
            .into_iter()
            .flatten()
            .collect();
        for t in &tiers {
            if t.completed + t.failed != t.attempted {
                out.push(format!("tier completed + failed != attempted: {t:?}"));
            }
        }
        if !tiers.is_empty() {
            let (att, failed) = tiers
                .iter()
                .fold((0, 0), |(a, f), t| (a + t.attempted, f + t.failed));
            if att != self.timed || failed != timed_failed {
                out.push(format!(
                    "tiers hold {att} requests and {failed} failures, the run {} and {timed_failed}",
                    self.timed
                ));
            }
        }
        if self.beyond_p99 < 10 {
            out.push(format!(
                "p99 has only {} samples beyond it",
                self.beyond_p99
            ));
        }
        out
    }
}

/// One durability tier's share of the timed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tier {
    pub p99_us: f64,
    pub attempted: u64,
    pub completed: u64,
    /// Counted from the failure marks, apart from `completed`.
    pub failed: u64,
}

/// A pass: simulated outcome plus its two host times.
#[derive(Debug, Clone)]
pub struct Pass {
    pub sim: Sim,
    pub setup_s: f64,
    pub timed_s: f64,
    /// Block addresses the workload wrote most, for the host probes.
    pub hot_blocks: Vec<u64>,
    /// Mean host µs per timed `submit_as` span (traced KV passes).
    pub submit_host_us: Option<f64>,
}

/// `triad-report`'s machine: `SystemConfig::tiny()` with 4 cores and
/// 16 MiB of NVM.
pub fn report_config() -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 4;
    cfg.mem.capacity_bytes = 16 << 20;
    cfg
}

/// Hash buckets per shard store. 8192 keys per shard keep the chains
/// about 8 entries long, so a cold get fetches a few counter blocks
/// rather than walking a long chain.
const BUCKETS: u64 = 1024;

/// Two shards, group window 8, Open admission, TriadNVM-2.
pub fn service_spec(seed: u64) -> ServiceSpec {
    ServiceSpec {
        shards: 2,
        group_window: 8,
        admission: AdmissionPolicy::Open,
        scheme: PersistScheme::triad_nvm(2),
        buckets: BUCKETS,
        key_seed: seed,
        config: Some(report_config()),
        ..ServiceSpec::new(2)
    }
}

/// The simulated per-layer metrics only the KV workloads produce.
const SERVICE_AND_KV_LAYERS: [&str; 5] = [
    "service.mutations_per_flush",
    "service.markers_per_mutation",
    "service.lane_imbalance",
    "kv.log_records_per_mutation",
    "kv.replay_txns",
];

/// Which request wrote the value the oracle holds for a key.
#[derive(Debug, Clone, Copy)]
struct Writer(usize);

/// The client's in-DRAM view of what the service must hold.
#[derive(Debug, Default)]
struct Oracle {
    values: BTreeMap<u64, (Vec<u8>, Writer)>,
    /// Keys a failed batch touched: unknown until rewritten.
    unknown: BTreeSet<u64>,
}

fn key_of(req: &Request) -> Option<u64> {
    match req {
        Request::Put { key, .. } | Request::Get { key } | Request::Delete { key } => Some(*key),
        Request::Scan => None,
    }
}

impl Oracle {
    /// Applies one submit's outcome; requests are numbered from
    /// `first`. Returns the indices of requests that failed and the
    /// number of gets it could not verify.
    fn apply(
        &mut self,
        first: usize,
        reqs: &[Request],
        result: &Result<Vec<Response>, impl std::fmt::Debug>,
    ) -> (Vec<usize>, u64) {
        let mut failed = Vec::new();
        let mut unverified = 0;
        let resps = match result {
            Ok(r) => r,
            Err(_) => {
                for (i, req) in reqs.iter().enumerate() {
                    failed.push(first + i);
                    if let Some(key) = key_of(req) {
                        if !matches!(req, Request::Get { .. }) {
                            self.values.remove(&key);
                            self.unknown.insert(key);
                        }
                    }
                }
                return (failed, 0);
            }
        };
        for (i, (req, resp)) in reqs.iter().zip(resps).enumerate() {
            let idx = first + i;
            match (req, resp) {
                (Request::Put { key, value }, Response::Done) => {
                    self.values.insert(*key, (value.clone(), Writer(idx)));
                    self.unknown.remove(key);
                }
                (Request::Get { key }, Response::Value(got)) => {
                    if self.unknown.contains(key) {
                        unverified += 1;
                    } else if got.as_ref() != self.values.get(key).map(|(v, _)| v) {
                        failed.push(idx);
                    }
                }
                _ => failed.push(idx),
            }
        }
        (failed, unverified)
    }
}

fn shard_clocks(svc: &KvService) -> Vec<Time> {
    (0..svc.shard_count())
        .map(|i| svc.shard_mem(i).expect("shard in range").now())
        .collect()
}

fn shard_registries(svc: &KvService) -> Vec<StatRegistry> {
    (0..svc.shard_count())
        .map(|i| svc.shard_mem(i).expect("shard in range").stat_registry())
        .collect()
}

/// A KV service after set-up, with the client's view of it.
struct KvSetup {
    svc: KvService,
    oracle: Oracle,
    /// Per-request failure marks over the whole pass (preload + timed).
    fails: Vec<bool>,
    /// Mutations in submits that succeeded / failed.
    mutations_ok: u64,
    mutations_in_failed: u64,
    failed_when_issued: u64,
    /// The last batch id used.
    batch_id: u64,
}

/// Set-up: build the engines, create the stores, preload.
fn kv_setup(inp: &KvInputs, seed: u64, tracer: &mut Tracer) -> Result<KvSetup, String> {
    let spec = service_spec(seed);
    let mut svc = tracer
        .call("KvService::create", 0, || KvService::create(&spec))
        .map_err(|e| format!("KvService::create failed: {e:?}"))?;
    svc.set_threaded(false);
    svc.set_tenant_mode(STRICT, DurabilityMode::Strict);
    svc.set_tenant_mode(BUFFERED, DurabilityMode::buffered_default());
    let mut s = KvSetup {
        svc,
        oracle: Oracle::default(),
        fails: vec![false; inp.preload.len() + inp.timed_requests()],
        mutations_ok: 0,
        mutations_in_failed: 0,
        failed_when_issued: 0,
        batch_id: 0,
    };
    for (c, chunk) in inp.preload.chunks(PRELOAD_BATCH).enumerate() {
        s.batch_id += 1;
        let svc = &mut s.svc;
        let r = tracer.call("KvService::submit_as", s.batch_id, || {
            svc.submit_as(STRICT, chunk)
        });
        count_mutations(
            chunk,
            r.is_ok(),
            &mut s.mutations_ok,
            &mut s.mutations_in_failed,
        );
        let (failed, _) = s.oracle.apply(c * PRELOAD_BATCH, chunk, &r);
        s.failed_when_issued += failed.len() as u64;
        failed.into_iter().for_each(|i| s.fails[i] = true);
    }
    Ok(s)
}

/// Host seconds of one set-up alone (the state it builds is dropped
/// untimed): extra `setup_s` samples for a steadier median.
pub fn setup_only(inp: Option<&KvInputs>, seed: u64) -> Result<f64, String> {
    fn timed<T>(build: impl FnOnce() -> Result<T, String>) -> Result<f64, String> {
        let t = Instant::now();
        let built = build()?;
        let secs = t.elapsed().as_secs_f64();
        drop(built);
        Ok(secs)
    }
    let mut tracer = Tracer::new(false);
    match inp {
        Some(kv) => timed(|| kv_setup(kv, seed, &mut tracer)),
        None => timed(|| mix_setup(seed, &mut tracer)),
    }
}

/// One pass of a KV workload on a fresh two-shard service.
pub fn kv_pass(inp: &KvInputs, seed: u64, tracer: &mut Tracer) -> Result<Pass, String> {
    let pass_span = tracer.begin_pass();
    let t_setup = Instant::now();
    let KvSetup {
        mut svc,
        mut oracle,
        mut fails,
        mut mutations_ok,
        mut mutations_in_failed,
        mut failed_when_issued,
        mut batch_id,
    } = kv_setup(inp, seed, tracer)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let total = fails.len();
    let (mut unverified_gets, mut wrong_reads) = (0, 0);

    // Timed phase: only the submits and the shard clock reads.
    let regs0 = shard_registries(&svc);
    let groups0 = svc.merged_group_stats();
    let kv0 = svc.merged_kv_stats();
    let clock0 = shard_clocks(&svc);
    let first_timed_batch = batch_id + 1;
    let mut results = Vec::with_capacity(inp.batches.len());
    let mut clocks = Vec::with_capacity(inp.batches.len());
    let t_timed = Instant::now();
    for (tenant, reqs) in &inp.batches {
        batch_id += 1;
        let r = tracer.call("KvService::submit_as", batch_id, || {
            svc.submit_as(*tenant, reqs)
        });
        results.push(r);
        clocks.push(shard_clocks(&svc));
    }
    let timed_s = t_timed.elapsed().as_secs_f64();
    let regs1 = shard_registries(&svc);
    let groups1 = svc.merged_group_stats();
    let kv1 = svc.merged_kv_stats();

    // Latencies and oracle checks, in submit order. Timed request `j`
    // is request `first + j` of the pass.
    let first = inp.preload.len();
    let mut latency = Latencies::default();
    let mut is_buffered = Vec::with_capacity(total - first);
    let mut imbalance = Vec::new();
    let mut idx = first;
    let mut before = clock0.clone();
    for ((tenant, reqs), (r, after)) in inp.batches.iter().zip(results.iter().zip(&clocks)) {
        count_mutations(reqs, r.is_ok(), &mut mutations_ok, &mut mutations_in_failed);
        let adv: Vec<u64> = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.since(*b).as_ns())
            .collect();
        let mean = adv.iter().sum::<u64>() as f64 / adv.len() as f64;
        if mean > 0.0 {
            imbalance.push(*adv.iter().max().expect("two shards") as f64 / mean);
        }
        for req in reqs {
            latency.push(key_of(req).map_or(0, |k| adv[svc.route(k)]));
            is_buffered.push(*tenant == BUFFERED);
        }
        let (failed, unverified) = oracle.apply(idx, reqs, r);
        unverified_gets += unverified;
        if r.is_err() {
            failed_when_issued += reqs.len() as u64;
        } else {
            wrong_reads += failed.len() as u64;
        }
        failed.into_iter().for_each(|i| fails[i] = true);
        idx += reqs.len();
        before = after.clone();
    }

    // End of run: make every tier durable, crash every shard, recover,
    // and read the whole state back.
    let barrier = tracer.call("KvService::barrier", 0, || svc.barrier());
    let groups_end = svc.merged_group_stats();
    let mut recovery_ns = 0u64;
    let mut recovery_blocks = 0u64;
    let mut replay_txns = 0u64;
    for i in 0..svc.shard_count() {
        tracer.call("SecureMemory::crash", 0, || {
            svc.shard_mem_mut(i).expect("shard in range").crash()
        });
        match tracer.call("KvService::recover_shard", 0, || svc.recover_shard(i)) {
            Ok(rep) => {
                recovery_ns = recovery_ns.max(rep.estimated_duration.as_ns());
                recovery_blocks += rep.persistent_blocks_read + rep.non_persistent_blocks_read;
                replay_txns += rep.log_replay.map_or(0, |l| l.txns_applied);
            }
            Err(e) => eprintln!("recover_shard({i}) failed: {e:?}"),
        }
    }
    let hot_blocks = if tracer.enabled() {
        svc.shard_mem(0)
            .expect("shard 0")
            .wear()
            .hottest(64)
            .into_iter()
            .map(|(b, _)| b.0)
            .collect()
    } else {
        Vec::new()
    };
    let lost = read_back(&mut svc, &oracle, tracer);
    let lost_after_recovery = lost.len() as u64;
    for w in &lost {
        fails[w.0] = true;
    }
    tracer.end_pass(pass_span);

    // Failed requests rank above every completed one.
    let mut tier_failed = [0u64; 2];
    for (j, &buf) in is_buffered.iter().enumerate() {
        if fails[first + j] {
            latency.fail(j);
            tier_failed[buf as usize] += 1;
        }
    }
    let strict = latency.select(|j| !is_buffered[j]);
    let buffered = latency.select(|j| is_buffered[j]);

    let mut check_failures = Vec::new();
    let flushed = groups_end.ops;
    if mutations_in_failed == 0 && barrier.is_ok() {
        if flushed != mutations_ok {
            check_failures.push(format!(
                "admitted mutations {mutations_ok} != GroupStats::ops {flushed}"
            ));
        }
    } else if !(mutations_ok..=mutations_ok + mutations_in_failed).contains(&flushed) {
        // A failed submit may have flushed part of its batch.
        check_failures.push(format!(
            "GroupStats::ops {flushed} outside admitted range {mutations_ok}..={}",
            mutations_ok + mutations_in_failed
        ));
    }
    if let Err(e) = &barrier {
        eprintln!("barrier failed: {e:?}");
    }

    let timed = latency.len() as u64;
    let timed_completed = latency.completed() as u64;
    let makespan = clocks.last().map_or(0, |last| {
        last.iter()
            .zip(&clock0)
            .map(|(a, b)| a.since(*b).as_ns())
            .max()
            .unwrap_or(0)
    });
    let mut delta = Delta::default();
    for (b, a) in regs0.iter().zip(&regs1) {
        delta.add(b, a);
    }
    let mut layer_map = layers::simulated(&LayerInputs {
        ops: timed as f64,
        delta: &delta,
        wear_max_writes: regs1
            .iter()
            .map(|r| r.counter("wear.max_writes"))
            .max()
            .unwrap_or(0),
        recovery_blocks_read: recovery_blocks,
    });
    let muts = (groups1.ops - groups0.ops) as f64;
    for (name, value) in [
        (
            "service.mutations_per_flush",
            ratio(muts, (groups1.flushes - groups0.flushes) as f64),
        ),
        (
            "service.markers_per_mutation",
            ratio(
                (groups1.commit_markers - groups0.commit_markers) as f64,
                muts,
            ),
        ),
        (
            "service.lane_imbalance",
            ratio(imbalance.iter().sum(), imbalance.len() as f64),
        ),
        (
            "kv.log_records_per_mutation",
            ratio((kv1.log_records - kv0.log_records) as f64, muts),
        ),
        ("kv.replay_txns", replay_txns as f64),
        ("core.recovery_sim_us", recovery_ns as f64 / 1e3),
    ] {
        layer_map.insert(name, value);
    }
    // A failed request was never acknowledged within the run, so it
    // takes the length of the timed phase: above every completed one.
    let pct = |l: &Latencies, p: f64| l.percentile_us(p, makespan);
    let tier = |l: &Latencies, failed: u64| {
        (l.len() > 0).then(|| Tier {
            p99_us: pct(l, 99.0),
            attempted: l.len() as u64,
            completed: l.completed() as u64,
            failed,
        })
    };
    let sim = Sim {
        attempted: total as u64,
        failed: fails.iter().filter(|&&f| f).count() as u64,
        timed,
        timed_completed,
        p50_us: pct(&latency, 50.0),
        p99_us: pct(&latency, 99.0),
        mean_us: latency.mean_us(),
        beyond_p99: latency.beyond(99.0) as u64,
        strict: tier(&strict, tier_failed[0]),
        buffered: tier(&buffered, tier_failed[1]),
        sim_kops_per_s: ratio(timed_completed as f64, makespan as f64) * 1e6,
        nvm_writes_per_op: ratio(delta.counter("mem.writes") as f64, timed as f64),
        unverified_gets,
        failed_when_issued,
        wrong_reads,
        lost_after_recovery,
        layers: layer_map,
        check_failures,
    };
    Ok(Pass {
        sim,
        setup_s,
        timed_s,
        hot_blocks,
        submit_host_us: tracer
            .enabled()
            .then(|| tracer.mean_us_from("KvService::submit_as", first_timed_batch)),
    })
}

fn count_mutations(reqs: &[Request], ok: bool, ok_count: &mut u64, failed_count: &mut u64) {
    let n = reqs
        .iter()
        .filter(|r| matches!(r, Request::Put { .. } | Request::Delete { .. }))
        .count() as u64;
    if ok {
        *ok_count += n;
    } else {
        *failed_count += n;
    }
}

/// Reads the recovered state back and returns the writers of every
/// acknowledged value that is missing, wrong or unreadable. Uses
/// `dump()`; when the dump itself fails, falls back to per-key gets.
fn read_back(svc: &mut KvService, oracle: &Oracle, tracer: &mut Tracer) -> Vec<Writer> {
    let known = || {
        oracle
            .values
            .iter()
            .filter(|(k, _)| !oracle.unknown.contains(k))
    };
    match tracer.call("KvService::dump", 0, || svc.dump()) {
        Ok(state) => known()
            .filter(|(k, (v, _))| state.get(k) != Some(v))
            .map(|(_, (_, w))| *w)
            .collect(),
        Err(e) => {
            eprintln!("dump after recovery failed: {e:?}; reading keys back one by one");
            let mut lost = Vec::new();
            for (k, (v, w)) in known() {
                let got = tracer.call("KvService::submit_as", 0, || {
                    svc.submit_as(STRICT, &[Request::Get { key: *k }])
                });
                if !matches!(got.as_deref(), Ok([Response::Value(Some(g))]) if g == v) {
                    lost.push(*w);
                }
            }
            lost
        }
    }
}

/// Set-up of `trace-mix3`: the engine, the seeded traces, the cores.
fn mix_setup(seed: u64, tracer: &mut Tracer) -> Result<System, String> {
    let mem = tracer
        .call("SecureMemoryBuilder::build", 0, || {
            SecureMemoryBuilder::new()
                .config(report_config())
                .scheme(PersistScheme::triad_nvm(2))
                .key_seed(seed)
                .build()
        })
        .map_err(|e| format!("SecureMemoryBuilder::build failed: {e:?}"))?;
    let env = WorkloadEnv::of(&mem);
    let traces = build_workload("mix3", &env, seed);
    let mut system = System::new(mem, traces);
    system.set_persist_batch(8);
    Ok(system)
}

/// One pass of `trace-mix3`: Table 2's MIX3 on 4 cores with the
/// 8-deep persist write-combining window, then a crash and recovery.
pub fn mix_pass(seed: u64, ops_per_core: u64, tracer: &mut Tracer) -> Result<MixPass, String> {
    let pass_span = tracer.begin_pass();
    let t_setup = Instant::now();
    let mut system = mix_setup(seed, tracer)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let reg0 = system.secure().stat_registry();
    let t_timed = Instant::now();
    let run = tracer.call("System::run", 0, || system.run(ops_per_core));
    let timed_s = t_timed.elapsed().as_secs_f64();
    let cores = report_config().cores as u64;
    let attempted = cores * ops_per_core;

    let mut mem = system.into_secure();
    tracer.call("SecureMemory::crash", 0, || mem.crash());
    let recovery = tracer.call("SecureMemory::recover", 0, || mem.recover());
    let hot_blocks = if tracer.enabled() {
        mem.wear()
            .hottest(64)
            .into_iter()
            .map(|(b, _)| b.0)
            .collect()
    } else {
        Vec::new()
    };
    tracer.end_pass(pass_span);

    let result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("System::run failed: {e:?}");
            let sim = Sim {
                attempted,
                failed: attempted,
                timed: attempted,
                ..Sim::default()
            };
            let pass = Pass {
                sim,
                setup_s,
                timed_s,
                hot_blocks,
                submit_host_us: None,
            };
            return Ok(MixPass {
                pass,
                reference: None,
            });
        }
    };
    let completed: u64 = result.cores.iter().map(|c| c.ops).sum();
    let (recovered, recovery_ns, recovery_blocks) = match &recovery {
        Ok(rep) => (
            rep.persistent_recovered,
            rep.estimated_duration.as_ns(),
            rep.persistent_blocks_read + rep.non_persistent_blocks_read,
        ),
        Err(_) => (false, 0, 0),
    };
    // A recovery that cannot verify the persistent region loses every
    // persisted op; the trace does not say which, so all ops count.
    let timed_completed = if recovered {
        completed
    } else {
        eprintln!("trace-mix3 recovery failed: {recovery:?}");
        0
    };
    // Per-op latencies exist only as core.latency_ns, whose buckets
    // are powers of two; its mean is exact.
    let hist = result
        .registry
        .histogram("core.latency_ns")
        .cloned()
        .unwrap_or_default();
    let mut delta = Delta::default();
    delta.add(&reg0, &result.registry);
    let makespan = result
        .cores
        .iter()
        .map(|c| c.finish_time.as_ns())
        .max()
        .unwrap_or(0);
    let mut check_failures = Vec::new();
    if hist.count() != completed {
        check_failures.push(format!(
            "core.latency_ns holds {} samples for {completed} ops",
            hist.count()
        ));
    }
    let n = hist.count();
    let mut layers = layers::simulated(&LayerInputs {
        ops: completed as f64,
        delta: &delta,
        wear_max_writes: result.registry.counter("wear.max_writes"),
        recovery_blocks_read: recovery_blocks,
    });
    layers.insert("core.recovery_sim_us", recovery_ns as f64 / 1e3);
    // trace-mix3 never touches the KV and service layers.
    for name in SERVICE_AND_KV_LAYERS {
        layers.insert(name, 0.0);
    }
    let sim = Sim {
        attempted,
        failed: attempted - timed_completed,
        timed: attempted,
        timed_completed,
        p50_us: interpolated_percentile(&hist, 50.0) / 1e3,
        p99_us: interpolated_percentile(&hist, 99.0) / 1e3,
        mean_us: hist.mean() / 1e3,
        beyond_p99: n - (0.99 * n as f64).ceil() as u64,
        strict: None,
        buffered: None,
        sim_kops_per_s: ratio(timed_completed as f64, makespan as f64) * 1e6,
        nvm_writes_per_op: ratio(result.nvm_writes as f64, completed as f64),
        unverified_gets: 0,
        failed_when_issued: attempted - completed,
        wrong_reads: 0,
        lost_after_recovery: completed - timed_completed,
        layers,
        check_failures,
    };
    Ok(MixPass {
        reference: Some(Reference {
            throughput_ips: result.throughput(),
            nvm_writes: result.nvm_writes,
            latency_mean_ns: hist.mean(),
        }),
        pass: Pass {
            sim,
            setup_s,
            timed_s,
            hot_blocks,
            submit_host_us: None,
        },
    })
}

/// The `p`-th percentile of a power-of-two-bucketed histogram in ns,
/// interpolated linearly inside the bucket that holds it (as
/// Prometheus' `histogram_quantile` does). The bucket counts are read
/// back exactly through nearest-rank queries.
pub fn interpolated_percentile(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // The bucket edge holding the k-th smallest sample (1-based).
    let edge_of = |k: u64| h.percentile(100.0 * (k as f64 - 0.5) / n as f64);
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
    let hi = edge_of(rank);
    // First and last rank inside that bucket, by binary search.
    let first = partition(1, rank, |k| edge_of(k) < hi);
    let last = partition(rank, n + 1, |k| edge_of(k) <= hi) - 1;
    let lo = if hi <= 1 { 0 } else { hi / 2 };
    let within = (rank - first + 1) as f64 / (last - first + 1) as f64;
    lo as f64 + within * (hi - lo) as f64
}

/// The first `k` in `lo..hi` for which `pred` is false (`pred` holds on
/// a prefix of the range).
fn partition(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The figures `triad-report` records for a mix cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub throughput_ips: f64,
    pub nvm_writes: u64,
    pub latency_mean_ns: f64,
}

#[derive(Debug, Clone)]
pub struct MixPass {
    pub pass: Pass,
    pub reference: Option<Reference>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{kv_read_cold, kv_update_zipf};

    /// The default seed and the held-out seed of the determinism check.
    const SEED: u64 = 42;
    const HELD_OUT: u64 = 7;

    fn kv(inp: &KvInputs, seed: u64) -> Sim {
        kv_pass(inp, seed, &mut Tracer::new(false))
            .expect("pass runs")
            .sim
    }

    fn assert_accounts(sim: &Sim) {
        assert_eq!(sim.accounting_problems(), Vec::<String>::new());
        assert_eq!(sim.check_failures, Vec::<String>::new());
        assert_eq!(
            sim.failed,
            sim.failed_when_issued + sim.wrong_reads + sim.lost_after_recovery
        );
    }

    #[test]
    fn kv_update_zipf_is_deterministic_and_accounts_for_every_request() {
        let sim = kv(&kv_update_zipf(SEED, 3200), SEED);
        assert_accounts(&sim);
        assert_eq!(sim.attempted, 3200);
        let (s, b) = (sim.strict.expect("strict"), sim.buffered.expect("buffered"));
        assert_eq!((s.attempted, b.attempted), (1600, 1600));
        assert_eq!(sim, kv(&kv_update_zipf(SEED, 3200), SEED));
        assert_ne!(sim, kv(&kv_update_zipf(HELD_OUT, 3200), HELD_OUT));
    }

    #[test]
    fn kv_read_cold_is_deterministic_and_accounts_for_every_request() {
        let small = |seed| {
            let full = kv_read_cold(seed, 1600);
            let keys = 512;
            KvInputs {
                preload: full.preload[..keys].to_vec(),
                batches: full
                    .batches
                    .into_iter()
                    .map(|(t, reqs)| {
                        let reqs = reqs
                            .into_iter()
                            .map(|r| match r {
                                Request::Get { key } => Request::Get {
                                    key: key % keys as u64,
                                },
                                Request::Put { key, value } => Request::Put {
                                    key: key % keys as u64,
                                    value,
                                },
                                other => other,
                            })
                            .collect();
                        (t, reqs)
                    })
                    .collect(),
            }
        };
        let sim = kv(&small(SEED), SEED);
        assert_accounts(&sim);
        assert_eq!(sim.failed, 0, "{sim:?}");
        assert_eq!(sim.attempted, 512 + 1600);
        assert_eq!(sim.strict.expect("strict").attempted, 1600);
        assert!(sim.buffered.is_none());
        assert_eq!(sim, kv(&small(SEED), SEED));
        assert_ne!(sim, kv(&small(HELD_OUT), HELD_OUT));
    }

    #[test]
    fn trace_mix3_is_deterministic_and_accounts_for_every_op() {
        let mix = |seed| {
            mix_pass(seed, 1000, &mut Tracer::new(false))
                .expect("pass runs")
                .pass
                .sim
        };
        let sim = mix(SEED);
        assert_accounts(&sim);
        assert_eq!((sim.attempted, sim.failed), (4000, 0));
        assert_eq!(sim, mix(SEED));
        assert_ne!(sim, mix(HELD_OUT));
    }

    #[test]
    fn interpolation_stays_inside_the_bucket_and_matches_exact_ranks() {
        let mut h = Histogram::new();
        // 100 samples spread evenly over the (512, 1024] bucket.
        for i in 0..100u64 {
            h.record(520 + i * 5);
        }
        let p50 = interpolated_percentile(&h, 50.0);
        assert!(p50 > 512.0 && p50 <= 1024.0, "{p50}");
        assert_eq!(p50, 512.0 + 0.5 * 512.0);
        assert_eq!(interpolated_percentile(&h, 100.0), 1024.0);
        // A second bucket below: p25 falls in it, p75 in the upper one.
        for _ in 0..100 {
            h.record(300);
        }
        let p25 = interpolated_percentile(&h, 25.0);
        assert!(p25 > 256.0 && p25 <= 512.0, "{p25}");
        let p75 = interpolated_percentile(&h, 75.0);
        assert!(p75 > 512.0 && p75 <= 1024.0, "{p75}");
    }
}
