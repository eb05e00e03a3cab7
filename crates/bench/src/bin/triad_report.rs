//! `triad-report`: the fixed experiment matrix the perf trajectory
//! regresses against.
//!
//! Replays the persistent workload mixes of §4 over every persistence
//! scheme (write-back baseline, TriadNVM-1/2/3, Strict) on
//! `SplitMix64`-seeded traces, then crashes and functionally recovers
//! each cell. Trace cells enable an 8-deep persist write-combining
//! window ([`System::set_persist_batch`]).
//!
//! Every KV row runs through the one multi-shard driver, the sharded
//! [`KvService`] front-end. Two rows (`kv-zipf`, `kv-uniform`) drive
//! a four-shard service one request per submit under each scheme and
//! verify recovery of every shard against an in-DRAM oracle. Four
//! serving rows (`fleet-1/2/4`, `fleet-nogc`) push one seeded request
//! schedule through 1–4 shards and measure aggregate throughput vs.
//! shard count and the commit-marker amortization of group commit
//! (window 8 vs. the unbatched window-1 `fleet-nogc` row). Three
//! durability-mode rows (`mode-strict`, `mode-buffered`,
//! `mode-inmemory`) run one tenant under each tier of the durability
//! contract (`docs/durability-contract.md`), crash a shard with work
//! still staged, and record what recovery measured against the tier's
//! loss bound. Eight recov rows (`stack-mixed-1..4`,
//! `queue-mixed-1..4`) drive the detectably recoverable Treiber stack
//! / MS queue from `triad-recov` through the seeded interleaving
//! harness at 1–4 threads, with the concurrent crash-equivalence
//! oracle checked on every run; their `recovered` column re-runs the
//! cell with a mid-run per-thread crash injected and demands the
//! oracle still pass.
//!
//! Emits `BENCH_pr12.json` (deterministic: running twice with the
//! same seed is byte-identical) plus a human-readable table. That file
//! is the one checked-in baseline: CI gates the smoke matrix against
//! it with `bench-delta --check`.
//!
//! Usage:
//!   cargo run -p triad-bench --release --bin triad-report
//!   cargo run -p triad-bench --release --bin triad-report -- --smoke
//!   ... -- --ops 2000 --out /tmp/report.json --seed 7
//!
//! `--smoke` shrinks the matrix (three workloads, fewer ops) for CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use triad_core::{PersistScheme, SecureMemoryBuilder, System};
use triad_sim::config::SystemConfig;
use triad_sim::stats::Histogram;
use triad_sim::Time;
use triad_workloads::recov::StructureKind;
use triad_workloads::service::{
    generate_requests, DurabilityMode, KvMix, KvService, Request, Response, ServiceSpec,
};
use triad_workloads::{build_workload, run_recov_mix, RecovMixSpec, WorkloadEnv};

/// The serving-layer extras a fleet row carries on top of the common
/// cell columns: shard geometry and group-commit amortization.
struct FleetExtra {
    shards: u64,
    group_window: usize,
    mutations: u64,
    group_flushes: u64,
    log_records: u64,
    commit_markers: u64,
    shed: u64,
}

impl FleetExtra {
    /// Commit-marker persists per applied mutation — 1.0 on the
    /// unbatched path, 1/window under perfect group commit.
    fn markers_per_mutation(&self) -> f64 {
        if self.mutations == 0 {
            0.0
        } else {
            self.commit_markers as f64 / self.mutations as f64
        }
    }
}

/// The durability-tier extras a mode row carries: which contract the
/// tenant ran under and what the post-crash recovery report measured
/// against it (`docs/durability-contract.md`, invariant D7).
struct ModeExtra {
    tier: &'static str,
    barriers: u64,
    mutations_lost: u64,
    loss_bound: Option<u64>,
    within_bound: bool,
}

/// The lock-free-structure extras a recov row carries: thread count,
/// scheduler work, crash bookkeeping, and persist amortization.
struct RecovExtra {
    threads: u64,
    steps: u64,
    thread_crashes: u64,
    engine_crashes: u64,
    persists_per_op: f64,
}

/// One (workload, scheme) cell of the matrix.
struct Cell {
    workload: &'static str,
    scheme: PersistScheme,
    ops: u64,
    throughput: f64,
    latency: Histogram,
    nvm_writes: u64,
    persist_metadata_writes: u64,
    evict_metadata_writes: u64,
    wpq_full_events: u64,
    recovered: bool,
    recovery_blocks_read: u64,
    recovery_ns: u64,
    /// `Some` on the serving-fleet rows only.
    fleet: Option<FleetExtra>,
    /// `Some` on the durability-mode rows only.
    mode: Option<ModeExtra>,
    /// `Some` on the recov lock-free-structure rows only.
    recov: Option<RecovExtra>,
}

/// The report runs on a small machine (tiny caches, 16 MiB NVM) so the
/// full matrix — including *functional* crash recovery of every cell —
/// finishes in seconds while still spilling past every cache level.
/// Four cores so the MIX workloads get one lane each; 16 MiB (vs the
/// test config's 4 MiB) keeps the BMT tall enough that TriadNVM-3 and
/// Strict persist different level counts.
fn report_config() -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 4;
    cfg.mem.capacity_bytes = 16 << 20;
    cfg
}

fn schemes() -> Vec<PersistScheme> {
    vec![
        PersistScheme::WriteBack,
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ]
}

fn run_cell(workload: &'static str, scheme: PersistScheme, ops: u64, seed: u64) -> Cell {
    let mem = SecureMemoryBuilder::new()
        .config(report_config())
        .scheme(scheme)
        .key_seed(seed)
        .build()
        .expect("report config is valid");
    let env = WorkloadEnv::of(&mem);
    let traces = build_workload(workload, &env, seed);
    let mut system = System::new(mem, traces);
    system.set_persist_batch(8);
    let result = system.run(ops).expect("clean run");
    let latency = result
        .registry
        .histogram("core.latency_ns")
        .cloned()
        .unwrap_or_default();

    // Crash the machine mid-flight and recover it: the recovery columns
    // are the Figure 10 story, measured functionally rather than from
    // the analytic model.
    let mut mem = system.into_secure();
    mem.crash();
    let report = mem.recover().expect("recovery succeeds on a clean crash");

    Cell {
        workload,
        scheme,
        ops: result.cores.iter().map(|c| c.ops).sum(),
        throughput: result.throughput(),
        latency,
        nvm_writes: result.nvm_writes,
        persist_metadata_writes: result.stats.get("secure.persist_metadata_writes"),
        evict_metadata_writes: result.stats.get("secure.evict_metadata_writes"),
        wpq_full_events: result.stats.get("mem.wpq_full_events"),
        recovered: report.persistent_recovered,
        recovery_blocks_read: report.persistent_blocks_read + report.non_persistent_blocks_read,
        recovery_ns: report.estimated_duration.as_ns(),
        fleet: None,
        mode: None,
        recov: None,
    }
}

/// Per-shard simulated clocks, in shard order.
fn shard_clocks(svc: &KvService) -> Vec<Time> {
    (0..svc.shard_count())
        .map(|i| svc.shard_mem(i).expect("shard in range").now())
        .collect()
}

/// NVM writes, persist and eviction metadata writes, and WPQ-full
/// events, summed over the service's shards.
fn write_totals(svc: &KvService) -> [u64; 4] {
    let mut totals = [0u64; 4];
    for i in 0..svc.shard_count() {
        let mem = svc.shard_mem(i).expect("shard in range");
        totals[0] += mem.mem_stats().writes;
        totals[1] += mem.stats().persist_metadata_writes();
        totals[2] += mem.stats().evict_metadata_writes();
        totals[3] += mem.mem_stats().wpq_full_events;
    }
    totals
}

/// A KV cell: the seeded kv-* schedule (Zipf(0.99) or uniform keys
/// over 1024 keys, 8–256 B values, 4:9:2:1 put/get/delete/scan)
/// driven through a four-shard [`KvService`] under the row's scheme,
/// one request per submit with group window 1, so every mutation is a
/// one-mutation group commit. A request's latency is the clock advance
/// of the shard it routes to; a scan's is the largest advance over all
/// shards. Throughput is requests over the slowest shard's elapsed
/// clock. Its recovery column is stronger than the trace cells':
/// every shard is crashed and recovered (engine recovery plus redo
/// log replay), and `recovered` is true only if the merged durable
/// state equals the in-DRAM oracle exactly. Blocks read are summed
/// over shards; recovery time is the slowest shard's, as shards
/// recover independently. WriteBack is expected to fail that bar;
/// that gap is the row's point.
fn run_kv_cell(workload: &'static str, scheme: PersistScheme, ops: u64, seed: u64) -> Cell {
    let spec = ServiceSpec {
        shards: 4,
        group_window: 1,
        scheme,
        key_seed: seed,
        config: Some(report_config()),
        ..ServiceSpec::new(4)
    };
    let zipf_s = (workload == "kv-zipf").then_some(0.99);
    let reqs = generate_requests(
        seed,
        ops as usize,
        1024,
        (8, 256),
        zipf_s,
        KvMix::READ_HEAVY,
    );
    let mut svc = KvService::create(&spec).expect("kv cell create");
    svc.set_threaded(false);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut latency = Histogram::new();
    let t0 = shard_clocks(&svc);
    for req in &reqs {
        let before = shard_clocks(&svc);
        let resps = svc.submit(std::slice::from_ref(req)).expect("clean KV run");
        let after = shard_clocks(&svc);
        let advance = |i: usize| after[i].since(before[i]).as_ns();
        latency.record(match req {
            Request::Put { key, .. } | Request::Get { key } | Request::Delete { key } => {
                advance(svc.route(*key))
            }
            Request::Scan => (0..after.len()).map(advance).max().unwrap_or(0),
        });
        match (req, resps.first()) {
            (Request::Put { key, value }, Some(Response::Done)) => {
                model.insert(*key, value.clone());
            }
            (Request::Delete { key }, Some(Response::Done)) => {
                model.remove(key);
            }
            _ => {}
        }
    }
    let elapsed = shard_clocks(&svc)
        .iter()
        .zip(&t0)
        .map(|(end, start)| end.since(*start).as_secs_f64())
        .fold(0.0, f64::max);
    let [nvm_writes, pmw, emw, wpq] = write_totals(&svc);

    for i in 0..svc.shard_count() {
        svc.shard_mem_mut(i).expect("shard in range").crash();
    }
    let (mut recovered, mut recovery_blocks_read, mut recovery_ns) = (true, 0u64, 0u64);
    for i in 0..svc.shard_count() {
        match svc.recover_shard(i) {
            Ok(report) => {
                recovered &= report.persistent_recovered;
                recovery_blocks_read +=
                    report.persistent_blocks_read + report.non_persistent_blocks_read;
                recovery_ns = recovery_ns.max(report.estimated_duration.as_ns());
            }
            Err(_) => recovered = false,
        }
    }
    recovered = recovered && svc.dump().map(|state| state == model).unwrap_or(false);

    Cell {
        workload,
        scheme,
        ops: reqs.len() as u64,
        throughput: if elapsed > 0.0 {
            reqs.len() as f64 / elapsed
        } else {
            0.0
        },
        latency,
        nvm_writes,
        persist_metadata_writes: pmw,
        evict_metadata_writes: emw,
        wpq_full_events: wpq,
        recovered,
        recovery_blocks_read,
        recovery_ns,
        fleet: None,
        mode: None,
        recov: None,
    }
}

/// A serving-fleet cell: the same seeded request schedule pushed
/// through the sharded [`KvService`] front-end (keyed-hash routing,
/// group commit, worker threads). Throughput is aggregate: total
/// requests over the *slowest shard's* simulated clock, so the
/// `fleet-1` → `fleet-4` rows measure shard-count scaling, and the
/// window-1 `fleet-nogc` row isolates what group commit buys
/// (`markers_per_mutation` is the amortization headline). Latency
/// samples are per-request averages over 64-request submit chunks on
/// that slowest-shard clock. Recovery crashes shard 0 after the run,
/// replays its WAL, and demands the merged durable state still equal
/// the in-DRAM oracle exactly.
fn run_fleet_cell(
    workload: &'static str,
    shards: u64,
    group_window: usize,
    ops: u64,
    seed: u64,
) -> Cell {
    let spec = ServiceSpec {
        shards,
        group_window,
        buckets: 256,
        key_seed: seed,
        config: Some(report_config()),
        ..ServiceSpec::new(shards)
    };
    let mut svc = KvService::create(&spec).expect("fleet create");
    let reqs = generate_requests(seed, ops as usize, 1024, (8, 64), None, KvMix::UPDATE_HEAVY);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut latency = Histogram::new();
    let t0 = svc.max_shard_time();
    for chunk in reqs.chunks(64) {
        let c0 = svc.max_shard_time();
        let resps = svc.submit(chunk).expect("clean fleet run");
        latency.record(svc.max_shard_time().since(c0).as_ns() / chunk.len() as u64);
        for (req, resp) in chunk.iter().zip(&resps) {
            match (req, resp) {
                (Request::Put { key, value }, Response::Done) => {
                    model.insert(*key, value.clone());
                }
                (Request::Delete { key }, Response::Done) => {
                    model.remove(key);
                }
                _ => {}
            }
        }
    }
    let elapsed = svc.max_shard_time().since(t0).as_secs_f64();
    let [nvm_writes, pmw, emw, wpq] = write_totals(&svc);
    let groups = svc.merged_group_stats();

    svc.shard_mem_mut(0).expect("shard 0").crash();
    let (recovered, recovery_blocks_read, recovery_ns) = match svc.recover_shard(0) {
        Ok(report) => (
            report.persistent_recovered && svc.dump().map(|state| state == model).unwrap_or(false),
            report.persistent_blocks_read + report.non_persistent_blocks_read,
            report.estimated_duration.as_ns(),
        ),
        Err(_) => (false, 0, 0),
    };

    Cell {
        workload,
        scheme: spec.scheme,
        ops: reqs.len() as u64,
        throughput: if elapsed > 0.0 {
            reqs.len() as f64 / elapsed
        } else {
            0.0
        },
        latency,
        nvm_writes,
        persist_metadata_writes: pmw,
        evict_metadata_writes: emw,
        wpq_full_events: wpq,
        recovered,
        recovery_blocks_read,
        recovery_ns,
        fleet: Some(FleetExtra {
            shards,
            group_window,
            mutations: groups.ops,
            group_flushes: groups.flushes,
            log_records: groups.log_records,
            commit_markers: groups.commit_markers,
            shed: groups.shed,
        }),
        mode: None,
        recov: None,
    }
}

/// A durability-mode cell: one tenant driven through the sharded
/// [`KvService`] under a single tier of the durability contract
/// (`docs/durability-contract.md`), on the same seeded request
/// schedule as the fleet rows. InMemory rows insert a barrier every
/// fourth chunk so staged work keeps promoting instead of growing an
/// unbounded overlay. After the run shard 0 is crashed *with work
/// still staged* — no final flush or barrier — and recovered; the
/// `recovered` column demands the recovery report name the tier the
/// tenant actually ran under and measure a loss within that tier's
/// bound (invariant D7), and the `durability` JSON object records the
/// measurement.
fn run_mode_cell(workload: &'static str, mode: DurabilityMode, ops: u64, seed: u64) -> Cell {
    let spec = ServiceSpec {
        shards: 2,
        group_window: 8,
        buckets: 256,
        key_seed: seed,
        config: Some(report_config()),
        ..ServiceSpec::new(2)
    };
    let mut svc = KvService::create(&spec).expect("mode cell create");
    svc.set_tenant_mode(1, mode);
    let reqs = generate_requests(seed, ops as usize, 1024, (8, 64), None, KvMix::UPDATE_HEAVY);
    let mut latency = Histogram::new();
    let mut barriers = 0u64;
    let t0 = svc.max_shard_time();
    for (n, chunk) in reqs.chunks(64).enumerate() {
        let c0 = svc.max_shard_time();
        svc.submit_as(1, chunk).expect("clean mode run");
        if matches!(mode, DurabilityMode::InMemory) && n % 4 == 3 {
            svc.barrier().expect("clean barrier");
            barriers += 1;
        }
        latency.record(svc.max_shard_time().since(c0).as_ns() / chunk.len() as u64);
    }
    let elapsed = svc.max_shard_time().since(t0).as_secs_f64();
    let [nvm_writes, pmw, emw, wpq] = write_totals(&svc);

    svc.shard_mem_mut(0).expect("shard 0").crash();
    let (recovered, recovery_blocks_read, recovery_ns, extra) = match svc.recover_shard(0) {
        Ok(report) => {
            let d = report
                .durability
                .expect("service recovery always carries a durability report");
            (
                report.persistent_recovered && d.mode == mode.tier_name() && d.within_bound(),
                report.persistent_blocks_read + report.non_persistent_blocks_read,
                report.estimated_duration.as_ns(),
                ModeExtra {
                    tier: d.mode,
                    barriers,
                    mutations_lost: d.mutations_lost,
                    loss_bound: d.loss_bound,
                    within_bound: d.within_bound(),
                },
            )
        }
        Err(_) => (
            false,
            0,
            0,
            ModeExtra {
                tier: mode.tier_name(),
                barriers,
                mutations_lost: 0,
                loss_bound: mode.loss_bound(),
                within_bound: false,
            },
        ),
    };

    Cell {
        workload,
        scheme: spec.scheme,
        ops: reqs.len() as u64,
        throughput: if elapsed > 0.0 {
            reqs.len() as f64 / elapsed
        } else {
            0.0
        },
        latency,
        nvm_writes,
        persist_metadata_writes: pmw,
        evict_metadata_writes: emw,
        wpq_full_events: wpq,
        recovered,
        recovery_blocks_read,
        recovery_ns,
        fleet: None,
        mode: Some(extra),
        recov: None,
    }
}

/// A recov cell: drives the detectably recoverable Treiber stack or
/// MS queue from `triad-recov` through the seeded interleaving
/// harness at `threads` threads, mixed insert/remove scripts, on
/// TriadNVM-2. Every run is checked against the concurrent
/// crash-equivalence oracle; latency samples are per-completed-op on
/// the engine clock, and `persists_per_op` is the recov analogue of
/// the fleet rows' `markers_per_mutation`. The `recovered` column
/// re-runs the cell with a per-thread crash injected mid-run and is
/// true only if the crashed thread's recovery keeps the commit log
/// linearizable with every op applied exactly once.
fn run_recov_cell(
    workload: &'static str,
    kind: StructureKind,
    threads: usize,
    ops: u64,
    seed: u64,
) -> Cell {
    let spec = RecovMixSpec {
        kind,
        threads,
        ops_per_thread: (ops / 8).max(32) as usize,
        scheme: PersistScheme::triad_nvm(2),
        seed,
        thread_crash: None,
    };
    let res = run_recov_mix(&spec).expect("recov oracle holds on the clean run");
    let out = &res.outcome;
    let mut latency = Histogram::new();
    for &ns in &out.op_latency_ns {
        latency.record(ns);
    }

    // Crash the last thread mid-run and demand the oracle still pass:
    // this is the detectability column — recovery must resolve the
    // in-flight op and re-execute it at most once.
    let crash_at = out.per_thread_steps[threads - 1] / 2;
    let crashed = RecovMixSpec {
        thread_crash: Some((threads - 1, crash_at)),
        ..spec
    };
    let recovered = match run_recov_mix(&crashed) {
        Ok(r) => r.outcome.thread_crashes == 1,
        Err(_) => false,
    };

    Cell {
        workload,
        scheme: spec.scheme,
        ops: out.op_latency_ns.len() as u64,
        throughput: res.ops_per_sec,
        latency,
        nvm_writes: out.nvm_writes,
        persist_metadata_writes: out.persist_metadata_writes,
        evict_metadata_writes: 0,
        wpq_full_events: 0,
        recovered,
        recovery_blocks_read: 0,
        recovery_ns: 0,
        fleet: None,
        mode: None,
        recov: Some(RecovExtra {
            threads: threads as u64,
            steps: out.steps,
            thread_crashes: out.thread_crashes,
            engine_crashes: out.engine_crashes,
            persists_per_op: res.persists_per_op,
        }),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Hand-rolled, key-order-fixed JSON: determinism is the whole point.
fn render_json(cells: &[Cell], ops: u64, seed: u64, smoke: bool) -> String {
    let cfg = report_config();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"report\": \"triad-report\",");
    let _ = writeln!(out, "  \"version\": 2,");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"ops_per_core\": {ops},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"config\": {{ \"capacity_bytes\": {}, \"cores\": {}, \"wpq_entries\": {} }},",
        cfg.mem.capacity_bytes, cfg.cores, cfg.mem.wpq_entries
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let h = &c.latency;
        let _ = write!(
            out,
            "    {{ \"workload\": \"{}\", \"scheme\": \"{}\", \"ops\": {}, \
             \"throughput_ips\": {:.3}, \
             \"latency_ns\": {{ \"count\": {}, \"mean\": {:.3}, \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {} }}, \
             \"nvm_writes\": {}, \"persist_metadata_writes\": {}, \
             \"evict_metadata_writes\": {}, \"wpq_full_events\": {}, \
             \"recovery\": {{ \"recovered\": {}, \"blocks_read\": {}, \"time_ns\": {} }}",
            json_escape(c.workload),
            json_escape(&c.scheme.to_string()),
            c.ops,
            c.throughput,
            h.count(),
            h.mean(),
            h.min(),
            h.max(),
            h.p50(),
            h.p95(),
            h.p99(),
            c.nvm_writes,
            c.persist_metadata_writes,
            c.evict_metadata_writes,
            c.wpq_full_events,
            c.recovered,
            c.recovery_blocks_read,
            c.recovery_ns,
        );
        if let Some(f) = &c.fleet {
            let _ = write!(
                out,
                ", \"fleet\": {{ \"shards\": {}, \"group_window\": {}, \"mutations\": {}, \
                 \"group_flushes\": {}, \"log_records\": {}, \"commit_markers\": {}, \
                 \"markers_per_mutation\": {:.4}, \"shed\": {} }}",
                f.shards,
                f.group_window,
                f.mutations,
                f.group_flushes,
                f.log_records,
                f.commit_markers,
                f.markers_per_mutation(),
                f.shed,
            );
        }
        if let Some(m) = &c.mode {
            let _ = write!(
                out,
                ", \"durability\": {{ \"tier\": \"{}\", \"barriers\": {}, \
                 \"mutations_lost\": {}, \"loss_bound\": {}, \"within_bound\": {} }}",
                m.tier,
                m.barriers,
                m.mutations_lost,
                m.loss_bound
                    .map_or_else(|| "null".to_string(), |b| b.to_string()),
                m.within_bound,
            );
        }
        if let Some(r) = &c.recov {
            let _ = write!(
                out,
                ", \"recov\": {{ \"threads\": {}, \"steps\": {}, \"thread_crashes\": {}, \
                 \"engine_crashes\": {}, \"persists_per_op\": {:.4} }}",
                r.threads, r.steps, r.thread_crashes, r.engine_crashes, r.persists_per_op,
            );
        }
        out.push_str(" }");
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_table(cells: &[Cell]) {
    println!(
        "{:<10} {:>12} {:>8} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "workload", "scheme", "p50 ns", "p95 ns", "p99 ns", "nvm wr", "meta wr", "recovery"
    );
    println!("{}", "-".repeat(86));
    let mut last = "";
    for c in cells {
        if c.workload != last && !last.is_empty() {
            println!();
        }
        last = c.workload;
        println!(
            "{:<10} {:>12} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10.1}us",
            c.workload,
            c.scheme.to_string(),
            c.latency.p50(),
            c.latency.p95(),
            c.latency.p99(),
            c.nvm_writes,
            c.persist_metadata_writes + c.evict_metadata_writes,
            c.recovery_ns as f64 / 1e3,
        );
    }
}

fn main() {
    let mut smoke = false;
    let mut ops: Option<u64> = None;
    let mut out_path = String::from("BENCH_pr12.json");
    let mut seed: u64 = 42;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--ops" => {
                let v = args.next().expect("--ops needs a value");
                ops = Some(v.parse().expect("--ops needs an integer"));
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                seed = v.parse().expect("--seed needs an integer");
            }
            other => {
                eprintln!("unknown flag {other:?}; flags: --smoke --ops N --out PATH --seed N");
                std::process::exit(2);
            }
        }
    }

    // The fixed matrix: the PMDK persistent structures plus the four
    // MIX workloads, i.e. every trace with a persistent-store component
    // (pure SPEC lanes exercise no persists and tell the schemes apart
    // far less) — plus the two triad-kv rows (`kv-zipf`,
    // `kv-uniform`), which are driven through `run_kv_cell` and carry
    // the oracle-verified recovery column.
    let workloads: &[&'static str] = if smoke {
        &["hashtable", "mix1", "kv-zipf"]
    } else {
        &[
            "hashtable",
            "queue",
            "arrayswap",
            "mix1",
            "mix2",
            "mix3",
            "mix4",
            "kv-zipf",
            "kv-uniform",
        ]
    };
    // Recov rows keep full depth even under --smoke (they are cheap,
    // and identical specs make the smoke rows exact replicas of the
    // checked-in baseline rows, so the recov gate compares like for
    // like instead of different mix-amortization depths).
    let recov_ops = ops.unwrap_or(4000);
    let ops = ops.unwrap_or(if smoke { 800 } else { 4000 });

    let mut cells = Vec::new();
    for w in workloads {
        for s in schemes() {
            cells.push(if w.starts_with("kv-") {
                run_kv_cell(w, s, ops, seed)
            } else {
                run_cell(w, s, ops, seed)
            });
        }
    }

    // The serving rows sweep shard count (not scheme) on one seeded
    // request schedule: `fleet-1/2/4` share a window-8 group commit so
    // their throughput column is the scaling curve, and `fleet-nogc`
    // repeats `fleet-4` unbatched (window 1) so the
    // `markers_per_mutation` gap is group commit's amortization.
    for (label, shards, window) in [
        ("fleet-1", 1, 8),
        ("fleet-2", 2, 8),
        ("fleet-4", 4, 8),
        ("fleet-nogc", 4, 1),
    ] {
        cells.push(run_fleet_cell(label, shards, window, ops, seed));
    }

    // The durability-mode rows run one tenant under each tier of the
    // contract on a two-shard service, crash shard 0 with work still
    // staged, and let recovery measure the loss against the tier's
    // bound: the throughput spread is the price of each guarantee and
    // the `durability` object is invariant D7 made observable.
    for (label, mode) in [
        ("mode-strict", DurabilityMode::Strict),
        ("mode-buffered", DurabilityMode::buffered_default()),
        ("mode-inmemory", DurabilityMode::InMemory),
    ] {
        cells.push(run_mode_cell(label, mode, ops, seed));
    }

    // The recov rows sweep thread count (not scheme) for the two
    // detectably recoverable structures; the 1-thread → 4-thread
    // progression is the contention curve and `persists_per_op` the
    // per-op persistence price of detectability. Smoke keeps one
    // mid-contention row per structure.
    let recov_rows: &[(&'static str, StructureKind, usize)] = if smoke {
        &[
            ("stack-mixed-2", StructureKind::Stack, 2),
            ("queue-mixed-2", StructureKind::Queue, 2),
        ]
    } else {
        &[
            ("stack-mixed-1", StructureKind::Stack, 1),
            ("stack-mixed-2", StructureKind::Stack, 2),
            ("stack-mixed-3", StructureKind::Stack, 3),
            ("stack-mixed-4", StructureKind::Stack, 4),
            ("queue-mixed-1", StructureKind::Queue, 1),
            ("queue-mixed-2", StructureKind::Queue, 2),
            ("queue-mixed-3", StructureKind::Queue, 3),
            ("queue-mixed-4", StructureKind::Queue, 4),
        ]
    };
    for &(label, kind, threads) in recov_rows {
        cells.push(run_recov_cell(label, kind, threads, recov_ops, seed));
    }

    print_table(&cells);
    let json = render_json(&cells, ops, seed, smoke);
    std::fs::write(&out_path, &json).expect("write report");
    println!("\nwrote {out_path} ({} cells)", cells.len());
}
