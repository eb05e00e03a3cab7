//! `triad-report`: the fixed experiment matrix the perf trajectory
//! regresses against.
//!
//! Replays the persistent workload mixes of §4 over every persistence
//! scheme (write-back baseline, TriadNVM-1/2/3, Strict) on
//! `SplitMix64`-seeded traces, then crashes and functionally recovers
//! each cell. Trace cells enable an 8-deep persist write-combining
//! window ([`System::set_persist_batch`]).
//!
//! Every KV row runs through one serving-row driver, `serve_row`, over
//! the sharded [`KvService`] front-end. The fixed row table in `main`
//! fills in a `ServeRow` — service geometry, the tenant's durability
//! tier, the request schedule, submit chunk, how many leading shards
//! crash, the latency definition and the extra JSON object — and the
//! driver runs the schedule serially, totals writes over the shards,
//! then crashes the leading shards with any staged work left behind
//! and recovers them. A serving row's `recovered` column is true only
//! if every recovered shard reports the row's tier within that tier's
//! loss bound (invariant D7, `docs/durability-contract.md`) and, under
//! Strict, the merged durable state equals the in-DRAM oracle exactly.
//!
//! Two kv rows (`kv-zipf`, `kv-uniform`) drive a four-shard service
//! one request per submit under each scheme and crash every shard;
//! WriteBack is expected to fail the oracle, and that gap is the rows'
//! point. Four fleet rows (`fleet-1/2/4`, `fleet-nogc`) push one
//! seeded schedule through 1–4 shards and measure aggregate throughput
//! vs. shard count and the commit-marker amortization of group commit
//! (window 8 vs. the unbatched window-1 `fleet-nogc` row). Three
//! durability-mode rows (`mode-strict`, `mode-buffered`,
//! `mode-inmemory`) run the same schedule on two shards under each
//! tier of the durability contract and record what recovery measured
//! against the tier's loss bound. Eight recov rows (`stack-mixed-1..4`,
//! `queue-mixed-1..4`) drive the detectably recoverable Treiber stack
//! / MS queue from `triad-recov` through the seeded interleaving
//! harness at 1–4 threads, with the concurrent crash-equivalence
//! oracle checked on every run; their `recovered` column re-runs the
//! cell with a mid-run per-thread crash injected and demands the
//! oracle still pass.
//!
//! Emits `BENCH_pr13.json` (deterministic: running twice with the
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
    generate_requests, DurabilityMode, GroupStats, KvMix, KvService, Request, Response, ServiceSpec,
};
use triad_workloads::{build_workload, run_recov_mix, RecovMixSpec, WorkloadEnv};

/// The serving-layer extras a fleet row carries on top of the common
/// cell columns: shard geometry and group-commit amortization.
struct FleetExtra {
    shards: u64,
    group_window: usize,
    groups: GroupStats,
}

impl FleetExtra {
    /// Commit-marker persists per applied mutation — 1.0 on the
    /// unbatched path, 1/window under perfect group commit.
    fn markers_per_mutation(&self) -> f64 {
        if self.groups.ops == 0 {
            0.0
        } else {
            self.groups.commit_markers as f64 / self.groups.ops as f64
        }
    }
}

/// The durability-tier extras a mode row carries: which contract the
/// tenant ran under and what the post-crash recovery reports measured
/// against it (`docs/durability-contract.md`, invariant D7).
struct ModeExtra {
    mode: DurabilityMode,
    barriers: u64,
    mutations_lost: u64,
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

/// The extra JSON object a row carries beyond the common cell columns.
enum Extra {
    /// The common columns only (trace and kv rows).
    None,
    /// `fleet`: shard geometry and group-commit amortization.
    Fleet(FleetExtra),
    /// `durability`: the tenant's tier and what recovery measured.
    Durability(ModeExtra),
    /// `recov`: threads, scheduler work and crash bookkeeping.
    Recov(RecovExtra),
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
    extra: Extra,
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
        extra: Extra::None,
    }
}

/// How a serving row turns simulated clock advance into latency
/// samples, one per submit. Both definitions are stand-ins until
/// per-request admission and acknowledgement stamps replace them
/// (ROADMAP item 2, step 2); switching a row between them moves its
/// latency cells.
#[derive(Clone, Copy)]
enum Latency {
    /// The largest per-shard clock advance over the submit: with one
    /// request per submit, the routed shard's advance (a scan's is the
    /// slowest shard's).
    ShardAdvance,
    /// The fleet makespan's advance over the submit, divided by the
    /// submit's request count.
    MakespanPerRequest,
}

/// Which extra JSON object a serving row emits.
#[derive(Clone, Copy)]
enum ServeExtra {
    None,
    Fleet,
    Durability,
}

/// One serving row of the matrix; every field is fixed by `main`'s
/// row table.
struct ServeRow<'a> {
    workload: &'static str,
    spec: ServiceSpec,
    /// The tier the row's one tenant submits under.
    mode: DurabilityMode,
    reqs: &'a [Request],
    /// Requests per submit.
    chunk: usize,
    /// Leading shards crashed and recovered after the run.
    crash_shards: usize,
    latency: Latency,
    extra: ServeExtra,
}

/// The tenant every serving row submits as.
const TENANT: u64 = 1;

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

/// A serving cell: pushes the row's schedule through a serial
/// [`KvService`] in `chunk`-request submits as one tenant under the
/// row's tier. An InMemory tenant barriers every fourth chunk so its
/// staged work keeps promoting instead of growing an unbounded
/// overlay. Throughput is requests over the fleet makespan (the
/// slowest shard's clock).
///
/// After the run the leading `crash_shards` shards are crashed with
/// whatever the tier left staged — no final flush or barrier — and
/// recovered (engine recovery plus redo-log replay). `recovered` is
/// true only if every one recovers, reports the row's tier and
/// measures a loss within that tier's bound (invariant D7), and, under
/// Strict, the merged durable state equals the in-DRAM oracle exactly.
/// Blocks read and mutations lost are summed over the crashed shards;
/// recovery time is the slowest shard's, as shards recover
/// independently.
fn serve_row(row: ServeRow) -> Cell {
    let mut svc = KvService::create(&row.spec).expect("serving row create");
    svc.set_threaded(false);
    svc.set_tenant_mode(TENANT, row.mode);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut latency = Histogram::new();
    let mut barriers = 0u64;
    let t0 = svc.max_shard_time();
    for (n, chunk) in row.reqs.chunks(row.chunk).enumerate() {
        let before = shard_clocks(&svc);
        let c0 = svc.max_shard_time();
        let resps = svc.submit_as(TENANT, chunk).expect("clean serving run");
        if row.mode == DurabilityMode::InMemory && n % 4 == 3 {
            svc.barrier().expect("clean barrier");
            barriers += 1;
        }
        latency.record(match row.latency {
            Latency::ShardAdvance => shard_clocks(&svc)
                .iter()
                .zip(&before)
                .map(|(end, start)| end.since(*start).as_ns())
                .max()
                .unwrap_or(0),
            Latency::MakespanPerRequest => {
                svc.max_shard_time().since(c0).as_ns() / chunk.len() as u64
            }
        });
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

    for i in 0..row.crash_shards {
        svc.shard_mem_mut(i)
            .expect("crashed shard in range")
            .crash();
    }
    let (mut recovered, mut within_bound) = (true, true);
    let (mut recovery_blocks_read, mut recovery_ns, mut mutations_lost) = (0u64, 0u64, 0u64);
    for i in 0..row.crash_shards {
        match svc.recover_shard(i) {
            Ok(report) => {
                let d = report
                    .durability
                    .expect("service recovery always carries a durability report");
                within_bound &= d.within_bound();
                recovered &= report.persistent_recovered && d.mode == row.mode.tier_name();
                recovery_blocks_read +=
                    report.persistent_blocks_read + report.non_persistent_blocks_read;
                recovery_ns = recovery_ns.max(report.estimated_duration.as_ns());
                mutations_lost += d.mutations_lost;
            }
            Err(_) => (recovered, within_bound) = (false, false),
        }
    }
    recovered &= within_bound;
    if row.mode == DurabilityMode::Strict {
        recovered = recovered && svc.dump().map(|state| state == model).unwrap_or(false);
    }

    Cell {
        workload: row.workload,
        scheme: row.spec.scheme,
        ops: row.reqs.len() as u64,
        throughput: if elapsed > 0.0 {
            row.reqs.len() as f64 / elapsed
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
        extra: match row.extra {
            ServeExtra::None => Extra::None,
            ServeExtra::Fleet => Extra::Fleet(FleetExtra {
                shards: row.spec.shards,
                group_window: row.spec.group_window,
                groups,
            }),
            ServeExtra::Durability => Extra::Durability(ModeExtra {
                mode: row.mode,
                barriers,
                mutations_lost,
                within_bound,
            }),
        },
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
        extra: Extra::Recov(RecovExtra {
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
        match &c.extra {
            Extra::None => {}
            Extra::Fleet(f) => {
                let g = &f.groups;
                let _ = write!(
                    out,
                    ", \"fleet\": {{ \"shards\": {}, \"group_window\": {}, \"mutations\": {}, \
                     \"group_flushes\": {}, \"log_records\": {}, \"commit_markers\": {}, \
                     \"markers_per_mutation\": {:.4}, \"shed\": {} }}",
                    f.shards,
                    f.group_window,
                    g.ops,
                    g.flushes,
                    g.log_records,
                    g.commit_markers,
                    f.markers_per_mutation(),
                    g.shed,
                );
            }
            Extra::Durability(m) => {
                let _ = write!(
                    out,
                    ", \"durability\": {{ \"tier\": \"{}\", \"barriers\": {}, \
                     \"mutations_lost\": {}, \"loss_bound\": {}, \"within_bound\": {} }}",
                    m.mode.tier_name(),
                    m.barriers,
                    m.mutations_lost,
                    m.mode
                        .loss_bound()
                        .map_or_else(|| "null".to_string(), |b| b.to_string()),
                    m.within_bound,
                );
            }
            Extra::Recov(r) => {
                let _ = write!(
                    out,
                    ", \"recov\": {{ \"threads\": {}, \"steps\": {}, \"thread_crashes\": {}, \
                     \"engine_crashes\": {}, \"persists_per_op\": {:.4} }}",
                    r.threads, r.steps, r.thread_crashes, r.engine_crashes, r.persists_per_op,
                );
            }
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
    let mut out_path = String::from("BENCH_pr13.json");
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
    // far less), then the two triad-kv rows, keyed by their Zipf
    // exponent (`None` = uniform keys).
    let (traces, kv_rows): (&[&'static str], &[(&'static str, Option<f64>)]) = if smoke {
        (&["hashtable", "mix1"], &[("kv-zipf", Some(0.99))])
    } else {
        (
            &[
                "hashtable",
                "queue",
                "arrayswap",
                "mix1",
                "mix2",
                "mix3",
                "mix4",
            ],
            &[("kv-zipf", Some(0.99)), ("kv-uniform", None)],
        )
    };
    // Recov rows keep full depth even under --smoke (they are cheap,
    // and identical specs make the smoke rows exact replicas of the
    // checked-in baseline rows, so the recov gate compares like for
    // like instead of different mix-amortization depths).
    let recov_ops = ops.unwrap_or(4000);
    let ops = ops.unwrap_or(if smoke { 800 } else { 4000 });

    let mut cells = Vec::new();
    for &w in traces {
        for s in schemes() {
            cells.push(run_cell(w, s, ops, seed));
        }
    }

    // The kv rows: 8–256 B values over 1024 keys in a 4:9:2:1
    // put/get/delete/scan mix, one request per submit to a four-shard
    // service under each scheme. Group window 1 makes every mutation a
    // one-mutation group commit, and every shard is crashed afterwards.
    for &(workload, zipf_s) in kv_rows {
        let reqs = generate_requests(
            seed,
            ops as usize,
            1024,
            (8, 256),
            zipf_s,
            KvMix::READ_HEAVY,
        );
        for scheme in schemes() {
            cells.push(serve_row(ServeRow {
                workload,
                spec: ServiceSpec {
                    group_window: 1,
                    scheme,
                    key_seed: seed,
                    config: Some(report_config()),
                    ..ServiceSpec::new(4)
                },
                mode: DurabilityMode::Strict,
                reqs: &reqs,
                chunk: 1,
                crash_shards: 4,
                latency: Latency::ShardAdvance,
                extra: ServeExtra::None,
            }));
        }
    }

    // The fleet and mode rows share one update-heavy schedule (8–64 B
    // values over 1024 keys) in 64-request submits on TriadNVM-2, and
    // crash only shard 0.
    let serving = generate_requests(seed, ops as usize, 1024, (8, 64), None, KvMix::UPDATE_HEAVY);
    let serving_row = |workload: &'static str,
                       shards: u64,
                       group_window: usize,
                       mode: DurabilityMode,
                       extra: ServeExtra| ServeRow {
        workload,
        spec: ServiceSpec {
            group_window,
            buckets: 256,
            key_seed: seed,
            config: Some(report_config()),
            ..ServiceSpec::new(shards)
        },
        mode,
        reqs: &serving,
        chunk: 64,
        crash_shards: 1,
        latency: Latency::MakespanPerRequest,
        extra,
    };

    // The fleet rows sweep shard count (not scheme): `fleet-1/2/4`
    // share a window-8 group commit so their throughput column is the
    // scaling curve, and `fleet-nogc` repeats `fleet-4` unbatched
    // (window 1) so the `markers_per_mutation` gap is group commit's
    // amortization.
    for (label, shards, window) in [
        ("fleet-1", 1, 8),
        ("fleet-2", 2, 8),
        ("fleet-4", 4, 8),
        ("fleet-nogc", 4, 1),
    ] {
        let row = serving_row(
            label,
            shards,
            window,
            DurabilityMode::Strict,
            ServeExtra::Fleet,
        );
        cells.push(serve_row(row));
    }

    // The durability-mode rows run the tenant under each tier of the
    // contract on a two-shard service, crash shard 0 with work still
    // staged, and let recovery measure the loss against the tier's
    // bound: the throughput spread is the price of each guarantee and
    // the `durability` object is invariant D7 made observable.
    for (label, mode) in [
        ("mode-strict", DurabilityMode::Strict),
        ("mode-buffered", DurabilityMode::buffered_default()),
        ("mode-inmemory", DurabilityMode::InMemory),
    ] {
        cells.push(serve_row(serving_row(
            label,
            2,
            8,
            mode,
            ServeExtra::Durability,
        )));
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
