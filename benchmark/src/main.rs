//! Two-clock benchmark of the Triad-NVM simulator and its KV serving
//! layer: simulated time (the modelled machine) and host time (the
//! simulator), end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload kv-update-zipf --seed 42 --seconds 10 --trace 0
//! ```
//!
//! A run repeats one *pass* of the workload (set-up, timed phase,
//! crash, recovery, read-back) until `--seconds` have passed. Every
//! pass of a run must report identical simulated numbers; host times
//! are the medians over passes. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes and
//! prints the per-layer metrics plus the tracing overhead, writing the
//! spans to `benchmark/out/`. The last line of standard output is one
//! JSON object. See `benchmark/NOTES.md`.

mod inputs;
mod layers;
mod measure;
mod pass;
#[cfg(test)]
mod repro;
mod span;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, REFERENCE_CALIBRATION_RATE};
use pass::{Pass, Reference, Sim};
use span::Tracer;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    KvUpdateZipf,
    KvReadCold,
    TraceMix3,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::KvUpdateZipf,
        Workload::KvReadCold,
        Workload::TraceMix3,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::KvUpdateZipf => "kv-update-zipf",
            Workload::KvReadCold => "kv-read-cold",
            Workload::TraceMix3 => "trace-mix3",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload kv-update-zipf|kv-read-cold|trace-mix3 is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `BENCH_pr10.json`'s mix3 / TriadNVM-2 cell (`triad-report`, 4000
/// ops per core, seed 42), as `triad-report` formats it.
const REFERENCE_SEED: u64 = 42;
const REFERENCE_OPS: u64 = 4000;
const REFERENCE_CELL: (&str, u64, &str) = ("152906283.365", 22383, "567.597");

/// Replays the reference cell; `Err` names the first mismatch.
fn reference_check() -> Result<(), String> {
    let run = pass::mix_pass(REFERENCE_SEED, REFERENCE_OPS, &mut Tracer::new(false))?;
    let Some(Reference {
        throughput_ips,
        nvm_writes,
        latency_mean_ns,
    }) = run.reference
    else {
        return Err("the reference run failed".into());
    };
    let got = (
        format!("{throughput_ips:.3}"),
        nvm_writes,
        format!("{latency_mean_ns:.3}"),
    );
    let want = (
        REFERENCE_CELL.0.to_string(),
        REFERENCE_CELL.1,
        REFERENCE_CELL.2.to_string(),
    );
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "reference cell mismatch: got (throughput_ips, nvm_writes, latency mean) {got:?}, want {want:?}"
        ))
    }
}

/// Fewest passes a run makes, whatever `--seconds` says: enough for a
/// median and a determinism comparison (traced runs need two of each
/// kind).
const MIN_PASSES: usize = 3;
const MIN_TRACED_PASSES: usize = 4;
/// `setup_s` is the median of at least this many set-ups, as far as
/// [`SETUP_EXTRA_S`] more host seconds allow.
const SETUP_SAMPLES: usize = 31;
const SETUP_EXTRA_S: f64 = 1.0;

fn run_pass(
    args: &Args,
    inputs: &Option<inputs::KvInputs>,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    match (args.workload, inputs) {
        (Workload::TraceMix3, _) => {
            pass::mix_pass(args.seed, inputs::MIX_OPS_PER_CORE, tracer).map(|m| m.pass)
        }
        (_, Some(kv)) => pass::kv_pass(kv, args.seed, tracer),
        (_, None) => Err("KV workload without inputs".into()),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("triad-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("triad-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the benchmark and returns the result line.
fn run(args: &Args) -> Result<String, String> {
    let mut problems = Vec::new();
    if args.workload == Workload::TraceMix3 {
        if let Err(e) = reference_check() {
            problems.push(e);
        }
    }
    let kv_inputs = match args.workload {
        Workload::KvUpdateZipf => Some(inputs::kv_update_zipf(args.seed, inputs::ZIPF_REQUESTS)),
        Workload::KvReadCold => Some(inputs::kv_read_cold(args.seed, inputs::COLD_REQUESTS)),
        Workload::TraceMix3 => None,
    };

    // Traced runs alternate untraced and traced passes so the overhead
    // compares like with like.
    let mut tracer = Tracer::new(false);
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let min_passes = if args.trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    // The calibration loop runs before every pass and after the last;
    // each pass is judged by the mean rate on either side of it.
    let mut rates = vec![measure::calibration_rate()];
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        passes.push((traced, run_pass(args, &kv_inputs, &mut tracer)?));
        rates.push(measure::calibration_rate());
    }
    let pass_rate = |k: usize| (rates[k] + rates[k + 1]) / 2.0;

    let first = &passes[0].1.sim;
    for (k, (_, p)) in passes.iter().enumerate().skip(1) {
        if p.sim != *first {
            problems.push(format!(
                "pass {k} disagrees with pass 0 on simulated results"
            ));
            break;
        }
    }
    problems.extend(first.check_failures.iter().cloned());
    problems.extend(first.accounting_problems());
    for p in &problems {
        eprintln!("check failed: {p}");
    }

    // Host speed in ops per second of the reference host.
    let raw_speed = |p: &Pass| p.sim.timed_completed as f64 / p.timed_s / 1e3;
    let speed = |k: usize| raw_speed(&passes[k].1) * REFERENCE_CALIBRATION_RATE / pass_rate(k);
    let host_kops = |traced: bool| {
        let v: Vec<f64> = (0..passes.len())
            .filter(|&k| passes[k].0 == traced)
            .map(speed)
            .collect();
        median(&v)
    };
    let per_pass: Vec<String> = (0..passes.len())
        .map(|k| format!("{:.1}/{:.1}", raw_speed(&passes[k].1), speed(k)))
        .collect();
    println!(
        "host kops/s per pass, raw/reference-host: {}",
        per_pass.join(" ")
    );
    let rate = median(&rates);
    println!(
        "calibration rate {:.4} M/s (reference {:.1} M/s)",
        rate / 1e6,
        REFERENCE_CALIBRATION_RATE / 1e6
    );

    print_summary(args, first, passes.len());
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let traced = passes
            .iter()
            .rfind(|(t, _)| *t)
            .map(|(_, p)| p)
            .ok_or("no traced pass")?;
        let mut m: BTreeMap<String, (f64, &str)> = BTreeMap::new();
        for (name, v) in &first.layers {
            m.insert(name.to_string(), (*v, unit_of(name)));
        }
        for (name, v) in layers::probes(&traced.hot_blocks) {
            m.insert(name.to_string(), (v, "ns"));
        }
        m.insert(
            "service.submit_host_us".into(),
            (traced.submit_host_us.unwrap_or(0.0), "us"),
        );
        for (name, tier) in [("strict", first.strict), ("buffered", first.buffered)] {
            let t = tier.unwrap_or_default();
            m.insert(format!("service.{name}_p99_us"), (t.p99_us, "us"));
            m.insert(
                format!("service.{name}_samples"),
                (t.attempted as f64, "count"),
            );
        }
        m.insert(
            "bench.latency_samples".into(),
            (first.timed as f64, "count"),
        );
        m.insert(
            "bench.samples_beyond_p99".into(),
            (first.beyond_p99 as f64, "count"),
        );
        m.insert(
            "bench.failed_frac".into(),
            (first.failed as f64 / first.attempted as f64, "fraction"),
        );
        let (untraced_k, traced_k) = (host_kops(false), host_kops(true));
        m.insert(
            "bench.host_kops_per_s_untraced".into(),
            (untraced_k, "1/ms"),
        );
        m.insert("bench.host_kops_per_s_traced".into(), (traced_k, "1/ms"));
        m.insert("bench.calibration_mops_per_s".into(), (rate / 1e6, "1/us"));
        m.insert(
            "bench.tracing_overhead_frac".into(),
            (untraced_k / traced_k - 1.0, "fraction"),
        );
        write_spans(args, &tracer)?;
        m.into_iter().map(|(k, (v, u))| (k, v, u)).collect()
    } else {
        // Set-up is short next to a pass for two of the workloads; extra
        // set-ups give its median enough samples to be steady.
        let mut setup: Vec<f64> = passes.iter().map(|(_, p)| p.setup_s).collect();
        let extra = Instant::now();
        while setup.len() < SETUP_SAMPLES && extra.elapsed().as_secs_f64() < SETUP_EXTRA_S {
            setup.push(pass::setup_only(kv_inputs.as_ref(), args.seed)?);
        }
        println!("setup_s raw {}", median(&setup));
        // In seconds of the reference host.
        let setup_s = median(&setup) * rate / REFERENCE_CALIBRATION_RATE;
        let peak_rss =
            measure::peak_rss_mib().ok_or("cannot read peak RSS from /proc/self/status")?;
        vec![
            ("p50_us".into(), first.p50_us, "us"),
            ("p99_us".into(), first.p99_us, "us"),
            ("mean_us".into(), first.mean_us, "us"),
            ("sim_kops_per_s".into(), first.sim_kops_per_s, "1/ms"),
            ("nvm_writes_per_op".into(), first.nvm_writes_per_op, "count"),
            ("host_kops_per_s".into(), host_kops(false), "1/ms"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mib".into(), peak_rss, "MiB"),
        ]
    };
    for (name, v, unit) in &metrics {
        println!("{name:<40} {:>16} {unit}", json_number(*v));
    }

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        problems.is_empty(),
        first.attempted,
        first.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// The unit of a simulated per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_frac") {
        "fraction"
    } else if name.ends_with("_imbalance") {
        "ratio"
    } else if name.ends_with("_ns_per_op") {
        "ns/op"
    } else if ["_per_mutation", "_per_flush", "_per_batch"]
        .iter()
        .any(|s| name.ends_with(s))
    {
        "ratio"
    } else if name.ends_with("_per_kop") {
        "1/kop"
    } else if name.ends_with("_per_op") {
        "1/op"
    } else {
        "count"
    }
}

fn print_summary(args: &Args, sim: &Sim, passes: usize) {
    println!(
        "workload {} seed {} passes {passes} trace {}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    println!(
        "ops attempted {} failed {} failed_frac {:.6} (timed {} completed {}, unverified gets {})",
        sim.attempted,
        sim.failed,
        sim.failed as f64 / sim.attempted as f64,
        sim.timed,
        sim.timed_completed,
        sim.unverified_gets
    );
    println!(
        "failures: when issued {}, wrong reads {}, lost after recovery {}",
        sim.failed_when_issued, sim.wrong_reads, sim.lost_after_recovery
    );
    println!(
        "latency samples {} beyond p99 {}",
        sim.timed, sim.beyond_p99
    );
    for (name, tier) in [("strict", sim.strict), ("buffered", sim.buffered)] {
        if let Some(t) = tier {
            println!(
                "{name}_p99_us {} over {} samples ({} completed, {} failed)",
                json_number(t.p99_us),
                t.attempted,
                t.completed,
                t.failed
            );
        }
    }
}

fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, tracer.to_json_lines())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_mix3_reproduces_the_checked_in_report_cell() {
        assert_eq!(reference_check(), Ok(()));
    }

    #[test]
    fn default_runs_back_p99_with_at_least_ten_samples() {
        for timed in [
            inputs::ZIPF_REQUESTS as u64,
            inputs::COLD_REQUESTS as u64,
            inputs::MIX_OPS_PER_CORE * pass::report_config().cores as u64,
        ] {
            assert!(timed - (0.99 * timed as f64).ceil() as u64 >= 10, "{timed}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("kv-zipf"), None);
    }
}
