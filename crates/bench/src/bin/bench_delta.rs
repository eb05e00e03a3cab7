//! `bench-delta`: compares two `triad-report` JSON files row by row
//! and prints the p95-latency and `persist_metadata_writes`-per-op
//! deltas for every (workload, scheme) cell present in both.
//!
//! With `--check` the exit code becomes a CI gate: it fails when the
//! schema versions differ, when no rows match, or when any matched row
//! *regresses* — a higher p95 bucket, a >1% higher metadata-write rate
//! per op, or a cell that recovered in the baseline but no longer
//! does. Rows only in the baseline are reported but not fatal (the
//! smoke matrix is a subset of the full one).
//!
//! CI runs one gate: the `triad-report --smoke` matrix against the
//! checked-in `BENCH_pr12.json`, the one baseline.
//!
//! Usage:
//!   cargo run -p triad-bench --release --bin bench-delta -- \
//!       BENCH_pr12.json NEW.json [--check]
//!
//! The parser is hand-rolled for the report's own fixed-key-order
//! output (the workspace builds with zero external crates); it is not
//! a general JSON reader.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The per-row fields the delta cares about.
#[derive(Debug, Clone)]
struct Row {
    ops: u64,
    p95: u64,
    mean: f64,
    persist_metadata_writes: u64,
    recovered: bool,
}

impl Row {
    fn pmw_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.persist_metadata_writes as f64 / self.ops as f64
        }
    }
}

/// Extracts the string / number right after `"key": ` in `cell`.
fn field<'a>(cell: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = cell.find(&pat)? + pat.len();
    let rest = &cell[start..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn str_field(cell: &str, key: &str) -> Option<String> {
    Some(field(cell, key)?.trim_matches('"').to_string())
}

fn u64_field(cell: &str, key: &str) -> Option<u64> {
    field(cell, key)?.parse().ok()
}

fn f64_field(cell: &str, key: &str) -> Option<f64> {
    field(cell, key)?.parse().ok()
}

/// Rows keyed by (workload, scheme).
type Rows = BTreeMap<(String, String), Row>;

/// Parses a report file into (schema version, rows by workload/scheme).
fn parse(path: &str) -> Result<(u64, Rows), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let version = u64_field(&text, "version").ok_or_else(|| format!("{path}: no version"))?;
    let mut rows = BTreeMap::new();
    // Each cell is one `{ "workload": ... }` object on its own line.
    for line in text.lines() {
        let cell = line.trim().trim_end_matches(',');
        if !cell.starts_with("{ \"workload\"") {
            continue;
        }
        let workload =
            str_field(cell, "workload").ok_or_else(|| format!("{path}: cell without workload"))?;
        let scheme =
            str_field(cell, "scheme").ok_or_else(|| format!("{path}: cell without scheme"))?;
        let row = Row {
            ops: u64_field(cell, "ops").ok_or_else(|| format!("{path}: cell without ops"))?,
            p95: u64_field(cell, "p95").ok_or_else(|| format!("{path}: cell without p95"))?,
            mean: f64_field(cell, "mean").unwrap_or(0.0),
            persist_metadata_writes: u64_field(cell, "persist_metadata_writes")
                .ok_or_else(|| format!("{path}: cell without persist_metadata_writes"))?,
            recovered: field(cell, "recovered") == Some("true"),
        };
        rows.insert((workload, scheme), row);
    }
    Ok((version, rows))
}

fn main() -> ExitCode {
    let mut check = false;
    let mut paths = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--check" => check = true,
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, new_path] = paths.as_slice() else {
        eprintln!("usage: bench-delta BASELINE.json NEW.json [--check]");
        return ExitCode::from(2);
    };

    let (bv, baseline) = match parse(baseline_path) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("bench-delta: {e}");
            return ExitCode::from(2);
        }
    };
    let (nv, new) = match parse(new_path) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("bench-delta: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures: Vec<String> = Vec::new();
    if bv != nv {
        failures.push(format!("schema version changed: {bv} -> {nv}"));
    }

    println!(
        "{:<12} {:>12} {:>14} {:>18} {:>12}",
        "workload", "scheme", "p95 ns", "meta writes/op", "mean ns"
    );
    println!("{}", "-".repeat(72));
    let mut matched = 0usize;
    for ((w, s), b) in &baseline {
        let Some(n) = new.get(&(w.clone(), s.clone())) else {
            println!("{w:<12} {s:>12}   (not in {new_path})");
            continue;
        };
        matched += 1;
        println!(
            "{:<12} {:>12} {:>5} -> {:<5} {:>7.3} -> {:<7.3} {:>5.0} -> {:<5.0}",
            w,
            s,
            b.p95,
            n.p95,
            b.pmw_per_op(),
            n.pmw_per_op(),
            b.mean,
            n.mean,
        );
        if n.p95 > b.p95 {
            failures.push(format!("{w}/{s}: p95 regressed {} -> {}", b.p95, n.p95));
        }
        if n.pmw_per_op() > b.pmw_per_op() * 1.01 {
            failures.push(format!(
                "{w}/{s}: persist_metadata_writes/op regressed {:.3} -> {:.3}",
                b.pmw_per_op(),
                n.pmw_per_op()
            ));
        }
        if b.recovered && !n.recovered {
            failures.push(format!("{w}/{s}: recovery regressed"));
        }
    }
    if matched == 0 {
        failures.push("no matching rows between the two reports".to_string());
    }
    println!("\n{matched} matched rows, {} failures", failures.len());
    for f in &failures {
        eprintln!("bench-delta: FAIL: {f}");
    }
    if check && !failures.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
