//! The workspace itself must lint clean, and every rule must
//! demonstrably catch a seeded mutant of the *real* sources — proof
//! the CI gate guards something real, not just hand-built fixtures.
//! Each mutant test follows the same shape: assert the pristine file
//! is clean under the rule, seed one realistic defect, assert the
//! rule fires.

use std::path::{Path, PathBuf};

fn read_crate_file(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Findings of `rule` when `source` is linted under its real path.
fn findings_for(rel: &str, source: &str, rule: &str) -> Vec<(u32, String)> {
    triad_analyze::analyze_source(rel, source)
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.message))
        .collect()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn repo_lints_clean() {
    let report = triad_analyze::analyze_repo(&repo_root()).expect("scan workspace");
    assert!(report.files_scanned > 50, "walker found the workspace");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}:{} [{}] {}", f.path, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        report.findings.is_empty(),
        "triad-lint findings on the workspace:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn engine_mutant_without_drain_is_flagged() {
    let engine_path = repo_root().join("crates/core/src/engine.rs");
    let engine = std::fs::read_to_string(&engine_path).expect("read engine.rs");

    // The pristine engine is clean under persist-order.
    let clean = triad_analyze::analyze_source("crates/core/src/engine.rs", &engine);
    assert!(clean.iter().all(|f| f.rule != "persist-order"), "{clean:?}");

    // Remove each drain call in turn; at least the store/persist-path
    // mutants must be caught.
    let needle = "self.drain_evictions(now)?;";
    let sites = engine.matches(needle).count();
    assert!(sites >= 5, "expected several drain sites, saw {sites}");
    let mut caught = 0;
    for k in 0..sites {
        let mut mutant = String::with_capacity(engine.len());
        let mut seen = 0;
        let mut rest = engine.as_str();
        while let Some(pos) = rest.find(needle) {
            mutant.push_str(&rest[..pos]);
            if seen != k {
                mutant.push_str(needle);
            }
            seen += 1;
            rest = &rest[pos + needle.len()..];
        }
        mutant.push_str(rest);
        let findings = triad_analyze::analyze_source("crates/core/src/engine.rs", &mutant);
        if findings.iter().any(|f| f.rule == "persist-order") {
            caught += 1;
        }
    }
    assert!(
        caught >= sites / 2,
        "persist-order caught only {caught}/{sites} drain-removal mutants"
    );
    assert!(caught > 0, "no mutant was flagged");
}

/// The byte range of `apply_group`'s `self.log_txn(..)...?;`
/// statement — the store's one log-then-apply sequence.
fn apply_group_txn_statement(store: &str) -> std::ops::Range<usize> {
    let group = store
        .find("pub fn apply_group(")
        .expect("apply_group anchor moved");
    let start = group
        + store[group..]
            .find("        self.log_txn(mem, seq, &writes)")
            .expect("apply_group's log_txn anchor moved");
    let end = start + store[start..].find("?;\n").expect("statement end") + 3;
    start..end
}

#[test]
fn kv_mutant_without_txn_append_is_flagged() {
    // Remove the batched append-plus-marker from the real store's
    // group commit: the surviving `apply_writes` now runs from the
    // idle WAL state, the exact torn-transaction window the rule
    // exists for.
    let rel = "crates/kv/src/store.rs";
    let store = read_crate_file(rel);
    assert!(findings_for(rel, &store, "persist-order").is_empty());

    let mut mutant = store.clone();
    mutant.replace_range(apply_group_txn_statement(&store), "");
    let hits = findings_for(rel, &mutant, "persist-order");
    assert!(!hits.is_empty(), "apply without append/commit not flagged");
    assert!(
        hits.iter().any(|(_, m)| m.contains("commit marker")),
        "{hits:?}"
    );
}

#[test]
fn recov_mutant_without_seqno_bump_is_flagged() {
    // Strip the bump from the real completion path: the durable
    // checkpoint now outruns the thread's volatile seqno, so the next
    // operation would reuse a sequence number the checkpoint already
    // covers — the exactly-once violation the recov section exists
    // for.
    let rel = "crates/recov/src/memento.rs";
    let memento = read_crate_file(rel);
    assert!(findings_for(rel, &memento, "persist-order").is_empty());

    let needle = "        self.seqno_bump();\n";
    assert!(memento.contains(needle), "seqno_bump anchor moved");
    let mutant = memento.replacen(needle, "", 1);
    let hits = findings_for(rel, &mutant, "persist-order");
    assert!(!hits.is_empty(), "checkpoint without bump not flagged");
    assert!(
        hits.iter().any(|(_, m)| m.contains("seqno bump")),
        "{hits:?}"
    );
}

#[test]
fn engine_mutant_with_shared_static_is_flagged() {
    // Seed a process-global tick counter into the real engine and
    // bump it from the hottest public op: exactly the shared-state
    // hazard a sharded front-end would trip on.
    let rel = "crates/core/src/engine.rs";
    let engine = read_crate_file(rel);
    let rule = "shard-safety/shared-mutable-static";
    assert!(findings_for(rel, &engine, rule).is_empty());

    let sig =
        "pub fn store_block(&mut self, block: BlockAddr, data: Block, now: Time) -> Result<Time> {";
    assert!(engine.contains(sig), "store_block anchor moved");
    let mutant = format!(
        "static LINT_MUTANT_TICKS: core::sync::atomic::AtomicU64 =\n    \
         core::sync::atomic::AtomicU64::new(0);\n{}",
        engine.replacen(
            sig,
            &format!("{sig}\n        LINT_MUTANT_TICKS.fetch_add(1, Ordering::Relaxed);"),
            1
        )
    );
    let hits = findings_for(rel, &mutant, rule);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, 1, "flagged at the static's definition");
    assert!(hits[0].1.contains("LINT_MUTANT_TICKS"), "{}", hits[0].1);
}

#[test]
fn stats_mutant_with_hashed_merge_is_flagged() {
    // Reroute the real `StatSet::merge` through a default-hashed
    // scratch map: shard results would merge in RandomState order.
    let rel = "crates/sim/src/stats.rs";
    let stats = read_crate_file(rel);
    let rule = "shard-safety/nondeterministic-merge";
    assert!(findings_for(rel, &stats, rule).is_empty());

    let sig = "pub fn merge(&mut self, other: &StatSet) {";
    assert!(stats.contains(sig), "merge anchor moved");
    let mutant = stats.replacen(
        sig,
        &format!(
            "{sig}\n        let mut scratch = HashMap::new();\n        scratch.insert(0u64, 0u64);"
        ),
        1,
    );
    let hits = findings_for(rel, &mutant, rule);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].1.contains("merge"), "{}", hits[0].1);
}

#[test]
fn workload_mutant_with_cloned_rng_is_flagged() {
    // Duplicate the request generator's RNG by cloning instead of
    // deriving a stream: two "independent" shards replay the same
    // randomness.
    let rel = "crates/workloads/src/service.rs";
    let service = read_crate_file(rel);
    let rule = "shard-safety/rng-fork-discipline";
    assert!(findings_for(rel, &service, rule).is_empty());

    let anchor = "let mut rng = SplitMix64::stream(seed, 0x73_7276_6372_6571);";
    assert!(service.contains(anchor), "rng anchor moved");
    let mutant = service.replacen(
        anchor,
        &format!("{anchor}\n    let _shared = rng.clone();"),
        1,
    );
    let hits = findings_for(rel, &mutant, rule);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].1.contains("rng"), "{}", hits[0].1);
}

#[test]
fn stripping_a_suppression_rationale_is_flagged() {
    // Delete the `-- reason` from a real suppression: the allow still
    // silences its rule, but the missing rationale becomes a finding.
    let rel = "crates/meta/src/bmt.rs";
    let bmt = read_crate_file(rel);
    let rule = "suppression-rationale";
    assert!(findings_for(rel, &bmt, rule).is_empty());

    let tail = " -- documented panic; the MAC block is 64 bytes so every slot < 8 is in range";
    assert!(bmt.contains(tail), "rationale anchor moved");
    let mutant = bmt.replacen(tail, "", 1);
    let hits = findings_for(rel, &mutant, rule);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].1.contains("no rationale"), "{}", hits[0].1);
    // The naked allow still suppresses its target rule — the
    // rationale finding must not resurrect what it silenced.
    assert!(findings_for(rel, &mutant, "panic-policy").is_empty());
}

#[test]
fn service_mutant_persisting_on_the_volatile_path_is_flagged() {
    // Make the real InMemory admission path "durable" by logging the
    // overlay insert — the exact shortcut the durability contract's
    // invariant D8 exists to forbid.
    let rel = "crates/workloads/src/service.rs";
    let service = read_crate_file(rel);
    let rule = "durability-contract";
    assert!(findings_for(rel, &service, rule).is_empty());

    let anchor = "self.volatile.insert(key, value);";
    assert!(service.contains(anchor), "stage_volatile anchor moved");
    let mutant = service.replacen(
        anchor,
        &format!("self.store.log_txn(key);\n        {anchor}"),
        1,
    );
    let hits = findings_for(rel, &mutant, rule);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].1.contains("volatile tier"), "{}", hits[0].1);
}

#[test]
fn store_mutant_with_a_payload_less_marker_is_flagged() {
    // Swap `apply_group`'s batched append-plus-marker for a bare
    // marker: the commit frontier would advance over a transaction
    // recovery cannot replay. `put` and `delete` are one-mutation
    // groups, so the effect inference carries the defect to them too.
    let rel = "crates/kv/src/store.rs";
    let store = read_crate_file(rel);
    let rule = "durability-contract";
    assert!(findings_for(rel, &store, rule).is_empty());

    let txn = apply_group_txn_statement(&store);
    let statement = store[txn.clone()].replacen("self.log_txn(", "self.log_commit(", 1);
    let mut mutant = store.clone();
    mutant.replace_range(txn, &statement);
    let hits = findings_for(rel, &mutant, rule);
    let flagged: Vec<&str> = hits
        .iter()
        .map(|(_, m)| m.split('`').nth(1).unwrap_or_default())
        .collect();
    assert_eq!(flagged, ["put", "delete", "apply_group"], "{hits:?}");
    assert!(
        hits.iter().all(|(_, m)| m.contains("commit marker")),
        "{hits:?}"
    );
}
