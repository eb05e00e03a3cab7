//! `panic-policy`: non-test code of `crates/core`, `crates/mem`,
//! `crates/meta`, `crates/kv`, `crates/recov` and the KV serving
//! layer (`crates/workloads/src/service.rs`) must not `unwrap()`,
//! `expect(...)` or `panic!`. A
//! crash-recovery engine that aborts mid-operation is indistinguishable
//! from the crashes it models; fallible paths return
//! `SecureMemoryError`, internal invariants use `debug_assert!`.
//!
//! Matched forms are the method calls `.unwrap()` / `.expect(...)` and
//! the `panic!` macro; `unwrap_or*`, `assert!` and `unreachable!` are
//! deliberately out of scope.

use crate::lint::{FileAnalysis, Finding, Rule, Severity};
use crate::rules::walk_slices;

/// See module docs.
pub struct PanicPolicy;

/// Crates holding the persistence-critical state machines, and the
/// serving path in front of them.
const SCOPES: &[&str] = &[
    "crates/core/",
    "crates/mem/",
    "crates/meta/",
    "crates/kv/",
    "crates/recov/",
    "crates/workloads/src/service.rs",
];

impl Rule for PanicPolicy {
    fn id(&self) -> &'static str {
        "panic-policy"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "unwrap/expect/panic! in non-test code of core/mem/meta/kv/recov or the serving path aborts the engine mid-operation"
    }

    fn check(&self, file: &FileAnalysis, out: &mut Vec<Finding>) {
        if !file.in_any(SCOPES) {
            return;
        }
        walk_slices(&file.toks, &mut |toks, i| {
            let Some(name) = toks[i].ident() else {
                return;
            };
            let hit = match name {
                "unwrap" | "expect" => {
                    i > 0
                        && toks[i - 1].is_punct('.')
                        && matches!(toks.get(i + 1), Some(g) if g.is_group('('))
                }
                "panic" => matches!(toks.get(i + 1), Some(t) if t.is_punct('!')),
                _ => false,
            };
            if !hit {
                return;
            }
            let span = toks[i].span();
            if file.is_test_line(span.line) {
                return;
            }
            let (what, fix) = match name {
                "panic" => ("`panic!`", "return an error variant"),
                _ => (
                    "this call",
                    "propagate a `SecureMemoryError` or use `debug_assert!`",
                ),
            };
            out.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                path: file.path.clone(),
                line: span.line,
                col: span.col,
                message: format!("{what} can abort the engine mid-operation; {fix}"),
            });
        });
    }
}
