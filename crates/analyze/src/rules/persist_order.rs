//! `persist-order`: the mechanized form of PR 1's manual audit, since
//! v2 an *interprocedural* workspace rule. Every public `&mut self`
//! engine operation that (transitively) feeds the metadata eviction
//! queue — counter / MAC / BMT write-backs scheduled by the cache fills
//! (`l3_access`, `l3_store`, `ctr_put`, `mt_put`) and the `ensure_*`
//! helpers — must drain that queue before succeeding;
//! otherwise a crash after the `Ok` return loses queued persists and
//! the recovered BMT disagrees with data NVM, the exact TriadNVM-2
//! regression PR 1 fixed.
//!
//! v1 scoped the audit by file name (`engine.rs`, `batch.rs`,
//! `store.rs`). v2 scopes it by *meaning*: any inherent
//! `impl SecureMemory` (or `impl KvStore`) in `crates/{core,kv,mem}`
//! is audited wherever it lives, and the gate is the inferred effect
//! set — a public op whose persist effects arrive three calls deep is
//! audited exactly like one that calls `mt_put` directly.
//!
//! The walk itself keeps the v1 semantics (they are fixture-locked):
//! a queue-vocabulary call sets a `pending` bit, `drain_evictions`
//! clears it, brace groups are conditional regions (clone in, OR out),
//! and a `return Ok` / tail `Ok` while pending is a finding. What v2
//! adds is the call-site transfer: a call to a *resolved* non-vocab
//! callee applies that callee's [`DrainSummary`], so a helper that
//! enqueues without draining taints its public caller, and a helper
//! that drains on every path (`set == false, dep == false`) cleans it.
//!
//! # The KV section
//!
//! The same rule audits the write-ahead-log protocol of `KvStore`:
//! every public `&mut self` operation with WAL effects must run
//! `log_append` → `log_commit` → `apply_writes` in that order on
//! every Ok path. The walker tracks the *set* of possible protocol
//! states (idle / appended / committed) through brace groups (union
//! on exit, since a branch may not run) and flags an `apply_writes`
//! reachable on a path where the marker may not be durable, an Ok
//! return with a logged transaction left unapplied — and, since v2, a
//! call to any helper whose [`WalSummary`] applies writes from a
//! maybe-uncommitted input state.
//!
//! # The recov section
//!
//! The detectably recoverable structures in `crates/recov` carry the
//! same shape of contract on operation completion: a thread's volatile
//! seqno may only advance (`seqno_bump`) after its completion
//! checkpoint is durable (`checkpoint_persist`), on every Ok path —
//! otherwise a crash re-executes an operation that already took
//! effect (the exactly-once guarantee breaks). The rule audits every
//! public `&mut self` fn in the recov crate whose inferred effects
//! touch the checkpoint vocabulary, reusing the WAL state machinery:
//! `checkpoint_persist` is commit-like, `seqno_bump` apply-like, and
//! both a bump from a maybe-unpersisted state and an Ok return with a
//! durable-but-unconsumed checkpoint are findings.

use crate::effects::{
    WalSummary, APPENDS_LOG, APPLIES_WRITES, BUMPS_SEQNO, EMITS_COMMIT_MARKER, PERSISTS_CHECKPOINT,
    PERSISTS_DATA, PERSISTS_METADATA, ST_APPENDED, ST_COMMITTED, ST_IDLE,
};
use crate::lexer::Span;
use crate::lint::{Finding, Severity, WorkspaceRule};
use crate::symbols::{crate_of, FnDef};
use crate::tree::Tok;
use crate::Workspace;

/// See module docs.
pub struct PersistOrder;

/// The type whose public surface the engine audit covers.
const ENGINE_TYPE: &str = "SecureMemory";

/// The type whose public surface the KV section covers.
const KV_TYPE: &str = "KvStore";

/// The crates whose `SecureMemory`/`KvStore` impls are audited.
const AUDITED_CRATES: &[&str] = &["core", "kv", "mem"];

/// The crate whose whole public `&mut self` surface the checkpoint
/// section covers (the contract follows the vocabulary, not a type:
/// `ThreadCtx` and the step machines all complete operations).
const CKPT_CRATE: &str = "recov";

impl WorkspaceRule for PersistOrder {
    fn id(&self) -> &'static str {
        "persist-order"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "public engine ops must drain the eviction queue, and KV ops must \
         order log append -> commit marker -> index apply, on every Ok path \
         (interprocedural: effects inferred through the call graph)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for (i, f) in ws.symbols.fns.iter().enumerate() {
            let file = &ws.files[f.file];
            let krate = crate_of(&file.path);
            if !matches!(krate, Some(c) if AUDITED_CRATES.contains(&c) || c == CKPT_CRATE) {
                continue;
            }
            if !f.is_pub || !f.mut_self || f.trait_impl || file.is_test_line(f.span.line) {
                continue;
            }
            if krate == Some(CKPT_CRATE) {
                if ws.effects.effects[i] & (PERSISTS_CHECKPOINT | BUMPS_SEQNO) == 0 {
                    continue;
                }
                let mut states = ST_IDLE;
                let mut w = CkptWalk {
                    ws,
                    f,
                    rule: self,
                    path: &file.path,
                    out,
                };
                w.walk(&f.body, &mut states, true);
                continue;
            }
            match f.owner.as_deref() {
                Some(ENGINE_TYPE) => {
                    if ws.effects.effects[i] & (PERSISTS_METADATA | PERSISTS_DATA) == 0 {
                        // Pure wrappers with no queue reach: nothing to
                        // audit.
                        continue;
                    }
                    let mut pending = false;
                    let mut w = EngineWalk {
                        ws,
                        f,
                        rule: self,
                        path: &file.path,
                        out,
                    };
                    w.walk(&f.body, &mut pending, true);
                }
                Some(KV_TYPE) => {
                    if ws.effects.effects[i] & (APPENDS_LOG | EMITS_COMMIT_MARKER | APPLIES_WRITES)
                        == 0
                    {
                        continue;
                    }
                    let mut states = ST_IDLE;
                    let mut w = KvWalk {
                        ws,
                        f,
                        rule: self,
                        path: &file.path,
                        out,
                    };
                    w.walk(&f.body, &mut states, true);
                }
                _ => {}
            }
        }
    }
}

/// Whether `toks[i]` is a call `name(...)`, returning the name.
/// `fn name(params)` (a nested definition) is not a call.
fn call_at(toks: &[Tok], i: usize) -> Option<&str> {
    if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_ident("struct")) {
        return None;
    }
    toks[i]
        .ident()
        .filter(|_| matches!(toks.get(i + 1), Some(g) if g.is_group('(')))
}

/// The concrete eviction-queue walker over one audited fn.
struct EngineWalk<'a, 'o> {
    ws: &'a Workspace,
    f: &'a FnDef,
    rule: &'a PersistOrder,
    path: &'a str,
    out: &'o mut Vec<Finding>,
}

impl EngineWalk<'_, '_> {
    fn walk(&mut self, toks: &[Tok], pending: &mut bool, top: bool) {
        let mut i = 0;
        while i < toks.len() {
            if let Some(name) = call_at(toks, i) {
                let transfer = crate::effects::primitive_drain(name).or_else(|| {
                    self.ws
                        .symbols
                        .resolve(self.f, name)
                        .filter(|_| crate::effects::primitive_effects(name) == 0)
                        .map(|c| self.ws.effects.drains[c])
                });
                if let Some(t) = transfer {
                    if let Some(Tok::Group { tokens, .. }) = toks.get(i + 1) {
                        // Arguments evaluate before the call takes
                        // effect.
                        self.walk(tokens, pending, false);
                    }
                    *pending = t.apply(*pending);
                    i += 2;
                    continue;
                }
            }
            match &toks[i] {
                t if t.is_ident("return")
                    && *pending
                    && matches!(toks.get(i + 1), Some(x) if x.is_ident("Ok")) =>
                {
                    self.report(t.span(), "returns Ok");
                }
                Tok::Group {
                    delim: '{', tokens, ..
                } => {
                    // A brace group is a conditional region: findings
                    // on returns inside use the state flowing in, and
                    // any enqueue inside taints the parent, but a
                    // drain inside cannot clear the parent (the branch
                    // may not run).
                    let mut inner = *pending;
                    self.walk(tokens, &mut inner, false);
                    *pending |= inner;
                }
                Tok::Group { tokens, .. } => {
                    self.walk(tokens, pending, false);
                }
                _ => {}
            }
            i += 1;
        }
        if top && *pending {
            let n = toks.len();
            if n >= 2 && toks[n - 2].is_ident("Ok") && toks[n - 1].is_group('(') {
                self.report(toks[n - 2].span(), "falls off the end with Ok");
            }
        }
    }

    fn report(&mut self, span: Span, how: &str) {
        self.out.push(Finding {
            rule: self.rule.id(),
            severity: self.rule.severity(),
            path: self.path.to_string(),
            line: span.line,
            col: span.col,
            message: format!(
                "`{}` {how} while the eviction queue may hold undrained persists; \
                 call `drain_evictions` before succeeding",
                self.f.name
            ),
        });
    }
}

/// The concrete WAL-protocol walker over one audited fn: tracks the
/// set of possible WAL states through the token tree. Brace groups are
/// conditional regions — the state set is cloned in and unioned out,
/// so a `log_commit` inside an `if` leaves "maybe uncommitted" alive
/// on the parent path.
struct KvWalk<'a, 'o> {
    ws: &'a Workspace,
    f: &'a FnDef,
    rule: &'a PersistOrder,
    path: &'a str,
    out: &'o mut Vec<Finding>,
}

impl KvWalk<'_, '_> {
    fn walk(&mut self, toks: &[Tok], states: &mut u8, top: bool) {
        let mut i = 0;
        while i < toks.len() {
            if let Some(name) = call_at(toks, i) {
                let transfer: Option<(WalSummary, bool)> = crate::effects::primitive_wal(name)
                    .map(|w| (w, true))
                    .or_else(|| {
                        self.ws
                            .symbols
                            .resolve(self.f, name)
                            .filter(|_| crate::effects::primitive_effects(name) == 0)
                            .map(|c| (self.ws.effects.wals[c], false))
                            .filter(|(w, _)| *w != WalSummary::IDENTITY)
                    });
                if let Some((t, direct)) = transfer {
                    if let Some(Tok::Group { tokens, .. }) = toks.get(i + 1) {
                        // Arguments evaluate before the call takes
                        // effect.
                        self.walk(tokens, states, false);
                    }
                    if t.unsafe_on(*states) {
                        let how = if direct {
                            "applies transaction writes on a path where the \
                             commit marker may not be durable"
                                .to_string()
                        } else {
                            format!(
                                "calls `{name}`, which applies transaction writes, on a \
                                 path where the commit marker may not be durable"
                            )
                        };
                        self.report(toks[i].span(), &how);
                    }
                    *states = t.apply(*states);
                    i += 2;
                    continue;
                }
            }
            match &toks[i] {
                t if t.is_ident("return")
                    && *states & (ST_APPENDED | ST_COMMITTED) != 0
                    && matches!(toks.get(i + 1), Some(x) if x.is_ident("Ok")) =>
                {
                    self.report(
                        t.span(),
                        "returns Ok with a logged transaction not yet applied",
                    );
                }
                Tok::Group {
                    delim: '{', tokens, ..
                } => {
                    let mut inner = *states;
                    self.walk(tokens, &mut inner, false);
                    *states |= inner;
                }
                Tok::Group { tokens, .. } => {
                    self.walk(tokens, states, false);
                }
                _ => {}
            }
            i += 1;
        }
        if top && *states & (ST_APPENDED | ST_COMMITTED) != 0 {
            let n = toks.len();
            if n >= 2 && toks[n - 2].is_ident("Ok") && toks[n - 1].is_group('(') {
                self.report(
                    toks[n - 2].span(),
                    "falls off the end with Ok while a logged transaction is not yet applied",
                );
            }
        }
    }

    fn report(&mut self, span: Span, how: &str) {
        self.out.push(Finding {
            rule: self.rule.id(),
            severity: self.rule.severity(),
            path: self.path.to_string(),
            line: span.line,
            col: span.col,
            message: format!(
                "`{}` {how}; the WAL contract is \
                 log_append -> log_commit -> apply_writes on every Ok path",
                self.f.name
            ),
        });
    }
}

/// The checkpoint-completion walker over one audited recov fn: the
/// same state-set machinery as [`KvWalk`], instantiated with the
/// checkpoint vocabulary ([`crate::effects::primitive_ckpt`]). Live
/// states are idle and committed (checkpoint durable); the violations
/// are a `seqno_bump` reachable from a maybe-unpersisted state and an
/// Ok return with a durable checkpoint whose bump never happened.
struct CkptWalk<'a, 'o> {
    ws: &'a Workspace,
    f: &'a FnDef,
    rule: &'a PersistOrder,
    path: &'a str,
    out: &'o mut Vec<Finding>,
}

impl CkptWalk<'_, '_> {
    fn walk(&mut self, toks: &[Tok], states: &mut u8, top: bool) {
        let mut i = 0;
        while i < toks.len() {
            if let Some(name) = call_at(toks, i) {
                let transfer: Option<(WalSummary, bool)> = crate::effects::primitive_ckpt(name)
                    .map(|w| (w, true))
                    .or_else(|| {
                        self.ws
                            .symbols
                            .resolve(self.f, name)
                            .filter(|_| crate::effects::primitive_effects(name) == 0)
                            .map(|c| (self.ws.effects.ckpts[c], false))
                            .filter(|(w, _)| *w != WalSummary::IDENTITY)
                    });
                if let Some((t, direct)) = transfer {
                    if let Some(Tok::Group { tokens, .. }) = toks.get(i + 1) {
                        // Arguments evaluate before the call takes
                        // effect.
                        self.walk(tokens, states, false);
                    }
                    if t.unsafe_on(*states) {
                        let how = if direct {
                            "advances the operation seqno on a path where the \
                             completion checkpoint may not be durable"
                                .to_string()
                        } else {
                            format!(
                                "calls `{name}`, which advances the operation seqno, on a \
                                 path where the completion checkpoint may not be durable"
                            )
                        };
                        self.report(toks[i].span(), &how);
                    }
                    *states = t.apply(*states);
                    i += 2;
                    continue;
                }
            }
            match &toks[i] {
                t if t.is_ident("return")
                    && *states & (ST_APPENDED | ST_COMMITTED) != 0
                    && matches!(toks.get(i + 1), Some(x) if x.is_ident("Ok")) =>
                {
                    self.report(
                        t.span(),
                        "returns Ok with a durable checkpoint whose seqno bump never ran",
                    );
                }
                Tok::Group {
                    delim: '{', tokens, ..
                } => {
                    let mut inner = *states;
                    self.walk(tokens, &mut inner, false);
                    *states |= inner;
                }
                Tok::Group { tokens, .. } => {
                    self.walk(tokens, states, false);
                }
                _ => {}
            }
            i += 1;
        }
        if top && *states & (ST_APPENDED | ST_COMMITTED) != 0 {
            let n = toks.len();
            if n >= 2 && toks[n - 2].is_ident("Ok") && toks[n - 1].is_group('(') {
                self.report(
                    toks[n - 2].span(),
                    "falls off the end with Ok while a durable checkpoint's seqno bump never ran",
                );
            }
        }
    }

    fn report(&mut self, span: Span, how: &str) {
        self.out.push(Finding {
            rule: self.rule.id(),
            severity: self.rule.severity(),
            path: self.path.to_string(),
            line: span.line,
            col: span.col,
            message: format!(
                "`{}` {how}; the completion contract is \
                 checkpoint_persist -> seqno_bump on every Ok path",
                self.f.name
            ),
        });
    }
}
