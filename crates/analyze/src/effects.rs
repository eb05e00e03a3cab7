//! Per-function persist-effect inference.
//!
//! Every function gets a set of *effects* — what it does to NVM
//! durability state — inferred from a primitive vocabulary at the
//! leaves and propagated transitively through the call graph:
//!
//! | effect | primitive vocabulary |
//! |---|---|
//! | [`APPENDS_LOG`] | `log_append`, `log_txn` |
//! | [`EMITS_COMMIT_MARKER`] | `log_commit`, `log_txn` |
//! | [`PERSISTS_DATA`] | `writeback_data` |
//! | [`PERSISTS_METADATA`] | `l3_access`, `l3_store`, `ctr_put`, `mt_put`, `ensure_*`, `reclaim` (and the legacy `l3_touch`, `ctr_touch`, `mt_touch`) |
//! | [`DRAINS_WPQ`] | `drain_evictions` |
//! | [`APPLIES_WRITES`] | `apply_writes` |
//! | [`CRASH_BOUNDARY`] | `inject_crash*` |
//!
//! The vocabulary takes precedence over call-graph resolution: a call
//! *named* `log_txn` means append-plus-marker even when the definition
//! is visible, so a single fixture file analysed stand-alone behaves
//! exactly like the same code inside the full workspace.
//!
//! On top of the effect sets, each function gets two flow *summaries* —
//! transfer functions a caller can apply at a call site without
//! re-walking the callee:
//!
//! * [`DrainSummary`] for the eviction-queue discipline:
//!   `pending_out = (dep && pending_in) || set`. An enqueue is
//!   `{dep:_, set:true}`, a drain `{dep:false, set:false}`, an
//!   unrelated call the identity `{dep:true, set:false}`. Composition
//!   is function composition; a brace group (conditional region)
//!   contributes `{dep:true, set: inner.set}` — it can taint the
//!   caller's path but never clean it, exactly the v1 clone-in/OR-out
//!   semantics.
//! * [`WalSummary`] for the WAL protocol: a map from each input state
//!   (idle / appended / committed) to the *set* of possible output
//!   states, plus the set of input states under which executing the
//!   function applies writes without a durable commit marker
//!   (`unsafe_in`).
//!
//! Summaries are computed to a fixpoint (recursion-tolerant, with an
//! iteration cap) so `A → B → C → mt_put` gives `A` the enqueue
//! summary even though no queue primitive appears in `A`'s own body.

use crate::callgraph::CallGraph;
use crate::symbols::{FnDef, SymbolTable};
use crate::tree::Tok;

/// A bitset of persist effects.
pub type EffectSet = u16;

/// Appends a WAL record (durability point for the payload).
pub const APPENDS_LOG: EffectSet = 1 << 0;
/// Persists a WAL commit marker.
pub const EMITS_COMMIT_MARKER: EffectSet = 1 << 1;
/// Schedules a data-line write-back on the eviction queue.
pub const PERSISTS_DATA: EffectSet = 1 << 2;
/// Schedules a metadata (counter / MAC / BMT) write-back.
pub const PERSISTS_METADATA: EffectSet = 1 << 3;
/// Drains the write-pending queue to NVM.
pub const DRAINS_WPQ: EffectSet = 1 << 4;
/// May cut execution at a persist boundary (crash injection).
pub const CRASH_BOUNDARY: EffectSet = 1 << 5;
/// Applies logged writes to the live index/entry state.
pub const APPLIES_WRITES: EffectSet = 1 << 6;
/// Persists a per-thread recovery checkpoint (value + seqno record).
pub const PERSISTS_CHECKPOINT: EffectSet = 1 << 7;
/// Advances a thread's volatile operation seqno past its checkpoint.
pub const BUMPS_SEQNO: EffectSet = 1 << 8;

/// Human-readable names of the effects set in `e`, for diagnostics.
pub fn effect_names(e: EffectSet) -> Vec<&'static str> {
    let mut out = Vec::new();
    for (bit, name) in [
        (APPENDS_LOG, "AppendsLog"),
        (EMITS_COMMIT_MARKER, "EmitsCommitMarker"),
        (PERSISTS_DATA, "PersistsData"),
        (PERSISTS_METADATA, "PersistsMetadata"),
        (DRAINS_WPQ, "DrainsWpq"),
        (CRASH_BOUNDARY, "CrashBoundary"),
        (APPLIES_WRITES, "AppliesWrites"),
        (PERSISTS_CHECKPOINT, "PersistsCheckpoint"),
        (BUMPS_SEQNO, "BumpsSeqno"),
    ] {
        if e & bit != 0 {
            out.push(name);
        }
    }
    out
}

/// The effects a call has *by name* — the primitive vocabulary. Always
/// consulted before call-graph resolution.
pub fn primitive_effects(name: &str) -> EffectSet {
    match name {
        // The engine's on-chip cache fills, each of which may push a
        // victim onto the eviction queue. The `*_touch` names are the
        // same primitives from before the caches held their values;
        // the fixture suite is written against them.
        "l3_access" | "l3_store" | "ctr_put" | "mt_put" | "l3_touch" | "ctr_touch" | "mt_touch"
        | "reclaim" | "ensure_counter" | "ensure_node" | "ensure_mac_block" => PERSISTS_METADATA,
        "writeback_data" => PERSISTS_DATA,
        "drain_evictions" => DRAINS_WPQ,
        "log_append" => APPENDS_LOG,
        "log_commit" => EMITS_COMMIT_MARKER,
        "log_txn" => APPENDS_LOG | EMITS_COMMIT_MARKER,
        "apply_writes" => APPLIES_WRITES,
        "checkpoint_persist" => PERSISTS_CHECKPOINT,
        "seqno_bump" => BUMPS_SEQNO,
        n if n.starts_with("inject_crash") => CRASH_BOUNDARY,
        _ => 0,
    }
}

/// Eviction-queue transfer function: `pending_out = dep·pending_in ∨ set`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Whether an undrained queue at entry survives to exit.
    pub dep: bool,
    /// Whether the fn leaves the queue non-empty regardless of entry.
    pub set: bool,
}

impl DrainSummary {
    /// Does nothing to the queue.
    pub const IDENTITY: DrainSummary = DrainSummary {
        dep: true,
        set: false,
    };
    /// Enqueues a write-back: pending afterwards, unconditionally.
    pub const ENQUEUE: DrainSummary = DrainSummary {
        dep: false,
        set: true,
    };
    /// Drains the queue: clean afterwards, unconditionally.
    pub const DRAIN: DrainSummary = DrainSummary {
        dep: false,
        set: false,
    };

    /// Applies the transfer to a concrete pending bit.
    pub fn apply(self, pending: bool) -> bool {
        (self.dep && pending) || self.set
    }

    /// Sequential composition: `self` runs first, then `next`.
    pub fn then(self, next: DrainSummary) -> DrainSummary {
        DrainSummary {
            dep: next.dep && self.dep,
            set: (next.dep && self.set) || next.set,
        }
    }

    /// The transfer a conditional region (brace group) with body
    /// summary `self` contributes to its parent: the region may not
    /// run, so it can taint the parent (`set`) but never clean it.
    pub fn branched(self) -> DrainSummary {
        DrainSummary {
            dep: true,
            set: self.set,
        }
    }
}

/// WAL protocol states (a bitset — analyses track *sets* of states).
pub const ST_IDLE: u8 = 1;
/// A transaction is appended but its commit marker may not be durable.
pub const ST_APPENDED: u8 = 2;
/// The commit marker is durable; applying writes is safe.
pub const ST_COMMITTED: u8 = 4;

/// WAL transfer function: per input state, the set of possible output
/// states, plus the input states under which the fn applies writes
/// without a durable commit marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalSummary {
    /// `out[i]` is the output state set for input state `1 << i`.
    pub out: [u8; 3],
    /// Input states on which executing the fn is a protocol violation.
    pub unsafe_in: u8,
}

impl WalSummary {
    /// Does nothing to the WAL.
    pub const IDENTITY: WalSummary = WalSummary {
        out: [ST_IDLE, ST_APPENDED, ST_COMMITTED],
        unsafe_in: 0,
    };
    /// `log_append`: any state → appended.
    pub const APPEND: WalSummary = WalSummary {
        out: [ST_APPENDED; 3],
        unsafe_in: 0,
    };
    /// `log_commit` / `log_txn`: any state → committed.
    pub const COMMIT: WalSummary = WalSummary {
        out: [ST_COMMITTED; 3],
        unsafe_in: 0,
    };
    /// `apply_writes`: only safe from committed; any state → idle.
    pub const APPLY: WalSummary = WalSummary {
        out: [ST_IDLE; 3],
        unsafe_in: ST_IDLE | ST_APPENDED,
    };

    /// Applies the transfer to a concrete state set.
    pub fn apply(self, states: u8) -> u8 {
        let mut out = 0;
        for (b, o) in self.out.iter().enumerate() {
            if states & (1 << b) != 0 {
                out |= o;
            }
        }
        out
    }

    /// Whether executing the fn from any state in `states` violates
    /// the protocol.
    pub fn unsafe_on(self, states: u8) -> bool {
        self.unsafe_in & states != 0
    }

    /// Sequential composition: `self` runs first, then `next`.
    pub fn then(self, next: WalSummary) -> WalSummary {
        let mut out = [0u8; 3];
        let mut unsafe_in = self.unsafe_in;
        for (b, slot) in out.iter_mut().enumerate() {
            let mid = self.out[b];
            *slot = next.apply(mid);
            if next.unsafe_in & mid != 0 {
                unsafe_in |= 1 << b;
            }
        }
        WalSummary { out, unsafe_in }
    }

    /// The transfer a conditional region with body summary `self`
    /// contributes to its parent (region may not run: union with the
    /// unchanged input state).
    pub fn branched(self) -> WalSummary {
        let mut out = [0u8; 3];
        for (b, slot) in out.iter_mut().enumerate() {
            *slot = (1 << b) | self.out[b];
        }
        WalSummary {
            out,
            unsafe_in: self.unsafe_in,
        }
    }
}

/// The drain transfer a call has by name, when it has one.
pub fn primitive_drain(name: &str) -> Option<DrainSummary> {
    let e = primitive_effects(name);
    if e & (PERSISTS_METADATA | PERSISTS_DATA) != 0 {
        Some(DrainSummary::ENQUEUE)
    } else if e & DRAINS_WPQ != 0 {
        Some(DrainSummary::DRAIN)
    } else {
        None
    }
}

/// The WAL transfer a call has by name, when it has one.
pub fn primitive_wal(name: &str) -> Option<WalSummary> {
    match name {
        "log_append" => Some(WalSummary::APPEND),
        "log_commit" | "log_txn" => Some(WalSummary::COMMIT),
        "apply_writes" => Some(WalSummary::APPLY),
        _ => None,
    }
}

/// The checkpoint transfer a call has by name, when it has one.
///
/// The recoverable-structure completion contract reuses the
/// [`WalSummary`] state machine with only two live states:
/// `checkpoint_persist` makes the thread's completion record durable
/// (any state → committed, like a commit marker), and `seqno_bump`
/// consumes it (committed → idle). Bumping the volatile seqno from a
/// non-committed state is the violation: after a crash the thread's
/// durable checkpoint lags its volatile progress and recovery
/// re-executes an operation that already took effect.
pub fn primitive_ckpt(name: &str) -> Option<WalSummary> {
    match name {
        "checkpoint_persist" => Some(WalSummary::COMMIT),
        "seqno_bump" => Some(WalSummary::APPLY),
        _ => None,
    }
}

/// Inferred effects and summaries, parallel to [`SymbolTable::fns`].
#[derive(Debug, Default)]
pub struct EffectTable {
    /// Transitive effect set per fn.
    pub effects: Vec<EffectSet>,
    /// Eviction-queue transfer per fn.
    pub drains: Vec<DrainSummary>,
    /// WAL transfer per fn.
    pub wals: Vec<WalSummary>,
    /// Checkpoint/seqno transfer per fn (recov completion contract).
    pub ckpts: Vec<WalSummary>,
}

/// Iteration cap for the fixpoint: summaries propagate at least one
/// call-graph level per pass, and no real chain in this workspace is
/// anywhere near this deep. A cycle that fails to converge is left at
/// its last (conservative, monotone-grown) value.
const MAX_PASSES: usize = 16;

impl EffectTable {
    /// Infers effects and summaries for every fn to a fixpoint.
    pub fn build(symbols: &SymbolTable, _graph: &CallGraph) -> EffectTable {
        let n = symbols.fns.len();
        let mut t = EffectTable {
            effects: vec![0; n],
            drains: vec![DrainSummary::IDENTITY; n],
            wals: vec![WalSummary::IDENTITY; n],
            ckpts: vec![WalSummary::IDENTITY; n],
        };
        for _ in 0..MAX_PASSES {
            let mut changed = false;
            for (i, f) in symbols.fns.iter().enumerate() {
                // A fn that *is* vocabulary keeps its primitive effect
                // even if its body is opaque to the scanner.
                let mut eff = primitive_effects(&f.name);
                let mut dr = DrainSummary::IDENTITY;
                let mut wal = WalSummary::IDENTITY;
                let mut ck = WalSummary::IDENTITY;
                summarize(
                    &f.body, f, symbols, &t, &mut eff, &mut dr, &mut wal, &mut ck,
                );
                if eff != t.effects[i] || dr != t.drains[i] || wal != t.wals[i] || ck != t.ckpts[i]
                {
                    t.effects[i] = eff;
                    t.drains[i] = dr;
                    t.wals[i] = wal;
                    t.ckpts[i] = ck;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        t
    }
}

/// One symbolic pass over a body: accumulates effects and composes the
/// running transfer. Mirrors the concrete walker in
/// `rules::persist_order`: call arguments evaluate before the call
/// takes effect, brace groups are conditional regions, other groups
/// are transparent.
#[allow(clippy::too_many_arguments)]
fn summarize(
    toks: &[Tok],
    f: &FnDef,
    symbols: &SymbolTable,
    t: &EffectTable,
    eff: &mut EffectSet,
    dr: &mut DrainSummary,
    wal: &mut WalSummary,
    ck: &mut WalSummary,
) {
    let mut i = 0;
    while i < toks.len() {
        let call = toks[i]
            .ident()
            .filter(|_| matches!(toks.get(i + 1), Some(g) if g.is_group('(')))
            .filter(|_| {
                // `fn name(params)` inside a body is a nested
                // definition, not a call.
                !(i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_ident("struct")))
            });
        if let Some(name) = call {
            if let Some(Tok::Group { tokens, .. }) = toks.get(i + 1) {
                summarize(tokens, f, symbols, t, eff, dr, wal, ck);
            }
            let pe = primitive_effects(name);
            if pe != 0 {
                *eff |= pe;
                if let Some(d) = primitive_drain(name) {
                    *dr = dr.then(d);
                }
                if let Some(w) = primitive_wal(name) {
                    *wal = wal.then(w);
                }
                if let Some(c) = primitive_ckpt(name) {
                    *ck = ck.then(c);
                }
            } else if let Some(c) = symbols.resolve(f, name) {
                *eff |= t.effects[c];
                *dr = dr.then(t.drains[c]);
                *wal = wal.then(t.wals[c]);
                *ck = ck.then(t.ckpts[c]);
            }
            i += 2;
            continue;
        }
        match &toks[i] {
            Tok::Group {
                delim: '{', tokens, ..
            } => {
                let mut ieff = 0;
                let mut idr = DrainSummary::IDENTITY;
                let mut iwal = WalSummary::IDENTITY;
                let mut ick = WalSummary::IDENTITY;
                summarize(
                    tokens, f, symbols, t, &mut ieff, &mut idr, &mut iwal, &mut ick,
                );
                *eff |= ieff;
                *dr = dr.then(idr.branched());
                *wal = wal.then(iwal.branched());
                *ck = ck.then(ick.branched());
            }
            Tok::Group { tokens, .. } => {
                summarize(tokens, f, symbols, t, eff, dr, wal, ck);
            }
            _ => {}
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::FileAnalysis;

    fn build(src: &str) -> (SymbolTable, EffectTable) {
        let fa = FileAnalysis::new("crates/core/src/x.rs", src);
        let symbols = SymbolTable::build(std::slice::from_ref(&fa));
        let graph = CallGraph::build(&symbols);
        let effects = EffectTable::build(&symbols, &graph);
        (symbols, effects)
    }

    fn idx(s: &SymbolTable, name: &str) -> usize {
        s.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn effects_propagate_through_call_chains() {
        let (s, t) = build(
            "fn a(&mut self) { b() }\nfn b(&mut self) { c() }\nfn c(&mut self) { self.l3_touch(1); }\n",
        );
        assert_eq!(t.effects[idx(&s, "a")], PERSISTS_METADATA);
        assert_eq!(effect_names(t.effects[idx(&s, "a")]), ["PersistsMetadata"]);
    }

    #[test]
    fn cache_fill_primitives_enqueue() {
        let (s, t) = build(
            "fn put_node(&mut self) { self.mt_put(1, v, true)?; }\n\
             fn put_ctr(&mut self) { self.ctr_put(1, v, true)?; }\n\
             fn fill(&mut self) { let (hit, line) = self.l3_access(1, false); }\n\
             fn store(&mut self) { self.l3_store(1, d); }\n\
             fn caller(&mut self) { self.put_node(); }\n",
        );
        for f in ["put_node", "put_ctr", "fill", "store", "caller"] {
            assert_eq!(t.effects[idx(&s, f)], PERSISTS_METADATA, "{f}");
            assert_eq!(t.drains[idx(&s, f)], DrainSummary::ENQUEUE, "{f}");
        }
    }

    #[test]
    fn drain_summaries_compose_and_branch() {
        let (s, t) = build(
            "fn enq() { l3_touch(1); }\n\
             fn enq_then_drain() { l3_touch(1); drain_evictions(0); }\n\
             fn cond_drain() { l3_touch(1); if x { drain_evictions(0); } }\n",
        );
        assert_eq!(t.drains[idx(&s, "enq")], DrainSummary::ENQUEUE);
        assert_eq!(t.drains[idx(&s, "enq_then_drain")], DrainSummary::DRAIN);
        // A conditional drain cannot clean the path: still pending.
        assert_eq!(t.drains[idx(&s, "cond_drain")], DrainSummary::ENQUEUE);
    }

    #[test]
    fn wal_summaries_track_protocol_states() {
        let (s, t) = build(
            "fn good() { log_txn(x); apply_writes(x); }\n\
             fn bad() { log_append(x); apply_writes(x); }\n\
             fn cond_commit() { log_append(x); if y { log_commit(x); } apply_writes(x); }\n",
        );
        let good = t.wals[idx(&s, "good")];
        assert_eq!(good.unsafe_in, 0);
        assert_eq!(good.apply(ST_IDLE), ST_IDLE);
        let bad = t.wals[idx(&s, "bad")];
        assert_ne!(bad.unsafe_in & ST_IDLE, 0, "applies while only appended");
        let cond = t.wals[idx(&s, "cond_commit")];
        assert_ne!(
            cond.unsafe_in & ST_IDLE,
            0,
            "commit under an if leaves maybe-uncommitted alive"
        );
    }

    #[test]
    fn ckpt_summaries_track_persist_before_bump() {
        let (s, t) = build(
            "fn good() { checkpoint_persist(m); seqno_bump(); }\n\
             fn bad() { seqno_bump(); checkpoint_persist(m); }\n\
             fn cond_persist() { if y { checkpoint_persist(m); } seqno_bump(); }\n\
             fn wrapper() { good(); }\n",
        );
        let good = t.ckpts[idx(&s, "good")];
        assert_eq!(good.unsafe_in, 0);
        assert_eq!(good.apply(ST_IDLE), ST_IDLE);
        let bad = t.ckpts[idx(&s, "bad")];
        assert_ne!(bad.unsafe_in & ST_IDLE, 0, "bump before the checkpoint");
        let cond = t.ckpts[idx(&s, "cond_persist")];
        assert_ne!(
            cond.unsafe_in & ST_IDLE,
            0,
            "checkpoint under an if leaves maybe-unpersisted alive"
        );
        // Summaries propagate: the wrapper inherits the safe transfer
        // and both effect bits.
        assert_eq!(t.ckpts[idx(&s, "wrapper")].unsafe_in, 0);
        let eff = t.effects[idx(&s, "wrapper")];
        assert_ne!(eff & PERSISTS_CHECKPOINT, 0);
        assert_ne!(eff & BUMPS_SEQNO, 0);
    }

    #[test]
    fn vocabulary_beats_resolution() {
        // A local fn *named* log_txn is still append+commit by name —
        // the contract is attached to the vocabulary, so fixtures and
        // the real workspace agree.
        let (s, t) = build(
            "fn log_txn(&mut self) { }\nfn op(&mut self) { self.log_txn(); apply_writes(x); }\n",
        );
        let op = t.wals[idx(&s, "op")];
        assert_eq!(op.unsafe_in, 0, "txn committed before apply");
        assert_ne!(t.effects[idx(&s, "op")] & EMITS_COMMIT_MARKER, 0);
    }
}
