//! Call graph: structural call-site extraction (`name(...)` — an
//! identifier directly followed by a parenthesis group) resolved
//! through the [`crate::symbols::SymbolTable`]. Method calls
//! (`self.l3_access(...)`), free calls and `Self::op(...)` paths all
//! end in the same `ident (args)` shape, so one pattern covers them;
//! macro invocations (`vec![]`, `panic!(...)`) have a `!` between the
//! name and the group and are naturally excluded.

use crate::lexer::Span;
use crate::symbols::SymbolTable;
use crate::tree::Tok;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`drain_evictions`).
    pub name: String,
    /// Where the name appears.
    pub span: Span,
    /// The resolved definition in the symbol table, when unambiguous.
    pub callee: Option<usize>,
}

/// Per-function call sites, parallel to [`SymbolTable::fns`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `calls[i]` are the call sites inside `symbols.fns[i]`.
    pub calls: Vec<Vec<CallSite>>,
}

/// Keywords that can syntactically precede a parenthesis without being
/// a call (`if (cond)`, `return (x)`, tuple patterns after `let`).
const NON_CALL: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "fn", "in", "as", "move", "where",
    "unsafe", "await", "let", "mut", "ref", "break", "continue", "self", "impl",
];

/// Extracts every `name(...)` call site in a body, depth first.
pub fn call_sites(body: &[Tok]) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    scan(body, &mut out);
    out
}

fn scan(toks: &[Tok], out: &mut Vec<(String, Span)>) {
    for (i, t) in toks.iter().enumerate() {
        if let Some(name) = t.ident() {
            // `fn name(params)` / `struct Name(fields)` are
            // definitions, not calls.
            let is_def = i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_ident("struct"));
            if !is_def
                && !NON_CALL.contains(&name)
                && matches!(toks.get(i + 1), Some(g) if g.is_group('('))
            {
                out.push((name.to_string(), t.span()));
            }
        }
        if let Tok::Group { tokens, .. } = t {
            scan(tokens, out);
        }
    }
}

impl CallGraph {
    /// Builds the graph by resolving every call site of every fn.
    pub fn build(symbols: &SymbolTable) -> CallGraph {
        let mut calls = Vec::with_capacity(symbols.fns.len());
        for f in &symbols.fns {
            let sites = call_sites(&f.body)
                .into_iter()
                .map(|(name, span)| {
                    let callee = symbols.resolve(f, &name);
                    CallSite { name, span, callee }
                })
                .collect();
            calls.push(sites);
        }
        CallGraph { calls }
    }

    /// The set of fns reachable from `roots` through resolved edges
    /// (roots included).
    pub fn reachable(&self, roots: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut seen = vec![false; self.calls.len()];
        let mut stack: Vec<usize> = roots.into_iter().collect();
        while let Some(i) = stack.pop() {
            if i >= seen.len() || seen[i] {
                continue;
            }
            seen[i] = true;
            for site in &self.calls[i] {
                if let Some(c) = site.callee {
                    if !seen[c] {
                        stack.push(c);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::FileAnalysis;

    #[test]
    fn extracts_calls_not_macros_or_keywords() {
        let fa = FileAnalysis::new(
            "x.rs",
            "fn f() { if (a) { g(1); self.h(); vec![1]; println!(\"x\"); Ok(()) } }",
        );
        let names: Vec<String> = call_sites(&fa.toks).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["g", "h", "Ok"]);
    }

    #[test]
    fn edges_resolve_and_reachability_follows_them() {
        let fa = FileAnalysis::new(
            "crates/core/src/a.rs",
            "pub fn top() { mid() }\nfn mid() { leaf() }\nfn leaf() {}\nfn island() {}\n",
        );
        let symbols = SymbolTable::build(std::slice::from_ref(&fa));
        let g = CallGraph::build(&symbols);
        let top = symbols.fns.iter().position(|f| f.name == "top").unwrap();
        let island = symbols.fns.iter().position(|f| f.name == "island").unwrap();
        let reach = g.reachable([top]);
        assert!(reach[top]);
        assert!(reach[symbols.fns.iter().position(|f| f.name == "leaf").unwrap()]);
        assert!(!reach[island]);
    }
}
