//! The interprocedural analyses: panic-reachability, determinism taint,
//! and lock discipline.
//!
//! The lexical rules (PR 3) police single lines; these passes police
//! *paths*. They share one substrate — [`crate::parse`] items assembled
//! into a [`crate::graph::Workspace`] call graph — and one reporting
//! convention: every finding carries the full call chain (or taint path)
//! from the anchor symbol to the offending site, both in the rendered
//! message (`a::f -> b::g -> h: unwrap`) and as structured
//! [`Frame`]s in `--json`.
//!
//! Suppression reuses the `// alem-lint: allow(rule) -- reason` grammar
//! at the *source* site (a vetted `unwrap` stops being a panic source for
//! every path through it) and at the *anchor* site (a vetted sink or
//! guard region). Pre-existing findings land in the committed baseline
//! (see [`crate::baseline`]) so enforcement only bites on regressions.

pub mod locks;
pub mod panic_reach;
pub mod taint;

use crate::graph::{self, Workspace};
use crate::parse::{parse_file, ParsedFile};
use crate::rules::{parse_allows, Allows, Finding, Frame};

/// Crates the semantic passes never traverse into: `obs` is exempt from
/// panic/taint analysis by the same rationale as the lexical `no-panic`
/// exemption (Mutex-poisoning idiom; telemetry never feeds fingerprints),
/// and the linter does not analyze itself.
const TRAVERSAL_EXEMPT: &[&str] = &["obs", "lint"];

/// The workspace graph plus per-file allow annotations.
pub struct Semantic {
    /// The parsed workspace and call graph.
    pub ws: Workspace,
    /// Per-file allow annotations, parallel to `ws.files`.
    pub(crate) allows: Vec<Allows>,
}

impl Semantic {
    /// Whether any of `rules` is allow-annotated at `line` of `file`.
    pub fn allowed(&self, file: usize, rules: &[&str], line: usize) -> bool {
        rules.iter().any(|r| self.allows[file].covers(r, line))
    }

    /// Whether a symbol participates in interprocedural traversal:
    /// library code, outside `#[cfg(test)]`, in a non-exempt crate.
    pub fn traversable(&self, sym: usize) -> bool {
        let s = &self.ws.symbols[sym];
        s.is_lib && !s.is_test && !TRAVERSAL_EXEMPT.contains(&s.krate.as_str())
    }

    /// Build a chain [`Frame`] for a symbol, with an optional note.
    pub fn frame(&self, sym: usize, note: &str) -> Frame {
        let (line, _) = self.ws.position_of(sym);
        Frame {
            symbol: self.ws.symbols[sym].display.clone(),
            path: self.ws.file_of(sym).rel.clone(),
            line,
            note: note.to_string(),
        }
    }
}

/// Parse and analyze a set of in-memory files. `files` are
/// `(workspace-relative path, source)` pairs — the entry point the
/// fixture tests and the workspace driver share.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|(rel, src)| parse_file(rel, src))
        .collect();
    analyze(graph::build(parsed))
}

/// Run all three analyses over a built workspace graph.
pub fn analyze(ws: Workspace) -> Vec<Finding> {
    let allows: Vec<Allows> = ws.files.iter().map(|f| parse_allows(&f.lexed)).collect();
    let sem = Semantic { ws, allows };
    let mut findings = Vec::new();
    findings.extend(panic_reach::run(&sem));
    findings.extend(taint::run(&sem));
    findings.extend(locks::run(&sem));
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
    findings.dedup_by(|a, b| (&a.path, a.line, a.col, a.rule) == (&b.path, b.line, b.col, b.rule));
    findings
}

/// Multi-target shortest-hop routing: for every symbol, the next hop on a
/// shortest path (by call depth) to any of `targets`, traversing only
/// `passable` symbols. Returns `route[sym]`:
///
/// - `None` — no target reachable;
/// - `Some(None)` — `sym` is itself a target;
/// - `Some(Some(next))` — first hop of a shortest path.
///
/// Deterministic: BFS layers expand in sorted symbol order, so ties break
/// toward the lowest symbol id (stable across runs).
pub(crate) fn route_to(
    ws: &Workspace,
    targets: &[usize],
    passable: &dyn Fn(usize) -> bool,
) -> Vec<Option<Option<usize>>> {
    let n = ws.symbols.len();
    // Reverse adjacency: rev[callee] = callers.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, edges) in ws.edges.iter().enumerate() {
        for (callee, _) in edges {
            rev[*callee].push(caller);
        }
    }
    for r in &mut rev {
        r.sort_unstable();
        r.dedup();
    }
    let mut route: Vec<Option<Option<usize>>> = vec![None; n];
    let mut frontier: Vec<usize> = targets.to_vec();
    frontier.sort_unstable();
    frontier.dedup();
    for &t in &frontier {
        route[t] = Some(None);
    }
    while !frontier.is_empty() {
        let mut next_frontier = Vec::new();
        for &cur in &frontier {
            for &caller in &rev[cur] {
                if route[caller].is_none() && passable(caller) {
                    route[caller] = Some(Some(cur));
                    next_frontier.push(caller);
                }
            }
        }
        next_frontier.sort_unstable();
        next_frontier.dedup();
        frontier = next_frontier;
    }
    route
}

/// Follow a [`route_to`] table from `start` to the terminal target.
pub(crate) fn walk_route(route: &[Option<Option<usize>>], start: usize) -> Vec<usize> {
    let mut path = vec![start];
    let mut cur = start;
    while let Some(Some(next)) = route[cur] {
        path.push(next);
        cur = next;
        if path.len() > route.len() {
            break; // cycle guard; cannot happen with BFS trees
        }
    }
    path
}
