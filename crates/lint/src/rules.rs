//! The project-invariant rule catalog.
//!
//! Every rule guards an invariant the test suite established in earlier
//! PRs and that ordinary Rust tooling cannot know about:
//!
//! | rule | invariant |
//! |---|---|
//! | `determinism-rng` | all randomness flows from a seeded `StdRng`; `thread_rng`/`from_entropy`/`SystemTime` would silently break `RunResult::deterministic_fingerprint` |
//! | `determinism-time` | library timing flows through `alem_obs::Span::finish()`; ad-hoc `Instant::now()` belongs only in `crates/obs` and bench/CLI binaries |
//! | `determinism-hash-iter` | `crates/core` library code uses `BTreeMap`/`BTreeSet` (or sorted vectors), never `HashMap`/`HashSet`, because hash iteration order varies per process |
//! | `no-panic` | library targets of `core`, `mlcore`, `linalg`, `textsim`, `datagen` route failures through `AlemError` instead of `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` |
//! | `par-only-threads` | threads are created only inside `crates/par`: compute fan-outs via `alem_par::Parallelism` (thread-count-invariant chunking), long-lived service threads via `alem_par::supervised::spawn` (named, panic-containing); `thread::spawn`/`thread::scope`/`crossbeam::scope`/`thread::Builder` are flagged everywhere else |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `vendor-path-deps` | every `[workspace.dependencies]` entry is an offline `vendor/` or `crates/` path dependency (PR 1's offline-registry invariant) |
//! | `obs-naming` | instrumented subsystems keep telemetry inside their registered family prefixes (selectors: `select.*`/`feat.*`, and every selector file that records telemetry registers `select.pairs_scored`; serve: `serve.*`/`checkpoint.*`; flight recorder: `obs.*`) and never hard-code trace ids — ids arrive from the client on the wire |
//! | `flat-feature-store` | `crates/core` library code never allocates a `Vec<Vec<f64>>` feature matrix outside `core::featurestore` — the flat SoA [`FeatureStore`](../../core/src/featurestore.rs) is the one feature-matrix representation (row-per-`Vec` defeats its cache layout and lazy memoization) |
//! | `bad-allow` | an `// alem-lint: allow(...)` annotation must state a non-empty reason |
//!
//! Escape hatch: `// alem-lint: allow(<rule>) -- <reason>` suppresses the
//! named rule on the annotation's line and the line below it. The reason
//! is mandatory — a reasonless allow is itself reported (`bad-allow`) and
//! suppresses nothing.

use crate::lexer::{lex, Lexed};
use std::collections::BTreeMap;
use std::fmt;

/// Crates whose **library targets** must be panic-free (tests, benches,
/// and binaries are exempt; `obs` is exempt because `std::sync::Mutex`
/// poisoning makes `lock().unwrap()` the idiomatic non-poisoned read).
const NO_PANIC_CRATES: &[&str] = &["block", "core", "mlcore", "linalg", "textsim", "datagen"];

/// Obs-name prefix selector modules must use, per DESIGN.md §7.
const SELECTOR_OBS_PREFIX: &str = "select";

/// The counter every selector module that records telemetry must
/// register (§5.1 latency instrumentation: scored = inspected − skipped).
const SELECTOR_REQUIRED_COUNTER: &str = "select.pairs_scored";

/// Which telemetry-name families a file may register, and which counter
/// (if any) it must register. One policy per instrumented subsystem so a
/// new metric cannot silently invent a family the dashboards and
/// `validate_metrics.py --require` lists don't know about.
struct ObsNamingPolicy {
    /// Allowed first segments of dotted obs names.
    families: &'static [&'static str],
    /// A counter the file must register if it records any telemetry, if
    /// the subsystem has one. A file that records nothing (a pure scorer
    /// whose round the shared picker records) is exempt.
    required_counter: Option<&'static str>,
    /// Short label used in diagnostics ("selector", "serve", ...).
    subsystem: &'static str,
}

/// Look up the naming policy for a workspace-relative path; files
/// without a policy get no obs-naming enforcement (their test scaffolding
/// uses throwaway names on purpose).
fn obs_naming_policy(rel: &str) -> Option<ObsNamingPolicy> {
    if rel.starts_with("crates/core/src/selector/") {
        // Selectors own `select.*`; the two-phase lazy selector also
        // reports feature-extraction telemetry under `feat.*`
        // (`feat.phase1_only`), the family the feature store shares.
        return Some(ObsNamingPolicy {
            families: &[SELECTOR_OBS_PREFIX, "feat"],
            required_counter: Some(SELECTOR_REQUIRED_COUNTER),
            subsystem: "selector",
        });
    }
    if rel.starts_with("crates/serve/src/") {
        // The fleet emits `serve.*` plus the checkpoint spans shared with
        // the session store; admin-plane additions stay inside `serve.*`
        // (e.g. `serve.admin.*`).
        return Some(ObsNamingPolicy {
            families: &["serve", "checkpoint"],
            required_counter: None,
            subsystem: "serve",
        });
    }
    if rel.starts_with("crates/block/src/") {
        // Candidate generation owns `block.*`: index build/probe spans
        // and the pairs-emitted counters of DESIGN.md §13.
        return Some(ObsNamingPolicy {
            families: &["block"],
            required_counter: None,
            subsystem: "blocking",
        });
    }
    if rel == "crates/obs/src/flight.rs" {
        return Some(ObsNamingPolicy {
            families: &["obs"],
            required_counter: None,
            subsystem: "flight recorder",
        });
    }
    None
}

/// How a source file participates in the build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileClass {
    /// Part of a crate's library target; `krate` is the directory name
    /// under `crates/`.
    Lib {
        /// Crate directory name (e.g. `"core"` for `alem-core`).
        krate: String,
    },
    /// A binary, bench, test, or example target.
    NonLib,
    /// Not scanned (vendored shims, lint fixtures, build output).
    Skip,
}

/// Classify a workspace-relative path (unix separators).
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.contains("/fixtures/")
        || rel.starts_with(".")
    {
        return FileClass::Skip;
    }
    if rel.starts_with("examples/") || rel.starts_with("tests/") {
        return FileClass::NonLib;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        let Some((krate, inner)) = rest.split_once('/') else {
            return FileClass::Skip;
        };
        if krate == "cli" {
            // The CLI crate is a single binary target.
            return FileClass::NonLib;
        }
        if inner.starts_with("benches/")
            || inner.starts_with("tests/")
            || inner.starts_with("examples/")
            || inner.starts_with("src/bin/")
            || inner == "src/main.rs"
        {
            return FileClass::NonLib;
        }
        if inner.starts_with("src/") {
            return FileClass::Lib {
                krate: krate.to_string(),
            };
        }
        return FileClass::Skip;
    }
    FileClass::Skip
}

/// Default severity of a rule, rendered in diagnostics. Severity is
/// presentational: the exit code and the CI gate count every
/// non-baselined finding regardless of severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Violates a hard invariant.
    Error,
    /// Worth a look; over-approximation is expected.
    Warning,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Registry entry for one rule: identifier, default severity, one-line
/// rationale.
pub struct RuleMeta {
    /// Rule identifier (`no-panic`, `panic-reach`, …).
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description of the guarded invariant.
    pub doc: &'static str,
}

/// Register the rule catalog in one table: identifier, severity, doc,
/// and — for per-file lexical rules — the dispatch function `lint_source`
/// drives. Semantic (interprocedural) and structural (crate-root,
/// manifest, walker-level) rules register metadata only; their drivers
/// live in [`crate::analyses`] and the dedicated entry points.
macro_rules! rules {
    ($($id:literal { severity: $sev:ident $(, dispatch: $run:expr)? $(,)? }: $doc:literal),+ $(,)?) => {
        /// Every rule the linter can emit.
        pub const RULES: &[RuleMeta] = &[
            $(RuleMeta { id: $id, severity: Severity::$sev, doc: $doc }),+
        ];
        /// Lexical rules dispatched per file, in registration order.
        const LEXICAL_RULES: &[fn(&mut Ctx<'_>, &FileClass)] = &[
            $($($run,)?)+
        ];
    };
}

rules! {
    "determinism-rng" { severity: Error, dispatch: rule_determinism_rng }:
        "ambient RNG/time sources would silently break deterministic fingerprints",
    "determinism-time" { severity: Error, dispatch: rule_determinism_time }:
        "library timing flows through alem_obs::Span::finish(), not Instant::now()",
    "determinism-hash-iter" { severity: Error, dispatch: rule_hash_iter }:
        "core library code orders its maps (BTree or sorted); hash iteration varies per process",
    "no-panic" { severity: Error, dispatch: rule_no_panic }:
        "no-panic crates route failures through AlemError, never unwrap/expect/panic!",
    "par-only-threads" { severity: Error, dispatch: rule_par_only_threads }:
        "threads are created only inside crates/par (Parallelism / supervised::spawn)",
    "flat-feature-store" { severity: Error, dispatch: rule_flat_feature_store }:
        "core allocates no Vec<Vec<f64>> feature matrix outside core::featurestore",
    "obs-naming" { severity: Error, dispatch: rule_obs_naming_dispatch }:
        "telemetry names stay inside registered families; trace ids arrive on the wire",
    "bad-allow" { severity: Error }:
        "an alem-lint allow annotation must state a non-empty reason",
    "forbid-unsafe" { severity: Error }:
        "every crate root carries #![forbid(unsafe_code)]",
    "vendor-path-deps" { severity: Error }:
        "workspace dependencies resolve to offline vendor/ or crates/ paths",
    "panic-reach" { severity: Error }:
        "no pub library API has a transitive call path to unwrap/expect/panic!",
    "index-reach" { severity: Warning }:
        "no pub orchestration API reaches unchecked slice indexing (kernels exempt)",
    "determinism-taint" { severity: Error }:
        "no nondeterminism source reaches a fingerprint-relevant sink along the call graph",
    "lock-discipline" { severity: Error }:
        "no IO/serialization/cyclic lock acquisition while a registry/fleet/session guard is live",
}

/// Default severity of a rule id (unknown ids default to error).
pub fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Error)
}

/// One hop of a call chain or taint path attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Fully qualified symbol (`core::session::Session::step`).
    pub symbol: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line (the symbol's definition, or the offending site for
    /// the terminal frame).
    pub line: usize,
    /// Terminal annotation (`unwrap`, `ambient rng`, …); empty for
    /// intermediate hops.
    pub note: String,
}

/// One diagnostic produced by the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `"no-panic"`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Interprocedural call chain / taint path (empty for lexical rules).
    pub chain: Vec<Frame>,
}

impl Finding {
    /// Construct a chainless finding.
    pub fn new(rule: &'static str, path: String, line: usize, col: usize, message: String) -> Self {
        Finding {
            rule,
            path,
            line,
            col,
            message,
            chain: Vec::new(),
        }
    }

    /// Attach an interprocedural chain.
    pub fn with_chain(mut self, chain: Vec<Frame>) -> Self {
        self.chain = chain;
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}[{}]: {}",
            severity_of(self.rule).label(),
            self.rule,
            self.message
        )?;
        write!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        for fr in &self.chain {
            write!(f, "\n  = {} ({}:{})", fr.symbol, fr.path, fr.line)?;
            if !fr.note.is_empty() {
                write!(f, " — {}", fr.note)?;
            }
        }
        Ok(())
    }
}

/// Per-file allow annotations: rule → lines where it is suppressed.
pub(crate) struct Allows {
    by_rule: BTreeMap<String, Vec<usize>>,
    bad: Vec<(usize, String)>,
}

/// Parse `// alem-lint: allow(<rule>) -- <reason>` annotations. The
/// suppression covers the comment's own line and the next line (so the
/// annotation can sit inline or on the line above the flagged code).
pub(crate) fn parse_allows(lexed: &Lexed) -> Allows {
    let mut by_rule: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.trim().strip_prefix("alem-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad.push((
                c.line,
                format!("unrecognized alem-lint annotation: `{rest}`"),
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            bad.push((c.line, "unclosed `allow(` annotation".to_string()));
            continue;
        };
        let rule = args[..close].trim().to_string();
        let tail = args[close + 1..].trim();
        let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad.push((
                c.line,
                format!("allow({rule}) needs a reason: `// alem-lint: allow({rule}) -- <why>`"),
            ));
            continue;
        }
        by_rule
            .entry(rule)
            .or_default()
            .extend([c.line, c.line + 1]);
    }
    Allows { by_rule, bad }
}

impl Allows {
    pub(crate) fn covers(&self, rule: &str, line: usize) -> bool {
        self.by_rule.get(rule).is_some_and(|ls| ls.contains(&line))
    }
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offsets where `word` occurs as a whole identifier in `code`.
fn ident_occurrences(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before = start == 0 || !is_ident_byte(bytes[start - 1]);
        let ok_after = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if ok_before && ok_after {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

/// First non-whitespace byte at or after `from`.
fn next_nonspace(code: &str, from: usize) -> Option<u8> {
    code.as_bytes()[from..]
        .iter()
        .copied()
        .find(|b| !b.is_ascii_whitespace())
}

/// The trimmed code immediately preceding `offset` (used to attribute a
/// string literal to the call it is an argument of, tolerating rustfmt
/// line breaks).
fn preceding_code(code: &str, offset: usize) -> &str {
    code[..offset].trim_end()
}

struct Ctx<'a> {
    rel: &'a str,
    lexed: &'a Lexed,
    allows: &'a Allows,
    findings: &'a mut Vec<Finding>,
}

impl Ctx<'_> {
    fn report(&mut self, rule: &'static str, offset: usize, message: String) {
        let (line, col) = self.lexed.position(offset);
        if self.allows.covers(rule, line) {
            return;
        }
        self.findings
            .push(Finding::new(rule, self.rel.to_string(), line, col, message));
    }

    fn report_at_line(&mut self, rule: &'static str, line: usize, message: String) {
        if self.allows.covers(rule, line) {
            return;
        }
        self.findings
            .push(Finding::new(rule, self.rel.to_string(), line, 1, message));
    }
}

/// Lint one source file. `rel` is the workspace-relative path (unix
/// separators) — it determines which rules apply via [`classify`].
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    let class = classify(rel);
    if class == FileClass::Skip {
        return Vec::new();
    }
    let lexed = lex(source);
    let allows = parse_allows(&lexed);
    let mut findings = Vec::new();
    let mut ctx = Ctx {
        rel,
        lexed: &lexed,
        allows: &allows,
        findings: &mut findings,
    };

    for (line, msg) in &allows.bad {
        ctx.report_at_line("bad-allow", *line, msg.clone());
    }

    for rule in LEXICAL_RULES {
        rule(&mut ctx, &class);
    }

    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// `thread_rng` / `from_entropy` / `SystemTime` anywhere in the workspace
/// (including tests and benches — a nondeterministic test is a flaky
/// test).
fn rule_determinism_rng(ctx: &mut Ctx<'_>, _class: &FileClass) {
    for word in ["thread_rng", "from_entropy", "SystemTime"] {
        for off in ident_occurrences(&ctx.lexed.code, word) {
            ctx.report(
                "determinism-rng",
                off,
                format!(
                    "`{word}` injects ambient nondeterminism; derive every RNG from the \
                     session's master seed (see session::derive_rng) and take timestamps \
                     from the obs registry"
                ),
            );
        }
    }
}

/// Raw thread creation (`thread::spawn` / `thread::scope` /
/// `crossbeam::scope`, and the `thread::Builder` escape hatch) anywhere
/// outside `crates/par`. Compute fan-outs must go through
/// `alem_par::Parallelism`, whose fixed chunking keeps results
/// byte-identical for any thread count; long-lived service threads
/// (accept loops, per-connection workers) must go through
/// `alem_par::supervised::spawn`, which names the thread and contains its
/// panics as data instead of silently unwinding a detached worker.
fn rule_par_only_threads(ctx: &mut Ctx<'_>, _class: &FileClass) {
    if ctx.rel.starts_with("crates/par/") {
        return;
    }
    for word in ["spawn", "scope", "Builder"] {
        for off in ident_occurrences(&ctx.lexed.code, word) {
            let before = preceding_code(&ctx.lexed.code, off);
            if before.ends_with("thread::") || before.ends_with("crossbeam::") {
                let message = if word == "Builder" {
                    "`thread::Builder` bypasses the workspace thread audit surface: \
                     spawn long-lived named threads via `alem_par::supervised::spawn` \
                     (panic containment included) and compute fan-outs via \
                     `alem_par::Parallelism`"
                        .to_string()
                } else {
                    format!(
                        "`{word}` spawns raw threads outside crates/par: fan out through \
                         `alem_par::Parallelism` so chunk boundaries stay a pure function \
                         of (len, n_threads) and results are thread-count-invariant"
                    )
                };
                ctx.report("par-only-threads", off, message);
            }
        }
    }
}

/// `Instant::now()` in library code — timing must come from
/// `Span::finish()` so enabling/disabling telemetry cannot skew results.
fn rule_determinism_time(ctx: &mut Ctx<'_>, class: &FileClass) {
    let FileClass::Lib { krate } = class else {
        return;
    };
    if krate == "obs" {
        return;
    }
    for off in ident_occurrences(&ctx.lexed.code, "Instant") {
        let after = off + "Instant".len();
        let rest = &ctx.lexed.code[after..];
        let trimmed = rest.trim_start();
        if let Some(t) = trimmed.strip_prefix("::") {
            if t.trim_start().starts_with("now") {
                ctx.report(
                    "determinism-time",
                    off,
                    "`Instant::now()` in library code: source wall-clock timing from \
                     `alem_obs::Span::finish()` instead (obs and bench/CLI binaries are exempt)"
                        .to_string(),
                );
            }
        }
    }
}

/// `HashMap`/`HashSet` in `crates/core` library code. Hash iteration
/// order varies per process, which is exactly the kind of drift
/// `deterministic_fingerprint` exists to catch; membership-only uses that
/// provably never iterate may carry an allow annotation.
fn rule_hash_iter(ctx: &mut Ctx<'_>, class: &FileClass) {
    if *class
        != (FileClass::Lib {
            krate: "core".to_string(),
        })
    {
        return;
    }
    for word in ["HashMap", "HashSet"] {
        for off in ident_occurrences(&ctx.lexed.code, word) {
            let (line, _) = ctx.lexed.position(off);
            if ctx.lexed.is_test_line(line) {
                continue;
            }
            ctx.report(
                "determinism-hash-iter",
                off,
                format!(
                    "`{word}` in fingerprint-affecting core code: iteration order varies \
                     per process — use `BTreeMap`/`BTreeSet` or sort before iterating"
                ),
            );
        }
    }
}

/// Does `code[off..]` (which starts with the identifier `Vec`) spell a
/// nested `Vec<Vec<f64>>`, tolerating arbitrary whitespace between
/// tokens (rustfmt may split the type across lines)?
fn is_nested_vec_f64(code: &str, off: usize) -> bool {
    let mut rest = code[off + "Vec".len()..].trim_start();
    for tok in ["<", "Vec", "<", "f64", ">"] {
        match rest.strip_prefix(tok) {
            Some(r) => rest = r.trim_start(),
            None => return false,
        }
    }
    rest.starts_with('>')
}

/// `Vec<Vec<f64>>` in `crates/core` library code outside
/// `core::featurestore`. The flat SoA [`FeatureStore`] is the one
/// feature-matrix representation: a row-per-`Vec` matrix defeats its
/// cache-friendly layout and the per-pair lazy memoization built on it.
fn rule_flat_feature_store(ctx: &mut Ctx<'_>, class: &FileClass) {
    if *class
        != (FileClass::Lib {
            krate: "core".to_string(),
        })
        || ctx.rel == "crates/core/src/featurestore.rs"
    {
        return;
    }
    for off in ident_occurrences(&ctx.lexed.code, "Vec") {
        if !is_nested_vec_f64(&ctx.lexed.code, off) {
            continue;
        }
        let (line, _) = ctx.lexed.position(off);
        if ctx.lexed.is_test_line(line) {
            continue;
        }
        ctx.report(
            "flat-feature-store",
            off,
            "`Vec<Vec<f64>>` feature matrix outside core::featurestore: use the \
             flat SoA `FeatureStore` (or borrow rows as `&[Vec<f64>]` from it) so \
             feature storage stays contiguous and lazily memoized"
                .to_string(),
        );
    }
}

/// Panicking constructs in library targets of the no-panic crates.
fn rule_no_panic(ctx: &mut Ctx<'_>, class: &FileClass) {
    let FileClass::Lib { krate } = class else {
        return;
    };
    if !NO_PANIC_CRATES.contains(&krate.as_str()) {
        return;
    }
    for method in ["unwrap", "expect"] {
        for off in ident_occurrences(&ctx.lexed.code, method) {
            let (line, _) = ctx.lexed.position(off);
            if ctx.lexed.is_test_line(line) {
                continue;
            }
            if next_nonspace(&ctx.lexed.code, off + method.len()) != Some(b'(') {
                continue; // `unwrap_or`, path mention, etc.
            }
            ctx.report(
                "no-panic",
                off,
                format!(
                    "`.{method}()` in library code: return an `AlemError` on reachable \
                     failures, or state the invariant with \
                     `// alem-lint: allow(no-panic) -- <why>`"
                ),
            );
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for off in ident_occurrences(&ctx.lexed.code, mac) {
            let (line, _) = ctx.lexed.position(off);
            if ctx.lexed.is_test_line(line) {
                continue;
            }
            if next_nonspace(&ctx.lexed.code, off + mac.len()) != Some(b'!') {
                continue;
            }
            ctx.report(
                "no-panic",
                off,
                format!(
                    "`{mac}!` in library code: user-reachable failures must surface as \
                     `AlemError` (tests, benches, and binaries are exempt)"
                ),
            );
        }
    }
}

/// Telemetry naming in instrumented subsystems: every name passed to
/// `span`/`counter_add`/`gauge_set` must be a dotted lowercase identifier
/// whose first segment is one of the policy's families, and the file must
/// register the policy's required counter (if any). Hard-coded trace ids
/// (`trace_scope(Some("..."))` outside tests) are flagged too: trace ids
/// belong to the caller, not the instrumented code.
fn rule_obs_naming_dispatch(ctx: &mut Ctx<'_>, _class: &FileClass) {
    if let Some(policy) = obs_naming_policy(ctx.rel) {
        rule_obs_naming(ctx, &policy);
    }
}

fn rule_obs_naming(ctx: &mut Ctx<'_>, policy: &ObsNamingPolicy) {
    const CALLS: &[&str] = &["span(", "counter_add(", "gauge_set("];
    let mut registers_required = policy.required_counter.is_none();
    let mut records = false;
    for lit in &ctx.lexed.strings {
        let (line, _) = ctx.lexed.position(lit.offset);
        let in_test = ctx.lexed.is_test_line(line);
        let before = preceding_code(&ctx.lexed.code, lit.offset);
        if !in_test && before.ends_with("trace_scope(Some(") {
            ctx.report(
                "obs-naming",
                lit.offset,
                format!(
                    "hard-coded trace id `{}`: trace ids are supplied by the client on \
                     the wire (`Request.trace_id`), never invented inside the {}",
                    lit.value, policy.subsystem
                ),
            );
            continue;
        }
        let is_obs_name = CALLS.iter().any(|c| before.ends_with(c));
        if !is_obs_name || in_test {
            continue;
        }
        records = true;
        if Some(lit.value.as_str()) == policy.required_counter {
            registers_required = true;
        }
        let mut parts = lit.value.split('.');
        let family = parts.next().unwrap_or("");
        let prefix_ok = policy.families.contains(&family);
        let mut saw_segment = false;
        let segments_ok = parts.all(|s| {
            saw_segment = true;
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        });
        if !(prefix_ok && segments_ok && saw_segment) {
            ctx.report(
                "obs-naming",
                lit.offset,
                format!(
                    "obs name `{}` violates the {} naming scheme: `<family>.<segment>` \
                     with family in {:?} and lowercase `[a-z0-9_]` segments (DESIGN.md §8)",
                    lit.value, policy.subsystem, policy.families
                ),
            );
        }
    }
    if records && !registers_required {
        let required = policy.required_counter.unwrap_or_default();
        ctx.report_at_line(
            "obs-naming",
            1,
            format!(
                "{} module never registers `{required}`: every selector must count \
                 scored pairs (§5.1 latency instrumentation)",
                policy.subsystem
            ),
        );
    }
}

/// Crate-root hygiene: `#![forbid(unsafe_code)]` must appear in the root
/// file's code (a commented-out attribute does not count).
pub fn lint_crate_root(rel: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    if lexed.code.contains("#![forbid(unsafe_code)]") {
        return Vec::new();
    }
    vec![Finding::new(
        "forbid-unsafe",
        rel.to_string(),
        1,
        1,
        "crate root is missing `#![forbid(unsafe_code)]` (workspace hygiene rule)".to_string(),
    )]
}

/// Manifest hygiene: every `[workspace.dependencies]` entry must resolve
/// to an in-tree path (`vendor/` shims for third-party names, `crates/`
/// for workspace members) — the offline-registry invariant from PR 1.
pub fn lint_workspace_manifest(rel: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_section = false;
    for (i, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_section = line == "[workspace.dependencies]";
            continue;
        }
        if !in_section || line.is_empty() || line.starts_with('#') || !line.contains('=') {
            continue;
        }
        if line.contains("path = \"vendor/") || line.contains("path = \"crates/") {
            continue;
        }
        let name = line.split('=').next().unwrap_or("").trim();
        findings.push(Finding::new(
            "vendor-path-deps",
            rel.to_string(),
            i + 1,
            1,
            format!(
                "workspace dependency `{name}` is not a `vendor/`/`crates/` path dep; \
                 the build environment has no registry access (see vendor/README.md)"
            ),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_targets() {
        assert_eq!(
            classify("crates/core/src/session.rs"),
            FileClass::Lib {
                krate: "core".into()
            }
        );
        assert_eq!(classify("crates/core/tests/x.rs"), FileClass::NonLib);
        assert_eq!(classify("crates/bench/src/bin/smoke.rs"), FileClass::NonLib);
        assert_eq!(
            classify("crates/bench/benches/pipeline.rs"),
            FileClass::NonLib
        );
        assert_eq!(classify("crates/cli/src/main.rs"), FileClass::NonLib);
        assert_eq!(classify("crates/cli/src/pipeline.rs"), FileClass::NonLib);
        assert_eq!(classify("tests/end_to_end.rs"), FileClass::NonLib);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::NonLib);
        assert_eq!(classify("vendor/rand/src/lib.rs"), FileClass::Skip);
        assert_eq!(
            classify("crates/lint/tests/fixtures/no_panic.rs"),
            FileClass::Skip
        );
    }

    #[test]
    fn unwrap_flagged_in_lib_not_in_tests_dir() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let lib = lint_source("crates/core/src/session.rs", src);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib[0].rule, "no-panic");
        assert!(lint_source("crates/core/tests/t.rs", src).is_empty());
        assert!(lint_source("tests/t.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(lint_source("crates/core/src/session.rs", src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_without_reason_reports() {
        let good = "// alem-lint: allow(no-panic) -- provably Some: guarded above\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_source("crates/core/src/session.rs", good).is_empty());

        let bad = "// alem-lint: allow(no-panic)\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let out = lint_source("crates/core/src/session.rs", bad);
        let rules: Vec<&str> = out.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"bad-allow"), "{out:?}");
        assert!(rules.contains(&"no-panic"), "{out:?}");
    }

    #[test]
    fn raw_threads_flagged_everywhere_but_par() {
        let src = "pub fn f() { std::thread::spawn(|| {}); }\n\
                   pub fn g() { std::thread::scope(|_| {}); }\n\
                   pub fn h() { crossbeam::scope(|_| {}); }\n";
        for rel in [
            "crates/bench/src/runner.rs",
            "crates/core/src/session.rs",
            "tests/end_to_end.rs",
        ] {
            let out = lint_source(rel, src);
            assert_eq!(out.len(), 3, "{rel}: {out:?}");
            assert!(out.iter().all(|f| f.rule == "par-only-threads"), "{out:?}");
        }
        // crates/par is the one place raw threads are allowed to live.
        assert!(lint_source("crates/par/src/lib.rs", src).is_empty());
        // Non-fan-out uses of the idents are not flagged.
        let benign = "pub fn f(scope: u32) -> u32 { scope }\n\
                      pub fn g() { tokio::spawn(async {}); }\n";
        assert!(lint_source("crates/core/src/session.rs", benign)
            .iter()
            .all(|f| f.rule != "par-only-threads"));
        // An allow annotation with a reason suppresses the finding.
        let allowed = "// alem-lint: allow(par-only-threads) -- watchdog thread, no data fan-out\n\
                       pub fn f() { std::thread::spawn(|| {}); }\n";
        assert!(lint_source("crates/core/src/session.rs", allowed).is_empty());
        // thread::Builder is the bypass the rule closes; the supervised
        // entry point in alem-par is the sanctioned replacement.
        let builder = "pub fn f() { let _ = std::thread::Builder::new(); }\n";
        let out = lint_source("crates/serve/src/lib.rs", builder);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "par-only-threads");
        let sanctioned = "pub fn f() { alem_par::supervised::spawn(\"w\", || ()).unwrap(); }\n";
        assert!(lint_source("crates/serve/src/lib.rs", sanctioned).is_empty());
    }

    #[test]
    fn nested_feature_matrix_flagged_in_core_outside_featurestore() {
        let src = "pub fn f(n: usize) -> Vec<Vec<f64>> { Vec::new() }\n";
        let out = lint_source("crates/core/src/strategy.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "flat-feature-store");
        // Whitespace between tokens (rustfmt line breaks) still matches.
        let split = "pub fn f() -> Vec<\n    Vec<f64>\n> { Vec::new() }\n";
        assert_eq!(lint_source("crates/core/src/strategy.rs", split).len(), 1);
        // The flat store itself, other crates, and test targets are exempt.
        assert!(lint_source("crates/core/src/featurestore.rs", src).is_empty());
        assert!(lint_source("crates/mlcore/src/forest.rs", src).is_empty());
        assert!(lint_source("crates/core/tests/t.rs", src).is_empty());
        // Flat rows and borrowed nested slices are not allocations.
        let flat = "pub fn f(rows: &[Vec<f64>]) -> Vec<f64> { rows[0].clone() }\n";
        assert!(lint_source("crates/core/src/strategy.rs", flat).is_empty());
        // An allow annotation with a reason suppresses the finding.
        let allowed = "// alem-lint: allow(flat-feature-store) -- ingestion seam\n\
                       pub fn f() -> Vec<Vec<f64>> { Vec::new() }\n";
        assert!(lint_source("crates/core/src/strategy.rs", allowed).is_empty());
    }

    #[test]
    fn selector_obs_policy_admits_feat_family() {
        let src = r#"pub fn select(obs: &Registry) {
    obs.counter_add("select.pairs_scored", 1);
    obs.counter_add("feat.phase1_only", 1);
}
"#;
        assert!(lint_source("crates/core/src/selector/lazy_margin.rs", src).is_empty());
    }

    #[test]
    fn manifest_rule_flags_registry_deps() {
        let good = "[workspace.dependencies]\nrand = { path = \"vendor/rand\" }\n";
        assert!(lint_workspace_manifest("Cargo.toml", good).is_empty());
        let bad = "[workspace.dependencies]\nrand = \"0.8\"\n";
        let out = lint_workspace_manifest("Cargo.toml", bad);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "vendor-path-deps");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn obs_naming_checks_prefix_and_required_counter() {
        let src = r#"pub fn select(obs: &Registry) {
    obs.counter_add("selector.pairs", 1);
}
"#;
        let out = lint_source("crates/core/src/selector/margin.rs", src);
        assert_eq!(out.len(), 2, "{out:?}"); // bad prefix + missing pairs_scored
        let ok = r#"pub fn select(obs: &Registry) {
    let span = obs.span("select.score");
    obs.counter_add("select.pairs_scored", 1);
}
"#;
        assert!(lint_source("crates/core/src/selector/margin.rs", ok).is_empty());
        // The shared picker in `mod.rs` is a selector file too; a pure
        // scorer that records nothing leaves the count to that picker.
        assert_eq!(lint_source("crates/core/src/selector/mod.rs", src).len(), 2);
        let scorer = "pub fn score_pool(xs: &[f64]) -> Vec<f64> { xs.to_vec() }\n";
        assert!(lint_source("crates/core/src/selector/qbc.rs", scorer).is_empty());
    }

    #[test]
    fn obs_naming_scopes_families_per_subsystem() {
        // The serve crate may mix `serve.*` and `checkpoint.*`, nothing else.
        let serve = r#"pub fn f(obs: &Registry) {
    obs.counter_add("serve.requests", 1);
    let s = obs.span("checkpoint.write");
    obs.gauge_set("select.pairs", 1);
}
"#;
        let out = lint_source("crates/serve/src/fleet.rs", serve);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), ("obs-naming", 4));

        // The flight recorder stays under `obs.*`.
        let flight = r#"pub fn f(obs: &Registry) {
    obs.counter_add("obs.flight.dumps", 1);
    obs.counter_add("flight.dumps", 1);
}
"#;
        let out = lint_source("crates/obs/src/flight.rs", flight);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), ("obs-naming", 3));

        // Hard-coded trace ids are flagged outside tests.
        let traced = "pub fn f() { let _t = alem_obs::trace_scope(Some(\"fixed\")); }\n";
        let out = lint_source("crates/serve/src/server.rs", traced);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "obs-naming");
        assert!(out[0].message.contains("hard-coded trace id"));
    }
}
