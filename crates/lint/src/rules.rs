//! The rule families and their token-level matchers.
//!
//! Every rule encodes an invariant the workspace established by hand in earlier
//! work and enforces it statically:
//!
//! * **determinism** — result-producing crates must not consult wall clocks,
//!   thread identity, the environment, or unordered hash containers;
//! * **panic-policy** — request hot paths answer with typed errors, never
//!   `unwrap`/`expect`/`panic!`/indexing-by-literal;
//! * **unsafe-audit** — `unsafe` only at sanctioned, `SAFETY:`-commented sites,
//!   and every crate root declares `forbid(unsafe_code)`/`deny(unsafe_code)`;
//! * **json-stability** — wire/control JSON emitters never format floats with the
//!   `{:?}` debug spec (the vendored `serde_json` float writer is the one
//!   sanctioned formatter) and build maps over `BTreeMap` so keys stay sorted;
//! * **ordering-audit** — `Ordering::Relaxed` only where it is a reviewed design
//!   decision (the obs shards/rings), suppressed-with-reason elsewhere;
//! * **process-exit** — CLI error paths return through the shared
//!   `tcp_obs::cli` helper instead of calling `process::exit` outside `main`;
//! * **dead-api** — every `pub` item of a library crate is referenced by some
//!   non-test code (rustc's `dead_code` cannot see `pub` items, so this is the
//!   workspace-wide pass that can); a method is referenced only by a call or a
//!   path, not by a field or local of the same name.

use crate::config::Severity;
use crate::lexer::{Token, TokenKind};
use crate::source::{matching_brace, SourceFile};
use std::collections::BTreeSet;

/// One finding: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line of the first matched token.
    pub line: u32,
    /// Rule id (stable; used in suppressions and baselines).
    pub rule: &'static str,
    /// The matched construct (e.g. `Instant::now`) — part of the baseline
    /// fingerprint, so findings survive unrelated line drift.
    pub snippet: String,
    /// Human explanation of the violation.
    pub message: String,
    /// Effective severity after config overrides.
    pub severity: Severity,
}

/// Static description of one rule for `lint rules` and config validation.
pub struct RuleInfo {
    /// Stable rule id.
    pub id: &'static str,
    /// Severity when the config does not override it.
    pub default_severity: Severity,
    /// One-line description of the enforced invariant.
    pub description: &'static str,
}

/// Every rule the engine knows, in reporting order.  The `suppression` meta-rule
/// validates the suppressions themselves and cannot be suppressed or scoped.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "determinism",
        default_severity: Severity::Error,
        description: "no HashMap/HashSet, Instant::now, SystemTime, ThreadId, or env reads \
                      in result-producing paths (Eq.1/Eq.8 results must be bit-identical \
                      for any --threads/--workers)",
    },
    RuleInfo {
        id: "panic-policy",
        default_severity: Severity::Error,
        description: "no unwrap/expect/panic!/indexing-by-literal in serve/advisor request \
                      hot paths; answer with typed errors",
    },
    RuleInfo {
        id: "unsafe-audit",
        default_severity: Severity::Error,
        description: "unsafe only at sanctioned SAFETY:-commented sites; every crate root \
                      declares forbid(unsafe_code) or deny(unsafe_code)",
    },
    RuleInfo {
        id: "json-stability",
        default_severity: Severity::Error,
        description: "wire/control JSON emitters must not format values with the {:?} debug \
                      spec and must build maps over BTreeMap (sorted keys)",
    },
    RuleInfo {
        id: "ordering-audit",
        default_severity: Severity::Error,
        description: "Ordering::Relaxed only where reviewed (obs shards/rings); elsewhere \
                      suppress with a written reason or use a stronger ordering",
    },
    RuleInfo {
        id: "process-exit",
        default_severity: Severity::Error,
        description: "process::exit only inside fn main; CLI error paths return a nonzero \
                      exit through the shared tcp_obs::cli helper",
    },
    RuleInfo {
        id: "dead-api",
        default_severity: Severity::Error,
        description: "every pub item in crates/*/src (bins excluded) is referenced by non-test \
                      code of the workspace, examples/ or perfbench/src/; a pub use re-export \
                      is not a reference",
    },
    RuleInfo {
        id: "suppression",
        default_severity: Severity::Error,
        description: "every lint:allow(...) must name a known rule and carry a non-empty \
                      reason",
    },
];

/// Looks up a rule's catalog entry.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.id == id)
}

/// Context handed to each rule scan.
pub struct RuleCtx<'a> {
    /// The file under scan.
    pub file: &'a SourceFile,
    /// Effective severity for this rule.
    pub severity: Severity,
    /// unsafe-audit: files where `unsafe` is sanctioned.
    pub allow_unsafe_in: &'a [String],
}

impl RuleCtx<'_> {
    fn finding(&self, rule: &'static str, line: u32, snippet: &str, message: String) -> Finding {
        Finding {
            path: self.file.path.clone(),
            line,
            rule,
            snippet: snippet.to_string(),
            message,
            severity: self.severity,
        }
    }
}

/// Whether `tokens[i..]` starts with the path `a::b` (two idents joined by `::`).
fn is_path2(tokens: &[Token], i: usize, a: &str, b: &str) -> bool {
    tokens[i].is_ident(a)
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_ident(b))
}

/// determinism: wall clocks, thread identity, env reads, and unordered hash
/// containers are banned in result-producing paths.
pub fn determinism(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let tokens = &ctx.file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if ctx.file.in_test_code(t.line) {
            continue;
        }
        if is_path2(tokens, i, "Instant", "now") {
            out.push(
                ctx.finding(
                    "determinism",
                    t.line,
                    "Instant::now",
                    "wall-clock read in a result-producing path; results must be \
                 bit-identical across runs and thread counts"
                        .to_string(),
                ),
            );
        } else if t.is_ident("SystemTime") || t.is_ident("ThreadId") {
            out.push(ctx.finding(
                "determinism",
                t.line,
                &t.text,
                format!(
                    "`{}` in a result-producing path; results must not depend on \
                     wall-clock time or thread identity",
                    t.text
                ),
            ));
        } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(ctx.finding(
                "determinism",
                t.line,
                &t.text,
                format!(
                    "`{}` in a result-producing path; iteration order is randomized — \
                     use BTreeMap/BTreeSet (or a Vec) for bit-deterministic results",
                    t.text
                ),
            ));
        } else if tokens[i].is_ident("env")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|t| matches!(t.text.as_str(), "var" | "var_os" | "vars" | "vars_os"))
        {
            out.push(
                ctx.finding(
                    "determinism",
                    t.line,
                    "env::var",
                    "environment read in a result-producing path; configuration must \
                 arrive through explicit, recorded inputs"
                        .to_string(),
                ),
            );
        }
    }
    out
}

/// panic-policy: hot paths answer with typed errors, never aborts.
pub fn panic_policy(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let tokens = &ctx.file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if ctx.file.in_test_code(t.line) {
            continue;
        }
        // `.unwrap()` / `.expect(` method calls (a fn named `unwrap` is not a call).
        if t.is_punct('.')
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            let name = &tokens[i + 1].text;
            out.push(ctx.finding(
                "panic-policy",
                t.line,
                &format!(".{name}()"),
                format!(
                    "`.{name}()` in a request hot path; convert to a typed \
                     ServeError/AdvisorError variant (a poisoned lock or bad pack \
                     must degrade, not abort the worker)"
                ),
            ));
        }
        // `panic!(...)`.
        if t.is_ident("panic")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            out.push(
                ctx.finding(
                    "panic-policy",
                    t.line,
                    "panic!",
                    "`panic!` in a request hot path; answer with a typed error line instead"
                        .to_string(),
                ),
            );
        }
        // Indexing by integer literal: `xs[0]` after an expression. Array types and
        // literals (`[u8; 4]`, `[0; 4]`) contain a `;` and do not match.
        if t.is_punct('[')
            && i > 0
            && matches!(
                tokens[i - 1].kind,
                TokenKind::Ident | TokenKind::Punct(')') | TokenKind::Punct(']')
            )
            && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Int)
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(']'))
        {
            let index = &tokens[i + 1].text;
            out.push(ctx.finding(
                "panic-policy",
                t.line,
                &format!("[{index}]"),
                format!(
                    "indexing by literal `[{index}]` in a request hot path; use \
                     `.get({index})` (or `.first()`) and answer a typed error when absent"
                ),
            ));
        }
    }
    out
}

/// unsafe-audit: `unsafe` only at sanctioned sites; crate roots forbid it.
pub fn unsafe_audit(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let file = ctx.file;
    let mut out = Vec::new();
    let sanctioned = ctx
        .allow_unsafe_in
        .iter()
        .any(|p| crate::config::path_matches(&file.path, p));
    let mut first_unsafe: Option<u32> = None;
    for t in &file.tokens {
        if t.is_ident("unsafe") {
            first_unsafe.get_or_insert(t.line);
            if !sanctioned {
                out.push(
                    ctx.finding(
                        "unsafe-audit",
                        t.line,
                        "unsafe",
                        "`unsafe` outside the sanctioned allow-unsafe-in sites; move the \
                     code behind the sanctioned boundary or extend lint.toml with a \
                     reviewed entry"
                            .to_string(),
                    ),
                );
            }
        }
    }
    if sanctioned && first_unsafe.is_some() && !file.has_comment_containing("SAFETY:") {
        out.push(
            ctx.finding(
                "unsafe-audit",
                first_unsafe.unwrap_or(1),
                "unsafe",
                "sanctioned unsafe site is missing a `SAFETY:` comment justifying the \
             invariants it relies on"
                    .to_string(),
            ),
        );
    }
    // Crate roots must declare the policy so rustc enforces it from then on.
    if file.path.ends_with("src/lib.rs") && !has_unsafe_code_gate(&file.tokens) {
        out.push(
            ctx.finding(
                "unsafe-audit",
                1,
                "crate-root",
                "crate root does not declare `#![forbid(unsafe_code)]` (or \
             `#![deny(unsafe_code)]` where a sanctioned site exists)"
                    .to_string(),
            ),
        );
    }
    out
}

/// Whether the token stream carries `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]`.
fn has_unsafe_code_gate(tokens: &[Token]) -> bool {
    tokens.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && (w[3].is_ident("forbid") || w[3].is_ident("deny"))
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
    })
}

/// The format-like macros whose template strings json-stability inspects.
const FORMAT_MACROS: &[&str] = &[
    "format",
    "format_args",
    "write",
    "writeln",
    "print",
    "println",
    "eprint",
    "eprintln",
];

/// json-stability: no debug-spec float formatting, no HashMap, in wire-JSON files.
pub fn json_stability(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let tokens = &ctx.file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if ctx.file.in_test_code(t.line) {
            continue;
        }
        if t.is_ident("HashMap") {
            out.push(
                ctx.finding(
                    "json-stability",
                    t.line,
                    "HashMap",
                    "`HashMap` in a wire-JSON emitter; serialized maps must iterate in \
                 sorted order — use BTreeMap so the documented sorted-key guarantee holds"
                        .to_string(),
                ),
            );
        }
        // A format-like macro whose template contains a `{:?}` debug spec.
        if t.kind == TokenKind::Ident
            && FORMAT_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            // The template is the first string literal in the call (for `write!`
            // the writer precedes it).
            let mut depth = 1usize;
            let mut k = i + 3;
            while k < tokens.len() && depth > 0 {
                match tokens[k].kind {
                    TokenKind::Punct('(') => depth += 1,
                    TokenKind::Punct(')') => depth -= 1,
                    TokenKind::Str if depth == 1 => {
                        if has_debug_spec(&tokens[k].text) {
                            out.push(ctx.finding(
                                "json-stability",
                                tokens[k].line,
                                "{:?}",
                                format!(
                                    "`{}!` template formats a value with the `{{:?}}` debug \
                                     spec; JSON bytes must come from the sanctioned \
                                     serde_json writers (NaN/inf become `null` there, \
                                     `{{:?}}` would emit invalid JSON)",
                                    t.text
                                ),
                            ));
                        }
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
    out
}

/// Whether a format template contains a `{...:?}`-style debug spec (`{:?}`,
/// `{:#?}`, `{x:?}`, `{:8.3?}`).  Escaped `{{` braces are skipped.
fn has_debug_spec(template: &str) -> bool {
    let bytes = template.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2;
                continue;
            }
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b'{' {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'}' {
                let spec = &template[i + 1..j];
                let after_colon = spec.rsplit(':').next().unwrap_or("");
                if spec.contains(':') && after_colon.ends_with('?') {
                    return true;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    false
}

/// ordering-audit: `Ordering::Relaxed` outside the reviewed allowlist.
pub fn ordering_audit(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let tokens = &ctx.file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ctx.file.in_test_code(tokens[i].line) {
            continue;
        }
        if is_path2(tokens, i, "Ordering", "Relaxed") {
            out.push(
                ctx.finding(
                    "ordering-audit",
                    tokens[i].line,
                    "Ordering::Relaxed",
                    "`Ordering::Relaxed` outside the allowlisted obs shards/rings; relaxed \
                 atomics are a reviewed design decision — suppress with a written \
                 reason or use Acquire/Release/SeqCst"
                        .to_string(),
                ),
            );
        }
    }
    out
}

/// process-exit: `process::exit` only inside `fn main`.
pub fn process_exit(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let tokens = &ctx.file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if ctx.file.in_test_code(t.line) || ctx.file.in_fn_main(t.line) {
            continue;
        }
        if is_path2(tokens, i, "process", "exit") {
            out.push(
                ctx.finding(
                    "process-exit",
                    t.line,
                    "process::exit",
                    "`process::exit` outside `fn main`; return a Result and let the shared \
                 `tcp_obs::cli::exit_outcome` helper render the exit code (destructors \
                 and final metric/trace flushes must run)"
                        .to_string(),
                ),
            );
        }
    }
    out
}

/// suppression meta-rule: every suppression names a known rule and carries a reason.
pub fn suppression_audit(ctx: &RuleCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for s in &ctx.file.suppressions {
        if rule_info(&s.rule).is_none() {
            out.push(ctx.finding(
                "suppression",
                s.line,
                "lint:allow",
                format!(
                    "suppression names unknown rule `{}` (see `lint rules` for the catalog)",
                    s.rule
                ),
            ));
        }
        if s.reason.is_empty() {
            out.push(ctx.finding(
                "suppression",
                s.line,
                "lint:allow",
                format!(
                    "suppression of `{}` has no reason; write why the finding is \
                     acceptable after the closing parenthesis",
                    s.rule
                ),
            ));
        }
    }
    out
}

/// The item keywords whose `pub` definitions dead-api indexes.  `pub mod` and
/// `pub use` are not items of their own: a module is live through its items, and a
/// re-export is not a use.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// Whether the whole file is test code: integration tests and their helpers live
/// under a `tests/` directory.
fn is_test_file(path: &str) -> bool {
    path.split('/').any(|part| part == "tests")
}

/// A `pub` item definition: the index of its name token, and whether it is a
/// `fn` declared inside an `impl` block (a method or an associated function).
#[derive(Debug, Clone, Copy)]
struct PubItem {
    name: usize,
    method: bool,
}

/// The `(open, close)` brace indices of every `impl` block body in `tokens`.
/// `impl` opens a block only in item position (first in the file, or after `{`,
/// `}`, `;`, an attribute's `]` or `unsafe`), so `-> impl Trait` and
/// `x: impl Trait` do not.
fn impl_bodies(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let item_position = i == 0 || {
            let prev = &tokens[i - 1];
            ['{', '}', ';', ']'].iter().any(|&c| prev.is_punct(c)) || prev.is_ident("unsafe")
        };
        if !(t.is_ident("impl") && item_position) {
            continue;
        }
        if let Some(open) = (i + 1..tokens.len()).find(|&k| tokens[k].is_punct('{')) {
            out.push((open, matching_brace(tokens, open)));
        }
    }
    out
}

/// The `pub` item definitions outside test code of `file`, when it is library
/// code (`crates/<name>/src/**` outside `src/bin`), in token order.  Restricted
/// visibility (`pub(crate)`) is rustc's `dead_code` territory.
fn pub_items(file: &SourceFile) -> Vec<PubItem> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let parts: Vec<&str> = file.path.split('/').collect();
    if !(parts.len() > 3 && parts[0] == "crates" && parts[2] == "src" && parts[3] != "bin") {
        return out;
    }
    let impls = impl_bodies(tokens);
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("pub")
            || tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            || file.in_test_code(tokens[i].line)
        {
            continue;
        }
        // Skip qualifiers: `const fn`, `async`, `unsafe`, `extern "C"`.
        let mut k = i + 1;
        while tokens.get(k).is_some_and(|t| {
            matches!(t.text.as_str(), "async" | "unsafe" | "extern")
                || t.kind == TokenKind::Str
                || t.is_ident("const") && tokens.get(k + 1).is_some_and(|n| n.is_ident("fn"))
        }) {
            k += 1;
        }
        let is_item = tokens.get(k).is_some_and(|t| {
            t.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str())
        });
        if is_item
            && tokens
                .get(k + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text != "_")
        {
            let method = tokens[k].is_ident("fn") && impls.iter().any(|&(o, c)| o < k && k < c);
            out.push(PubItem {
                name: k + 1,
                method,
            });
        }
    }
    out
}

/// The names that the non-test code of the workspace references.
#[derive(Default)]
struct References<'a> {
    /// Every identifier, in any position: what keeps a free item alive.
    names: BTreeSet<&'a str>,
    /// The identifiers called as a method (`.name(`, `.name::<`) or named as a
    /// path segment (`::name`): the only references that keep a method alive, so
    /// a field, a struct-literal key or a local of the same name does not.
    calls: BTreeSet<&'a str>,
}

/// Whether the identifier at `i` is called as a method (`.name(`, `.name::<`,
/// but not after a `..` range) or follows a `::` path separator.
fn called_or_pathed(tokens: &[Token], i: usize) -> bool {
    let punct = |k: usize, c: char| tokens.get(k).is_some_and(|t| t.is_punct(c));
    let pathed = i >= 2 && punct(i - 1, ':') && punct(i - 2, ':');
    let called = i >= 1
        && punct(i - 1, '.')
        && !(i >= 2 && punct(i - 2, '.'))
        && (punct(i + 1, '(') || punct(i + 1, ':') && punct(i + 2, ':') && punct(i + 3, '<'));
    pathed || called
}

/// Adds the identifiers referenced in the non-test code of `file` to `refs`,
/// skipping the name tokens of `definitions` and every token of a `pub use`
/// re-export.  Inline format arguments (`"{NAME}"`, `"{NAME:>8}"`) count as
/// names.
fn add_references<'a>(file: &'a SourceFile, definitions: &[PubItem], refs: &mut References<'a>) {
    if is_test_file(&file.path) {
        return;
    }
    let tokens = &file.tokens;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if file.in_test_code(t.line) {
            i += 1;
            continue;
        }
        if t.is_ident("pub") && tokens.get(i + 1).is_some_and(|n| n.is_ident("use")) {
            // A `pub use …;` re-export: skip to its terminating `;`.
            while tokens.get(i).is_some_and(|n| !n.is_punct(';')) {
                i += 1;
            }
            continue;
        }
        match t.kind {
            TokenKind::Ident if definitions.binary_search_by_key(&i, |d| d.name).is_err() => {
                refs.names.insert(t.text.as_str());
                if called_or_pathed(tokens, i) {
                    refs.calls.insert(t.text.as_str());
                }
            }
            TokenKind::Str => refs.names.extend(inline_format_args(&t.text)),
            _ => {}
        }
        i += 1;
    }
}

/// The identifiers named by inline format arguments in a string literal:
/// `{NAME}` and `{NAME:spec}`.  Escaped `{{` braces and positional `{0}` are
/// skipped.
fn inline_format_args(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        rest = &rest[open + 1..];
        if let Some(after) = rest.strip_prefix('{') {
            rest = after;
            continue;
        }
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..end];
        let closes = rest[end..].starts_with('}') || rest[end..].starts_with(':');
        if closes && name.starts_with(|c: char| c.is_alphabetic() || c == '_') {
            out.push(name);
        }
    }
    out
}

/// dead-api: a workspace pass.  Indexes the `pub` items of the library sources
/// among `files`, collects the references in the non-test code of `files` and of
/// the read-only `reference_roots`, and reports every item that no reference
/// names: a method by a call or a path, any other item by its bare name.
/// `reports(path)` selects the files whose items may be reported (the rule's
/// configured scope).
pub fn dead_api(
    files: &[SourceFile],
    reference_roots: &[SourceFile],
    reports: impl Fn(&str) -> bool,
    severity: Severity,
) -> Vec<Finding> {
    let definitions: Vec<Vec<PubItem>> = files.iter().map(pub_items).collect();
    let mut refs = References::default();
    for (file, defs) in files.iter().zip(&definitions) {
        add_references(file, defs, &mut refs);
    }
    for file in reference_roots {
        add_references(file, &[], &mut refs);
    }
    let mut out = Vec::new();
    for (file, defs) in files.iter().zip(&definitions) {
        for item in defs {
            let name = &file.tokens[item.name];
            let live = if item.method {
                &refs.calls
            } else {
                &refs.names
            };
            if live.contains(name.text.as_str()) || !reports(&file.path) {
                continue;
            }
            let keyword = &file.tokens[item.name - 1].text;
            let n = &name.text;
            let message = if item.method {
                format!(
                    "`pub fn {n}` is never called (`.{n}(`) or named by a path (`::{n}`) \
                     outside its own definition and test code (a field or local of the \
                     same name does not count); delete it, or suppress naming the test \
                     that needs it"
                )
            } else {
                format!(
                    "`pub {keyword} {n}` has no reference outside its own definition and \
                     test code (a `pub use` does not count); delete it, or suppress \
                     naming the test that needs it"
                )
            };
            out.push(Finding {
                path: file.path.clone(),
                line: name.line,
                rule: "dead-api",
                snippet: format!("{keyword} {n}"),
                message,
                severity,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_format_args_name_identifiers_only() {
        let names = inline_format_args("{A} {{B}} {0} {c:>8} {} {d.e} {_f}");
        assert_eq!(names, ["A", "c", "_f"]);
    }

    #[test]
    fn pub_items_skip_restricted_visibility_and_qualify_fns() {
        let file = SourceFile::parse(
            "crates/x/src/lib.rs".to_string(),
            "pub const fn a() {}\npub(crate) fn b() {}\npub static C: u8 = 0;\n\
             pub mod d;\npub use d::E;\npub unsafe extern \"C\" fn f() {}\n",
        );
        let names: Vec<&str> = pub_items(&file)
            .into_iter()
            .map(|item| file.tokens[item.name].text.as_str())
            .collect();
        assert_eq!(names, ["a", "C", "f"]);
    }

    #[test]
    fn dead_api_sees_a_method_behind_a_same_named_field() {
        let lib = SourceFile::parse(
            "crates/x/src/lib.rs".to_string(),
            "pub struct Rate {\n    rate: f64,\n}\n\
             impl Rate {\n\
                 pub fn new(rate: f64) -> Rate { Rate { rate } }\n\
                 pub fn rate(&self) -> f64 { self.rate }\n\
                 pub fn used(&self) -> impl Fn() -> f64 + '_ { || self.rate }\n\
                 pub fn assoc() -> f64 { 1.0 }\n\
             }\n\
             pub fn free() {}\n",
        );
        let user = SourceFile::parse(
            "src/main.rs".to_string(),
            "fn main() {\n    let rate = Rate::new(2.0);\n    let g = free;\n\
                 let h = Rate::assoc;\n    rate.used()();\n}\n",
        );
        let findings = dead_api(&[lib, user], &[], |_| true, Severity::Error);
        let found: Vec<(u32, &str)> = findings
            .iter()
            .map(|f| (f.line, f.snippet.as_str()))
            .collect();
        assert_eq!(found, [(6, "fn rate")]);
    }
}
