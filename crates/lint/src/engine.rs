//! The lint driver: walk the tree, scan every file, apply suppressions and the
//! baseline, and produce a deterministic report.

use crate::baseline::Baseline;
use crate::config::{in_scope, LintConfig, Severity};
use crate::rules::{self, Finding, RuleCtx};
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// The outcome of one lint run over a tree.
#[derive(Debug)]
pub struct RunReport {
    /// Findings that survived suppressions and the baseline, sorted by
    /// (path, line, rule, snippet).
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned inline suppression.
    pub suppressed: usize,
    /// Findings silenced by the baseline file.
    pub baselined: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl RunReport {
    /// Number of error-severity findings (what gates CI).
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warn-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }
}

/// Collects every `.rs` file under the config's scan roots, repo-relative and
/// sorted — the scan order (and therefore the report) is independent of directory
/// enumeration order.
pub fn collect_files(root: &Path, config: &LintConfig) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for include in &config.include {
        let base = root.join(include);
        if !base.exists() {
            return Err(format!("scan.include entry `{include}` does not exist"));
        }
        walk(&base, &mut files).map_err(|e| format!("walking `{include}`: {e}"))?;
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .filter(|p| {
            let text = rel_path_string(p);
            !config
                .exclude
                .iter()
                .any(|e| crate::config::path_matches(&text, e))
        })
        .collect();
    rel.sort();
    rel.dedup();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if dir.is_file() {
        if dir.extension().is_some_and(|e| e == "rs") {
            out.push(dir.to_path_buf());
        }
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        // Build artifacts and VCS internals are never lint subjects.
        if name == "target" || name == ".git" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A repo-relative path as a stable forward-slash string.
pub fn rel_path_string(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Read-only reference roots for the dead-api rule: code that uses the library
/// crates' `pub` items but is never linted itself.
const REFERENCE_ROOTS: &[&str] = &["examples", "perfbench/src"];

/// Lints the tree at `root` under `config`, filtering through `baseline`.
/// `files` is the scan set from [`collect_files`] (callers may pass a permuted
/// order to assert determinism; the report is sorted either way).
pub fn run(
    root: &Path,
    config: &LintConfig,
    files: &[PathBuf],
    baseline: &Baseline,
) -> Result<RunReport, String> {
    let parsed = parse_files(root, files)?;
    let reference_roots = LintConfig {
        include: REFERENCE_ROOTS
            .iter()
            .filter(|dir| root.join(dir).is_dir())
            .map(|dir| dir.to_string())
            .collect(),
        ..LintConfig::default()
    };
    let references = parse_files(root, &collect_files(root, &reference_roots)?)?;
    let dead_api = config.rule("dead-api");
    let workspace_findings = if dead_api.enabled == Some(false) {
        Vec::new()
    } else {
        let severity = dead_api.severity.unwrap_or(Severity::Error);
        rules::dead_api(
            &parsed,
            &references,
            |path| in_scope(path, &dead_api),
            severity,
        )
    };
    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = 0usize;
    for file in &parsed {
        let dead = workspace_findings.iter().filter(|f| f.path == file.path);
        let (mut file_findings, file_suppressed) = scan_file(file, config, dead.cloned().collect());
        suppressed += file_suppressed;
        findings.append(&mut file_findings);
    }
    findings.sort();
    let (findings, baselined) = baseline.filter(findings);
    Ok(RunReport {
        findings,
        suppressed,
        baselined,
        files_scanned: files.len(),
    })
}

fn parse_files(root: &Path, files: &[PathBuf]) -> Result<Vec<SourceFile>, String> {
    files
        .iter()
        .map(|rel| {
            let path = rel_path_string(rel);
            let text = std::fs::read_to_string(root.join(rel))
                .map_err(|e| format!("reading `{path}`: {e}"))?;
            Ok(SourceFile::parse(path, &text))
        })
        .collect()
}

/// Scans one parsed file with every in-scope per-file rule, adds the file's
/// workspace-pass findings `raw`, and returns the findings that survive the
/// file's suppressions and the count silenced by them.
fn scan_file(
    file: &SourceFile,
    config: &LintConfig,
    mut raw: Vec<Finding>,
) -> (Vec<Finding>, usize) {
    for info in rules::CATALOG {
        let rule_config = config.rule(info.id);
        if rule_config.enabled == Some(false) || info.id == "dead-api" {
            continue;
        }
        // The suppression meta-rule has global scope by construction: the
        // suppressions it audits are the ones that silence scoped rules.
        if info.id != "suppression" && !in_scope(&file.path, &rule_config) {
            continue;
        }
        let ctx = RuleCtx {
            file,
            severity: rule_config.severity.unwrap_or(info.default_severity),
            allow_unsafe_in: &rule_config.allow_unsafe_in,
        };
        let found = match info.id {
            "determinism" => rules::determinism(&ctx),
            "panic-policy" => rules::panic_policy(&ctx),
            "unsafe-audit" => rules::unsafe_audit(&ctx),
            "json-stability" => rules::json_stability(&ctx),
            "ordering-audit" => rules::ordering_audit(&ctx),
            "process-exit" => rules::process_exit(&ctx),
            "suppression" => rules::suppression_audit(&ctx),
            other => return (vec![catalog_bug(file, other)], 0),
        };
        raw.extend(found);
    }
    let mut out = Vec::new();
    let mut suppressed = 0usize;
    for finding in raw {
        // Only suppressions that themselves pass the meta-rule (known rule,
        // non-empty reason) are honored; the `suppression` findings are never
        // suppressible, or an empty `lint:allow(suppression)` could silence its
        // own audit.
        let covered = finding.rule != "suppression"
            && file.suppressions.iter().any(|s| {
                !s.reason.is_empty()
                    && rules::rule_info(&s.rule).is_some()
                    && s.covers(finding.rule, finding.line)
            });
        if covered {
            suppressed += 1;
        } else {
            out.push(finding);
        }
    }
    (out, suppressed)
}

/// A catalog entry without a matching scanner is an engine bug; surface it as a
/// finding rather than panicking (the lint binary must never abort mid-report).
fn catalog_bug(file: &SourceFile, id: &str) -> Finding {
    Finding {
        path: file.path.clone(),
        line: 1,
        rule: "suppression",
        snippet: "catalog".to_string(),
        message: format!("internal error: rule `{id}` has no scanner"),
        severity: Severity::Error,
    }
}
