//! The per-file source model rules scan: tokens, comments, suppressions, and the
//! line regions (test code, `fn main` bodies) that scope rule applicability.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};

/// An inclusive 1-based line range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRange {
    /// First line of the region.
    pub start: u32,
    /// Last line of the region.
    pub end: u32,
}

impl LineRange {
    /// Whether `line` falls inside the region.
    pub fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

/// An inline suppression parsed from a `// lint:allow(<rule>) reason` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The suppressed rule id.
    pub rule: String,
    /// The mandatory free-text justification (may be empty, which is itself a
    /// finding).
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// `true` for `lint:allow-file(...)`, which covers the whole file.
    pub whole_file: bool,
}

impl Suppression {
    /// Whether this suppression covers a finding of `rule` at `line`.  Line
    /// suppressions cover their own line (trailing comments) and the next line
    /// (comment-above style); file suppressions cover everything.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (self.whole_file || line == self.line || line == self.line + 1)
    }
}

/// One lexed, region-annotated source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes (the stable identity in reports and
    /// baselines).
    pub path: String,
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// Inline suppressions parsed from the comments.
    pub suppressions: Vec<Suppression>,
    /// Regions of test-only code: `#[cfg(test)]` / `#[test]` items, including their
    /// bodies.  Most rules skip findings inside them.
    pub test_regions: Vec<LineRange>,
    /// Bodies of `fn main` items (the one place `process::exit` is legitimate).
    pub main_regions: Vec<LineRange>,
}

impl SourceFile {
    /// Lexes and annotates `source` under the repo-relative `path`.
    pub fn parse(path: String, source: &str) -> SourceFile {
        let Lexed { tokens, comments } = lex(source);
        let suppressions = parse_suppressions(&comments);
        let test_regions = attribute_regions(&tokens, is_test_attribute);
        let main_regions = fn_main_regions(&tokens);
        SourceFile {
            path,
            tokens,
            comments,
            suppressions,
            test_regions,
            main_regions,
        }
    }

    /// Whether `line` is inside test-only code.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_regions.iter().any(|r| r.contains(line))
    }

    /// Whether `line` is inside a `fn main` body.
    pub fn in_fn_main(&self, line: u32) -> bool {
        self.main_regions.iter().any(|r| r.contains(line))
    }

    /// Whether any comment in the file mentions `needle` (used for the
    /// `SAFETY:` requirement of the unsafe-audit rule).
    pub fn has_comment_containing(&self, needle: &str) -> bool {
        self.comments.iter().any(|c| c.text.contains(needle))
    }
}

/// Parses `lint:allow(<rule>) reason` / `lint:allow-file(<rule>) reason` comments.
fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for comment in comments {
        let text = comment.text.trim();
        let (whole_file, rest) = if let Some(rest) = text.strip_prefix("lint:allow-file(") {
            (true, rest)
        } else if let Some(rest) = text.strip_prefix("lint:allow(") {
            (false, rest)
        } else {
            continue;
        };
        let Some((rule, reason)) = rest.split_once(')') else {
            // An unterminated `lint:allow(` is treated as a reason-less suppression
            // of the named text so it surfaces as a finding instead of silently
            // doing nothing.
            out.push(Suppression {
                rule: rest.trim().to_string(),
                reason: String::new(),
                line: comment.line,
                whole_file,
            });
            continue;
        };
        out.push(Suppression {
            rule: rule.trim().to_string(),
            reason: reason.trim().to_string(),
            line: comment.line,
            whole_file,
        });
    }
    out
}

/// Whether the attribute token slice (the tokens between `#[` and `]`) marks test
/// code: `test`, `cfg(test)`, or `cfg(any(test, ...))`-style contents mentioning
/// `test` inside a `cfg`.
fn is_test_attribute(body: &[Token]) -> bool {
    match body.first() {
        Some(t) if t.is_ident("test") && body.len() == 1 => true,
        Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
        _ => false,
    }
}

/// Finds the line regions of items carrying an attribute matched by `matches`:
/// from the `#` of the attribute to the closing brace (or semicolon) of the item
/// the attribute group is attached to.
fn attribute_regions(tokens: &[Token], matches: fn(&[Token]) -> bool) -> Vec<LineRange> {
    let mut regions: Vec<LineRange> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // Only outer attributes start items; `#![...]` inner attributes do not.
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start_line = tokens[i].line;
        // Collect the whole attribute group (there may be several stacked
        // attributes; any one matching marks the item).
        let mut matched = false;
        let mut j = i;
        while tokens.get(j).is_some_and(|t| t.is_punct('#'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            let body_start = j + 2;
            let mut depth = 1usize;
            let mut k = body_start;
            while k < tokens.len() && depth > 0 {
                if tokens[k].is_punct('[') {
                    depth += 1;
                } else if tokens[k].is_punct(']') {
                    depth -= 1;
                }
                k += 1;
            }
            if matches(&tokens[body_start..k.saturating_sub(1)]) {
                matched = true;
            }
            j = k;
        }
        if !matched {
            i = j.max(i + 1);
            continue;
        }
        // Scan the item header to its body `{` (or a headerless `;`), tracking
        // bracket depth so `[u8; 4]` in a signature or a `where` clause cannot end
        // the header early.
        let mut k = j;
        let mut depth = 0i32;
        let mut end_line = tokens.get(j).map(|t| t.line).unwrap_or(attr_start_line);
        while k < tokens.len() {
            let t = &tokens[k];
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct(';') if depth == 0 => {
                    end_line = t.line;
                    k += 1;
                    break;
                }
                TokenKind::Punct('{') if depth == 0 => {
                    let close = matching_brace(tokens, k);
                    end_line = tokens
                        .get(close)
                        .map(|t| t.line)
                        .unwrap_or_else(|| tokens[tokens.len() - 1].line);
                    k = close + 1;
                    break;
                }
                _ => {}
            }
            end_line = t.line;
            k += 1;
        }
        regions.push(LineRange {
            start: attr_start_line,
            end: end_line,
        });
        i = k;
    }
    merge_ranges(regions)
}

/// Finds the bodies of `fn main` items.
fn fn_main_regions(tokens: &[Token]) -> Vec<LineRange> {
    let mut regions = Vec::new();
    for i in 0..tokens.len() {
        if !(tokens[i].is_ident("fn")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("main"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        // Find the body's opening brace past the signature.
        let mut k = i + 2;
        let mut depth = 0i32;
        while k < tokens.len() {
            match tokens[k].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('{') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if k >= tokens.len() {
            continue;
        }
        let close = matching_brace(tokens, k);
        regions.push(LineRange {
            start: tokens[i].line,
            end: tokens.get(close).map(|t| t.line).unwrap_or(tokens[i].line),
        });
    }
    merge_ranges(regions)
}

/// Index of the `}` matching the `{` at `open` (or the last token if unbalanced).
pub(crate) fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Sorts and merges overlapping line ranges.
fn merge_ranges(mut ranges: Vec<LineRange>) -> Vec<LineRange> {
    ranges.sort_by_key(|r| (r.start, r.end));
    let mut out: Vec<LineRange> = Vec::new();
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.start <= last.end + 1 => last.end = last.end.max(r.end),
            _ => out.push(r),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_region_covers_its_body() {
        let src = "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n\n    #[test]\n    fn case() {}\n}\nfn after() {}\n";
        let file = SourceFile::parse("x.rs".to_string(), src);
        assert!(!file.in_test_code(1));
        assert!(file.in_test_code(3));
        assert!(file.in_test_code(5));
        assert!(file.in_test_code(8));
        assert!(!file.in_test_code(10));
    }

    #[test]
    fn test_attribute_on_fn_covers_fn_body() {
        let src = "#[test]\nfn case() {\n    let x = 1;\n}\nfn live() {}\n";
        let file = SourceFile::parse("x.rs".to_string(), src);
        assert!(file.in_test_code(3));
        assert!(!file.in_test_code(5));
    }

    #[test]
    fn fn_main_region() {
        let src = "fn helper() {}\nfn main() {\n    helper();\n}\n";
        let file = SourceFile::parse("x.rs".to_string(), src);
        assert!(!file.in_fn_main(1));
        assert!(file.in_fn_main(3));
    }

    #[test]
    fn suppressions_parse_rule_and_reason() {
        let src = "let x = 1; // lint:allow(determinism) latency metrics only\n// lint:allow(ordering-audit)\n// lint:allow-file(json-stability) never serialized\n";
        let file = SourceFile::parse("x.rs".to_string(), src);
        assert_eq!(file.suppressions.len(), 3);
        assert_eq!(file.suppressions[0].rule, "determinism");
        assert_eq!(file.suppressions[0].reason, "latency metrics only");
        assert!(file.suppressions[0].covers("determinism", 1));
        assert!(file.suppressions[0].covers("determinism", 2));
        assert!(!file.suppressions[0].covers("determinism", 3));
        assert!(file.suppressions[1].reason.is_empty());
        assert!(file.suppressions[2].whole_file);
        assert!(file.suppressions[2].covers("json-stability", 999));
    }

    #[test]
    fn attributes_in_strings_do_not_open_regions() {
        let src = "fn live() { let s = \"#[cfg(test)] mod tests {\"; }\nfn more() {}\n";
        let file = SourceFile::parse("x.rs".to_string(), src);
        assert!(file.test_regions.is_empty());
    }
}
