//! The item/statement scanner: turns a token stream into the file
//! model the rule engine and semantic passes consume — statement spans
//! (for whole-statement `lint:allow` scoping), `#[cfg(test)]` regions
//! (tracked by *token* braces, so braces inside string literals can
//! never end a test module early), function items, `for` loops, and
//! the allow comment markers.

use crate::lexer::{lex, Comment, Tok, TokKind};

/// A statement span: a maximal token run between `;` / `{` / `}`
/// boundaries. Multi-line method chains form one statement.
#[derive(Debug, Clone, Copy)]
pub struct Stmt {
    /// Index of the first token (inclusive).
    pub start: usize,
    /// Index of the last token (inclusive).
    pub end: usize,
    /// 1-based line of the first token.
    pub first_line: u32,
}

/// One `fn` item: its name and body token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Token index of the body's opening `{` (exclusive range start).
    pub body_start: usize,
    /// Token index of the body's closing `}` (exclusive).
    pub body_end: usize,
}

/// One `for … in … { … }` loop.
#[derive(Debug, Clone)]
pub struct ForLoop {
    /// Token range of the iterated expression (between `in` and `{`).
    pub header_start: usize,
    /// End of the header range (exclusive — the body's `{`).
    pub header_end: usize,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the body's closing `}` (exclusive).
    pub body_end: usize,
    /// 1-based line the loop starts on.
    pub line: u32,
}

/// An allow marker parsed from a comment: `lint:allow(rule-a, rule-b)`.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// 1-based line the marker sits on.
    pub line: u32,
    /// The rules the marker names.
    pub rules: Vec<String>,
}

/// Everything the rule engine needs to know about one file.
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Source lines (for violation excerpts).
    pub lines: Vec<String>,
    /// Code tokens.
    pub toks: Vec<Tok>,
    /// Comment lines.
    pub comments: Vec<Comment>,
    /// Statement spans, in order.
    pub stmts: Vec<Stmt>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
    /// `for` loops, in source order.
    pub loops: Vec<ForLoop>,
    /// Allow markers.
    pub allows: Vec<AllowMarker>,
}

impl FileModel {
    /// Builds the model for one source file.
    pub fn build(path: &str, src: &str) -> FileModel {
        let lexed = lex(src);
        let stmts = split_statements(&lexed.toks);
        let test_regions = find_test_regions(&lexed.toks);
        let fns = find_fns(&lexed.toks);
        let loops = find_for_loops(&lexed.toks);
        let allows = parse_allows(&lexed.comments);
        FileModel {
            path: path.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            toks: lexed.toks,
            comments: lexed.comments,
            stmts,
            test_regions,
            fns,
            loops,
            allows,
        }
    }

    /// The trimmed source text of 1-based `line` (empty if out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(|s| s.trim())
            .unwrap_or("")
    }

    /// Whether 1-based `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    /// The statement containing token index `i`, if any.
    pub fn stmt_of(&self, i: usize) -> Option<&Stmt> {
        self.stmts.iter().find(|s| i >= s.start && i <= s.end)
    }

    /// The innermost function whose body contains token index `i`.
    pub fn fn_of(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| i > f.body_start && i < f.body_end)
            .min_by_key(|f| f.body_end - f.body_start)
    }

    /// Whether a finding for `rule` at token `i` (on `line`) is
    /// suppressed by an allow marker.
    ///
    /// A marker suppresses when it sits on the finding's own line, the
    /// line immediately above it, the **first line of the enclosing
    /// statement**, or the line immediately above that — so one marker
    /// on a multi-line statement covers the whole statement, wherever
    /// inside it the finding lands.
    pub fn is_allowed(&self, rule: &str, i: usize, line: u32) -> bool {
        let mut lines_ok = vec![line, line.saturating_sub(1)];
        if let Some(s) = self.stmt_of(i) {
            lines_ok.push(s.first_line);
            lines_ok.push(s.first_line.saturating_sub(1));
        }
        self.allows
            .iter()
            .any(|m| lines_ok.contains(&m.line) && m.rules.iter().any(|r| r == rule))
    }
}

fn split_statements(toks: &[Tok]) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    let mut start: Option<usize> = None;
    for (i, t) in toks.iter().enumerate() {
        let boundary = t.is_punct(";") || t.is_punct("{") || t.is_punct("}");
        if start.is_none() && !boundary {
            start = Some(i);
        }
        if boundary {
            let s = start.take().unwrap_or(i);
            stmts.push(Stmt {
                start: s,
                end: i,
                first_line: toks[s].line,
            });
        }
    }
    if let Some(s) = start {
        stmts.push(Stmt {
            start: s,
            end: toks.len() - 1,
            first_line: toks[s].line,
        });
    }
    stmts
}

/// Finds `#[cfg(test)]` items and returns the line ranges their bodies
/// cover. Brace depth is tracked on *tokens*, so a `}` inside a string
/// literal never terminates the region (the old scanner's bug).
fn find_test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && matches(toks, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
            let start_line = toks[i].line;
            let mut j = i + 7;
            // Skip further attributes between the cfg and the item.
            while j < toks.len() && toks[j].is_punct("#") {
                j += 1;
                let mut depth = 0;
                while j < toks.len() {
                    if toks[j].is_punct("[") {
                        depth += 1;
                    } else if toks[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            // Find the item's opening brace (or a terminating `;` for
            // e.g. `#[cfg(test)] use …;`).
            let mut depth = 0i64;
            let mut opened = false;
            while j < toks.len() {
                if toks[j].is_punct("{") {
                    depth += 1;
                    opened = true;
                } else if toks[j].is_punct("}") {
                    depth -= 1;
                    if opened && depth == 0 {
                        break;
                    }
                } else if toks[j].is_punct(";") && !opened {
                    break;
                }
                j += 1;
            }
            let end_line = toks.get(j).map(|t| t.line).unwrap_or(u32::MAX);
            regions.push((start_line, end_line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

fn matches(toks: &[Tok], at: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| toks.get(at + k).map(|t| t.text == *p).unwrap_or(false))
}

fn find_fns(toks: &[Tok]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .map(|t| t.kind == TokKind::Ident)
                .unwrap_or(false)
        {
            let name = toks[i + 1].text.clone();
            // Walk to the body `{` (tracking (), [] depth; a `;` at
            // depth 0 means a bodyless trait method).
            let mut j = i + 2;
            let mut depth = 0i64;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if depth == 0 && t.is_punct("{") {
                    body = Some(j);
                    break;
                } else if depth == 0 && t.is_punct(";") {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                let close = match_brace(toks, open);
                fns.push(FnItem {
                    name,
                    body_start: open,
                    body_end: close,
                });
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    fns
}

/// Index just past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

fn find_for_loops(toks: &[Tok]) -> Vec<ForLoop> {
    let mut loops = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("for") {
            continue;
        }
        // `for<'a>` HRTBs and `impl Trait for Type` are not loops: a
        // loop has an `in` at depth 0 before its `{`.
        if toks.get(i + 1).map(|t| t.is_punct("<")).unwrap_or(false) {
            continue;
        }
        let mut j = i + 1;
        let mut depth = 0i64;
        let mut in_at = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && t.is_ident("in") {
                in_at = Some(j);
            } else if depth == 0 && (t.is_punct("{") || t.is_punct(";")) {
                break;
            }
            j += 1;
        }
        let (Some(in_idx), true) = (in_at, j < toks.len() && toks[j].is_punct("{")) else {
            continue;
        };
        loops.push(ForLoop {
            header_start: in_idx + 1,
            header_end: j,
            body_start: j,
            body_end: match_brace(toks, j),
            line: toks[i].line,
        });
    }
    loops
}

fn parse_allows(comments: &[Comment]) -> Vec<AllowMarker> {
    let marker = "lint:allow(";
    let mut allows = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find(marker) {
            rest = &rest[pos + marker.len()..];
            let inner = rest.split(')').next().unwrap_or("");
            let rules = inner
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            allows.push(AllowMarker {
                line: c.line,
                rules,
            });
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_survives_brace_in_string() {
        let src = "fn prod() { x(); }\n#[cfg(test)]\nmod t {\n    fn a() { let s = \"}\"; }\n    fn b() { y(); }\n}\nfn after() { z(); }\n";
        let m = FileModel::build("x.rs", src);
        assert_eq!(m.test_regions.len(), 1);
        let (a, b) = m.test_regions[0];
        assert!(a <= 2 && b >= 6, "region {a}..{b} must span the module");
        assert!(!m.in_test_region(7), "code after the module is live");
    }

    #[test]
    fn multiline_statement_is_one_span() {
        let src = "let v = foo(a, b)\n    .bar()\n    .baz();\n";
        let m = FileModel::build("x.rs", src);
        let baz = m.toks.iter().position(|t| t.is_ident("baz")).unwrap();
        let s = m.stmt_of(baz).unwrap();
        assert_eq!(s.first_line, 1);
    }

    #[test]
    fn allow_on_statement_first_line_covers_later_lines() {
        let src = "// lint:allow(expect) — fine\nlet v = foo(a, b)\n    .expect(\"x\");\n";
        let m = FileModel::build("x.rs", src);
        let e = m.toks.iter().position(|t| t.is_ident("expect")).unwrap();
        assert!(m.is_allowed("expect", e, 3));
        assert!(!m.is_allowed("unwrap", e, 3));
    }

    #[test]
    fn fns_and_loops_are_found() {
        let src = "fn outer(x: u32) -> u32 {\n    for (k, v) in map.iter() {\n        use_it(k, v);\n    }\n    x\n}\n";
        let m = FileModel::build("x.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "outer");
        assert_eq!(m.loops.len(), 1);
        let it = m.toks.iter().position(|t| t.is_ident("use_it")).unwrap();
        assert!(it > m.loops[0].body_start && it < m.loops[0].body_end);
        assert_eq!(m.fn_of(it).map(|f| f.name.as_str()), Some("outer"));
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let m = FileModel::build("x.rs", "impl Display for Foo { }\n");
        assert!(m.loops.is_empty());
    }
}
