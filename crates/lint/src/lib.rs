//! `dagsfc-lint` — the workspace's syntax-aware static-analysis engine.
//!
//! The engine lexes every production source file into a real token
//! stream ([`lexer`]), builds a statement/item model ([`scan`]), and
//! runs two layers of checks:
//!
//! * **Token rules** ([`rules`]) — the original lint catalog (panic
//!   freedom, seeded randomness, oracle-routed paths, audited commits,
//!   …) re-expressed on tokens, so string literals, comments, and
//!   multi-line statements are classified correctly.
//! * **Semantic passes** — two cross-file analyses:
//!   [`determinism`] (unordered `HashMap`/`HashSet` iteration feeding
//!   ordered output, unseeded RNG constructors, float accumulation
//!   over unordered sources) and [`audit_gate`] (every `CommitLedger`
//!   commit is reachable only through `embed_and_commit`, and every
//!   caller of it audits the result).
//!
//! Violations honor `lint:allow(rule)` markers (whole-statement
//! scoped), `#[cfg(test)]` regions, and a checked-in baseline file
//! (`lint-baseline.txt`, see [`baseline`]). Output formats: text,
//! JSON, SARIF 2.1.0 ([`output`]).
//!
//! The fixture corpus (`tests/fixtures/`) pins the shapes a line- and
//! substring-based matcher gets wrong: rule patterns inside string
//! literals and block comments, a `//` inside a string hiding a real
//! call after it, a `}` in a string ending a `#[cfg(test)]` region
//! early, and a `lint:allow` that must cover every line of its
//! statement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit_gate;
pub mod baseline;
pub mod cli;
pub mod determinism;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod scan;

use scan::FileModel;

/// One source file handed to the engine.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Full source text.
    pub text: String,
}

/// A single finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (stable identifier, used in allow markers/baselines).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Trimmed text of the offending line.
    pub text: String,
}

/// Every rule the engine can emit, with its rationale (drives the text
/// summary and the SARIF rule metadata).
pub const RULES: &[(&str, &str)] = &[
    (
        "unwrap",
        "production code must not panic; return Err or justify with an allow",
    ),
    (
        "expect",
        "production code must not panic; return Err or justify with an allow",
    ),
    (
        "retired-accounting",
        "the panicking accounting API was retired; use try_account/try_cost",
    ),
    (
        "wallclock",
        "solver/sim behavior must be a function of the seed, not the wall clock",
    ),
    (
        "unseeded-rng",
        "all randomness must flow from an explicit seed for reproducibility",
    ),
    (
        "raw-routing",
        "single-path routing must go through the shared PathOracle cache",
    ),
    (
        "std-hashmap",
        "hot paths must use the seeded FxHashMap/FxHashSet or index vectors",
    ),
    (
        "raw-commit",
        "embeddings are committed through the auditing embed_and_commit wrapper",
    ),
    (
        "raw-hop-delay",
        "hop-count -> delay conversion lives only in crates/core/src/delay.rs",
    ),
    (
        "shard-ledger",
        "the sharded engine's CommitLedger is private to its gateway API",
    ),
    (
        "float-eq",
        "objective costs are f64; compare with a tolerance, never == / !=",
    ),
    (
        "unordered-iter",
        "iterating a HashMap/HashSet feeds nondeterministic order into output; sort, use a \
         BTree container, or justify why order cannot escape",
    ),
    (
        "float-accum",
        "float accumulation over an unordered source makes the sum order-dependent; \
         accumulate in sorted order",
    ),
    (
        "raw-layer-access",
        "solver candidate generation reads the layered view only through the \
         solvers/layering seam, so the partial-order equivalence proof stays centralized",
    ),
    (
        "audit-gate",
        "CommitLedger commits are reachable only via embed_and_commit, and every caller \
         of it must audit the outcome",
    ),
];

/// Path-derived scope flags for one file (mirrors the old engine's
/// scoping exactly).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileCtx {
    /// Inside `crates/net` (raw-routing / raw-commit exempt).
    pub in_net: bool,
    /// Routing kernels or the BBE engine (std-hashmap applies).
    pub in_hot: bool,
    /// The canonical delay model file (raw-hop-delay exempt).
    pub in_delay_model: bool,
    /// Inside `crates/shard/src` (shard-ledger exempt).
    pub in_shard: bool,
    /// The seeded map wrapper itself (determinism pass exempt — it is
    /// the sanctioned definition site).
    pub in_fxmap: bool,
    /// Inside `crates/core/src/solvers/` (raw-layer-access applies).
    pub in_solvers: bool,
    /// The layering seam module itself (raw-layer-access exempt — it
    /// is the sanctioned home of direct `layers()`/`layer()` reads).
    pub in_layering: bool,
}

impl FileCtx {
    /// Derives the scope flags from a workspace-relative path.
    pub fn from_path(path: &str) -> FileCtx {
        let p = path.replace('\\', "/");
        FileCtx {
            in_net: p.starts_with("crates/net/") || p.contains("/crates/net/"),
            in_hot: p.contains("crates/net/src/routing/") || p.contains("solvers/bbe/"),
            in_delay_model: p.ends_with("crates/core/src/delay.rs"),
            in_shard: p.contains("crates/shard/src/"),
            in_fxmap: p.ends_with("crates/net/src/fxmap.rs"),
            in_solvers: p.contains("crates/core/src/solvers/"),
            in_layering: p.ends_with("crates/core/src/solvers/layering.rs"),
        }
    }
}

/// Emits a violation for `rule` at token `i` unless the site is inside
/// a test region or suppressed by an allow marker.
pub(crate) fn emit(
    model: &FileModel,
    rule: &'static str,
    tok_idx: usize,
    out: &mut Vec<Violation>,
) {
    let line = match model.toks.get(tok_idx) {
        Some(t) => t.line,
        None => return,
    };
    if model.in_test_region(line) {
        return;
    }
    if model.is_allowed(rule, tok_idx, line) {
        return;
    }
    out.push(Violation {
        rule,
        path: model.path.clone(),
        line,
        text: model.line_text(line).to_string(),
    });
}

/// Runs the full engine — token rules plus both semantic passes —
/// over `files` and returns the unallowed violations, sorted by
/// `(path, line, rule)`.
pub fn analyze(files: &[SourceFile]) -> Vec<Violation> {
    let models: Vec<(FileModel, FileCtx)> = files
        .iter()
        .map(|f| {
            (
                FileModel::build(&f.path, &f.text),
                FileCtx::from_path(&f.path),
            )
        })
        .collect();
    let mut out = Vec::new();
    for (model, ctx) in &models {
        rules::check_token_rules(model, *ctx, &mut out);
        if !ctx.in_fxmap {
            determinism::check(model, &mut out);
        }
    }
    audit_gate::check(&models, &mut out);
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out.dedup();
    out
}

/// Convenience wrapper for tests: analyze one in-memory file.
pub fn analyze_one(path: &str, text: &str) -> Vec<Violation> {
    analyze(&[SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }])
}
