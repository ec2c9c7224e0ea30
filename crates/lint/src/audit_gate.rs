//! The audit-coverage pass: proves, across the whole workspace, that
//! every `CommitLedger` commit is reachable only through the audited
//! entry points.
//!
//! Two layers:
//!
//! 1. **Direct commits.** A `.commit(…)` whose receiver is a ledger
//!    (`ledger`, `ledgers[…]`, `raw_ledger(…)`, or any identifier
//!    containing "ledger") may appear only inside the one sanctioned
//!    wrapper, `embed_and_commit` (the solve → account → commit kernel
//!    in `crates/sim`). Any other function committing to a ledger is a
//!    new unaudited commit path and fails the build.
//!
//! 2. **Wrapper callers.** Every function that *calls* the wrapper
//!    must itself audit the outcome: its body must reference the
//!    constraint auditor (`audit_outcome` / `auditor`). This is what
//!    keeps audit-on-commit — in the shard engine and in the lifecycle
//!    driver's `LedgerBackend`, each of which audits every accepted
//!    commit and releases it again on a violation — from silently
//!    disappearing in a refactor.
//!
//! `crates/net/src/ledger.rs` (the `CommitLedger` definition itself)
//! and test regions are exempt; everything else in the workspace is in
//! scope — the pass is cross-file by construction.

use crate::lexer::TokKind;
use crate::scan::FileModel;
use crate::{emit, FileCtx, Violation};

/// Functions allowed to commit to a ledger directly.
const SANCTIONED_WRAPPERS: &[&str] = &["embed_and_commit"];

/// Body markers that count as auditing the outcome.
const AUDIT_MARKERS: &[&str] = &["audit_outcome", "auditor"];

/// Runs the pass over the whole file set.
pub fn check(models: &[(FileModel, FileCtx)], out: &mut Vec<Violation>) {
    for (model, _) in models {
        if model.path.ends_with("crates/net/src/ledger.rs")
            || model.path == "crates/net/src/ledger.rs"
        {
            continue;
        }
        check_direct_commits(model, out);
        check_wrapper_callers(model, out);
    }
}

/// Whether the token before `dot_idx` resolves to a ledger-ish
/// receiver: `ledger.`, `ledgers[…].`, `raw_ledger(…).`, `x.ledger.`.
fn ledger_receiver(model: &FileModel, dot_idx: usize) -> bool {
    let toks = &model.toks;
    let Some(prev) = dot_idx.checked_sub(1) else {
        return false;
    };
    let t = &toks[prev];
    if t.kind == TokKind::Ident {
        return t.text.contains("ledger");
    }
    // `…].` or `…).` — walk to the matching opener and look at the
    // identifier in front of it.
    let (open, close) = if t.is_punct("]") {
        ("[", "]")
    } else if t.is_punct(")") {
        ("(", ")")
    } else {
        return false;
    };
    let mut depth = 0i64;
    let mut j = prev;
    loop {
        if toks[j].is_punct(close) {
            depth += 1;
        } else if toks[j].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
    j.checked_sub(1)
        .map(|k| toks[k].kind == TokKind::Ident && toks[k].text.contains("ledger"))
        .unwrap_or(false)
}

fn check_direct_commits(model: &FileModel, out: &mut Vec<Violation>) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        if !toks[i].is_punct(".") {
            continue;
        }
        let is_commit = toks
            .get(i + 1)
            .map(|t| t.is_ident("commit"))
            .unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_punct("(")).unwrap_or(false);
        if !is_commit || !ledger_receiver(model, i) {
            continue;
        }
        let sanctioned = model
            .fn_of(i)
            .map(|f| SANCTIONED_WRAPPERS.contains(&f.name.as_str()))
            .unwrap_or(false);
        if !sanctioned {
            emit(model, "audit-gate", i + 1, out);
        }
    }
}

fn check_wrapper_callers(model: &FileModel, out: &mut Vec<Violation>) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !SANCTIONED_WRAPPERS.contains(&t.text.as_str()) {
            continue;
        }
        // A call, not the definition and not a `use` import.
        if !toks.get(i + 1).map(|t| t.is_punct("(")).unwrap_or(false) {
            continue;
        }
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        let Some(f) = model.fn_of(i) else {
            continue;
        };
        // A wrapper may call a wrapper.
        if SANCTIONED_WRAPPERS.contains(&f.name.as_str()) {
            continue;
        }
        let audits = toks[f.body_start..f.body_end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && AUDIT_MARKERS.contains(&t.text.as_str()));
        if !audits {
            emit(model, "audit-gate", i, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_one;

    #[test]
    fn direct_commit_outside_wrappers_fires() {
        // `two_phase_reserve` was a second sanctioned wrapper until the
        // sharded engine moved to one ledger.
        for src in [
            "fn sneaky(ledger: &mut CommitLedger) {\n    ledger.commit(v, l).ok();\n}\n",
            "fn two_phase_reserve(ledgers: &mut [CommitLedger]) {\n    ledgers[0].commit(v, l).ok();\n}\n",
        ] {
            assert!(analyze_one("crates/serve/src/x.rs", src)
                .iter()
                .any(|v| v.rule == "audit-gate"));
        }
    }

    #[test]
    fn sanctioned_wrapper_commits_cleanly() {
        let src = "pub fn embed_and_commit(ledger: &mut CommitLedger) -> R {\n    ledger.commit(v, l)\n}\n";
        assert!(analyze_one("crates/sim/src/x.rs", src)
            .iter()
            .all(|v| v.rule != "audit-gate"));
    }

    #[test]
    fn unaudited_wrapper_caller_fires_audited_passes() {
        let bad = "fn serve_one(ledger: &mut CommitLedger) {\n    let s = embed_and_commit(ledger, &r, &sfc, &flow, a, seed);\n    keep(s);\n}\n";
        assert!(analyze_one("crates/serve/src/x.rs", bad)
            .iter()
            .any(|v| v.rule == "audit-gate"));

        let good = "fn serve_one(ledger: &mut CommitLedger, auditor: &A) {\n    let s = embed_and_commit(ledger, &r, &sfc, &flow, a, seed);\n    let report = auditor.audit_outcome(&r, &sfc, &flow, &s);\n    keep(report);\n}\n";
        assert!(analyze_one("crates/serve/src/x.rs", good)
            .iter()
            .all(|v| v.rule != "audit-gate"));
    }

    #[test]
    fn indexed_ledger_commit_is_seen() {
        let src =
            "fn sneaky2(ledgers: &mut [CommitLedger]) {\n    ledgers[0].commit(v, l).ok();\n}\n";
        assert!(analyze_one("crates/chaos/src/x.rs", src)
            .iter()
            .any(|v| v.rule == "audit-gate"));
    }
}
