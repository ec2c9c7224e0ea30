//! The lock/ledger-ordering pass: every multi-ledger path acquires
//! shard ledgers in **ascending shard order** and releases in
//! **reverse** — the two-phase-commit discipline that gives such a
//! path deadlock-freedom and deterministic rollback. The sharded
//! engine holds one ledger, so no path in the workspace acquires more
//! than one today.
//!
//! What counts as a "ledger vector": an identifier literally named
//! `ledgers`, or any identifier declared in-file as a collection of
//! `CommitLedger`s. Mutation sites are either **indexed**
//! (`ledgers[k].commit(…)`) or **loop-borne** (a `for` loop whose
//! header iterates the ledger vector and whose body calls a mutation
//! method on the loop variable).
//!
//! A loop's iteration source is **ascending** when it visibly iterates
//! in increasing shard order: a `BTreeMap` keyed by shard (declared
//! in-file), the ledger vector itself (optionally `.enumerate()`d), or
//! an identifier documented ascending with a `lint:ascending(name)`
//! marker. A trailing `.rev()` turns an ascending source into a
//! **descending** one.
//!
//! Enforcement:
//!
//! * acquisition-class methods (`commit`, `apply_fault`,
//!   `reclaim_owner`, `set_default_owner`) looped over ledgers must
//!   run ascending;
//! * `release` loops must run **descending** (reverse of acquisition);
//! * two or more indexed mutation sites outside any loop in one
//!   function form a multi-ledger path with an order the pass cannot
//!   verify — each site is flagged;
//! * a `lint:ascending` claim is checked at its producers: every
//!   `.push(` onto a marked identifier must sit inside an ascending
//!   loop.
//!
//! Declared-ascending values that round-trip through storage (e.g. a
//! lease table) cannot be traced; the marker plus its producer checks
//! are the documented soundness boundary.

use crate::lexer::{Tok, TokKind};
use crate::scan::{FileModel, ForLoop};
use crate::{emit, Violation};

/// `CommitLedger` methods that mutate ledger state.
const MUTATIONS: &[&str] = &[
    "commit",
    "release",
    "apply_fault",
    "reclaim_owner",
    "set_default_owner",
];

/// Identifiers declared in-file as a collection of `CommitLedger`s
/// (plus the conventional name `ledgers`).
fn ledger_vec_idents(model: &FileModel) -> Vec<String> {
    let mut names = vec!["ledgers".to_string()];
    let toks = &model.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("CommitLedger") {
            continue;
        }
        let Some(stmt) = model.stmt_of(i) else {
            continue;
        };
        let slice = &toks[stmt.start..=stmt.end];
        let is_collection = slice.iter().any(|t| t.is_ident("Vec") || t.is_punct("["));
        if !is_collection {
            continue;
        }
        // Bind to the identifier before the `:` or `=` closest to the
        // start of the statement (a parameter or let binding).
        for j in (stmt.start + 1..i).rev() {
            if toks[j].is_punct(":") || toks[j].is_punct("=") {
                if toks[j - 1].kind == TokKind::Ident {
                    let name = toks[j - 1].text.clone();
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
                break;
            }
        }
    }
    names
}

/// Identifiers declared in-file with a `BTreeMap`/`BTreeSet` type or
/// constructor (ascending iteration by construction).
fn btree_idents(model: &FileModel) -> Vec<String> {
    let toks = &model.toks;
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("BTreeMap") && !t.is_ident("BTreeSet") {
            continue;
        }
        let stmt_start = model.stmt_of(i).map(|s| s.start).unwrap_or(0);
        let mut j = i;
        while j > stmt_start {
            j -= 1;
            let p = &toks[j];
            if p.is_punct(":") || p.is_punct("=") {
                if j > stmt_start && toks[j - 1].kind == TokKind::Ident {
                    let name = toks[j - 1].text.clone();
                    if name != "mut" && !names.contains(&name) {
                        names.push(name);
                    }
                }
                break;
            }
            if p.is_punct("->") || p.is_punct(",") || p.is_punct("(") || p.is_punct(")") {
                break;
            }
        }
    }
    names
}

/// How a loop header iterates, as far as the pass can see.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Order {
    Ascending,
    Descending,
    Unknown,
}

fn classify_header(
    header: &[Tok],
    ledger_vecs: &[String],
    btrees: &[String],
    ascending_marked: &[String],
) -> Order {
    let reversed = header
        .windows(3)
        .any(|w| w[0].is_punct(".") && w[1].is_ident("rev") && w[2].is_punct("("));
    let base_ascending = header.iter().any(|t| {
        t.kind == TokKind::Ident
            && (ledger_vecs.contains(&t.text)
                || btrees.contains(&t.text)
                || ascending_marked.contains(&t.text))
    });
    match (base_ascending, reversed) {
        (true, false) => Order::Ascending,
        (true, true) => Order::Descending,
        (false, _) => Order::Unknown,
    }
}

fn header_of<'m>(model: &'m FileModel, l: &ForLoop) -> &'m [Tok] {
    &model.toks[l.header_start..l.header_end]
}

/// Runs the pass over one file.
pub fn check_file(model: &FileModel, out: &mut Vec<Violation>) {
    let toks = &model.toks;
    let ledger_vecs = ledger_vec_idents(model);
    let btrees = btree_idents(model);
    let marked = model.ascending.clone();

    // If the file never mentions CommitLedger or a `ledgers` index,
    // there is nothing to order.
    let touches_ledgers = toks
        .iter()
        .any(|t| t.is_ident("CommitLedger") || t.is_ident("ledgers"));
    if !touches_ledgers {
        return;
    }

    // Indexed sites: `<vec>[ … ].<mutation>(`.
    // Per-function bookkeeping of non-loop indexed sites.
    let mut unlooped_by_fn: Vec<(usize, usize)> = Vec::new(); // (fn body_start, tok idx)
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !ledger_vecs.contains(&t.text) {
            continue;
        }
        if !toks.get(i + 1).map(|t| t.is_punct("[")).unwrap_or(false) {
            continue;
        }
        // Find the matching `]`, then require `.<mutation>(`.
        let mut depth = 0i64;
        let mut j = i + 1;
        while j < toks.len() {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let is_mutation = toks.get(j + 1).map(|t| t.is_punct(".")).unwrap_or(false)
            && toks
                .get(j + 2)
                .map(|t| t.kind == TokKind::Ident && MUTATIONS.contains(&t.text.as_str()))
                .unwrap_or(false)
            && toks.get(j + 3).map(|t| t.is_punct("(")).unwrap_or(false);
        if !is_mutation {
            continue;
        }
        let method = toks[j + 2].text.clone();
        if let Some(l) = model.loop_of(i) {
            let order = classify_header(header_of(model, l), &ledger_vecs, &btrees, &marked);
            let need = if method == "release" {
                Order::Descending
            } else {
                Order::Ascending
            };
            if order != need {
                emit(model, "lock-order", j + 2, out);
            }
        } else {
            let body_start = model.fn_of(i).map(|f| f.body_start).unwrap_or(usize::MAX);
            unlooped_by_fn.push((body_start, j + 2));
        }
    }
    // Two or more non-loop indexed mutations in one function: an
    // ordering the pass cannot verify.
    for &(fn_start, site) in &unlooped_by_fn {
        let in_same_fn = unlooped_by_fn
            .iter()
            .filter(|&&(f, _)| f == fn_start)
            .count();
        if in_same_fn >= 2 {
            emit(model, "lock-order", site, out);
        }
    }

    // Loop-borne sites: a loop over the ledger vector whose body calls
    // a mutation method on anything.
    for l in &model.loops {
        let header = header_of(model, l);
        let over_ledgers = header
            .iter()
            .any(|t| t.kind == TokKind::Ident && ledger_vecs.contains(&t.text));
        if !over_ledgers {
            continue;
        }
        let order = classify_header(header, &ledger_vecs, &btrees, &marked);
        for k in l.body_start..l.body_end.min(toks.len()) {
            if !toks[k].is_punct(".") {
                continue;
            }
            let is_mut = toks
                .get(k + 1)
                .map(|t| t.kind == TokKind::Ident && MUTATIONS.contains(&t.text.as_str()))
                .unwrap_or(false)
                && toks.get(k + 2).map(|t| t.is_punct("(")).unwrap_or(false);
            if !is_mut {
                continue;
            }
            // Indexed sites inside this body were already judged above.
            if toks
                .get(k.wrapping_sub(1))
                .map(|t| t.is_punct("]"))
                .unwrap_or(false)
            {
                continue;
            }
            let method = &toks[k + 1].text;
            let need = if method == "release" {
                Order::Descending
            } else {
                Order::Ascending
            };
            if order != need {
                emit(model, "lock-order", k + 1, out);
            }
        }
    }

    // Producer checks for `lint:ascending` claims: every push onto a
    // marked identifier must happen inside an ascending loop.
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !marked.contains(&t.text) {
            continue;
        }
        let is_push = toks.get(i + 1).map(|t| t.is_punct(".")).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.is_ident("push")).unwrap_or(false)
            && toks.get(i + 3).map(|t| t.is_punct("(")).unwrap_or(false);
        if !is_push {
            continue;
        }
        let ok = model
            .loop_of(i)
            .map(|l| {
                classify_header(header_of(model, l), &ledger_vecs, &btrees, &marked)
                    == Order::Ascending
            })
            .unwrap_or(false);
        if !ok {
            emit(model, "lock-order", i + 2, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_one;

    #[test]
    fn ascending_commit_loop_is_clean() {
        let src = "fn two_phase(ledgers: &mut [CommitLedger], by_shard: BTreeMap<usize, L>) {\n    for (shard, loads) in by_shard {\n        ledgers[shard].commit(loads, v).ok();\n    }\n}\n";
        assert!(analyze_one("crates/shard/src/engine.rs", src)
            .iter()
            .all(|v| v.rule != "lock-order"));
    }

    #[test]
    fn unordered_commit_loop_fires() {
        let src = "fn two_phase(ledgers: &mut [CommitLedger], shards: Vec<usize>) {\n    for shard in shards {\n        ledgers[shard].commit(a, b).ok();\n    }\n}\n";
        assert!(analyze_one("crates/shard/src/engine.rs", src)
            .iter()
            .any(|v| v.rule == "lock-order"));
    }

    #[test]
    fn forward_release_loop_fires_reverse_passes() {
        let fwd = "// lint:ascending(parts)\nfn rollback(ledgers: &mut [CommitLedger], parts: &[(usize, L)]) {\n    for &(shard, sub) in parts.iter() {\n        ledgers[shard].release(sub).ok();\n    }\n}\n";
        assert!(analyze_one("crates/shard/src/engine.rs", fwd)
            .iter()
            .any(|v| v.rule == "lock-order"));

        let rev = "// lint:ascending(parts)\nfn rollback(ledgers: &mut [CommitLedger], parts: &[(usize, L)]) {\n    for &(shard, sub) in parts.iter().rev() {\n        ledgers[shard].release(sub).ok();\n    }\n}\n";
        assert!(analyze_one("crates/shard/src/engine.rs", rev)
            .iter()
            .all(|v| v.rule != "lock-order"));
    }

    #[test]
    fn loop_borne_mutation_over_ledgers_is_ascending() {
        let src = "fn sweep(ledgers: &mut Vec<CommitLedger>) {\n    for ledger in ledgers.iter_mut() {\n        ledger.set_default_owner(None);\n    }\n}\n";
        assert!(analyze_one("crates/shard/src/engine.rs", src)
            .iter()
            .all(|v| v.rule != "lock-order"));
    }
}
