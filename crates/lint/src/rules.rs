//! The original lint catalog re-expressed on token streams.
//!
//! Every rule the substring engine enforced is matched structurally
//! here: a method call is `.` + ident + `(` as *tokens*, so a pattern
//! inside a string literal or a comment can never fire, and a
//! statement split across physical lines is still one sequence.

use crate::lexer::{Tok, TokKind};
use crate::scan::FileModel;
use crate::{emit, FileCtx, Violation};

fn is_method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_punct(".")
        && toks.get(i + 1).map(|t| t.is_ident(name)).unwrap_or(false)
        && toks.get(i + 2).map(|t| t.is_punct("(")).unwrap_or(false)
}

fn path2(toks: &[Tok], i: usize, a: &str, b: &str) -> bool {
    toks[i].is_ident(a)
        && toks.get(i + 1).map(|t| t.is_punct("::")).unwrap_or(false)
        && toks.get(i + 2).map(|t| t.is_ident(b)).unwrap_or(false)
}

fn ident_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_ident(name) && toks.get(i + 1).map(|t| t.is_punct("(")).unwrap_or(false)
}

/// Runs every token rule over one file.
pub fn check_token_rules(model: &FileModel, ctx: FileCtx, out: &mut Vec<Violation>) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        let t = &toks[i];

        // unwrap / expect — panic freedom.
        if is_method_call(toks, i, "unwrap")
            && toks.get(i + 3).map(|t| t.is_punct(")")).unwrap_or(false)
        {
            emit(model, "unwrap", i + 1, out);
        }
        if is_method_call(toks, i, "expect") {
            emit(model, "expect", i + 1, out);
        }

        // retired-accounting — the panicking accounting API.
        if is_method_call(toks, i, "account") {
            emit(model, "retired-accounting", i + 1, out);
        }
        if is_method_call(toks, i, "cost") {
            emit(model, "retired-accounting", i + 1, out);
        }

        // wallclock.
        if path2(toks, i, "SystemTime", "now") {
            emit(model, "wallclock", i, out);
        }

        // unseeded-rng (the determinism pass's constructor catalog is
        // folded in here: same rule name, broader net than the old
        // engine's three substrings).
        if ident_call(toks, i, "thread_rng")
            || ident_call(toks, i, "from_entropy")
            || ident_call(toks, i, "from_os_rng")
            || path2(toks, i, "rand", "random")
            || t.is_ident("OsRng")
        {
            // A definition (`fn thread_rng(`) would be the shim itself.
            let prev_is_fn = i > 0 && toks[i - 1].is_ident("fn");
            if !prev_is_fn {
                emit(model, "unseeded-rng", i, out);
            }
        }

        // raw-routing — only outside crates/net.
        if !ctx.in_net {
            let routed = toks[i].is_ident("routing")
                && toks.get(i + 1).map(|t| t.is_punct("::")).unwrap_or(false)
                && toks
                    .get(i + 2)
                    .map(|t| {
                        t.kind == TokKind::Ident
                            && (t.text.starts_with("dijkstra")
                                || t.text.starts_with("min_cost_path"))
                    })
                    .unwrap_or(false);
            if routed || path2(toks, i, "ShortestPathTree", "build") {
                emit(model, "raw-routing", i, out);
            }
            // Bare `min_cost_path(` call: a *different* identifier such
            // as `oracle_min_cost_path` is a different token, so the
            // old lookbehind hack is structural here. A definition
            // (`fn min_cost_path(`) and a method call (`.min_cost_path(`,
            // the oracle session API) stay exempt.
            if ident_call(toks, i, "min_cost_path") {
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let is_def = prev.map(|p| p.is_ident("fn")).unwrap_or(false);
                let is_method = prev.map(|p| p.is_punct(".")).unwrap_or(false);
                if !is_def && !is_method {
                    emit(model, "raw-routing", i, out);
                }
            }
        }

        // std-hashmap — hot paths only. `FxHashMap` is a distinct
        // identifier token, so it can never fire.
        if ctx.in_hot && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
            emit(model, "std-hashmap", i, out);
        }

        // raw-commit — only outside crates/net.
        if !ctx.in_net && is_method_call(toks, i, "commit") {
            emit(model, "raw-commit", i + 1, out);
        }

        // raw-hop-delay — everywhere but the canonical delay model.
        if !ctx.in_delay_model {
            if t.is_punct("*") {
                let neighbor_per_hop = |j: Option<usize>| {
                    j.and_then(|j| toks.get(j))
                        .map(|t| t.kind == TokKind::Ident && t.text.contains("per_hop"))
                        .unwrap_or(false)
                };
                if neighbor_per_hop(i.checked_sub(1)) || neighbor_per_hop(Some(i + 1)) {
                    emit(model, "raw-hop-delay", i, out);
                }
            }
            if ident_call(toks, i, "hops")
                && toks.get(i + 2).map(|t| t.is_punct(")")).unwrap_or(false)
                && toks.get(i + 3).map(|t| t.is_ident("as")).unwrap_or(false)
                && toks.get(i + 4).map(|t| t.is_ident("f64")).unwrap_or(false)
            {
                emit(model, "raw-hop-delay", i, out);
            }
        }

        // shard-ledger — only outside crates/shard/src.
        if !ctx.in_shard {
            if ident_call(toks, i, "raw_ledger") {
                emit(model, "shard-ledger", i, out);
            }
            if toks[i].is_punct(".")
                && toks
                    .get(i + 1)
                    .map(|t| t.is_ident("ledgers"))
                    .unwrap_or(false)
                && toks.get(i + 2).map(|t| t.is_punct("[")).unwrap_or(false)
            {
                emit(model, "shard-ledger", i + 1, out);
            }
        }

        // raw-layer-access — solvers read the layered view only
        // through the layering seam (`layering::layers` /
        // `layering::layer` are path calls, not method calls, so the
        // seam's own API can never fire).
        if ctx.in_solvers
            && !ctx.in_layering
            && (is_method_call(toks, i, "layers") || is_method_call(toks, i, "layer"))
        {
            emit(model, "raw-layer-access", i + 1, out);
        }

        // float-eq — `cost`-named values and `total()` results.
        if t.is_punct("==") || t.is_punct("!=") {
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            let cost_ident = prev
                .map(|p| p.kind == TokKind::Ident && p.text.ends_with("cost"))
                .unwrap_or(false);
            let total_call = i >= 3
                && toks[i - 1].is_punct(")")
                && toks[i - 2].is_punct("(")
                && toks[i - 3].is_ident("total");
            if cost_ident || total_call {
                emit(model, "float-eq", i, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_one;

    #[test]
    fn unwrap_fires_across_lines_but_not_in_strings() {
        let v = analyze_one("crates/x/src/a.rs", "let a = b\n    .unwrap();\n");
        assert_eq!(v.iter().filter(|v| v.rule == "unwrap").count(), 1);
        assert_eq!(v[0].line, 2);

        let v = analyze_one("crates/x/src/a.rs", "let m = \"don't .unwrap() here\";\n");
        assert!(v.iter().all(|v| v.rule != "unwrap"));
    }

    #[test]
    fn scope_gating_matches_old_engine() {
        let src = "let p = routing::dijkstra_tree(&g);\n";
        assert!(analyze_one("crates/sim/src/a.rs", src)
            .iter()
            .any(|v| v.rule == "raw-routing"));
        assert!(analyze_one("crates/net/src/oracle.rs", src)
            .iter()
            .all(|v| v.rule != "raw-routing"));
    }

    #[test]
    fn fx_maps_never_fire_std_hashmap() {
        let src = "let m: FxHashMap<u32, u32> = FxHashMap::default();\n";
        assert!(analyze_one("crates/net/src/routing/d.rs", src)
            .iter()
            .all(|v| v.rule != "std-hashmap"));
        let src = "use std::collections::HashMap;\n";
        assert!(analyze_one("crates/net/src/routing/d.rs", src)
            .iter()
            .any(|v| v.rule == "std-hashmap"));
    }
}
