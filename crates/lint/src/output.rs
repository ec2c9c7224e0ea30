//! Rendering: human text, the stable JSON array, and SARIF 2.1.0 (for
//! CI artifact upload and code-scanning ingestion). All hand-rolled —
//! the lint gate takes no dependencies.

use crate::{Violation, RULES};
use std::fmt::Write as _;

/// Escapes `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The legacy-compatible JSON array: `[{"rule","file","line","text"}]`.
pub fn render_json(violations: &[Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"text\":\"{}\"}}",
            v.rule,
            json_escape(&v.path),
            v.line,
            json_escape(&v.text)
        );
    }
    out.push(']');
    out
}

/// SARIF 2.1.0: one run, one rule descriptor per catalog entry, one
/// result per violation.
pub fn render_sarif(violations: &[Violation]) -> String {
    let mut rules = String::new();
    for (i, (name, rationale)) in RULES.iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        let _ = write!(
            rules,
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            json_escape(name),
            json_escape(rationale)
        );
    }
    let mut results = String::new();
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        let _ = write!(
            results,
            "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            v.rule,
            json_escape(&format!("[{}] {}", v.rule, v.text)),
            json_escape(&v.path),
            v.line
        );
    }
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"dagsfc-lint\",\"informationUri\":\"docs/VERIFICATION.md\",\
         \"rules\":[{rules}]}}}},\"results\":[{results}]}}]}}"
    )
}

/// Human-readable report.
pub fn render_text(
    violations: &[Violation],
    files_scanned: usize,
    baselined: usize,
    stale_baseline: usize,
) -> String {
    let mut out = String::new();
    for v in violations {
        let _ = writeln!(out, "{}:{}: [{}] {}", v.path, v.line, v.rule, v.text);
    }
    let _ = writeln!(
        out,
        "dagsfc-lint: {} files scanned, {} violation(s), {} baselined",
        files_scanned,
        violations.len(),
        baselined
    );
    if stale_baseline > 0 {
        let _ = writeln!(
            out,
            "dagsfc-lint: {stale_baseline} stale baseline entr{} (matched nothing; \
             run --update-baseline to prune)",
            if stale_baseline == 1 { "y" } else { "ies" }
        );
    }
    if !violations.is_empty() {
        for (name, rationale) in RULES {
            if violations.iter().any(|v| v.rule == *name) {
                let _ = writeln!(out, "  {name}: {rationale}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    fn sample() -> Vec<Violation> {
        vec![Violation {
            rule: "unwrap",
            path: "crates/x/src/a.rs".to_string(),
            line: 3,
            text: "let y = x.unwrap(); // \"quoted\"".to_string(),
        }]
    }

    #[test]
    fn json_is_well_formed() {
        let j = render_json(&sample());
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\\\"quoted\\\""));
    }

    #[test]
    fn sarif_carries_schema_rules_and_results() {
        let s = render_sarif(&sample());
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"ruleId\":\"unwrap\""));
        assert!(s.contains("\"startLine\":3"));
        assert!(s.contains("\"id\":\"audit-gate\""));
    }
}
