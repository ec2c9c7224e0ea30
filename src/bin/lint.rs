//! `dagsfc-lint` — thin shim over the `dagsfc-lint` crate
//! (`crates/lint`), which hosts the actual engine: a hand-rolled
//! lexer, the token-based rule catalog, and the determinism and
//! audit-coverage semantic passes.
//!
//! Usage (unchanged from the old substring engine, plus baselines and
//! SARIF):
//!
//! ```text
//! cargo run --bin dagsfc-lint [-- --root DIR]
//!                             [--format text|json|sarif]
//!                             [--baseline FILE | --no-baseline]
//!                             [--update-baseline]
//! ```
//!
//! See `docs/VERIFICATION.md` for the rule catalog and the baseline
//! workflow. Exits 1 when any unbaselined violation is found.

use std::process::ExitCode;

fn main() -> ExitCode {
    dagsfc_lint::cli::run_cli(std::env::args().skip(1).collect())
}
