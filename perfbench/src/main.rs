//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints host facts and an output digest, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics. Exits 1 when any output check failed and
//! 2 on a usage or setup error.

use dagsfc_perfbench::inputs::Workload;
use dagsfc_perfbench::report::render;
use dagsfc_perfbench::spans::write_tsv;
use dagsfc_perfbench::{fig6, host, serving};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper-fig6|serve-churn|serve-sharded-sla \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let n = w.requests(args.seconds);
    let result = if w.serving() {
        serving::run(w, args.seed, n, args.trace)
    } else {
        fig6::run(args.seed, n, args.trace)
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    let (line, absent) = match render(&result, args.trace) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !absent.is_empty() {
        eprintln!("not observable on {}: {}", w.name(), absent.join(", "));
    }
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
        if let Err(e) = write_tsv(&result.spans, &path) {
            eprintln!("perfbench: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "spans: {} written to {}",
            result.spans.len(),
            path.display()
        );
    }
    println!("host: {}", host::facts(w.serving()));
    println!("outputs: {:016x}", result.outputs);
    println!("{line}");
    if result.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed their checks",
            result.failed, result.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
