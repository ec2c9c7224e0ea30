//! End-to-end tests of the `dagsfc` CLI binary: each subcommand is run
//! as a real subprocess (via `CARGO_BIN_EXE_dagsfc`) against temp files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dagsfc"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dagsfc-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn no_args_prints_usage() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_writes_network_and_dot() {
    let json = tmp("net.json");
    let dot = tmp("net.dot");
    let out = bin()
        .args([
            "generate",
            "--nodes",
            "20",
            "--seed",
            "5",
            "--out",
            json.to_str().unwrap(),
            "--dot",
            dot.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let net_text = std::fs::read_to_string(&json).expect("network written");
    assert!(net_text.contains("\"links\""));
    let dot_text = std::fs::read_to_string(&dot).expect("dot written");
    assert!(dot_text.starts_with("graph "));
}

#[test]
fn instance_then_embed_roundtrip() {
    let inst = tmp("inst.json");
    let out = bin()
        .args([
            "instance",
            "--nodes",
            "30",
            "--sfc-size",
            "3",
            "--seed",
            "9",
            "--out",
            inst.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for algo in ["mbbe", "mbbe-st", "minv", "ranv", "bbe"] {
        let out = bin()
            .args([
                "embed",
                "--instance",
                inst.to_str().unwrap(),
                "--algo",
                algo,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "algo {algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("total"), "algo {algo} printed no cost");
        assert!(text.contains("L0[0]"), "algo {algo} printed no assignment");
    }
}

#[test]
fn embed_rejects_unknown_algorithm() {
    let out = bin()
        .args(["embed", "--nodes", "20", "--algo", "quantum"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn figures_single_id_writes_series() {
    let dir = tmp("figs");
    let out = bin()
        .args(["figures", "fig6c", "--out-dir", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("fig6c"));
    assert!(dir.join("fig6c.csv").exists());
    assert!(dir.join("fig6c.json").exists());
}

#[test]
fn figures_unknown_id_fails() {
    let out = bin()
        .args(["figures", "fig9z"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn ilp_emits_model() {
    let out = bin()
        .args(["ilp", "--nodes", "6", "--sfc-size", "1", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("min:"));
    assert!(text.contains("subject to:"));
    assert!(text.contains("binary:"));
}

#[test]
fn online_prints_acceptance_table() {
    let out = bin()
        .args([
            "online",
            "--nodes",
            "25",
            "--requests",
            "20",
            "--capacity",
            "5",
            "--algo",
            "mbbe,minv",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("acceptance ratio"));
    assert!(text.contains("MBBE"));
    assert!(text.contains("MINV"));
}

#[test]
fn embed_with_protect_and_save() {
    let sol = tmp("solution.json");
    let out = bin()
        .args([
            "embed",
            "--nodes",
            "30",
            "--sfc-size",
            "3",
            "--seed",
            "4",
            "--algo",
            "grasp",
            "--protect",
            "--save",
            sol.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("protection:"));
    assert!(text.contains("solution written"));
    let saved = std::fs::read_to_string(&sol).expect("solution written");
    assert!(saved.contains("\"GRASP\""));
    assert!(saved.contains("\"embedding\""));
}

#[test]
fn audit_exit_codes_distinguish_failure_modes() {
    // 0 — a freshly exported trace audits clean.
    let trace = tmp("audit-clean.json");
    let out = bin()
        .args([
            "trace",
            "--out",
            trace.to_str().unwrap(),
            "--arrivals",
            "12",
            "--nodes",
            "20",
            "--seed",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["audit", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean audit exits 0");

    // 2 — missing --trace is a usage error, and prints usage.
    let out = bin().arg("audit").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage error exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // 3 — a nonexistent trace file is an input error, not a violation.
    let out = bin()
        .args(["audit", "--trace", "/nonexistent/trace.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "missing file exits 3");

    // 3 — garbage JSON is an input error too.
    let garbage = tmp("audit-garbage.json");
    std::fs::write(&garbage, "{not json").expect("write garbage");
    let out = bin()
        .args(["audit", "--trace", garbage.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "parse failure exits 3");

    // 0 — the trace's substrate, saved by `generate`, audits clean
    // when passed explicitly…
    let net = tmp("audit-net.json");
    let out = bin()
        .args([
            "generate",
            "--out",
            net.to_str().unwrap(),
            "--nodes",
            "20",
            "--seed",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let audit_with = |network: &PathBuf| {
        bin()
            .args([
                "audit",
                "--trace",
                trace.to_str().unwrap(),
                "--network",
                network.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs")
    };
    assert_eq!(audit_with(&net).status.code(), Some(0));

    // 3 — …but a network file that breaks the constructors' rules is
    // bad input: a negative link price, or an adjacency entry naming a
    // node that does not exist.
    let json = std::fs::read_to_string(&net).expect("read network");
    for (name, bad) in [
        (
            "audit-negative-price.json",
            replace_number_after(&json, &["\"links\"", "\"price\""], "-50.0"),
        ),
        (
            "audit-dangling-adj.json",
            replace_number_after(&json, &["\"adj\""], "999"),
        ),
    ] {
        let path = tmp(name);
        std::fs::write(&path, bad).expect("write tampered network");
        let out = audit_with(&path);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // 3 — a schedule shorter than its arrivals is bad input too.
    let cut = edited_fixture("smoke-50.json", "audit-cut.json", cut_to_10);
    let out = bin()
        .args(["audit", "--trace", cut.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Committed fixture `name` (a trace or scenario file) with its
/// `depart_at` schedule rewritten by `edit`, written to temp file `out`.
fn edited_fixture(name: &str, out: &str, edit: impl FnOnce(Vec<u64>) -> Vec<u64>) -> PathBuf {
    let json = std::fs::read_to_string(committed(name)).expect("committed fixture");
    let key = json.find("\"depart_at\"").expect("a schedule");
    let start = key + json[key..].find('[').expect("an array") + 1;
    let end = start + json[start..].find(']').expect("array ends");
    let times = json[start..end]
        .split(',')
        .map(|t| t.trim().parse().expect("a departure time"))
        .collect();
    let edited: Vec<String> = edit(times).iter().map(u64::to_string).collect();
    let path = tmp(out);
    let json = format!("{}{}{}", &json[..start], edited.join(","), &json[end..]);
    std::fs::write(&path, json).expect("write edited fixture");
    path
}

/// Keeps the first 10 departure times.
fn cut_to_10(mut times: Vec<u64>) -> Vec<u64> {
    times.truncate(10);
    times
}

/// `json` with the first number after `anchors` (found in turn)
/// replaced by `value`.
fn replace_number_after(json: &str, anchors: &[&str], value: &str) -> String {
    let mut at = 0;
    for anchor in anchors {
        at += json[at..].find(anchor).expect("anchor present") + anchor.len();
    }
    let is_num = |c: char| c == '-' || c == '.' || c.is_ascii_digit();
    let start = at + json[at..].find(is_num).expect("a number follows");
    let end = start + json[start..].find(|c| !is_num(c)).expect("number ends");
    format!("{}{value}{}", &json[..start], &json[end..])
}

#[test]
fn chaos_gen_and_run_verify_end_to_end() {
    let scenario = tmp("chaos.json");
    let out = bin()
        .args([
            "chaos",
            "gen",
            "--out",
            scenario.to_str().unwrap(),
            "--arrivals",
            "20",
            "--nodes",
            "24",
            "--seed",
            "11",
            "--chaos-seed",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("fault events"));

    let out = bin()
        .args([
            "chaos",
            "run",
            "--scenario",
            scenario.to_str().unwrap(),
            "--verify",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified: bit-for-bit"));
    assert!(
        text.lines().last().unwrap().contains("\"audits_failed\":0")
            || text
                .lines()
                .last()
                .unwrap()
                .contains("\"audits_failed\": 0"),
        "summary line must report zero audit failures: {text}"
    );
}

/// A committed fixture under `traces/`.
fn committed(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(name)
}

#[test]
fn cut_schedules_fail_cleanly_in_replay_and_chaos() {
    // A schedule with fewer departure times than arrivals is refused at
    // load time with an error, never a panic (exit 101).
    let trace = edited_fixture("smoke-50.json", "replay-cut.json", cut_to_10);
    let scenario = edited_fixture("chaos-smoke.json", "chaos-cut.json", cut_to_10);
    for args in [
        vec!["replay", "--trace", trace.to_str().unwrap()],
        vec!["chaos", "run", "--scenario", scenario.to_str().unwrap()],
    ] {
        let out = bin().args(&args).output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("10 departure times for"), "{args:?}: {err}");
    }
}

#[test]
fn replay_verify_checks_the_schedule_in_the_file() {
    // Every flow held for exactly one interval: a valid schedule, but
    // not the one the trace's seed draws. `--verify` must compare the
    // daemon against this schedule, not a fresh draw.
    let held_one = |times: Vec<u64>| (1..=times.len() as u64).map(|t| t * 1_000_000).collect();
    let trace = edited_fixture("smoke-50.json", "replay-held-one.json", held_one);
    let out = bin()
        .args(["replay", "--trace", trace.to_str().unwrap(), "--verify"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified: bit-for-bit"));
}

#[test]
fn removed_flags_fail_loudly() {
    let trace = committed("smoke-50.json");
    let trace = trace.to_str().unwrap();
    // `--batch` is no longer a boolean flag; it must not swallow the
    // `--verify` after it and exit 0 without verifying. `--shard` is a
    // typo for `--shards`, and `--workers` is gone: a flag the command
    // does not read is an error naming it.
    for (flag, extra) in [
        ("--batch", "--verify"),
        ("--shard", "4"),
        ("--workers", "4"),
    ] {
        let out = bin()
            .args(["replay", "--trace", trace, flag, extra])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("'{flag}'")), "stderr was: {err}");
    }
    // `audit` reports an unknown flag as a usage error.
    let out = bin()
        .args(["audit", "--trace", trace, "--shard", "4"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("'--shard'"));
}

#[test]
fn chaos_smoke_summary_is_pinned() {
    // The committed scenario's summary line, byte for byte: a served
    // decision that drifts changes it.
    const SUMMARY: &str = concat!(
        r#"{"accepted":37,"rejected":3,"rejected_deadline":0,"rejected_capacity":2,"#,
        r#""acceptance_ratio":0.925,"total_cost":215.18509259901327,"audits_run":37,"#,
        r#""audits_failed":0,"faults_applied":24,"orphans_reclaimed":8,"#,
        r#""dropped_releases":8,"released":37,"active_leases":0,"#,
        r#""outstanding_load":0.0,"epoch":98}"#
    );
    let scenario = committed("chaos-smoke.json");
    let out = bin()
        .args([
            "chaos",
            "run",
            "--scenario",
            scenario.to_str().unwrap(),
            "--verify",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().last(), Some(SUMMARY));
}

#[test]
fn quality_and_topology_subcommands() {
    let out = bin()
        .args(["quality", "--nodes", "30", "--runs", "3"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("vs bound"));

    let out = bin()
        .args([
            "topology",
            "--nodes",
            "16",
            "--runs",
            "2",
            "--sfc-size",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ring"));
    assert!(text.contains("fat-tree"));
}
