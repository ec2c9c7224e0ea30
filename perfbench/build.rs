//! Records the compiler version, build profile and source commit, so
//! every benchmark result can name what produced it.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = format!(
        "{} (opt-level {})",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let repo = Path::new(&manifest).join("..");
    let git_dir = repo.join(".git");
    let commit = if git_dir.exists() {
        for watched in ["HEAD", "refs/heads"] {
            let p = git_dir.join(watched);
            if p.exists() {
                println!("cargo:rerun-if-changed={}", p.display());
            }
        }
        let repo = repo.to_string_lossy().into_owned();
        output_of("git", &["-C", &repo, "rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
    } else {
        "unknown (not a git checkout)".into()
    };
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=PERFBENCH_GIT={commit}");
}
