//! Records the toolchain and source revision the benchmark was built
//! from, for the environment record of every result.

use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let commit = output_of("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    println!("cargo:rustc-env=SERVEBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SERVEBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
