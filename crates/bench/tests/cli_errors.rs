//! `experiments` flag errors: a missing or malformed flag value, or an
//! output file that cannot be written, is an `error:` line naming the
//! flag with exit code 1 — never a panic.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs")
}

/// Asserts a clean rejection naming `flag`: exit code 1, stderr that
/// starts with `error: --<flag>`, no panic.
fn assert_flag_error(out: &Output, args: &[&str], flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    let line = stderr.lines().last().unwrap_or("");
    assert!(
        line.starts_with(&format!("error: --{flag}")),
        "{args:?} must name --{flag}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn malformed_flag_values_are_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (&["--threads"], "threads"),
        (&["--threads", "x"], "threads"),
        (&["--threads", "-1"], "threads"),
        (&["--json"], "json"),
        (&["--cache-dir"], "cache-dir"),
        (&["--metrics-out"], "metrics-out"),
        (&["--trace-out"], "trace-out"),
        (&["--perfetto-out"], "perfetto-out"),
        (&["--flight-out"], "flight-out"),
        (&["--backend"], "backend"),
        (&["--backend", "bogus"], "backend"),
        (&["--quick", "E1", "--threads", "2x"], "threads"),
    ];
    for &(args, flag) in cases {
        let out = experiments(args);
        assert_flag_error(&out, args, flag);
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn unwritable_outputs_are_rejected() {
    let missing = std::env::temp_dir()
        .join(format!("experiments-cli-errors-{}", std::process::id()))
        .join("absent-dir")
        .join("out");
    let path = missing.to_str().unwrap();
    for flag in [
        "json",
        "metrics-out",
        "trace-out",
        "perfetto-out",
        "flight-out",
    ] {
        let opt = format!("--{flag}");
        let args = ["--quick", "--no-cache", "E1", opt.as_str(), path];
        assert_flag_error(&experiments(&args), &args, flag);
    }
}
