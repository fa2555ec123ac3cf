//! `arbmis` numeric flags: a malformed value or a size the churn
//! generators cannot serve is an error naming the flag with a nonzero
//! exit code — never a panic and never a silent default.

use std::process::{Command, Output};

fn arbmis(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arbmis"))
        .args(args)
        .output()
        .expect("arbmis runs")
}

/// Asserts a clean rejection: exit code 1, an `error:` line naming
/// `flag`, no panic and nothing on stdout.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = arbmis(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

/// A 3-node path written to a temp file unique to this process and `tag`.
fn edge_list(tag: &str) -> std::path::PathBuf {
    let name = format!("arbmis-cli-flags-{}-{tag}.txt", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, "0 1\n1 2\n").unwrap();
    path
}

#[test]
fn churn_below_the_window_size_is_rejected() {
    assert_rejected(&["churn", "--n", "8"], "--n");
    assert_rejected(&["churn", "--workload", "localized", "--n", "31"], "--n");
}

#[test]
fn hub_churn_without_spokes_is_rejected() {
    assert_rejected(&["churn", "--workload", "hub", "--n", "3"], "--n");
}

#[test]
fn malformed_seed_with_an_input_file_is_rejected() {
    let path = edge_list("seed");
    let input = path.to_str().unwrap();
    assert_rejected(
        &["run", "--input", input, "--algo", "luby", "--seed", "x"],
        "--seed",
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn malformed_alpha_is_rejected() {
    let path = edge_list("alpha");
    let input = path.to_str().unwrap();
    assert_rejected(
        &["run", "--input", input, "--algo", "arbmis", "--alpha", "x"],
        "--alpha",
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn malformed_churn_sizes_are_rejected() {
    assert_rejected(&["churn", "--n", "x"], "--n");
    assert_rejected(&["churn", "--batches", "x"], "--batches");
    assert_rejected(&["churn", "--batch-size", "x"], "--batch-size");
}

#[test]
fn smallest_accepted_churn_sizes_run() {
    for args in [
        ["churn", "--workload", "hub", "--n", "4", "--batches", "2"],
        ["churn", "--workload", "all", "--n", "32", "--batches", "2"],
    ] {
        let out = arbmis(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
