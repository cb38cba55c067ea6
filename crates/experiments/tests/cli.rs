//! Command-line regression tests: runs the built `dejavu-experiments` binary
//! and checks that every malformed flag is a typed error (exit status 2 and
//! a message naming the flag), never a silent fallback to a default.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dejavu-experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

/// Asserts that `args` exit with status 2 and a stderr message containing
/// every one of `needles`.
fn assert_rejected(args: &[&str], needles: &[&str]) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran an experiment before rejecting its flags"
    );
}

#[test]
fn non_numeric_counts_are_rejected_not_defaulted() {
    assert_rejected(&["fleet", "--seed", "abc"], &["--seed"]);
    assert_rejected(&["fleet", "--tenants", "abc"], &["--tenants"]);
    assert_rejected(&["fleet", "--days", "abc"], &["--days"]);
    assert_rejected(&["fleet", "--seed", "-1"], &["--seed"]);
    // A flag with no value at all is the same error.
    assert_rejected(&["fleet", "--days"], &["--days"]);
}

#[test]
fn retired_and_unknown_transports_list_the_valid_backends() {
    for name in ["async", "quorum"] {
        assert_rejected(
            &["fleet", "--transport", name],
            &["--transport", &format!("'{name}'"), "'bsp'", "'steal'"],
        );
    }
    assert_rejected(&["fleet", "--transport"], &["'bsp'", "'steal'"]);
}

#[test]
fn well_formed_flags_still_run() {
    let out = run(&["--seed", "7", "fig1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
