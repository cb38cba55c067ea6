//! Command-line regression tests: runs the built `fleet-bench` binary and
//! checks that every missing or malformed flag value is a usage error (exit
//! status 2 and a message naming the flag), never a panic. Every case is
//! rejected while parsing, before any benchmark runs.

use std::process::Command;

/// Asserts that `args` exit with status 2 and a stderr message naming `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet-bench"))
        .args(args)
        .output()
        .expect("the fleet-bench binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn missing_flag_values_are_usage_errors() {
    for flag in [
        "--out",
        "--label",
        "--baseline",
        "--fleet",
        "--scale-tenants",
        "--max-regress",
    ] {
        assert_rejected(&[flag], flag);
    }
    // The next flag is not a value.
    assert_rejected(&["--out", "--quick"], "--out");
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    for fleet in ["10", "10:x", "x:1", "0:1", "10:0"] {
        assert_rejected(&["--fleet", fleet], "--fleet");
    }
    for tenants in ["abc", "0", "-5"] {
        assert_rejected(&["--scale-tenants", tenants], "--scale-tenants");
    }
    for fraction in ["abc", "-0.1", "1.5", "NaN"] {
        assert_rejected(&["--max-regress", fraction], "--max-regress");
    }
    assert_rejected(&["--no-such-flag"], "--no-such-flag");
}

#[test]
fn unusable_baseline_files_are_rejected_before_the_benchmark_runs() {
    let missing = std::env::temp_dir().join(format!(
        "fleet-bench-no-such-baseline-{}",
        std::process::id()
    ));
    assert_rejected(
        &["--baseline", missing.to_str().expect("utf-8 path")],
        "--baseline",
    );
    // A readable file without the gated figure.
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    assert_rejected(&["--baseline", manifest], "shared_lookup_hit_per_sec");
}

#[test]
fn appending_to_a_file_that_is_not_a_trajectory_is_rejected_before_the_benchmark_runs() {
    let junk = std::env::temp_dir().join(format!(
        "fleet-bench-junk-trajectory-{}",
        std::process::id()
    ));
    let contents = "not a fleet-bench trajectory\n";
    std::fs::write(&junk, contents).expect("write the junk file");
    let path = junk.to_str().expect("utf-8 path");
    // The smallest benchmark: if validation only happened at write time, the
    // run would finish before the file was rejected.
    assert_rejected(
        &[
            "--quick",
            "--fleet",
            "2:1",
            "--scale-tenants",
            "1",
            "--append",
            "--out",
            path,
        ],
        "--append",
    );
    let after = std::fs::read_to_string(&junk).expect("junk file still readable");
    std::fs::remove_file(&junk).ok();
    assert_eq!(after, contents, "the rejected file was modified");
}
