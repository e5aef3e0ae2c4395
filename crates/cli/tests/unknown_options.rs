//! The `webmon` binary exits 2 on an option its subcommand does not read,
//! instead of running with the option silently ignored.

use std::process::Command;

/// Runs `webmon run --<name> <value>` on a tiny instance and asserts the
/// structured rejection: exit code 2, the option named on stderr, and
/// nothing run.
fn assert_rejected(name: &str, value: &str) {
    let option = format!("--{name}");
    let out = Command::new(env!("CARGO_BIN_EXE_webmon"))
        .args(["run", &option, value, "--resources", "5", "--reps", "1"])
        .output()
        .expect("webmon binary runs");
    assert_eq!(out.status.code(), Some(2), "{option}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unrecognised option {option}")),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the rejection"
    );
}

#[test]
fn retired_shard_count_option_exits_2() {
    assert_rejected("shards", "2");
}

#[test]
fn misspelt_option_exits_2() {
    assert_rejected("bogus", "7");
    assert_rejected("budegt", "3");
}
