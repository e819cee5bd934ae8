//! `moniotr` argument-parsing contract: parse problems exit with
//! status 2 and print the usage text; only runtime failures use
//! status 1. Every assertion here is parse-only — no campaign runs —
//! so the suite stays sub-second.

use std::process::Command;

fn moniotr(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_moniotr"))
        .args(args)
        .output()
        .expect("spawn moniotr")
}

fn assert_usage_exit(args: &[&str]) {
    let out = moniotr(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage: moniotr"),
        "{args:?} must print usage, stderr: {stderr}"
    );
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    assert_usage_exit(&["frobnicate"]);
    assert_usage_exit(&[]);
}

#[test]
fn unknown_campaign_flag_exits_2_with_usage() {
    assert_usage_exit(&["campaign", "--definitely-not-a-flag"]);
    assert_usage_exit(&["campaign", "turbo"]);
}

#[test]
fn supervision_flags_validate_their_values() {
    // Missing or malformed values are parse errors, not runtime errors.
    assert_usage_exit(&["campaign", "--resume"]);
    assert_usage_exit(&["campaign", "--journal"]);
    assert_usage_exit(&["campaign", "--report-out"]);
    assert_usage_exit(&["campaign", "workers", "0"]);
    // Journal and resume are mutually exclusive spellings of one knob.
    assert_usage_exit(&["campaign", "--journal", "a.jnl", "--resume", "b.jnl"]);
}

#[test]
fn resume_with_missing_journal_is_a_runtime_error_not_usage() {
    // The flag parses; a journal missing from a directory that exists
    // fails at run time with exit 1, before any unit runs, and leaves no
    // file behind: a mistyped resume path must not rerun the campaign.
    let path = std::env::temp_dir().join(format!("moniotr_missing_{}.jnl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let out = moniotr(&[
        "campaign",
        "quick",
        "workers",
        "1",
        "--resume",
        path.to_str().expect("temp paths are UTF-8"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let created = path.exists();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        !stderr.contains("usage: moniotr"),
        "runtime errors must not dump usage, stderr: {stderr}"
    );
    assert!(!created, "a failed resume must not create the journal");
}
