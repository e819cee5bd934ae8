//! `moniotr` argument-parsing contract: parse problems exit with
//! status 2 and print the usage text; only runtime failures use
//! status 1. No campaign runs, so the suite stays sub-second; the one
//! end-to-end case captures and analyzes a single device.

use iot_core::json::Json;
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
fn campaign_rejects_an_unknown_scale_word() {
    // The scale word goes through the one scale parser, which names the
    // words it takes; an unset scale stays quick.
    let out = moniotr(&["campaign", "ful", "workers", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    for word in ["\"ful\"", "quick", "medium", "full", "usage: moniotr"] {
        assert!(stderr.contains(word), "stderr must name {word}: {stderr}");
    }
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

#[test]
fn missing_arguments_exit_2_with_usage() {
    assert_usage_exit(&["capture"]);
    assert_usage_exit(&["analyze"]);
    assert_usage_exit(&["idle"]);
    assert_usage_exit(&["idle", "Zmodo Doorbell"]);
    assert_usage_exit(&["idle", "Zmodo Doorbell", "x"]);
    // Hours that are not a positive finite number would run forever or
    // capture nothing.
    for hours in ["inf", "NaN", "-1", "0"] {
        assert_usage_exit(&["idle", "Zmodo Doorbell", hours]);
    }
}

#[test]
fn analyze_reads_a_captured_device_directory_through_the_driver() {
    let root = std::env::temp_dir().join(format!("moniotr_analyze_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let root_arg = root.to_str().expect("temp paths are UTF-8");
    // A directory that does not exist parses fine and fails at run time.
    let missing = moniotr(&["analyze", &format!("{root_arg}/us/tp-link-plug")]);
    let stderr = String::from_utf8_lossy(&missing.stderr);
    assert_eq!(missing.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("usage: moniotr"), "stderr: {stderr}");

    let captured = moniotr(&["capture", "TP-Link Plug", root_arg]);
    assert!(captured.status.success(), "{captured:?}");
    let dir = root.join("us").join("tp-link-plug");
    let out = moniotr(&["analyze", dir.to_str().expect("temp paths are UTF-8")]);
    let rows = std::fs::read_to_string(dir.join("labels.tsv"))
        .expect("capture writes labels.tsv")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .count() as u64;
    let _ = std::fs::remove_dir_all(&root);
    assert!(out.status.success(), "{out:?}");
    let report = Json::parse(std::str::from_utf8(&out.stdout).expect("UTF-8 report"))
        .expect("stdout is the report JSON");
    let field = |j: &Json, key: &str| j.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(field(&report, "experiments"), rows);
    let ingest = report.get("ingest").expect("the report carries the ledger");
    assert_eq!(
        field(ingest, "packets_generated") + field(ingest, "packets_duplicated"),
        field(ingest, "packets_ingested")
            + field(ingest, "packets_dropped")
            + field(ingest, "packets_lost")
            + field(ingest, "packets_quarantined"),
        "the ledger reconciles"
    );
}
