//! `IOT_SCALE` goes through the one scale parser in both binaries that
//! read it: a word other than `quick`, `medium` and `full` stops the
//! binary with a non-zero status before it runs anything, and the
//! message names the three words.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], scale: &str) -> Output {
    let out_dir = std::env::temp_dir().join(format!("iot_scale_word_{}", std::process::id()));
    Command::new(bin)
        .args(args)
        .env("IOT_SCALE", scale)
        .env("IOT_RESULTS_DIR", &out_dir)
        .env("IOT_ORACLE_OUT", out_dir.join("oracle.json"))
        .output()
        .expect("spawn the binary")
}

fn assert_rejects_unknown_word(bin: &str, args: &[&str]) {
    let out = run(bin, args, "ful");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{bin} ran with IOT_SCALE=ful: {stderr}");
    for word in ["IOT_SCALE", "\"ful\"", "quick", "medium", "full"] {
        assert!(stderr.contains(word), "{bin} must name {word}: {stderr}");
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("==="), "{bin} rendered a table: {stdout}");
}

#[test]
fn tables_rejects_an_unknown_scale_word() {
    assert_rejects_unknown_word(env!("CARGO_BIN_EXE_tables"), &["table2"]);
}

#[test]
fn oracle_check_rejects_an_unknown_scale_word() {
    assert_rejects_unknown_word(env!("CARGO_BIN_EXE_oracle_check"), &[]);
}
