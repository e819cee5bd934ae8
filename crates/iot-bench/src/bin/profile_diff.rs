//! Differential profile gate, run by `verify.sh` after `bench_pipeline`.
//!
//! Usage:
//!
//! ```text
//! profile_diff <head.folded> <baseline.folded>
//! ```
//!
//! Parses two folded span-tree profiles (the fresh one `bench_pipeline`
//! wrote and the committed baseline under `results/`) and prints the
//! stacks whose share of self time moved the most. Share shifts are
//! informational by default — the two profiles come from different
//! machines and runs, so only gross shape changes mean anything — but
//! setting `IOT_PROFILE_DIFF_MAX_SHIFT` (a fraction, e.g. `0.25`) turns
//! the largest absolute shift into a hard gate.
//!
//! Exits non-zero on malformed input (either file unreadable or not
//! valid folded-stack text) or on a gated shift; a missing *baseline*
//! is only a warning so the gate can bootstrap before a baseline is
//! committed.

use iot_bench::profile_diff::{diff, render, FoldedProfile};
use std::process::ExitCode;

fn run(head_path: &str, base_path: &str) -> Result<bool, String> {
    let head_text =
        std::fs::read_to_string(head_path).map_err(|e| format!("{head_path}: {e}"))?;
    let head = FoldedProfile::parse(&head_text).map_err(|e| format!("{head_path}: {e}"))?;
    println!(
        "profile_diff: head {} stacks / {} µs ({head_path})",
        head.counts.len(),
        head.total
    );

    let base_text = match std::fs::read_to_string(base_path) {
        Ok(t) => t,
        Err(e) => {
            println!(
                "profile_diff: WARN — baseline {base_path} unreadable ({e}); \
                 nothing to compare against"
            );
            return Ok(true);
        }
    };
    let base = FoldedProfile::parse(&base_text).map_err(|e| format!("{base_path}: {e}"))?;
    println!(
        "profile_diff: base {} stacks / {} µs ({base_path})",
        base.counts.len(),
        base.total
    );

    let shifts = diff(&head, &base);
    let top = render(&shifts, 10);
    if top.is_empty() {
        println!("profile_diff: profiles share no stacks and hold none apart — identical");
    } else {
        println!("profile_diff: largest share shifts (head - base):");
        print!("{top}");
    }

    let max_shift = shifts.first().map(|s| s.delta.abs()).unwrap_or(0.0);
    match std::env::var("IOT_PROFILE_DIFF_MAX_SHIFT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        Some(ceiling) if max_shift > ceiling => {
            eprintln!(
                "profile_diff: FAIL — largest share shift {:.1}% exceeds the \
                 {:.1}% ceiling",
                max_shift * 100.0,
                ceiling * 100.0
            );
            Ok(false)
        }
        Some(ceiling) => {
            println!(
                "profile_diff: largest shift {:.1}% within the {:.1}% ceiling",
                max_shift * 100.0,
                ceiling * 100.0
            );
            Ok(true)
        }
        None => {
            println!(
                "profile_diff: largest shift {:.1}% (informational; set \
                 IOT_PROFILE_DIFF_MAX_SHIFT to gate)",
                max_shift * 100.0
            );
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 2 {
        eprintln!("usage: profile_diff <head.folded> <baseline.folded>");
        return ExitCode::from(2);
    }
    match run(&args[0], &args[1]) {
        Ok(true) => {
            println!("profile_diff: OK");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("profile_diff: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}
