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
//! informational — the two profiles come from different machines and
//! runs, so only gross shape changes mean anything.
//!
//! Exits non-zero on malformed input (either file unreadable or not
//! valid folded-stack text); a missing *baseline* is only a warning so
//! the check can bootstrap before a baseline is committed.

use iot_bench::profile_diff::{diff, render, FoldedProfile};
use std::process::ExitCode;

fn run(head_path: &str, base_path: &str) -> Result<(), String> {
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
            return Ok(());
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
    println!(
        "profile_diff: largest shift {:.1}% (informational)",
        max_shift * 100.0
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 2 {
        eprintln!("usage: profile_diff <head.folded> <baseline.folded>");
        return ExitCode::from(2);
    }
    match run(&args[0], &args[1]) {
        Ok(()) => {
            println!("profile_diff: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("profile_diff: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}
