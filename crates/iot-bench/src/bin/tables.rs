//! Regenerates the paper's artifacts: `tables <artifact>...`.
//!
//! Each artifact is printed under an `=== name (scale) ===` header and
//! its JSON is written under `results/` (`IOT_RESULTS_DIR`). The scale
//! comes from `IOT_SCALE` (medium when unset; any word but `quick`,
//! `medium` and `full` exits 2 before anything runs). However many
//! campaign artifacts are named, the campaign runs at most once, through
//! the one driver on every available core; however many model artifacts
//! are named, the model set is trained at most once.

use iot_bench::tables::{run_campaign, Models, Output, Source, ARTIFACTS};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let source = |name: &str| ARTIFACTS.iter().find(|(n, _)| *n == name).map(|&(_, s)| s);
    let sources: Option<Vec<Source>> = names.iter().map(|n| source(n)).collect();
    let Some(sources) = sources.filter(|s| !s.is_empty()) else {
        let known: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: tables <artifact>...\nartifacts: {}", known.join(" "));
        return ExitCode::from(2);
    };
    let scale = match iot_bench::scale() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("tables: IOT_SCALE: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = iot_bench::results_dir();
    let mut campaign = None;
    let mut models = None;
    // Write errors on stdout (a closed pipe) are ignored, so the JSON
    // files are still written.
    let mut stdout = std::io::stdout().lock();
    for (name, source) in names.iter().zip(sources) {
        let _ = writeln!(stdout, "=== {name} ({}) ===", scale.name());
        let mut out = Output::default();
        match source {
            Source::Campaign(render) => {
                render(campaign.get_or_insert_with(|| run_campaign(scale)), &mut out)
            }
            Source::Models(render) => {
                render(models.get_or_insert_with(|| Models::train(scale)), &mut out)
            }
            Source::Scaled(render) => render(scale, &mut out),
        }
        let _ = write!(stdout, "{}", out.text);
        if let Err(e) = out.write(&dir) {
            eprintln!("tables: cannot write {name} under {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
