//! Invariant classes over the `tables` binary's `results/*.json` artifacts.
//!
//! The committed `results/` directory is the repo's rendition of the
//! paper's tables. The pipeline oracle checks the *report*; nothing
//! until now checked the table artifacts themselves, so a table
//! could emit ragged rows or percentage columns that no longer sum and
//! the gate would stay green. Four invariant classes close that:
//!
//! * `results_json` — every artifact parses and has the `emit` shape:
//!   a non-empty `headers` string array and a `rows` array.
//! * `results_shape` / `results_rows` — every row has exactly one cell
//!   per header; row counts that are pinned by the catalog or an enum
//!   (Table 1's device list, Table 2's experiment×party grid, the
//!   encryption tables' x/enc/? class triples) match it.
//! * `results_pct` — percentage columns sum within tolerance: the
//!   encryption mixes (Tables 6 and 8) sum to ~100 per context column
//!   across each class triple, Table 5's quartile histogram counts the
//!   same device population in every class, and Figure 2's per-lab
//!   traffic shares sum to ~100.
//! * `results_claims` — the shape claims EXPERIMENTS.md makes about the
//!   tables hold: power is the most inferrable activity group in every
//!   Table 10 column, voice has the highest encrypted share in every
//!   Table 8 column, TVs contact the most third parties in every
//!   Table 3 column, total support parties outnumber third parties and
//!   support counts order Control ≥ Power ≥ Voice in every Table 2
//!   column, smart hubs are almost never inferrable (≤ 1 per Table 9
//!   column), Passport-style geolocation is at least as accurate as the
//!   naive database on each egress (Ablation 4), and no device sends
//!   more than 75% of its bytes unencrypted (Table 5). A claim that
//!   flips fails the oracle instead of going stale in prose.
//!
//! Tolerances follow the artifacts' formatting: cells are rendered with
//! one decimal, so a k-term sum may be off by up to `0.05·k` plus float
//! dust.

use crate::Violation;
use iot_analysis::destinations::ExpGroup;
use iot_core::json::Json;
use iot_testbed::catalog;
use iot_testbed::device::Category;
use std::path::Path;

/// One parsed artifact: headers plus string rows.
struct TableFile {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn parse_table(name: &str, text: &str, v: &mut Vec<Violation>) -> Option<TableFile> {
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => {
            v.push(Violation::new(
                "results_json",
                "results",
                name.to_string(),
                "parse",
                format!("not valid JSON: {e}"),
            ));
            return None;
        }
    };
    let headers: Option<Vec<String>> = json.get("headers").and_then(|h| match h {
        Json::Arr(items) => items
            .iter()
            .map(|i| i.as_str().map(str::to_string))
            .collect(),
        _ => None,
    });
    let headers = match headers {
        Some(h) if !h.is_empty() => h,
        _ => {
            v.push(Violation::new(
                "results_json",
                "results",
                name.to_string(),
                "headers",
                "missing or empty `headers` string array".to_string(),
            ));
            return None;
        }
    };
    let rows: Option<Vec<Vec<String>>> = json.get("rows").and_then(|r| match r {
        Json::Arr(rows) => rows
            .iter()
            .map(|row| match row {
                Json::Arr(cells) => cells
                    .iter()
                    .map(|c| c.as_str().map(str::to_string))
                    .collect(),
                _ => None,
            })
            .collect(),
        _ => None,
    });
    let rows = match rows {
        Some(r) => r,
        None => {
            v.push(Violation::new(
                "results_json",
                "results",
                name.to_string(),
                "rows",
                "missing `rows` array of string arrays".to_string(),
            ));
            return None;
        }
    };
    Some(TableFile {
        name: name.to_string(),
        headers,
        rows,
    })
}

/// Every row must have exactly one cell per header.
fn check_shape(t: &TableFile, v: &mut Vec<Violation>) {
    for (i, row) in t.rows.iter().enumerate() {
        if row.len() != t.headers.len() {
            v.push(Violation::new(
                "results_shape",
                "results",
                t.name.clone(),
                format!("row[{i}]"),
                format!(
                    "{} cells, headers have {}",
                    row.len(),
                    t.headers.len()
                ),
            ));
        }
    }
}

/// Row-count laws pinned by the catalog or an enum.
fn check_row_counts(t: &TableFile, v: &mut Vec<Violation>) {
    let expect = |v: &mut Vec<Violation>, expected: usize, what: &str| {
        if t.rows.len() != expected {
            v.push(Violation::new(
                "results_rows",
                "results",
                t.name.clone(),
                "rows",
                format!("{} rows, expected {expected} ({what})", t.rows.len()),
            ));
        }
    };
    match t.name.as_str() {
        // Table 1 lists every cataloged device once.
        "table1" => expect(v, catalog::all().len(), "one row per cataloged device"),
        // Table 2: one (experiment group × party) row plus the two
        // Total rows.
        "table2" => expect(
            v,
            ExpGroup::all().len() * 2 + 2,
            "experiment groups × {support, third} + totals",
        ),
        // Table 3: one (category × party) row.
        "table3" => expect(
            v,
            Category::all().len() * 2,
            "categories × {support, third}",
        ),
        // Table 5: the quartile histogram is 4 ranges per class.
        "table5" => expect(v, 3 * 4, "x/enc/? × four quartile ranges"),
        // Table 6: per-category mix, three classes per category.
        "table6" => expect(
            v,
            3 * Category::all().len(),
            "x/enc/? × categories",
        ),
        _ => {}
    }
    // The encryption tables are class triples: the x / enc / ? blocks
    // must list the same keys in the same order, whatever the keys are.
    if matches!(t.name.as_str(), "table5" | "table6" | "table8") {
        check_class_triple(t, v);
    }
}

/// Splits a class-triple table into its x / enc / ? blocks, verifying
/// the three blocks carry identical key sequences. Returns the blocks
/// (rows of each class, in order) when structurally sound.
fn class_triple_blocks(t: &TableFile) -> Option<[Vec<&Vec<String>>; 3]> {
    let mut blocks: [Vec<&Vec<String>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for row in &t.rows {
        let class = row.first()?;
        let idx = match class.as_str() {
            "x" => 0,
            "enc" => 1,
            "?" => 2,
            _ => return None,
        };
        blocks[idx].push(row);
    }
    let keys = |block: &[&Vec<String>]| -> Vec<String> {
        block.iter().filter_map(|r| r.get(1).cloned()).collect()
    };
    let k0 = keys(&blocks[0]);
    if k0.is_empty() || keys(&blocks[1]) != k0 || keys(&blocks[2]) != k0 {
        return None;
    }
    Some(blocks)
}

fn check_class_triple(t: &TableFile, v: &mut Vec<Violation>) {
    if class_triple_blocks(t).is_none() {
        v.push(Violation::new(
            "results_rows",
            "results",
            t.name.clone(),
            "classes",
            "x / enc / ? blocks missing or carry different key sequences".to_string(),
        ));
    }
}

/// Percentage-sum laws. Cells are rendered with one decimal, so a k-term
/// sum tolerates `0.05·k` of rounding plus float dust.
fn check_percentages(t: &TableFile, v: &mut Vec<Violation>) {
    let tol = |terms: usize| 0.05 * terms as f64 + 1e-9;
    match t.name.as_str() {
        // Tables 6 and 8: for every key and context column, the three
        // class percentages cover the bytes — they sum to 100, or to 0
        // for an empty context.
        "table6" | "table8" => {
            let Some(blocks) = class_triple_blocks(t) else {
                return; // already reported by check_class_triple
            };
            for (ki, x_row) in blocks[0].iter().enumerate() {
                for col in 2..t.headers.len() {
                    let cells = [x_row, &blocks[1][ki], &blocks[2][ki]]
                        .iter()
                        .map(|r| r.get(col).and_then(|c| c.parse::<f64>().ok()))
                        .collect::<Option<Vec<f64>>>();
                    let Some(cells) = cells else {
                        v.push(Violation::new(
                            "results_pct",
                            "results",
                            t.name.clone(),
                            format!("{}[{}]", t.headers[col], x_row[1]),
                            "non-numeric percentage cell".to_string(),
                        ));
                        continue;
                    };
                    let sum: f64 = cells.iter().sum();
                    if sum != 0.0 && (sum - 100.0).abs() > tol(3) {
                        v.push(Violation::new(
                            "results_pct",
                            "results",
                            t.name.clone(),
                            format!("{}[{}]", t.headers[col], x_row[1]),
                            format!("class mix sums to {sum}, expected 100"),
                        ));
                    }
                }
            }
        }
        // Table 5: the quartile histogram buckets the same device
        // population in every class — per context column, the four
        // bucket counts sum to the same total for x, enc, and ?.
        "table5" => {
            let Some(blocks) = class_triple_blocks(t) else {
                return;
            };
            for col in 2..t.headers.len() {
                let sums: Option<Vec<u64>> = blocks
                    .iter()
                    .map(|block| {
                        block
                            .iter()
                            .map(|r| r.get(col).and_then(|c| c.parse::<u64>().ok()))
                            .sum::<Option<u64>>()
                    })
                    .collect();
                match sums {
                    Some(s) if s[0] == s[1] && s[1] == s[2] => {}
                    Some(s) => v.push(Violation::new(
                        "results_pct",
                        "results",
                        t.name.clone(),
                        t.headers[col].clone(),
                        format!("class totals differ: x={} enc={} ?={}", s[0], s[1], s[2]),
                    )),
                    None => v.push(Violation::new(
                        "results_pct",
                        "results",
                        t.name.clone(),
                        t.headers[col].clone(),
                        "non-numeric histogram cell".to_string(),
                    )),
                }
            }
        }
        // Figure 2: the per-lab share column covers the lab's traffic.
        "figure2_us" | "figure2_uk" => {
            let Some(col) = t.headers.iter().position(|h| h.contains('%')) else {
                v.push(Violation::new(
                    "results_pct",
                    "results",
                    t.name.clone(),
                    "headers",
                    "no percentage column found".to_string(),
                ));
                return;
            };
            let cells: Option<Vec<f64>> = t
                .rows
                .iter()
                .map(|r| r.get(col).and_then(|c| c.parse::<f64>().ok()))
                .collect();
            let Some(cells) = cells else {
                v.push(Violation::new(
                    "results_pct",
                    "results",
                    t.name.clone(),
                    t.headers[col].clone(),
                    "non-numeric percentage cell".to_string(),
                ));
                return;
            };
            let sum: f64 = cells.iter().sum();
            if (sum - 100.0).abs() > tol(cells.len()) {
                v.push(Violation::new(
                    "results_pct",
                    "results",
                    t.name.clone(),
                    t.headers[col].clone(),
                    format!("lab shares sum to {sum}, expected 100"),
                ));
            }
        }
        _ => {}
    }
}

/// The shape claims EXPERIMENTS.md makes about the tables.
fn check_claims(t: &TableFile, v: &mut Vec<Violation>) {
    let num = |r: &[String], col: usize| r.get(col).and_then(|c| c.parse::<f64>().ok());
    // The row whose cells, joined, start with `label`.
    let row = |label: &str| t.rows.iter().find(|r| r.join(" ").starts_with(label));
    let mut fail = |field: String, detail: String| {
        v.push(Violation::new("results_claims", "results", t.name.clone(), field, detail))
    };
    match t.name.as_str() {
        // Table 10: power is the most inferrable activity group in
        // every column. Table 8: voice has the highest encrypted share
        // in every column, among the rows of its `enc` class. Table 3:
        // TVs contact the most third parties in every column.
        "table10" | "table8" | "table3" => {
            // The top row, the class cell a peer shares with it (if
            // any), and the first numeric column.
            let (label, class, first) = match t.name.as_str() {
                "table10" => ("Power", None, 1),
                "table8" => ("enc Voice", Some(0), 2),
                _ => ("TV third", Some(1), 2),
            };
            let Some(top) = row(label) else {
                return fail("rows".into(), format!("no {label} row"));
            };
            let peers = t
                .rows
                .iter()
                .filter(|r| class.is_none_or(|c| r[c] == top[c]) && !std::ptr::eq(*r, top));
            for other in peers {
                for col in first..t.headers.len() {
                    if !matches!((num(top, col), num(other, col)), (Some(p), Some(o)) if p > o) {
                        fail(
                            format!("{}[{}]", t.headers[col], other[..first].join(" ")),
                            format!("{} is not below {label}'s {}", other[col], top[col]),
                        );
                    }
                }
            }
        }
        // Table 2: total support parties outnumber third parties, and
        // support counts order Control ≥ Power ≥ Voice, in every column.
        "table2" => {
            let orders = [
                ("Total support", "Total third", true),
                ("Control support", "Power support", false),
                ("Power support", "Voice support", false),
            ];
            for (hi, lo, strict) in orders {
                let (Some(h), Some(l)) = (row(hi), row(lo)) else {
                    return fail("rows".into(), format!("no {hi} or {lo} row"));
                };
                for col in 2..t.headers.len() {
                    let holds = |a: f64, b: f64| a > b || (!strict && a == b);
                    if !matches!((num(h, col), num(l, col)), (Some(a), Some(b)) if holds(a, b)) {
                        fail(
                            format!("{}[{lo}]", t.headers[col]),
                            format!(
                                "{lo} {} is not {} {hi}'s {}",
                                l[col],
                                if strict { "below" } else { "at most" },
                                h[col]
                            ),
                        );
                    }
                }
            }
        }
        // Table 9: smart hubs are almost never inferrable (≤ 1 device).
        // Table 5: no device sends more than 75% of its bytes
        // unencrypted.
        "table9" | "table5" => {
            let (label, max, first) =
                if t.name == "table9" { ("Smart Hubs", 1.0, 1) } else { ("x >75", 0.0, 2) };
            let Some(r) = row(label) else {
                return fail("rows".into(), format!("no {label} row"));
            };
            for col in first..t.headers.len() {
                if !num(r, col).is_some_and(|n| n <= max) {
                    fail(
                        format!("{}[{label}]", t.headers[col]),
                        format!("{} devices, expected at most {max}", r[col]),
                    );
                }
            }
        }
        // Ablation 4: Passport-style inference is at least as accurate
        // as the naive database on each egress.
        "ablation_geo" => {
            let col = |h: &str| t.headers.iter().position(|x| x == h);
            let (Some(pc), Some(nc)) = (col("passport"), col("naive db")) else {
                return fail("headers".into(), "no passport / naive db columns".into());
            };
            for r in &t.rows {
                if !matches!((num(r, pc), num(r, nc)), (Some(p), Some(n)) if p >= n) {
                    fail(
                        format!("passport[{}]", r[0]),
                        format!("passport {} below naive db {}", r[pc], r[nc]),
                    );
                }
            }
        }
        _ => {}
    }
}

/// Checks every `*.json` artifact in `dir` against the four results
/// invariant classes. A missing directory yields a single violation — a
/// repo that stops committing its results tables should fail loudly,
/// not silently skip the class.
pub fn check_results_dir(dir: &Path) -> Vec<Violation> {
    let mut v = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            v.push(Violation::new(
                "results_json",
                "results",
                dir.display().to_string(),
                "dir",
                format!("unreadable results directory: {e}"),
            ));
            return v;
        }
    };
    let mut names: Vec<(String, std::path::PathBuf)> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .filter_map(|p| {
            let stem = p.file_stem()?.to_str()?.to_string();
            Some((stem, p))
        })
        .collect();
    names.sort();
    if names.is_empty() {
        v.push(Violation::new(
            "results_json",
            "results",
            dir.display().to_string(),
            "dir",
            "no *.json artifacts found".to_string(),
        ));
        return v;
    }
    for (name, path) in names {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                v.push(Violation::new(
                    "results_json",
                    "results",
                    name,
                    "read",
                    format!("{e}"),
                ));
                continue;
            }
        };
        let Some(table) = parse_table(&name, &text, &mut v) else {
            continue;
        };
        check_shape(&table, &mut v);
        check_row_counts(&table, &mut v);
        check_percentages(&table, &mut v);
        check_claims(&table, &mut v);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, headers: &[&str], rows: &[&[&str]]) -> TableFile {
        TableFile {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
        }
    }

    #[test]
    fn committed_results_are_clean() {
        // The real gate: the artifacts in the repo satisfy every class.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("results");
        let v = check_results_dir(&dir);
        assert!(
            v.is_empty(),
            "{}",
            v.iter().map(Violation::render).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn ragged_rows_fire_shape() {
        let t = table("anything", &["A", "B"], &[&["1", "2"], &["only-one"]]);
        let mut v = Vec::new();
        check_shape(&t, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "results_shape");
    }

    #[test]
    fn class_mix_must_sum_to_100() {
        let good = table(
            "table8",
            &["Enc", "Experiment", "US"],
            &[
                &["x", "Idle", "10.0"],
                &["enc", "Idle", "50.0"],
                &["?", "Idle", "40.0"],
            ],
        );
        let mut v = Vec::new();
        check_percentages(&good, &mut v);
        assert!(v.is_empty(), "{v:?}");
        let bad = table(
            "table8",
            &["Enc", "Experiment", "US"],
            &[
                &["x", "Idle", "10.0"],
                &["enc", "Idle", "50.0"],
                &["?", "Idle", "45.0"],
            ],
        );
        check_percentages(&bad, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "results_pct");
    }

    #[test]
    fn quartile_classes_must_count_same_population() {
        let bad = table(
            "table5",
            &["Enc", "Range", "US"],
            &[
                &["x", ">75", "1"],
                &["x", "<25", "45"],
                &["enc", ">75", "20"],
                &["enc", "<25", "26"],
                &["?", ">75", "10"],
                &["?", "<25", "35"], // 45 != 46
            ],
        );
        let mut v = Vec::new();
        check_percentages(&bad, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("class totals differ"));
    }

    #[test]
    fn triple_with_mismatched_keys_fires_rows() {
        let bad = table(
            "table6",
            &["Enc", "Category", "US"],
            &[
                &["x", "Cameras", "1.0"],
                &["enc", "TV", "1.0"],
                &["?", "Cameras", "98.0"],
            ],
        );
        let mut v = Vec::new();
        check_class_triple(&bad, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "results_rows");
    }

    /// `good` satisfies its claim; `bad` flips it in exactly one cell.
    fn assert_claim(good: &TableFile, bad: &TableFile) {
        let mut v = Vec::new();
        check_claims(good, &mut v);
        assert!(v.is_empty(), "{v:?}");
        check_claims(bad, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "results_claims");
    }

    #[test]
    fn power_must_be_most_inferrable() {
        let headers = ["Activity (#D)", "US", "UK"];
        let power: &[&str] = &["Power (81)", "46", "34"];
        assert_claim(
            &table("table10", &headers, &[power, &["Voice (19)", "10", "8"]]),
            &table("table10", &headers, &[power, &["Voice (19)", "10", "34"]]),
        );
    }

    #[test]
    fn voice_must_be_most_encrypted() {
        let headers = ["Enc", "Experiment", "US", "UK"];
        // Only the enc block competes: a plaintext row may be higher.
        let idle: &[&str] = &["x", "Idle", "90.0", "90.0"];
        let voice: &[&str] = &["enc", "Voice", "83.4", "83.4"];
        assert_claim(
            &table(
                "table8",
                &headers,
                &[idle, voice, &["enc", "Others", "75.2", "71.5"]],
            ),
            &table(
                "table8",
                &headers,
                &[idle, voice, &["enc", "Others", "75.2", "85.0"]],
            ),
        );
    }

    #[test]
    fn tvs_must_contact_the_most_third_parties() {
        let headers = ["Category", "Party", "US", "UK"];
        // Only third-party rows compete: a support row may be higher.
        let tv: &[&str] = &["TV", "third", "6", "4"];
        let support: &[&str] = &["Appliances", "support", "7", "4"];
        assert_claim(
            &table(
                "table3",
                &headers,
                &[support, tv, &["Cameras", "third", "1", "1"]],
            ),
            &table(
                "table3",
                &headers,
                &[support, tv, &["Cameras", "third", "1", "4"]],
            ),
        );
    }

    #[test]
    fn support_must_outnumber_third_in_experiment_order() {
        let headers = ["Experiment", "Party", "US", "UK"];
        let table2 = |voice: &str, total_third: &str| {
            table(
                "table2",
                &headers,
                &[
                    &["Control", "support", "27", "17"],
                    &["Power", "support", "25", "17"],
                    &["Voice", "support", voice, "1"],
                    &["Total", "support", "27", "17"],
                    &["Total", "third", total_third, "5"],
                ],
            )
        };
        let good = table2("2", "8");
        assert_claim(&good, &table2("26", "8"));
        assert_claim(&good, &table2("2", "27"));
    }

    #[test]
    fn hubs_must_be_rarely_inferrable() {
        let headers = ["Category (#D)", "US", "UK"];
        let audio: &[&str] = &["Audio (11)", "6", "5"];
        assert_claim(
            &table("table9", &headers, &[&["Smart Hubs (14)", "0", "1"], audio]),
            &table("table9", &headers, &[&["Smart Hubs (14)", "2", "1"], audio]),
        );
    }

    #[test]
    fn passport_must_match_or_beat_naive_geolocation() {
        let headers = ["egress", "passport", "naive db"];
        let americas: &[&str] = &["Americas", "1.00", "0.75"];
        assert_claim(
            &table("ablation_geo", &headers, &[americas, &["Europe", "0.92", "0.92"]]),
            &table("ablation_geo", &headers, &[americas, &["Europe", "0.58", "0.92"]]),
        );
    }

    #[test]
    fn no_device_may_be_mostly_plaintext() {
        let headers = ["Enc", "Range", "US", "UK"];
        assert_claim(
            &table("table5", &headers, &[&["x", ">75", "0", "0"], &["x", "50-75", "2", "2"]]),
            &table("table5", &headers, &[&["x", ">75", "0", "1"], &["x", "50-75", "2", "2"]]),
        );
    }

    #[test]
    fn missing_dir_is_one_loud_violation() {
        let v = check_results_dir(Path::new("/nonexistent/results-dir"));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "results_json");
    }
}
