//! Structured JSON diff: compares two report documents field by field
//! and names every divergence by path, so a differential-run failure
//! reads `encryption_mix.US[0]: 12.4 != 12.9` instead of "bytes differ".

use crate::Violation;
use iot_core::json::Json;

/// One diverging leaf between two documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Dotted path with array indices, e.g. `encryption_mix.US[0]` or
    /// `pii_findings[3].domain`. Empty for a root-level scalar.
    pub path: String,
    /// Rendering of the left side (`"<absent>"` when the key/index is
    /// missing on this side).
    pub left: String,
    /// Rendering of the right side.
    pub right: String,
}

impl FieldDiff {
    /// Converts the diff into a [`Violation`], splitting the path into
    /// table (first segment), row (second segment), and field (rest).
    pub fn into_violation(self, invariant: &'static str) -> Violation {
        let (table, rest) = split_head(&self.path);
        let (row, field) = split_head(rest);
        Violation::new(
            invariant,
            if table.is_empty() { "<root>" } else { table },
            row,
            field,
            format!("{} != {}", self.left, self.right),
        )
    }
}

/// Splits `a.b[0].c` into its head segment and the remainder.
fn split_head(path: &str) -> (&str, &str) {
    for (i, c) in path.char_indices() {
        match c {
            '.' => return (&path[..i], &path[i + 1..]),
            '[' => return (&path[..i], &path[i..]),
            _ => {}
        }
    }
    (path, "")
}

const ABSENT: &str = "<absent>";

/// Compares two documents recursively, appending one [`FieldDiff`] per
/// diverging leaf. Object members are matched by key (order-blind, so a
/// reordering alone is not a diff — report emission sorts keys anyway);
/// arrays are matched by index. Scalars compare by their serialized
/// form, so `Int(3)` and `UInt(3)` are the same value.
pub fn diff_json(left: &Json, right: &Json) -> Vec<FieldDiff> {
    let mut out = Vec::new();
    walk(left, right, String::new(), &mut out);
    out
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(left: &Json, right: &Json, path: String, out: &mut Vec<FieldDiff>) {
    match (left.members(), right.members()) {
        (Some(lm), Some(rm)) => {
            for (key, lv) in lm {
                match right.get(key) {
                    Some(rv) => walk(lv, rv, join(&path, key), out),
                    None => out.push(FieldDiff {
                        path: join(&path, key),
                        left: lv.dump(),
                        right: ABSENT.to_string(),
                    }),
                }
            }
            for (key, rv) in rm {
                if left.get(key).is_none() {
                    out.push(FieldDiff {
                        path: join(&path, key),
                        left: ABSENT.to_string(),
                        right: rv.dump(),
                    });
                }
            }
            return;
        }
        (None, None) => {}
        // One side is an object, the other is not: a leaf-level diff.
        _ => {
            out.push(FieldDiff {
                path,
                left: left.dump(),
                right: right.dump(),
            });
            return;
        }
    }
    match (left.items(), right.items()) {
        (Some(li), Some(ri)) => {
            for (i, lv) in li.iter().enumerate() {
                match ri.get(i) {
                    Some(rv) => walk(lv, rv, format!("{path}[{i}]"), out),
                    None => out.push(FieldDiff {
                        path: format!("{path}[{i}]"),
                        left: lv.dump(),
                        right: ABSENT.to_string(),
                    }),
                }
            }
            for (i, rv) in ri.iter().enumerate().skip(li.len()) {
                out.push(FieldDiff {
                    path: format!("{path}[{i}]"),
                    left: ABSENT.to_string(),
                    right: rv.dump(),
                });
            }
        }
        (None, None) => {
            if left.dump() != right.dump() {
                out.push(FieldDiff {
                    path,
                    left: left.dump(),
                    right: right.dump(),
                });
            }
        }
        _ => out.push(FieldDiff {
            path,
            left: left.dump(),
            right: right.dump(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn identical_documents_have_no_diffs() {
        let a = parse(r#"{"x":1,"y":[1,2,{"z":"s"}]}"#);
        assert!(diff_json(&a, &a).is_empty());
    }

    #[test]
    fn key_order_is_not_a_diff() {
        let a = parse(r#"{"x":1,"y":2}"#);
        let b = parse(r#"{"y":2,"x":1}"#);
        assert!(diff_json(&a, &b).is_empty());
    }

    #[test]
    fn nested_divergence_names_the_path() {
        let a = parse(r#"{"encryption_mix":{"US":[12.4,80.0,7.6]},"n":3}"#);
        let b = parse(r#"{"encryption_mix":{"US":[12.9,80.0,7.1]},"n":3}"#);
        let diffs = diff_json(&a, &b);
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].path, "encryption_mix.US[0]");
        assert_eq!(diffs[0].left, "12.4");
        assert_eq!(diffs[0].right, "12.9");
        assert_eq!(diffs[1].path, "encryption_mix.US[2]");
    }

    #[test]
    fn missing_members_and_length_mismatches_reported() {
        let a = parse(r#"{"x":1,"arr":[1,2,3]}"#);
        let b = parse(r#"{"y":2,"arr":[1,2]}"#);
        let diffs = diff_json(&a, &b);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"x"), "{paths:?}");
        assert!(paths.contains(&"y"), "{paths:?}");
        assert!(paths.contains(&"arr[2]"), "{paths:?}");
    }

    #[test]
    fn type_mismatch_is_a_leaf_diff() {
        let a = parse(r#"{"x":{"inner":1}}"#);
        let b = parse(r#"{"x":5}"#);
        let diffs = diff_json(&a, &b);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "x");
    }

    #[test]
    fn int_and_uint_compare_equal_by_value() {
        let diffs = diff_json(&Json::Int(3), &Json::UInt(3));
        assert!(diffs.is_empty());
    }

    #[test]
    fn violation_splits_table_row_field() {
        let d = FieldDiff {
            path: "encryption_mix.US[0]".to_string(),
            left: "12.4".to_string(),
            right: "12.9".to_string(),
        };
        let v = d.into_violation("differential_workers");
        assert_eq!(v.table, "encryption_mix");
        assert_eq!(v.row, "US");
        assert_eq!(v.field, "[0]");
        assert_eq!(v.detail, "12.4 != 12.9");
    }
}
