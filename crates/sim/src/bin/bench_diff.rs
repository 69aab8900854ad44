//! Regression diff for `BENCH_*.json` artifacts and cell stores.
//!
//! ```text
//! bench_diff OLD.json NEW.json [--tolerance PCT]
//! bench_diff --store OLD_DIR NEW_DIR [--tolerance PCT]
//! ```
//!
//! Compares the accuracy/performance metrics of two benchmark reports —
//! every numeric field whose key contains `misp_per_kuops`, `upc` or
//! `misp` — and exits non-zero when any metric drifted by more than the
//! tolerance (default 1 %). Wall-clock, thread-count and scale fields
//! are ignored: they are environment, not results.
//!
//! Exit codes are distinct so CI can tell *what kind* of failure it saw:
//! `0` no drift, `1` drift beyond tolerance, `2` usage error, `3` bad
//! input (missing, empty, or unparseable report / store). A missing or
//! truncated artifact gets a one-line diagnostic naming the file and the
//! problem, never a panic. Reports parse through [`sim::json`], whose
//! depth cap turns even a pathologically nested file into that
//! diagnostic rather than a stack overflow.
//!
//! `--store` diffs two incremental cell stores (see `sim::store`)
//! field-by-field instead of two JSON reports: cells are matched by
//! their canonical key, every numeric payload field is compared, and
//! cells present on only one side are warnings (grids legitimately grow
//! across commits).
//!
//! Array-of-object entries are matched by their `configuration`/`bench`
//! label when one is present (so a re-ranked tournament still diffs the
//! right rows), by position otherwise. Metrics present on only one side
//! are reported as warnings, not failures — lineups legitimately change
//! across commits; drift in a *shared* metric is the regression signal.
//!
//! CI's nightly `grid-soak` job downloads the previous run's artifacts
//! and fails on drift (see `.github/workflows/ci.yml`).

use std::path::Path;
use std::process::ExitCode;

use sim::json::{parse, Json};
use sim::{decode_numeric, CellStore};

/// Exit code for inputs that could not be read or parsed (distinct from
/// drift = 1 and usage = 2, so CI can distinguish "results regressed"
/// from "artifact never materialised").
const EXIT_BAD_INPUT: u8 = 3;

/// Whether a numeric field is a result metric worth diffing.
fn is_metric(key: &str) -> bool {
    key.contains("misp_per_kuops") || key.contains("upc") || key.contains("misp")
}

/// Whether a field is run environment, never diffed.
fn is_environment(key: &str) -> bool {
    key.contains("wall_clock")
        || key.contains("seconds")
        || key.contains("threads")
        || key == "scale"
        || key == "rank"
}

/// The label key that identifies an object inside an array, if any.
fn label_of(obj: &[(String, Json)]) -> Option<String> {
    for want in ["configuration", "bench", "id"] {
        if let Some((_, Json::Str(s))) = obj.iter().find(|(k, _)| k == want) {
            return Some(format!("{want}={s}"));
        }
    }
    None
}

/// Flattens a report to `path -> value` for every metric leaf.
fn metrics(value: &Json, path: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Json::Obj(fields) => {
            for (key, v) in fields {
                if is_environment(key) {
                    continue;
                }
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                match v {
                    Json::Num(n) if is_metric(key) => out.push((child, *n)),
                    _ => metrics(v, &child, out),
                }
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                let label = match v {
                    Json::Obj(fields) => label_of(fields).unwrap_or_else(|| i.to_string()),
                    _ => i.to_string(),
                };
                metrics(v, &format!("{path}[{label}]"), out);
            }
        }
        _ => {}
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_diff OLD.json NEW.json [--tolerance PCT]\n       \
         bench_diff --store OLD_DIR NEW_DIR [--tolerance PCT]"
    );
    ExitCode::from(2)
}

/// Loads one JSON report side as `path -> value` metric leaves, with a
/// one-line diagnostic (and no panic) for every way the artifact can be
/// bad: missing, unreadable, empty, or unparseable.
fn load_report(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("bench_diff: cannot read {path}: {err}"))?;
    if text.trim().is_empty() {
        return Err(format!(
            "bench_diff: {path} is empty (interrupted run or truncated write?)"
        ));
    }
    let v = parse(text.as_bytes()).map_err(|err| format!("bench_diff: {path}: {err}"))?;
    let mut m = Vec::new();
    metrics(&v, "", &mut m);
    Ok(m)
}

/// Loads one cell-store side as `key.field -> value` numeric leaves.
fn load_store(dir: &str) -> Result<Vec<(String, f64)>, String> {
    let path = Path::new(dir);
    if !path.is_dir() {
        return Err(format!("bench_diff: store {dir} does not exist"));
    }
    let store = CellStore::open(path)
        .map_err(|err| format!("bench_diff: cannot open store {dir}: {err}"))?;
    let entries = store
        .entries()
        .map_err(|err| format!("bench_diff: cannot scan store {dir}: {err}"))?;
    if entries.is_empty() {
        return Err(format!("bench_diff: store {dir} contains no cells"));
    }
    let mut out = Vec::new();
    for entry in entries {
        for (field, value) in &entry.fields {
            if let Some(n) = decode_numeric(value) {
                out.push((format!("{}.{field}", entry.key), n));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Compares two flattened metric sides and prints the drift report.
fn diff_sides(
    old_side: &[(String, f64)],
    new_side: &[(String, f64)],
    old_path: &str,
    new_path: &str,
    tolerance: f64,
) -> ExitCode {
    let mut drifted = 0usize;
    let mut compared = 0usize;
    for (key, old) in old_side {
        let Some((_, new)) = new_side.iter().find(|(k, _)| k == key) else {
            eprintln!("warning: {key} only in {old_path}");
            continue;
        };
        compared += 1;
        let base = old.abs().max(1e-9);
        let drift = (new - old).abs() / base * 100.0;
        if drift > tolerance {
            drifted += 1;
            println!("DRIFT {key}: {old:.4} -> {new:.4} ({drift:+.2}%)");
        }
    }
    for (key, _) in new_side {
        if !old_side.iter().any(|(k, _)| k == key) {
            eprintln!("warning: {key} only in {new_path}");
        }
    }

    println!(
        "bench_diff: {compared} metric(s) compared, {drifted} drifted beyond {tolerance}% \
         ({old_path} -> {new_path})"
    );
    if drifted > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 1.0f64;
    if let Some(pos) = args.iter().position(|a| a == "--tolerance") {
        if pos + 1 >= args.len() {
            return usage();
        }
        match args.remove(pos + 1).parse::<f64>() {
            Ok(t) if t >= 0.0 => tolerance = t,
            _ => return usage(),
        }
        args.remove(pos);
    }
    let store_mode = args
        .iter()
        .position(|a| a == "--store")
        .map(|pos| args.remove(pos))
        .is_some();
    let [old_path, new_path] = args.as_slice() else {
        return usage();
    };

    let load = if store_mode { load_store } else { load_report };
    let mut sides = Vec::new();
    for path in [old_path, new_path] {
        match load(path) {
            Ok(m) => sides.push(m),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(EXIT_BAD_INPUT);
            }
        }
    }
    let new_side = sides.pop().expect("two sides parsed");
    let old_side = sides.pop().expect("two sides parsed");
    diff_sides(&old_side, &new_side, old_path, new_path, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_report_shape() {
        let v = parse(
            br#"{"schema": "x", "ranking": [{"configuration": "a", "misp_per_kuops": 1.5, "upc": 2.0}], "headline": null}"#,
        )
        .unwrap();
        let mut m = Vec::new();
        metrics(&v, "", &mut m);
        assert_eq!(m.len(), 2);
        assert!(m.iter().any(
            |(k, v)| k == "ranking[configuration=a].misp_per_kuops" && (*v - 1.5).abs() < 1e-12
        ));
    }

    #[test]
    fn environment_fields_are_ignored() {
        let v = parse(br#"{"threads": 8, "total_wall_clock_seconds": 3.2, "upc": 1.0}"#).unwrap();
        let mut m = Vec::new();
        metrics(&v, "", &mut m);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].0, "upc");
    }

    #[test]
    fn label_matching_survives_reordering() {
        let a =
            parse(br#"{"r": [{"bench": "x", "misp": 1.0}, {"bench": "y", "misp": 2.0}]}"#).unwrap();
        let b =
            parse(br#"{"r": [{"bench": "y", "misp": 2.0}, {"bench": "x", "misp": 1.0}]}"#).unwrap();
        let (mut ma, mut mb) = (Vec::new(), Vec::new());
        metrics(&a, "", &mut ma);
        metrics(&b, "", &mut mb);
        for (k, v) in &ma {
            let (_, w) = mb.iter().find(|(kb, _)| kb == k).expect("matched by label");
            assert!((v - w).abs() < 1e-12);
        }
    }
}
