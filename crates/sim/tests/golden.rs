//! Golden results: `experiments` runs at `SCALE=0.05` must reproduce the
//! reports and stdout checked in under `tests/golden/`, byte for byte.
//!
//! * `tracecmp` covers every conventional replay entrant, the `perceptron`
//!   and `tage+h2p` prophet hybrids and the `t.tage` critic.
//! * The twelve paper experiments (`table1`–`table4`, `fig5`–`fig10`,
//!   `headline`, `ablation`) cover the accuracy engine and the cycle
//!   engine, fig8's cycle-grid columns and headline's uPC row included.
//! * `h2p` drives `run_accuracy_observed` through the tuned hybrid and the
//!   TAGE allocator ablation.
//! * `tune` under `TUNE_PRESET=quick` covers the staged search, its
//!   ranking and its H2P slices.
//!
//! A change that moves any of their numbers fails here. A change that
//! moves them on purpose regenerates the files with the command in
//! `tests/golden/README.md`, in the same commit.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// `None` when `got` is byte-identical to golden file `name`; otherwise a
/// description of the first lines that differ.
fn mismatch(name: &str, got: &[u8]) -> Option<String> {
    let want = std::fs::read(golden(name)).unwrap_or_else(|e| panic!("golden {name}: {e}"));
    if got == want.as_slice() {
        return None;
    }
    let got = String::from_utf8_lossy(got);
    let want = String::from_utf8_lossy(&want);
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let mut out = format!(
        "{name}: {} lines, golden has {}\n",
        got_lines.len(),
        want_lines.len()
    );
    let differing = (0..got_lines.len().max(want_lines.len()))
        .filter(|&i| got_lines.get(i) != want_lines.get(i))
        .take(5);
    for i in differing {
        out += &format!(
            "  line {}:\n    golden: {}\n    got:    {}\n",
            i + 1,
            want_lines.get(i).unwrap_or(&"<none>"),
            got_lines.get(i).unwrap_or(&"<none>"),
        );
    }
    Some(out)
}

/// Runs `experiments --threads 2 <ids>` at `SCALE=0.05`, with the
/// environment variables `vars` set, in a fresh directory and returns its
/// stdout and the contents of `report`, a file the run writes there.
fn run_experiments(ids: &[&str], vars: &[(&str, &str)], report: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("sim-golden-{}-{}", ids[0], std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Settings that would change the run come only from the arguments.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--threads", "2"])
        .args(ids)
        .current_dir(&dir)
        .env("SCALE", "0.05")
        .env_remove("FAULT_PLAN")
        .env_remove("CELL_STORE")
        .env_remove("EXP_BENCH")
        .env_remove("CORPUS_TRACES")
        .env_remove("TUNE_PRESET")
        .env_remove("TUNE_H2P_WEIGHT")
        .envs(vars.iter().copied())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "experiments {ids:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read(dir.join(report)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (out.stdout, report)
}

/// Fails with the first differing lines of every golden in `checks`
/// that `ids`' output no longer reproduces.
fn assert_golden(ids: &[&str], checks: &[Option<String>]) {
    let diffs: Vec<&str> = checks.iter().flatten().map(String::as_str).collect();
    assert!(
        diffs.is_empty(),
        "experiments {ids:?} drifted from tests/golden/ (see tests/golden/README.md):\n{}",
        diffs.join("")
    );
}

#[test]
fn tracecmp_reproduces_the_golden_report_and_stdout() {
    let ids = ["tracecmp"];
    let (stdout, report) = run_experiments(&ids, &[], "BENCH_tracecmp.json");
    assert_golden(
        &ids,
        &[
            mismatch("tracecmp.json", &report),
            mismatch("tracecmp.txt", &stdout),
        ],
    );
}

#[test]
fn the_twelve_paper_experiments_reproduce_the_golden_stdout() {
    let ids = [
        "table1", "table2", "table3", "table4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        "headline", "ablation",
    ];
    // The run must write the headline report, but it carries wall-clock
    // times, so only stdout is pinned.
    let (stdout, _) = run_experiments(&ids, &[], "BENCH_headline.json");
    assert_golden(&ids, &[mismatch("experiments.txt", &stdout)]);
}

#[test]
fn h2p_reproduces_the_golden_report_and_stdout() {
    let ids = ["h2p"];
    let (stdout, report) = run_experiments(&ids, &[], "BENCH_h2p.json");
    assert_golden(
        &ids,
        &[mismatch("h2p.json", &report), mismatch("h2p.txt", &stdout)],
    );
}

#[test]
fn quick_tune_reproduces_the_golden_report_and_stdout() {
    let ids = ["tune"];
    let (stdout, report) = run_experiments(&ids, &[("TUNE_PRESET", "quick")], "BENCH_tune.json");
    assert_golden(
        &ids,
        &[
            mismatch("tune.json", &report),
            mismatch("tune.txt", &stdout),
        ],
    );
}
