//! Golden results: `experiments tracecmp` at `SCALE=0.05` must reproduce
//! the report and stdout checked in under `tests/golden/`, byte for byte.
//!
//! The report covers every conventional replay entrant, the `perceptron`
//! and `tage+h2p` prophet hybrids and the `t.tage` critic, so a change that
//! moves any of their predictions fails here. A change that moves them on
//! purpose regenerates the files with the command in
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

#[test]
fn tracecmp_reproduces_the_golden_report_and_stdout() {
    let dir = std::env::temp_dir().join(format!("sim-golden-tracecmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Settings that would change the run come only from the arguments.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--threads", "2", "tracecmp"])
        .current_dir(&dir)
        .env("SCALE", "0.05")
        .env_remove("FAULT_PLAN")
        .env_remove("CELL_STORE")
        .env_remove("EXP_BENCH")
        .env_remove("CORPUS_TRACES")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "experiments tracecmp failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read(dir.join("BENCH_tracecmp.json")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let diffs: Vec<String> = [
        mismatch("tracecmp.json", &report),
        mismatch("tracecmp.txt", &out.stdout),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(
        diffs.is_empty(),
        "tracecmp drifted from tests/golden/ (see tests/golden/README.md):\n{}",
        diffs.join("")
    );
}
