//! Exit-code contract of the `bench_diff` CLI: 0 = no drift, 1 = drift,
//! 2 = usage error, 3 = bad input — so CI can tell "results regressed"
//! apart from "artifact never materialised", and a broken artifact gets
//! a one-line diagnostic instead of a panic.

use std::path::PathBuf;
use std::process::Command;

use prophet_critic::CritiqueStats;
use sim::{AccuracyResult, CellKey, CellStore};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-diff-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&std::ffi::OsStr]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn run_str(args: &[&str]) -> (i32, String, String) {
    let os: Vec<&std::ffi::OsStr> = args.iter().map(std::ffi::OsStr::new).collect();
    run(&os)
}

fn sample(uops: u64) -> AccuracyResult {
    AccuracyResult {
        benchmark: "gzip".into(),
        committed_uops: uops,
        committed_branches: 1_000,
        final_mispredicts: 50,
        prophet_mispredicts: 60,
        fetched_uops: uops + 500,
        btb_redirects: 3,
        critic_overrides: 7,
        ftq_entries_flushed: 9,
        btb_miss_rate: 0.01,
        critiques: CritiqueStats::from_counts([1, 1, 1, 1, 1, 1]),
    }
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(run_str(&[]).0, 2);
    assert_eq!(run_str(&["one.json"]).0, 2);
    assert_eq!(run_str(&["a.json", "b.json", "--tolerance", "zebra"]).0, 2);
}

#[test]
fn missing_empty_and_corrupt_inputs_exit_3_with_diagnostics() {
    let dir = temp_dir("bad-input");
    let good = dir.join("good.json");
    std::fs::write(&good, "{\"upc\": 1.0}\n").unwrap();

    let missing = dir.join("does-not-exist.json");
    let (code, _, err) = run(&[good.as_os_str(), missing.as_os_str()]);
    assert_eq!(code, 3);
    assert!(err.contains("cannot read"), "{err}");

    // An empty artifact (interrupted run) gets its own message.
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "").unwrap();
    let (code, _, err) = run(&[good.as_os_str(), empty.as_os_str()]);
    assert_eq!(code, 3);
    assert!(err.contains("is empty"), "{err}");

    let corrupt = dir.join("corrupt.json");
    std::fs::write(&corrupt, "{\"upc\": 1.0").unwrap();
    let (code, _, err) = run(&[good.as_os_str(), corrupt.as_os_str()]);
    assert_eq!(code, 3);
    assert!(err.contains("corrupt.json"), "{err}");

    // A pathologically nested report stops at the parser's depth cap
    // with the same one-line diagnostic, not a stack overflow.
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(1_000_000) + &"]".repeat(1_000_000)).unwrap();
    let (code, _, err) = run(&[good.as_os_str(), deep.as_os_str()]);
    assert_eq!(code, 3);
    assert!(
        err.contains("deep.json") && err.contains("too deep"),
        "{err}"
    );
    assert_eq!(err.lines().count(), 1, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn report_drift_exits_1_and_identity_exits_0() {
    let dir = temp_dir("drift");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    std::fs::write(&a, "{\"upc\": 1.0, \"misp\": 10}\n").unwrap();
    std::fs::write(&b, "{\"upc\": 1.5, \"misp\": 10}\n").unwrap();

    let (code, out, _) = run(&[a.as_os_str(), a.as_os_str()]);
    assert_eq!(code, 0, "{out}");
    let (code, out, _) = run(&[a.as_os_str(), b.as_os_str()]);
    assert_eq!(code, 1);
    assert!(out.contains("DRIFT upc"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_mode_diffs_cell_stores() {
    let old_dir = temp_dir("store-old");
    let new_dir = temp_dir("store-new");
    let key = CellKey::new("accuracy", "spec \u{d7} gzip", 0xfeed, 20_000);
    CellStore::open(&old_dir)
        .unwrap()
        .put(&key, &sample(100_000))
        .unwrap();
    let new_store = CellStore::open(&new_dir).unwrap();
    new_store.put(&key, &sample(100_000)).unwrap();

    let (code, out, _) = run(&[
        std::ffi::OsStr::new("--store"),
        old_dir.as_os_str(),
        new_dir.as_os_str(),
    ]);
    assert_eq!(code, 0, "identical stores must not drift: {out}");

    // Perturb one counter beyond tolerance: drift, exit 1, named field.
    new_store.put(&key, &sample(150_000)).unwrap();
    let (code, out, _) = run(&[
        std::ffi::OsStr::new("--store"),
        old_dir.as_os_str(),
        new_dir.as_os_str(),
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("committed_uops"), "{out}");

    // A store that never materialised is bad input, not a crash.
    let ghost = std::env::temp_dir().join("bench-diff-cli-no-such-store");
    let _ = std::fs::remove_dir_all(&ghost);
    let (code, _, err) = run(&[
        std::ffi::OsStr::new("--store"),
        old_dir.as_os_str(),
        ghost.as_os_str(),
    ]);
    assert_eq!(code, 3);
    assert!(err.contains("does not exist"), "{err}");

    std::fs::remove_dir_all(&old_dir).unwrap();
    std::fs::remove_dir_all(&new_dir).unwrap();
}
