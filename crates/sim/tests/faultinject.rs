//! End-to-end fault injection: seeded corruption and scheduled cell
//! panics must degrade runs gracefully — quarantined traces, labeled
//! failed cells, surviving results bit-identical for any thread count —
//! never abort them.

use std::path::PathBuf;
use std::process::Command;

use replay::{record_benchmark, verify_corpus_report, FaultPlan, Manifest};
use sim::experiments::{tracecmp, ExpEnv};
use sim::json::{self, Json};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sim-faultinject-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn tracecmp_survives_faults_and_stays_thread_invariant() {
    // One corrupted trace (gzip gets a seeded bit flip in its record
    // region) plus scheduled panics in every cell whose label mentions
    // the 16KB gshare on vpr.
    let fault = FaultPlan::from_spec("seed=7; flip=gzip; panic=gshare \u{d7} vpr").unwrap();
    let env = ExpEnv {
        scale: 0.02,
        ..ExpEnv::tiny()
    };

    let mut reports = Vec::new();
    for threads in [1, 2, 4] {
        let env = env.clone().with_threads(threads).with_fault(fault.clone());
        let (_, json) = tracecmp::run_with_report(&env);
        reports.push(json);
    }
    assert_eq!(reports[0], reports[1], "2-thread run diverged under faults");
    assert_eq!(reports[0], reports[2], "4-thread run diverged under faults");

    // The whole report parses, so the escaped quarantine and failure
    // reasons are well-formed JSON strings.
    let report = &reports[0];
    let doc = json::parse(report.as_bytes()).expect("BENCH_tracecmp.json parses under faults");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("bench_tracecmp_v3")
    );
    let text = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_owned();
    // The flipped trace is quarantined with a reason, not fatal.
    let quarantine = doc.get("quarantine").and_then(Json::as_array).unwrap();
    assert!(
        quarantine
            .iter()
            .any(|q| text(q, "trace") == "gzip" && !text(q, "reason").is_empty()),
        "gzip not quarantined:\n{report}"
    );
    // The scheduled panics surface as labeled failed cells.
    let failed = doc.get("failed_cells").and_then(Json::as_array).unwrap();
    assert!(!failed.is_empty());
    for cell in failed {
        assert!(
            text(cell, "label").contains("gshare \u{d7} vpr"),
            "{cell:?}"
        );
        assert!(
            text(cell, "reason").contains("injected fault: scheduled panic"),
            "{cell:?}"
        );
    }
    // Healthy traces still ranked: the report carries a winner.
    let ranking = doc.get("ranking").and_then(Json::as_array).unwrap();
    assert_eq!(ranking[0].get("rank").and_then(Json::as_u64), Some(1));
}

#[test]
fn verify_report_quarantines_only_the_corrupt_entry() {
    let dir = temp_dir("verify-report");
    let entries = ["gzip", "swim"]
        .iter()
        .map(|name| {
            let bench = workloads::benchmark(name).unwrap();
            record_benchmark(&dir, &bench, 20_000).unwrap()
        })
        .collect();
    let manifest = Manifest { entries };

    // Rot swim's trace on disk with the deterministic injector.
    let plan = FaultPlan::from_spec("seed=9; flip=swim").unwrap();
    let path = dir.join("swim.bt");
    let mut bytes = std::fs::read(&path).unwrap();
    assert!(plan.corrupt_trace("swim", &mut bytes).is_some());
    std::fs::write(&path, &bytes).unwrap();

    let report = verify_corpus_report(&dir, &manifest);
    assert!(!report.is_clean());
    assert_eq!(report.ok, vec!["gzip".to_string()]);
    assert_eq!(report.quarantine.len(), 1);
    assert_eq!(report.quarantine[0].trace, "swim");
    assert!(!report.quarantine[0].reason.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traces_replay_cli_quarantines_a_truncated_trace_and_exits_zero() {
    let dir = temp_dir("replay-cli");
    let traces_bin = env!("CARGO_BIN_EXE_traces");

    let record = Command::new(traces_bin)
        .args(["record", "--dir"])
        .arg(&dir)
        .args(["--bench", "gzip,swim", "--threads", "2"])
        .env("SCALE", "0.02")
        .output()
        .unwrap();
    assert!(record.status.success(), "record failed: {record:?}");

    // Truncate gzip's trace mid-record, as a crashed writer would.
    let bt = dir.join("gzip.bt");
    let bytes = std::fs::read(&bt).unwrap();
    std::fs::write(&bt, &bytes[..bytes.len() / 2]).unwrap();

    let replay = Command::new(traces_bin)
        .args(["replay", "--dir"])
        .arg(&dir)
        .args(["--threads", "2"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(
        replay.status.success(),
        "replay must degrade, not abort: {replay:?}"
    );
    assert!(stdout.contains("quarantined traces:"), "{stdout}");
    assert!(stdout.contains("gzip"), "{stdout}");
    assert!(stdout.contains("swim"), "healthy trace dropped:\n{stdout}");

    // verify still reports the rot loudly and exits non-zero.
    let verify = Command::new(traces_bin)
        .args(["verify", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    let vout = String::from_utf8_lossy(&verify.stdout);
    assert!(!verify.status.success());
    assert!(vout.contains("QUARANTINE"), "{vout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
