//! Integration: the `record → replay` round trip over a real on-disk
//! corpus is deterministic — replaying the recorded corpus reproduces the
//! same per-predictor accuracy as direct execution on the same seeds
//! (the subsystem's acceptance pin).

use std::path::Path;

use predictors::configs::{self, Budget};
use predictors::{Bimodal, DirectionPredictor};
use replay::{
    direct_replay, load_snapshot, open_trace, record_corpus, replay_entry, verify_corpus, Manifest,
    ReplayConfig, TraceEntry,
};
use workloads::{Benchmark, Walker};

const BUDGET: u64 = 30_000;

fn corpus_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("replay-it-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn benches(names: &[&str]) -> Vec<Benchmark> {
    names
        .iter()
        .map(|n| workloads::benchmark(n).unwrap())
        .collect()
}

/// Replays `entry`'s recorded trace and `bench`'s direct execution, each
/// through a fresh predictor from `make`: the results must be identical.
fn check<P: DirectionPredictor>(
    dir: &Path,
    bench: &Benchmark,
    entry: &TraceEntry,
    make: impl Fn() -> P,
) {
    let cfg = ReplayConfig::with_budget(BUDGET);
    let from_disk = replay_entry(dir, entry, &mut make(), &cfg).unwrap();
    let direct = direct_replay(&bench.program(), bench.seed, &mut make(), &cfg);
    assert_eq!(
        from_disk, direct,
        "{} on {}: corpus replay diverged from direct execution",
        direct.predictor, bench.name
    );
}

#[test]
fn recorded_corpus_replay_matches_direct_execution() {
    let dir = corpus_dir("determinism");
    let benches = benches(&["gzip", "gcc", "tpcc"]);
    let manifest = record_corpus(&dir, &benches, BUDGET).unwrap();
    verify_corpus(&dir, &manifest).unwrap();

    for (bench, entry) in benches.iter().zip(&manifest.entries) {
        assert_eq!(entry.uop_budget, BUDGET);
        check(&dir, bench, entry, || Bimodal::new(8 * 1024));
        check(&dir, bench, entry, || configs::gshare(Budget::K8));
        check(&dir, bench, entry, || configs::bc_gskew(Budget::K8));
        check(&dir, bench, entry, || configs::perceptron(Budget::K8));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn re_recording_reproduces_the_corpus_bit_for_bit() {
    let dir_a = corpus_dir("rerecord-a");
    let dir_b = corpus_dir("rerecord-b");
    let set = benches(&["mcf", "swim"]);
    let a = record_corpus(&dir_a, &set, BUDGET).unwrap();
    let b = record_corpus(&dir_b, &set, BUDGET).unwrap();
    assert_eq!(a, b, "manifests must agree (checksums included)");
    for entry in &a.entries {
        let bytes_a = std::fs::read(dir_a.join(&entry.bt_file)).unwrap();
        let bytes_b = std::fs::read(dir_b.join(&entry.bt_file)).unwrap();
        assert_eq!(bytes_a, bytes_b, "{}: .bt files differ", entry.name);
        let pcl_a = std::fs::read(dir_a.join(&entry.pcl_file)).unwrap();
        let pcl_b = std::fs::read(dir_b.join(&entry.pcl_file)).unwrap();
        assert_eq!(pcl_a, pcl_b, "{}: .pcl files differ", entry.name);
    }
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn snapshot_path_reproduces_the_traced_branch_stream() {
    // The hybrid evaluation path re-executes the snapshot; its
    // correct-path walk must match the recorded trace exactly.
    let dir = corpus_dir("snapshot");
    let set = benches(&["crafty"]);
    let manifest = record_corpus(&dir, &set, BUDGET).unwrap();
    let entry = manifest.entry("crafty").unwrap();

    let snap = load_snapshot(&dir, entry).unwrap();
    let mut walker = Walker::with_seed(&snap.program, snap.seed);
    let mut reader = open_trace(&dir, entry).unwrap();
    let mut compared = 0u64;
    while let Some(rec) = reader.next_record().unwrap() {
        let ev = walker.next_branch();
        assert_eq!(
            (ev.pc, ev.outcome, ev.uops),
            (rec.pc, rec.taken, u64::from(rec.uops_since_prev))
        );
        walker.follow(ev.outcome);
        compared += 1;
    }
    assert_eq!(compared, entry.records);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_survives_reload_between_sessions() {
    // A corpus is a durable artifact: a second process (here, a second
    // load) sees the same manifest and can replay without re-recording.
    let dir = corpus_dir("reload");
    let set = benches(&["art"]);
    let written = record_corpus(&dir, &set, BUDGET).unwrap();
    let reloaded = Manifest::load(&dir).unwrap();
    assert_eq!(written, reloaded);

    let entry = reloaded.entry("art").unwrap();
    let mut p = configs::gshare(Budget::K4);
    let r = replay_entry(&dir, entry, &mut p, &ReplayConfig::with_budget(BUDGET)).unwrap();
    assert_eq!(r.trace, "art");
    assert!(r.measured_conditionals > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
