//! Integration tests of the trace tournament: the report must be
//! bit-identical for any thread count, and the corpus replay path must
//! reproduce direct execution on the same seeds.

use std::sync::Arc;

use predictors::DirectionPredictor;
use replay::{direct_replay, record_corpus, replay_entry, ReplayConfig};
use sim::experiments::tracecmp::{conventional_lineup, run_with_report};
use sim::experiments::ExpEnv;
use sim::CellStore;

fn tiny() -> ExpEnv {
    ExpEnv {
        scale: 0.02,
        ..ExpEnv::tiny()
    }
}

#[test]
fn tournament_report_is_bit_identical_for_any_thread_count() {
    let reference = run_with_report(&tiny().with_threads(1));
    for threads in [2, 3, 8] {
        let (tables, json) = run_with_report(&tiny().with_threads(threads));
        assert_eq!(
            json, reference.1,
            "{threads}-thread JSON report diverged from sequential"
        );
        assert_eq!(tables.len(), reference.0.len());
        for (t, r) in tables.iter().zip(&reference.0) {
            assert_eq!(t.render(), r.render(), "threads={threads}");
        }
    }
}

#[test]
fn tournament_resume_over_a_warm_store_recomputes_nothing() {
    // The `--store`/`--resume` pin for the tournament: a second run over
    // the same cell store must answer every replay/accuracy/cycle cell
    // from disk (zero new computations) and emit a byte-identical report.
    let dir = std::env::temp_dir().join("sim-tracecmp-store-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(CellStore::open(&dir).unwrap());
    let env = tiny().with_threads(2).with_store(Arc::clone(&store));

    let (cold_tables, cold_json) = run_with_report(&env);
    let cold_misses = store.misses();
    assert!(cold_misses > 0, "cold run must populate the store");
    assert_eq!(store.hits(), 0, "empty store cannot hit");

    let (warm_tables, warm_json) = run_with_report(&env);
    assert_eq!(
        store.misses(),
        cold_misses,
        "warm rerun recomputed cells the store already held"
    );
    assert_eq!(
        store.hits(),
        cold_misses,
        "every stored cell must be answered from disk"
    );
    assert_eq!(
        warm_json, cold_json,
        "resumed report must be byte-identical"
    );
    assert_eq!(warm_tables.len(), cold_tables.len());
    for (w, c) in warm_tables.iter().zip(&cold_tables) {
        assert_eq!(w.render(), c.render());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_shaped_record_then_replay_round_trip_is_deterministic() {
    // The `traces record && traces replay` acceptance pin, at the library
    // layer the CLI delegates to: record a corpus to disk, replay it with
    // the tournament lineup, and require bit-identical accuracy to direct
    // execution on the same seeds.
    let dir = std::env::temp_dir().join("sim-tracecmp-roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let benches: Vec<workloads::Benchmark> = ["gzip", "tpcc"]
        .iter()
        .map(|n| workloads::benchmark(n).unwrap())
        .collect();
    let budget = 25_000;
    let manifest = record_corpus(&dir, &benches, budget).unwrap();
    let cfg = ReplayConfig::with_budget(budget);

    for (bench, entry) in benches.iter().zip(&manifest.entries) {
        let program = bench.program();
        for predictor in conventional_lineup() {
            let mut from_disk_pred = predictor.clone();
            let from_disk = replay_entry(&dir, entry, &mut from_disk_pred, &cfg).unwrap();
            let mut direct_pred = predictor.clone();
            let direct = direct_replay(&program, bench.seed, &mut direct_pred, &cfg);
            assert_eq!(
                from_disk,
                direct,
                "{} on {}: corpus replay diverged from direct execution",
                predictor.name(),
                bench.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
