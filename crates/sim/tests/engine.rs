//! Integration tests of the parallel experiment engine: the rayon-style
//! grid fan-out must be bit-identical to the sequential path, the batched
//! replay must match the scalar reference for every tournament entrant,
//! and the batched structure-of-arrays kernels (live in every replay and
//! in the hybrids' deferred commit training) must leave the headline
//! figures and stored cell bytes unchanged for any thread count.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use predictors::DirectionPredictor;
use prophet_critic::{Budget, CriticKind, HybridSpec, ProphetKind};
use sim::experiments::common::{pooled_accuracy_seq, run_grid, run_matrix, ExpEnv};
use sim::experiments::headline;
use sim::CellStore;

fn tiny() -> ExpEnv {
    ExpEnv {
        scale: 0.03,
        ..ExpEnv::tiny()
    }
}

fn specs() -> Vec<HybridSpec> {
    vec![
        HybridSpec::alone(ProphetKind::Gshare, Budget::K8),
        HybridSpec::paired(
            ProphetKind::Gshare,
            Budget::K4,
            CriticKind::TaggedGshare,
            Budget::K4,
            4,
        ),
        HybridSpec::paired(
            ProphetKind::Perceptron,
            Budget::K4,
            CriticKind::FilteredPerceptron,
            Budget::K4,
            8,
        ),
        HybridSpec::paired(
            ProphetKind::BcGskew,
            Budget::K4,
            CriticKind::UnfilteredPerceptron,
            Budget::K2,
            1,
        ),
    ]
}

#[test]
fn parallel_grid_is_bit_identical_to_sequential() {
    let env = tiny();
    let programs = env.named_programs(&["gzip", "gcc", "tpcc", "swim"]);
    for spec in specs() {
        let sequential = pooled_accuracy_seq(&spec, &programs, &env);
        for threads in [1, 2, 3, 8] {
            let parallel = run_grid(
                std::slice::from_ref(&spec),
                &programs,
                &env.clone().with_threads(threads),
            );
            assert_eq!(
                parallel,
                std::slice::from_ref(&sequential),
                "{}: {threads}-thread grid diverged from sequential",
                spec.label()
            );
        }
    }
}

#[test]
fn grid_runner_matches_per_spec_sequential_runs() {
    let env = tiny();
    let programs = env.named_programs(&["vpr", "art"]);
    let specs = specs();
    let pooled = run_grid(&specs, &programs, &env.clone().with_threads(4));
    assert_eq!(pooled.len(), specs.len());
    for (spec, got) in specs.iter().zip(&pooled) {
        let want = pooled_accuracy_seq(spec, &programs, &env);
        assert_eq!(got, &want, "{} diverged", spec.label());
    }
}

#[test]
fn matrix_cells_are_thread_count_invariant() {
    let env = tiny();
    let programs = env.named_programs(&["mcf", "crafty"]);
    let specs = specs();
    let reference = run_matrix(&specs, &programs, &env.clone().with_threads(1));
    let wide = run_matrix(&specs, &programs, &env.with_threads(8));
    assert_eq!(reference, wide);
}

/// Every cell file in a store directory, keyed by file name.
fn store_cells(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn batched_kernels_leave_headline_and_store_cells_thread_invariant() {
    // End-to-end pin for the SoA kernel layer: with the batched kernels
    // live (chunked replay, fused predict+train, deferred hybrid commit
    // training), the headline figures and every persisted `sim::store`
    // cell must come out byte-identical for any `--threads` value.
    let env = ExpEnv {
        scale: 0.02,
        ..ExpEnv::tiny()
    };
    let run = |threads: usize, tag: &str| -> (PathBuf, headline::HeadlineMetrics) {
        let dir = std::env::temp_dir().join(format!("sim-engine-pin-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CellStore::open(&dir).unwrap());
        let env = env.clone().with_threads(threads).with_store(store);
        let (_, metrics) = headline::run_with_metrics(&env);
        (dir, metrics)
    };
    let (dir_seq, seq) = run(1, "seq");
    let (dir_par, par) = run(8, "par");

    // The BENCH_headline figures, bit-for-bit (f64 equality is exact
    // here: both runs must take the identical arithmetic path).
    assert_eq!(seq.baseline_misp_per_kuops, par.baseline_misp_per_kuops);
    assert_eq!(seq.hybrid_misp_per_kuops, par.hybrid_misp_per_kuops);
    assert_eq!(seq.misp_reduction_percent, par.misp_reduction_percent);
    assert_eq!(seq.baseline_uops_per_flush, par.baseline_uops_per_flush);
    assert_eq!(seq.hybrid_uops_per_flush, par.hybrid_uops_per_flush);
    assert_eq!(seq.baseline_upc, par.baseline_upc);
    assert_eq!(seq.hybrid_upc, par.hybrid_upc);

    // The persisted cell bytes: same file set, same bytes.
    let cells_seq = store_cells(&dir_seq);
    let cells_par = store_cells(&dir_par);
    assert!(!cells_seq.is_empty(), "headline run must persist cells");
    assert_eq!(
        cells_seq, cells_par,
        "store cell bytes diverged by thread count"
    );

    let _ = std::fs::remove_dir_all(&dir_seq);
    let _ = std::fs::remove_dir_all(&dir_par);
}

#[test]
fn batched_replay_matches_scalar_reference_through_sim_lineup() {
    // The streaming block path behind every production replay
    // (`replay_bytes`) must equal the per-branch reference for every
    // tournament entrant, at the standard warm-up and with none (where
    // the first chunk is already measured).
    let bench = workloads::benchmark("gcc").unwrap();
    let mut bt = Vec::new();
    replay::record_trace(&bench.program(), bench.seed, 60_000, &mut bt).unwrap();
    let (name, records) = replay::decode_records(&bt).unwrap();
    let standard = replay::ReplayConfig::with_budget(60_000);
    let cold = replay::ReplayConfig {
        warmup_uops: 0,
        ..standard
    };
    for cfg in [standard, cold] {
        for predictor in sim::experiments::tracecmp::conventional_lineup() {
            let mut a = predictor.clone();
            let batched = replay::replay_bytes(&bt, &mut a, &cfg).unwrap();
            let mut b = predictor.clone();
            let scalar = replay::replay_records_scalar(&name, &records, &mut b, &cfg);
            assert_eq!(batched, scalar, "{} at {cfg:?}", predictor.name());
        }
    }
}
