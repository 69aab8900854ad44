//! Integration pins for the tuner: thread-count determinism of the whole
//! search (including the JSON report), staged-search bookkeeping, and the
//! promoted preset actually beating the untuned default.

use std::sync::Arc;

use prophet_critic::HybridSpec;
use sim::experiments::common::{run_grid, ExpEnv};
use sim::experiments::tune::report_json;
use sim::json::{self, Json};
use sim::tune::{h2p_slices, run_search, untuned_default, H2pObjective, TuneSpace};
use sim::CellStore;

/// Parses a whole `BENCH_tune.json` report and checks its schema.
fn parse_report(report: &str) -> Json {
    let doc = json::parse(report.as_bytes()).expect("BENCH_tune.json parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("bench_tune_v2")
    );
    doc
}

/// A reduced-scale environment exercising the parallel path.
fn env(threads: usize) -> ExpEnv {
    ExpEnv {
        scale: 0.05,
        ..ExpEnv::tiny()
    }
    .with_threads(threads)
}

#[test]
fn search_and_report_are_bit_identical_across_thread_counts() {
    let space = TuneSpace::quick();

    let run = |threads: usize| {
        let e = env(threads);
        let programs = e.programs();
        let outcome = run_search(&space, &e, &programs);
        let winner = outcome.winner().expect("quick space is non-empty").spec;
        let slices = h2p_slices(&winner, &programs, &e, 200);
        let json = report_json(&outcome, &slices, &e);
        (outcome, slices, json)
    };

    let (seq, seq_slices, seq_json) = run(1);
    let (par, par_slices, par_json) = run(3);

    // The full report — floats, rankings, H2P slices — must match byte
    // for byte (the JSON carries no thread count or wall-clock fields).
    assert_eq!(
        seq_json, par_json,
        "BENCH_tune.json must not depend on --threads"
    );
    assert_eq!(seq_slices, par_slices);
    let doc = parse_report(&seq_json);
    let slices = doc.get("h2p_slices").and_then(Json::as_array).unwrap();
    assert_eq!(slices.len(), seq_slices.len());

    // And the underlying cells, spec for spec, counter for counter.
    assert_eq!(seq.ranked.len(), par.ranked.len());
    for (a, b) in seq.ranked.iter().zip(&par.ranked) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.runs, b.runs, "{} raw runs diverged", a.spec.label());
        assert_eq!(a.scenarios, b.scenarios);
    }
}

#[test]
fn h2p_weighted_search_is_thread_identical_and_leaves_payloads_alone() {
    // The weighted objective is a scoring-time re-ranking: BENCH_tune.json
    // stays byte-identical across --threads with the objective active, the
    // report records the objective, and — compared against the unweighted
    // search — every cell's raw runs and per-scenario payloads are
    // untouched while the blended ranking key visibly moves.
    let masses: Vec<(String, f64)> = env(1)
        .programs()
        .iter()
        .enumerate()
        .map(|(i, (b, _))| (b.name.clone(), (i % 3 + 1) as f64))
        .collect();
    let mut weighted = TuneSpace::quick();
    weighted.h2p = Some(H2pObjective::new(0.6, masses));

    let run = |threads: usize| {
        let e = env(threads);
        let programs = e.programs();
        let outcome = run_search(&weighted, &e, &programs);
        let winner = outcome.winner().expect("quick space is non-empty").spec;
        let slices = h2p_slices(&winner, &programs, &e, 200);
        let json = report_json(&outcome, &slices, &e);
        (outcome, json)
    };
    let (seq, seq_json) = run(1);
    let (_, par_json) = run(3);
    assert_eq!(
        seq_json, par_json,
        "weighted BENCH_tune.json must not depend on --threads"
    );
    assert!(seq_json.contains("\"h2p_objective\": {\"weight\": 0.6000"));
    assert!(seq_json.contains("\"h2p_reduction_percent\""));
    let doc = parse_report(&seq_json);
    let per_bench = doc
        .get("h2p_objective")
        .and_then(|o| o.get("per_bench"))
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(per_bench.len(), env(1).programs().len());

    let e = env(2);
    let plain = run_search(&TuneSpace::quick(), &e, &e.programs());
    assert_eq!(seq.ranked.len(), plain.ranked.len());
    let mut drift = 0usize;
    for cell in &seq.ranked {
        let twin = plain
            .ranked
            .iter()
            .find(|c| c.spec == cell.spec)
            .expect("weighted search must visit the same specs");
        assert_eq!(
            cell.runs,
            twin.runs,
            "{}: raw runs perturbed",
            cell.spec.label()
        );
        assert_eq!(
            cell.scenarios,
            twin.scenarios,
            "{}: scenario payloads perturbed",
            cell.spec.label()
        );
        assert!(cell.h2p_reduction_percent.is_some());
        assert!(twin.h2p_reduction_percent.is_none());
        if (cell.mean_reduction_percent - twin.mean_reduction_percent).abs() > 1e-9 {
            drift += 1;
        }
    }
    assert!(
        drift > 0,
        "a 0.6-weighted objective must move at least one ranking key"
    );
}

#[test]
fn h2p_weight_flips_a_ranking_the_unweighted_objective_does_not() {
    // Synthetic H2P-heavy drift: candidate A is slightly better pooled,
    // candidate B is much better on the H2P-mass-weighted slice. The
    // unweighted key ranks A first; the weighted key must flip the order
    // — from identical underlying runs.
    use sim::tune::score;
    use sim::AccuracyResult;
    use workloads::Benchmark;

    let benches: Vec<Benchmark> = workloads::all_benchmarks()
        .into_iter()
        .filter(|b| b.name == "gzip" || b.name == "vpr")
        .collect();
    let run_of = |gzip: u64, vpr: u64| -> Vec<Vec<AccuracyResult>> {
        vec![benches
            .iter()
            .map(|b| AccuracyResult {
                benchmark: b.name.clone(),
                committed_uops: 1_000,
                final_mispredicts: if b.name == "gzip" { gzip } else { vpr },
                ..AccuracyResult::default()
            })
            .collect()]
    };
    let baseline = run_of(40, 40);
    let spec = untuned_default();
    let mut space = TuneSpace::quick();
    let cell = |runs: Vec<Vec<AccuracyResult>>, sp: &TuneSpace| {
        score(spec, 0, runs, &baseline, &benches, sp)
    };

    // A: strong on vpr, barely moves gzip (the H2P-heavy bench).
    // B: repairs gzip, average on vpr — pooled slightly worse than A.
    let a_plain = cell(run_of(38, 8), &space);
    let b_plain = cell(run_of(20, 30), &space);
    assert!(
        a_plain.mean_reduction_percent > b_plain.mean_reduction_percent,
        "unweighted key must prefer A"
    );

    space.h2p = Some(H2pObjective::new(
        0.9,
        vec![("gzip".into(), 1.0), ("vpr".into(), 0.05)],
    ));
    let a_weighted = cell(run_of(38, 8), &space);
    let b_weighted = cell(run_of(20, 30), &space);
    assert!(
        b_weighted.mean_reduction_percent > a_weighted.mean_reduction_percent,
        "H2P-weighted key must flip the ranking: B {:.2} vs A {:.2}",
        b_weighted.mean_reduction_percent,
        a_weighted.mean_reduction_percent
    );
    // The payloads the store persists are identical either way.
    assert_eq!(a_plain.scenarios, a_weighted.scenarios);
    assert_eq!(b_plain.scenarios, b_weighted.scenarios);
}

#[test]
fn search_resumes_from_a_warm_store_byte_identically() {
    // Tune's scored cells persist: a rerun of the whole search over the
    // same cell store must score every candidate from disk — no new
    // computations — and produce a byte-identical report.
    let dir = std::env::temp_dir().join("sim-tune-store-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(CellStore::open(&dir).unwrap());
    let e = ExpEnv {
        scale: 0.05,
        ..ExpEnv::tiny()
    }
    .with_threads(2)
    .with_store(Arc::clone(&store));

    let space = TuneSpace::quick();
    let run = || {
        let programs = e.programs();
        let outcome = run_search(&space, &e, &programs);
        let winner = outcome.winner().expect("quick space is non-empty").spec;
        let slices = h2p_slices(&winner, &programs, &e, 200);
        report_json(&outcome, &slices, &e)
    };

    let cold_json = run();
    let cold_misses = store.misses();
    let cold_hits = store.hits();
    assert!(cold_misses > 0, "cold search must populate the store");

    let warm_json = run();
    assert_eq!(
        store.misses(),
        cold_misses,
        "warm search recomputed cells the store already held"
    );
    assert!(
        store.hits() > cold_hits,
        "warm search must answer its cells from disk"
    );
    assert_eq!(
        warm_json, cold_json,
        "resumed BENCH_tune.json must be byte-identical"
    );
    parse_report(&warm_json);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn staged_search_visits_coarse_grid_then_refines() {
    let space = TuneSpace::quick();
    let e = env(2);
    let outcome = run_search(&space, &e, &e.programs());

    // Stage 0 is the coarse grid (plus the untuned default, injected when
    // the grid does not already contain it — quick's coarse grid does).
    assert!(!outcome.stage_sizes.is_empty());
    assert!(outcome.stage_sizes[0] >= space.coarse().len());
    assert!(outcome.cell(&untuned_default()).is_some());

    // No spec is ever evaluated twice, and every cell scored every
    // scenario.
    let mut specs: Vec<String> = outcome.ranked.iter().map(|c| c.spec.label()).collect();
    specs.sort();
    let before = specs.len();
    specs.dedup();
    assert_eq!(specs.len(), before, "duplicate cells evaluated");
    for cell in &outcome.ranked {
        assert_eq!(cell.scenarios.len(), outcome.scenarios.len());
        assert_eq!(cell.runs.len(), space.warmup_permille.len());
    }

    // Ranking is by descending mean reduction.
    assert!(outcome
        .ranked
        .windows(2)
        .all(|w| w[0].mean_reduction_percent >= w[1].mean_reduction_percent));
}

#[test]
fn empty_space_produces_no_cells() {
    let mut space = TuneSpace::quick();
    space.future_bits.clear();
    let e = env(2);
    let outcome = run_search(&space, &e, &e.programs());
    assert!(outcome.ranked.is_empty());
    assert!(outcome.winner().is_none());
    // No phantom stage bookkeeping for a search that never ran.
    assert!(outcome.stage_sizes.is_empty());
    assert!(outcome.baseline_runs.is_empty());
}

#[test]
fn tuned_preset_beats_untuned_default_on_pooled_fast_set() {
    // The promoted preset must beat the configuration it replaced under
    // the standard environment (pooled fast set, 20% warm-up). This is
    // the accuracy half of the headline-gap acceptance criterion; the
    // SCALE=1 before/after numbers are recorded in docs/EXPERIMENTS.md.
    let e = ExpEnv {
        scale: 0.25,
        ..ExpEnv::tiny()
    };
    let programs = e.programs();
    let [tuned, untuned] = run_grid(
        &[HybridSpec::tuned_headline(), untuned_default()],
        &programs,
        &e,
    )
    .try_into()
    .expect("one pooled result per spec");
    assert!(
        tuned.misp_per_kuops() < untuned.misp_per_kuops(),
        "tuned preset must beat the untuned 8+8 default: {:.3} vs {:.3} misp/Kuops",
        tuned.misp_per_kuops(),
        untuned.misp_per_kuops()
    );
}
