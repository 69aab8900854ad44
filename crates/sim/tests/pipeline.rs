//! Determinism pins for the stage-accurate pipeline engine: the cycle
//! grid must be bit-identical for any worker-thread count, and
//! small-budget reference runs are pinned byte-for-byte so that *any*
//! unintended change to the timing model (a reordered float add, a new
//! stall term, a different recovery path) fails loudly instead of
//! silently shifting every uPC figure. The untimed accuracy driver over
//! the same execution model is byte-pinned here too.

use prophet_critic::{Budget, CriticKind, HybridSpec, ProphetKind};
use sim::experiments::common::{cycle_grid, representatives, ExpEnv};
use sim::{run_accuracy_observed, run_cycles, run_cycles_trace, CycleConfig, SimConfig};
use uarch::DataProfile;

fn tiny() -> ExpEnv {
    ExpEnv {
        scale: 0.03,
        ..ExpEnv::tiny()
    }
}

fn grid_specs() -> Vec<HybridSpec> {
    vec![
        HybridSpec::alone(ProphetKind::BcGskew, Budget::K16),
        HybridSpec::paired(
            ProphetKind::BcGskew,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K8,
            8,
        ),
        HybridSpec::tuned_headline(),
    ]
}

#[test]
fn cycle_grid_is_bit_identical_for_any_thread_count() {
    let benches = representatives();
    let specs = grid_specs();
    let reference = cycle_grid(&tiny().with_threads(1), &specs, &benches);
    for threads in [2, 3, 8] {
        let wide = cycle_grid(&tiny().with_threads(threads), &specs, &benches);
        assert_eq!(
            wide, reference,
            "{threads}-thread cycle grid diverged from sequential"
        );
    }
}

#[test]
fn trace_feed_prediction_stream_equals_the_replay_engine() {
    // The trace-driven cycle feed predicts and trains on every record in
    // order, exactly like `replay::replay_bytes` — so over a fully
    // consumed trace (cycle budget beyond the trace content, no warm-up
    // gating differences) the two paths must count identical mispredicts.
    // This also pins the post-stream drain: a flush near the end of the
    // trace must refetch (and commit) its squashed correct-path tail
    // rather than dropping it.
    for bench_name in ["gzip", "tpcc"] {
        let bench = workloads::benchmark(bench_name).unwrap();
        let mut bt = Vec::new();
        replay::record_trace(&bench.program(), bench.seed, 50_000, &mut bt).unwrap();

        let mut replay_pred = predictors::configs::gshare(predictors::configs::Budget::K8);
        let replayed = replay::replay_bytes(
            &bt,
            &mut replay_pred,
            &replay::ReplayConfig {
                max_uops: 200_000,
                warmup_uops: 0,
            },
        )
        .unwrap();

        let mut reader = bptrace::BtReader::new(bt.as_slice()).unwrap();
        let mut cycle_pred = predictors::configs::gshare(predictors::configs::Budget::K8);
        let timed = run_cycles_trace(
            &mut reader,
            &mut cycle_pred,
            &CycleConfig::isca04()
                .budget(200_000)
                .seed(bench.seed)
                .warmup(0),
        );

        assert_eq!(
            timed.final_mispredicts, replayed.mispredicts,
            "{bench_name}: trace-feed mispredicts diverged from replay_bytes"
        );
        assert_eq!(
            timed.committed_uops, replayed.measured_uops,
            "{bench_name}: trace-feed committed uops diverged (dropped refetch tail?)"
        );
    }
}

#[test]
fn trace_feed_is_deterministic_and_matches_itself_across_reads() {
    // The trace-driven model re-reads the same bytes; two passes must
    // agree bit-for-bit (no hidden state outside the reader).
    let bench = workloads::benchmark("tpcc").unwrap();
    let mut bt = Vec::new();
    replay::record_trace(&bench.program(), bench.seed, 60_000, &mut bt).unwrap();
    let cfg = CycleConfig::isca04().budget(60_000).seed(bench.seed);
    let run = || {
        let mut reader = bptrace::BtReader::new(bt.as_slice()).unwrap();
        let mut p = predictors::configs::bc_gskew(predictors::configs::Budget::K16);
        run_cycles_trace(&mut reader, &mut p, &cfg)
    };
    assert_eq!(run(), run());
}

/// The byte pin: a small reference run, formatted with full `Debug`
/// precision. If this fails after an *intentional* model change, rerun
/// the test, inspect the printed actual value, and update the literal —
/// the pin exists to make silent drift impossible, not to forbid
/// calibration.
#[test]
fn small_budget_cycle_result_is_byte_pinned() {
    let program = workloads::benchmark("gzip").unwrap().program();
    let mut hybrid = HybridSpec::paired(
        ProphetKind::Gshare,
        Budget::K4,
        CriticKind::TaggedGshare,
        Budget::K4,
        4,
    )
    .build();
    let r = run_cycles(
        &program,
        &mut hybrid,
        &CycleConfig::isca04().budget(30_000).seed(0x5EED),
    );
    let got = format!("{r:?}");
    let want = "CycleResult { benchmark: \"gzip\", cycles: 88824.08333333186, \
                committed_uops: 24020, final_mispredicts: 655, overrides: 157, \
                fetched_uops: 220158, forced_critiques: 124, critiques: 35209, \
                data_counts: (34602, 24633, 14580), bubbles: BubbleProfile { \
                icache: 2624.0, ftq_full: 15631.83333333317, \
                ftq_empty: 5165.166666673981, window_full: 18887.83333333335, \
                redirect: 1368.0, flush_restart: 6048.0 } }";
    assert_eq!(got, want, "\nactual:\n{got}\n");
}

/// The gzip pin above runs a 1 MB working set that fits the 2 MB L2, so
/// L2 evictions and deep prefetch streams barely run. These pins cover
/// the two large data profiles and the trace-fed feed.
fn pinned_hybrid() -> prophet_critic::Hybrid {
    HybridSpec::paired(
        ProphetKind::Gshare,
        Budget::K4,
        CriticKind::TaggedGshare,
        Budget::K4,
        4,
    )
    .build()
}

#[test]
fn streaming_data_cycle_result_is_byte_pinned() {
    let program = workloads::benchmark("swim").unwrap().program();
    let r = run_cycles(
        &program,
        &mut pinned_hybrid(),
        &CycleConfig::isca04()
            .budget(30_000)
            .seed(0x5EED)
            .data(DataProfile::streaming()),
    );
    let got = format!("{r:?}");
    let want = "CycleResult { benchmark: \"swim\", cycles: 48668.999999998254, \
                committed_uops: 23992, final_mispredicts: 94, overrides: 6, \
                fetched_uops: 95794, forced_critiques: 130, critiques: 6903, \
                data_counts: (22310, 2342, 12266), bubbles: BubbleProfile { \
                icache: 1808.0, ftq_full: 12376.166666669315, \
                ftq_empty: 2342.166666666594, window_full: 13155.583333336142, \
                redirect: 512.0, flush_restart: 1032.0 } }";
    assert_eq!(got, want, "\nactual:\n{got}\n");
}

#[test]
fn scattered_data_cycle_result_is_byte_pinned() {
    let program = workloads::benchmark("tpcc").unwrap().program();
    let r = run_cycles(
        &program,
        &mut pinned_hybrid(),
        &CycleConfig::isca04()
            .budget(30_000)
            .seed(0x5EED)
            .data(DataProfile::scattered()),
    );
    let got = format!("{r:?}");
    let want = "CycleResult { benchmark: \"tpcc\", cycles: 362030.58333333884, \
                committed_uops: 23995, final_mispredicts: 816, overrides: 960, \
                fetched_uops: 427525, forced_critiques: 471, critiques: 55428, \
                data_counts: (26404, 10366, 131782), bubbles: BubbleProfile { \
                icache: 3120.0, ftq_full: 105911.33333331964, \
                ftq_empty: 7604.0833333425, window_full: 139325.74999998682, \
                redirect: 3526.0, flush_restart: 8584.0 } }";
    assert_eq!(got, want, "\nactual:\n{got}\n");
}

#[test]
fn trace_fed_cycle_result_is_byte_pinned() {
    let bench = workloads::benchmark("swim").unwrap();
    let mut bt = Vec::new();
    replay::record_trace(&bench.program(), bench.seed, 40_000, &mut bt).unwrap();
    let mut reader = bptrace::BtReader::new(bt.as_slice()).unwrap();
    let mut predictor = predictors::configs::bc_gskew(predictors::configs::Budget::K16);
    let r = run_cycles_trace(
        &mut reader,
        &mut predictor,
        &CycleConfig::isca04()
            .budget(30_000)
            .seed(bench.seed)
            .data(DataProfile::streaming()),
    );
    let got = format!("{r:?}");
    let want = "CycleResult { benchmark: \"swim\", cycles: 28475.250000000768, \
                committed_uops: 24001, final_mispredicts: 40, overrides: 0, \
                fetched_uops: 43634, forced_critiques: 0, critiques: 0, \
                data_counts: (7239, 1557, 7926), bubbles: BubbleProfile { \
                icache: 352.0, ftq_full: 15749.916666665538, ftq_empty: 392.0, \
                window_full: 16387.499999998745, redirect: 64.0, \
                flush_restart: 424.0 } }";
    assert_eq!(got, want, "\nactual:\n{got}\n");
}

/// One accuracy-engine reference run at 60 K uops: the full `Debug` of
/// the result, the hybrid's whole-run critique stats (which cover the
/// end-of-run drain) and an order-sensitive checksum of the per-commit
/// observer's `(pc, mispredict)` stream.
fn accuracy_pin(bench: &str, spec: HybridSpec, warmup_uops: u64) -> String {
    let bench = workloads::benchmark(bench).unwrap();
    let program = bench.program();
    let mut hybrid = spec.build();
    let config = SimConfig {
        max_uops: 60_000,
        warmup_uops,
        seed: bench.seed,
    };
    let (mut commits, mut sum) = (0u64, 0u64);
    let r = run_accuracy_observed(&program, &mut hybrid, &config, |ev| {
        commits += 1;
        sum = (sum ^ (ev.pc.addr() << 1 | u64::from(ev.mispredict))).wrapping_mul(0x100_0000_01B3);
    });
    format!(
        "{r:?} stats: {:?} observed: {commits} {sum:#018x}",
        hybrid.stats()
    )
}

/// The accuracy engine's byte pins, one cell per kind of run: a prophet
/// alone, `tuned_headline`, a 0-future-bit pair, a run with no warm-up,
/// and a 56-future-bit critic, the only kind of spec that fills the
/// 48-branch in-flight buffer and so forces critiques (every one of its
/// critiques is forced, hence its 0 overrides).
#[test]
fn accuracy_results_are_byte_pinned() {
    let cells = [
        (
            "gzip",
            HybridSpec::alone(ProphetKind::BcGskew, Budget::K16),
            12_000,
            "AccuracyResult { benchmark: \"gzip\", committed_uops: 47998, \
             committed_branches: 7598, final_mispredicts: 433, prophet_mispredicts: 433, \
             fetched_uops: 47998, btb_redirects: 83, critic_overrides: 0, \
             ftq_entries_flushed: 0, btb_miss_rate: 0.030889664656722732, \
             critiques: CritiqueStats { counts: [0, 0, 0, 0, 6981, 433] } } \
             stats: CritiqueStats { counts: [0, 0, 0, 0, 8637, 524] } \
             observed: 7414 0x214411b574d566b9",
        ),
        (
            "gcc",
            HybridSpec::tuned_headline(),
            12_000,
            "AccuracyResult { benchmark: \"gcc\", committed_uops: 48004, \
             committed_branches: 9386, final_mispredicts: 597, prophet_mispredicts: 598, \
             fetched_uops: 48004, btb_redirects: 132, critic_overrides: 9, \
             ftq_entries_flushed: 0, btb_miss_rate: 0.06351236146632566, \
             critiques: CritiqueStats { counts: [398, 5, 128, 4, 7980, 465] } } \
             stats: CritiqueStats { counts: [427, 5, 142, 4, 9713, 694] } \
             observed: 8980 0x9060c5b49fc1d31d",
        ),
        (
            "vpr",
            HybridSpec::paired(
                ProphetKind::Perceptron,
                Budget::K8,
                CriticKind::TaggedGshare,
                Budget::K8,
                0,
            ),
            12_000,
            "AccuracyResult { benchmark: \"vpr\", committed_uops: 47998, \
             committed_branches: 7632, final_mispredicts: 580, prophet_mispredicts: 655, \
             fetched_uops: 47998, btb_redirects: 66, critic_overrides: 187, \
             ftq_entries_flushed: 0, btb_miss_rate: 0.028817248885663938, \
             critiques: CritiqueStats { counts: [1039, 131, 61, 56, 5720, 463] } } \
             stats: CritiqueStats { counts: [1211, 160, 64, 62, 7234, 638] } \
             observed: 7470 0xac0b014c401a2712",
        ),
        (
            "mcf",
            HybridSpec::paired(
                ProphetKind::Gshare,
                Budget::K8,
                CriticKind::FilteredPerceptron,
                Budget::K8,
                8,
            ),
            0,
            "AccuracyResult { benchmark: \"mcf\", committed_uops: 60002, \
             committed_branches: 10071, final_mispredicts: 1106, prophet_mispredicts: 1254, \
             fetched_uops: 125291, btb_redirects: 113, critic_overrides: 368, \
             ftq_entries_flushed: 2578, btb_miss_rate: 0.014958337516313622, \
             critiques: CritiqueStats { counts: [687, 258, 112, 110, 8018, 884] } } \
             stats: CritiqueStats { counts: [687, 258, 112, 110, 8025, 884] } \
             observed: 10069 0xe96e42186ac10cfe",
        ),
        (
            "tpcc",
            HybridSpec::paired(
                ProphetKind::Gshare,
                Budget::K8,
                CriticKind::UnfilteredPerceptron,
                Budget::K32,
                56,
            ),
            12_000,
            "AccuracyResult { benchmark: \"tpcc\", committed_uops: 47994, \
             committed_branches: 6114, final_mispredicts: 774, prophet_mispredicts: 1086, \
             fetched_uops: 738033, btb_redirects: 37, critic_overrides: 0, \
             ftq_entries_flushed: 0, btb_miss_rate: 0.0019869565914080152, \
             critiques: CritiqueStats { counts: [4489, 851, 235, 539, 0, 0] } } \
             stats: CritiqueStats { counts: [5151, 1387, 299, 807, 0, 0] } \
             observed: 6114 0x2fc23c2c61f6d332",
        ),
    ];
    for (bench, spec, warmup, want) in cells {
        let got = accuracy_pin(bench, spec, warmup);
        assert_eq!(got, want, "\n{bench}, {}:\nactual:\n{got}\n", spec.label());
    }
}
