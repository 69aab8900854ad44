//! Replay throughput: batched structure-of-arrays kernels vs the scalar
//! reference path, per conventional predictor.
//!
//! The experiment records the environment's benchmark corpus once,
//! decodes every trace once, and then replays each predictor of the
//! tournament lineup over the full record set twice — through
//! [`replay::replay_records_scalar`] (one `predict`/`update` pair per
//! branch) and through [`replay::replay_records`] (64-branch chunks into
//! the fused `predict_block` kernels). Every pass doubles as a
//! differential gate: the two paths must produce identical
//! [`replay::ReplayResult`]s, field for field, or the experiment panics —
//! no throughput number is ever reported for a kernel that drifted.
//!
//! Timing is strictly single-core (the ROADMAP's "fast as the hardware
//! allows" axis is per-core kernel speed; grid scaling is measured
//! elsewhere): each path runs `REPS` times over the whole corpus and the
//! fastest pass wins, which suppresses scheduler noise without averaging
//! away cache effects.
//!
//! A second section measures the **trace decode pipeline**: every
//! benchmark is recorded in both `.bt` formats, and the section reports
//! the deterministic size figures (total bytes, bytes per branch, the
//! v1/v2 compression ratio) plus wall-clock decode and end-to-end
//! replay rates — v1 through the scalar record reader, v2 through the
//! chunked block decoder. Both images are gated record-for-record and
//! replay-result-for-replay-result against each other first.
//!
//! `BENCH_throughput.json` separates **result metrics** from
//! **environment**: `mispredicts`/`misp_per_kuops` are deterministic and
//! participate in `bench_diff` regression gating; the rate fields
//! (`scalar_preds_per_sec`, `batched_preds_per_sec`, `speedup`, and the
//! decode section's `*_branches_per_sec`) are wall-clock-dependent and
//! deliberately named so `bench_diff` never diffs them.

use std::time::Instant;

use bptrace::{BtBlockReader, BtReader, DecodedBlock};
use predictors::configs::{self, Budget};
use predictors::DirectionPredictor;
use prophet_critic::AnyProphet;
use replay::{
    decode_records, record_trace, record_trace_v1, replay_bytes, replay_records,
    replay_records_scalar, ReplayConfig,
};

use crate::experiments::common::ExpEnv;
use crate::experiments::tracecmp::{conventional_lineup, size_label};
use crate::json::escape;
use crate::runner::par_map;
use crate::table::{f2, Table};

/// Default path of the machine-readable throughput report.
pub const JSON_PATH: &str = "BENCH_throughput.json";

/// Timed passes per (predictor, path); the fastest wins.
const REPS: usize = 3;

/// One predictor's measured row.
struct Row {
    label: String,
    /// Conditional predictions per full-corpus pass (identical for both
    /// paths by construction).
    predictions: u64,
    mispredicts: u64,
    misp_per_kuops: f64,
    scalar_preds_per_sec: f64,
    batched_preds_per_sec: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.scalar_preds_per_sec == 0.0 {
            0.0
        } else {
            self.batched_preds_per_sec / self.scalar_preds_per_sec
        }
    }
}

/// Times one full-corpus pass; returns elapsed seconds.
fn timed_pass<F: FnMut()>(mut pass: F) -> f64 {
    let start = Instant::now();
    pass();
    start.elapsed().as_secs_f64()
}

/// Measures one predictor over the decoded corpus: differential gate
/// first, then `REPS` timed passes per path.
fn measure(
    predictor: &AnyProphet,
    corpus: &[(String, Vec<bptrace::BranchRecord>)],
    cfg: &ReplayConfig,
) -> Row {
    // ---- Differential gate: batched == scalar on every trace, or die.
    let mut predictions = 0u64;
    let mut mispredicts = 0u64;
    let mut uops = 0u64;
    for (name, records) in corpus {
        let mut a = predictor.clone();
        let batched = replay_records(name, records, &mut a, cfg);
        let mut b = predictor.clone();
        let scalar = replay_records_scalar(name, records, &mut b, cfg);
        assert_eq!(
            batched,
            scalar,
            "{}: batched kernels drifted from the scalar reference on {name}",
            predictor.name()
        );
        predictions += batched.measured_conditionals;
        mispredicts += batched.mispredicts;
        uops += batched.measured_uops;
    }

    // ---- Timed passes, fastest-of-REPS per path, single core.
    let mut scalar_best = f64::INFINITY;
    let mut batched_best = f64::INFINITY;
    for _ in 0..REPS {
        let secs = timed_pass(|| {
            for (name, records) in corpus {
                let mut p = predictor.clone();
                let _ = replay_records_scalar(name, records, &mut p, cfg);
            }
        });
        scalar_best = scalar_best.min(secs);
        let secs = timed_pass(|| {
            for (name, records) in corpus {
                let mut p = predictor.clone();
                let _ = replay_records(name, records, &mut p, cfg);
            }
        });
        batched_best = batched_best.min(secs);
    }

    Row {
        label: size_label(predictor),
        predictions,
        mispredicts,
        misp_per_kuops: if uops == 0 {
            0.0
        } else {
            mispredicts as f64 * 1000.0 / uops as f64
        },
        scalar_preds_per_sec: predictions as f64 / scalar_best.max(1e-12),
        batched_preds_per_sec: predictions as f64 / batched_best.max(1e-12),
    }
}

/// The decode-pipeline section's measurements: deterministic size
/// figures plus wall-clock decode and end-to-end replay rates for both
/// `.bt` format versions.
struct DecodeStats {
    /// Total branch records across the corpus (identical in both formats
    /// by the differential gate).
    branches: u64,
    v1_bytes: u64,
    v2_bytes: u64,
    v1_decode_branches_per_sec: f64,
    v2_decode_branches_per_sec: f64,
    v1_replay_branches_per_sec: f64,
    v2_replay_branches_per_sec: f64,
}

impl DecodeStats {
    fn compression_ratio(&self) -> f64 {
        self.v1_bytes as f64 / (self.v2_bytes.max(1)) as f64
    }
    fn end_to_end_speedup(&self) -> f64 {
        if self.v1_replay_branches_per_sec == 0.0 {
            0.0
        } else {
            self.v2_replay_branches_per_sec / self.v1_replay_branches_per_sec
        }
    }
}

/// Measures the decode pipeline over paired `(v1, v2)` trace images:
/// differential gates first (identical record streams, identical replay
/// results), then `REPS` timed passes per format for raw decode and for
/// end-to-end replay through a fixed 16 KB gshare.
fn measure_decode(images: &[(Vec<u8>, Vec<u8>)], cfg: &ReplayConfig) -> DecodeStats {
    // ---- Differential gates: both images must decode to the identical
    // record stream and replay to the identical result, or die.
    let mut branches = 0u64;
    for (v1, v2) in images {
        let a = decode_records(v1).expect("v1 image decodes");
        let b = decode_records(v2).expect("v2 image decodes");
        assert_eq!(a, b, "v1 and v2 images decode to different streams");
        branches += a.1.len() as u64;
        let mut p = configs::gshare(Budget::K16);
        let from_v1 = replay_bytes(v1, &mut p, cfg).expect("v1 replays");
        let mut p = configs::gshare(Budget::K16);
        let from_v2 = replay_bytes(v2, &mut p, cfg).expect("v2 replays");
        assert_eq!(from_v1, from_v2, "format version changed replay results");
    }

    // ---- Timed passes, fastest-of-REPS, single core. Decode counts are
    // folded into a checksum the assert consumes, so the loops cannot be
    // optimized away.
    let (mut v1_decode, mut v2_decode) = (f64::INFINITY, f64::INFINITY);
    let (mut v1_replay, mut v2_replay) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let mut seen = 0u64;
        let secs = timed_pass(|| {
            for (v1, _) in images {
                let mut r = BtReader::new(v1.as_slice()).unwrap();
                while let Some(rec) = r.next_record().unwrap() {
                    seen += u64::from(rec.taken);
                }
            }
        });
        assert!(seen <= branches);
        v1_decode = v1_decode.min(secs);

        let mut seen = 0u64;
        let secs = timed_pass(|| {
            let mut block = DecodedBlock::new();
            for (_, v2) in images {
                let mut r = BtBlockReader::new(v2.as_slice()).unwrap();
                while r.next_block(&mut block).unwrap() {
                    for w in block.taken_words() {
                        seen += u64::from(w.count_ones());
                    }
                }
            }
        });
        assert!(seen <= branches);
        v2_decode = v2_decode.min(secs);

        let secs = timed_pass(|| {
            for (v1, _) in images {
                let mut p = configs::gshare(Budget::K16);
                let _ = replay_bytes(v1, &mut p, cfg).unwrap();
            }
        });
        v1_replay = v1_replay.min(secs);

        let secs = timed_pass(|| {
            for (_, v2) in images {
                let mut p = configs::gshare(Budget::K16);
                let _ = replay_bytes(v2, &mut p, cfg).unwrap();
            }
        });
        v2_replay = v2_replay.min(secs);
    }

    DecodeStats {
        branches,
        v1_bytes: images.iter().map(|(v1, _)| v1.len() as u64).sum(),
        v2_bytes: images.iter().map(|(_, v2)| v2.len() as u64).sum(),
        v1_decode_branches_per_sec: branches as f64 / v1_decode.max(1e-12),
        v2_decode_branches_per_sec: branches as f64 / v2_decode.max(1e-12),
        v1_replay_branches_per_sec: branches as f64 / v1_replay.max(1e-12),
        v2_replay_branches_per_sec: branches as f64 / v2_replay.max(1e-12),
    }
}

/// Runs the throughput comparison and also returns the machine-readable
/// JSON report.
#[must_use]
pub fn run_with_report(env: &ExpEnv) -> (Vec<Table>, String) {
    let programs = env.programs();
    let budget = env.uop_budget();
    // No warm-up exclusion: a throughput denominator should count every
    // prediction the kernel performs, and the differential gate is
    // stricter when the whole stream is measured.
    let cfg = ReplayConfig {
        max_uops: budget,
        warmup_uops: 0,
    };

    // Record both format versions and decode the corpus once, in
    // parallel; timing below is strictly sequential so rates are
    // single-core.
    type Recorded = (String, Vec<u8>, Vec<u8>, Vec<bptrace::BranchRecord>);
    let recorded: Vec<Recorded> = par_map(&programs, env.threads, |_, (bench, program)| {
        let mut v1 = Vec::new();
        record_trace_v1(program, bench.seed, budget, &mut v1)
            .expect("in-memory recording cannot fail");
        let mut v2 = Vec::new();
        record_trace(program, bench.seed, budget, &mut v2)
            .expect("in-memory recording cannot fail");
        let (name, records) = decode_records(&v2).expect("freshly recorded trace decodes");
        (name, v1, v2, records)
    });
    let mut images = Vec::with_capacity(recorded.len());
    let mut corpus = Vec::with_capacity(recorded.len());
    for (name, v1, v2, records) in recorded {
        images.push((v1, v2));
        corpus.push((name, records));
    }

    let decode = measure_decode(&images, &cfg);

    let lineup = conventional_lineup();
    let rows: Vec<Row> = lineup.iter().map(|p| measure(p, &corpus, &cfg)).collect();

    let mut table = Table::new(
        "Replay throughput — batched SoA kernels vs scalar reference (single core)",
        &[
            "predictor",
            "predictions",
            "misp/Kuops",
            "scalar Mpred/s",
            "batched Mpred/s",
            "speedup",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.label.clone(),
            r.predictions.to_string(),
            f2(r.misp_per_kuops),
            f2(r.scalar_preds_per_sec / 1e6),
            f2(r.batched_preds_per_sec / 1e6),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    table.note(format!(
        "{} traces, {budget} uops each, no warm-up exclusion; fastest of {REPS} passes per path",
        corpus.len()
    ));
    table.note(
        "every pass is gated: batched and scalar ReplayResults must be identical \
         field-for-field before any rate is reported",
    );

    let mut decode_table = Table::new(
        "Trace decode — block-compressed .bt v2 vs v1 record stream (single core)",
        &[
            "format",
            "bytes",
            "bytes/branch",
            "decode Mbranch/s",
            "replay Mbranch/s",
        ],
    );
    let branches = decode.branches.max(1);
    decode_table.row(vec![
        "v1 records".to_string(),
        decode.v1_bytes.to_string(),
        f2(decode.v1_bytes as f64 / branches as f64),
        f2(decode.v1_decode_branches_per_sec / 1e6),
        f2(decode.v1_replay_branches_per_sec / 1e6),
    ]);
    decode_table.row(vec![
        "v2 blocks".to_string(),
        decode.v2_bytes.to_string(),
        f2(decode.v2_bytes as f64 / branches as f64),
        f2(decode.v2_decode_branches_per_sec / 1e6),
        f2(decode.v2_replay_branches_per_sec / 1e6),
    ]);
    decode_table.note(format!(
        "{} branches; v2 is {:.2}x smaller and replays {:.2}x faster end-to-end (16KB gshare)",
        decode.branches,
        decode.compression_ratio(),
        decode.end_to_end_speedup()
    ));
    decode_table.note(
        "gated: both images must decode to the identical record stream and replay to \
         the identical ReplayResult before any rate is reported",
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench_throughput_v2\",\n");
    json.push_str(&format!("  \"scale\": {},\n", env.scale));
    json.push_str(&format!("  \"bench_set\": \"{:?}\",\n", env.bench_set));
    json.push_str(&format!("  \"uop_budget\": {budget},\n"));
    json.push_str(&format!("  \"traces\": {},\n", corpus.len()));
    json.push_str("  \"predictors\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"configuration\": \"{}\", \"predictions\": {}, \"mispredicts\": {}, \
             \"misp_per_kuops\": {:.4}, \"scalar_preds_per_sec\": {:.0}, \
             \"batched_preds_per_sec\": {:.0}, \"speedup\": {:.3}}}{comma}\n",
            escape(&r.label),
            r.predictions,
            r.mispredicts,
            r.misp_per_kuops,
            r.scalar_preds_per_sec,
            r.batched_preds_per_sec,
            r.speedup(),
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"decode\": {{\"branches\": {}, \"v1_bytes\": {}, \"v2_bytes\": {}, \
         \"compression_ratio\": {:.4}, \"v1_decode_branches_per_sec\": {:.0}, \
         \"v2_decode_branches_per_sec\": {:.0}, \"v1_replay_branches_per_sec\": {:.0}, \
         \"v2_replay_branches_per_sec\": {:.0}, \"end_to_end_speedup\": {:.3}}}\n",
        decode.branches,
        decode.v1_bytes,
        decode.v2_bytes,
        decode.compression_ratio(),
        decode.v1_decode_branches_per_sec,
        decode.v2_decode_branches_per_sec,
        decode.v1_replay_branches_per_sec,
        decode.v2_replay_branches_per_sec,
        decode.end_to_end_speedup(),
    ));
    json.push_str("}\n");

    (vec![table, decode_table], json)
}

/// Runs the throughput comparison and writes [`JSON_PATH`].
#[must_use]
pub fn run(env: &ExpEnv) -> Vec<Table> {
    let (tables, json) = run_with_report(env);
    match std::fs::write(JSON_PATH, &json) {
        Ok(()) => eprintln!("# wrote {JSON_PATH}"),
        Err(err) => eprintln!("# could not write {JSON_PATH}: {err}"),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn throughput_report_covers_the_lineup_and_gates_equivalence() {
        let env = ExpEnv {
            scale: 0.02,
            ..ExpEnv::tiny()
        };
        let (tables, json) = run_with_report(&env);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), conventional_lineup().len());
        let doc = crate::json::parse(json.as_bytes()).expect("BENCH_throughput.json parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("bench_throughput_v2")
        );
        let predictors = doc.get("predictors").and_then(Json::as_array).unwrap();
        assert_eq!(predictors.len(), conventional_lineup().len());
        // Every row carries predictions and strictly positive rates.
        for row in &tables[0].rows {
            let predictions: u64 = row[1].parse().unwrap();
            assert!(predictions > 0, "{row:?}");
            let scalar: f64 = row[3].parse().unwrap();
            let batched: f64 = row[4].parse().unwrap();
            assert!(scalar > 0.0 && batched > 0.0, "{row:?}");
        }
        // The decode section: one row per format, v2 strictly smaller,
        // and the JSON carries the section.
        assert_eq!(tables[1].rows.len(), 2);
        let ratio = doc.get("decode").and_then(|d| d.get("compression_ratio"));
        assert!(matches!(ratio, Some(Json::Num(r)) if *r > 1.0), "{ratio:?}");
        let v1_bytes: u64 = tables[1].rows[0][1].parse().unwrap();
        let v2_bytes: u64 = tables[1].rows[1][1].parse().unwrap();
        assert!(
            v2_bytes < v1_bytes,
            "v2 must shrink the corpus: {v2_bytes} vs {v1_bytes}"
        );
    }
}
