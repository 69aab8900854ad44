//! The H2P-targeted experiment (`experiments h2p`): per-hard-branch
//! accuracy deltas between the 16 KB 2Bc-gskew baseline and the tuned
//! prophet/critic hybrid, in the style of the Bullseye study
//! (arXiv:2506.06773) — predictor quality is dominated by a small
//! population of hard-to-predict static branches, so this experiment
//! reports *where* the hybrid wins or loses, static by static.
//!
//! Per benchmark, one `par_map` cell:
//!
//! 1. record the correct-path trace in memory (identical bytes to
//!    `traces record`);
//! 2. flag the H2P statics from the trace's [`bptrace::BranchProfile`]
//!    (low-bias conditionals with enough dynamic executions —
//!    predictor-independent);
//! 3. replay the **baseline** over the trace (§6: conventional
//!    predictors replay) and collect its per-static mispredicts;
//! 4. re-execute the **hybrid** from the program (§6: hybrids must walk
//!    real wrong paths) with the per-commit observer and collect its
//!    per-static mispredicts;
//! 5. emit the per-static deltas on exactly the flagged population.
//!
//! The report (`BENCH_h2p.json`) carries no thread count and no
//! wall-clock: it is byte-identical for any `--threads`, pinned by
//! `crates/sim/tests/h2p.rs`.

use std::collections::HashMap;

use bptrace::{H2P_MAX_BIAS, H2P_MIN_OCCURRENCES};
use predictors::configs::{self, Budget};
use prophet_critic::HybridSpec;
use replay::{record_trace, replay_bytes, ReplayConfig};
use workloads::{Benchmark, Program};

use crate::accuracy::run_accuracy_observed;
use crate::experiments::common::{abort_on_failures, cached, ExpEnv};
use crate::runner::{try_par_map, CellFailure};
use crate::store::{CellKey, CellPayload};
use crate::table::{f2, pct, Table};

/// Default path of the machine-readable report.
pub const JSON_PATH: &str = "BENCH_h2p.json";

/// Per-benchmark H2P rows kept in the report (the hardest statics,
/// by baseline mispredicts).
const ROWS_PER_BENCH: usize = 8;

/// One hard static branch, with both sides' mispredicts on it.
#[derive(Clone, PartialEq, Debug)]
pub struct H2pStatic {
    /// The branch instruction's address.
    pub pc: u64,
    /// Measured dynamic executions under the baseline replay.
    pub occurrences: u64,
    /// Fraction of executions taken (baseline replay, measured region).
    pub taken_rate: f64,
    /// Baseline (trace-replay) mispredicts on this static.
    pub baseline_misp: u64,
    /// Hybrid (re-execution) mispredicts on this static.
    pub hybrid_misp: u64,
}

impl H2pStatic {
    /// Percent mispredict reduction on this static (positive = the
    /// hybrid wins).
    #[must_use]
    pub fn reduction_percent(&self) -> f64 {
        crate::metrics::percent_reduction(self.baseline_misp as f64, self.hybrid_misp as f64)
    }
}

/// One benchmark's H2P slice.
#[derive(Clone, PartialEq, Debug)]
pub struct H2pBench {
    /// Benchmark name.
    pub bench: String,
    /// H2P statics flagged by the corpus profile.
    pub h2p_statics: usize,
    /// Dynamic executions of the flagged population (baseline replay).
    pub h2p_occurrences: u64,
    /// Baseline mispredicts summed over the population.
    pub baseline_misp: u64,
    /// Hybrid mispredicts summed over the population.
    pub hybrid_misp: u64,
    /// 16 KB TAGE (no allocator) mispredicts summed over the population
    /// (re-execution) — the allocator ablation's control arm.
    pub tage_misp: u64,
    /// The same 16 KB TAGE with the Bullseye-style [`DynamicAllocator`]
    /// attached and seeded from this trace's [`bptrace::BranchProfile`]
    /// H2P flags — mispredicts summed over the population (re-execution).
    ///
    /// [`DynamicAllocator`]: predictors::DynamicAllocator
    pub tage_h2p_misp: u64,
    /// The hardest statics, descending baseline mispredicts (ties by
    /// PC), capped at `ROWS_PER_BENCH` (8).
    pub worst: Vec<H2pStatic>,
}

/// The baseline side: the paper's 16 KB 2Bc-gskew, replayed over the
/// trace.
#[must_use]
pub fn baseline_label() -> String {
    crate::tune::baseline_spec().label()
}

/// The hybrid side: the tuned headline preset, re-executed.
#[must_use]
pub fn hybrid_spec() -> HybridSpec {
    HybridSpec::tuned_headline()
}

/// Computes every benchmark's H2P slice with fault isolation: one cell
/// per benchmark, resolved through the environment's cell store, panics
/// recorded as [`CellFailure`]s (`None` in the result vector). Both
/// vectors are deterministic for any thread count.
#[must_use]
pub fn h2p_benches_checked(env: &ExpEnv) -> (Vec<Option<H2pBench>>, Vec<CellFailure>) {
    let programs = env.programs();
    let budget = env.uop_budget();
    let spec = hybrid_spec();
    let baseline = crate::tune::baseline_spec();
    let label = |_: usize, (bench, _): &(Benchmark, Program)| format!("h2p × {}", bench.name);
    try_par_map(&programs, env.threads, label, |i, cell| {
        let (bench, program) = cell;
        env.fault.panic_if_scheduled(&label(i, cell));
        let key = CellKey::new(
            "h2p",
            &format!("{baseline:?} vs {spec:?} × {}", bench.name),
            bench.seed,
            budget,
        );
        cached(
            env,
            (key, || h2p_one_bench(env, bench, program, &spec, budget)),
        )
        .0
    })
}

/// Computes every benchmark's H2P slice, one grid cell each.
///
/// # Panics
///
/// If any cell panics, naming the failed cell; see
/// [`h2p_benches_checked`] for the tolerant form.
#[must_use]
pub fn h2p_benches(env: &ExpEnv) -> Vec<H2pBench> {
    let (cells, failures) = h2p_benches_checked(env);
    abort_on_failures("h2p", &failures);
    cells.into_iter().map(Option::unwrap).collect()
}

/// One benchmark's full H2P pipeline (record → flag → replay baseline →
/// re-execute hybrid → per-static deltas).
fn h2p_one_bench(
    env: &ExpEnv,
    bench: &Benchmark,
    program: &Program,
    spec: &HybridSpec,
    budget: u64,
) -> H2pBench {
    {
        let mut bt = Vec::new();
        // H2P population from the corpus profile (predictor-independent),
        // built by the recorder from the records it writes.
        let (_, profile) = record_trace(program, bench.seed, budget, &mut bt)
            .expect("in-memory recording cannot fail");
        let h2p: Vec<u64> = profile
            .h2p_candidates(H2P_MIN_OCCURRENCES, H2P_MAX_BIAS)
            .iter()
            .map(|b| b.pc)
            .collect();

        // Baseline: conventional predictor, trace replay (§6 split).
        let mut base = configs::bc_gskew(Budget::K16);
        let base_replay = replay_bytes(&bt, &mut base, &ReplayConfig::with_budget(budget))
            .expect("in-memory trace is well-formed");
        let base_by_pc: HashMap<u64, (u64, u64, f64)> = base_replay
            .per_branch
            .iter()
            .map(|b| (b.pc, (b.occurrences, b.mispredicts, b.taken_rate())))
            .collect();

        // Hybrid: re-execution with the per-commit observer.
        let mut hyb_by_pc: HashMap<u64, u64> = HashMap::new();
        let mut hybrid = spec.build();
        let _ = run_accuracy_observed(program, &mut hybrid, &env.sim_config(bench.seed), |ev| {
            if ev.mispredict {
                *hyb_by_pc.entry(ev.pc.addr()).or_insert(0) += 1;
            }
        });

        // Allocator ablation: the same 16 KB TAGE with and without the
        // Bullseye-style H2P allocator, the allocator seeded from the
        // trace profile's flags (capacity-capped; the online tracker
        // keeps flagging beyond the seed set during the run).
        let h2p_set: std::collections::HashSet<u64> = h2p.iter().copied().collect();
        let slice_misp_on = |tage: predictors::Tage| -> u64 {
            let mut misp_sum = 0u64;
            let mut alone = prophet_critic::ProphetCritic::new(
                prophet_critic::AnyProphet::Tage(tage),
                prophet_critic::NullCritic::new(),
                0,
            );
            let _ = run_accuracy_observed(program, &mut alone, &env.sim_config(bench.seed), |ev| {
                if ev.mispredict && h2p_set.contains(&ev.pc.addr()) {
                    misp_sum += 1;
                }
            });
            misp_sum
        };
        let tage_misp = slice_misp_on(configs::tage(Budget::K16));
        let tage_h2p_misp = {
            let mut tage = configs::tage_h2p(Budget::K16);
            if let Some(alloc) = tage.allocator_mut() {
                for pc in &h2p {
                    alloc.flag(predictors::Pc::new(*pc));
                }
            }
            slice_misp_on(tage)
        };

        let mut statics: Vec<H2pStatic> = h2p
            .iter()
            .filter_map(|pc| {
                let &(occurrences, baseline_misp, taken_rate) = base_by_pc.get(pc)?;
                Some(H2pStatic {
                    pc: *pc,
                    occurrences,
                    taken_rate,
                    baseline_misp,
                    hybrid_misp: hyb_by_pc.get(pc).copied().unwrap_or(0),
                })
            })
            .collect();
        statics
            .sort_unstable_by(|a, b| b.baseline_misp.cmp(&a.baseline_misp).then(a.pc.cmp(&b.pc)));
        let h2p_occurrences = statics.iter().map(|s| s.occurrences).sum();
        let baseline_misp = statics.iter().map(|s| s.baseline_misp).sum();
        let hybrid_misp = statics.iter().map(|s| s.hybrid_misp).sum();
        statics.truncate(ROWS_PER_BENCH);
        H2pBench {
            bench: bench.name.clone(),
            h2p_statics: h2p.len(),
            h2p_occurrences,
            baseline_misp,
            hybrid_misp,
            tage_misp,
            tage_h2p_misp,
            worst: statics,
        }
    }
}

impl CellPayload for H2pBench {
    fn to_cell_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "bench={}\nh2p_statics={}\nh2p_occurrences={}\nbaseline_misp={}\nhybrid_misp={}\n\
             tage_misp={}\ntage_h2p_misp={}\n",
            self.bench,
            self.h2p_statics,
            self.h2p_occurrences,
            self.baseline_misp,
            self.hybrid_misp,
            self.tage_misp,
            self.tage_h2p_misp
        );
        for s in &self.worst {
            out.push_str(&format!(
                "worst={},{},f:{:016x},{},{}\n",
                s.pc,
                s.occurrences,
                s.taken_rate.to_bits(),
                s.baseline_misp,
                s.hybrid_misp
            ));
        }
        out.into_bytes()
    }

    fn from_cell_bytes(bytes: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut fields: HashMap<&str, &str> = HashMap::new();
        let mut worst = Vec::new();
        for line in text.lines() {
            let (k, v) = line.split_once('=')?;
            if k == "worst" {
                let mut parts = v.split(',');
                let pc = parts.next()?.parse().ok()?;
                let occurrences = parts.next()?.parse().ok()?;
                let taken_bits = u64::from_str_radix(parts.next()?.strip_prefix("f:")?, 16).ok()?;
                let baseline_misp = parts.next()?.parse().ok()?;
                let hybrid_misp = parts.next()?.parse().ok()?;
                if parts.next().is_some() {
                    return None;
                }
                worst.push(H2pStatic {
                    pc,
                    occurrences,
                    taken_rate: f64::from_bits(taken_bits),
                    baseline_misp,
                    hybrid_misp,
                });
            } else {
                fields.insert(k, v);
            }
        }
        Some(Self {
            bench: (*fields.get("bench")?).to_string(),
            h2p_statics: fields.get("h2p_statics")?.parse().ok()?,
            h2p_occurrences: fields.get("h2p_occurrences")?.parse().ok()?,
            baseline_misp: fields.get("baseline_misp")?.parse().ok()?,
            hybrid_misp: fields.get("hybrid_misp")?.parse().ok()?,
            tage_misp: fields.get("tage_misp")?.parse().ok()?,
            tage_h2p_misp: fields.get("tage_h2p_misp")?.parse().ok()?,
            worst,
        })
    }
}

/// Runs the experiment and also returns the machine-readable JSON
/// report (thread-count independent by construction).
///
/// Failed cells (e.g. under fault injection) drop out of the tables and
/// are listed in a `failed_cells` JSON section — which is emitted only
/// when non-empty, so clean runs stay byte-identical to earlier builds.
#[must_use]
pub fn run_with_report(env: &ExpEnv) -> (Vec<Table>, String) {
    let (cells, failures) = h2p_benches_checked(env);
    let benches: Vec<H2pBench> = cells.into_iter().flatten().collect();
    let spec = hybrid_spec();

    let mut per_bench = Table::new(
        format!(
            "H2P slices — {} (replay) vs {} (re-execution)",
            baseline_label(),
            spec.label()
        ),
        &[
            "benchmark",
            "h2p statics",
            "h2p execs",
            "baseline misp",
            "hybrid misp",
            "reduction",
        ],
    );
    for b in &benches {
        per_bench.row(vec![
            b.bench.clone(),
            b.h2p_statics.to_string(),
            b.h2p_occurrences.to_string(),
            b.baseline_misp.to_string(),
            b.hybrid_misp.to_string(),
            pct(crate::metrics::percent_reduction(
                b.baseline_misp as f64,
                b.hybrid_misp as f64,
            )),
        ]);
    }
    per_bench.note(format!(
        "h2p: conditionals with \u{2265}{H2P_MIN_OCCURRENCES} recorded executions and bias \
         \u{2264}{H2P_MAX_BIAS} (trace BranchProfile; predictor-independent)"
    ));
    per_bench.note(
        "positive reduction: the critic repairs that benchmark's hard statics \
         (Bullseye-style slice, arXiv:2506.06773)",
    );
    for f in &failures {
        per_bench.note(format!("FAILED CELL '{}': {}", f.label, f.reason));
    }

    // Allocator ablation: same TAGE, with vs without the H2P allocator.
    let mut ablation = Table::new(
        "TAGE H2P allocator ablation — 16KB tage vs 16KB tage+h2p on the flagged statics",
        &[
            "benchmark",
            "h2p statics",
            "tage misp",
            "tage+h2p misp",
            "allocator delta",
        ],
    );
    let (mut tage_total, mut tage_h2p_total) = (0u64, 0u64);
    for b in &benches {
        tage_total += b.tage_misp;
        tage_h2p_total += b.tage_h2p_misp;
        ablation.row(vec![
            b.bench.clone(),
            b.h2p_statics.to_string(),
            b.tage_misp.to_string(),
            b.tage_h2p_misp.to_string(),
            pct(crate::metrics::percent_reduction(
                b.tage_misp as f64,
                b.tage_h2p_misp as f64,
            )),
        ]);
    }
    ablation.note(format!(
        "corpus total: {tage_total} misp without the allocator vs {tage_h2p_total} with it \
         ({} on the flagged population)",
        pct(crate::metrics::percent_reduction(
            tage_total as f64,
            tage_h2p_total as f64
        ))
    ));
    ablation.note(
        "the allocator is seeded from the trace profile's H2P flags (capacity-capped) and \
         steals dedicated per-context capacity for exactly those statics",
    );

    // The hardest statics across the whole corpus.
    let mut worst: Vec<(&str, &H2pStatic)> = benches
        .iter()
        .flat_map(|b| b.worst.iter().map(move |s| (b.bench.as_str(), s)))
        .collect();
    worst.sort_by(|a, b| {
        b.1.baseline_misp
            .cmp(&a.1.baseline_misp)
            .then(a.1.pc.cmp(&b.1.pc))
            .then(a.0.cmp(b.0))
    });
    worst.truncate(12);
    let mut worst_t = Table::new(
        "Hardest statics corpus-wide (by baseline mispredicts)",
        &[
            "benchmark",
            "pc",
            "execs",
            "taken rate",
            "baseline misp",
            "hybrid misp",
            "reduction",
        ],
    );
    for (bench, s) in &worst {
        worst_t.row(vec![
            (*bench).to_string(),
            format!("{:#x}", s.pc),
            s.occurrences.to_string(),
            f2(s.taken_rate),
            s.baseline_misp.to_string(),
            s.hybrid_misp.to_string(),
            pct(s.reduction_percent()),
        ]);
    }

    // Machine-readable report (no threads, no wall-clock — byte-identical
    // across `--threads`).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench_h2p_v2\",\n");
    json.push_str(&format!("  \"scale\": {},\n", env.scale));
    json.push_str(&format!("  \"bench_set\": \"{:?}\",\n", env.bench_set));
    json.push_str(&format!("  \"uop_budget\": {},\n", env.uop_budget()));
    json.push_str(&format!("  \"baseline\": \"{}\",\n", baseline_label()));
    json.push_str(&format!("  \"hybrid\": \"{}\",\n", spec.label()));
    json.push_str("  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        let comma = if i + 1 < benches.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"h2p_statics\": {}, \"h2p_occurrences\": {}, \
             \"baseline_misp\": {}, \"hybrid_misp\": {}, \"tage_misp\": {}, \
             \"tage_h2p_misp\": {}, \"worst\": [",
            b.bench,
            b.h2p_statics,
            b.h2p_occurrences,
            b.baseline_misp,
            b.hybrid_misp,
            b.tage_misp,
            b.tage_h2p_misp
        ));
        for (j, s) in b.worst.iter().enumerate() {
            let wcomma = if j + 1 < b.worst.len() { ", " } else { "" };
            json.push_str(&format!(
                "{{\"pc\": {}, \"occurrences\": {}, \"taken_rate\": {:.4}, \
                 \"baseline_misp\": {}, \"hybrid_misp\": {}}}{wcomma}",
                s.pc, s.occurrences, s.taken_rate, s.baseline_misp, s.hybrid_misp
            ));
        }
        json.push_str(&format!("]}}{comma}\n"));
    }
    json.push_str("  ]");
    if failures.is_empty() {
        json.push('\n');
    } else {
        // Deterministic across `--threads`: sorted by cell index, worker
        // IDs deliberately excluded.
        json.push_str(",\n  \"failed_cells\": [\n");
        for (i, f) in failures.iter().enumerate() {
            let comma = if i + 1 < failures.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"label\": \"{}\", \"reason\": \"{}\"}}{comma}\n",
                crate::json::escape(&f.label),
                crate::json::escape(&f.reason)
            ));
        }
        json.push_str("  ]\n");
    }
    json.push_str("}\n");

    (vec![per_bench, ablation, worst_t], json)
}

/// Runs the experiment and writes [`JSON_PATH`].
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
    fn h2p_covers_the_fast_set_and_reconciles() {
        let env = ExpEnv {
            scale: 0.05,
            ..ExpEnv::tiny()
        };
        let (tables, json) = run_with_report(&env);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 14, "one row per fast-set bench");
        assert_eq!(tables[1].rows.len(), 14, "one ablation row per bench");
        let doc = crate::json::parse(json.as_bytes()).expect("BENCH_h2p.json parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("bench_h2p_v2")
        );
        let rows = doc.get("benches").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 14, "one report row per fast-set bench");
        assert!(rows.iter().all(|r| r.get("tage_h2p_misp").is_some()));
        // The per-bench totals cover the flagged population: every listed
        // worst static's counts are bounded by its bench totals.
        let benches = h2p_benches(&env);
        for b in &benches {
            assert!(b.worst.len() <= ROWS_PER_BENCH);
            for s in &b.worst {
                assert!(s.baseline_misp <= b.baseline_misp);
                assert!(s.hybrid_misp <= b.hybrid_misp);
                assert!(s.taken_rate >= 0.0 && s.taken_rate <= 1.0);
            }
        }
        // At least one benchmark must flag hard branches at this scale.
        assert!(benches.iter().any(|b| b.h2p_statics > 0));
        // The allocator ablation must show the seeded allocator improving
        // the flagged population corpus-wide (the Bullseye claim).
        let tage: u64 = benches.iter().map(|b| b.tage_misp).sum();
        let tage_h2p: u64 = benches.iter().map(|b| b.tage_h2p_misp).sum();
        eprintln!("# ablation corpus totals: tage={tage} tage+h2p={tage_h2p}");
        assert!(
            tage_h2p < tage,
            "allocator must improve the H2P slice: {tage_h2p} vs {tage}"
        );
    }
}
