//! The CBP-style trace tournament: every conventional predictor replayed
//! over a recorded trace corpus, ranked against prophet/critic hybrids
//! re-executed from program snapshots.
//!
//! This is the trace-driven counterpart of the execution-driven figures —
//! the methodology of championship branch-prediction harnesses and of the
//! H2P literature. The experiment:
//!
//! 1. **records** an in-memory corpus: one `.bt` correct-path trace and
//!    one `.pcl` snapshot per benchmark (same bytes the `traces` CLI
//!    writes to disk), in parallel, one cell per benchmark;
//! 2. **cross-checks** every trace against its snapshot — the §6 split
//!    demands the two evaluation paths observe the identical correct-path
//!    branch stream;
//! 3. **replays** each conventional predictor over each trace
//!    (spec × trace cells through the parallel runner);
//! 4. **re-executes** each hybrid spec from each snapshot with the
//!    execution-driven simulator — a correct-path trace would hand the
//!    critic oracle future bits, so hybrids never touch the replay path;
//! 5. **times** every entrant on the stage-accurate pipeline engine —
//!    conventionals through [`TraceModel`](crate::cycle::TraceModel)
//!    over the recorded `.bt` stream, hybrids through the execution-driven
//!    [`run_cycles`] on the snapshot program —
//!    giving the tournament a uPC column;
//! 6. emits a ranked misp/Kuops + uPC report plus a per-trace H2P
//!    summary, and (from the `run` entry point) writes
//!    `BENCH_tracecmp.json`.
//!
//! Every stage fans through the deterministic grid runner with
//! input-ordered collection, so the report is bit-identical for any
//! thread count — pinned by `crates/sim/tests/tracecmp.rs`.
//!
//! **Graceful degradation.** Step 2 doubles as an integrity gate: a trace
//! whose `.bt` bytes fail decoding, diverge from the snapshot walk, or
//! come up short on record count (silent clean-boundary truncation — the
//! format has no trailer) is **quarantined** — dropped from the
//! tournament and listed in a `quarantine` report section — instead of
//! aborting the run. Steps 3–5 run under per-cell panic isolation
//! ([`try_par_map`]): a panicking cell becomes a `failed_cells` entry and
//! its pool skips it. Both sections are deterministic across thread
//! counts, and [`ExpEnv::fault`] can inject corruptions/panics to prove
//! it (`crates/sim/tests/faultinject.rs`).
//!
//! **Checkpoint/resume.** Every tournament cell resolves through the
//! environment's cell store when one is configured (`--store`/`--resume`):
//! hybrid cells under the same keys as the figure grids, trace-coupled
//! cells under keys carrying the trace's `bt_fnv1a` content checksum —
//! the same values a corpus manifest records, so the `serve` subsystem
//! answers `tracecmp-cell` requests from the identical cache.

use bptrace::{BtReader, H2P_MAX_BIAS, H2P_MIN_OCCURRENCES};
use predictors::configs::{self, Budget};
use predictors::{Bimodal, DirectionPredictor, GAs, Local, Yags};
use prophet_critic::{AnyProphet, CriticKind, HybridSpec, ProphetKind};
use replay::{
    cross_check_snapshot, record_trace, replay_bytes, QuarantineEntry, ReplayConfig, ReplayResult,
};
use workloads::{Benchmark, Snapshot};

use replay::checksum::fnv1a;

use crate::accuracy::run_accuracy;
use crate::cycle::{run_cycles, run_cycles_trace, CycleResult};
use crate::experiments::common::{
    accuracy_cell_key, cached, cycle_cell_key, cycle_cfg, replay_cell_key, trace_cycle_cell_key,
    ExpEnv,
};
use crate::json::escape;
use crate::metrics::AccuracyResult;
use crate::runner::{par_map, try_par_map, CellFailure};
use crate::table::{f2, pct, Table};

/// Default path of the machine-readable tournament report.
pub const JSON_PATH: &str = "BENCH_tracecmp.json";

/// The conventional lineup: every component predictor at (approximately)
/// the paper's 16 KB baseline budget, Table 3 configurations where the
/// table defines one.
#[must_use]
pub fn conventional_lineup() -> Vec<AnyProphet> {
    vec![
        AnyProphet::Bimodal(Bimodal::new(64 * 1024)),
        AnyProphet::Gshare(configs::gshare(Budget::K16)),
        AnyProphet::GAs(GAs::new(64 * 1024, 10)),
        AnyProphet::Local(Local::new(4 * 1024, 12, 32 * 1024)),
        AnyProphet::BcGskew(configs::bc_gskew(Budget::K16)),
        AnyProphet::Perceptron(configs::perceptron(Budget::K16)),
        AnyProphet::Yags(Yags::new(32 * 1024, 1024, 2, 9, 13)),
        AnyProphet::Tage(configs::tage(Budget::K16)),
        AnyProphet::Tage(configs::tage_h2p(Budget::K16)),
    ]
}

/// The hybrid entrants: equal-total-budget 8 KB + 8 KB prophet/critic
/// pairs (the paper's headline shape).
#[must_use]
pub fn hybrid_lineup() -> Vec<HybridSpec> {
    vec![
        HybridSpec::paired(
            ProphetKind::Gshare,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K8,
            8,
        ),
        HybridSpec::paired(
            ProphetKind::Perceptron,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K8,
            8,
        ),
        HybridSpec::paired(
            ProphetKind::TageH2p,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K8,
            8,
        ),
        HybridSpec::paired(
            ProphetKind::BcGskew,
            Budget::K8,
            CriticKind::Tage,
            Budget::K8,
            8,
        ),
    ]
}

/// The tournament's display label for a conventional entrant
/// (`"16KB gshare"`). Public because trace-coupled store keys embed it:
/// the `serve` subsystem must build byte-identical labels to share cells
/// with a `--store` tournament run.
#[must_use]
pub fn size_label(p: &AnyProphet) -> String {
    format!("{}KB {}", p.storage_bytes().div_ceil(1024), p.name())
}

struct RecordedTrace {
    bench: Benchmark,
    bt: Vec<u8>,
    pcl: Vec<u8>,
    /// Record count captured at write time — the `.bt` format carries no
    /// trailer, so a truncation at a clean record boundary is only
    /// detectable by comparing against this.
    records: u64,
    /// Content checksum of `bt` — the same value a corpus manifest
    /// records as `bt_fnv1a` for this seed/budget, so trace-coupled
    /// store cells are shared with the serving layer.
    bt_fnv1a: u64,
}

/// Checks one recorded trace end-to-end: snapshot decode, trace decode,
/// snapshot-vs-trace cross-check, and the record count against the count
/// captured at write time.
fn check_trace(t: &RecordedTrace) -> Result<(), String> {
    let snap = Snapshot::read_from(t.pcl.as_slice()).map_err(|e| format!("snapshot: {e}"))?;
    let reader = BtReader::new(t.bt.as_slice()).map_err(|e| format!("trace header: {e}"))?;
    let records = cross_check_snapshot(reader, &snap).map_err(|e| e.to_string())?;
    if records != t.records {
        return Err(format!(
            "record count {records} != {} captured at record time (truncated?)",
            t.records
        ));
    }
    Ok(())
}

/// One ranked tournament row.
struct Entrant {
    label: String,
    path: &'static str,
    misp_per_kuops: f64,
    mispredict_percent: f64,
    upc: f64,
}

/// Pooled uPC over a row of cycle results (total uops / total cycles);
/// failed cells (`None`) drop out of the pool.
fn pooled_upc(row: &[Option<CycleResult>]) -> f64 {
    let uops: u64 = row.iter().flatten().map(|r| r.committed_uops).sum();
    let cycles: f64 = row.iter().flatten().map(|r| r.cycles).sum();
    if cycles == 0.0 {
        0.0
    } else {
        uops as f64 / cycles
    }
}

/// Runs the tournament and also returns the machine-readable JSON report
/// (which deliberately omits the thread count: the report is bit-identical
/// for any `--threads` value).
#[must_use]
pub fn run_with_report(env: &ExpEnv) -> (Vec<Table>, String) {
    let programs = env.programs();
    let budget = env.uop_budget();
    let replay_cfg = ReplayConfig::with_budget(budget);

    // ---- 1. Record the corpus, one cell per benchmark. The fault plan
    // corrupts targeted traces *after* recording, exactly as bit rot or a
    // torn write would on disk — the integrity gate below must catch it.
    let all_recorded: Vec<RecordedTrace> =
        par_map(&programs, env.threads, |_, (bench, program)| {
            let mut bt = Vec::new();
            let (records, _) = record_trace(program, bench.seed, budget, &mut bt)
                .expect("in-memory recording cannot fail");
            env.fault.corrupt_trace(&bench.name, &mut bt);
            let mut pcl = Vec::new();
            Snapshot::new(program.clone(), bench.seed)
                .write_to(&mut pcl)
                .expect("in-memory snapshot write cannot fail");
            let bt_fnv1a = fnv1a(&bt);
            RecordedTrace {
                bench: bench.clone(),
                bt,
                pcl,
                records,
                bt_fnv1a,
            }
        });

    // ---- 2. Integrity gate: cross-check every trace against its
    // snapshot and its record count; failures quarantine the trace
    // instead of aborting the tournament.
    let checks = par_map(&all_recorded, env.threads, |_, t| check_trace(t));
    let mut quarantine: Vec<QuarantineEntry> = Vec::new();
    let mut recorded: Vec<RecordedTrace> = Vec::with_capacity(all_recorded.len());
    for (t, check) in all_recorded.into_iter().zip(checks) {
        match check {
            Ok(()) => recorded.push(t),
            Err(reason) => quarantine.push(QuarantineEntry {
                trace: t.bench.name.clone(),
                reason,
            }),
        }
    }

    let mut failures: Vec<CellFailure> = Vec::new();

    // ---- 3. Conventional predictors replay the surviving traces.
    let lineup = conventional_lineup();
    let conv_cells: Vec<(usize, usize)> = (0..lineup.len())
        .flat_map(|p| (0..recorded.len()).map(move |t| (p, t)))
        .collect();
    let conv_label = |_: usize, &(p, t): &(usize, usize)| {
        format!(
            "replay {} × {}",
            size_label(&lineup[p]),
            recorded[t].bench.name
        )
    };
    let (conv, fails): (Vec<Option<ReplayResult>>, _) =
        try_par_map(&conv_cells, env.threads, conv_label, |i, &(p, t)| {
            env.fault.panic_if_scheduled(&conv_label(i, &(p, t)));
            let rec = &recorded[t];
            let key = replay_cell_key(
                &size_label(&lineup[p]),
                &rec.bench.name,
                rec.bt_fnv1a,
                rec.bench.seed,
                budget,
            );
            cached(env, &key, || {
                let mut predictor = lineup[p].clone();
                replay_bytes(&rec.bt, &mut predictor, &replay_cfg)
                    .expect("trace passed the integrity gate")
            })
        });
    failures.extend(fails);

    // ---- 4. Hybrids re-execute from the snapshots (§6: no trace replay).
    let hybrids = hybrid_lineup();
    let hyb_cells: Vec<(usize, usize)> = (0..hybrids.len())
        .flat_map(|s| (0..recorded.len()).map(move |t| (s, t)))
        .collect();
    let hyb_label = |_: usize, &(s, t): &(usize, usize)| {
        format!("exec {} × {}", hybrids[s].label(), recorded[t].bench.name)
    };
    let (hyb, fails): (Vec<Option<AccuracyResult>>, _) =
        try_par_map(&hyb_cells, env.threads, hyb_label, |i, &(s, t)| {
            env.fault.panic_if_scheduled(&hyb_label(i, &(s, t)));
            // Same key as the figure grids: the snapshot execution is the
            // benchmark program at the benchmark seed, which the
            // cross-check gate proves.
            let key = accuracy_cell_key(&hybrids[s], &recorded[t].bench, budget);
            cached(env, &key, || {
                let snap =
                    Snapshot::read_from(recorded[t].pcl.as_slice()).expect("snapshot round-trips");
                let mut hybrid = hybrids[s].build();
                run_accuracy(&snap.program, &mut hybrid, &env.sim_config(snap.seed))
            })
        });
    failures.extend(fails);

    // ---- 5. Cycle-level timing on the shared pipeline engine: trace
    // feed for conventionals, snapshot execution for hybrids.
    let conv_cycle_label = |_: usize, &(p, t): &(usize, usize)| {
        format!(
            "cycle {} × {}",
            size_label(&lineup[p]),
            recorded[t].bench.name
        )
    };
    let (conv_cycles, fails): (Vec<Option<CycleResult>>, _) =
        try_par_map(&conv_cells, env.threads, conv_cycle_label, |i, &(p, t)| {
            env.fault.panic_if_scheduled(&conv_cycle_label(i, &(p, t)));
            let rec = &recorded[t];
            let key = trace_cycle_cell_key(
                &size_label(&lineup[p]),
                &rec.bench.name,
                rec.bt_fnv1a,
                rec.bench.seed,
                budget,
            );
            cached(env, &key, || {
                let mut predictor = lineup[p].clone();
                let mut reader =
                    BtReader::new(rec.bt.as_slice()).expect("trace passed the integrity gate");
                run_cycles_trace(&mut reader, &mut predictor, &cycle_cfg(env, &rec.bench))
            })
        });
    failures.extend(fails);
    let hyb_cycle_label = |_: usize, &(s, t): &(usize, usize)| {
        format!("cycle {} × {}", hybrids[s].label(), recorded[t].bench.name)
    };
    let (hyb_cycles, fails): (Vec<Option<CycleResult>>, _) =
        try_par_map(&hyb_cells, env.threads, hyb_cycle_label, |i, &(s, t)| {
            env.fault.panic_if_scheduled(&hyb_cycle_label(i, &(s, t)));
            let key = cycle_cell_key(&hybrids[s], &recorded[t].bench, budget);
            cached(env, &key, || {
                let snap =
                    Snapshot::read_from(recorded[t].pcl.as_slice()).expect("snapshot round-trips");
                let mut hybrid = hybrids[s].build();
                run_cycles(
                    &snap.program,
                    &mut hybrid,
                    &cycle_cfg(env, &recorded[t].bench),
                )
            })
        });
    failures.extend(fails);

    // ---- 6. Pool, rank, report.
    let traces = recorded.len();
    let mut entrants: Vec<Entrant> = Vec::new();
    let mut conv_rates: Vec<f64> = Vec::with_capacity(lineup.len());
    for (p, predictor) in lineup.iter().enumerate() {
        let row = &conv[p * traces..(p + 1) * traces];
        let uops: u64 = row.iter().flatten().map(|r| r.measured_uops).sum();
        let conds: u64 = row.iter().flatten().map(|r| r.measured_conditionals).sum();
        let misp: u64 = row.iter().flatten().map(|r| r.mispredicts).sum();
        let misp_per_kuops = if uops == 0 {
            0.0
        } else {
            misp as f64 * 1000.0 / uops as f64
        };
        conv_rates.push(misp_per_kuops);
        entrants.push(Entrant {
            label: size_label(predictor),
            path: "trace replay",
            misp_per_kuops,
            mispredict_percent: if conds == 0 {
                0.0
            } else {
                misp as f64 * 100.0 / conds as f64
            },
            upc: pooled_upc(&conv_cycles[p * traces..(p + 1) * traces]),
        });
    }
    for (s, spec) in hybrids.iter().enumerate() {
        let runs: Vec<AccuracyResult> = hyb[s * traces..(s + 1) * traces]
            .iter()
            .flatten()
            .cloned()
            .collect();
        let pooled = AccuracyResult::pooled(&spec.label(), &runs);
        entrants.push(Entrant {
            label: spec.label(),
            path: "snapshot exec",
            misp_per_kuops: pooled.misp_per_kuops(),
            mispredict_percent: pooled.mispredict_percent(),
            upc: pooled_upc(&hyb_cycles[s * traces..(s + 1) * traces]),
        });
    }
    entrants.sort_by(|a, b| {
        a.misp_per_kuops
            .partial_cmp(&b.misp_per_kuops)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.label.cmp(&b.label))
    });

    let mut ranked = Table::new(
        "Trace tournament — ranked misp/Kuops over the recorded corpus",
        &[
            "rank",
            "configuration",
            "eval path",
            "misp/Kuops",
            "mispred %",
            "uPC",
        ],
    );
    for (i, e) in entrants.iter().enumerate() {
        ranked.row(vec![
            (i + 1).to_string(),
            e.label.clone(),
            e.path.to_string(),
            f2(e.misp_per_kuops),
            pct(e.mispredict_percent),
            f2(e.upc),
        ]);
    }
    ranked.note(format!(
        "{traces} traces, {budget} uops each (20% warm-up), corpus identical to `traces record`"
    ));
    ranked.note(
        "hybrids are re-executed from snapshots: a correct-path trace would hand \
         the critic oracle future bits (paper \u{a7}6)",
    );
    ranked.note(
        "uPC: the stage-accurate pipeline engine times both paths — conventionals \
         fed from the trace, hybrids from snapshot execution",
    );
    for q in &quarantine {
        ranked.note(format!("QUARANTINED trace '{}': {}", q.trace, q.reason));
    }
    for f in &failures {
        ranked.note(format!("FAILED CELL '{}': {}", f.label, f.reason));
    }

    // Per-trace H2P summary, measured under the best conventional entrant.
    let best_conv = conv_rates
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i);
    let mut h2p = Table::new(
        format!(
            "H2P summary per trace (hard-to-predict branches under {})",
            size_label(&lineup[best_conv])
        ),
        &[
            "trace",
            "cond",
            "h2p",
            "worst pc",
            "worst misp",
            "worst bias",
        ],
    );
    for (t, rec) in recorded.iter().enumerate() {
        let Some(r) = &conv[best_conv * traces + t] else {
            // The best conventional's replay cell on this trace failed
            // (e.g. an injected panic): keep the row, dash the stats.
            h2p.row(vec![
                rec.bench.name.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let flagged = r
            .per_branch
            .iter()
            .filter(|b| {
                b.occurrences >= H2P_MIN_OCCURRENCES
                    && b.bias() <= H2P_MAX_BIAS
                    && b.mispredicts > 0
            })
            .count();
        let worst = r.h2p_branches(1).first();
        h2p.row(vec![
            rec.bench.name.clone(),
            r.measured_conditionals.to_string(),
            flagged.to_string(),
            worst.map_or("-".into(), |b| format!("{:#x}", b.pc)),
            worst.map_or("-".into(), |b| b.mispredicts.to_string()),
            worst.map_or("-".into(), |b| f2(b.bias())),
        ]);
    }
    h2p.note(format!(
        "h2p: low-bias (\u{2264}{H2P_MAX_BIAS}) conditionals with \u{2265}{H2P_MIN_OCCURRENCES} \
         measured executions and at least one mispredict"
    ));

    // Machine-readable report (threads-independent on purpose: failed
    // cells are sorted by input index, worker IDs excluded).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench_tracecmp_v3\",\n");
    json.push_str(&format!("  \"scale\": {},\n", env.scale));
    json.push_str(&format!("  \"bench_set\": \"{:?}\",\n", env.bench_set));
    json.push_str(&format!("  \"uop_budget\": {budget},\n"));
    json.push_str(&format!("  \"traces\": {traces},\n"));
    json.push_str("  \"ranking\": [\n");
    for (i, e) in entrants.iter().enumerate() {
        let comma = if i + 1 < entrants.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"rank\": {}, \"configuration\": \"{}\", \"path\": \"{}\", \
             \"misp_per_kuops\": {:.4}, \"mispredict_percent\": {:.4}, \"upc\": {:.4}}}{comma}\n",
            i + 1,
            escape(&e.label),
            e.path,
            e.misp_per_kuops,
            e.mispredict_percent,
            e.upc,
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"quarantine\": [");
    for (i, q) in quarantine.iter().enumerate() {
        let comma = if i + 1 < quarantine.len() { "," } else { "" };
        json.push_str(&format!(
            "\n    {{\"trace\": \"{}\", \"reason\": \"{}\"}}{comma}",
            escape(&q.trace),
            escape(&q.reason)
        ));
    }
    json.push_str(if quarantine.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    json.push_str("  \"failed_cells\": [");
    for (i, f) in failures.iter().enumerate() {
        let comma = if i + 1 < failures.len() { "," } else { "" };
        json.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"reason\": \"{}\"}}{comma}",
            escape(&f.label),
            escape(&f.reason)
        ));
    }
    json.push_str(if failures.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    json.push_str("}\n");

    (vec![ranked, h2p], json)
}

/// Runs the tournament and writes [`JSON_PATH`].
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
    fn lineups_are_sized_sanely() {
        for p in conventional_lineup() {
            let bytes = p.storage_bytes();
            assert!(
                (12 * 1024..=20 * 1024).contains(&bytes),
                "{}: {} bytes is not ~16KB",
                p.name(),
                bytes
            );
        }
        for spec in hybrid_lineup() {
            assert_ne!(spec.critic, CriticKind::None);
        }
        // The TAGE entrants ride in both brackets: conventional (with and
        // without the H2P allocator) and hybrid (as prophet and critic).
        let conv = conventional_lineup();
        assert!(conv.iter().any(|p| p.name() == "tage"));
        assert!(conv.iter().any(|p| p.name() == "tage+h2p"));
        let hybrids = hybrid_lineup();
        assert!(hybrids.iter().any(|s| s.prophet == ProphetKind::TageH2p));
        assert!(hybrids.iter().any(|s| s.critic == CriticKind::Tage));
    }

    #[test]
    fn tournament_ranks_every_entrant() {
        let env = ExpEnv {
            scale: 0.02,
            ..ExpEnv::tiny()
        };
        let (tables, json) = run_with_report(&env);
        assert_eq!(tables.len(), 2);
        let expected = conventional_lineup().len() + hybrid_lineup().len();
        assert_eq!(tables[0].rows.len(), expected);
        // Ranked ascending by misp/Kuops.
        let rates: Vec<f64> = tables[0]
            .rows
            .iter()
            .map(|r| r[3].parse::<f64>().unwrap())
            .collect();
        assert!(rates.windows(2).all(|w| w[0] <= w[1]), "{rates:?}");
        // One H2P row per trace, and a report that parses whole.
        assert_eq!(tables[1].rows.len(), 14);
        let doc = crate::json::parse(json.as_bytes()).expect("BENCH_tracecmp.json parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("bench_tracecmp_v3")
        );
        let ranking = doc.get("ranking").and_then(Json::as_array).unwrap();
        assert_eq!(ranking.len(), expected);
        // Clean run: both robustness sections present and empty.
        assert!(json.contains("\"quarantine\": []"));
        assert!(json.contains("\"failed_cells\": []"));
        assert!(json.contains("\"rank\": 1"));
        // Every entrant carries a positive uPC.
        for row in &tables[0].rows {
            let upc: f64 = row[5].parse().unwrap();
            assert!(upc > 0.0 && upc < 6.0, "uPC {upc} out of band");
        }
    }
}
