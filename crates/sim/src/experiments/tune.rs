//! The `tune` experiment: run the deterministic configuration search
//! ([`crate::tune`]) and report/persist its outcome.
//!
//! Reads `TUNE_PRESET` (`headline` default, `quick`, `wide`) to pick the
//! search space, runs the staged search against the 16 KB 2Bc-gskew
//! baseline, computes corpus-backed H2P slices for the winner, renders
//! the ranked tables and writes `BENCH_tune.json`.
//!
//! `TUNE_H2P_WEIGHT` (a float in `(0, 1]`) attaches the
//! [`H2pObjective`]: per-benchmark weights are derived from the `h2p`
//! experiment's per-static deltas (each benchmark's baseline mispredict
//! mass on its flagged H2P statics, the `BENCH_h2p.json` numbers, resolved
//! through the same cell store), and the ranking key becomes the blend
//! `(1 − w) · standard + w · h2p`. Scored cells are unchanged — the
//! objective only re-weights at scoring time, so warm stores stay valid.
//!
//! The JSON report deliberately contains **no thread count and no
//! wall-clock fields**: it must be byte-identical for any `--threads`
//! value, which `crates/sim/tests/tune.rs` pins.

use prophet_critic::HybridSpec;

use crate::experiments::common::ExpEnv;
use crate::json::escape;
use crate::table::{f2, pct, Table};
use crate::tune::{
    baseline_spec, h2p_slices, run_search, untuned_default, H2pObjective, H2pSlice, TuneCell,
    TuneOutcome, TuneSpace,
};

/// Default path of the machine-readable tuning report.
pub const JSON_PATH: &str = "BENCH_tune.json";

/// Ranked candidates included in the tables and the JSON report.
const REPORT_TOP: usize = 12;

/// The search space `experiments tune` uses: the `TUNE_PRESET`
/// environment variable (`headline`, `quick`, `wide`), defaulting to
/// [`TuneSpace::headline`]. Unknown names fall back to the default so a
/// typo cannot silently run an empty search.
#[must_use]
pub fn space_from_env() -> TuneSpace {
    std::env::var("TUNE_PRESET")
        .ok()
        .and_then(|name| TuneSpace::by_name(&name))
        .unwrap_or_else(TuneSpace::headline)
}

/// The H2P weighted objective requested by the environment, if any:
/// `TUNE_H2P_WEIGHT` must parse to a float in `(0, 1]`. The per-benchmark
/// weights are the `h2p` experiment's baseline mispredict mass on each
/// benchmark's flagged statics — the same numbers `BENCH_h2p.json`
/// reports — resolved through the environment's cell store when one is
/// configured.
#[must_use]
pub fn h2p_objective_from_env(env: &ExpEnv) -> Option<H2pObjective> {
    let weight: f64 = std::env::var("TUNE_H2P_WEIGHT").ok()?.parse().ok()?;
    if !weight.is_finite() || weight <= 0.0 {
        return None;
    }
    let per_bench = crate::experiments::h2p::h2p_benches(env)
        .into_iter()
        .map(|b| (b.bench, b.baseline_misp as f64))
        .collect();
    Some(H2pObjective::new(weight, per_bench))
}

fn cell_json(cell: &TuneCell, rank: usize, indent: &str) -> String {
    let spec = &cell.spec;
    let mut out = String::new();
    out.push_str(&format!("{indent}{{\n"));
    out.push_str(&format!("{indent}  \"rank\": {rank},\n"));
    out.push_str(&format!(
        "{indent}  \"configuration\": \"{}\",\n",
        escape(&spec.label())
    ));
    out.push_str(&format!(
        "{indent}  \"prophet\": \"{}\", \"prophet_budget\": \"{}\",\n",
        spec.prophet, spec.prophet_budget
    ));
    out.push_str(&format!(
        "{indent}  \"critic\": \"{}\", \"critic_budget\": \"{}\",\n",
        spec.critic, spec.critic_budget
    ));
    out.push_str(&format!(
        "{indent}  \"future_bits\": {},\n",
        spec.future_bits
    ));
    out.push_str(&format!("{indent}  \"stage\": {},\n", cell.stage));
    out.push_str(&format!(
        "{indent}  \"mean_reduction_percent\": {:.4},\n",
        cell.mean_reduction_percent
    ));
    match cell.h2p_reduction_percent {
        Some(h2p) => out.push_str(&format!("{indent}  \"h2p_reduction_percent\": {h2p:.4},\n")),
        None => out.push_str(&format!("{indent}  \"h2p_reduction_percent\": null,\n")),
    }
    out.push_str(&format!("{indent}  \"scenarios\": [\n"));
    for (i, sc) in cell.scenarios.iter().enumerate() {
        let comma = if i + 1 < cell.scenarios.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "{indent}    {{\"warmup_permille\": {}, \"mix\": \"{}\", \
             \"baseline_misp_per_kuops\": {:.4}, \"misp_per_kuops\": {:.4}, \
             \"reduction_percent\": {:.4}}}{comma}\n",
            sc.warmup_permille,
            sc.mix,
            sc.baseline_misp_per_kuops,
            sc.misp_per_kuops,
            sc.reduction_percent
        ));
    }
    out.push_str(&format!("{indent}  ]\n"));
    out.push_str(&format!("{indent}}}"));
    out
}

/// Builds the machine-readable report. Contains no thread count and no
/// wall-clock values: byte-identical for any `--threads`.
#[must_use]
pub fn report_json(outcome: &TuneOutcome, slices: &[H2pSlice], env: &ExpEnv) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bench_tune_v2\",\n");
    out.push_str(&format!("  \"preset\": \"{}\",\n", outcome.space.name));
    match &outcome.space.h2p {
        Some(obj) => {
            let per_bench = obj
                .per_bench
                .iter()
                .map(|(n, w)| format!("{{\"bench\": \"{}\", \"weight\": {w:.4}}}", escape(n)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "  \"h2p_objective\": {{\"weight\": {:.4}, \"per_bench\": [{per_bench}]}},\n",
                obj.weight
            ));
        }
        None => out.push_str("  \"h2p_objective\": null,\n"),
    }
    out.push_str(&format!("  \"scale\": {},\n", env.scale));
    out.push_str(&format!("  \"bench_set\": \"{:?}\",\n", env.bench_set));
    out.push_str(&format!("  \"uop_budget\": {},\n", env.uop_budget()));
    out.push_str(&format!(
        "  \"baseline\": \"{}\",\n",
        escape(&baseline_spec().label())
    ));
    out.push_str(&format!(
        "  \"space\": {{\"candidates\": {}, \"coarse\": {}, \"scenarios\": {}}},\n",
        outcome.space.enumerate().len(),
        outcome.space.coarse().len(),
        outcome.scenarios.len()
    ));
    out.push_str(&format!(
        "  \"stage_sizes\": [{}],\n",
        outcome
            .stage_sizes
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"cells_evaluated\": {},\n",
        outcome.ranked.len()
    ));

    out.push_str("  \"ranking\": [\n");
    let top = outcome.ranked.iter().take(REPORT_TOP).collect::<Vec<_>>();
    for (i, cell) in top.iter().enumerate() {
        let comma = if i + 1 < top.len() { "," } else { "" };
        out.push_str(&cell_json(cell, i + 1, "    "));
        out.push_str(comma);
        out.push('\n');
    }
    out.push_str("  ],\n");

    // The untuned default's row, wherever it ranked.
    let default = untuned_default();
    match outcome.ranked.iter().position(|c| c.spec == default) {
        Some(pos) => {
            out.push_str("  \"untuned_default\": \n");
            out.push_str(&cell_json(&outcome.ranked[pos], pos + 1, "  "));
            out.push_str(",\n");
        }
        None => out.push_str("  \"untuned_default\": null,\n"),
    }

    out.push_str(&format!(
        "  \"promoted_preset\": \"{}\",\n",
        escape(&HybridSpec::tuned_headline().label())
    ));
    out.push_str(&format!(
        "  \"promoted_matches_winner\": {},\n",
        outcome.winner_matches_promoted()
    ));

    out.push_str("  \"h2p_slices\": [\n");
    for (i, s) in slices.iter().enumerate() {
        let comma = if i + 1 < slices.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"bench\": \"{}\", \"h2p_statics\": {}, \"h2p_occurrences\": {}, \
             \"baseline_misp\": {}, \"default_misp\": {}, \"winner_misp\": {}}}{comma}\n",
            escape(&s.bench),
            s.h2p_statics,
            s.h2p_occurrences,
            s.baseline_misp,
            s.default_misp,
            s.winner_misp
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn ranking_table(outcome: &TuneOutcome) -> Table {
    let mut t = Table::new(
        format!(
            "Tune — ranked candidates vs {} (preset: {})",
            baseline_spec().label(),
            outcome.space.name
        ),
        &[
            "rank",
            "configuration",
            "stage",
            "mean reduction",
            "misp/Kuops",
            "baseline",
        ],
    );
    let default = untuned_default();
    for (i, cell) in outcome.ranked.iter().take(REPORT_TOP).enumerate() {
        let std = &cell.scenarios[0];
        let marker = if cell.spec == default {
            " (default)"
        } else {
            ""
        };
        t.row(vec![
            (i + 1).to_string(),
            format!("{}{marker}", cell.spec.label()),
            cell.stage.to_string(),
            pct(cell.mean_reduction_percent),
            f2(std.misp_per_kuops),
            f2(std.baseline_misp_per_kuops),
        ]);
    }
    t.note(format!(
        "{} cells evaluated over stages {:?}; reduction is the mean over {} warm-up × mix scenarios",
        outcome.ranked.len(),
        outcome.stage_sizes,
        outcome.scenarios.len()
    ));
    if let Some(sc) = outcome.scenarios.first() {
        t.note(format!(
            "misp/Kuops columns show the first (standard) scenario: {}% warm-up, {} mix",
            sc.warmup_permille / 10,
            sc.mix.name
        ));
    }
    if let Some(obj) = &outcome.space.h2p {
        t.note(format!(
            "H2P weighted objective active (weight {:.2}): the ranking key blends the \
             H2P-mass-weighted pooled reduction (TUNE_H2P_WEIGHT)",
            obj.weight
        ));
    }
    t
}

fn per_bench_table(outcome: &TuneOutcome) -> Option<Table> {
    let winner = outcome.winner()?;
    let default = outcome.cell(&untuned_default());
    let mut t = Table::new(
        "Tune — per-benchmark misp/Kuops at the standard warm-up",
        &[
            "benchmark",
            "baseline",
            "default 8+8",
            "winner",
            "winner vs baseline",
        ],
    );
    for (idx, (b, base)) in outcome
        .benchmarks
        .iter()
        .zip(outcome.baseline_runs.first()?)
        .enumerate()
    {
        let win = &winner.runs[0][idx];
        t.row(vec![
            b.name.clone(),
            f2(base.misp_per_kuops()),
            default.map_or("-".into(), |d| f2(d.runs[0][idx].misp_per_kuops())),
            f2(win.misp_per_kuops()),
            pct(crate::metrics::percent_reduction(
                base.misp_per_kuops(),
                win.misp_per_kuops(),
            )),
        ]);
    }
    Some(t)
}

fn h2p_table(slices: &[H2pSlice]) -> Table {
    let mut t = Table::new(
        "Tune — hard-to-predict slice (corpus BranchProfile H2P statics)",
        &[
            "benchmark",
            "h2p statics",
            "h2p execs",
            "baseline misp",
            "default misp",
            "winner misp",
        ],
    );
    for s in slices {
        t.row(vec![
            s.bench.clone(),
            s.h2p_statics.to_string(),
            s.h2p_occurrences.to_string(),
            s.baseline_misp.to_string(),
            s.default_misp.to_string(),
            s.winner_misp.to_string(),
        ]);
    }
    t.note(
        "baseline mispredicts come from trace replay, hybrid mispredicts from re-execution \
         (paper \u{a7}6 split); compare default vs winner on the same slice",
    );
    t
}

/// Runs the search and returns the tables plus the JSON report.
#[must_use]
pub fn run_with_report(env: &ExpEnv) -> (Vec<Table>, String) {
    let mut space = space_from_env();
    space.h2p = h2p_objective_from_env(env);
    // One program synthesis for both the search and the H2P slice pass.
    let programs = env.programs();
    let outcome = run_search(&space, env, &programs);

    let slices = match outcome.winner() {
        Some(winner) => {
            let warmup = space.warmup_permille.first().copied().unwrap_or(200);
            h2p_slices(&winner.spec, &programs, env, warmup)
        }
        None => Vec::new(),
    };

    let json = report_json(&outcome, &slices, env);

    let mut tables = vec![ranking_table(&outcome)];
    if let Some(t) = per_bench_table(&outcome) {
        tables.push(t);
    }
    if !slices.is_empty() {
        tables.push(h2p_table(&slices));
    }
    if let Some(winner) = outcome.winner() {
        let promoted = HybridSpec::tuned_headline();
        let note = if outcome.winner_matches_promoted() {
            format!(
                "winner {} matches the promoted HybridSpec::tuned_headline preset",
                winner.spec.label()
            )
        } else {
            format!(
                "DRIFT: winner {} differs from promoted preset {} — re-promote if this persists \
                 at full scale",
                winner.spec.label(),
                promoted.label()
            )
        };
        tables[0].note(note);
    }
    (tables, json)
}

/// Runs the search and writes [`JSON_PATH`].
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

    #[test]
    fn unknown_preset_falls_back_to_headline() {
        // (Environment is process-global; only assert the fallback path.)
        assert_eq!(TuneSpace::by_name("no-such-preset"), None);
        assert_eq!(space_from_env().name, "headline");
    }
}
