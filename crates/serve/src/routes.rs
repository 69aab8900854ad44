//! Request routing and the endpoint handlers.
//!
//! Every simulation-backed endpoint resolves its work through
//! [`ServerState::resolve`] using the **same** cell definitions as the
//! CLI experiment grids (`accuracy_cell`, `cycle_cell`, `replay_cell` and
//! `trace_cycle_cell` in `sim::experiments::common`), so the on-disk cell
//! store is the serving result cache: a repeated request — or a request
//! against a store warmed by `experiments --store` — answers without
//! recomputation, and the response body is byte-identical (bodies carry
//! no timing; cache status travels in the `X-Cache` header, latency in
//! `/metrics`).
//!
//! | method | path | answer |
//! |---|---|---|
//! | GET | `/` | live dashboard (HTML) |
//! | GET | `/healthz` | liveness probe |
//! | GET | `/metrics` | `serve_metrics_v1` counters |
//! | GET | `/v1/corpus` | manifest + quarantine of the loaded corpus |
//! | POST | `/v1/predict` | accuracy (and optionally cycle) cells for a hybrid spec |
//! | POST | `/v1/replay` | one conventional predictor over one corpus trace |
//! | POST | `/v1/tracecmp-cell` | one tournament cell (replay/accuracy/cycle) |
//! | POST | `/v1/experiment` | a full experiment from the registry |

use predictors::configs::Budget;
use predictors::DirectionPredictor;
use prophet_critic::{AnyProphet, CriticKind, HybridSpec, ProphetKind};
use replay::{ReplayResult, TraceEntry};
use sim::experiments::common::{
    accuracy_cell, cycle_cell, replay_cell, select_benchmarks, trace_cycle_cell,
};
use sim::experiments::tracecmp::{conventional_lineup, size_label};
use sim::experiments::{h2p, headline, tracecmp, tune};
use sim::json::{self, Json};
use sim::table::Table;
use sim::{par_map, AccuracyResult, CycleResult};
use workloads::Benchmark;

use crate::http::{HttpError, Request, Response};
use crate::metrics::RequestSummary;
use crate::state::{CellCounts, CorpusState, ServerState};

/// What one request produced: the response plus everything the metrics
/// layer wants to remember about it.
#[derive(Debug)]
pub struct Outcome {
    /// The response to write.
    pub response: Response,
    /// What was simulated, for the dashboard's recent-work table.
    pub subject: String,
    /// Cell-cache accounting (drives the `X-Cache` header).
    pub cells: CellCounts,
    /// Headline accuracy of the request's result, when it has one.
    pub misp_per_kuops: Option<f64>,
    /// Headline uPC, when the cycle model ran.
    pub upc: Option<f64>,
    /// Bubble breakdown, when the cycle model ran.
    pub bubbles: Option<[f64; 6]>,
}

impl Outcome {
    fn new(response: Response, subject: impl Into<String>, cells: CellCounts) -> Self {
        Self {
            response,
            subject: subject.into(),
            cells,
            misp_per_kuops: None,
            upc: None,
            bubbles: None,
        }
    }

    /// The request summary this outcome records.
    #[must_use]
    pub fn summary(&self, endpoint: &str, latency: std::time::Duration) -> RequestSummary {
        RequestSummary {
            endpoint: endpoint.to_string(),
            subject: self.subject.clone(),
            status: self.response.status,
            latency,
            cells_hit: self.cells.hit,
            cells_missed: self.cells.missed,
            misp_per_kuops: self.misp_per_kuops,
            upc: self.upc,
            bubbles: self.bubbles,
        }
    }
}

/// Routes one request. Never panics on malformed input; handler panics
/// (simulation bugs) are caught by the connection layer.
#[must_use]
pub fn handle(state: &ServerState, req: &Request) -> Outcome {
    let result = match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/") => Ok(Outcome::new(
            Response::html(crate::dashboard::page()),
            "dashboard",
            CellCounts::default(),
        )),
        ("GET", "/healthz") => Ok(Outcome::new(
            Response::json(200, "{\"status\": \"ok\"}\n".to_string()),
            "healthz",
            CellCounts::default(),
        )),
        ("GET", "/metrics") => Ok(Outcome::new(
            Response::json(200, state.metrics.to_json()),
            "metrics",
            CellCounts::default(),
        )),
        ("GET", "/v1/corpus") => corpus_info(state),
        ("POST", "/v1/predict") => predict(state, req),
        ("POST", "/v1/replay") => replay_endpoint(state, req),
        ("POST", "/v1/tracecmp-cell") => tracecmp_cell(state, req),
        ("POST", "/v1/experiment") => experiment(state, req),
        (
            _,
            "/" | "/healthz" | "/metrics" | "/v1/corpus" | "/v1/predict" | "/v1/replay"
            | "/v1/tracecmp-cell" | "/v1/experiment",
        ) => Err(HttpError::new(405, "method not allowed for this path")),
        _ => Err(HttpError::not_found("no such endpoint")),
    };
    match result {
        Ok(mut outcome) => {
            let cache = outcome.cells.x_cache();
            if cache != "none" {
                outcome.response = outcome.response.with_header("X-Cache", cache);
            }
            outcome
        }
        Err(e) => Outcome::new(
            Response::from_error(&e),
            req.target.clone(),
            CellCounts::default(),
        ),
    }
}

// ---------------------------------------------------------------- parsing

/// Parses the request body as a JSON object; an empty body means `{}`.
fn parse_body(req: &Request) -> Result<Json, HttpError> {
    if req.body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let doc = json::parse(&req.body)
        .map_err(|e| HttpError::bad_request(format!("body: {} at byte {}", e.message, e.offset)))?;
    if matches!(doc, Json::Obj(_)) {
        Ok(doc)
    } else {
        Err(HttpError::bad_request("body must be a JSON object"))
    }
}

fn parse_budget(v: &Json, field: &str) -> Result<Budget, HttpError> {
    let s = v
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request(format!("spec.{field} must be a string")))?;
    Budget::parse(s)
        .ok_or_else(|| HttpError::bad_request(format!("spec.{field}: unknown budget '{s}'")))
}

/// Parses a hybrid spec object: `prophet` + `prophet_budget` required;
/// `critic` (default `none`), `critic_budget`, `future_bits` (default 8,
/// at most what the critic's BOR holds) and `confident_override`
/// (default false) optional. Kinds are matched against the workspace's
/// display labels, case-insensitively.
fn parse_spec(v: &Json) -> Result<HybridSpec, HttpError> {
    let prophet_name = v
        .get("prophet")
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request("spec.prophet must be a string"))?;
    let prophet = ProphetKind::ALL
        .into_iter()
        .find(|p| p.label().eq_ignore_ascii_case(prophet_name))
        .ok_or_else(|| {
            HttpError::bad_request(format!("spec.prophet: unknown prophet '{prophet_name}'"))
        })?;
    let prophet_budget = parse_budget(v, "prophet_budget")?;
    let critic = match v.get("critic").and_then(Json::as_str) {
        None => CriticKind::None,
        Some(name) => CriticKind::ALL
            .into_iter()
            .find(|c| c.label().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                HttpError::bad_request(format!("spec.critic: unknown critic '{name}'"))
            })?,
    };
    let future_bits = match v.get("future_bits") {
        None => 8,
        Some(fb) => fb
            .as_u64()
            .filter(|&n| n >= 1)
            .ok_or_else(|| HttpError::bad_request("spec.future_bits must be an integer >= 1"))?
            as usize,
    };
    let confident = match v.get("confident_override") {
        None => false,
        Some(c) => c
            .as_bool()
            .ok_or_else(|| HttpError::bad_request("spec.confident_override must be a boolean"))?,
    };
    let spec = if critic == CriticKind::None {
        HybridSpec::alone(prophet, prophet_budget)
    } else {
        let critic_budget = parse_budget(v, "critic_budget")?;
        let spec = HybridSpec::paired(prophet, prophet_budget, critic, critic_budget, future_bits);
        let max = spec.max_future_bits();
        if future_bits > max {
            return Err(HttpError::bad_request(format!(
                "spec.future_bits: {critic_budget} {critic} holds at most {max} future bits, \
                 not {future_bits}"
            )));
        }
        spec
    };
    Ok(spec.with_confident_override(confident))
}

/// The benchmarks a request names (`"benchmarks": [..]`), defaulting to
/// the environment's bench set.
fn parse_benchmarks(state: &ServerState, body: &Json) -> Result<Vec<Benchmark>, HttpError> {
    let Some(names) = body.get("benchmarks") else {
        return Ok(select_benchmarks(state.env.bench_set));
    };
    let names = names
        .as_array()
        .ok_or_else(|| HttpError::bad_request("benchmarks must be an array of names"))?;
    names
        .iter()
        .map(|n| {
            let name = n
                .as_str()
                .ok_or_else(|| HttpError::bad_request("benchmarks must be an array of names"))?;
            workloads::benchmark(name)
                .ok_or_else(|| HttpError::not_found(format!("unknown benchmark '{name}'")))
        })
        .collect()
}

/// Finds a conventional tournament entrant by its size label
/// (`"16KB gshare"`) or bare predictor name (`"gshare"`).
fn find_conventional(name: &str) -> Result<AnyProphet, HttpError> {
    conventional_lineup()
        .into_iter()
        .find(|p| size_label(p).eq_ignore_ascii_case(name) || p.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| HttpError::not_found(format!("unknown conventional predictor '{name}'")))
}

/// The loaded corpus, or a 404 explaining the server has none.
fn corpus(state: &ServerState) -> Result<&CorpusState, HttpError> {
    state
        .corpus
        .as_ref()
        .ok_or_else(|| HttpError::not_found("no corpus loaded (start the server with --corpus)"))
}

/// A serviceable trace entry: present in the manifest and not
/// quarantined by the startup integrity check.
fn trace_entry<'a>(corpus: &'a CorpusState, trace: &str) -> Result<&'a TraceEntry, HttpError> {
    if let Some(reason) = corpus.quarantine_reason(trace) {
        return Err(HttpError::new(
            409,
            format!("trace '{trace}' is quarantined: {reason}"),
        ));
    }
    corpus
        .manifest
        .entry(trace)
        .ok_or_else(|| HttpError::not_found(format!("no trace '{trace}' in the corpus")))
}

/// Reads a trace's `.bt` bytes (only reached on a cache miss).
///
/// # Panics
///
/// On I/O failure or checksum mismatch against the manifest — the corpus
/// changed on disk after the startup verification, and the connection
/// layer turns the panic into a `500`.
fn read_trace_bytes(corpus: &CorpusState, entry: &TraceEntry) -> Vec<u8> {
    let path = corpus.dir.join(&entry.bt_file);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert_eq!(
        replay::checksum::fnv1a(&bytes),
        entry.bt_fnv1a,
        "{} changed on disk since startup verification",
        path.display()
    );
    bytes
}

// --------------------------------------------------------------- handlers

fn corpus_info(state: &ServerState) -> Result<Outcome, HttpError> {
    let c = corpus(state)?;
    let mut body = String::from("{\n  \"schema\": \"serve_corpus_v1\",\n");
    body.push_str(&format!(
        "  \"dir\": \"{}\",\n  \"traces\": [",
        json::escape(&c.dir.display().to_string())
    ));
    for (i, e) in c.manifest.entries.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"seed\": {}, \"uop_budget\": {}, \"records\": {}, \
             \"bt_fnv1a\": \"{:#018x}\", \"bt_version\": {}, \"quarantined\": {}}}",
            json::escape(&e.name),
            e.seed,
            e.uop_budget,
            e.records,
            e.bt_fnv1a,
            e.bt_version,
            c.quarantine_reason(&e.name).is_some(),
        ));
    }
    body.push_str("\n  ],\n  \"quarantine\": [");
    for (i, q) in c.quarantined.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\n    {{\"trace\": \"{}\", \"reason\": \"{}\"}}",
            json::escape(&q.trace),
            json::escape(&q.reason)
        ));
    }
    body.push_str("\n  ]\n}\n");
    Ok(Outcome::new(
        Response::json(200, body),
        "corpus",
        CellCounts::default(),
    ))
}

fn predict(state: &ServerState, req: &Request) -> Result<Outcome, HttpError> {
    let body = parse_body(req)?;
    let spec = match body.get("spec") {
        None => HybridSpec::tuned_headline(),
        Some(v) => parse_spec(v)?,
    };
    let benches = parse_benchmarks(state, &body)?;
    if benches.is_empty() {
        return Err(HttpError::bad_request("benchmarks must not be empty"));
    }
    let want_cycle = match body.get("cycle") {
        None => false,
        Some(c) => c
            .as_bool()
            .ok_or_else(|| HttpError::bad_request("cycle must be a boolean"))?,
    };
    let budget = state.env.uop_budget();

    let accuracy: Vec<(AccuracyResult, bool)> = par_map(&benches, state.env.threads, |_, bench| {
        state.resolve(accuracy_cell(&spec, bench, budget, None, || {
            state.program(bench)
        }))
    });
    let mut cells = CellCounts::of(accuracy.iter().map(|(_, hit)| *hit));
    let runs: Vec<AccuracyResult> = accuracy.iter().map(|(r, _)| r.clone()).collect();
    let pooled = AccuracyResult::pooled(&spec.label(), &runs);

    let mut out = String::from("{\n  \"schema\": \"serve_predict_v1\",\n");
    out.push_str(&format!(
        "  \"spec\": \"{}\",\n  \"uop_budget\": {budget},\n",
        json::escape(&spec.label())
    ));
    out.push_str(&format!(
        "  \"pooled\": {{\"misp_per_kuops\": {:.4}, \"mispredict_percent\": {:.4}}},\n",
        pooled.misp_per_kuops(),
        pooled.mispredict_percent()
    ));
    out.push_str("  \"results\": [");
    for (i, (bench, (r, _))) in benches.iter().zip(&accuracy).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"benchmark\": \"{}\", \"misp_per_kuops\": {:.4}, \
             \"mispredict_percent\": {:.4}, \"committed_uops\": {}}}",
            json::escape(&bench.name),
            r.misp_per_kuops(),
            r.mispredict_percent(),
            r.committed_uops,
        ));
    }
    out.push_str("\n  ]");

    let mut outcome_upc = None;
    let mut outcome_bubbles = None;
    if want_cycle {
        let cycles: Vec<(CycleResult, bool)> = par_map(&benches, state.env.threads, |_, bench| {
            state.resolve(cycle_cell(&spec, bench, budget, || state.program(bench)))
        });
        cells.add(CellCounts::of(cycles.iter().map(|(_, hit)| *hit)));
        let uops: u64 = cycles.iter().map(|(r, _)| r.committed_uops).sum();
        let total_cycles: f64 = cycles.iter().map(|(r, _)| r.cycles).sum();
        let upc = if total_cycles == 0.0 {
            0.0
        } else {
            uops as f64 / total_cycles
        };
        let mut bubbles = [0.0f64; 6];
        for (r, _) in &cycles {
            let b = &r.bubbles;
            for (slot, v) in bubbles.iter_mut().zip([
                b.icache,
                b.ftq_full,
                b.ftq_empty,
                b.window_full,
                b.redirect,
                b.flush_restart,
            ]) {
                *slot += v;
            }
        }
        out.push_str(&format!(
            ",\n  \"cycle\": {{\"upc\": {upc:.4}, \"bubbles\": "
        ));
        out.push_str(&format!(
            "{{\"icache\": {:.1}, \"ftq_full\": {:.1}, \"ftq_empty\": {:.1}, \
             \"window_full\": {:.1}, \"redirect\": {:.1}, \"flush_restart\": {:.1}}}, ",
            bubbles[0], bubbles[1], bubbles[2], bubbles[3], bubbles[4], bubbles[5]
        ));
        out.push_str("\"results\": [");
        for (i, (bench, (r, _))) in benches.iter().zip(&cycles).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"benchmark\": \"{}\", \"upc\": {:.4}}}",
                json::escape(&bench.name),
                r.upc()
            ));
        }
        out.push_str("\n  ]}");
        outcome_upc = Some(upc);
        outcome_bubbles = Some(bubbles);
    }
    out.push_str("\n}\n");

    let mut outcome = Outcome::new(Response::json(200, out), spec.label(), cells);
    outcome.misp_per_kuops = Some(pooled.misp_per_kuops());
    outcome.upc = outcome_upc;
    outcome.bubbles = outcome_bubbles;
    Ok(outcome)
}

/// Builds the response for a replay cell, shared by `/v1/replay` and the
/// replay stage of `/v1/tracecmp-cell`.
fn replay_outcome(
    schema: &str,
    subject: String,
    r: &ReplayResult,
    uop_budget: u64,
    hit: bool,
) -> Outcome {
    let mut out = format!("{{\n  \"schema\": \"{schema}\",\n");
    out.push_str(&format!(
        "  \"trace\": \"{}\",\n  \"predictor\": \"{}\",\n  \"uop_budget\": {uop_budget},\n",
        json::escape(&r.trace),
        json::escape(r.predictor)
    ));
    out.push_str(&format!(
        "  \"measured_uops\": {}, \"measured_conditionals\": {}, \"mispredicts\": {},\n",
        r.measured_uops, r.measured_conditionals, r.mispredicts
    ));
    out.push_str(&format!(
        "  \"misp_per_kuops\": {:.4}, \"mispredict_percent\": {:.4},\n",
        r.misp_per_kuops(),
        r.mispredict_percent()
    ));
    out.push_str("  \"h2p\": [");
    for (i, b) in r.h2p_branches(3).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"pc\": \"{:#x}\", \"occurrences\": {}, \"mispredicts\": {}, \"bias\": {:.4}}}",
            b.pc,
            b.occurrences,
            b.mispredicts,
            b.bias()
        ));
    }
    out.push_str("\n  ]\n}\n");
    let mut outcome = Outcome::new(Response::json(200, out), subject, CellCounts::of([hit]));
    outcome.misp_per_kuops = Some(r.misp_per_kuops());
    outcome
}

fn replay_endpoint(state: &ServerState, req: &Request) -> Result<Outcome, HttpError> {
    let body = parse_body(req)?;
    let c = corpus(state)?;
    let trace = body
        .get("trace")
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request("trace must be a string"))?;
    let predictor_name = body
        .get("predictor")
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request("predictor must be a string"))?;
    let predictor = find_conventional(predictor_name)?;
    let entry = trace_entry(c, trace)?;

    let (result, hit) = state.resolve(replay_cell(
        &predictor,
        &entry.name,
        entry.bt_fnv1a,
        entry.seed,
        entry.uop_budget,
        || read_trace_bytes(c, entry),
    ));
    Ok(replay_outcome(
        "serve_replay_v1",
        format!("{} × {}", size_label(&predictor), entry.name),
        &result,
        entry.uop_budget,
        hit,
    ))
}

fn tracecmp_cell(state: &ServerState, req: &Request) -> Result<Outcome, HttpError> {
    let body = parse_body(req)?;
    let c = corpus(state)?;
    let trace = body
        .get("trace")
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request("trace must be a string"))?;
    let entry = trace_entry(c, trace)?;
    let bench = workloads::benchmark(&entry.name)
        .ok_or_else(|| HttpError::not_found(format!("trace '{trace}' is not a known benchmark")))?;
    if bench.seed != entry.seed {
        return Err(HttpError::new(
            409,
            format!("trace '{trace}' was recorded at a different seed than the benchmark"),
        ));
    }
    let stage = body
        .get("stage")
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request("stage must be a string"))?;
    let entrant = body
        .get("entrant")
        .ok_or_else(|| HttpError::bad_request("entrant is required"))?;

    // A string entrant is a conventional predictor (trace-driven); an
    // object is a hybrid spec (snapshot/program re-execution — §6: a
    // correct-path trace would hand the critic oracle future bits).
    if let Some(name) = entrant.as_str() {
        let predictor = find_conventional(name)?;
        let label = size_label(&predictor);
        match stage {
            "replay" => {
                let (result, hit) = state.resolve(replay_cell(
                    &predictor,
                    &entry.name,
                    entry.bt_fnv1a,
                    entry.seed,
                    entry.uop_budget,
                    || read_trace_bytes(c, entry),
                ));
                Ok(replay_outcome(
                    "serve_tracecmp_cell_v1",
                    format!("{label} × {} [replay]", entry.name),
                    &result,
                    entry.uop_budget,
                    hit,
                ))
            }
            "cycle" => {
                let (result, hit) = state.resolve(trace_cycle_cell(
                    &predictor,
                    &bench,
                    entry.bt_fnv1a,
                    entry.uop_budget,
                    || read_trace_bytes(c, entry),
                ));
                cycle_outcome("serve_tracecmp_cell_v1", &label, entry, &result, hit)
            }
            other => Err(HttpError::bad_request(format!(
                "stage '{other}' is not valid for a conventional entrant (replay|cycle)"
            ))),
        }
    } else {
        let spec = parse_spec(entrant)?;
        match stage {
            "accuracy" => {
                let (result, hit) =
                    state.resolve(accuracy_cell(&spec, &bench, entry.uop_budget, None, || {
                        state.program(&bench)
                    }));
                let body = format!(
                    "{{\n  \"schema\": \"serve_tracecmp_cell_v1\",\n  \"trace\": \"{}\",\n  \
                     \"entrant\": \"{}\",\n  \"uop_budget\": {},\n  \"misp_per_kuops\": {:.4}, \
                     \"mispredict_percent\": {:.4}, \"committed_uops\": {}\n}}\n",
                    json::escape(&entry.name),
                    json::escape(&spec.label()),
                    entry.uop_budget,
                    result.misp_per_kuops(),
                    result.mispredict_percent(),
                    result.committed_uops,
                );
                let mut outcome = Outcome::new(
                    Response::json(200, body),
                    format!("{} × {} [accuracy]", spec.label(), entry.name),
                    CellCounts::of([hit]),
                );
                outcome.misp_per_kuops = Some(result.misp_per_kuops());
                Ok(outcome)
            }
            "cycle" => {
                let (result, hit) =
                    state.resolve(cycle_cell(&spec, &bench, entry.uop_budget, || {
                        state.program(&bench)
                    }));
                cycle_outcome("serve_tracecmp_cell_v1", &spec.label(), entry, &result, hit)
            }
            other => Err(HttpError::bad_request(format!(
                "stage '{other}' is not valid for a hybrid entrant (accuracy|cycle)"
            ))),
        }
    }
}

/// Builds the response for a cycle-stage cell.
fn cycle_outcome(
    schema: &str,
    entrant: &str,
    entry: &TraceEntry,
    result: &CycleResult,
    hit: bool,
) -> Result<Outcome, HttpError> {
    let b = &result.bubbles;
    let body = format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"trace\": \"{}\",\n  \"entrant\": \"{}\",\n  \
         \"uop_budget\": {},\n  \"upc\": {:.4}, \"cycles\": {:.1}, \"committed_uops\": {},\n  \
         \"bubbles\": {{\"icache\": {:.1}, \"ftq_full\": {:.1}, \"ftq_empty\": {:.1}, \
         \"window_full\": {:.1}, \"redirect\": {:.1}, \"flush_restart\": {:.1}}}\n}}\n",
        json::escape(&entry.name),
        json::escape(entrant),
        entry.uop_budget,
        result.upc(),
        result.cycles,
        result.committed_uops,
        b.icache,
        b.ftq_full,
        b.ftq_empty,
        b.window_full,
        b.redirect,
        b.flush_restart,
    );
    let mut outcome = Outcome::new(
        Response::json(200, body),
        format!("{entrant} × {} [cycle]", entry.name),
        CellCounts::of([hit]),
    );
    outcome.upc = Some(result.upc());
    outcome.bubbles = Some([
        b.icache,
        b.ftq_full,
        b.ftq_empty,
        b.window_full,
        b.redirect,
        b.flush_restart,
    ]);
    Ok(outcome)
}

/// One [`Table`] as a JSON object.
fn table_json(t: &Table) -> String {
    let cell_list = |cells: &[String]| {
        let quoted: Vec<String> = cells
            .iter()
            .map(|c| format!("\"{}\"", json::escape(c)))
            .collect();
        quoted.join(", ")
    };
    let mut out = format!("{{\"title\": \"{}\", ", json::escape(&t.title));
    out.push_str(&format!("\"headers\": [{}], ", cell_list(&t.headers)));
    out.push_str("\"rows\": [");
    for (i, row) in t.rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[{}]", cell_list(row)));
    }
    out.push_str("], \"notes\": [");
    out.push_str(&cell_list(&t.notes));
    out.push_str("]}");
    out
}

fn experiment(state: &ServerState, req: &Request) -> Result<Outcome, HttpError> {
    let body = parse_body(req)?;
    let id = body
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request("id must be a string"))?;
    let exp = sim::experiments::by_id(id)
        .ok_or_else(|| HttpError::not_found(format!("unknown experiment '{id}'")))?;

    // Attribute the experiment's grid cells (which resolve through
    // `cached()` inside sim's grids, without `ServerState::resolve`'s
    // counters) to this request by differencing the store's global
    // counters. Concurrent experiment requests may attribute each
    // other's cells — the totals stay approximately right and a lone
    // request is exact.
    let before = state.env.store.as_ref().map(|s| (s.hits(), s.misses()));

    // The report-producing experiments run through their report entry
    // points so the server never writes `BENCH_*.json` into its cwd.
    let (tables, report) = match id {
        "tracecmp" => {
            let (t, r) = tracecmp::run_with_report(&state.env);
            (t, Some(r))
        }
        "tune" => {
            let (t, r) = tune::run_with_report(&state.env);
            (t, Some(r))
        }
        "h2p" => {
            let (t, r) = h2p::run_with_report(&state.env);
            (t, Some(r))
        }
        "headline" => {
            let (t, m) = headline::run_with_metrics(&state.env);
            let r = format!(
                "{{\"baseline_misp_per_kuops\": {:.4}, \"hybrid_misp_per_kuops\": {:.4}, \
                 \"misp_reduction_percent\": {:.4}, \"baseline_upc\": {:.4}, \
                 \"hybrid_upc\": {:.4}}}",
                m.baseline_misp_per_kuops,
                m.hybrid_misp_per_kuops,
                m.misp_reduction_percent,
                m.baseline_upc,
                m.hybrid_upc,
            );
            (t, Some(r))
        }
        _ => ((exp.run)(&state.env), None),
    };

    let mut cells = CellCounts::default();
    if let (Some(store), Some((h0, m0))) = (state.env.store.as_ref(), before) {
        cells.hit = store.hits().saturating_sub(h0);
        cells.missed = store.misses().saturating_sub(m0);
        use std::sync::atomic::Ordering;
        state
            .metrics
            .cache_hits
            .fetch_add(cells.hit, Ordering::Relaxed);
        state
            .metrics
            .cache_misses
            .fetch_add(cells.missed, Ordering::Relaxed);
    }

    let mut out = String::from("{\n  \"schema\": \"serve_experiment_v1\",\n");
    out.push_str(&format!(
        "  \"id\": \"{}\",\n  \"title\": \"{}\",\n",
        json::escape(exp.id),
        json::escape(exp.title)
    ));
    out.push_str("  \"tables\": [");
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&table_json(t));
    }
    out.push_str("\n  ]");
    if let Some(r) = report {
        // The embedded reports are themselves JSON documents.
        out.push_str(&format!(",\n  \"report\": {}", r.trim_end()));
    }
    out.push_str("\n}\n");

    Ok(Outcome::new(Response::json(200, out), exp.id, cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn spec_parsing_round_trips_the_tournament_hybrids() {
        for spec in sim::experiments::tracecmp::hybrid_lineup() {
            let wire = format!(
                "{{\"prophet\": \"{}\", \"prophet_budget\": \"{}\", \"critic\": \"{}\", \
                 \"critic_budget\": \"{}\", \"future_bits\": {}, \"confident_override\": {}}}",
                spec.prophet.label(),
                spec.prophet_budget,
                spec.critic.label(),
                spec.critic_budget,
                spec.future_bits,
                spec.confident_override,
            );
            let parsed = parse_spec(&json::parse(wire.as_bytes()).unwrap()).unwrap();
            assert_eq!(parsed, spec, "{wire}");
        }
    }

    #[test]
    fn spec_parsing_rejects_nonsense() {
        for bad in [
            "{\"prophet\": \"nonsense\", \"prophet_budget\": \"8KB\"}",
            "{\"prophet\": \"gshare\", \"prophet_budget\": \"7KB\"}",
            "{\"prophet\": \"gshare\"}",
            "{\"prophet\": \"gshare\", \"prophet_budget\": \"8KB\", \"critic\": \"t.gshare\"}",
            "{\"prophet\": \"gshare\", \"prophet_budget\": \"8KB\", \"future_bits\": 0}",
            "{\"prophet\": \"gshare\", \"prophet_budget\": \"8KB\", \"critic\": \"t.gshare\", \
             \"critic_budget\": \"8KB\", \"future_bits\": 19}",
        ] {
            let doc = json::parse(bad.as_bytes()).unwrap();
            assert!(parse_spec(&doc).is_err(), "{bad}");
        }
    }

    #[test]
    fn conventional_lookup_accepts_label_and_name() {
        assert!(find_conventional("16KB gshare").is_ok());
        assert!(find_conventional("gshare").is_ok());
        assert!(find_conventional("GSHARE").is_ok());
        // The TAGE entrants joined the tournament lineup, so the serving
        // layer resolves them too; a nonexistent name still errors.
        assert!(find_conventional("tage").is_ok());
        assert!(find_conventional("tage+h2p").is_ok());
        assert!(find_conventional("no-such-predictor").is_err());
    }

    #[test]
    fn unknown_paths_and_methods_map_to_4xx() {
        let state = ServerState::new(sim::experiments::ExpEnv::tiny(), None);
        let miss = handle(&state, &post("/v1/nope", "{}"));
        assert_eq!(miss.response.status, 404);
        let wrong = handle(
            &state,
            &Request {
                method: "DELETE".to_string(),
                target: "/metrics".to_string(),
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(wrong.response.status, 405);
        let bad = handle(&state, &post("/v1/predict", "{not json"));
        assert_eq!(bad.response.status, 400);
        let corpusless = handle(
            &state,
            &post(
                "/v1/replay",
                "{\"trace\": \"gzip\", \"predictor\": \"gshare\"}",
            ),
        );
        assert_eq!(corpusless.response.status, 404);
    }

    #[test]
    fn predict_serves_and_then_hits_the_store() {
        let dir = std::env::temp_dir().join(format!("serve-routes-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = std::sync::Arc::new(sim::store::CellStore::open(&dir).unwrap());
        let env = sim::experiments::ExpEnv {
            scale: 0.02,
            ..sim::experiments::ExpEnv::tiny()
        }
        .with_store(store);
        let state = ServerState::new(env, None);
        let req = post("/v1/predict", "{\"benchmarks\": [\"gzip\"]}");
        let first = handle(&state, &req);
        assert_eq!(first.response.status, 200, "{:?}", first.response.body);
        assert_eq!(first.cells.x_cache(), "miss");
        let second = handle(&state, &req);
        assert_eq!(second.cells.x_cache(), "hit");
        assert_eq!(first.response.body, second.response.body);
        // The body is a valid JSON document carrying the pooled rate.
        let doc = json::parse(&second.response.body).unwrap();
        assert!(doc.get("pooled").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
