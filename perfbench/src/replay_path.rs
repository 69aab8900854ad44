//! The `replay` workload: the trace-driven path of `traces replay`,
//! `tracecmp`'s conventional stage, `h2p`'s baseline and `/v1/replay`.
//!
//! Set-up synthesizes the fast-set programs and records each one to an
//! in-memory `.bt` v2 trace. A fast operation replays one trace through one
//! entrant of the conventional lineup (`replay::replay_bytes`); a slow one
//! times the same pair on the trace-fed pipeline (`sim::run_cycles_trace`).

use std::hint::black_box;
use std::time::Instant;

use bptrace::{BranchRecord, BtBlockReader, BtReader, DecodedBlock};
use predictors::{DirectionPredictor, HistoryBits, Pc, MAX_HISTORY_BITS};
use prophet_critic::AnyProphet;
use replay::{
    decode_records, record_trace, replay_bytes, replay_records_scalar, ReplayConfig, ReplayResult,
};
use sim::experiments::common::cycle_cfg;
use sim::experiments::tracecmp::conventional_lineup;
use sim::experiments::ExpEnv;
use sim::{run_cycles_trace, CycleResult};
use workloads::Benchmark;

use crate::drive::{self, ns_since, Kind, Sample, Timing};
use crate::report::{slug, Report};
use crate::spans::{by_label, total_ns, Recorder};

/// Budget multiplier: 0.025 × 1.2 M = 30 K uops per trace.
const SCALE: f64 = 0.025;

/// One recorded trace.
struct Trace {
    bench: Benchmark,
    bt: Vec<u8>,
    records: u64,
}

/// Synthesizes and records every benchmark (the workload's set-up).
fn record(benches: &[Benchmark], budget: u64, rec: &mut Recorder) -> Vec<Trace> {
    benches
        .iter()
        .map(|bench| {
            let program = rec.span(
                "workloads::program",
                || bench.name.clone(),
                |_| bench.program(),
            );
            let mut bt = Vec::new();
            let (records, _) = rec.span(
                "replay::record_trace",
                || bench.name.clone(),
                |_| {
                    record_trace(&program, bench.seed, budget, &mut bt)
                        .expect("recording into memory cannot fail")
                },
            );
            Trace {
                bench: bench.clone(),
                bt,
                records,
            }
        })
        .collect()
}

/// A 64-branch window of conditionals as the replay engine hands them to
/// `replay_block`: addresses, outcome mask, and the global history before
/// the first one (newest outcome in bit 0).
struct Window {
    pcs: Vec<Pc>,
    outcomes: u64,
    start: u64,
}

fn windows(records: &[BranchRecord]) -> Vec<Window> {
    let mut out = Vec::new();
    let mut hist = 0u64;
    let mut cur = Window {
        pcs: Vec::with_capacity(64),
        outcomes: 0,
        start: 0,
    };
    for r in records.iter().filter(|r| r.kind.is_conditional()) {
        if cur.pcs.is_empty() {
            cur.start = hist;
        }
        cur.outcomes |= u64::from(r.taken) << cur.pcs.len();
        cur.pcs.push(Pc::new(r.pc));
        hist = (hist << 1) | u64::from(r.taken);
        if cur.pcs.len() == 64 {
            out.push(std::mem::replace(
                &mut cur,
                Window {
                    pcs: Vec::with_capacity(64),
                    outcomes: 0,
                    start: 0,
                },
            ));
        }
    }
    if !cur.pcs.is_empty() {
        out.push(cur);
    }
    out
}

/// The workload's state: the lineup, the recorded traces, and each cell's
/// first result, which every later execution must reproduce.
struct Replay {
    env: ExpEnv,
    lineup: Vec<AnyProphet>,
    names: Vec<String>,
    traces: Vec<Trace>,
    cfg: ReplayConfig,
    fast_ref: Vec<Option<ReplayResult>>,
    slow_ref: Vec<Option<CycleResult>>,
    decoded: Vec<Option<Vec<BranchRecord>>>,
    next: [usize; 2],
}

impl Replay {
    fn new(traces: Vec<Trace>) -> Self {
        let env = drive::env(SCALE);
        let lineup = conventional_lineup();
        let names = lineup.iter().map(|p| slug(p.name())).collect();
        let cells = lineup.len() * traces.len();
        Self {
            cfg: ReplayConfig::with_budget(env.uop_budget()),
            env,
            lineup,
            names,
            fast_ref: vec![None; cells],
            slow_ref: vec![None; cells],
            decoded: (0..traces.len()).map(|_| None).collect(),
            traces,
            next: [0, 0],
        }
    }

    fn cells(&self) -> usize {
        self.lineup.len() * self.traces.len()
    }

    fn split(&self, cell: usize) -> (usize, usize) {
        (cell / self.traces.len(), cell % self.traces.len())
    }

    fn records(&mut self, t: usize) -> &[BranchRecord] {
        let bt = &self.traces[t].bt;
        self.decoded[t].get_or_insert_with(|| decode_records(bt).expect("recorded trace decodes").1)
    }

    /// Replays one cell; `None` when the trace fails to decode.
    fn replay_cell(&self, cell: usize, rec: &mut Recorder) -> (Option<ReplayResult>, f64) {
        let (e, t) = self.split(cell);
        let mut p = self.lineup[e].clone();
        let bt = &self.traces[t].bt;
        let t0 = Instant::now();
        let r = rec.span(
            "replay::replay_bytes",
            || self.names[e].clone(),
            |_| replay_bytes(bt, &mut p, &self.cfg),
        );
        (r.ok(), ns_since(t0))
    }

    /// Times one cell on the trace-fed pipeline.
    fn cycle_cell(&self, cell: usize, rec: &mut Recorder) -> (Option<CycleResult>, f64) {
        let (e, t) = self.split(cell);
        let mut p = self.lineup[e].clone();
        let trace = &self.traces[t];
        let cfg = cycle_cfg(&self.env, &trace.bench);
        let t0 = Instant::now();
        let reader = rec.span(
            "bptrace::BtReader::new",
            || self.names[e].clone(),
            |_| BtReader::new(trace.bt.as_slice()),
        );
        let r = reader.ok().map(|mut reader| {
            rec.span(
                "sim::run_cycles_trace",
                || self.names[e].clone(),
                |_| run_cycles_trace(&mut reader, &mut p, &cfg),
            )
        });
        (r, ns_since(t0))
    }

    /// Checks a replay result: the first one per cell against the scalar
    /// oracle on the same records, later ones against the first.
    fn check_replay(&mut self, cell: usize, r: Option<ReplayResult>) -> bool {
        let Some(r) = r else { return false };
        if let Some(first) = &self.fast_ref[cell] {
            return *first == r;
        }
        let (e, t) = self.split(cell);
        let mut p = self.lineup[e].clone();
        let cfg = self.cfg;
        let name = self.traces[t].bench.name.clone();
        let oracle = replay_records_scalar(&name, self.records(t), &mut p, &cfg);
        let ok = oracle == r;
        self.fast_ref[cell] = Some(r);
        ok
    }

    fn check_cycle(&mut self, cell: usize, r: Option<CycleResult>) -> bool {
        r.is_some_and(|r| drive::same_as_first(&mut self.slow_ref[cell], r))
    }

    /// Runs the next cell of `kind` (round-robin over all cells) and
    /// checks it.
    fn op(&mut self, kind: Kind, report: &mut Report) -> Sample {
        let slot = kind as usize;
        let cell = self.next[slot];
        self.next[slot] = (cell + 1) % self.cells();
        let mut off = Recorder::new(false, Instant::now(), 0);
        match kind {
            Kind::Fast => {
                let (r, ns) = self.replay_cell(cell, &mut off);
                let work = r.as_ref().map_or(0, |r| r.replayed_records);
                report.check(self.check_replay(cell, r));
                Sample {
                    cell,
                    ns,
                    work: work as f64,
                }
            }
            Kind::Slow => {
                let (r, ns) = self.cycle_cell(cell, &mut off);
                let work = r.as_ref().map_or(0, |r| r.committed_uops);
                report.check(self.check_cycle(cell, r));
                Sample {
                    cell,
                    ns,
                    work: work as f64,
                }
            }
        }
    }

    /// One pass over every cell, both kinds; returns the pass's wall time
    /// and its results (checked by the caller, outside the pass).
    #[allow(clippy::type_complexity)]
    fn pass(&self, rec: &mut Recorder) -> (f64, Vec<(Option<ReplayResult>, Option<CycleResult>)>) {
        let t0 = Instant::now();
        let results = rec.span("pass::replay", String::new, |rec| {
            let fast: Vec<_> = (0..self.cells())
                .map(|c| self.replay_cell(c, rec).0)
                .collect();
            let slow: Vec<_> = (0..self.cells())
                .map(|c| self.cycle_cell(c, rec).0)
                .collect();
            fast.into_iter().zip(slow).collect()
        });
        (ns_since(t0), results)
    }
}

/// The untraced run: set-up, warm-up, then `seconds` of alternating fast
/// and slow operations, with the set-up repeated between slice pairs.
pub fn measure(seed: u64, seconds: f64, report: &mut Report) -> Timing {
    let benches = drive::benchmarks(seed);
    let budget = drive::env(SCALE).uop_budget();
    let mut off = Recorder::new(false, Instant::now(), 0);
    let (traces, first) = drive::timed_setup(|| record(&benches, budget, &mut off));
    let bytes: Vec<Vec<u8>> = traces.iter().map(|t| t.bt.clone()).collect();
    let mut w = Replay::new(traces);
    drive::alternate(seconds * 0.15, |k| w.op(k, report), || {});
    let mut setups = vec![first];
    let mut rerecorded = Vec::new();
    let mut timing = drive::alternate(
        seconds,
        |k| w.op(k, report),
        || {
            let (again, s) = drive::timed_setup(|| record(&benches, budget, &mut off));
            setups.push(s);
            // Recording is deterministic: every set-up writes the same bytes.
            rerecorded.push(again.iter().zip(&bytes).all(|(t, b)| t.bt == *b));
        },
    );
    timing.setups = setups;
    report.require(
        rerecorded.iter().all(|&same| same),
        "every set-up records the same trace bytes",
    );
    let records: u64 = w.traces.iter().map(|t| t.records).sum();
    report.note(format!(
        "replay: {} traces x {} entrants, {budget} uops and {records} branch records per pass",
        w.traces.len(),
        w.lineup.len(),
    ));
    report.add("replay_mbranch_per_s", "Mbranch/s", drive::rate(&timing.fast));
    report.add("cycle_muops_per_s", "Muops/s", drive::rate(&timing.slow));
    timing
}

/// Times `f` over `reps` repetitions inside one span per repetition.
fn isolate(rec: &mut Recorder, name: &'static str, label: &str, reps: usize, mut f: impl FnMut()) {
    for _ in 0..reps {
        rec.span(name, || label.to_string(), |_| f());
    }
}

/// The traced run's share for this path: traced set-up, an untraced and a
/// traced pass (the difference is the tracing overhead), and the isolation
/// passes of the decode, kernel and scalar layers.
pub fn ledger(seed: u64, rec: &mut Recorder, report: &mut Report) {
    let benches = drive::benchmarks(seed);
    let budget = drive::env(SCALE).uop_budget();
    let traces = record(&benches, budget, rec);
    let mut w = Replay::new(traces);

    let mut off = Recorder::new(false, Instant::now(), 0);
    let (plain_ns, plain) = w.pass(&mut off);
    let (traced_ns, traced) = w.pass(rec);
    for (c, (fast, slow)) in plain.into_iter().chain(traced).enumerate() {
        let c = c % w.cells();
        report.check(w.check_replay(c, fast));
        report.check(w.check_cycle(c, slow));
    }
    crate::add_pass_ledger(report, rec.spans(), "replay", plain_ns, traced_ns);

    let records: u64 = w.traces.iter().map(|t| t.records).sum::<u64>();
    let per_rec = |ns: u64, reps: usize| ns as f64 / (records * reps as u64) as f64;
    let spans = rec.spans();
    report.add(
        "replay.record_ns_per_branch",
        "ns",
        per_rec(total_ns(spans, "replay::record_trace"), 1),
    );

    // Stream time per entrant from the traced pass.
    let stream = by_label(spans, "replay::replay_bytes");
    let cycle = by_label(spans, "sim::run_cycles_trace");
    let mut uops = vec![0u64; w.lineup.len()];
    let mut misp = 0;
    for c in 0..w.cells() {
        let (e, _) = w.split(c);
        uops[e] += w.slow_ref[c].as_ref().map_or(0, |r| r.committed_uops);
        misp += w.fast_ref[c].as_ref().map_or(0, |r| r.mispredicts);
    }

    // Isolation: block decode alone.
    const REPS: usize = 5;
    let mut block = DecodedBlock::new();
    let mut decoded = 0u64;
    for t in &w.traces {
        isolate(rec, "bptrace::next_block", &t.bench.name, REPS, || {
            let mut reader = BtBlockReader::new(t.bt.as_slice()).expect("recorded trace opens");
            while reader
                .next_block(&mut block)
                .expect("recorded trace decodes")
            {
                decoded += block.len() as u64;
            }
        });
    }
    let decode_ns = per_rec(total_ns(rec.spans(), "bptrace::next_block"), REPS);
    report.add("bptrace.decode_ns_per_branch", "ns", decode_ns);
    report.require(
        decoded == records * REPS as u64,
        "block decode yields every recorded branch",
    );
    let bytes: usize = w.traces.iter().map(|t| t.bt.len()).sum();
    report.add(
        "bptrace.bytes_per_branch",
        "B",
        bytes as f64 / records as f64,
    );

    // Isolation: the batched kernel on the traces' 64-branch windows, and
    // the scalar predict + update per conditional.
    let wins: Vec<Vec<Window>> = (0..w.traces.len()).map(|t| windows(w.records(t))).collect();
    let conds: Vec<Vec<(Pc, bool)>> = (0..w.traces.len())
        .map(|t| {
            w.records(t)
                .iter()
                .filter(|r| r.kind.is_conditional())
                .map(|r| (Pc::new(r.pc), r.taken))
                .collect()
        })
        .collect();
    let mut engine = Vec::new();
    for (e, proto) in w.lineup.iter().enumerate() {
        let name = &w.names[e];
        let len = proto.history_len().min(MAX_HISTORY_BITS);
        for ws in &wins {
            isolate(rec, "predictors::replay_block", name, REPS, || {
                let mut p = proto.clone();
                for win in ws {
                    black_box(p.replay_block(
                        &win.pcs,
                        win.outcomes,
                        HistoryBits::from_raw(win.start, len),
                    ));
                }
            });
        }
        for cs in &conds {
            isolate(rec, "predictors::predict_update", name, REPS, || {
                let mut p = proto.clone();
                let mut hist = HistoryBits::new(len);
                for &(pc, taken) in cs {
                    black_box(p.predict(pc, hist));
                    p.update(pc, hist, taken);
                    hist.push(taken);
                }
            });
        }
        let spans = rec.spans();
        let block_ns = per_rec(by_label(spans, "predictors::replay_block")[name].0, REPS);
        let scalar_ns = per_rec(by_label(spans, "predictors::predict_update")[name].0, REPS);
        let stream_ns = per_rec(stream[name].0, 1);
        report.add(
            format!("replay.stream_ns_per_branch.{name}"),
            "ns",
            stream_ns,
        );
        report.add(
            format!("predictors.block_ns_per_branch.{name}"),
            "ns",
            block_ns,
        );
        report.add(
            format!("predictors.scalar_ns_per_branch.{name}"),
            "ns",
            scalar_ns,
        );
        report.add(
            format!("sim.cycle_trace_ns_per_uop.{name}"),
            "ns",
            cycle[name].0 as f64 / uops[e] as f64,
        );
        engine.push(stream_ns - decode_ns - block_ns);
    }
    report.add(
        "replay.engine_ns_per_branch",
        "ns",
        engine.iter().sum::<f64>() / engine.len() as f64,
    );
    report.add("replay.mispredicts", "count", misp as f64);
}
