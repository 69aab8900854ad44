//! The `exec` workload: the §6 wrong-path path behind `headline`,
//! fig5–fig10, `tune` and `tracecmp`'s hybrid stages.
//!
//! Set-up synthesizes the fast-set programs. A fast operation runs one spec
//! on one program through `sim::run_accuracy`; a slow one runs the same
//! pair through the cycle-level `sim::run_cycles`. The six specs are the
//! 16 KB 2Bc-gskew baseline, the tuned headline hybrid (same prophet, so
//! their difference is the critic's cost) and `tracecmp`'s four pairs.

use std::time::Instant;

use prophet_critic::HybridSpec;
use sim::experiments::common::cycle_cfg;
use sim::experiments::tracecmp::hybrid_lineup;
use sim::experiments::ExpEnv;
use sim::tune::baseline_spec;
use sim::{run_accuracy, run_cycles, AccuracyResult, CycleResult};
use workloads::{Benchmark, Program, Walker};

use crate::drive::{self, ns_since, Kind, Sample, Timing};
use crate::report::Report;
use crate::spans::{by_label, total_ns, Recorder};

/// Budget multiplier: 0.025 × 1.2 M = 30 K uops per cell.
const SCALE: f64 = 0.025;

/// The six specs with their metric names, baseline first, tuned second.
#[must_use]
pub fn specs() -> Vec<(&'static str, HybridSpec)> {
    let pairs = hybrid_lineup();
    let names = [
        "gshare8-tgshare8",
        "perceptron8-tgshare8",
        "tage_h2p8-tgshare8",
        "gskew8-tage8",
    ];
    let mut out = vec![
        ("gskew16", baseline_spec()),
        ("tuned", HybridSpec::tuned_headline()),
    ];
    out.extend(names.into_iter().zip(pairs));
    out
}

/// Synthesizes every program (the workload's set-up).
fn synthesize(benches: &[Benchmark], rec: &mut Recorder) -> Vec<Program> {
    benches
        .iter()
        .map(|b| rec.span("workloads::program", || b.name.clone(), |_| b.program()))
        .collect()
}

/// The workload's state, with each cell's first results for the checks.
struct Exec {
    env: ExpEnv,
    specs: Vec<(&'static str, HybridSpec)>,
    benches: Vec<Benchmark>,
    programs: Vec<Program>,
    fast_ref: Vec<Option<AccuracyResult>>,
    slow_ref: Vec<Option<CycleResult>>,
    next: [usize; 2],
}

impl Exec {
    fn new(benches: Vec<Benchmark>, programs: Vec<Program>) -> Self {
        let specs = specs();
        let cells = specs.len() * benches.len();
        Self {
            env: drive::env(SCALE),
            specs,
            benches,
            programs,
            fast_ref: vec![None; cells],
            slow_ref: vec![None; cells],
            next: [0, 0],
        }
    }

    fn cells(&self) -> usize {
        self.specs.len() * self.benches.len()
    }

    fn split(&self, cell: usize) -> (usize, usize) {
        (cell / self.benches.len(), cell % self.benches.len())
    }

    fn accuracy_cell(&self, cell: usize, rec: &mut Recorder) -> (AccuracyResult, f64) {
        let (s, b) = self.split(cell);
        let (name, spec) = self.specs[s];
        let cfg = self.env.sim_config(self.benches[b].seed);
        let mut hybrid = spec.build();
        let t0 = Instant::now();
        let r = rec.span(
            "sim::run_accuracy",
            || name.to_string(),
            |_| run_accuracy(&self.programs[b], &mut hybrid, &cfg),
        );
        (r, ns_since(t0))
    }

    fn cycle_cell(&self, cell: usize, rec: &mut Recorder) -> (CycleResult, f64) {
        let (s, b) = self.split(cell);
        let (name, spec) = self.specs[s];
        let cfg = cycle_cfg(&self.env, &self.benches[b]);
        let mut hybrid = spec.build();
        let t0 = Instant::now();
        let r = rec.span(
            "sim::run_cycles",
            || name.to_string(),
            |_| run_cycles(&self.programs[b], &mut hybrid, &cfg),
        );
        (r, ns_since(t0))
    }

    fn op(&mut self, kind: Kind, report: &mut Report) -> Sample {
        let slot = kind as usize;
        let cell = self.next[slot];
        self.next[slot] = (cell + 1) % self.cells();
        let mut off = Recorder::new(false, Instant::now(), 0);
        let (ns, work, ok) = match kind {
            Kind::Fast => {
                let (r, ns) = self.accuracy_cell(cell, &mut off);
                (
                    ns,
                    r.committed_uops,
                    drive::same_as_first(&mut self.fast_ref[cell], r),
                )
            }
            Kind::Slow => {
                let (r, ns) = self.cycle_cell(cell, &mut off);
                (
                    ns,
                    r.committed_uops,
                    drive::same_as_first(&mut self.slow_ref[cell], r),
                )
            }
        };
        report.check(ok);
        Sample {
            cell,
            ns,
            work: work as f64,
        }
    }

    #[allow(clippy::type_complexity)]
    fn pass(&self, rec: &mut Recorder) -> (f64, Vec<(AccuracyResult, CycleResult)>) {
        let t0 = Instant::now();
        let results = rec.span("pass::exec", String::new, |rec| {
            let fast: Vec<_> = (0..self.cells())
                .map(|c| self.accuracy_cell(c, rec).0)
                .collect();
            let slow: Vec<_> = (0..self.cells())
                .map(|c| self.cycle_cell(c, rec).0)
                .collect();
            fast.into_iter().zip(slow).collect()
        });
        (ns_since(t0), results)
    }
}

/// The untraced run: set-up, warm-up, then `seconds` of alternating
/// accuracy and cycle cells, with the set-up repeated between slice pairs.
pub fn measure(seed: u64, seconds: f64, report: &mut Report) -> Timing {
    let benches = drive::benchmarks(seed);
    let mut off = Recorder::new(false, Instant::now(), 0);
    let (programs, first) = drive::timed_setup(|| synthesize(&benches, &mut off));
    let mut w = Exec::new(benches.clone(), programs);
    drive::alternate(seconds * 0.15, |k| w.op(k, report), || {});
    let mut setups = vec![first];
    let mut timing = drive::alternate(
        seconds,
        |k| w.op(k, report),
        || setups.push(drive::timed_setup(|| synthesize(&benches, &mut off)).1),
    );
    timing.setups = setups;
    report.note(format!(
        "exec: {} specs x {} programs, {} uops per cell",
        w.specs.len(),
        w.benches.len(),
        w.env.uop_budget()
    ));
    report.add("accuracy_muops_per_s", "Muops/s", drive::rate(&timing.fast));
    report.add("cycle_muops_per_s", "Muops/s", drive::rate(&timing.slow));
    timing
}

/// The traced run's share for this path: traced set-up, an untraced and a
/// traced pass, the walker isolation pass, and the simulated counts.
pub fn ledger(seed: u64, rec: &mut Recorder, report: &mut Report) {
    let benches = drive::benchmarks(seed);
    let programs = synthesize(&benches, rec);
    let mut w = Exec::new(benches, programs);

    let mut off = Recorder::new(false, Instant::now(), 0);
    let (plain_ns, plain) = w.pass(&mut off);
    let (traced_ns, traced) = w.pass(rec);
    let cells = w.cells();
    for (c, (acc, cyc)) in plain.into_iter().chain(traced).enumerate() {
        let c = c % cells;
        report.check(drive::same_as_first(&mut w.fast_ref[c], acc));
        report.check(drive::same_as_first(&mut w.slow_ref[c], cyc));
    }
    crate::add_pass_ledger(report, rec.spans(), "exec", plain_ns, traced_ns);

    // Per-spec host time per committed uop, from the traced pass.
    let spans = rec.spans();
    let acc = by_label(spans, "sim::run_accuracy");
    let cyc = by_label(spans, "sim::run_cycles");
    let first = |c: usize| {
        (
            w.fast_ref[c].as_ref().expect("checked above"),
            w.slow_ref[c].as_ref().expect("checked above"),
        )
    };
    let mut per_uop = Vec::new();
    let (mut acc_uops, mut acc_fetched, mut cyc_uops, mut cyc_fetched) = (0, 0, 0, 0);
    for (s, (name, _)) in w.specs.iter().enumerate() {
        let (mut au, mut cu) = (0u64, 0u64);
        for b in 0..w.benches.len() {
            let (a, c) = first(s * w.benches.len() + b);
            au += a.committed_uops;
            cu += c.committed_uops;
            acc_fetched += a.fetched_uops;
            cyc_fetched += c.fetched_uops;
        }
        acc_uops += au;
        cyc_uops += cu;
        let a_ns = acc[*name].0 as f64 / au as f64;
        let c_ns = cyc[*name].0 as f64 / cu as f64;
        report.add(format!("sim.accuracy_ns_per_uop.{name}"), "ns", a_ns);
        report.add(format!("sim.cycle_ns_per_uop.{name}"), "ns", c_ns);
        per_uop.push(a_ns);
    }
    let acc_ns = total_ns(spans, "sim::run_accuracy") as f64;
    let cyc_ns = total_ns(spans, "sim::run_cycles") as f64;
    report.add(
        "sim.accuracy_ns_per_fetched_uop",
        "ns",
        acc_ns / acc_fetched as f64,
    );
    report.add(
        "sim.cycle_ns_per_fetched_uop",
        "ns",
        cyc_ns / cyc_fetched as f64,
    );
    // specs()[0] is the baseline and specs()[1] the tuned hybrid on the
    // same prophet: the difference is the critic.
    report.add("core.critic_ns_per_uop", "ns", per_uop[1] - per_uop[0]);
    report.add(
        "frontend.pipeline_ns_per_uop",
        "ns",
        cyc_ns / cyc_uops as f64 - acc_ns / acc_uops as f64,
    );

    // Isolation: the correct-path walk alone.
    let budget = w.env.uop_budget();
    let mut branches = 0u64;
    for (bench, program) in w.benches.iter().zip(&w.programs) {
        rec.span(
            "workloads::walk",
            || bench.name.clone(),
            |_| {
                let mut walker = Walker::with_seed(program, bench.seed);
                while walker.uops_walked() < budget {
                    let ev = walker.next_branch();
                    walker.follow(ev.outcome);
                    branches += 1;
                }
            },
        );
    }
    report.add(
        "workloads.walk_ns_per_branch",
        "ns",
        total_ns(rec.spans(), "workloads::walk") as f64 / branches as f64,
    );

    // Simulated counts over the cycle cells: identical for a speed-only
    // change.
    let mut sum = sim::CycleResult::default();
    let mut bubbles = [0.0f64; 6];
    for c in 0..cells {
        let r = first(c).1;
        sum.committed_uops += r.committed_uops;
        sum.fetched_uops += r.fetched_uops;
        sum.critiques += r.critiques;
        sum.overrides += r.overrides;
        sum.forced_critiques += r.forced_critiques;
        sum.final_mispredicts += r.final_mispredicts;
        sum.data_counts.0 += r.data_counts.0;
        sum.data_counts.1 += r.data_counts.1;
        sum.data_counts.2 += r.data_counts.2;
        let b = &r.bubbles;
        let causes = [
            b.icache,
            b.ftq_full,
            b.ftq_empty,
            b.window_full,
            b.redirect,
            b.flush_restart,
        ];
        for (acc, v) in bubbles.iter_mut().zip(causes) {
            *acc += v;
        }
    }
    report.add("sim.committed_uops", "count", sum.committed_uops as f64);
    report.add("sim.fetched_uops", "count", sum.fetched_uops as f64);
    report.add(
        "sim.useful_fetch_ratio",
        "ratio",
        sum.committed_uops as f64 / sum.fetched_uops as f64,
    );
    report.add("core.critiques", "count", sum.critiques as f64);
    report.add("core.overrides", "count", sum.overrides as f64);
    report.add(
        "core.forced_critiques",
        "count",
        sum.forced_critiques as f64,
    );
    report.add(
        "core.final_mispredicts",
        "count",
        sum.final_mispredicts as f64,
    );
    let causes = [
        "icache",
        "ftq_full",
        "ftq_empty",
        "window_full",
        "redirect",
        "flush_restart",
    ];
    for (cause, v) in causes.iter().zip(bubbles) {
        report.add(format!("frontend.bubbles.{cause}"), "cycles", v);
    }
    report.add("uarch.data.l1", "count", sum.data_counts.0 as f64);
    report.add("uarch.data.l2", "count", sum.data_counts.1 as f64);
    report.add("uarch.data.memory", "count", sum.data_counts.2 as f64);
}
