//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <replay|exec|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics. `--trace 1`
//! records a span around every call into the workspace and reports the
//! per-layer metrics of all three paths, each path's tracing overhead and
//! the time no layer accounts for; spans are written to
//! `.bench_out/spans-<workload>-<seed>.tsv` when the run ends. Every line
//! before the last names a metric with its unit; the last line is the JSON
//! result. See `perfbench/README.md`.

mod drive;
mod exec_path;
mod replay_path;
mod report;
mod serve_path;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use report::{slug, Report};
use spans::{Ledger, Recorder, Span};

/// The workloads, as named on the command line.
const WORKLOADS: [&str; 3] = ["replay", "exec", "serve"];

/// End-to-end metrics, reported by every workload (see README.md for what
/// "fast" and "slow" operations are on each). The printed report adds each
/// kind's mean, p50 and tail.
const END_TO_END: [&str; 4] = [
    "setup_s",
    "peak_rss_mb",
    "fast_op_best_ms",
    "slow_op_best_ms",
];

/// Every per-layer metric the traced run reports, in report order.
fn per_layer() -> Vec<String> {
    let trace = |path: &str| {
        [
            format!("trace.overhead_pct.{path}"),
            format!("trace.unattributed_pct.{path}"),
        ]
    };
    let mut out: Vec<String> = trace("replay").into();
    out.push("replay.record_ns_per_branch".into());
    out.push("bptrace.decode_ns_per_branch".into());
    out.push("bptrace.bytes_per_branch".into());
    for p in sim::experiments::tracecmp::conventional_lineup() {
        let e = slug(predictors::DirectionPredictor::name(&p));
        out.push(format!("replay.stream_ns_per_branch.{e}"));
        out.push(format!("predictors.block_ns_per_branch.{e}"));
        out.push(format!("predictors.scalar_ns_per_branch.{e}"));
        out.push(format!("sim.cycle_trace_ns_per_uop.{e}"));
    }
    out.push("replay.engine_ns_per_branch".into());
    out.push("replay.mispredicts".into());
    out.extend(trace("exec"));
    for (s, _) in exec_path::specs() {
        out.push(format!("sim.accuracy_ns_per_uop.{s}"));
        out.push(format!("sim.cycle_ns_per_uop.{s}"));
    }
    let named = |names: &[&str]| names.iter().map(|n| (*n).to_string()).collect::<Vec<_>>();
    out.extend(named(&[
        "sim.accuracy_ns_per_fetched_uop",
        "sim.cycle_ns_per_fetched_uop",
        "core.critic_ns_per_uop",
        "frontend.pipeline_ns_per_uop",
        "workloads.walk_ns_per_branch",
        "sim.committed_uops",
        "sim.fetched_uops",
        "sim.useful_fetch_ratio",
        "core.critiques",
        "core.overrides",
        "core.forced_critiques",
        "core.final_mispredicts",
        "frontend.bubbles.icache",
        "frontend.bubbles.ftq_full",
        "frontend.bubbles.ftq_empty",
        "frontend.bubbles.window_full",
        "frontend.bubbles.redirect",
        "frontend.bubbles.flush_restart",
        "uarch.data.l1",
        "uarch.data.l2",
        "uarch.data.memory",
    ]));
    out.extend(trace("serve"));
    out.extend(named(&[
        "serve.requests",
        "serve.shed",
        "serve.errors",
        "store.hits",
        "store.misses",
        "serve.handle_us",
        "serve.transport_ms",
        "serve.json_parse_us",
        "store.put_us",
        "store.get_us",
        "workloads.program_ms",
    ]));
    out
}

/// Adds one path's tracing overhead and unattributed share, and notes its
/// layer self times. `plain_ns`/`traced_ns` time the same pass untraced
/// and traced.
pub fn add_pass_ledger(
    report: &mut Report,
    spans: &[Span],
    path: &str,
    plain_ns: f64,
    traced_ns: f64,
) {
    let ledger = Ledger::of(spans, &format!("pass::{path}"));
    let e2e = ledger.e2e_ns as f64;
    report.add(
        format!("trace.overhead_pct.{path}"),
        "%",
        (traced_ns - plain_ns) / plain_ns * 100.0,
    );
    report.add(
        format!("trace.unattributed_pct.{path}"),
        "%",
        ledger.unattributed_ns as f64 / e2e * 100.0,
    );
    let mut line = format!("{path} pass {:.1} ms:", e2e / 1e6);
    for (layer, ns) in &ledger.layers {
        line.push_str(&format!(" {layer} {:.1}%", *ns as f64 / e2e * 100.0));
    }
    line.push_str(&format!(
        " unattributed {:.3}% | untraced {:.1} ms",
        ledger.unattributed_ns as f64 / e2e * 100.0,
        plain_ns / 1e6
    ));
    report.note(line);
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (replay, exec, serve)"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Adds a gated time: as measured, or, given the run's host speed,
/// rescaled to the reference speed with the measured value as `raw.<name>`.
fn add_time(report: &mut Report, name: &str, unit: &'static str, value: f64, speed: Option<f64>) {
    match speed {
        Some(speed) => {
            report.add(format!("raw.{name}"), unit, value);
            report.add(name, unit, value * speed);
        }
        None => report.add(name, unit, value),
    }
}

/// The untraced run: the workload's end-to-end metrics, plus each kind's
/// mean, p50 and tail under the workload's own names for its kinds.
///
/// Host speed drifts by a quarter over tens of minutes on a shared VM,
/// and it moves every in-process CPU-bound time of a run by one factor.
/// The gated times of `replay` and `exec`, which are only such computation,
/// are therefore reported at the reference host speed: multiplied by
/// [`drive::PROBE_REF_NS`] over the probe's fastest time in the run.
/// `serve`'s times are reported as measured: its set-up opens files and
/// binds a socket, and its round trips follow the accept loop's 25 ms
/// sleep, none of which the probe tracks.
fn untraced(args: &Args, report: &mut Report) {
    let (timing, kinds, in_process) = match args.workload.as_str() {
        "replay" => (
            replay_path::measure(args.seed, args.seconds, report),
            ["fast_op", "slow_op"],
            true,
        ),
        "exec" => (
            exec_path::measure(args.seed, args.seconds, report),
            ["fast_op", "slow_op"],
            true,
        ),
        _ => (
            serve_path::measure(args.seed, args.seconds, report),
            ["warm", "cold"],
            false,
        ),
    };
    let speed = in_process.then(|| {
        let probe_ns = drive::best(&timing.probes);
        report.note(format!(
            "host speed {:.4} of the reference: probe best {:.1} us of {} calls",
            drive::PROBE_REF_NS / probe_ns,
            probe_ns / 1e3,
            timing.probes.len()
        ));
        report.add("host.probe_us", "us", probe_ns / 1e3);
        drive::PROBE_REF_NS / probe_ns
    });
    // Set-up repeats across the run; like an operation, its fastest
    // repetition is what the code costs when nothing else contends.
    report.note(format!(
        "setup_s: fastest of {} set-ups",
        timing.setups.len()
    ));
    add_time(report, "setup_s", "s", drive::best(&timing.setups), speed);
    report.add(
        "peak_rss_mb",
        "MB",
        report::peak_rss_mb().unwrap_or(f64::NAN),
    );
    for ((gated, samples), kind) in [("fast_op", &timing.fast), ("slow_op", &timing.slow)]
        .into_iter()
        .zip(kinds)
    {
        let ms: Vec<f64> = samples.iter().map(|s| s.ns / 1e6).collect();
        let t = stats::tail(&ms);
        report.note(format!(
            "{kind}: {} samples; {kind}_tail_ms is p{} ({} beyond)",
            t.n, t.pct, t.beyond
        ));
        add_time(
            report,
            &format!("{gated}_best_ms"),
            "ms",
            drive::cell_best_ns(samples) / 1e6,
            speed,
        );
        report.add(
            format!("{kind}_mean_ms"),
            "ms",
            ms.iter().sum::<f64>() / ms.len() as f64,
        );
        report.add(format!("{kind}_p50_ms"), "ms", stats::median(&ms));
        report.add(format!("{kind}_tail_ms"), "ms", t.value);
    }
}

/// The traced run: every path's ledger and isolation passes.
fn traced(args: &Args, report: &mut Report) -> Vec<Span> {
    let origin = Instant::now();
    let mut rec = Recorder::new(true, origin, 0);
    replay_path::ledger(args.seed, &mut rec, report);
    exec_path::ledger(args.seed, &mut rec, report);
    serve_path::ledger(args.seed, &mut rec, origin, report);
    let spans = rec.take();
    let (ns, n) = spans
        .iter()
        .filter(|s| s.name == "workloads::program")
        .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1));
    report.add("workloads.program_ms", "ms", ns as f64 / f64::from(n) / 1e6);
    spans
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <replay|exec|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let listed: Vec<String> = if args.trace {
        let spans = traced(&args, &mut report);
        let path = format!(".bench_out/spans-{}-{}.tsv", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, spans::to_tsv(&spans)));
        match written {
            Ok(()) => report.note(format!("{} spans written to {path}", spans.len())),
            Err(e) => report.note(format!("spans not written to {path}: {e}")),
        }
        per_layer()
    } else {
        untraced(&args, &mut report);
        END_TO_END.iter().map(|s| (*s).to_string()).collect()
    };
    let mut problems = report.problems();
    for name in &listed {
        if !report.metrics.iter().any(|m| &m.name == name) {
            problems.push(format!("metric '{name}' was not measured"));
        }
    }
    print!("{}", report.text());
    if !problems.is_empty() {
        for p in problems {
            eprintln!("perfbench: {p}");
        }
        return ExitCode::FAILURE;
    }
    let keep: Vec<&str> = listed.iter().map(String::as_str).collect();
    println!("{}", report.json(&keep));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_is_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|s| (*s).to_string()).collect();
        all.extend(per_layer());
        let mut seen = std::collections::BTreeSet::new();
        for n in &all {
            assert!(report::valid_name(n), "{n}");
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
        assert!(all.len() <= 128 + END_TO_END.len());
    }

    /// The metric lists in `BENCHMARK.json` are the ones this program
    /// prints.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read(path).expect("BENCHMARK.json at the repository root");
        let doc = serve::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(serve::json::Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(serve::json::Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), per_layer());
        let workloads: Vec<String> = names("workloads");
        assert_eq!(workloads, WORKLOADS);
    }
}
