//! The experiment runner.
//!
//! ```text
//! experiments [--csv DIR] [--threads N] [--json FILE]
//!             [--store DIR | --resume] <id>... | all | list
//! experiments --list
//!
//!   SCALE=2              double the per-benchmark uop budget
//!   EXP_BENCH=all        sweep all 110 benchmarks instead of 2 per suite
//!   THREADS=8            default worker count (--threads overrides)
//!   TUNE_PRESET=quick    search space for the `tune` experiment
//!                        (headline | quick | wide; default headline)
//!   CELL_STORE=DIR       same as --store DIR
//!   FAULT_PLAN=SPEC      deterministic fault injection (testing only;
//!                        see `replay::fault`)
//! ```
//!
//! `--list` (or the `list` subcommand) enumerates every runnable
//! experiment *and* every available benchmark per suite, so neither needs
//! discovering by reading source.
//!
//! Every run reports per-experiment wall-clock on stderr. Runs that
//! include `headline` (or pass an explicit `--json FILE`) also write a
//! machine-readable report — wall-clock per experiment plus the headline
//! misp/Kuops and uPC — so the perf trajectory is tracked across commits;
//! the default `BENCH_headline.json` is never clobbered by runs without
//! headline metrics. The `tracecmp` and `tune` experiments additionally
//! write their own thread-count-independent reports
//! (`BENCH_tracecmp.json`, `BENCH_tune.json`).
//!
//! `--store DIR` (or `--resume`, which defaults the directory to
//! `.cellstore`) backs the run with a crash-safe incremental cell store:
//! every (spec × benchmark × config) cell persists its result to disk
//! under a content hash, so a killed run picks up where it left off —
//! re-runs recompute only the missing cells and produce byte-identical
//! artifacts.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use sim::experiments::headline::HeadlineMetrics;
use sim::experiments::{all, by_id, ExpEnv, Experiment};
use sim::CellStore;

const DEFAULT_JSON_PATH: &str = "BENCH_headline.json";
const DEFAULT_STORE_DIR: &str = ".cellstore";

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--csv DIR] [--threads N] [--json FILE] [--store DIR | --resume] \
         <id>... | all | list"
    );
    eprintln!("       experiments --list   (enumerate experiments and benchmarks)");
    eprintln!("experiments:");
    for e in all() {
        eprintln!("  {:<8} {}", e.id, e.title);
    }
    std::process::exit(2);
}

/// Enumerates every runnable experiment and every available benchmark.
fn print_inventory() {
    println!("experiments:");
    for e in all() {
        println!("  {:<9} {}", e.id, e.title);
    }
    println!("\nbenchmarks (EXP_BENCH=all sweeps every one; fast set takes 2 per suite):");
    let benchmarks = workloads::all_benchmarks();
    for suite in workloads::Suite::ALL {
        let names: Vec<&str> = benchmarks
            .iter()
            .filter(|b| b.suite == suite)
            .map(|b| b.name.as_str())
            .collect();
        println!(
            "  {:<6} ({:>3}): {}",
            suite.label(),
            names.len(),
            names.join(" ")
        );
    }
}

/// Extracts the value of `--flag VALUE` from `args`, removing both tokens.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        usage();
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Removes a bare `--flag` switch from `args`, reporting its presence.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

struct Timing {
    id: &'static str,
    seconds: f64,
}

fn write_report(
    path: &str,
    env: &ExpEnv,
    timings: &[Timing],
    headline: Option<&HeadlineMetrics>,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bench_headline_v1\",\n");
    out.push_str(&format!("  \"threads\": {},\n", env.threads));
    out.push_str(&format!("  \"scale\": {},\n", env.scale));
    out.push_str(&format!("  \"bench_set\": \"{:?}\",\n", env.bench_set));
    out.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_clock_seconds\": {:.3}}}{comma}\n",
            sim::json::escape(t.id),
            t.seconds
        ));
    }
    out.push_str("  ],\n");
    let total: f64 = timings.iter().map(|t| t.seconds).sum();
    out.push_str(&format!("  \"total_wall_clock_seconds\": {total:.3},\n"));
    match headline {
        Some(m) => {
            out.push_str("  \"headline\": {\n");
            out.push_str(&format!(
                "    \"baseline_misp_per_kuops\": {:.4},\n",
                m.baseline_misp_per_kuops
            ));
            out.push_str(&format!(
                "    \"hybrid_misp_per_kuops\": {:.4},\n",
                m.hybrid_misp_per_kuops
            ));
            out.push_str(&format!(
                "    \"misp_reduction_percent\": {:.2},\n",
                m.misp_reduction_percent
            ));
            out.push_str(&format!(
                "    \"baseline_uops_per_flush\": {:.2},\n",
                m.baseline_uops_per_flush
            ));
            out.push_str(&format!(
                "    \"hybrid_uops_per_flush\": {:.2},\n",
                m.hybrid_uops_per_flush
            ));
            out.push_str(&format!("    \"baseline_upc\": {:.4},\n", m.baseline_upc));
            out.push_str(&format!("    \"hybrid_upc\": {:.4}\n", m.hybrid_upc));
            out.push_str("  }\n");
        }
        None => out.push_str("  \"headline\": null\n"),
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print_inventory();
        return;
    }
    let csv_dir = take_flag(&mut args, "--csv");
    let explicit_json = take_flag(&mut args, "--json");
    let json_path = explicit_json
        .clone()
        .unwrap_or_else(|| DEFAULT_JSON_PATH.to_string());
    let threads =
        take_flag(&mut args, "--threads").map(|v| v.parse::<usize>().unwrap_or_else(|_| usage()));
    let resume = take_switch(&mut args, "--resume");
    let store_dir =
        take_flag(&mut args, "--store").or_else(|| resume.then(|| DEFAULT_STORE_DIR.to_string()));
    if args.is_empty() {
        usage();
    }
    if args[0] == "list" {
        print_inventory();
        return;
    }

    let selected: Vec<Experiment> = if args.iter().any(|a| a == "all") {
        all()
    } else {
        args.iter()
            .map(|id| by_id(id).unwrap_or_else(|| usage()))
            .collect()
    };

    let mut env = ExpEnv::from_env();
    if let Some(t) = threads {
        env = env.with_threads(t);
    }
    let store: Option<Arc<CellStore>> = store_dir.map(|dir| {
        let store = CellStore::open(dir.as_ref()).unwrap_or_else(|e| {
            eprintln!("experiments: cannot open cell store {dir}: {e}");
            std::process::exit(2);
        });
        Arc::new(store)
    });
    if let Some(s) = &store {
        env = env.with_store(Arc::clone(s));
        eprintln!("# cell store: {}", s.dir().display());
    }
    eprintln!(
        "# running {} experiment(s), scale {}, bench set {:?}, {} thread(s)",
        selected.len(),
        env.scale,
        env.bench_set,
        env.threads
    );

    let mut timings: Vec<Timing> = Vec::with_capacity(selected.len());
    let mut headline_metrics: Option<HeadlineMetrics> = None;
    for e in selected {
        let start = Instant::now();
        // The headline experiment also yields machine-readable metrics;
        // run it through the metrics entry point so they land in the
        // JSON report without a second (expensive) run.
        let tables = if e.id == "headline" {
            let (tables, metrics) = sim::experiments::headline::run_with_metrics(&env);
            headline_metrics = Some(metrics);
            tables
        } else {
            (e.run)(&env)
        };
        let elapsed = start.elapsed();
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(dir) = &csv_dir {
                std::fs::create_dir_all(dir).expect("create csv dir");
                let suffix = if tables.len() > 1 {
                    format!("_{}", (b'a' + i as u8) as char)
                } else {
                    String::new()
                };
                let path = format!("{dir}/{}{suffix}.csv", e.id);
                let mut f = std::fs::File::create(&path).expect("create csv file");
                f.write_all(t.to_csv().as_bytes()).expect("write csv");
                eprintln!("# wrote {path}");
            }
        }
        eprintln!("# {} finished in {:.1}s\n", e.id, elapsed.as_secs_f64());
        timings.push(Timing {
            id: e.id,
            seconds: elapsed.as_secs_f64(),
        });
    }

    // The default-path file is the headline perf tracker: only overwrite
    // it when this run produced headline metrics, so `experiments fig5`
    // doesn't clobber a previously recorded headline block with null.
    // An explicit `--json PATH` always writes.
    if explicit_json.is_some() || headline_metrics.is_some() {
        match write_report(&json_path, &env, &timings, headline_metrics.as_ref()) {
            Ok(()) => eprintln!("# wrote {json_path}"),
            Err(err) => eprintln!("# could not write {json_path}: {err}"),
        }
    }

    if let Some(s) = &store {
        eprintln!(
            "# cell store: {} hit(s), {} computed ({})",
            s.hits(),
            s.misses(),
            s.dir().display()
        );
    }
}
