//! Shared experiment plumbing: scaling, benchmark selection, the store
//! cells and the parallel grid entry points.
//!
//! Every experiment reduces to a grid of independent cells — one
//! `(HybridSpec, Benchmark)` pair per cell — so the module exposes the
//! grid as data:
//!
//! * [`run_matrix`] — simulate every spec × program cell, in parallel,
//!   returning the per-cell results in input order;
//! * [`run_grid`] — the same, pooled per spec (the paper's usual
//!   aggregate);
//! * [`cycle_grid`] — every spec × benchmark cell on the cycle model.
//!
//! Parallel execution is deterministic: cells are distributed dynamically
//! but results are collected by input index, and each cell's simulation is
//! seeded, so any thread count produces bit-identical `AccuracyResult`s
//! to the sequential path ([`pooled_accuracy_seq`] is kept as the
//! reference and the determinism tests compare against it).
//!
//! **Store cells.** Each kind of cell the store holds is defined once,
//! here: [`accuracy_cell`], [`cycle_cell`], [`replay_cell`] and
//! [`trace_cycle_cell`] each return the cell's [`CellKey`] and its
//! computation, built from the same arguments. The computation's inputs
//! are derived inside the definition from the key's — the seed from the
//! benchmark, the warm-up from the budget, the Table 2 machine and the
//! suite's data profile from benchmark and budget — so the figure grids,
//! `tracecmp`, `tune` and `serve` can never file two different
//! computations under one key. The program or trace bytes come in
//! lazily: a store hit synthesizes no program and reads no trace.
//!
//! Two robustness layers sit underneath (both inert by default):
//!
//! * **Checkpoint/resume.** When [`ExpEnv::store`] holds a
//!   [`CellStore`], every cell goes through [`cached`]: it is looked up by
//!   content hash before simulating and persisted after — so a rerun of a
//!   killed grid only recomputes missing cells (see `sim::store`).
//! * **Panic isolation.** Every grid routes through [`try_par_map`], so
//!   a panicking cell is caught as a [`CellFailure`]. The grids here are
//!   all-or-nothing: they finish the other cells, then abort with a
//!   message naming the first cell that died. Experiments that must
//!   survive failed cells (`tracecmp`, `h2p`) keep the failures and
//!   report them. [`ExpEnv::fault`] injects scheduled panics for tests.

use std::borrow::Borrow;
use std::sync::Arc;

use bptrace::BtReader;
use prophet_critic::{AnyProphet, HybridSpec};
use replay::{replay_bytes, FaultPlan, ReplayConfig, ReplayResult};
use workloads::{all_benchmarks, Benchmark, Program, Suite};

use crate::accuracy::{run_accuracy, SimConfig};
use crate::cycle::{run_cycles, run_cycles_trace, CycleConfig, CycleResult};
use crate::experiments::tracecmp::size_label;
use crate::metrics::AccuracyResult;
use crate::runner::{default_threads, par_map, try_par_map, CellFailure};
use crate::store::{CellKey, CellPayload, CellStore};

/// Default committed-uop budget per benchmark at `SCALE=1`.
pub const BASE_UOPS: u64 = 1_200_000;

/// Which benchmarks an experiment sweeps.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BenchSet {
    /// Two benchmarks per suite — the development/CI scale.
    Fast,
    /// All 110 benchmarks of Table 1.
    All,
}

/// The benchmarks a [`BenchSet`] selects, in suite order.
///
/// This is the **single** definition of the fast set; the `traces` CLI
/// uses it too, so a corpus recorded with `traces record --bench fast`
/// covers exactly the benchmarks the experiment grid (and `tracecmp`)
/// sweeps.
#[must_use]
pub fn select_benchmarks(set: BenchSet) -> Vec<Benchmark> {
    let per_suite = match set {
        BenchSet::Fast => 2,
        BenchSet::All => usize::MAX,
    };
    let mut selected = Vec::new();
    let pool = all_benchmarks();
    for suite in Suite::ALL {
        selected.extend(
            pool.iter()
                .filter(|b| b.suite == suite)
                .take(per_suite)
                .cloned(),
        );
    }
    selected
}

/// Expands `benches` to `target` entries by synthesizing variants: each
/// variant derives a fresh name (`<base>-v<round>`) and seed from a base
/// benchmark (both feed program generation, so every variant is a
/// distinct deterministic workload). The bounded-memory soak knob —
/// corpus size scales freely while recording, replay and the experiment
/// grids stream every stage.
///
/// Shared by the `traces` CLI (`CORPUS_TRACES` at record time) and
/// [`ExpEnv::programs`] (the same variable at experiment time), so the
/// `tracecmp`/`tune` tournaments sweep exactly the corpus a
/// `CORPUS_TRACES`-expanded recording run wrote.
#[must_use]
pub fn expand_benchmarks(benches: Vec<Benchmark>, target: usize) -> Vec<Benchmark> {
    let base_len = benches.len();
    if target <= base_len || base_len == 0 {
        return benches;
    }
    let mut out = benches;
    for i in base_len..target {
        let base = &out[i % base_len];
        let round = (i / base_len) as u64;
        out.push(Benchmark {
            name: format!("{}-v{:03}", base.name, round),
            suite: base.suite,
            profile: base.profile,
            seed: base
                .seed
                .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        });
    }
    out
}

/// Environment-derived experiment settings.
///
/// * `SCALE` — multiplies the per-benchmark uop budget (default 1.0).
/// * `EXP_BENCH` — `fast` (default) or `all`.
/// * `CORPUS_TRACES` — expand the selected bench set to N synthetic
///   variants ([`expand_benchmarks`]; default: no expansion), pointing
///   the experiment tournaments at the same sharded corpus the `traces`
///   CLI records under this variable.
/// * `THREADS` — worker threads for the grid runner (default: all cores;
///   the `experiments` binary's `--threads` flag overrides it).
/// * `CELL_STORE` — directory of the incremental cell store (default:
///   none; the `experiments` binary's `--store`/`--resume` flags
///   override it).
/// * `FAULT_PLAN` — a fault-injection spec ([`FaultPlan::from_spec`];
///   default: inert).
#[derive(Clone, Debug)]
pub struct ExpEnv {
    /// Budget multiplier.
    pub scale: f64,
    /// Benchmark selection.
    pub bench_set: BenchSet,
    /// Expand the bench set to this many synthetic variants
    /// ([`expand_benchmarks`]); `None` sweeps the plain selection.
    pub corpus_traces: Option<usize>,
    /// Worker threads for grid fan-out (1 = sequential).
    pub threads: usize,
    /// Incremental cell store; `None` recomputes everything.
    pub store: Option<Arc<CellStore>>,
    /// Fault-injection plan; inert by default.
    pub fault: FaultPlan,
}

impl ExpEnv {
    /// Reads `SCALE`, `EXP_BENCH`, `THREADS`, `CELL_STORE` and
    /// `FAULT_PLAN` from the process environment.
    ///
    /// # Panics
    ///
    /// If `CELL_STORE` names a directory that cannot be created or read,
    /// or `FAULT_PLAN` is malformed — both are explicit opt-ins, and
    /// silently dropping them would fake the robustness they test.
    #[must_use]
    pub fn from_env() -> Self {
        let scale = std::env::var("SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0)
            .unwrap_or(1.0);
        let bench_set = match std::env::var("EXP_BENCH").as_deref() {
            Ok("all") => BenchSet::All,
            _ => BenchSet::Fast,
        };
        let corpus_traces = std::env::var("CORPUS_TRACES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|n| *n > 0);
        let store = std::env::var("CELL_STORE").ok().map(|dir| {
            let dir = std::path::PathBuf::from(dir);
            Arc::new(
                CellStore::open(&dir)
                    .unwrap_or_else(|e| panic!("CELL_STORE {}: {e}", dir.display())),
            )
        });
        Self {
            scale,
            bench_set,
            corpus_traces,
            threads: default_threads(),
            store,
            fault: FaultPlan::from_env(),
        }
    }

    /// A fixed tiny environment for tests and timing benches. Uses two
    /// workers so the parallel path is exercised (determinism makes the
    /// thread count invisible in the results).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            scale: 0.08,
            bench_set: BenchSet::Fast,
            corpus_traces: None,
            threads: 2,
            store: None,
            fault: FaultPlan::none(),
        }
    }

    /// This environment pinned to `threads` workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// This environment backed by an incremental cell store.
    #[must_use]
    pub fn with_store(mut self, store: Arc<CellStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// This environment under a fault-injection plan.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// The per-benchmark committed-uop budget.
    #[must_use]
    pub fn uop_budget(&self) -> u64 {
        ((BASE_UOPS as f64 * self.scale) as u64).max(20_000)
    }

    /// The accuracy-simulation config for one benchmark.
    #[must_use]
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        SimConfig::with_budget(self.uop_budget(), seed)
    }

    /// The benchmarks this environment sweeps, with generated programs.
    /// With [`corpus_traces`](Self::corpus_traces) set, the selection is
    /// expanded to that many synthetic variants first.
    #[must_use]
    pub fn programs(&self) -> Vec<(Benchmark, Program)> {
        let selected = match self.corpus_traces {
            Some(target) => expand_benchmarks(select_benchmarks(self.bench_set), target),
            None => select_benchmarks(self.bench_set),
        };
        // Program synthesis is itself per-benchmark independent work.
        par_map(&selected, self.threads, |_, b| b.program())
            .into_iter()
            .zip(selected)
            .map(|(p, b)| (b, p))
            .collect()
    }

    /// Generates programs for an explicit benchmark-name list.
    ///
    /// # Panics
    ///
    /// Panics if a name is unknown (experiment definitions are static).
    #[must_use]
    pub fn named_programs(&self, names: &[&str]) -> Vec<(Benchmark, Program)> {
        names
            .iter()
            .map(|n| {
                let b = workloads::benchmark(n).unwrap_or_else(|| panic!("unknown benchmark {n}"));
                let p = b.program();
                (b, p)
            })
            .collect()
    }
}

/// Resolves one store cell — a key and its computation, as the cell
/// definitions below return them — through the environment's cell store,
/// if any: a valid stored record short-circuits the computation; a fresh
/// result is persisted (atomically) for the next run. Storeless
/// environments just compute. Returns the result and whether it came from
/// the store.
///
/// A failed store *write* only warns — losing one checkpoint must not
/// kill a healthy grid.
pub fn cached<R: CellPayload>(
    env: &ExpEnv,
    (key, compute): (CellKey, impl FnOnce() -> R),
) -> (R, bool) {
    let Some(store) = &env.store else {
        return (compute(), false);
    };
    if let Some(hit) = store.get::<R>(&key) {
        return (hit, true);
    }
    let result = compute();
    if let Err(e) = store.put(&key, &result) {
        eprintln!(
            "warning: cell store write failed for {}: {e}",
            key.canonical()
        );
    }
    (result, false)
}

/// The store key of an execution-driven **accuracy** cell (`spec ×
/// benchmark` at a uop budget, standard 20 % warm-up); [`accuracy_cell`]
/// files its cells under it.
#[must_use]
pub fn accuracy_cell_key(spec: &HybridSpec, bench: &Benchmark, budget: u64) -> CellKey {
    CellKey::new(
        "accuracy",
        &format!("{:?} × {}", spec, bench.name),
        bench.seed,
        budget,
    )
}

/// The store key of an execution-driven **cycle** cell; [`cycle_cell`]
/// files its cells under it.
#[must_use]
pub fn cycle_cell_key(spec: &HybridSpec, bench: &Benchmark, budget: u64) -> CellKey {
    CellKey::new(
        "cycle",
        &format!("{:?} × {}", spec, bench.name),
        bench.seed,
        budget,
    )
}

/// The store key of a conventional-predictor **trace replay** cell. The
/// cell string carries the `.bt` content checksum (the manifest's
/// `bt_fnv1a` for an on-disk corpus; `fnv1a` of the in-memory bytes for
/// `tracecmp`'s recorded corpus — identical values for the same
/// seed/budget), so a corrupted or re-recorded trace can never resolve
/// to a stale result.
fn replay_cell_key(predictor: &str, trace: &str, bt_fnv1a: u64, seed: u64, budget: u64) -> CellKey {
    CellKey::new(
        "replay",
        &format!("{predictor} × {trace} bt={bt_fnv1a:#018x}"),
        seed,
        budget,
    )
}

/// The store key of a conventional-predictor **trace-fed cycle** cell
/// (the tournament's uPC column); checksummed like [`replay_cell_key`].
fn trace_cycle_cell_key(
    predictor: &str,
    trace: &str,
    bt_fnv1a: u64,
    seed: u64,
    budget: u64,
) -> CellKey {
    CellKey::new(
        "cycle-trace",
        &format!("{predictor} × {trace} bt={bt_fnv1a:#018x}"),
        seed,
        budget,
    )
}

/// The store key of an accuracy cell under any warm-up: at the standard
/// 20 % warm-up this **is** [`accuracy_cell_key`], so `tune` shares cells
/// with the figure grids; other warm-ups get their own keyspace.
fn tune_cell_key(spec: &HybridSpec, bench: &Benchmark, budget: u64, warmup_uops: u64) -> CellKey {
    if warmup_uops == budget / 5 {
        return accuracy_cell_key(spec, bench, budget);
    }
    CellKey::new(
        "accuracy",
        &format!("{:?} × {} warmup={warmup_uops}", spec, bench.name),
        bench.seed,
        budget,
    )
}

/// One execution-driven **accuracy** cell: `spec` on `bench`'s program
/// for `budget` committed uops, seeded by the benchmark, after the
/// standard 20 % warm-up — or `warmup_uops` of them when given (`tune`'s
/// scenarios).
///
/// `program` yields the benchmark's program (or one proven identical to
/// it, such as a snapshot's) and is called only when the cell computes.
pub fn accuracy_cell<P: Borrow<Program>>(
    spec: &HybridSpec,
    bench: &Benchmark,
    budget: u64,
    warmup_uops: Option<u64>,
    program: impl FnOnce() -> P,
) -> (CellKey, impl FnOnce() -> AccuracyResult) {
    let mut config = SimConfig::with_budget(budget, bench.seed);
    if let Some(warmup_uops) = warmup_uops {
        config.warmup_uops = warmup_uops;
    }
    let key = tune_cell_key(spec, bench, budget, config.warmup_uops);
    let spec = *spec;
    (key, move || {
        let mut hybrid = spec.build();
        run_accuracy(program().borrow(), &mut hybrid, &config)
    })
}

/// One execution-driven **cycle** cell: `spec` on `bench`'s program on
/// the Table 2 machine with the suite's data profile ([`cycle_cfg`]), for
/// `budget` committed uops. `program` is called only when the cell
/// computes.
pub fn cycle_cell<P: Borrow<Program>>(
    spec: &HybridSpec,
    bench: &Benchmark,
    budget: u64,
    program: impl FnOnce() -> P,
) -> (CellKey, impl FnOnce() -> CycleResult) {
    let key = cycle_cell_key(spec, bench, budget);
    let config = table2_cfg(bench, budget);
    let spec = *spec;
    (key, move || {
        let mut hybrid = spec.build();
        run_cycles(program().borrow(), &mut hybrid, &config)
    })
}

/// One conventional-predictor **trace replay** cell: `predictor` over
/// the `.bt` trace named `trace`, recorded at `seed` for `budget` uops
/// with content checksum `bt_fnv1a`, after the standard 20 % warm-up.
/// `bt` yields the trace's bytes and is called only when the cell
/// computes; the computation panics if they do not decode, so callers
/// verify traces first.
pub fn replay_cell<'a, B: AsRef<[u8]>>(
    predictor: &'a AnyProphet,
    trace: &str,
    bt_fnv1a: u64,
    seed: u64,
    budget: u64,
    bt: impl FnOnce() -> B + 'a,
) -> (CellKey, impl FnOnce() -> ReplayResult + 'a) {
    let key = replay_cell_key(&size_label(predictor), trace, bt_fnv1a, seed, budget);
    (key, move || {
        replay_bytes(
            bt().as_ref(),
            &mut predictor.clone(),
            &ReplayConfig::with_budget(budget),
        )
        .expect("trace passed the integrity check")
    })
}

/// One conventional-predictor **trace-fed cycle** cell: `predictor` fed
/// from `bench`'s `.bt` trace (checksum `bt_fnv1a`, recorded at the
/// benchmark's seed for `budget` uops) on the same machine as
/// [`cycle_cell`]. `bt` is called only when the cell computes; the
/// computation panics if the bytes do not decode.
pub fn trace_cycle_cell<'a, B: AsRef<[u8]>>(
    predictor: &'a AnyProphet,
    bench: &Benchmark,
    bt_fnv1a: u64,
    budget: u64,
    bt: impl FnOnce() -> B + 'a,
) -> (CellKey, impl FnOnce() -> CycleResult + 'a) {
    let key = trace_cycle_cell_key(
        &size_label(predictor),
        &bench.name,
        bt_fnv1a,
        bench.seed,
        budget,
    );
    let config = table2_cfg(bench, budget);
    (key, move || {
        let bytes = bt();
        let mut reader = BtReader::new(bytes.as_ref()).expect("trace passed the integrity check");
        run_cycles_trace(&mut reader, &mut predictor.clone(), &config)
    })
}

/// Panics naming the first failed cell of an all-or-nothing grid.
pub(crate) fn abort_on_failures(what: &str, failures: &[CellFailure]) {
    if let Some(first) = failures.first() {
        panic!(
            "{} of the {what} grid's cells failed; first failure: {first}",
            failures.len()
        );
    }
}

/// Simulates every `spec × program` cell of the grid in parallel and
/// returns the results as `[spec index][program index]`, in input order.
///
/// This is the engine behind the accuracy figures: a whole experiment's
/// spec list goes in at once so the fan-out covers the full grid rather
/// than one row at a time. Cells resolve through the environment's cell
/// store when one is configured.
///
/// # Panics
///
/// If any cell panics, once the other cells have finished, with a message
/// naming the first failed cell (spec × benchmark).
#[must_use]
pub fn run_matrix(
    specs: &[HybridSpec],
    programs: &[(Benchmark, Program)],
    env: &ExpEnv,
) -> Vec<Vec<AccuracyResult>> {
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..programs.len()).map(move |p| (s, p)))
        .collect();
    let label = |_: usize, &(s, p): &(usize, usize)| {
        format!("{} × {}", specs[s].label(), programs[p].0.name)
    };
    let (flat, failures) = try_par_map(&cells, env.threads, label, |i, &(s, p)| {
        let (bench, program) = &programs[p];
        env.fault.panic_if_scheduled(&label(i, &(s, p)));
        cached(
            env,
            accuracy_cell(&specs[s], bench, env.uop_budget(), None, || program),
        )
        .0
    });
    abort_on_failures("accuracy", &failures);
    into_rows(flat, specs.len(), programs.len())
}

/// Splits a flat, failure-free grid into `rows` rows of `cols` results.
fn into_rows<R>(flat: Vec<Option<R>>, rows: usize, cols: usize) -> Vec<Vec<R>> {
    let mut it = flat.into_iter().map(Option::unwrap);
    (0..rows)
        .map(|_| it.by_ref().take(cols).collect())
        .collect()
}

/// Runs every spec over the program set in parallel and pools each spec's
/// results (the paper's per-configuration aggregate), in input order.
#[must_use]
pub fn run_grid(
    specs: &[HybridSpec],
    programs: &[(Benchmark, Program)],
    env: &ExpEnv,
) -> Vec<AccuracyResult> {
    run_matrix(specs, programs, env)
        .iter()
        .zip(specs)
        .map(|(runs, spec)| AccuracyResult::pooled(&spec.label(), runs))
        .collect()
}

/// The strictly sequential reference implementation of one [`run_grid`]
/// row: a plain loop, no worker threads, no shared state, no store. The
/// determinism tests assert the parallel engine matches it bit-for-bit.
#[must_use]
pub fn pooled_accuracy_seq(
    spec: &HybridSpec,
    programs: &[(Benchmark, Program)],
    env: &ExpEnv,
) -> AccuracyResult {
    let runs: Vec<AccuracyResult> = programs
        .iter()
        .map(|(b, p)| {
            let mut hybrid = spec.build();
            run_accuracy(p, &mut hybrid, &env.sim_config(b.seed))
        })
        .collect();
    AccuracyResult::pooled(&spec.label(), &runs)
}

/// One representative benchmark per suite for cycle-model experiments
/// (cycle runs are slower than accuracy runs).
#[must_use]
pub fn representatives() -> Vec<Benchmark> {
    ["gcc", "swim", "specjbb", "premiere", "msvc7", "tpcc", "cad"]
        .iter()
        .map(|n| workloads::benchmark(n).expect("representative exists"))
        .collect()
}

/// The Table 2 machine for one benchmark at a uop budget: the
/// benchmark's seed and its suite's data character.
fn table2_cfg(bench: &Benchmark, budget: u64) -> CycleConfig {
    CycleConfig::isca04()
        .budget(budget)
        .seed(bench.seed)
        .data(crate::experiments::upc::suite_data_profile(bench.suite))
}

/// The cycle-model configuration for one benchmark under this
/// environment (suite-specific data character, shared uop budget) — the
/// one [`cycle_cell`] and [`trace_cycle_cell`] run at this budget.
#[must_use]
pub fn cycle_cfg(env: &ExpEnv, bench: &Benchmark) -> CycleConfig {
    table2_cfg(bench, env.uop_budget())
}

/// Runs every `spec × bench` cycle-model cell on the parallel engine and
/// returns the results as `[spec index][bench index]`, in input order.
/// Programs are synthesized once per benchmark and shared across spec
/// cells; cells resolve through the environment's cell store. (The `upc`
/// and `headline` experiments share this grid; the determinism tests pin
/// it parallel == sequential.)
///
/// # Panics
///
/// If any cell panics, once the other cells have finished, with a message
/// naming the first failed cell.
#[must_use]
pub fn cycle_grid(
    env: &ExpEnv,
    specs: &[HybridSpec],
    benches: &[Benchmark],
) -> Vec<Vec<CycleResult>> {
    let programs: Vec<_> = par_map(benches, env.threads, |_, b| b.program());
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..benches.len()).map(move |b| (s, b)))
        .collect();
    let label = |_: usize, &(s, b): &(usize, usize)| {
        format!("cycle {} × {}", specs[s].label(), benches[b].name)
    };
    let (flat, failures) = try_par_map(&cells, env.threads, label, |i, &(s, b)| {
        env.fault.panic_if_scheduled(&label(i, &(s, b)));
        let cell = cycle_cell(&specs[s], &benches[b], env.uop_budget(), || &programs[b]);
        cached(env, cell).0
    });
    abort_on_failures("cycle", &failures);
    into_rows(flat, specs.len(), benches.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_critic::{Budget, CriticKind, ProphetKind};
    use std::panic::AssertUnwindSafe;

    #[test]
    fn tiny_env_budget_is_bounded() {
        let env = ExpEnv::tiny();
        assert!(env.uop_budget() >= 20_000);
        assert!(env.uop_budget() <= BASE_UOPS);
    }

    #[test]
    fn corpus_expansion_derives_distinct_deterministic_variants() {
        let base = select_benchmarks(BenchSet::Fast);
        let expanded = expand_benchmarks(base.clone(), 20);
        assert_eq!(expanded.len(), 20);
        // The base set rides along unchanged, in order.
        for (e, b) in expanded.iter().zip(&base) {
            assert_eq!(e.name, b.name);
            assert_eq!(e.seed, b.seed);
        }
        // Variants carry round-stamped names and fresh seeds.
        let v = &expanded[base.len()];
        assert_eq!(v.name, format!("{}-v001", base[0].name));
        assert_ne!(v.seed, base[0].seed);
        // Idempotent: a target at or below the base size is a no-op.
        assert_eq!(expand_benchmarks(base.clone(), 3).len(), base.len());
        // The environment knob routes through programs().
        let env = ExpEnv {
            corpus_traces: Some(16),
            ..ExpEnv::tiny()
        };
        let programs = env.programs();
        assert_eq!(programs.len(), 16);
        assert!(programs.iter().any(|(b, _)| b.name.ends_with("-v001")));
    }

    #[test]
    fn fast_set_covers_every_suite() {
        let env = ExpEnv::tiny();
        let programs = env.programs();
        assert_eq!(programs.len(), 14);
        for suite in Suite::ALL {
            assert!(
                programs.iter().any(|(b, _)| b.suite == suite),
                "{suite} missing"
            );
        }
    }

    #[test]
    fn named_programs_resolve() {
        let env = ExpEnv::tiny();
        let ps = env.named_programs(&["gcc", "tpcc"]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].0.name, "gcc");
    }

    #[test]
    fn pooled_accuracy_runs_end_to_end() {
        let env = ExpEnv::tiny();
        let programs = env.named_programs(&["gzip"]);
        let spec = HybridSpec::alone(ProphetKind::Gshare, Budget::K8);
        let [r] = run_grid(&[spec], &programs, &env)
            .try_into()
            .expect("one pooled result per spec");
        assert!(r.committed_uops > 0);
        assert!(r.misp_per_kuops() > 0.0);
    }

    #[test]
    fn grids_abort_naming_the_failed_cell() {
        let env = ExpEnv {
            scale: 0.02,
            ..ExpEnv::tiny()
        }
        .with_fault(FaultPlan::from_spec("panic=\u{d7} art").unwrap());
        let programs = env.named_programs(&["gzip", "art"]);
        let benches: Vec<Benchmark> = programs.iter().map(|(b, _)| b.clone()).collect();
        let specs = [HybridSpec::alone(ProphetKind::Gshare, Budget::K4)];
        let label = format!("{} \u{d7} art", specs[0].label());
        let aborts = [
            (
                std::panic::catch_unwind(AssertUnwindSafe(|| run_matrix(&specs, &programs, &env)))
                    .err(),
                format!("of the accuracy grid's cells failed; first failure: cell #1 '{label}'"),
            ),
            (
                std::panic::catch_unwind(AssertUnwindSafe(|| cycle_grid(&env, &specs, &benches)))
                    .err(),
                format!("of the cycle grid's cells failed; first failure: cell #1 'cycle {label}'"),
            ),
        ];
        for (payload, want) in aborts {
            let payload = payload.expect("a failed cell aborts the grid");
            let message = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains(&want), "{message}");
        }
    }

    #[test]
    fn grid_rows_line_up_with_specs() {
        let env = ExpEnv {
            scale: 0.02,
            ..ExpEnv::tiny()
        };
        let programs = env.named_programs(&["gzip", "art"]);
        let specs = [
            HybridSpec::alone(ProphetKind::Gshare, Budget::K4),
            HybridSpec::paired(
                ProphetKind::Gshare,
                Budget::K4,
                CriticKind::TaggedGshare,
                Budget::K4,
                4,
            ),
        ];
        let pooled = run_grid(&specs, &programs, &env);
        assert_eq!(pooled.len(), 2);
        assert_eq!(pooled[0].benchmark, specs[0].label());
        assert_eq!(pooled[1].benchmark, specs[1].label());
        let matrix = run_matrix(&specs, &programs, &env);
        assert_eq!(matrix.len(), 2);
        assert_eq!(matrix[0].len(), 2);
        // Pooling the matrix row reproduces the grid row.
        let repooled = AccuracyResult::pooled(&specs[0].label(), &matrix[0]);
        assert_eq!(repooled, pooled[0]);
    }
}
