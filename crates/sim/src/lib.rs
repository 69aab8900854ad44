//! Execution-driven simulation and the parallel experiment engine
//! reproducing every table and figure of the prophet/critic paper
//! (ISCA 2004).
//!
//! # Simulators
//!
//! Both drive one execution-driven model, [`ExecModel`]: the walker,
//! BTB and hybrid with full wrong-path fetch (the paper's §6
//! requirement). They differ only in when the oldest branch resolves.
//!
//! * [`run_accuracy`] — the fast, untimed driver: a branch resolves as
//!   soon as it is critiqued. It produces misp/Kuops, critique
//!   distributions and filter rates.
//! * [`run_cycles`] — the cycle-level driver on the Table 2 machine: a
//!   branch resolves once the fetch clock passes its resolve time. It
//!   produces uPC, flush distances and fetched-uop counts.
//!
//! # The experiment engine
//!
//! The paper's evaluation is a grid: benchmark suites × dozens of
//! prophet/critic configurations (Figure 6 alone sweeps 78 combinations).
//! Two layers make that grid fast here:
//!
//! * **Static dispatch on the hot path.** Experiment specs build
//!   [`prophet_critic::Hybrid`] — the engine monomorphized over the
//!   [`prophet_critic::AnyProphet`]/[`prophet_critic::AnyCritic`] enums —
//!   so the per-branch `predict`/`update`/`critique` calls compile to
//!   direct, inlinable code instead of `Box<dyn ...>` virtual calls.
//! * **Deterministic parallel fan-out.** Every grid cell (one spec on one
//!   benchmark) is an independent seeded simulation, so
//!   [`runner::par_map`] spreads cells over OS threads with an atomic
//!   work-stealing cursor and collects results **by input index**. The
//!   outcome is bit-identical for any thread count, which the determinism
//!   tests pin against the sequential reference
//!   ([`experiments::common::pooled_accuracy_seq`]).
//!
//! The grid entry points are [`experiments::common::run_matrix`] (per-cell
//! results), [`experiments::common::run_grid`] (pooled per spec) and
//! [`experiments::common::cycle_grid`] (cycle-model cells); the figure
//! and table grids route through them, so `THREADS=1` vs `THREADS=32`
//! changes wall-clock only, never numbers.
//!
//! # Running experiments
//!
//! The [`experiments`] module defines one entry point per paper artifact
//! (`fig5` … `fig10`, `table1` … `table4`, `headline`); the `experiments`
//! binary runs them from the command line and reports per-experiment
//! wall-clock plus a machine-readable `BENCH_headline.json`:
//!
//! ```text
//! cargo run -p sim --release --bin experiments -- headline
//! cargo run -p sim --release --bin experiments -- --threads 8 fig6
//! SCALE=4 cargo run -p sim --release --bin experiments -- all
//! ```
//!
//! # Calibration
//!
//! The [`tune`] module is the deterministic configuration search behind
//! `experiments tune`: a staged sweep (coarse grid → local refinement)
//! of hybrid parameters against the 16 KB 2Bc-gskew baseline, scored
//! over warm-up × workload-mix scenarios with corpus-backed H2P slices.
//! Its winner is promoted into `HybridSpec::tuned_headline`, which the
//! `headline` experiment builds by default. See `docs/EXPERIMENTS.md`
//! for the catalog and `BENCH_*.json` schemas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accuracy;
pub mod cycle;
pub mod experiments;
pub mod json;
mod metrics;
pub mod runner;
pub mod store;
pub mod table;
pub mod tune;

pub use accuracy::{run_accuracy, run_accuracy_observed, SimConfig};
pub use cycle::{
    run_cycles, run_cycles_trace, run_pipeline, CycleConfig, CycleResult, ExecModel, PipelineModel,
    TraceModel,
};
pub use metrics::{percent_reduction, AccuracyResult};
pub use runner::{default_threads, par_map, try_par_map, CellFailure};
pub use store::{decode_numeric, CellEntry, CellKey, CellPayload, CellStore, ENGINE_VERSION};
