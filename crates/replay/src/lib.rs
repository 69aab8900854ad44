//! Trace corpus + streaming replay: the trace-driven evaluation subsystem.
//!
//! The paper evaluated on recorded Intel LIT traces; this crate provides
//! the open equivalent on top of the `bptrace` formats — a durable
//! on-disk corpus and a CBP-style replay path beside the execution-driven
//! simulator:
//!
//! * [`record_corpus`]/[`record_benchmark`]/[`record_trace`] — the
//!   **corpus builder**: records every benchmark's correct path to a
//!   deterministic `.bt` trace plus a `.pcl` program snapshot, streaming
//!   and checksumming as it writes.
//! * [`Manifest`]/[`TraceEntry`] — the hand-parsed `corpus.manifest`
//!   index: name, seed, uop budget, per-file checksums and the
//!   [`bptrace::TraceStats`] summary.
//! * [`replay_bytes`]/[`replay_entry`] — the **streaming replay
//!   engine**: feeds `.bt` records of either format version, a block at a
//!   time, to any conventional [`predictors::DirectionPredictor`] without
//!   materializing the trace, with warm-up handling mirroring the
//!   execution-driven simulator.
//! * [`replay_records_scalar`]/[`direct_replay`] — the scalar oracles: one
//!   `predict`/`update` per branch over decoded records
//!   ([`decode_records`]) or straight off the walker, with no trace in
//!   between. The streaming engine is pinned bit-for-bit against both.
//! * [`verify_corpus`]/[`cross_check_snapshot`] — integrity checking:
//!   checksums, record counts, and the snapshot-vs-trace cross-check.
//!
//! # Why every entry carries *both* a trace and a snapshot
//!
//! A correct-path trace cannot evaluate a prophet/critic hybrid: the
//! critic's future bits must come from real wrong-path fetch, and
//! deriving them from a correct-path trace hands the critic oracle
//! information (paper §6). The corpus therefore records the program
//! snapshot next to the trace — **conventional predictors replay the
//! trace; hybrids are re-executed from the snapshot** (by the `sim`
//! crate), and [`cross_check_snapshot`] proves the two paths observe the
//! identical correct-path branch stream.
//!
//! # Example
//!
//! ```
//! use predictors::configs::{self, Budget};
//! use replay::{replay_bytes, record_trace, ReplayConfig};
//!
//! let bench = workloads::benchmark("gzip").unwrap();
//! let program = bench.program();
//! let mut bt = Vec::new();
//! record_trace(&program, bench.seed, 30_000, &mut bt)?;
//!
//! let mut predictor = configs::gshare(Budget::K16);
//! let result = replay_bytes(&bt, &mut predictor, &ReplayConfig::with_budget(30_000))?;
//! assert!(result.measured_conditionals > 0);
//! # Ok::<(), replay::ReplayError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
mod corpus;
mod engine;
mod error;
pub mod fault;
mod manifest;

pub use corpus::{
    cross_check_snapshot, load_snapshot, migrate_entry, open_trace, record_benchmark,
    record_benchmark_with, record_corpus, record_trace, record_trace_v1, replay_entry,
    verify_corpus, verify_corpus_report, verify_entry, QuarantineEntry, VerifyReport,
};
pub use engine::{
    decode_records, direct_replay, replay_bytes, replay_records_scalar, BranchReplay, ReplayConfig,
    ReplayResult,
};
pub use error::{ReplayError, Result};
pub use fault::FaultPlan;
pub use manifest::{
    Manifest, TraceEntry, MANIFEST_FILE, MANIFEST_HEADER, MANIFEST_SHARDED_HEADER, SHARD_TRACES,
};
