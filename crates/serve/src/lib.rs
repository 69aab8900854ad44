//! Prediction-as-a-service: a long-running, dependency-free HTTP server
//! over the experiment engine.
//!
//! The server (the `serve` binary) loads an optional trace-corpus
//! manifest at startup and answers prediction requests by scheduling
//! simulation cells over `sim`'s deterministic parallel runner. Every
//! answerable unit of work is keyed by the same content-hash
//! [`sim::store::CellKey`]s the CLI grids use, so the on-disk cell
//! store **is** the serving result cache:
//!
//! * a repeated identical request never recomputes — the second answer
//!   comes from the store, byte-identical to the first;
//! * a store warmed by an `experiments --store DIR …` run is served
//!   without recomputation, and cells computed while serving speed up
//!   later CLI runs — one cache, two front ends.
//!
//! Endpoints (`docs/SERVING.md` has the full schemas): `POST
//! /v1/predict` (hybrid accuracy/cycle cells), `POST /v1/replay`
//! (conventional predictor over a corpus trace), `POST
//! /v1/tracecmp-cell` (one tournament cell), `POST /v1/experiment` (a
//! registry experiment), `GET /v1/corpus`, `GET /metrics`
//! (`serve_metrics_v1` counters: cache hits/misses, in-flight, latency
//! histogram, quarantine and failure tallies), and `GET /` — an inline
//! HTML dashboard polling `/metrics`.
//!
//! Operationally the server is deliberately boring: hand-rolled
//! HTTP/1.1 and JSON over `std::net` (no frameworks — [`http`] here,
//! and [`sim::json`], the workspace's one JSON parser and escape),
//! request-per-connection, a bounded admission gate
//! (`--max-inflight`, shed with `503 + Retry-After`), and a graceful
//! drain on `SIGTERM`/`SIGINT` — in-flight cells finish and persist to
//! the store before exit, so a drained server loses no work.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dashboard;
pub mod http;
pub mod metrics;
pub mod routes;
pub mod server;
pub mod state;

pub use server::{signal, ServeConfig, Server};
// The JSON module lives in `sim`, the workspace's only JSON code. The
// re-export keeps the `serve::json` path that the `perfbench` harness
// imports.
pub use sim::json;
pub use state::ServerState;
