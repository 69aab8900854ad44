//! Shared server state: the experiment environment, the loaded corpus,
//! the program cache, and cell resolution through the cell store.
//!
//! The store **is** the serving result cache. [`ServerState::resolve`]
//! looks every answerable unit up by its [`CellKey`] content hash before
//! computing, and persists fresh results — so identical requests never
//! recompute, and a store warmed by an `experiments --store` CLI run
//! answers server requests without simulating (keys and computations
//! both come from the single cell definitions in
//! `sim::experiments::common`).

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use replay::{verify_corpus_report, Manifest, QuarantineEntry};
use sim::experiments::common::cached;
use sim::experiments::ExpEnv;
use sim::store::{CellKey, CellPayload};
use workloads::{Benchmark, Program};

use crate::metrics::Metrics;

/// A corpus directory loaded (and integrity-checked) at startup.
#[derive(Debug)]
pub struct CorpusState {
    /// The corpus directory.
    pub dir: PathBuf,
    /// Its parsed `corpus.manifest`.
    pub manifest: Manifest,
    /// Traces that failed the startup integrity check; serving requests
    /// against them is refused with the recorded reason.
    pub quarantined: Vec<QuarantineEntry>,
}

impl CorpusState {
    /// Loads and verifies a corpus directory. Quarantined traces are
    /// kept (with reasons) rather than dropped, so requests against them
    /// can explain the refusal.
    ///
    /// # Errors
    ///
    /// A human-readable message when the manifest itself cannot be
    /// loaded (a quarantined *trace* is not an error).
    pub fn load(dir: &Path) -> Result<Self, String> {
        let manifest = Manifest::load(dir).map_err(|e| format!("corpus {}: {e}", dir.display()))?;
        let report = verify_corpus_report(dir, &manifest);
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            quarantined: report.quarantine,
        })
    }

    /// The quarantine reason for a trace, if it was quarantined.
    #[must_use]
    pub fn quarantine_reason(&self, trace: &str) -> Option<&str> {
        self.quarantined
            .iter()
            .find(|q| q.trace == trace)
            .map(|q| q.reason.as_str())
    }
}

/// Per-request cell accounting, aggregated into the `X-Cache` header and
/// the request summary.
#[derive(Copy, Clone, Debug, Default)]
pub struct CellCounts {
    /// Cells answered from the store.
    pub hit: u64,
    /// Cells computed fresh.
    pub missed: u64,
}

impl CellCounts {
    /// The accounting of a set of resolved cells, given whether each was
    /// a store hit.
    #[must_use]
    pub(crate) fn of(hits: impl IntoIterator<Item = bool>) -> Self {
        let mut counts = Self::default();
        for hit in hits {
            if hit {
                counts.hit += 1;
            } else {
                counts.missed += 1;
            }
        }
        counts
    }

    /// The `X-Cache` header value for this request: `hit` when every
    /// cell came from the store, `miss` when none did, `partial` for a
    /// mix, `none` when the request touched no cells.
    #[must_use]
    pub fn x_cache(&self) -> &'static str {
        match (self.hit, self.missed) {
            (0, 0) => "none",
            (_, 0) => "hit",
            (0, _) => "miss",
            _ => "partial",
        }
    }

    /// Merges another accounting into this one.
    pub fn add(&mut self, other: CellCounts) {
        self.hit += other.hit;
        self.missed += other.missed;
    }
}

/// Everything a request handler needs, shared across worker threads.
#[derive(Debug)]
pub struct ServerState {
    /// The experiment environment (scale, threads, cell store).
    pub env: ExpEnv,
    /// The corpus, when one was given at startup.
    pub corpus: Option<CorpusState>,
    /// Serving telemetry.
    pub metrics: Metrics,
    /// Synthesized programs, memoized by benchmark name: program
    /// synthesis is deterministic but not free, and every cache-missing
    /// predict cell for the same benchmark reuses the same program.
    programs: Mutex<HashMap<String, Arc<Program>>>,
}

impl ServerState {
    /// Builds the shared state; records the corpus quarantine tally.
    #[must_use]
    pub fn new(env: ExpEnv, corpus: Option<CorpusState>) -> Self {
        let metrics = Metrics::default();
        if let Some(c) = &corpus {
            metrics
                .corpus_quarantined
                .store(c.quarantined.len() as u64, Ordering::Relaxed);
        }
        Self {
            env,
            corpus,
            metrics,
            programs: Mutex::new(HashMap::new()),
        }
    }

    /// The synthesized program for a benchmark, memoized.
    ///
    /// # Panics
    ///
    /// Never in practice: only if the memo lock was poisoned by a panic
    /// inside program synthesis, which would already have failed the
    /// poisoning request.
    #[must_use]
    pub fn program(&self, bench: &Benchmark) -> Arc<Program> {
        if let Some(p) = self.programs.lock().unwrap().get(&bench.name) {
            return Arc::clone(p);
        }
        // Synthesize outside the lock: concurrent first requests for the
        // same benchmark may both synthesize (identical results), but no
        // request ever blocks on another's synthesis.
        let fresh = Arc::new(bench.program());
        let mut memo = self.programs.lock().unwrap();
        Arc::clone(memo.entry(bench.name.clone()).or_insert(fresh))
    }

    /// Resolves one store cell — a key and its computation, from a
    /// `sim::experiments::common` cell definition — through the store
    /// ([`cached`]). Returns the result and whether it was a cache hit,
    /// and feeds the serving cache counters.
    ///
    /// A panicking computation is counted in `cells_failed` and
    /// re-thrown (the connection handler's `catch_unwind` turns it into a
    /// `500`).
    pub fn resolve<R: CellPayload>(&self, cell: (CellKey, impl FnOnce() -> R)) -> (R, bool) {
        let (result, hit) =
            match std::panic::catch_unwind(AssertUnwindSafe(|| cached(&self.env, cell))) {
                Ok(resolved) => resolved,
                Err(panic) => {
                    self.metrics.cells_failed.fetch_add(1, Ordering::Relaxed);
                    std::panic::resume_unwind(panic);
                }
            };
        let counter = if hit {
            &self.metrics.cache_hits
        } else {
            &self.metrics.cache_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        (result, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::experiments::common::accuracy_cell;

    #[test]
    fn x_cache_classifies_all_mixes() {
        let cases = [
            (CellCounts { hit: 0, missed: 0 }, "none"),
            (CellCounts { hit: 3, missed: 0 }, "hit"),
            (CellCounts { hit: 0, missed: 2 }, "miss"),
            (CellCounts { hit: 1, missed: 1 }, "partial"),
        ];
        for (counts, want) in cases {
            assert_eq!(counts.x_cache(), want);
        }
    }

    #[test]
    fn programs_are_memoized() {
        let state = ServerState::new(ExpEnv::tiny(), None);
        let bench = workloads::benchmark("gzip").unwrap();
        let a = state.program(&bench);
        let b = state.program(&bench);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn resolve_counts_hits_and_misses_through_a_store() {
        let dir = std::env::temp_dir().join(format!("serve-state-{}", std::process::id()));
        let store = sim::store::CellStore::open(&dir).unwrap();
        let env = ExpEnv::tiny().with_store(Arc::new(store));
        let state = ServerState::new(env, None);
        let bench = workloads::benchmark("gzip").unwrap();
        let spec = prophet_critic::HybridSpec::tuned_headline();
        let cell = || accuracy_cell(&spec, &bench, 20_000, None, || state.program(&bench));
        let (first, hit1) = state.resolve(cell());
        let (second, hit2) = state.resolve(cell());
        assert!(!hit1 && hit2);
        assert_eq!(first, second);
        assert_eq!(state.metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_misses.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
