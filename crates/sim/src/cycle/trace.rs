//! The trace-driven feed: a recorded `.bt` correct-path stream replayed
//! through a conventional predictor over the pipeline engine.
//!
//! This gives the CBP-style replay path a uPC column. It is strictly for
//! **conventional** predictors — a prophet/critic hybrid must never be
//! evaluated from a correct-path trace (its future bits would be oracle
//! information, paper §6); hybrids re-execute from `.pcl` snapshots
//! through [`super::ExecModel`] instead.
//!
//! The feed predicts and trains on **every** conditional record,
//! in-order and non-speculatively — exactly the
//! [`replay::replay_bytes`] discipline — so the tournament's uPC and
//! misp/Kuops columns describe the same prediction stream (pinned by
//! `crates/sim/tests/pipeline.rs`). The BTB affects *timing only*: a
//! taken branch it has not yet learned charges the decode-depth
//! redirect.
//!
//! A trace has no wrong path to walk, so a mispredict costs the full
//! flush-and-restart *time* (and the correct-path refetch of its
//! squashed tail) but fetches no wrong-path uops — trace-driven
//! `fetched_uops` is structurally lower than the execution-driven
//! model's, which really walks wrong paths.

use std::collections::VecDeque;
use std::io::Read;

use bptrace::BtReader;
use frontend::Btb;
use predictors::{DirectionPredictor, HistoryBits, Pc};

use super::model::{Critique, FetchChunk, PipelineModel, Resolution};
use super::{run_pipeline, CycleConfig, CycleResult};

#[derive(Copy, Clone, Debug)]
struct TraceInflight {
    pc: u64,
    target: u64,
    uops: u64,
    predicted: bool,
    taken: bool,
}

/// The trace-replay [`PipelineModel`] for conventional predictors.
pub struct TraceModel<'r, 'p, R: Read, P> {
    reader: &'r mut BtReader<R>,
    predictor: &'p mut P,
    hist: HistoryBits,
    btb: Btb,
    inflight: VecDeque<TraceInflight>,
    /// Flushed-but-correct-path records awaiting refetch: a mispredict
    /// squashes the in-flight tail, and the machine refetches exactly
    /// these records after the restart. Each record was predicted and
    /// trained once, at first fetch — the refetch re-serves it for
    /// timing only, so accuracy stays record-for-record equal to the
    /// streaming replay engine.
    refetch: VecDeque<TraceInflight>,
}

impl<'r, 'p, R: Read, P: DirectionPredictor> TraceModel<'r, 'p, R, P> {
    /// Creates the feed over an open trace reader.
    #[must_use]
    pub fn new(reader: &'r mut BtReader<R>, predictor: &'p mut P, config: &CycleConfig) -> Self {
        let m = &config.machine;
        let hist = HistoryBits::new(predictor.history_len().min(predictors::MAX_HISTORY_BITS));
        Self {
            reader,
            predictor,
            hist,
            btb: Btb::new(m.btb_entries, m.btb_ways),
            inflight: VecDeque::with_capacity(2 * m.ftq_entries + 1),
            refetch: VecDeque::with_capacity(2 * m.ftq_entries + 1),
        }
    }
}

impl<R: Read, P: DirectionPredictor> PipelineModel for TraceModel<'_, '_, R, P> {
    fn fetch_next(&mut self) -> Option<FetchChunk> {
        // Post-flush refetch of squashed correct-path records first.
        if let Some(r) = self.refetch.pop_front() {
            self.inflight.push_back(r);
            return Some(FetchChunk {
                pc: r.pc,
                uops: r.uops,
                critiqued_at_fetch: true,
                // The BTB learned the branch on the first fetch.
                btb_redirect: false,
            });
        }
        // Fold unconditional records' uops into the next conditional
        // chunk (our recorder emits conditionals only; be robust anyway).
        let mut carried: u64 = 0;
        loop {
            let rec = self
                .reader
                .next_record()
                .expect("trace stream is well-formed (run `traces verify` first)")?;
            let uops = carried + u64::from(rec.uops_since_prev);
            if !rec.kind.is_conditional() {
                carried = uops;
                continue;
            }
            let pc = Pc::new(rec.pc);
            // Timing-only BTB: an unidentified taken branch redirects at
            // decode depth; allocate at discovery, as the execution-driven
            // model does.
            let identified = self.btb.lookup(pc).is_some();
            let btb_redirect = !identified && rec.taken;
            if !identified {
                self.btb.allocate(pc, rec.target, true);
            }
            // Predict and train on every conditional, in order — the
            // exact `replay_bytes` discipline, so accuracy stays
            // record-for-record equal to the streaming replay engine.
            let predicted = self.predictor.predict(pc, self.hist).taken();
            self.predictor.update(pc, self.hist, rec.taken);
            self.hist.push(rec.taken);
            self.inflight.push_back(TraceInflight {
                pc: rec.pc,
                target: rec.target,
                uops,
                predicted,
                taken: rec.taken,
            });
            return Some(FetchChunk {
                pc: rec.pc,
                uops,
                critiqued_at_fetch: true,
                btb_redirect,
            });
        }
    }

    fn critique_next(&mut self) -> Option<Critique> {
        // Conventional predictors have no critic: every prediction is
        // final at fetch.
        None
    }

    fn force_critique(&mut self) -> Option<Critique> {
        None
    }

    fn resolve_head(&mut self) -> Resolution {
        let head = self
            .inflight
            .pop_front()
            .expect("resolve with a branch in flight");
        self.btb.allocate(Pc::new(head.pc), head.target, true);
        let mispredict = head.predicted != head.taken;
        if mispredict {
            // The squashed tail is correct-path work: queue it (oldest
            // first) for refetch after the restart.
            while let Some(young) = self.inflight.pop_back() {
                self.refetch.push_front(young);
            }
        }
        Resolution { mispredict }
    }
}

/// Replays a `.bt` stream through `predictor` on the cycle-level
/// pipeline engine, returning the measured-region uPC result.
///
/// # Panics
///
/// Panics on a malformed trace stream; verify corpora before timing
/// them.
#[must_use]
pub fn run_cycles_trace<R: Read, P: DirectionPredictor>(
    reader: &mut BtReader<R>,
    predictor: &mut P,
    config: &CycleConfig,
) -> CycleResult {
    let name = reader.name().to_string();
    let mut model = TraceModel::new(reader, predictor, config);
    run_pipeline(&mut model, &name, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictors::configs::{self, Budget};

    fn recorded(name: &str, max_uops: u64) -> Vec<u8> {
        let bench = workloads::benchmark(name).unwrap();
        let mut buf = Vec::new();
        replay::record_trace(&bench.program(), bench.seed, max_uops, &mut buf).unwrap();
        buf
    }

    #[test]
    fn trace_upc_is_in_band_and_deterministic() {
        let bytes = recorded("gzip", 80_000);
        let run = || {
            let mut reader = BtReader::new(bytes.as_slice()).unwrap();
            let mut p = configs::gshare(Budget::K16);
            run_cycles_trace(
                &mut reader,
                &mut p,
                &CycleConfig::isca04().budget(80_000).seed(3),
            )
        };
        let r = run();
        assert_eq!(r.benchmark, "gzip");
        assert!(r.committed_uops > 0);
        let upc = r.upc();
        assert!(upc > 0.2 && upc < 6.0, "uPC {upc} out of band");
        assert_eq!(r.critiques, 0, "conventional feed issues no critiques");
        assert_eq!(run(), r);
    }

    #[test]
    fn stronger_predictor_wins_on_the_same_trace() {
        let bytes = recorded("unzip", 200_000);
        let cfg = CycleConfig::isca04().budget(200_000).seed(9);
        let mut reader = BtReader::new(bytes.as_slice()).unwrap();
        let mut weak = predictors::Bimodal::new(256);
        let weak_r = run_cycles_trace(&mut reader, &mut weak, &cfg);
        let mut reader = BtReader::new(bytes.as_slice()).unwrap();
        let mut strong = configs::bc_gskew(Budget::K16);
        let strong_r = run_cycles_trace(&mut reader, &mut strong, &cfg);
        assert!(
            strong_r.final_mispredicts < weak_r.final_mispredicts,
            "2Bc-gskew should beat a tiny bimodal on unzip"
        );
        assert!(
            strong_r.upc() > weak_r.upc(),
            "fewer flushes must yield higher trace-driven uPC: {} vs {}",
            strong_r.upc(),
            weak_r.upc()
        );
    }
}
