//! The [`PipelineModel`] trait and the thin driver loop that feeds any
//! model through the stage-accurate pipeline engine.
//!
//! The driver owns orchestration only: it moves fetched chunks into the
//! engine, drains ready critiques, forces the oldest critique when the
//! speculation buffer fills, and retires branches in order. All *timing*
//! lives in [`frontend::pipeline::FrontendPipeline`]; all *semantics*
//! (paths, predictions, outcomes) live in the model.

use frontend::pipeline::FrontendPipeline;
use uarch::{DataStream, Hierarchy};

use super::{CycleConfig, CycleResult};

/// One fetched chunk, ending at a branch.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FetchChunk {
    /// The branch instruction's address (the chunk spans the uops up to
    /// and including it).
    pub pc: u64,
    /// Uops in the chunk.
    pub uops: u64,
    /// Whether the chunk needs no later critique (a BTB miss the hybrid
    /// never predicted, or a conventional/zero-future-bit prediction
    /// critiqued in the same cycle).
    pub critiqued_at_fetch: bool,
    /// Whether fetch discovered a taken branch it had not identified
    /// (BTB miss) and must redirect at decode depth.
    pub btb_redirect: bool,
}

/// One critique rendered by the model.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Critique {
    /// Index of the critiqued branch among the in-flight slots
    /// (0 = oldest). The model has already flushed everything younger on
    /// an override.
    pub index: usize,
    /// Whether the critique disagreed with the prophet (FTQ-tail flush +
    /// fetch redirect).
    pub overridden: bool,
}

/// The resolution of the oldest in-flight branch.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Resolution {
    /// Whether the final prediction was wrong (full pipeline flush). The
    /// model has already repaired its own state and redirected its fetch
    /// path.
    pub mispredict: bool,
}

/// A semantic feed for the pipeline engine: something that fetches
/// chunks, renders critiques and resolves branches, while the engine
/// keeps the clocks.
///
/// The model and the engine hold mirrored in-flight queues — one entry
/// per [`FetchChunk`] — and must mutate them in lockstep: a critique's
/// `index` addresses both, an override truncates both to `index + 1`, a
/// mispredict clears both.
pub trait PipelineModel {
    /// Advances fetch past the next branch (down the *predicted* path
    /// where the model has one). `None` when the stream is exhausted
    /// (trace feeds; execution feeds never end).
    fn fetch_next(&mut self) -> Option<FetchChunk>;

    /// Renders the oldest ready critique, if any, applying any override
    /// redirect to the model's own fetch state.
    fn critique_next(&mut self) -> Option<Critique>;

    /// Forces the oldest uncritiqued branch's critique with the future
    /// bits available (§5).
    fn force_critique(&mut self) -> Option<Critique>;

    /// Resolves and commits the oldest in-flight branch, repairing the
    /// model's state on a mispredict.
    fn resolve_head(&mut self) -> Resolution;
}

/// Speculation bound: how many in-flight branches the driver tolerates
/// before forcing the oldest critique, as a multiple of the FTQ size:
/// 64 on Table 2's 32-entry FTQ. The untimed accuracy driver caps at 48
/// instead (the FTQ plus pipeline slack), so the two force critiques at
/// different depths.
const INFLIGHT_FTQ_MULTIPLE: usize = 2;

/// Drives `model` through the stage-accurate pipeline engine until the
/// committed-uop budget is spent (or the model's stream ends), returning
/// the measured-region result.
#[must_use]
pub fn run_pipeline<M: PipelineModel>(
    model: &mut M,
    name: &str,
    config: &CycleConfig,
) -> CycleResult {
    let m = &config.machine;
    let mut engine = FrontendPipeline::new(config.pipeline_params());
    let mut data = Hierarchy::new(m);
    let mut stream = DataStream::new(config.data, config.seed);
    let cap = INFLIGHT_FTQ_MULTIPLE * m.ftq_entries;
    let mut committed: u64 = 0;
    let mut result = CycleResult {
        benchmark: name.to_string(),
        ..CycleResult::default()
    };
    let mut mark_cycles = 0.0f64;
    let mut marked = false;
    // A flush drains the instruction window, so the first chunk fetched
    // after the restart finds no other misses to overlap with: its data
    // stalls are charged un-overlapped (MLP = 1).
    let mut window_drained = true;
    // Each level's stall beyond an L1 hit, shared over the MLP, indexed
    // by `AccessLevel as usize` (L1, L2, memory): for a drained window
    // (MLP 1) and for an overlapped one.
    let stall_shares = |mlp: u64| {
        [m.l1d.hit_cycles, m.l2.hit_cycles, m.memory_cycles()]
            .map(|lat| lat.saturating_sub(m.l1d.hit_cycles) as f64 / mlp as f64)
    };
    let (drained_shares, overlapped_shares) = (stall_shares(1), stall_shares(config.mlp));

    'run: while committed < config.max_uops {
        let measuring = committed >= config.warmup_uops;
        if measuring && !marked {
            marked = true;
            mark_cycles = engine.commit_clock();
        }

        // ---- Fetch the next chunk (front-end time). A dry stream with
        // branches still in flight falls through to drain them — a flush
        // there refills the model's refetch queue, so the stream is
        // re-probed every iteration until both run out.
        let mut stream_dry = false;
        match model.fetch_next() {
            Some(chunk) => {
                // Data-side stalls attributable to this chunk, overlapped
                // by MLP (none available right after a flush drained the
                // window).
                let shares = if window_drained {
                    &drained_shares
                } else {
                    &overlapped_shares
                };
                window_drained = false;
                let mut stall = 0.0;
                stream.for_each_access(chunk.pc, chunk.uops, |addr| {
                    stall += shares[data.access(addr).1 as usize];
                });
                let _ = engine.fetch(chunk.pc, chunk.uops, stall, chunk.critiqued_at_fetch);
                if chunk.btb_redirect {
                    engine.btb_redirect();
                }
                if measuring {
                    result.fetched_uops += chunk.uops;
                }
            }
            None if engine.is_empty() => break 'run,
            None => stream_dry = true,
        }

        // ---- Critique stage: drain ready critiques (1 per cycle).
        while let Some(cr) = model.critique_next() {
            let issue = engine.critique(cr.index, false);
            result.critiques += 1;
            result.forced_critiques += u64::from(issue.late);
            if cr.overridden {
                engine.override_redirect(cr.index);
                if measuring {
                    result.overrides += 1;
                }
            }
        }

        // ---- Resolve & commit in order. A branch resolves only when its
        // execution completes (fetch + pipe depth + data stalls), so fetch
        // keeps running — down the wrong path after an uncaught mispredict
        // — until the head's resolve time passes or the speculation buffer
        // fills (the instruction-window bound). Once the stream is dry
        // there is nothing left to fetch: heads retire unconditionally.
        while let Some(head_critiqued) = engine.head_critiqued() {
            if !head_critiqued {
                // Finite buffering: when fetch runs a full window ahead of
                // the oldest uncritiqued prediction, its critique is forced
                // with the future bits available (§5).
                if engine.len() >= cap || stream_dry {
                    if let Some(cr) = model.force_critique() {
                        let _ = engine.critique(cr.index, true);
                        result.critiques += 1;
                        result.forced_critiques += 1;
                        if cr.overridden {
                            engine.override_redirect(cr.index);
                            if measuring {
                                result.overrides += 1;
                            }
                        }
                        continue;
                    }
                }
                break;
            }
            let resolve_time = engine.head_resolve_time().expect("head exists");
            if !stream_dry && engine.fetch_clock() < resolve_time && engine.len() < cap {
                // The branch is still executing: keep fetching (possibly
                // down its wrong path) until it resolves.
                break;
            }
            let res = model.resolve_head();
            let info = engine.commit();
            committed += info.uops;
            if measuring {
                result.committed_uops += info.uops;
            }
            if res.mispredict {
                if measuring {
                    result.final_mispredicts += 1;
                }
                engine.flush_all(info.resolve_time);
                window_drained = true;
                if stream_dry {
                    // The flush may have refilled the model's refetch
                    // queue: go back to the fetch stage for it.
                    break;
                }
            }
        }
    }

    result.cycles = (engine.commit_clock() - mark_cycles).max(1.0);
    result.data_counts = data.counts();
    result.bubbles = *engine.bubbles();
    result
}
