//! The execution-driven feed: walker + hybrid + BTB, the workspace's
//! one model of fetching down the predicted path.
//!
//! This is the §6-faithful path: fetch follows the *prophecy*, wrong or
//! not, so the critic's future bits really come from wrong-path fetch;
//! override and mispredict recovery rewind the walker through its
//! checkpoint journal. Two drivers decide when the head may resolve:
//! [`run_pipeline`](super::run_pipeline) once the fetch clock passes its
//! resolve time, and the untimed [`run_accuracy`](crate::run_accuracy)
//! as soon as it has been critiqued.
//!
//! BTB misses are modelled as the paper describes: the branch is not
//! predicted, and fetch falls through. Every committed branch (re)allocates
//! its entry; a missed one is also allocated as soon as the miss is
//! discovered at decode. §5 allows other allocation policies, and
//! commit-time allocation alone interacts pathologically with the short
//! loop-repeat counts of the synthetic workloads (every iteration of a
//! first visit would miss). The discovered outcome repairs the
//! predictor's history registers so its windows stay aligned with the
//! outcome stream. The fall-through fetch between a missed taken branch
//! and its resolution is not walked: it costs fetch *time*, which the
//! pipeline charges as a decode redirect, but produces no future bits,
//! since the prophet never saw the branch.

use std::collections::VecDeque;

use frontend::Btb;
use predictors::{DirectionPredictor, Pc};
use prophet_critic::{BranchId, Critic, ProphetCritic, ResolveEvent};
use workloads::{Checkpoint, Program, Walker};

use super::model::{Critique, FetchChunk, PipelineModel, Resolution};
use super::CycleConfig;

#[derive(Copy, Clone, Debug)]
struct ExecInflight {
    id: Option<BranchId>, // None: BTB miss, unpredicted
    pc: u64,
    outcome: bool,
    taken_target: u64,
    checkpoint: Checkpoint,
}

/// The execution-driven [`PipelineModel`]: drives a prophet/critic
/// hybrid down the predicted path of a synthetic program.
pub struct ExecModel<'p, 'h, P, C> {
    walker: Walker<'p>,
    hybrid: &'h mut ProphetCritic<P, C>,
    btb: Btb,
    inflight: VecDeque<ExecInflight>,
    /// Index just past the newest critiqued branch in `inflight`.
    /// Critiques render oldest-first, so the next one lands at or after
    /// it; only BTB misses, which the hybrid never predicted, lie between.
    critiqued: usize,
}

impl<'p, 'h, P, C> ExecModel<'p, 'h, P, C>
where
    P: DirectionPredictor,
    C: Critic,
{
    /// Creates the feed for one program/hybrid pair.
    #[must_use]
    pub fn new(
        program: &'p Program,
        hybrid: &'h mut ProphetCritic<P, C>,
        config: &CycleConfig,
    ) -> Self {
        let m = &config.machine;
        Self {
            walker: Walker::with_seed(program, config.seed),
            hybrid,
            btb: Btb::new(m.btb_entries, m.btb_ways),
            inflight: VecDeque::with_capacity(2 * m.ftq_entries + 1),
            critiqued: 0,
        }
    }

    /// The index of the branch the hybrid just critiqued, which becomes
    /// the newest critiqued one.
    fn index_of(&mut self, id: BranchId) -> usize {
        let idx = self.critiqued
            + self
                .inflight
                .range(self.critiqued..)
                .position(|r| r.id == Some(id))
                .expect("critiqued branch is in flight");
        // Oracle: the scan the cursor replaces.
        debug_assert_eq!(
            Some(idx),
            self.inflight.iter().position(|r| r.id == Some(id)),
            "critiques render oldest-first"
        );
        self.critiqued = idx + 1;
        idx
    }

    fn apply_override(&mut self, idx: usize, final_taken: bool) {
        self.inflight.truncate(idx + 1);
        self.walker.restore(&self.inflight[idx].checkpoint);
        self.walker.follow(final_taken);
    }

    /// Resolves and commits the oldest in-flight branch, which must be
    /// critiqued unless it missed the BTB. Returns the hybrid's
    /// resolution, or `None` for a BTB miss, which the hybrid never
    /// predicted. On a mispredict everything younger is squashed and
    /// fetch restarts down the resolved outcome.
    // Both drivers resolve once per committed branch: inlined into each.
    #[inline(always)]
    pub(crate) fn resolve(&mut self) -> Option<ResolveEvent> {
        let head = *self
            .inflight
            .front()
            .expect("resolve with a branch in flight");
        let event = head.id.map(|_| {
            self.hybrid
                .resolve_oldest(head.outcome)
                .expect("critiqued head resolves")
        });
        if event.is_some_and(|ev| ev.mispredict) {
            self.inflight.clear();
            self.critiqued = 0;
            self.walker.restore(&head.checkpoint);
            self.walker.follow(head.outcome);
        } else {
            self.inflight.pop_front();
            // A BTB-miss head may be older than every critiqued branch.
            self.critiqued = self.critiqued.saturating_sub(1);
        }
        self.btb.allocate(Pc::new(head.pc), head.taken_target, true);
        self.walker.release(&head.checkpoint);
        event
    }

    /// The BTB's miss rate over every fetch so far.
    #[must_use]
    pub(crate) fn btb_miss_rate(&self) -> f64 {
        self.btb.miss_rate()
    }
}

impl<P, C> PipelineModel for ExecModel<'_, '_, P, C>
where
    P: DirectionPredictor,
    C: Critic,
{
    // Both drivers fetch once per branch: inlined into each.
    #[inline(always)]
    fn fetch_next(&mut self) -> Option<FetchChunk> {
        let ev = self.walker.next_branch();
        let cp = self.walker.checkpoint();
        let identified = self.btb.lookup(Pc::new(ev.pc)).is_some();
        if identified {
            let pe = self.hybrid.predict(Pc::new(ev.pc));
            self.inflight.push_back(ExecInflight {
                id: Some(pe.id),
                pc: ev.pc,
                outcome: ev.outcome,
                taken_target: ev.taken_target,
                checkpoint: cp,
            });
            // Fetch proceeds down the prophecy — possibly the wrong path.
            self.walker.follow(pe.taken);
            Some(FetchChunk {
                pc: ev.pc,
                uops: ev.uops,
                critiqued_at_fetch: false,
                btb_redirect: false,
            })
        } else {
            self.inflight.push_back(ExecInflight {
                id: None,
                pc: ev.pc,
                outcome: ev.outcome,
                taken_target: ev.taken_target,
                checkpoint: cp,
            });
            // Decode-time BTB allocation; the discovered outcome repairs
            // the predictor's history windows (see the module header).
            self.btb.allocate(Pc::new(ev.pc), ev.taken_target, true);
            self.hybrid.note_external_outcome(ev.outcome);
            self.walker.follow(ev.outcome);
            Some(FetchChunk {
                pc: ev.pc,
                uops: ev.uops,
                critiqued_at_fetch: true,
                btb_redirect: ev.outcome,
            })
        }
    }

    fn critique_next(&mut self) -> Option<Critique> {
        let cr = self.hybrid.critique_next()?;
        let idx = self.index_of(cr.id);
        if cr.overridden {
            self.apply_override(idx, cr.final_taken);
        }
        Some(Critique {
            index: idx,
            overridden: cr.overridden,
        })
    }

    fn force_critique(&mut self) -> Option<Critique> {
        let cr = self.hybrid.force_critique_next()?;
        let idx = self.index_of(cr.id);
        if cr.overridden {
            self.apply_override(idx, cr.final_taken);
        }
        Some(Critique {
            index: idx,
            overridden: cr.overridden,
        })
    }

    fn resolve_head(&mut self) -> Resolution {
        Resolution {
            mispredict: self.resolve().is_some_and(|ev| ev.mispredict),
        }
    }
}
