//! The execution-driven accuracy simulator.
//!
//! This is the reproduction of the paper's methodology requirement (§6):
//! “prophet/critic hybrids must be evaluated on simulators that model going
//! down wrong paths … these future bits must be generated by actually going
//! down the wrong path. Generating these bits while traversing a
//! (correct-path only) instruction trace provides the critic with oracle
//! information.”
//!
//! The model is [`ExecModel`], the same walker, BTB and hybrid the cycle
//! feed drives: fetch follows the *prophecy*, wrong or not, so the
//! prophet's predictions after a mispredict (the future bits entering
//! the BOR) are true wrong-path bits, and an override rewinds fetch to
//! the disputed branch and redirects it down the critic's direction.
//! This module is an untimed driver over it, mirroring each in-flight
//! branch's `(uops, critiqued)` as the pipeline engine does for
//! [`run_pipeline`](crate::cycle::run_pipeline). After each fetch it
//! drains every ready critique, then resolves and commits from the head
//! in order.
//!
//! The two drivers differ only in when the head may resolve. This one
//! resolves it as soon as it has been critiqued. That is *not* what the
//! real machine does, and the counts differ. `run_pipeline` resolves the
//! head only once the fetch clock passes its resolve time, so its wrong
//! paths run until the branch executes rather than only as far as the
//! critic's future bits, and every branch trains the tables later. On
//! the same program, seed and budget the two engines' mispredict counts
//! differ by 4–12 % even with no critic (`tests/engine_gap.rs`, ignored
//! until one engine remains). This engine is the cheap estimate; uPC
//! comes from the cycle feed.

use std::collections::VecDeque;

use predictors::DirectionPredictor;
use prophet_critic::{Critic, ProphetCritic, ResolveEvent};
use workloads::Program;

use crate::cycle::{Critique, CycleConfig, ExecModel, PipelineModel};
use crate::metrics::AccuracyResult;

/// Budget and measurement window of one simulation run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SimConfig {
    /// Stop after this many committed micro-ops.
    pub max_uops: u64,
    /// Committed micro-ops to run before statistics collection starts
    /// (predictor and BTB warm-up).
    pub warmup_uops: u64,
    /// Seed for the program's per-branch RNG streams.
    pub seed: u64,
}

impl SimConfig {
    /// A configuration scaled by the `SCALE` convention: `max_uops`
    /// committed uops with 20 % warm-up.
    #[must_use]
    pub fn with_budget(max_uops: u64, seed: u64) -> Self {
        Self {
            max_uops,
            warmup_uops: max_uops / 5,
            seed,
        }
    }
}

impl Default for SimConfig {
    /// 400 K committed uops, 80 K warm-up — the workspace's standard
    /// experiment scale (multiply via the `SCALE` environment variable in
    /// the experiment harness).
    fn default() -> Self {
        Self::with_budget(1_200_000, 0x15CA_2004)
    }
}

/// Maximum predicted-but-uncommitted branches the front end may buffer:
/// the 32-entry FTQ plus pipeline slack (`run_pipeline` allows 64). When
/// the bound is hit, the oldest branch is critiqued with the future bits
/// available (§5: “we obtained the best results by generating a critique
/// using the future bits that were available”), exactly as the real
/// machine forces a critique when the consumer overtakes the critic.
/// Without this bound, a cold-BTB region (where unidentified branches
/// produce no prophet predictions) would let fetch run arbitrarily far
/// ahead of commit.
const INFLIGHT_CAP: usize = 48;

/// Runs one program under one hybrid configuration.
///
/// The hybrid is taken by value and returned inside the result's scope —
/// callers normally build a fresh hybrid per run, matching the paper's
/// per-LIT simulations.
pub fn run_accuracy<P, C>(
    program: &Program,
    hybrid: &mut ProphetCritic<P, C>,
    config: &SimConfig,
) -> AccuracyResult
where
    P: DirectionPredictor,
    C: Critic,
{
    // The no-op observer inlines away: this path stays the hot path.
    run_accuracy_observed(program, hybrid, config, |_| {})
}

/// Marks a critiqued slot of the mirrored in-flight queue and, on an
/// override, drops the squashed tail (the model has already redirected).
fn mark(inflight: &mut VecDeque<(u64, bool)>, cr: Critique) {
    inflight[cr.index].1 = true;
    if cr.overridden {
        inflight.truncate(cr.index + 1);
    }
}

/// Resolves and commits from the head, in order, each branch as soon as
/// it is critiqued; `commit` sees each one's uops and the hybrid's
/// resolution (`None` for a BTB miss). With `cap` or more branches in
/// flight, an uncritiqued head has its critique forced with the future
/// bits gathered so far; a `cap` of 0 drains the queue.
fn resolve_critiqued<P, C>(
    model: &mut ExecModel<'_, '_, P, C>,
    inflight: &mut VecDeque<(u64, bool)>,
    cap: usize,
    mut commit: impl FnMut(u64, Option<&ResolveEvent>),
) where
    P: DirectionPredictor,
    C: Critic,
{
    while let Some(&(uops, critiqued)) = inflight.front() {
        if !critiqued {
            if inflight.len() < cap {
                break;
            }
            mark(inflight, model.force_critique().expect("uncritiqued head"));
            continue;
        }
        let event = model.resolve();
        commit(uops, event.as_ref());
        if event.is_some_and(|ev| ev.mispredict) {
            inflight.clear();
        } else {
            inflight.pop_front();
        }
    }
}

/// [`run_accuracy`] with a per-commit observer: `observe` sees the
/// hybrid's resolution of every predicted branch committed inside the
/// measured region, in commit order.
///
/// This is how the tuner reconstructs per-static-branch mispredict
/// profiles from the execution-driven path (the hybrid cannot be replayed
/// over a correct-path trace — §6), so its H2P slices line up with the
/// replay-side [`replay::BranchReplay`] profiles by PC.
pub fn run_accuracy_observed<P, C, F>(
    program: &Program,
    hybrid: &mut ProphetCritic<P, C>,
    config: &SimConfig,
    mut observe: F,
) -> AccuracyResult
where
    P: DirectionPredictor,
    C: Critic,
    F: FnMut(&ResolveEvent),
{
    // Table 2's BTB: 4096 entries, 4-way.
    let mut model = ExecModel::new(program, hybrid, &CycleConfig::isca04().seed(config.seed));
    // `(uops, critiqued)` per in-flight branch, oldest first. The resolve
    // loop keeps occupancy at or below INFLIGHT_CAP; sizing the buffer
    // once up front keeps the per-branch loop allocation-free.
    let mut inflight: VecDeque<(u64, bool)> = VecDeque::with_capacity(INFLIGHT_CAP + 1);
    let mut result = AccuracyResult::new(program.name());
    let mut committed_uops: u64 = 0;

    while committed_uops < config.max_uops {
        // ---- Fetch: advance to the next branch along the current path.
        let measuring = committed_uops >= config.warmup_uops;
        let chunk = model.fetch_next().expect("execution feeds never end");
        inflight.push_back((chunk.uops, chunk.critiqued_at_fetch));
        if measuring {
            result.fetched_uops += chunk.uops;
            result.btb_redirects += u64::from(chunk.btb_redirect);
        }

        // ---- Critique: drain every critique that is ready.
        while let Some(cr) = model.critique_next() {
            if cr.overridden && measuring {
                result.critic_overrides += 1;
                result.ftq_entries_flushed += (inflight.len() - cr.index - 1) as u64;
            }
            mark(&mut inflight, cr);
        }

        // ---- Resolve & commit from the head, in order.
        resolve_critiqued(&mut model, &mut inflight, INFLIGHT_CAP, |uops, event| {
            committed_uops += uops;
            if measuring {
                result.committed_uops += uops;
                result.committed_branches += 1;
                // A BTB-miss head has no event. Its taken case is a
                // front-end redirect, counted at fetch, not a predictor
                // mispredict: the BTB is identical across configurations.
                if let Some(ev) = event {
                    result.critiques.record(ev.kind);
                    result.final_mispredicts += u64::from(ev.mispredict);
                    result.prophet_mispredicts += u64::from(ev.prophet_mispredict);
                    observe(ev);
                }
            }
        });
    }

    // ---- Drain: force-critique and resolve what is still in flight so the
    // run ends at a clean commit boundary.
    resolve_critiqued(&mut model, &mut inflight, 0, |_, _| {});

    result.btb_miss_rate = model.btb_miss_rate();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictors::configs::{self, Budget};
    use prophet_critic::{HybridSpec, NullCritic, ProphetKind, TaggedGshareCritic};

    fn tiny_config() -> SimConfig {
        SimConfig {
            max_uops: 60_000,
            warmup_uops: 10_000,
            seed: 7,
        }
    }

    #[test]
    fn prophet_alone_produces_sane_stats() {
        let program = workloads::benchmark("gzip").unwrap().program();
        let mut h = ProphetCritic::new(configs::gshare(Budget::K16), NullCritic::new(), 0);
        let r = run_accuracy(&program, &mut h, &tiny_config());
        assert!(r.committed_uops >= 45_000, "committed {}", r.committed_uops);
        assert!(r.committed_branches > 1_000);
        assert!(
            r.final_mispredicts > 0,
            "synthetic code is not perfectly predictable"
        );
        assert_eq!(
            r.final_mispredicts, r.prophet_mispredicts,
            "no critic: final == prophet mispredicts"
        );
        let mr = r.misp_per_kuops();
        assert!(mr > 0.1 && mr < 200.0, "misp/Kuops {mr}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let program = workloads::benchmark("mcf").unwrap().program();
        let run = || {
            let mut h = ProphetCritic::new(configs::gshare(Budget::K8), NullCritic::new(), 0);
            run_accuracy(&program, &mut h, &tiny_config())
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_mispredicts, b.final_mispredicts);
        assert_eq!(a.committed_uops, b.committed_uops);
        assert_eq!(a.fetched_uops, b.fetched_uops);
    }

    #[test]
    fn critic_reduces_mispredicts_on_correlated_code() {
        let program = workloads::benchmark("gcc").unwrap().program();
        let cfg = SimConfig {
            max_uops: 150_000,
            warmup_uops: 30_000,
            seed: 3,
        };

        let mut alone = ProphetCritic::new(configs::gshare(Budget::K8), NullCritic::new(), 0);
        let base = run_accuracy(&program, &mut alone, &cfg);

        let mut paired = ProphetCritic::new(
            configs::gshare(Budget::K8),
            TaggedGshareCritic::new(configs::tagged_gshare(Budget::K8)),
            8,
        );
        let hybrid = run_accuracy(&program, &mut paired, &cfg);

        assert!(
            hybrid.final_mispredicts < base.final_mispredicts,
            "critic should help: {} vs {}",
            hybrid.final_mispredicts,
            base.final_mispredicts
        );
        assert!(hybrid.critic_overrides > 0);
    }

    #[test]
    fn wrong_path_recovery_preserves_commit_stream() {
        // The committed uop counts must match between a perfect-history run
        // (prophet alone) and a hybrid run on the same program+seed: both
        // commit the same architectural path.
        let program = workloads::benchmark("vpr").unwrap().program();
        let cfg = tiny_config();
        let mut a = ProphetCritic::new(configs::gshare(Budget::K2), NullCritic::new(), 0);
        let ra = run_accuracy(&program, &mut a, &cfg);
        let mut b = HybridSpec::paired(
            ProphetKind::Perceptron,
            Budget::K8,
            prophet_critic::CriticKind::TaggedGshare,
            Budget::K8,
            8,
        )
        .build();
        let rb = run_accuracy(&program, &mut b, &cfg);
        // Same committed architectural path => same branch count per uop.
        assert_eq!(ra.committed_branches, rb.committed_branches);
        assert_eq!(ra.committed_uops, rb.committed_uops);
    }

    #[test]
    fn fetched_uops_exceed_committed_when_mispredicting() {
        // With future bits the prophet keeps fetching past a mispredict
        // until the critique arrives, so wrong-path uops are really walked.
        // (With 0 future bits the accuracy model resolves instantly and
        // walks no wrong path — the cycle model charges that time instead.)
        let program = workloads::benchmark("tpcc").unwrap().program();
        let mut h = ProphetCritic::new(
            configs::gshare(Budget::K2),
            TaggedGshareCritic::new(configs::tagged_gshare(Budget::K2)),
            8,
        );
        let r = run_accuracy(&program, &mut h, &tiny_config());
        assert!(
            r.fetched_uops > r.committed_uops,
            "wrong-path fetch must show up: fetched {} vs committed {}",
            r.fetched_uops,
            r.committed_uops
        );
    }

    #[test]
    fn critique_distribution_covers_committed_branches() {
        let program = workloads::benchmark("crafty").unwrap().program();
        let mut h = HybridSpec::paired(
            ProphetKind::Gshare,
            Budget::K4,
            prophet_critic::CriticKind::TaggedGshare,
            Budget::K4,
            4,
        )
        .build();
        let r = run_accuracy(&program, &mut h, &tiny_config());
        // Unidentified (BTB-miss) commits are not critiqued; they are a
        // small minority after warmup.
        assert!(r.critiques.total() <= r.committed_branches);
        assert!(r.critiques.total() * 10 >= r.committed_branches * 9);
        assert_eq!(r.critiques.final_mispredicts(), r.final_mispredicts);
    }
}
