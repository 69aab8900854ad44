//! The execution-driven accuracy simulator.
//!
//! This is the reproduction of the paper's methodology requirement (§6):
//! “prophet/critic hybrids must be evaluated on simulators that model going
//! down wrong paths … these future bits must be generated by actually going
//! down the wrong path. Generating these bits while traversing a
//! (correct-path only) instruction trace provides the critic with oracle
//! information.”
//!
//! The simulator therefore drives fetch down the *predicted* path of a
//! synthetic program:
//!
//! 1. The walker advances to the next branch; the BTB identifies it.
//! 2. Identified conditionals are predicted by the hybrid; **fetch follows
//!    the prophecy**, wrong or not, so the prophet's subsequent predictions
//!    (the future bits entering the BOR) are true wrong-path bits after a
//!    mispredict.
//! 3. Critiques drain in order; a disagreement rewinds fetch to the
//!    disputed branch and redirects it down the critic's direction.
//! 4. Branches resolve and commit in order. The accuracy model resolves a
//!    branch as soon as it has been critiqued. That is *not* what the real
//!    machine does, and the counts differ. The cycle feed
//!    ([`crate::cycle`]) resolves the head only once the fetch clock
//!    passes its resolve time, so its wrong paths run until the branch
//!    executes rather than only as far as the critic's future bits, and
//!    every branch trains the tables later. On the same program, seed and
//!    budget the two engines' mispredict counts differ by 4–12 % even
//!    with no critic (`tests/engine_gap.rs`, ignored until one engine
//!    remains). This engine is the cheap estimate; uPC comes from the
//!    cycle feed.
//!
//! BTB misses are modelled as the paper describes — the branch is not
//! predicted, and an entry is allocated at commit — with one documented
//! simplification: the fall-through fetch between a missed taken branch and
//! its resolution is not walked (it costs fetch *time*, charged by the
//! cycle model, but produces no future bits, since the prophet never saw
//! the branch).

use std::collections::VecDeque;

use frontend::Btb;
use predictors::{DirectionPredictor, Pc};
use prophet_critic::{BranchId, Critic, CritiqueStats, ProphetCritic};
use workloads::{Checkpoint, Program, Walker};

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
/// the 32-entry FTQ plus pipeline slack. When the bound is hit, the oldest
/// branch is critiqued with the future bits available (§5: “we obtained the
/// best results by generating a critique using the future bits that were
/// available”), exactly as the real machine forces a critique when the
/// consumer overtakes the critic. Without this bound, a cold-BTB region
/// (where unidentified branches produce no prophet predictions) would let
/// fetch run arbitrarily far ahead of commit.
const INFLIGHT_CAP: usize = 48;

#[derive(Copy, Clone, Debug)]
enum InflightKind {
    /// Identified by the BTB and predicted by the hybrid.
    Predicted { id: BranchId, critiqued: bool },
    /// Missed the BTB: no prediction, resolves by itself.
    Unidentified,
}

#[derive(Copy, Clone, Debug)]
struct SimInflight {
    kind: InflightKind,
    pc: u64,
    outcome: bool,
    taken_target: u64,
    uops: u64,
    checkpoint: Checkpoint,
}

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
    run_accuracy_observed(program, hybrid, config, |_, _, _| {})
}

/// [`run_accuracy`] with a per-commit observer: `observe(pc, taken,
/// mispredict)` fires for every predicted branch committed inside the
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
    F: FnMut(u64, bool, bool),
{
    let mut walker = Walker::with_seed(program, config.seed);
    let mut btb = Btb::isca04();
    // The resolve loop keeps occupancy at or below INFLIGHT_CAP; sizing
    // the buffer once up front keeps the per-branch loop allocation-free.
    let mut inflight: VecDeque<SimInflight> = VecDeque::with_capacity(INFLIGHT_CAP + 1);

    let mut result = AccuracyResult::new(program.name());
    let mut committed_uops: u64 = 0;
    let mut measured = CritiqueStats::new();

    // Measured-region counters.
    let mut m_uops: u64 = 0;
    let mut m_branches: u64 = 0;
    let mut m_final_misp: u64 = 0;
    let mut m_prophet_misp: u64 = 0;
    let mut m_fetched_uops: u64 = 0;
    let mut m_btb_redirects: u64 = 0;
    let mut m_overrides: u64 = 0;
    let mut m_ftq_flushed: u64 = 0;

    while committed_uops < config.max_uops {
        // ---- Fetch: advance to the next branch along the current path.
        let ev = walker.next_branch();
        let cp = walker.checkpoint();
        let measuring = committed_uops >= config.warmup_uops;
        if measuring {
            m_fetched_uops += ev.uops;
        }

        let identified = btb.lookup(Pc::new(ev.pc)).is_some();
        if identified {
            let pe = hybrid.predict(Pc::new(ev.pc));
            inflight.push_back(SimInflight {
                kind: InflightKind::Predicted {
                    id: pe.id,
                    critiqued: false,
                },
                pc: ev.pc,
                outcome: ev.outcome,
                taken_target: ev.taken_target,
                uops: ev.uops,
                checkpoint: cp,
            });
            // Fetch proceeds down the prophecy — possibly the wrong path.
            walker.follow(pe.taken);
        } else {
            inflight.push_back(SimInflight {
                kind: InflightKind::Unidentified,
                pc: ev.pc,
                outcome: ev.outcome,
                taken_target: ev.taken_target,
                uops: ev.uops,
                checkpoint: cp,
            });
            // Unidentified: the front end falls through; the taken case is
            // a front-end redirect at resolve, modelled instantaneously for
            // accuracy purposes. The discovered outcome repairs the
            // predictor's history registers so its windows stay aligned
            // with the outcome stream. The BTB entry is allocated at
            // discovery (decode) rather than commit — §5 allows alternative
            // allocation policies, and commit-time allocation interacts
            // pathologically with the short loop-repeat counts of synthetic
            // workloads (every iteration of a first visit would miss).
            if ev.outcome && measuring {
                m_btb_redirects += 1;
            }
            btb.allocate(Pc::new(ev.pc), ev.taken_target, true);
            hybrid.note_external_outcome(ev.outcome);
            walker.follow(ev.outcome);
        }

        // ---- Critique: drain every critique that is ready.
        while let Some(cr) = hybrid.critique_next() {
            let idx = inflight
                .iter()
                .position(|r| matches!(r.kind, InflightKind::Predicted { id, .. } if id == cr.id))
                .expect("critiqued branch is in flight");
            if let InflightKind::Predicted { critiqued, .. } = &mut inflight[idx].kind {
                *critiqued = true;
            }
            if cr.overridden {
                if measuring {
                    m_overrides += 1;
                    m_ftq_flushed += (inflight.len() - idx - 1) as u64;
                }
                // Squash the uncriticized tail and redirect fetch down the
                // critic's direction at the disputed branch.
                inflight.truncate(idx + 1);
                walker.restore(&inflight[idx].checkpoint);
                walker.follow(cr.final_taken);
            }
        }

        // ---- Resolve & commit from the head, in order.
        while let Some(head) = inflight.front().copied() {
            match head.kind {
                InflightKind::Predicted {
                    critiqued: false, ..
                } if inflight.len() >= INFLIGHT_CAP => {
                    // The buffer is full: force the head's critique with the
                    // future bits gathered so far.
                    let cr = hybrid.force_critique_next().expect("uncritiqued head");
                    let idx = inflight
                        .iter()
                        .position(
                            |r| matches!(r.kind, InflightKind::Predicted { id, .. } if id == cr.id),
                        )
                        .expect("forced critique target in flight");
                    if let InflightKind::Predicted { critiqued, .. } = &mut inflight[idx].kind {
                        *critiqued = true;
                    }
                    if cr.overridden {
                        inflight.truncate(idx + 1);
                        walker.restore(&inflight[idx].checkpoint);
                        walker.follow(cr.final_taken);
                    }
                }
                InflightKind::Unidentified => {
                    // Commits by itself; allocate its BTB entry at commit.
                    btb.allocate(Pc::new(head.pc), head.taken_target, true);
                    walker.release(&head.checkpoint);
                    inflight.pop_front();
                    committed_uops += head.uops;
                    if measuring {
                        m_uops += head.uops;
                        m_branches += 1;
                        // An unidentified taken branch is a (front-end)
                        // mispredict of the implicit not-taken; it is
                        // reported separately from predictor mispredicts,
                        // as the BTB is identical across configurations.
                    }
                }
                InflightKind::Predicted {
                    critiqued: false, ..
                } => break,
                InflightKind::Predicted {
                    id,
                    critiqued: true,
                } => {
                    let res = hybrid
                        .resolve_oldest(head.outcome)
                        .expect("head is critiqued and in flight");
                    debug_assert_eq!(res.id, id);
                    btb.allocate(Pc::new(head.pc), head.taken_target, true);
                    inflight.pop_front();
                    committed_uops += head.uops;
                    if measuring {
                        m_uops += head.uops;
                        m_branches += 1;
                        measured.record(res.kind);
                        m_final_misp += u64::from(res.mispredict);
                        m_prophet_misp += u64::from(res.prophet_mispredict);
                        observe(head.pc, head.outcome, res.mispredict);
                    }
                    if res.mispredict {
                        // Squash everything younger and restart fetch down
                        // the resolved outcome.
                        inflight.clear();
                        walker.restore(&head.checkpoint);
                        walker.follow(head.outcome);
                    }
                    walker.release(&head.checkpoint);
                }
            }
        }
    }

    // ---- Drain: force-critique and resolve what is still in flight so the
    // run ends at a clean commit boundary.
    while !inflight.is_empty() {
        if let Some(head) = inflight.front().copied() {
            match head.kind {
                InflightKind::Unidentified => {
                    btb.allocate(Pc::new(head.pc), head.taken_target, true);
                    inflight.pop_front();
                }
                InflightKind::Predicted { critiqued, .. } => {
                    if !critiqued {
                        let cr = hybrid.force_critique_next().expect("head uncritiqued");
                        let idx = inflight
                            .iter()
                            .position(|r| {
                                matches!(r.kind, InflightKind::Predicted { id, .. } if id == cr.id)
                            })
                            .expect("forced critique target in flight");
                        if let InflightKind::Predicted { critiqued, .. } = &mut inflight[idx].kind {
                            *critiqued = true;
                        }
                        if cr.overridden {
                            inflight.truncate(idx + 1);
                            walker.restore(&inflight[idx].checkpoint);
                            walker.follow(cr.final_taken);
                        }
                        continue;
                    }
                    let res = hybrid.resolve_oldest(head.outcome).expect("critiqued head");
                    inflight.pop_front();
                    if res.mispredict {
                        inflight.clear();
                        walker.restore(&head.checkpoint);
                        walker.follow(head.outcome);
                    }
                    walker.release(&head.checkpoint);
                }
            }
        }
    }

    result.committed_uops = m_uops;
    result.committed_branches = m_branches;
    result.final_mispredicts = m_final_misp;
    result.prophet_mispredicts = m_prophet_misp;
    result.fetched_uops = m_fetched_uops;
    result.btb_redirects = m_btb_redirects;
    result.critic_overrides = m_overrides;
    result.ftq_entries_flushed = m_ftq_flushed;
    result.btb_miss_rate = btb.miss_rate();
    result.critiques = measured;
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
