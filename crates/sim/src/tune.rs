//! Deterministic configuration search over the prophet/critic parameter
//! space (`experiments tune`).
//!
//! ROADMAP's worst open item is the headline gap: the paper's 8 KB + 8 KB
//! hybrid cuts mispredicts by ~39 % against the 16 KB 2Bc-gskew, while
//! the untuned 8+8 default *loses* to it on the pooled fast set. The gap
//! is configuration debt, not a correctness bug — and "Branch Prediction
//! Is Not a Solved Problem" (arXiv:1906.08170) and the Bullseye study
//! (arXiv:2506.06773) both show predictor quality is dominated by a small
//! configuration-sensitive branch population. This module turns that from
//! a mystery into a reproducible calibration pipeline:
//!
//! * [`TuneSpace`] — the search-space description: per-parameter value
//!   lists (prophet/critic kind + budget pairs, future-bit counts), the
//!   scoring scenarios (warm-up fractions × [`MixProfile`] workload
//!   mixes), and a total-storage fairness cap. Named presets
//!   ([`TuneSpace::headline`], [`TuneSpace::quick`], [`TuneSpace::wide`])
//!   keep runs reproducible by name.
//! * [`run_search`] — the staged strategy: a **coarse grid** over the
//!   space (strided future bits), then **local refinement** rounds that
//!   expand the frontier's neighbours one step per dimension. Every
//!   candidate batch fans through [`par_map`] with input-ordered
//!   collection — each scoring cell resolving through the environment's
//!   incremental cell store when one is configured (`--store`/`--resume`),
//!   so a killed search resumes and nightly soaks reuse warm cells —
//!   every simulation is seeded, and the only randomness is
//!   [`workloads::rng`] under a fixed seed (used to cap oversized
//!   neighbour sets) — so the outcome is **bit-identical for any thread
//!   count**, pinned by `crates/sim/tests/tune.rs`.
//! * **Scoring** — each candidate is scored against the paper's 16 KB
//!   2Bc-gskew baseline under every scenario: weighted pooled misp/Kuops
//!   (suite weights from the scenario's mix profile), per-benchmark
//!   deltas, and the mean reduction across scenarios as the ranking key.
//! * [`h2p_slices`] — corpus-backed hard-branch scoring: each benchmark
//!   is recorded to an in-memory `.bt` trace, its
//!   [`bptrace::BranchProfile`] flags the H2P statics, the baseline
//!   replays the trace ([`replay::replay_bytes`]) and the hybrids
//!   re-execute with a per-commit observer
//!   ([`run_accuracy_observed`])
//!   — so the report shows *where* (which hard branches) a winning
//!   configuration earns its reduction.
//!
//! The winning configuration is promoted by hand into
//! [`HybridSpec::tuned_headline`] (the `headline` experiment's default);
//! [`TuneOutcome::winner_matches_promoted`] flags drift between the
//! shipped preset and what the current search actually finds.

use std::collections::{HashMap, HashSet};

use bptrace::{H2P_MAX_BIAS, H2P_MIN_OCCURRENCES};
use predictors::configs::{self, Budget};
use prophet_critic::{CriticKind, HybridSpec, ProphetKind};
use replay::{record_trace, replay_bytes, ReplayConfig};
use workloads::rng::SmallRng;
use workloads::{Benchmark, MixProfile, Program};

use crate::accuracy::{run_accuracy_observed, SimConfig};
use crate::experiments::common::{accuracy_cell, cached, ExpEnv};
use crate::metrics::AccuracyResult;
use crate::runner::par_map;

/// Fixed seed for the search's only random choice (capping oversized
/// refinement neighbour sets). Never derived from wall-clock or OS state.
const SEARCH_SEED: u64 = 0x7E57_15CA_2004_0001;

/// The paper's baseline: a 16 KB 2Bc-gskew prophet alone.
#[must_use]
pub fn baseline_spec() -> HybridSpec {
    HybridSpec::alone(ProphetKind::BcGskew, Budget::K16)
}

/// The pre-tuning 8 KB + 8 KB default (2Bc-gskew + t.gshare, 8 future
/// bits) — the configuration the headline experiment shipped before the
/// tuner existed, kept as the reference the tuned preset must beat.
#[must_use]
pub fn untuned_default() -> HybridSpec {
    HybridSpec::paired(
        ProphetKind::BcGskew,
        Budget::K8,
        CriticKind::TaggedGshare,
        Budget::K8,
        8,
    )
}

/// The carried-over H2P weighted objective: per-benchmark weights derived
/// from `BENCH_h2p.json` deltas (each benchmark's baseline mispredict mass
/// on its flagged hard-to-predict statics), blended into the ranking key.
///
/// With an objective attached, a candidate's ranking key becomes
/// `(1 − weight) · standard + weight · h2p`, where `h2p` is the pooled
/// reduction re-weighted by each benchmark's H2P mispredict share — so the
/// search optimizes the branches that actually cost cycles instead of the
/// uniform pooled rate. Per-scenario payloads (and therefore every stored
/// cell) are unchanged: the objective is applied at scoring time only.
#[derive(Clone, PartialEq, Debug)]
pub struct H2pObjective {
    /// Blend factor in `[0, 1]`: 0 = standard scoring, 1 = pure
    /// H2P-weighted scoring.
    pub weight: f64,
    /// Per-benchmark H2P mispredict mass `(bench name, weight ≥ 0)`;
    /// benchmarks absent from the list score with weight 0.
    pub per_bench: Vec<(String, f64)>,
}

impl H2pObjective {
    /// Builds an objective, clamping `weight` into `[0, 1]` and dropping
    /// negative per-benchmark masses.
    #[must_use]
    pub fn new(weight: f64, per_bench: Vec<(String, f64)>) -> Self {
        Self {
            weight: weight.clamp(0.0, 1.0),
            per_bench: per_bench
                .into_iter()
                .map(|(n, w)| (n, w.max(0.0)))
                .collect(),
        }
    }

    /// The weight assigned to `bench` (0 when the benchmark carries no
    /// H2P mispredict mass in the source report).
    #[must_use]
    pub fn share(&self, bench: &str) -> f64 {
        self.per_bench
            .iter()
            .find(|(n, _)| n == bench)
            .map_or(0.0, |(_, w)| *w)
    }
}

/// A scoring scenario: one warm-up fraction paired with one workload-mix
/// weight profile.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Scenario {
    /// Warm-up fraction of the uop budget, in permille (200 = the
    /// workspace-standard 20 %).
    pub warmup_permille: u32,
    /// The suite-weight profile used to pool per-benchmark results.
    pub mix: MixProfile,
}

/// The search-space description: per-parameter value lists plus scoring
/// scenarios.
///
/// The candidate set is the cartesian product `prophets × critics ×
/// future_bits`, filtered by [`max_total_bytes`](Self::max_total_bytes)
/// (nominal prophet + critic budget) so every candidate stays
/// storage-comparable to the 16 KB baseline. Scenarios (`warmups ×
/// mixes`) are *scoring* dimensions: they change how a candidate is
/// measured, not what hardware it describes, so a candidate's ranking
/// key is its mean reduction across all scenarios.
#[derive(Clone, PartialEq, Debug)]
pub struct TuneSpace {
    /// Preset name (appears in reports; `"custom"` for hand-built spaces).
    pub name: &'static str,
    /// Candidate prophet kind + budget pairs.
    pub prophets: Vec<(ProphetKind, Budget)>,
    /// Candidate critic kind + budget pairs ([`CriticKind::None`] is
    /// allowed and yields prophet-alone candidates).
    pub critics: Vec<(CriticKind, Budget)>,
    /// Candidate future-bit counts.
    pub future_bits: Vec<usize>,
    /// Override-confidence threshold values to sweep (`false` = the
    /// paper's always-override behaviour; `true` = only saturated
    /// counters override). Collapses to `false` for critic kinds with no
    /// confidence signal.
    pub confident: Vec<bool>,
    /// Warm-up fractions (permille of the uop budget) to score under.
    pub warmup_permille: Vec<u32>,
    /// Workload mixes to score under.
    pub mixes: Vec<MixProfile>,
    /// Nominal storage cap (prophet budget + critic budget bytes); `None`
    /// disables the fairness filter.
    pub max_total_bytes: Option<usize>,
    /// Optional H2P weighted objective ([`H2pObjective`]): blends the
    /// per-benchmark `BENCH_h2p.json` mispredict mass into the ranking
    /// key. `None` (every preset's default) keeps standard scoring.
    pub h2p: Option<H2pObjective>,
}

impl TuneSpace {
    /// The default space behind `experiments tune`: every paper-shaped
    /// prophet/critic pairing that fits the 16 KB fairness cap, future
    /// bits 1–12, scored at 20 %/30 % warm-up under the paper and
    /// desktop mixes.
    #[must_use]
    pub fn headline() -> Self {
        Self {
            name: "headline",
            prophets: vec![
                (ProphetKind::BcGskew, Budget::K4),
                (ProphetKind::BcGskew, Budget::K8),
                (ProphetKind::BcGskew, Budget::K16),
                (ProphetKind::Perceptron, Budget::K4),
                (ProphetKind::Perceptron, Budget::K8),
                (ProphetKind::Tage, Budget::K8),
                (ProphetKind::TageH2p, Budget::K8),
            ],
            critics: vec![
                (CriticKind::TaggedGshare, Budget::K2),
                (CriticKind::TaggedGshare, Budget::K4),
                (CriticKind::TaggedGshare, Budget::K8),
                (CriticKind::FilteredPerceptron, Budget::K8),
                (CriticKind::Tage, Budget::K4),
            ],
            future_bits: vec![1, 2, 3, 4, 6, 8, 10, 12],
            confident: vec![false, true],
            warmup_permille: vec![200, 300],
            mixes: vec![MixProfile::paper(), MixProfile::desktop()],
            // 8 KB + 8 KB plus the tagged critic's tag overhead.
            max_total_bytes: Some(18 * 1024),
            h2p: None,
        }
    }

    /// A minimal space for smoke tests and CI: one prophet, one critic,
    /// three future-bit values, one scenario.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            name: "quick",
            prophets: vec![(ProphetKind::BcGskew, Budget::K8)],
            critics: vec![(CriticKind::TaggedGshare, Budget::K8)],
            future_bits: vec![1, 4, 8],
            confident: vec![false],
            warmup_permille: vec![200],
            mixes: vec![MixProfile::paper()],
            max_total_bytes: Some(18 * 1024),
            h2p: None,
        }
    }

    /// A broader exploration space: adds gshare and TAGE prophets,
    /// smaller critics, every built-in mix and a 10 % warm-up scenario.
    #[must_use]
    pub fn wide() -> Self {
        Self {
            name: "wide",
            prophets: vec![
                (ProphetKind::Gshare, Budget::K8),
                (ProphetKind::BcGskew, Budget::K4),
                (ProphetKind::BcGskew, Budget::K8),
                (ProphetKind::Perceptron, Budget::K4),
                (ProphetKind::Perceptron, Budget::K8),
                (ProphetKind::Tage, Budget::K4),
                (ProphetKind::Tage, Budget::K8),
                (ProphetKind::TageH2p, Budget::K8),
            ],
            critics: vec![
                (CriticKind::TaggedGshare, Budget::K2),
                (CriticKind::TaggedGshare, Budget::K4),
                (CriticKind::TaggedGshare, Budget::K8),
                (CriticKind::FilteredPerceptron, Budget::K4),
                (CriticKind::FilteredPerceptron, Budget::K8),
                (CriticKind::Tage, Budget::K2),
                (CriticKind::Tage, Budget::K4),
            ],
            future_bits: vec![1, 2, 3, 4, 6, 8, 10, 12],
            confident: vec![false, true],
            warmup_permille: vec![100, 200, 300],
            mixes: MixProfile::presets(),
            max_total_bytes: Some(18 * 1024),
            h2p: None,
        }
    }

    /// Looks a preset up by name (`"headline"`, `"quick"`, `"wide"`).
    #[must_use]
    pub fn by_name(name: &str) -> Option<TuneSpace> {
        match name {
            "headline" => Some(Self::headline()),
            "quick" => Some(Self::quick()),
            "wide" => Some(Self::wide()),
            _ => None,
        }
    }

    /// Nominal storage of a candidate (prophet + critic budget bytes;
    /// a [`CriticKind::None`] critic costs nothing).
    fn nominal_bytes(spec: &HybridSpec) -> usize {
        let critic = if spec.critic == CriticKind::None {
            0
        } else {
            spec.critic_budget.bytes()
        };
        spec.prophet_budget.bytes() + critic
    }

    /// Whether `spec` passes the storage fairness cap.
    fn fits(&self, spec: &HybridSpec) -> bool {
        self.max_total_bytes
            .is_none_or(|cap| Self::nominal_bytes(spec) <= cap)
    }

    /// Every candidate in the space: the full cartesian product, in
    /// deterministic (prophet-major) order, filtered by the storage cap.
    ///
    /// Any empty parameter list yields an empty candidate set — an empty
    /// dimension means "nothing to sweep", not "sweep a default".
    #[must_use]
    pub fn enumerate(&self) -> Vec<HybridSpec> {
        let mut out = Vec::new();
        for &(prophet, pb) in &self.prophets {
            for &(critic, cb) in &self.critics {
                for &fb in &self.future_bits {
                    for &conf in &self.confident {
                        let fb = if critic == CriticKind::None { 0 } else { fb };
                        // Only the tagged gshare and TAGE critics carry a
                        // confidence signal; collapse the axis elsewhere.
                        let conf =
                            conf && matches!(critic, CriticKind::TaggedGshare | CriticKind::Tage);
                        let spec = HybridSpec::paired(prophet, pb, critic, cb, fb)
                            .with_confident_override(conf);
                        if self.fits(&spec) && !out.contains(&spec) {
                            out.push(spec);
                        }
                    }
                }
            }
        }
        out
    }

    /// The coarse stage-1 grid: every prophet × critic pairing, but the
    /// future-bit axis strided (first, every second, and last value), so
    /// refinement has room to move.
    #[must_use]
    pub fn coarse(&self) -> Vec<HybridSpec> {
        let coarse_fb: Vec<usize> = self
            .future_bits
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0 || *i == self.future_bits.len() - 1)
            .map(|(_, fb)| *fb)
            .collect();
        let sub = TuneSpace {
            future_bits: coarse_fb,
            ..self.clone()
        };
        sub.enumerate()
    }

    /// One-step neighbours of `spec` along every parameter axis (adjacent
    /// entries in each value list), filtered by the storage cap.
    #[must_use]
    pub fn neighbors(&self, spec: &HybridSpec) -> Vec<HybridSpec> {
        let mut out = Vec::new();
        let mut push = |s: HybridSpec| {
            if self.fits(&s) && s != *spec && !out.contains(&s) {
                out.push(s);
            }
        };
        if let Some(i) = self
            .prophets
            .iter()
            .position(|&(k, b)| k == spec.prophet && b == spec.prophet_budget)
        {
            for j in [i.wrapping_sub(1), i + 1] {
                if let Some(&(k, b)) = self.prophets.get(j) {
                    let mut s = *spec;
                    s.prophet = k;
                    s.prophet_budget = b;
                    push(s);
                }
            }
        }
        if let Some(i) = self
            .critics
            .iter()
            .position(|&(k, b)| k == spec.critic && b == spec.critic_budget)
        {
            for j in [i.wrapping_sub(1), i + 1] {
                if let Some(&(k, b)) = self.critics.get(j) {
                    let mut s = *spec;
                    s.critic = k;
                    s.critic_budget = b;
                    if k == CriticKind::None {
                        s.future_bits = 0;
                    }
                    // Keep the candidate inside the enumerated space:
                    // the confidence axis collapses for critic kinds
                    // without a confidence signal (as in `enumerate`),
                    // otherwise a critic-axis move could produce a
                    // phantom duplicate of an already-seen spec.
                    s.confident_override = s.confident_override
                        && matches!(k, CriticKind::TaggedGshare | CriticKind::Tage);
                    push(s);
                }
            }
        }
        if let Some(i) = self
            .future_bits
            .iter()
            .position(|&fb| fb == spec.future_bits)
        {
            for j in [i.wrapping_sub(1), i + 1] {
                if let Some(&fb) = self.future_bits.get(j) {
                    let mut s = *spec;
                    s.future_bits = fb;
                    push(s);
                }
            }
        }
        if matches!(spec.critic, CriticKind::TaggedGshare | CriticKind::Tage)
            && self.confident.contains(&!spec.confident_override)
        {
            push(spec.with_confident_override(!spec.confident_override));
        }
        out
    }

    /// The scoring scenarios, warm-up-major: `warmups × mixes`. The first
    /// scenario is the *standard* one the per-benchmark report tables use.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &w in &self.warmup_permille {
            for &mix in &self.mixes {
                out.push(Scenario {
                    warmup_permille: w,
                    mix,
                });
            }
        }
        out
    }
}

/// Search-strategy knobs (all deterministic).
#[derive(Copy, Clone, Debug)]
pub struct TuneOptions {
    /// Frontier size carried into each refinement round.
    pub frontier: usize,
    /// Refinement rounds after the coarse grid.
    pub rounds: usize,
    /// Cap on new candidates per refinement round; oversized neighbour
    /// sets are subsampled with [`workloads::rng`] under the fixed
    /// search seed.
    pub round_cap: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            frontier: 3,
            rounds: 2,
            round_cap: 24,
        }
    }
}

/// How one candidate scored under one scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioScore {
    /// The scenario's warm-up fraction (permille).
    pub warmup_permille: u32,
    /// The scenario's mix-profile name.
    pub mix: &'static str,
    /// Weighted pooled misp/Kuops of the 16 KB 2Bc-gskew baseline.
    pub baseline_misp_per_kuops: f64,
    /// Weighted pooled misp/Kuops of the candidate.
    pub misp_per_kuops: f64,
    /// Percent reduction vs. the baseline (positive = candidate wins).
    pub reduction_percent: f64,
}

/// One evaluated candidate: its spec, per-`(warmup, benchmark)` raw runs
/// and per-scenario scores.
#[derive(Clone, Debug)]
pub struct TuneCell {
    /// The candidate configuration.
    pub spec: HybridSpec,
    /// Which search stage produced it (0 = coarse, 1.. = refinement).
    pub stage: usize,
    /// Raw results: `runs[warmup index][benchmark index]`.
    pub runs: Vec<Vec<AccuracyResult>>,
    /// Per-scenario scores, in [`TuneSpace::scenarios`] order.
    pub scenarios: Vec<ScenarioScore>,
    /// The H2P-weighted pooled reduction (mean over warm-up fractions),
    /// present only when the space carries an [`H2pObjective`].
    pub h2p_reduction_percent: Option<f64>,
    /// Mean reduction across scenarios, blended with the H2P-weighted
    /// reduction when an objective is attached — the ranking key.
    pub mean_reduction_percent: f64,
}

/// The full outcome of a search.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The space searched.
    pub space: TuneSpace,
    /// The scenarios scored under.
    pub scenarios: Vec<Scenario>,
    /// Baseline raw runs: `[warmup index][benchmark index]`.
    pub baseline_runs: Vec<Vec<AccuracyResult>>,
    /// Every evaluated candidate, ranked best (highest mean reduction)
    /// first; ties break on the spec label for stability.
    pub ranked: Vec<TuneCell>,
    /// Candidates evaluated per stage (coarse, then each refinement
    /// round).
    pub stage_sizes: Vec<usize>,
    /// The benchmarks scored (fast set under the usual environment).
    pub benchmarks: Vec<Benchmark>,
}

impl TuneOutcome {
    /// The winning candidate, if the space was non-empty.
    #[must_use]
    pub fn winner(&self) -> Option<&TuneCell> {
        self.ranked.first()
    }

    /// The evaluated cell for `spec`, if the search visited it.
    #[must_use]
    pub fn cell(&self, spec: &HybridSpec) -> Option<&TuneCell> {
        self.ranked.iter().find(|c| c.spec == *spec)
    }

    /// Whether the shipped [`HybridSpec::tuned_headline`] preset is still
    /// what this search promotes — the drift detector for the report.
    #[must_use]
    pub fn winner_matches_promoted(&self) -> bool {
        self.winner()
            .is_some_and(|w| w.spec == HybridSpec::tuned_headline())
    }
}

/// Weighted pooled misp/Kuops over per-benchmark results: suite weights
/// come from `mix`, pooling is `Σ w·misp · 1000 / Σ w·uops` (the
/// workspace's counter pooling, weighted).
#[must_use]
pub fn weighted_misp_per_kuops(
    benches: &[Benchmark],
    runs: &[AccuracyResult],
    mix: &MixProfile,
) -> f64 {
    debug_assert_eq!(benches.len(), runs.len());
    let mut misp = 0.0;
    let mut uops = 0.0;
    for (b, r) in benches.iter().zip(runs) {
        let w = mix.normalized(b.suite);
        misp += w * r.final_mispredicts as f64;
        uops += w * r.committed_uops as f64;
    }
    if uops == 0.0 {
        0.0
    } else {
        misp * 1000.0 / uops
    }
}

/// [`weighted_misp_per_kuops`] with per-benchmark weights taken from an
/// [`H2pObjective`] instead of a suite mix: each benchmark contributes in
/// proportion to its H2P mispredict mass in the source `BENCH_h2p.json`
/// report. Falls back to uniform pooling when no benchmark matches the
/// objective (a degenerate objective must not zero every score).
#[must_use]
pub fn h2p_weighted_misp_per_kuops(
    benches: &[Benchmark],
    runs: &[AccuracyResult],
    objective: &H2pObjective,
) -> f64 {
    debug_assert_eq!(benches.len(), runs.len());
    let mut misp = 0.0;
    let mut uops = 0.0;
    for (b, r) in benches.iter().zip(runs) {
        let w = objective.share(&b.name);
        misp += w * r.final_mispredicts as f64;
        uops += w * r.committed_uops as f64;
    }
    if uops > 0.0 {
        return misp * 1000.0 / uops;
    }
    let (misp, uops) = runs.iter().fold((0u64, 0u64), |(m, u), r| {
        (m + r.final_mispredicts, u + r.committed_uops)
    });
    if uops == 0 {
        0.0
    } else {
        misp as f64 * 1000.0 / uops as f64
    }
}

fn sim_config(env: &ExpEnv, warmup_permille: u32, seed: u64) -> SimConfig {
    let max_uops = env.uop_budget();
    SimConfig {
        max_uops,
        warmup_uops: max_uops * u64::from(warmup_permille) / 1000,
        seed,
    }
}

/// Runs `specs × warmups × benchmarks` through the parallel runner and
/// returns `[spec][warmup][benchmark]` results in input order.
fn evaluate(
    specs: &[HybridSpec],
    programs: &[(Benchmark, Program)],
    warmups: &[u32],
    env: &ExpEnv,
) -> Vec<Vec<Vec<AccuracyResult>>> {
    let cells: Vec<(usize, usize, usize)> = (0..specs.len())
        .flat_map(|s| {
            (0..warmups.len()).flat_map(move |w| (0..programs.len()).map(move |p| (s, w, p)))
        })
        .collect();
    let flat = par_map(&cells, env.threads, |_, &(s, w, p)| {
        let (bench, program) = &programs[p];
        let cfg = sim_config(env, warmups[w], bench.seed);
        let cell = accuracy_cell(
            &specs[s],
            bench,
            cfg.max_uops,
            Some(cfg.warmup_uops),
            || program,
        );
        cached(env, cell).0
    });
    let mut it = flat.into_iter();
    (0..specs.len())
        .map(|_| {
            (0..warmups.len())
                .map(|_| it.by_ref().take(programs.len()).collect())
                .collect()
        })
        .collect()
}

/// Scores one candidate's raw runs against the baseline under every
/// scenario of `space`, producing its [`TuneCell`].
///
/// The per-scenario payloads are objective-independent; when the space
/// carries an [`H2pObjective`] the ranking key blends in the H2P-weighted
/// pooled reduction at scoring time. Public so the weighted objective's
/// ranking behaviour can be pinned against synthetic runs without driving
/// a full search.
#[must_use]
pub fn score(
    spec: HybridSpec,
    stage: usize,
    runs: Vec<Vec<AccuracyResult>>,
    baseline_runs: &[Vec<AccuracyResult>],
    benches: &[Benchmark],
    space: &TuneSpace,
) -> TuneCell {
    let mut scenarios = Vec::new();
    let mut sum = 0.0;
    for (w, &warmup) in space.warmup_permille.iter().enumerate() {
        for mix in &space.mixes {
            let base = weighted_misp_per_kuops(benches, &baseline_runs[w], mix);
            let hyb = weighted_misp_per_kuops(benches, &runs[w], mix);
            let reduction = crate::metrics::percent_reduction(base, hyb);
            sum += reduction;
            scenarios.push(ScenarioScore {
                warmup_permille: warmup,
                mix: mix.name,
                baseline_misp_per_kuops: base,
                misp_per_kuops: hyb,
                reduction_percent: reduction,
            });
        }
    }
    let n = scenarios.len().max(1) as f64;
    let standard = sum / n;
    let objective = space.h2p.as_ref().filter(|o| o.weight > 0.0);
    let h2p_reduction_percent = objective.map(|obj| {
        let mut sum = 0.0;
        for w in 0..space.warmup_permille.len() {
            let base = h2p_weighted_misp_per_kuops(benches, &baseline_runs[w], obj);
            let hyb = h2p_weighted_misp_per_kuops(benches, &runs[w], obj);
            sum += crate::metrics::percent_reduction(base, hyb);
        }
        sum / space.warmup_permille.len().max(1) as f64
    });
    let mean_reduction_percent = match (objective, h2p_reduction_percent) {
        (Some(obj), Some(h2p)) => (1.0 - obj.weight) * standard + obj.weight * h2p,
        _ => standard,
    };
    TuneCell {
        spec,
        stage,
        runs,
        scenarios,
        h2p_reduction_percent,
        mean_reduction_percent,
    }
}

/// Runs the staged search over `space` under `env`.
///
/// Stage 0 evaluates the coarse grid (plus the untuned default, so the
/// report always has its reference row); each refinement round expands
/// the current frontier's one-step neighbours, skipping anything already
/// evaluated, until the round budget or the neighbour supply runs out.
/// Deterministic for any `env.threads`.
#[must_use]
pub fn run_search(space: &TuneSpace, env: &ExpEnv, opts: &TuneOptions) -> TuneOutcome {
    run_search_on(space, env, opts, &env.programs())
}

/// [`run_search`] over an already-synthesized program set, so callers
/// that need the programs again afterwards (the H2P slice pass) don't
/// pay for benchmark synthesis twice.
#[must_use]
pub fn run_search_on(
    space: &TuneSpace,
    env: &ExpEnv,
    opts: &TuneOptions,
    programs: &[(Benchmark, Program)],
) -> TuneOutcome {
    let benches: Vec<Benchmark> = programs.iter().map(|(b, _)| b.clone()).collect();
    let warmups = &space.warmup_permille;

    // A space with no scoring scenarios (or no candidates) has nothing
    // to evaluate; return an empty outcome rather than bookkeeping
    // stages that never ran.
    if warmups.is_empty() || space.mixes.is_empty() || space.enumerate().is_empty() {
        return TuneOutcome {
            space: space.clone(),
            scenarios: space.scenarios(),
            baseline_runs: Vec::new(),
            ranked: Vec::new(),
            stage_sizes: Vec::new(),
            benchmarks: benches,
        };
    }

    // Baseline runs, one row per warm-up fraction.
    let baseline_runs: Vec<Vec<AccuracyResult>> =
        evaluate(&[baseline_spec()], programs, warmups, env)
            .pop()
            .expect("one spec in, one row out");

    let mut evaluated: Vec<TuneCell> = Vec::new();
    let mut seen: HashSet<HybridSpec> = HashSet::new();
    let mut stage_sizes = Vec::new();

    // ---- Stage 0: coarse grid (+ the untuned default reference).
    let mut batch = space.coarse();
    let default = untuned_default();
    if space.fits(&default) && !batch.contains(&default) {
        batch.push(default);
    }
    batch.retain(|s| seen.insert(*s));
    let results = evaluate(&batch, programs, warmups, env);
    for (spec, runs) in batch.iter().zip(results) {
        evaluated.push(score(*spec, 0, runs, &baseline_runs, &benches, space));
    }
    stage_sizes.push(batch.len());

    // ---- Stages 1..: local refinement around the frontier.
    let mut rng = SmallRng::seed_from_u64(SEARCH_SEED);
    for round in 1..=opts.rounds {
        let mut frontier: Vec<HybridSpec> = {
            let mut ranked: Vec<&TuneCell> = evaluated.iter().collect();
            ranked.sort_by(|a, b| rank_order(a, b));
            ranked
                .into_iter()
                .take(opts.frontier)
                .map(|c| c.spec)
                .collect()
        };
        frontier.sort_unstable_by_key(HybridSpec::label);
        let mut batch: Vec<HybridSpec> = Vec::new();
        for spec in &frontier {
            for n in space.neighbors(spec) {
                if !seen.contains(&n) && !batch.contains(&n) {
                    batch.push(n);
                }
            }
        }
        // Deterministically subsample an oversized round: the only
        // randomness in the search, under a fixed seed.
        while batch.len() > opts.round_cap {
            let drop = rng.gen_range(0..batch.len());
            batch.remove(drop);
        }
        if batch.is_empty() {
            break;
        }
        for s in &batch {
            seen.insert(*s);
        }
        let results = evaluate(&batch, programs, warmups, env);
        for (spec, runs) in batch.iter().zip(results) {
            evaluated.push(score(*spec, round, runs, &baseline_runs, &benches, space));
        }
        stage_sizes.push(batch.len());
    }

    let mut ranked = evaluated;
    ranked.sort_by(rank_order);
    TuneOutcome {
        space: space.clone(),
        scenarios: space.scenarios(),
        baseline_runs,
        ranked,
        stage_sizes,
        benchmarks: benches,
    }
}

/// The single ranking order used by both the refinement frontier and the
/// final outcome: descending mean reduction, spec label as the tie-break.
fn rank_order(a: &TuneCell, b: &TuneCell) -> std::cmp::Ordering {
    b.mean_reduction_percent
        .partial_cmp(&a.mean_reduction_percent)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.spec.label().cmp(&b.spec.label()))
}

/// One benchmark's hard-to-predict slice: the H2P statics flagged by the
/// corpus [`bptrace::BranchProfile`], with mispredicts on exactly that branch
/// population under the baseline (trace replay) and the two hybrids
/// (snapshot-style re-execution with a per-commit observer).
#[derive(Clone, PartialEq, Debug)]
pub struct H2pSlice {
    /// Benchmark name.
    pub bench: String,
    /// H2P statics flagged by the corpus profile.
    pub h2p_statics: usize,
    /// Measured dynamic executions of the H2P population (baseline
    /// replay).
    pub h2p_occurrences: u64,
    /// Baseline (16 KB 2Bc-gskew, trace replay) mispredicts on the slice.
    pub baseline_misp: u64,
    /// Untuned-default hybrid mispredicts on the slice (re-execution).
    pub default_misp: u64,
    /// Winner hybrid mispredicts on the slice (re-execution).
    pub winner_misp: u64,
}

/// Computes per-benchmark H2P slices for `winner` vs. the untuned
/// default vs. the baseline, over an in-memory recorded corpus.
///
/// One cell per benchmark through [`par_map`]: record the correct-path
/// trace, flag H2P statics from its [`bptrace::BranchProfile`]
/// ([`H2P_MIN_OCCURRENCES`]/[`H2P_MAX_BIAS`]), replay the baseline over
/// the trace, and re-execute both hybrids with the per-PC observer.
/// Deterministic for any thread count.
#[must_use]
pub fn h2p_slices(
    winner: &HybridSpec,
    programs: &[(Benchmark, Program)],
    env: &ExpEnv,
    warmup_permille: u32,
) -> Vec<H2pSlice> {
    let budget = env.uop_budget();
    let default = untuned_default();
    par_map(programs, env.threads, |_, (bench, program)| {
        let mut bt = Vec::new();
        // H2P population from the corpus profile (predictor-independent),
        // built by the recorder from the records it writes.
        let (_, profile) = record_trace(program, bench.seed, budget, &mut bt)
            .expect("in-memory recording cannot fail");
        let h2p: HashSet<u64> = profile
            .h2p_candidates(H2P_MIN_OCCURRENCES, H2P_MAX_BIAS)
            .iter()
            .map(|b| b.pc)
            .collect();

        // Baseline: conventional predictor, trace replay (§6 split).
        let replay_cfg = ReplayConfig {
            max_uops: budget,
            warmup_uops: budget * u64::from(warmup_permille) / 1000,
        };
        let mut base = configs::bc_gskew(Budget::K16);
        let base_replay =
            replay_bytes(&bt, &mut base, &replay_cfg).expect("in-memory trace is well-formed");
        let baseline_misp: u64 = base_replay
            .per_branch
            .iter()
            .filter(|b| h2p.contains(&b.pc))
            .map(|b| b.mispredicts)
            .sum();
        let h2p_occurrences: u64 = base_replay
            .per_branch
            .iter()
            .filter(|b| h2p.contains(&b.pc))
            .map(|b| b.occurrences)
            .sum();

        // Hybrids: re-execution with the per-commit observer.
        let cfg = sim_config(env, warmup_permille, bench.seed);
        let slice_misp = |spec: &HybridSpec| -> u64 {
            let mut per_pc: HashMap<u64, u64> = HashMap::new();
            let mut hybrid = spec.build();
            let _ = run_accuracy_observed(program, &mut hybrid, &cfg, |pc, _, misp| {
                if misp {
                    *per_pc.entry(pc).or_insert(0) += 1;
                }
            });
            per_pc
                .iter()
                .filter(|(pc, _)| h2p.contains(*pc))
                .map(|(_, m)| *m)
                .sum()
        };
        H2pSlice {
            bench: bench.name.clone(),
            h2p_statics: h2p.len(),
            h2p_occurrences,
            baseline_misp,
            default_misp: slice_misp(&default),
            winner_misp: slice_misp(winner),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_is_the_filtered_cartesian_product() {
        let space = TuneSpace::quick();
        let specs = space.enumerate();
        assert_eq!(specs.len(), 3); // 1 prophet × 1 critic × 3 fb
        assert!(specs.iter().all(|s| space.fits(s)));
    }

    #[test]
    fn empty_dimension_enumerates_nothing() {
        for dim in 0..3 {
            let mut space = TuneSpace::quick();
            match dim {
                0 => space.prophets.clear(),
                1 => space.critics.clear(),
                _ => space.future_bits.clear(),
            }
            assert!(space.enumerate().is_empty(), "dim {dim}");
            assert!(space.coarse().is_empty(), "dim {dim}");
        }
    }

    #[test]
    fn single_point_space_enumerates_one_cell() {
        let space = TuneSpace {
            name: "custom",
            prophets: vec![(ProphetKind::BcGskew, Budget::K8)],
            critics: vec![(CriticKind::TaggedGshare, Budget::K8)],
            future_bits: vec![2],
            confident: vec![false],
            warmup_permille: vec![200],
            mixes: vec![MixProfile::paper()],
            max_total_bytes: Some(18 * 1024),
            h2p: None,
        };
        assert_eq!(space.enumerate().len(), 1);
        assert_eq!(space.coarse().len(), 1);
        // A single point has no neighbours to refine toward.
        assert!(space.neighbors(&space.enumerate()[0]).is_empty());
    }

    #[test]
    fn storage_cap_filters_oversized_pairs() {
        let mut space = TuneSpace::quick();
        space.critics = vec![(CriticKind::TaggedGshare, Budget::K32)];
        assert!(space.enumerate().is_empty(), "8KB + 32KB must not fit");
        space.max_total_bytes = None;
        assert_eq!(space.enumerate().len(), 3, "uncapped space sweeps all");
    }

    #[test]
    fn none_critic_candidates_collapse_future_bits() {
        let mut space = TuneSpace::quick();
        space.critics = vec![(CriticKind::None, Budget::K8)];
        let specs = space.enumerate();
        // All three future-bit values collapse onto the same alone-spec.
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].future_bits, 0);
    }

    #[test]
    fn coarse_is_a_subset_of_enumerate() {
        let space = TuneSpace::headline();
        let full = space.enumerate();
        let coarse = space.coarse();
        assert!(coarse.len() < full.len());
        assert!(coarse.iter().all(|s| full.contains(s)));
    }

    #[test]
    fn neighbors_stay_in_space_and_differ_by_one_axis() {
        let space = TuneSpace::headline();
        let full = space.enumerate();
        let spec = untuned_default();
        let ns = space.neighbors(&spec);
        assert!(!ns.is_empty());
        for n in &ns {
            assert!(full.contains(n), "{} not in space", n.label());
            let mut diffs = 0;
            if (n.prophet, n.prophet_budget) != (spec.prophet, spec.prophet_budget) {
                diffs += 1;
            }
            if (n.critic, n.critic_budget) != (spec.critic, spec.critic_budget) {
                diffs += 1;
            }
            if n.future_bits != spec.future_bits {
                diffs += 1;
            }
            if n.confident_override != spec.confident_override {
                diffs += 1;
            }
            assert_eq!(diffs, 1, "{} differs on {diffs} axes", n.label());
        }
    }

    #[test]
    fn critic_axis_neighbors_collapse_the_confidence_axis() {
        // A confident t.gshare spec stepping to a critic kind without a
        // confidence signal must land on the canonical (conf=false) spec
        // from `enumerate`, not a phantom duplicate outside the space.
        let space = TuneSpace::headline();
        let full = space.enumerate();
        let spec = HybridSpec::paired(
            ProphetKind::BcGskew,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K8,
            1,
        )
        .with_confident_override(true);
        assert!(full.contains(&spec));
        for n in space.neighbors(&spec) {
            assert!(full.contains(&n), "{} escaped the space", n.label());
            if !matches!(n.critic, CriticKind::TaggedGshare | CriticKind::Tage) {
                assert!(!n.confident_override, "{}", n.label());
            }
        }
    }

    #[test]
    fn headline_space_sweeps_tage_prophets_and_critics() {
        let space = TuneSpace::headline();
        let full = space.enumerate();
        for kind in [ProphetKind::Tage, ProphetKind::TageH2p] {
            assert!(
                full.iter().any(|s| s.prophet == kind),
                "{kind:?} missing from the headline search space"
            );
        }
        assert!(
            full.iter().any(|s| s.critic == CriticKind::Tage),
            "TAGE critic missing from the headline search space"
        );
        // The TAGE critic carries a confidence signal: both override
        // policies must survive enumeration (no axis collapse).
        assert!(full
            .iter()
            .any(|s| s.critic == CriticKind::Tage && s.confident_override));
    }

    #[test]
    fn h2p_objective_blends_the_ranking_key_without_touching_scenarios() {
        let space = TuneSpace::quick();
        let mut weighted = space.clone();
        weighted.h2p = Some(H2pObjective::new(0.5, vec![("gzip".into(), 9.0)]));
        let benches: Vec<Benchmark> = workloads::all_benchmarks()
            .into_iter()
            .filter(|b| b.name == "gzip" || b.name == "vpr")
            .collect();
        let run = |g: u64, v: u64| {
            vec![vec![
                AccuracyResult {
                    benchmark: "gzip".into(),
                    committed_uops: 1000,
                    final_mispredicts: g,
                    ..AccuracyResult::default()
                },
                AccuracyResult {
                    benchmark: "vpr".into(),
                    committed_uops: 1000,
                    final_mispredicts: v,
                    ..AccuracyResult::default()
                },
            ]]
        };
        let baseline = run(20, 20);
        let spec = untuned_default();
        let plain = score(spec, 0, run(10, 20), &baseline, &benches, &space);
        assert_eq!(plain.h2p_reduction_percent, None);
        let blended = score(spec, 0, run(10, 20), &baseline, &benches, &weighted);
        // Scenario payloads are objective-independent (cell stability).
        assert_eq!(plain.scenarios, blended.scenarios);
        // gzip-only mass: h2p reduction = 50 %, standard = 25 %, blend 0.5.
        let h2p = blended.h2p_reduction_percent.expect("objective attached");
        assert!((h2p - 50.0).abs() < 1e-9, "{h2p}");
        let expect = 0.5 * plain.mean_reduction_percent + 0.5 * 50.0;
        assert!(
            (blended.mean_reduction_percent - expect).abs() < 1e-9,
            "{} vs {expect}",
            blended.mean_reduction_percent
        );
    }

    #[test]
    fn scenarios_are_warmup_major() {
        let space = TuneSpace::headline();
        let sc = space.scenarios();
        assert_eq!(sc.len(), space.warmup_permille.len() * space.mixes.len());
        assert_eq!(sc[0].warmup_permille, space.warmup_permille[0]);
        assert_eq!(sc[0].mix.name, space.mixes[0].name);
    }

    #[test]
    fn weighted_pooling_matches_plain_pooling_under_uniform_counts() {
        // Two benchmarks from the same suite: weighting cannot change the
        // pooled rate.
        let benches: Vec<Benchmark> = workloads::all_benchmarks()
            .into_iter()
            .filter(|b| b.name == "gzip" || b.name == "vpr")
            .collect();
        let runs = vec![
            AccuracyResult {
                benchmark: "gzip".into(),
                committed_uops: 1000,
                final_mispredicts: 10,
                ..AccuracyResult::default()
            },
            AccuracyResult {
                benchmark: "vpr".into(),
                committed_uops: 3000,
                final_mispredicts: 6,
                ..AccuracyResult::default()
            },
        ];
        let weighted = weighted_misp_per_kuops(&benches, &runs, &MixProfile::paper());
        assert!((weighted - 4.0).abs() < 1e-12, "{weighted}");
    }
}
