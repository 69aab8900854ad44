//! The cycle-level performance model (uPC results, §7.4), built on the
//! stage-accurate [`frontend::pipeline`] engine.
//!
//! Three layers, strictly separated:
//!
//! * **Timing** — [`frontend::pipeline::FrontendPipeline`]: the decoupled
//!   fetch stage (prophet ≤2 predictions/cycle, port-limited I-cache line
//!   reads, FTQ occupancy and backpressure from the instruction window),
//!   the critique stage (1/cycle, forced-critique accounting) and the
//!   commit stage (width-bound, resolve-time-bound retirement). Override
//!   redirects and mispredict flushes produce genuinely different bubble
//!   profiles: an override restarts only fetch while the criticized FTQ
//!   prefix keeps the consumer fed (§5); a final mispredict drains every
//!   stage and pays the full 30-cycle pipe plus the fetch restart.
//! * **Semantics** — a [`PipelineModel`]: who fetches what down which
//!   path, which critiques override, which branches mispredict. Two
//!   implementations feed the same engine: [`ExecModel`] drives the
//!   execution-driven core (wrong-path fetch via `workloads::Walker`
//!   checkpoints — the §6 requirement for hybrids; `run_accuracy` drives
//!   the same model untimed) and [`TraceModel`]
//!   replays a recorded `.bt` corpus stream through a conventional
//!   predictor (the CBP-style path, giving `experiments tracecmp` its uPC
//!   column).
//! * **Orchestration** — [`run_pipeline`]: the thin driver loop that
//!   moves chunks from the model into the engine, drains critiques,
//!   forces late ones at the buffer bound, and retires in order.
//!
//! Everything is a deterministic function of `(model, config)`: no
//! wall-clock, no OS randomness, so grid runs are bit-identical for any
//! worker-thread count (pinned by `crates/sim/tests/pipeline.rs`).

mod exec;
mod model;
mod trace;

pub use exec::ExecModel;
pub use model::{run_pipeline, Critique, FetchChunk, PipelineModel, Resolution};
pub use trace::{run_cycles_trace, TraceModel};

use frontend::pipeline::{BubbleProfile, PipelineParams};
use predictors::DirectionPredictor;
use prophet_critic::{Critic, ProphetCritic};
use uarch::{DataProfile, MachineParams};
use workloads::Program;

/// Configuration of one cycle-simulation run.
///
/// Built with the fluent constructor so new pipeline knobs don't churn
/// every call site:
///
/// ```
/// use sim::CycleConfig;
///
/// let config = CycleConfig::isca04().budget(200_000).seed(7).mlp(8);
/// assert_eq!(config.max_uops, 200_000);
/// assert_eq!(config.warmup_uops, 40_000); // 20% of the budget
/// ```
#[derive(Copy, Clone, Debug)]
pub struct CycleConfig {
    /// Stop after this many committed uops.
    pub max_uops: u64,
    /// Committed uops before measurement starts.
    pub warmup_uops: u64,
    /// Program seed.
    pub seed: u64,
    /// The machine (defaults to Table 2).
    pub machine: MachineParams,
    /// The synthetic data-side character.
    pub data: DataProfile,
    /// Memory-level parallelism: how many outstanding misses overlap.
    pub mlp: u64,
}

impl CycleConfig {
    /// The standard Table 2 configuration at the default budget; chain
    /// the builder methods to adjust.
    #[must_use]
    pub fn isca04() -> Self {
        Self {
            max_uops: 1_200_000,
            warmup_uops: 240_000,
            seed: 0x15CA_2004,
            machine: MachineParams::isca04(),
            data: DataProfile::resident(),
            mlp: 4,
        }
    }

    /// Sets the committed-uop budget (and the standard 20 % warm-up).
    #[must_use]
    pub fn budget(mut self, max_uops: u64) -> Self {
        self.max_uops = max_uops;
        self.warmup_uops = max_uops / 5;
        self
    }

    /// Overrides the warm-up region (after [`budget`](Self::budget)).
    #[must_use]
    pub fn warmup(mut self, warmup_uops: u64) -> Self {
        self.warmup_uops = warmup_uops;
        self
    }

    /// Sets the program seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the whole machine description.
    #[must_use]
    pub fn machine(mut self, machine: MachineParams) -> Self {
        self.machine = machine;
        self
    }

    /// Sets the data-side character.
    #[must_use]
    pub fn data(mut self, data: DataProfile) -> Self {
        self.data = data;
        self
    }

    /// Sets the memory-level-parallelism overlap factor.
    #[must_use]
    pub fn mlp(mut self, mlp: u64) -> Self {
        self.mlp = mlp.max(1);
        self
    }

    /// Sets the I-cache fetch-port count on the machine.
    #[must_use]
    pub fn fetch_ports(mut self, ports: u64) -> Self {
        self.machine.fetch_ports = ports.max(1);
        self
    }

    /// Sets the front-end redirect latency on the machine.
    #[must_use]
    pub fn redirect_cycles(mut self, cycles: u64) -> Self {
        self.machine.redirect_cycles = cycles;
        self
    }

    /// The engine parameters this machine implies.
    #[must_use]
    pub fn pipeline_params(&self) -> PipelineParams {
        let m = &self.machine;
        PipelineParams {
            width: m.width,
            prophet_per_cycle: m.prophet_per_cycle,
            critic_per_cycle: m.critic_per_cycle,
            ftq_entries: m.ftq_entries,
            pipe_depth: m.mispredict_penalty,
            window_uops: m.window_uops,
            redirect_cycles: m.redirect_cycles,
            override_redirect_cycles: m.override_redirect_cycles,
            fetch_ports: m.fetch_ports,
            icache: m.icache,
            icache_miss_cycles: m.l2.hit_cycles,
        }
    }
}

impl Default for CycleConfig {
    fn default() -> Self {
        Self::isca04()
    }
}

/// The outcome of one cycle-simulation run (measured region).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CycleResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Cycles elapsed in the measured region.
    pub cycles: f64,
    /// Committed uops in the measured region.
    pub committed_uops: u64,
    /// Final mispredicts (pipeline flushes).
    pub final_mispredicts: u64,
    /// Critic overrides (FTQ-tail flush + fetch redirect).
    pub overrides: u64,
    /// Estimated uops fetched along correct and wrong paths.
    pub fetched_uops: u64,
    /// Critiques issued before their full future bits were available.
    pub forced_critiques: u64,
    /// Total critiques issued.
    pub critiques: u64,
    /// `(l1_hits, l2_hits, memory_accesses)` on the data side.
    pub data_counts: (u64, u64, u64),
    /// Whole-run bubble bookkeeping from the pipeline engine.
    pub bubbles: BubbleProfile,
}

impl CycleResult {
    /// Uops per cycle — the paper's performance metric.
    #[must_use]
    pub fn upc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.committed_uops as f64 / self.cycles
        }
    }

    /// Committed uops between pipeline flushes.
    #[must_use]
    pub fn uops_per_flush(&self) -> f64 {
        if self.final_mispredicts == 0 {
            self.committed_uops as f64
        } else {
            self.committed_uops as f64 / self.final_mispredicts as f64
        }
    }

    /// Fraction of critiques that had to be forced early.
    #[must_use]
    pub fn forced_critique_rate(&self) -> f64 {
        if self.critiques == 0 {
            0.0
        } else {
            self.forced_critiques as f64 / self.critiques as f64
        }
    }
}

/// Runs the cycle-level model for one program and hybrid: the
/// execution-driven feed over the stage-accurate pipeline engine.
pub fn run_cycles<P, C>(
    program: &Program,
    hybrid: &mut ProphetCritic<P, C>,
    config: &CycleConfig,
) -> CycleResult
where
    P: DirectionPredictor,
    C: Critic,
{
    let name = program.name().to_string();
    let mut model = ExecModel::new(program, hybrid, config);
    run_pipeline(&mut model, &name, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictors::configs::{self, Budget};
    use prophet_critic::{NullCritic, ProphetCritic, TaggedGshareCritic};

    fn cfg(uops: u64) -> CycleConfig {
        CycleConfig::isca04().budget(uops).seed(11)
    }

    #[test]
    fn upc_is_in_a_plausible_band() {
        let program = workloads::benchmark("gzip").unwrap().program();
        let mut h = ProphetCritic::new(configs::bc_gskew(Budget::K16), NullCritic::new(), 0);
        let r = run_cycles(&program, &mut h, &cfg(120_000));
        let upc = r.upc();
        assert!(upc > 0.3 && upc < 6.0, "uPC {upc} out of band");
    }

    #[test]
    fn better_predictor_gives_higher_upc() {
        let program = workloads::benchmark("gcc").unwrap().program();
        let c = cfg(200_000);

        let mut weak = ProphetCritic::new(configs::gshare(Budget::K2), NullCritic::new(), 0);
        let weak_r = run_cycles(&program, &mut weak, &c);

        let mut strong = ProphetCritic::new(
            configs::bc_gskew(Budget::K8),
            TaggedGshareCritic::new(configs::tagged_gshare(Budget::K8)),
            8,
        );
        let strong_r = run_cycles(&program, &mut strong, &c);

        assert!(
            strong_r.final_mispredicts < weak_r.final_mispredicts,
            "hybrid should mispredict less"
        );
        assert!(
            strong_r.upc() > weak_r.upc(),
            "fewer mispredicts should mean higher uPC: {} vs {}",
            strong_r.upc(),
            weak_r.upc()
        );
    }

    #[test]
    fn forced_critiques_are_rare() {
        let program = workloads::benchmark("vpr").unwrap().program();
        let mut h = ProphetCritic::new(
            configs::perceptron(Budget::K8),
            TaggedGshareCritic::new(configs::tagged_gshare(Budget::K8)),
            8,
        );
        let r = run_cycles(&program, &mut h, &cfg(120_000));
        // The paper reports <0.1%; allow generous slack for the simplified
        // consumer model and the synthetic workloads.
        assert!(
            r.forced_critique_rate() < 0.08,
            "forced critiques too common: {}",
            r.forced_critique_rate()
        );
    }

    #[test]
    fn cycle_model_is_deterministic() {
        let program = workloads::benchmark("mcf").unwrap().program();
        let run = || {
            let mut h = ProphetCritic::new(configs::gshare(Budget::K8), NullCritic::new(), 0);
            run_cycles(&program, &mut h, &cfg(80_000))
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "identical runs must be bit-identical");
    }

    #[test]
    fn override_recovery_is_cheaper_than_flush_recovery() {
        // A hybrid whose critic repairs mispredicts turns full flushes
        // into overrides; its bubble profile must show redirect cycles
        // instead of flush restarts growing without bound.
        let program = workloads::benchmark("gcc").unwrap().program();
        let mut h = ProphetCritic::new(
            configs::gshare(Budget::K4),
            TaggedGshareCritic::new(configs::tagged_gshare(Budget::K8)),
            8,
        );
        let r = run_cycles(&program, &mut h, &cfg(150_000));
        assert!(r.overrides > 0, "the critic must override sometimes");
        assert!(r.bubbles.redirect > 0.0);
        assert!(r.bubbles.flush_restart > 0.0);
    }

    #[test]
    fn builder_knobs_change_the_machine() {
        let c = CycleConfig::isca04()
            .budget(50_000)
            .fetch_ports(2)
            .redirect_cycles(4);
        assert_eq!(c.machine.fetch_ports, 2);
        assert_eq!(c.machine.redirect_cycles, 4);
        assert_eq!(c.warmup_uops, 10_000);
        let p = c.pipeline_params();
        assert_eq!(p.fetch_ports, 2);
        assert_eq!(p.redirect_cycles, 4);
        assert_eq!(p.window_uops, c.machine.window_uops);
    }
}
