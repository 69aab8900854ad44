//! The stage-accurate front-end pipeline engine (§5, Figure 4).
//!
//! This is the timing heart of the cycle model: a decoupled
//! fetch → critique → commit pipeline in which the three stages advance
//! their own clocks and communicate through explicit per-slot events,
//! so that the two recovery mechanisms of the paper produce genuinely
//! different bubble profiles:
//!
//! * a **critic override** flushes only the uncriticized FTQ tail and
//!   redirects fetch at the critique time plus the front-end redirect
//!   latency — the criticized prefix keeps the consumer fed, so the
//!   commit stage never sees a bubble (§5);
//! * a **final mispredict** restarts *every* stage: fetch, the critic
//!   walk and the FTQ consumer all resume at the branch's resolve time
//!   plus the redirect latency, and the refilled pipe pays the full
//!   fetch-to-resolve depth again before the next branch can retire.
//!
//! The engine knows nothing about predictors or programs — callers (the
//! `sim` crate's `PipelineModel` drivers) feed it fetched chunks,
//! critique/override decisions and resolutions; the engine owns the
//! clocks, the FTQ occupancy/backpressure model, the I-cache with its
//! port-limited line fetch, and the bubble bookkeeping. Every operation
//! is a deterministic function of the call sequence: no wall-clock, no
//! randomness, so simulations built on it are bit-identical for any
//! worker-thread count.

use std::collections::VecDeque;

use uarch::{Cache, CacheParams};

/// Static timing parameters of the pipeline engine (derived from
/// `uarch::MachineParams` by the simulator).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PipelineParams {
    /// Fetch/consume/retire bandwidth in uops per cycle.
    pub width: u64,
    /// Prophet throughput in predictions per cycle.
    pub prophet_per_cycle: u64,
    /// Critic throughput in critiques per cycle.
    pub critic_per_cycle: u64,
    /// FTQ capacity in entries (fetch stalls when it is full).
    pub ftq_entries: usize,
    /// Fetch-to-resolve pipe depth in cycles (the mispredict penalty).
    pub pipe_depth: u64,
    /// Instruction-window size in uops: the FTQ consumer may lead the
    /// commit stage by at most a full window at machine width, so a slow
    /// back end backs the queue up and ultimately stalls fetch.
    pub window_uops: u64,
    /// Front-end redirect latency in cycles (BTB-miss discovery at
    /// decode, post-flush fetch restart).
    pub redirect_cycles: u64,
    /// Critic-override redirect latency in cycles — cheaper than
    /// `redirect_cycles` because the critic sits inside the front end,
    /// next to the FTQ (Figure 4).
    pub override_redirect_cycles: u64,
    /// I-cache fetch ports: lines readable per cycle (fetch of a chunk
    /// spanning several lines serializes on the port).
    pub fetch_ports: u64,
    /// I-cache geometry.
    pub icache: CacheParams,
    /// Line-fill latency on an I-cache miss (the L2 hit latency).
    pub icache_miss_cycles: u64,
}

/// Cycles lost to each bubble cause, accumulated over a run.
///
/// `ftq_empty` measures consumer starvation (fetch could not keep the
/// queue fed); `flush_restart` counts only the explicit redirect portion
/// of a mispredict recovery — the pipe-refill cost surfaces through the
/// resolve-time bound on commit, not here.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct BubbleProfile {
    /// Fetch cycles stalled on I-cache line fills.
    pub icache: f64,
    /// Fetch cycles stalled on FTQ backpressure (queue full).
    pub ftq_full: f64,
    /// Consumer cycles starved by an empty FTQ.
    pub ftq_empty: f64,
    /// Consumer cycles waiting on a full instruction window (back-end
    /// pressure propagating into the front end).
    pub window_full: f64,
    /// Front-end redirect cycles (BTB-miss discovery + critic overrides).
    pub redirect: f64,
    /// Redirect cycles charged by mispredict-flush fetch restarts.
    pub flush_restart: f64,
}

impl BubbleProfile {
    /// Total bubble cycles across all causes.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.icache
            + self.ftq_full
            + self.ftq_empty
            + self.window_full
            + self.redirect
            + self.flush_restart
    }
}

/// Event counters accumulated over a run (whole run, not warm-up-gated;
/// the simulator keeps its own measured-region counters).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PipelineEvents {
    /// Chunks fetched (one per branch).
    pub fetched_chunks: u64,
    /// Uops fetched (correct and wrong path).
    pub fetched_uops: u64,
    /// Critiques issued.
    pub critiques: u64,
    /// Critiques that issued after their slot was consumed (would have
    /// been forced with fewer future bits) plus explicitly forced ones.
    pub forced_critiques: u64,
    /// Critic overrides (FTQ-tail flush + fetch redirect).
    pub overrides: u64,
    /// Full pipeline flushes (final mispredicts).
    pub flushes: u64,
    /// BTB-miss front-end redirects.
    pub btb_redirects: u64,
}

/// One in-flight slot: a fetched chunk ending at a branch, from FTQ
/// entry to retirement.
#[derive(Copy, Clone, Debug)]
struct Slot {
    uops: u64,
    fetch_time: f64,
    consume_time: f64,
    critique_time: f64,
    data_stall: f64,
    critiqued: bool,
}

/// The issue of one critique.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CritiqueIssue {
    /// Cycle at which the critique issued.
    pub time: f64,
    /// Whether it issued after the consumer had already taken the slot —
    /// on the real machine this critique would have been forced with the
    /// future bits available (§5).
    pub late: bool,
}

/// The retirement of one slot.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CommitInfo {
    /// Uops retired with this slot.
    pub uops: u64,
    /// When the chunk finished fetching.
    pub fetch_time: f64,
    /// When the branch resolved (fetch + pipe depth + data stalls).
    pub resolve_time: f64,
    /// When the slot retired (bandwidth- and resolve-bounded).
    pub commit_time: f64,
}

/// The stage-accurate fetch/critique/commit pipeline.
///
/// # Examples
///
/// ```
/// use frontend::pipeline::{FrontendPipeline, PipelineParams};
///
/// let mut pipe = FrontendPipeline::new(PipelineParams::example());
/// let t = pipe.fetch(0x40_0000, 12, 0.0, false);
/// assert!(t > 0.0);
/// let issue = pipe.critique(0, false);
/// assert!(issue.time >= t);
/// let info = pipe.commit();
/// assert_eq!(info.uops, 12);
/// assert!(info.resolve_time > issue.time);
/// ```
#[derive(Clone, Debug)]
pub struct FrontendPipeline {
    p: PipelineParams,
    icache: Cache,
    /// Fetch-stage clock: when the last chunk finished fetching.
    t_fetch: f64,
    /// Critique-stage clock: when the last critique issued.
    t_critic: f64,
    /// FTQ-consumer clock: when the last entry left the queue.
    t_consume: f64,
    /// Commit-stage clock: when the last slot retired.
    t_commit: f64,
    slots: VecDeque<Slot>,
    events: PipelineEvents,
    bubbles: BubbleProfile,
}

impl PipelineParams {
    /// A small example configuration for tests and doctests.
    #[must_use]
    pub fn example() -> Self {
        Self {
            width: 6,
            prophet_per_cycle: 2,
            critic_per_cycle: 1,
            ftq_entries: 32,
            pipe_depth: 30,
            window_uops: 2048,
            redirect_cycles: 8,
            override_redirect_cycles: 2,
            fetch_ports: 2,
            icache: CacheParams {
                size_bytes: 64 << 10,
                ways: 8,
                line_bytes: 64,
                hit_cycles: 1,
            },
            icache_miss_cycles: 16,
        }
    }
}

impl FrontendPipeline {
    /// Creates an engine from its timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if any rate or the FTQ capacity is zero.
    #[must_use]
    pub fn new(p: PipelineParams) -> Self {
        assert!(
            p.width > 0
                && p.prophet_per_cycle > 0
                && p.critic_per_cycle > 0
                && p.fetch_ports > 0
                && p.ftq_entries > 0,
            "pipeline rates and FTQ capacity must be non-zero"
        );
        Self {
            icache: Cache::new(&p.icache),
            p,
            t_fetch: 0.0,
            t_critic: 0.0,
            t_consume: 0.0,
            t_commit: 0.0,
            slots: VecDeque::with_capacity(2 * p.ftq_entries + 1),
            events: PipelineEvents::default(),
            bubbles: BubbleProfile::default(),
        }
    }

    /// Fetches one chunk of `uops` ending at the branch at `pc`,
    /// accounting fetch bandwidth, prophet throughput, port-limited
    /// I-cache line reads and FTQ backpressure. `data_stall` is the
    /// chunk's (MLP-overlapped) data-side stall, consumed at resolve.
    /// `critiqued` marks chunks that need no later critique (BTB misses,
    /// zero-future-bit predictions critiqued in the same cycle).
    ///
    /// Returns the chunk's fetch-complete time.
    pub fn fetch(&mut self, pc: u64, uops: u64, data_stall: f64, critiqued: bool) -> f64 {
        // FTQ backpressure: a slot must have left the queue before the
        // entry `ftq_entries` behind it can enter.
        let mut start = self.t_fetch;
        if self.slots.len() >= self.p.ftq_entries {
            let gate = self.slots[self.slots.len() - self.p.ftq_entries].consume_time;
            if gate > start {
                self.bubbles.ftq_full += gate - start;
                start = gate;
            }
        }

        // I-cache: every line of the chunk goes through the fetch port.
        let first_line = pc.saturating_sub(uops * 4) >> 6;
        let last_line = pc >> 6;
        let lines = last_line - first_line + 1;
        let mut miss_stall = 0.0;
        for line in first_line..=last_line {
            if !self.icache.access(line << 6) {
                miss_stall += self.p.icache_miss_cycles as f64;
            }
        }
        self.bubbles.icache += miss_stall;

        // Fetch is bound by uop bandwidth, prophet throughput and the
        // I-cache port, plus any line-fill stalls.
        let bw = (uops as f64 / self.p.width as f64)
            .max(1.0 / self.p.prophet_per_cycle as f64)
            .max(lines as f64 / self.p.fetch_ports as f64);
        let done = start + bw + miss_stall;
        self.t_fetch = done;

        // The consumer drains the queue at the machine width; when the
        // queue runs dry it starves until this chunk arrives, and when
        // the instruction window fills it waits on commit progress (it
        // may lead retirement by at most a window's worth of cycles).
        let pace = self.t_consume + uops as f64 / self.p.width as f64;
        if done > pace {
            self.bubbles.ftq_empty += done - pace;
        }
        let mut consume = pace.max(done);
        let window_floor = self.t_commit - self.p.window_uops as f64 / self.p.width as f64;
        if window_floor > consume {
            self.bubbles.window_full += window_floor - consume;
            consume = window_floor;
        }
        self.t_consume = consume;

        self.slots.push_back(Slot {
            uops,
            fetch_time: done,
            consume_time: self.t_consume,
            critique_time: done,
            data_stall,
            critiqued,
        });
        self.events.fetched_chunks += 1;
        self.events.fetched_uops += uops;
        done
    }

    /// Charges a BTB-miss front-end redirect (the branch was discovered
    /// at decode depth and fetch restarted down its real path).
    pub fn btb_redirect(&mut self) {
        self.t_fetch += self.p.redirect_cycles as f64;
        self.bubbles.redirect += self.p.redirect_cycles as f64;
        self.events.btb_redirects += 1;
    }

    /// Issues the critique for the in-flight slot at `index` (0 = the
    /// oldest), at critic throughput. A critique cannot issue before the
    /// newest fetched chunk — its future bits are completed by the most
    /// recent predictions. `forced` marks a critique the driver forced
    /// early (buffer bound); a critique that issues more than an FTQ
    /// depth's worth of cycles after its slot was fetched is counted
    /// forced as well — the consumer would have needed it by then (§5).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn critique(&mut self, index: usize, forced: bool) -> CritiqueIssue {
        let cycle = 1.0 / self.p.critic_per_cycle as f64;
        let issue = (self.t_critic + cycle).max(self.t_fetch);
        // The critic's backlog lives in the FTQ: entries it cannot reach
        // before the consumer takes them are forced and *skipped*, so
        // its busy time never runs ahead of fetch by more than the
        // current entry's worth of work.
        self.t_critic = issue.min(self.t_fetch + cycle);
        let slot = &mut self.slots[index];
        slot.critiqued = true;
        slot.critique_time = issue;
        let late = forced || issue > slot.fetch_time + self.p.ftq_entries as f64;
        self.events.critiques += 1;
        self.events.forced_critiques += u64::from(late);
        CritiqueIssue { time: issue, late }
    }

    /// Applies a critic override at slot `index`: the uncriticized tail
    /// (everything younger) leaves the FTQ and fetch restarts at the
    /// critique time plus the redirect latency. The criticized prefix
    /// keeps feeding the consumer, so the commit clock is untouched (§5).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the slot is uncritiqued.
    pub fn override_redirect(&mut self, index: usize) {
        let slot = self.slots[index];
        assert!(slot.critiqued, "override of an uncritiqued slot");
        self.slots.truncate(index + 1);
        let restart = slot.critique_time + self.p.override_redirect_cycles as f64;
        self.bubbles.redirect += self.p.override_redirect_cycles as f64;
        self.t_fetch = self.t_fetch.max(restart);
        // The flushed tail never reached the consumer: rewind its clock
        // to the kept prefix.
        self.t_consume = slot.consume_time;
        self.events.overrides += 1;
    }

    /// Retires the oldest slot: in-order, bandwidth-bound, and bounded
    /// below by the branch's resolve time (fetch + pipe depth + data
    /// stalls).
    ///
    /// # Panics
    ///
    /// Panics if no slot is in flight.
    pub fn commit(&mut self) -> CommitInfo {
        let slot = self
            .slots
            .pop_front()
            .expect("commit with a slot in flight");
        let resolve_time = slot.fetch_time + self.p.pipe_depth as f64 + slot.data_stall;
        self.t_commit = (self.t_commit + slot.uops as f64 / self.p.width as f64).max(resolve_time);
        CommitInfo {
            uops: slot.uops,
            fetch_time: slot.fetch_time,
            resolve_time,
            commit_time: self.t_commit,
        }
    }

    /// Recovers from a final mispredict that resolved at `resolve_time`:
    /// the FTQ drains, and fetch, the critic walk and the consumer all
    /// restart after the front-end redirect latency. The refilled pipe
    /// pays the full fetch-to-resolve depth again via the resolve-time
    /// bound on the next commits.
    pub fn flush_all(&mut self, resolve_time: f64) {
        self.slots.clear();
        let restart = resolve_time + self.p.redirect_cycles as f64;
        self.bubbles.flush_restart += self.p.redirect_cycles as f64;
        self.t_fetch = self.t_fetch.max(restart);
        self.t_critic = self.t_critic.max(restart);
        self.t_consume = self.t_consume.max(restart);
        self.events.flushes += 1;
    }

    /// Number of slots in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the oldest slot has been critiqued (`None` when empty).
    #[must_use]
    pub fn head_critiqued(&self) -> Option<bool> {
        self.slots.front().map(|s| s.critiqued)
    }

    /// When the oldest slot's branch resolves (fetch + pipe depth + data
    /// stalls) — fetch keeps running (down a possibly wrong path) until
    /// this time passes.
    #[must_use]
    pub fn head_resolve_time(&self) -> Option<f64> {
        self.slots
            .front()
            .map(|s| s.fetch_time + self.p.pipe_depth as f64 + s.data_stall)
    }

    /// The commit-stage clock (cycles retired through).
    #[must_use]
    pub fn commit_clock(&self) -> f64 {
        self.t_commit
    }

    /// The fetch-stage clock.
    #[must_use]
    pub fn fetch_clock(&self) -> f64 {
        self.t_fetch
    }

    /// Event counters so far.
    #[must_use]
    pub fn events(&self) -> &PipelineEvents {
        &self.events
    }

    /// Bubble bookkeeping so far.
    #[must_use]
    pub fn bubbles(&self) -> &BubbleProfile {
        &self.bubbles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PipelineParams {
        PipelineParams {
            ftq_entries: 4,
            window_uops: 12,
            ..PipelineParams::example()
        }
    }

    #[test]
    fn fetch_is_bandwidth_bound() {
        let mut p = FrontendPipeline::new(PipelineParams::example());
        // Warm the line so the second fetch has no miss stall.
        let _ = p.fetch(0x1000, 6, 0.0, true);
        let t1 = p.fetch_clock();
        let t2 = p.fetch(0x1000, 12, 0.0, true);
        assert!(
            (t2 - t1 - 2.0).abs() < 1e-9,
            "12 uops at width 6 = 2 cycles"
        );
    }

    #[test]
    fn icache_miss_stalls_fetch_and_counts_bubbles() {
        let mut p = FrontendPipeline::new(PipelineParams::example());
        let cold = p.fetch(0x8000, 6, 0.0, true);
        let warm_start = p.fetch_clock();
        let warm = p.fetch(0x8000, 6, 0.0, true) - warm_start;
        assert!(cold > warm, "cold line must stall fetch: {cold} vs {warm}");
        assert!(p.bubbles().icache > 0.0);
    }

    #[test]
    fn multi_line_chunk_serializes_on_the_fetch_port() {
        let mut p = FrontendPipeline::new(PipelineParams::example());
        // Warm both lines, so neither timed fetch stalls on a fill.
        let _ = p.fetch(0x4_0048, 4, 0.0, true);
        let _ = p.fetch(0x4_0070, 4, 0.0, true);
        let warm_icache = p.bubbles().icache;
        let cost = |p: &mut FrontendPipeline, pc: u64| {
            let start = p.fetch_clock();
            let done = p.fetch(pc, 4, 0.0, true);
            assert_eq!(done, p.fetch_clock());
            done - start
        };
        // Straddling a line boundary: 2 lines over 2 ports take a full
        // cycle, more than the 4/6 cycle 4 uops need at width 6.
        let straddling = cost(&mut p, 0x4_0048);
        assert!((straddling - 1.0).abs() < 1e-12, "{straddling}");
        // Inside one line the port is not the bound: bandwidth is.
        let one_line = cost(&mut p, 0x4_0070);
        assert!((one_line - 4.0 / 6.0).abs() < 1e-12, "{one_line}");
        assert_eq!(p.bubbles().icache, warm_icache, "warm lines never stall");
    }

    #[test]
    fn ftq_full_backpressures_fetch() {
        // A slow back end (huge data stall on the first branch) drags the
        // commit clock far ahead; the consumer hits the window bound, the
        // 4-entry FTQ backs up, and fetch stalls.
        let mut p = FrontendPipeline::new(tiny());
        let _ = p.fetch(0x1000, 6, 500.0, true);
        let _ = p.commit();
        for i in 1..10 {
            let _ = p.fetch(0x1000 + i * 4, 6, 0.0, true);
        }
        assert!(
            p.bubbles().window_full > 0.0,
            "slow commit must back up the consumer"
        );
        assert!(
            p.bubbles().ftq_full > 0.0,
            "fetch must stall on the 4-entry FTQ: {:?}",
            p.bubbles()
        );
    }

    #[test]
    fn override_is_cheaper_than_flush_for_the_consumer() {
        // Two identical engines; one takes an override at the head, the
        // other a full flush at the same branch. Commit clocks must
        // diverge: the override leaves commit untouched.
        let mut over = FrontendPipeline::new(tiny());
        let mut flush = FrontendPipeline::new(tiny());
        for i in 0..3 {
            let _ = over.fetch(0x2000 + i * 64, 6, 0.0, false);
            let _ = flush.fetch(0x2000 + i * 64, 6, 0.0, false);
        }
        let _ = over.critique(0, false);
        let commit_before = over.commit_clock();
        over.override_redirect(0);
        assert_eq!(
            over.commit_clock(),
            commit_before,
            "an override must not touch the commit clock (§5)"
        );
        let over_info = over.commit();

        let _ = flush.critique(0, false);
        let flush_info = flush.commit();
        flush.flush_all(flush_info.resolve_time);
        assert_eq!(flush.len(), 0, "flush drains every slot");
        // Post-flush fetch restarts later than the override redirect.
        assert!(flush.fetch_clock() > over.fetch_clock());
        // The criticized head itself retires identically in both worlds.
        assert!((over_info.resolve_time - flush_info.resolve_time).abs() < 1e-9);
    }

    #[test]
    fn late_critique_counts_as_forced() {
        let mut p = FrontendPipeline::new(tiny());
        // Many chunks fetched before the head's critique: the critic
        // issues 1/cycle, the consumer has long taken the head.
        for i in 0..20 {
            let _ = p.fetch(0x3000 + i * 4, 6, 0.0, false);
        }
        // Burn the critic clock forward.
        for i in 0..19 {
            let _ = p.critique(i, false);
        }
        let last = p.critique(19, false);
        // Whether late depends on timing; explicit forcing always counts.
        let forced_before = p.events().forced_critiques;
        let _ = p.fetch(0x9000, 6, 0.0, false);
        let issue = p.critique(20, true);
        assert!(issue.late);
        assert_eq!(p.events().forced_critiques, forced_before + 1);
        let _ = last;
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut p = FrontendPipeline::new(tiny());
            for i in 0..50u64 {
                let _ = p.fetch(0x1000 + i * 32, 5 + i % 7, (i % 3) as f64, false);
                let _ = p.critique(p.len() - 1, false);
                if i % 11 == 3 {
                    p.override_redirect(p.len() - 1);
                }
                while p.head_critiqued() == Some(true) {
                    let info = p.commit();
                    if i % 17 == 5 {
                        p.flush_all(info.resolve_time);
                    }
                }
            }
            (p.commit_clock(), *p.events(), *p.bubbles())
        };
        assert_eq!(run(), run());
    }
}
