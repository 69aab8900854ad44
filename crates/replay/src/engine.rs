//! The streaming trace-replay engine for conventional predictors.
//!
//! CBP-style trace-driven evaluation: records stream out of a
//! [`BtReader`] a block at a time (the full trace is never materialized),
//! each conditional is predicted from the replay's branch-history
//! register, compared against the recorded outcome, and the predictor is
//! trained with that outcome — in-order, non-speculative, the standard
//! methodology of trace-driven championship harnesses.
//!
//! There is one batched path, `replay_stream`, behind both entry points
//! ([`replay_bytes`] for an in-memory image, `replay_entry` for a corpus
//! file). It takes [`DecodedBlock`] columns from
//! [`BtReader::next_block`], whichever `.bt` version the header names,
//! and hands the predictor **64-branch chunks** through the fused
//! [`DirectionPredictor::replay_block`] kernels rather than one call per
//! branch: because replay history evolves on *recorded* outcomes only,
//! each conditional's history value is known at buffering time, so a
//! whole chunk can be predicted and trained by one fused
//! structure-of-arrays kernel call. The per-record scalar path
//! ([`ReplaySession::step`]) is kept as the reference implementation —
//! [`direct_replay`] and [`replay_records_scalar`] use it, and the batched
//! kernels are pinned bit-identical to it by the `batch_equiv`
//! differential suite plus the corpus-vs-direct round-trip tests below.
//!
//! Warm-up mirrors the execution-driven simulator (`sim::accuracy`):
//! statistics collection starts only after [`ReplayConfig::warmup_uops`]
//! recorded micro-ops have passed (default: 20 % of the budget), and the
//! replay stops once [`ReplayConfig::max_uops`] have been covered, so a
//! trace recorded at a given budget and a direct execution at the same
//! budget measure the same window.
//!
//! This engine is **only** for conventional predictors. A prophet/critic
//! hybrid must not be evaluated here: its critic consumes *predicted
//! future* bits that on a real machine come from wrong-path fetch, and a
//! correct-path trace would silently hand it oracle outcomes instead
//! (paper §6). Hybrids are re-executed from the corpus' `.pcl` snapshots
//! by the `sim` crate.

use std::collections::HashMap;
use std::io::Read;

use bptrace::{BranchKind, BranchRecord, BtReader, DecodedBlock};
use predictors::{DirectionPredictor, HistoryBits, Pc, PredictBlock};
use workloads::{Program, Walker};

use crate::error::Result;

/// Budget and measurement window of one replay, mirroring the
/// execution-driven `SimConfig`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ReplayConfig {
    /// Stop once this many recorded micro-ops have been replayed.
    pub max_uops: u64,
    /// Recorded micro-ops to pass before statistics collection starts
    /// (predictor warm-up).
    pub warmup_uops: u64,
}

impl ReplayConfig {
    /// A configuration replaying `max_uops` with the workspace's standard
    /// 20 % warm-up fraction.
    #[must_use]
    pub fn with_budget(max_uops: u64) -> Self {
        Self {
            max_uops,
            warmup_uops: max_uops / 5,
        }
    }
}

/// Per-static-branch replay outcome (measured region only).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BranchReplay {
    /// The branch instruction's address.
    pub pc: u64,
    /// Measured dynamic occurrences.
    pub occurrences: u64,
    /// Measured taken occurrences.
    pub taken: u64,
    /// Measured mispredicts.
    pub mispredicts: u64,
}

impl BranchReplay {
    /// Fraction of occurrences that were taken.
    #[must_use]
    pub fn taken_rate(&self) -> f64 {
        if self.occurrences == 0 {
            return 0.0;
        }
        self.taken as f64 / self.occurrences as f64
    }

    /// Direction bias in `[0.5, 1.0]` (majority-direction frequency).
    #[must_use]
    pub fn bias(&self) -> f64 {
        let r = self.taken_rate();
        r.max(1.0 - r)
    }
}

/// The outcome of replaying one trace through one predictor.
///
/// `PartialEq` compares every counter, so determinism tests can pin
/// corpus replay against direct execution bit-for-bit.
#[derive(Clone, PartialEq, Debug)]
pub struct ReplayResult {
    /// The trace (benchmark) name.
    pub trace: String,
    /// The predictor's name.
    pub predictor: &'static str,
    /// Micro-ops in the measured region.
    pub measured_uops: u64,
    /// Conditional branches in the measured region.
    pub measured_conditionals: u64,
    /// Mispredicts in the measured region.
    pub mispredicts: u64,
    /// Total records consumed (warm-up included).
    pub replayed_records: u64,
    /// Per-static-branch outcomes over the measured region, sorted
    /// hardest-first (descending mispredicts, then PC).
    pub per_branch: Vec<BranchReplay>,
}

impl ReplayResult {
    /// Mispredicts per thousand measured micro-ops — the paper's headline
    /// accuracy metric, reconstructed from the trace.
    #[must_use]
    pub fn misp_per_kuops(&self) -> f64 {
        if self.measured_uops == 0 {
            return 0.0;
        }
        self.mispredicts as f64 * 1000.0 / self.measured_uops as f64
    }

    /// Percentage of measured conditionals mispredicted.
    #[must_use]
    pub fn mispredict_percent(&self) -> f64 {
        if self.measured_conditionals == 0 {
            return 0.0;
        }
        self.mispredicts as f64 * 100.0 / self.measured_conditionals as f64
    }

    /// The hard-to-predict branches this replay actually measured: the
    /// top `n` static branches by mispredict count (ties by PC), skipping
    /// branches that never mispredicted.
    #[must_use]
    pub fn h2p_branches(&self, n: usize) -> &[BranchReplay] {
        let end = self
            .per_branch
            .iter()
            .take(n)
            .take_while(|b| b.mispredicts > 0)
            .count();
        &self.per_branch[..end]
    }
}

/// Open-addressed per-static-branch accumulator for the batched path:
/// power-of-two capacity, multiplicative hashing, linear probing, and a
/// small direct-mapped memo of recently touched slots. Loop bodies cycle
/// through a handful of static branches, so keying the memo by low PC
/// bits catches nearly every repeat without hashing or probing.
///
/// The hot increment is a *single* 64-bit read-modify-write:
/// `occurrences` lives in the low half and `taken` in the high half of
/// one packed word, and the (rare) mispredict counter sits in a separate
/// array touched only when a chunk element actually missed. A loop branch
/// repeating inside a chunk therefore costs one store-to-load forward per
/// occurrence instead of three. The 32-bit halves cap per-static-branch
/// occurrences per trace at ~4.29 billion — orders of magnitude above any
/// replay budget this workspace runs, and the scalar reference would take
/// hours before the cap could matter.
///
/// Purely an accumulation detail — [`ReplaySession::finish`] turns its
/// entries into the same per-branch profile the scalar reference builds
/// through a plain `HashMap`, and the deterministic hardest-first sort
/// erases any iteration-order difference.
struct PcStats {
    /// Probe key per slot (the branch PC). Kept apart from the counters so
    /// the memo-validation and probe loads stay in a dense, L1-resident
    /// array.
    keys: Vec<u64>,
    /// Occupancy bitset, one bit per slot (vacancy cannot be derived from
    /// `keys` alone without reserving a sentinel PC value).
    occ: Vec<u64>,
    /// `occurrences + (taken << 32)`, packed so the hot path is one RMW.
    counts: Vec<u64>,
    /// Mispredict counts, written only on a mispredicted element.
    miss: Vec<u64>,
    mask: usize,
    len: usize,
    memo: [usize; Self::MEMO],
}

impl PcStats {
    /// Memo entries; a power of two, sized to cover typical loop bodies.
    const MEMO: usize = 16;

    /// Initial slot count (a power of two).
    const INITIAL: usize = 1024;

    fn new() -> Self {
        Self {
            keys: vec![0; Self::INITIAL],
            occ: vec![0; Self::INITIAL / 64],
            counts: vec![0; Self::INITIAL],
            miss: vec![0; Self::INITIAL],
            mask: Self::INITIAL - 1,
            len: 0,
            memo: [0; Self::MEMO],
        }
    }

    fn hash(pc: u64) -> usize {
        (pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    #[inline(always)]
    fn occupied(&self, i: usize) -> bool {
        self.occ[i / 64] >> (i % 64) & 1 == 1
    }

    /// Folds a run of measured occurrences of `pc` into its slot:
    /// `packed` is the pre-summed `occurrences + (taken << 32)` increment
    /// in the `counts` encoding, `mispredicts` the run's miss count.
    #[inline(always)]
    fn add(&mut self, pc: u64, packed: u64, mispredicts: u64) {
        // `>> 2` before the memo key: branch addresses are effectively
        // 4-byte aligned, so the lowest bits carry no entropy.
        let key = ((pc >> 2) as usize) % Self::MEMO;
        let mut i = self.memo[key];
        if self.keys[i] != pc || !self.occupied(i) {
            if (self.len + 1) * 2 > self.keys.len() {
                self.grow();
            }
            i = Self::hash(pc) & self.mask;
            while self.occupied(i) && self.keys[i] != pc {
                i = (i + 1) & self.mask;
            }
            if !self.occupied(i) {
                self.occ[i / 64] |= 1 << (i % 64);
                self.keys[i] = pc;
                self.len += 1;
            }
            self.memo[key] = i;
        }
        self.counts[i] += packed;
        if mispredicts != 0 {
            self.miss[i] += mispredicts;
        }
    }

    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_occ = std::mem::replace(&mut self.occ, vec![0; cap / 64]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; cap]);
        let old_miss = std::mem::replace(&mut self.miss, vec![0; cap]);
        self.mask = cap - 1;
        self.memo = [0; Self::MEMO];
        for (s, k) in old_keys.into_iter().enumerate() {
            if old_occ[s / 64] >> (s % 64) & 1 == 0 {
                continue;
            }
            let mut i = Self::hash(k) & self.mask;
            while self.occupied(i) {
                i = (i + 1) & self.mask;
            }
            self.occ[i / 64] |= 1 << (i % 64);
            self.keys[i] = k;
            self.counts[i] = old_counts[s];
            self.miss[i] = old_miss[s];
        }
    }

    fn drain(self) -> impl Iterator<Item = BranchReplay> {
        let occ = self.occ;
        let counts = self.counts;
        let miss = self.miss;
        self.keys
            .into_iter()
            .enumerate()
            .filter(move |(i, _)| occ[i / 64] >> (i % 64) & 1 == 1)
            .map(move |(i, pc)| BranchReplay {
                pc,
                occurrences: counts[i] & 0xFFFF_FFFF,
                taken: counts[i] >> 32,
                mispredicts: miss[i],
            })
    }
}

/// One batch in flight toward the fused kernels: the branch addresses,
/// the chunk-start history register, and per-element accounting packed
/// into bit masks (bit `i` belongs to element `i`), so a flush folds
/// whole-chunk totals with mask arithmetic instead of a branch per
/// element.
///
/// No per-element history is stored: replay history evolves on recorded
/// outcomes only, so every element's history value is derivable from
/// `start` plus the low bits of `taken` — which is exactly the contract
/// of [`DirectionPredictor::replay_block`]. Dropping the 64 snapshot
/// copies shrinks the buffer from three words per element to one.
struct Chunk {
    /// Fixed-capacity address buffer — a plain array, so the hot push is
    /// a bounds-checked store with no heap indirection or capacity branch.
    pcs: [Pc; PredictBlock::CAPACITY],
    /// The replay history register as of the chunk's first element.
    start: HistoryBits,
    /// Elements currently buffered.
    len: usize,
    /// Recorded outcomes, one bit per element.
    taken: u64,
    /// Which elements fell inside the measured region.
    measuring: u64,
    /// Total micro-ops of the measured elements (only the sum is ever
    /// needed once a chunk's statistics are folded).
    measured_uops: u64,
}

impl Chunk {
    fn new() -> Self {
        Self {
            pcs: [Pc::new(0); PredictBlock::CAPACITY],
            start: HistoryBits::new(0),
            len: 0,
            taken: 0,
            measuring: 0,
            measured_uops: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.len == PredictBlock::CAPACITY
    }

    fn clear(&mut self) {
        self.len = 0;
        self.taken = 0;
        self.measuring = 0;
        self.measured_uops = 0;
    }
}

/// Running replay state shared by the streaming and direct paths, so the
/// corpus replay and the direct-execution reference cannot drift apart.
/// Each path owns its own per-pc accumulator: the batched loop a
/// [`PcStats`], the scalar reference (`step`, the semantics spec rather
/// than the fast path) a plain `HashMap`.
struct ReplaySession {
    config: ReplayConfig,
    hist: HistoryBits,
    total_uops: u64,
    records: u64,
    measured_uops: u64,
    measured_conditionals: u64,
    mispredicts: u64,
}

impl ReplaySession {
    fn new<P: DirectionPredictor>(predictor: &P, config: ReplayConfig) -> Self {
        Self {
            config,
            hist: HistoryBits::new(predictor.history_len().min(predictors::MAX_HISTORY_BITS)),
            total_uops: 0,
            records: 0,
            measured_uops: 0,
            measured_conditionals: 0,
            mispredicts: 0,
        }
    }

    /// Replays one record, folding a measured conditional into `per_pc`;
    /// returns `false` once the budget is exhausted.
    fn step<P: DirectionPredictor>(
        &mut self,
        rec: &BranchRecord,
        predictor: &mut P,
        per_pc: &mut HashMap<u64, BranchReplay>,
    ) -> bool {
        if self.total_uops >= self.config.max_uops {
            return false;
        }
        let measuring = self.total_uops >= self.config.warmup_uops;
        self.total_uops += u64::from(rec.uops_since_prev);
        self.records += 1;
        if rec.kind.is_conditional() {
            let pc = Pc::new(rec.pc);
            let predicted = predictor.predict(pc, self.hist).taken();
            let mispredict = predicted != rec.taken;
            predictor.update(pc, self.hist, rec.taken);
            self.hist.push(rec.taken);
            if measuring {
                self.measured_uops += u64::from(rec.uops_since_prev);
                self.measured_conditionals += 1;
                self.mispredicts += u64::from(mispredict);
                let entry = per_pc.entry(rec.pc).or_insert(BranchReplay {
                    pc: rec.pc,
                    occurrences: 0,
                    taken: 0,
                    mispredicts: 0,
                });
                entry.occurrences += 1;
                entry.taken += u64::from(rec.taken);
                entry.mispredicts += u64::from(mispredict);
            }
        } else if measuring {
            // Unconditional kinds consume no prediction but their uops
            // still belong to the measured window.
            self.measured_uops += u64::from(rec.uops_since_prev);
        }
        true
    }

    /// Batched counterpart of [`step`](Self::step): performs the budget
    /// check and uop/record accounting, and *buffers* a conditional's
    /// address and outcome instead of predicting it. The chunk captures
    /// the history register once, at its first element; everything after
    /// that is reconstructible from the outcome mask. Returns `false`
    /// once the budget is exhausted.
    ///
    /// Takes the record's fields rather than a [`BranchRecord`] so
    /// `replay_stream` can feed it straight from decoded block columns
    /// without materializing records.
    #[inline(always)]
    fn buffer(
        &mut self,
        pc: u64,
        kind: BranchKind,
        taken: bool,
        uops: u32,
        chunk: &mut Chunk,
    ) -> bool {
        if self.total_uops >= self.config.max_uops {
            return false;
        }
        let measuring = self.total_uops >= self.config.warmup_uops;
        self.total_uops += u64::from(uops);
        self.records += 1;
        if kind.is_conditional() {
            let i = chunk.len;
            if i == 0 {
                chunk.start = self.hist;
            }
            chunk.pcs[i] = Pc::new(pc);
            chunk.len = i + 1;
            chunk.taken |= u64::from(taken) << i;
            if measuring {
                chunk.measuring |= 1 << i;
                chunk.measured_uops += u64::from(uops);
            }
            self.hist.push(taken);
        } else if measuring {
            self.measured_uops += u64::from(uops);
        }
        true
    }

    /// Runs one buffered chunk through the fused predict+train kernel and
    /// folds its statistics: the chunk totals fall out of one XOR against
    /// the recorded-outcome mask plus popcounts, and the per-pc profile in
    /// `per_pc` walks only the measured elements' set bits. (Bits of
    /// [`PredictBlock::bits`] and of the chunk masks above the chunk
    /// length are all zero, so no length mask is needed.)
    ///
    /// The walk coalesces *runs* of the same static branch into one
    /// accumulator visit: a tight loop whose body holds a single
    /// conditional fills whole chunks with one PC, and folding the run in
    /// registers replaces its chain of dependent read-modify-writes on
    /// one slot with a single one.
    fn flush_chunk<P: DirectionPredictor>(
        &mut self,
        predictor: &mut P,
        chunk: &Chunk,
        per_pc: &mut PcStats,
    ) {
        if chunk.len == 0 {
            return;
        }
        let block = predictor.replay_block(&chunk.pcs[..chunk.len], chunk.taken, chunk.start);
        let miss = block.bits() ^ chunk.taken;
        self.measured_uops += chunk.measured_uops;
        self.measured_conditionals += u64::from(chunk.measuring.count_ones());
        self.mispredicts += u64::from((miss & chunk.measuring).count_ones());
        let mut m = chunk.measuring;
        while m != 0 {
            let i = m.trailing_zeros();
            m &= m - 1;
            let pc = chunk.pcs[i as usize].addr();
            // One occurrence is `1 + (taken << 32)` in the accumulator's
            // packed encoding; mispredicts accumulate separately.
            let mut packed = 1 + (((chunk.taken >> i) & 1) << 32);
            let mut misses = (miss >> i) & 1;
            while m != 0 {
                let j = m.trailing_zeros();
                if chunk.pcs[j as usize].addr() != pc {
                    break;
                }
                m &= m - 1;
                packed += 1 + (((chunk.taken >> j) & 1) << 32);
                misses += (miss >> j) & 1;
            }
            per_pc.add(pc, packed, misses);
        }
    }

    /// Builds the result from the session's totals and the per-pc entries
    /// of whichever accumulator the path filled. The deterministic sort
    /// erases any iteration-order difference between the two.
    fn finish(
        self,
        trace: String,
        predictor: &'static str,
        per_pc: impl Iterator<Item = BranchReplay>,
    ) -> ReplayResult {
        let mut per_branch: Vec<BranchReplay> = per_pc.collect();
        per_branch.sort_unstable_by(|a, b| b.mispredicts.cmp(&a.mispredicts).then(a.pc.cmp(&b.pc)));
        ReplayResult {
            trace,
            predictor,
            measured_uops: self.measured_uops,
            measured_conditionals: self.measured_conditionals,
            mispredicts: self.mispredicts,
            replayed_records: self.records,
            per_branch,
        }
    }
}

/// Replays a `.bt` stream through `predictor` via the chunked decode
/// path: whole blocks decode into [`DecodedBlock`]'s reusable column
/// buffers, and the engine feeds the predictor 64-branch chunks straight
/// from those columns — no [`BranchRecord`] is materialized per branch,
/// and no per-element history snapshot is taken (the chunk carries one
/// start register; predictors reconstruct element histories from the
/// outcome mask via [`DirectionPredictor::replay_block`]).
///
/// The one batched replay loop: [`replay_bytes`] and `replay_entry` are
/// single calls into it, and both `.bt` versions reach it through
/// [`BtReader::next_block`]. It must produce results bit-identical to
/// [`replay_records_scalar`] over the same records; the engine tests pin
/// exactly that.
pub(crate) fn replay_stream<R: Read, P: DirectionPredictor>(
    reader: &mut BtReader<R>,
    predictor: &mut P,
    config: &ReplayConfig,
) -> Result<ReplayResult> {
    let mut session = ReplaySession::new(predictor, *config);
    let mut per_pc = PcStats::new();
    let mut chunk = Chunk::new();
    let mut block = DecodedBlock::new();
    'blocks: while reader.next_block(&mut block)? {
        let pcs = block.pcs();
        let kinds = block.kinds();
        let uops = block.uops();
        let words = block.taken_words();
        let n = block.len();
        let mut r = 0;
        while r < n {
            // Bulk path: when the next 64 records form a full, word-aligned
            // window of conditionals lying strictly inside the budget and
            // entirely on one side of the warm-up boundary, the window maps
            // onto one chunk with no per-record bookkeeping — the outcome
            // word is lifted straight from the block's taken bitmask, and
            // the history register advances by one assignment (64 pushes of
            // word `w` leave it holding the window's outcomes newest-first,
            // i.e. `w` bit-reversed). Windows straddling a boundary, or
            // containing unconditional records, fall back to the per-record
            // reference below; both must agree bit-for-bit and the engine
            // equivalence tests pin that.
            if chunk.len == 0 && r.is_multiple_of(64) && n - r >= 64 {
                let all_conditional = kinds[r..r + 64].iter().all(|k| k.is_conditional());
                if all_conditional {
                    let sum: u64 = uops[r..r + 64].iter().map(|&u| u64::from(u)).sum();
                    let measured = session.total_uops >= session.config.warmup_uops;
                    let one_side =
                        measured || session.total_uops + sum < session.config.warmup_uops;
                    if one_side && session.total_uops + sum < session.config.max_uops {
                        let w = words[r / 64];
                        session.total_uops += sum;
                        session.records += 64;
                        chunk.start = session.hist;
                        for (dst, &pc) in chunk.pcs.iter_mut().zip(&pcs[r..r + 64]) {
                            *dst = Pc::new(pc);
                        }
                        chunk.len = 64;
                        chunk.taken = w;
                        chunk.measuring = if measured { !0 } else { 0 };
                        chunk.measured_uops = if measured { sum } else { 0 };
                        session.hist = HistoryBits::from_raw(w.reverse_bits(), session.hist.len());
                        session.flush_chunk(predictor, &chunk, &mut per_pc);
                        chunk.clear();
                        r += 64;
                        continue;
                    }
                }
            }
            if !session.buffer(pcs[r], kinds[r], block.taken(r), uops[r], &mut chunk) {
                break 'blocks;
            }
            r += 1;
            if chunk.is_full() {
                session.flush_chunk(predictor, &chunk, &mut per_pc);
                chunk.clear();
            }
        }
    }
    session.flush_chunk(predictor, &chunk, &mut per_pc);
    Ok(session.finish(reader.name().to_string(), predictor.name(), per_pc.drain()))
}

/// Replays pre-decoded records through the scalar reference path (one
/// `predict`/`update` pair per branch): the oracle the batched path is
/// checked against. [`replay_bytes`] over the same image must produce an
/// identical result for any predictor and any warm-up.
#[must_use]
pub fn replay_records_scalar<P: DirectionPredictor>(
    trace: &str,
    records: &[BranchRecord],
    predictor: &mut P,
    config: &ReplayConfig,
) -> ReplayResult {
    let mut session = ReplaySession::new(predictor, *config);
    let mut per_pc = HashMap::new();
    for rec in records {
        if !session.step(rec, predictor, &mut per_pc) {
            break;
        }
    }
    session.finish(trace.to_string(), predictor.name(), per_pc.into_values())
}

/// Decodes a `.bt` image into its trace name and record list, the input
/// of [`replay_records_scalar`].
///
/// # Errors
///
/// Trace-format errors from the reader (corruption, truncation, I/O).
pub fn decode_records(bytes: &[u8]) -> Result<(String, Vec<BranchRecord>)> {
    let mut reader = BtReader::new(bytes)?;
    let mut records = Vec::new();
    while let Some(rec) = reader.next_record()? {
        records.push(rec);
    }
    Ok((reader.name().to_string(), records))
}

/// Replays an in-memory `.bt` image (header included) of either format
/// version through `predictor`, without materializing the trace.
///
/// # Examples
///
/// Record a benchmark's correct path in memory, then stream it back
/// through a conventional predictor:
///
/// ```
/// use predictors::configs::{self, Budget};
/// use replay::{record_trace, replay_bytes, ReplayConfig};
///
/// let bench = workloads::benchmark("gzip").unwrap();
/// let mut bt = Vec::new();
/// record_trace(&bench.program(), bench.seed, 40_000, &mut bt)?;
///
/// let mut predictor = configs::gshare(Budget::K8);
/// let result = replay_bytes(&bt, &mut predictor, &ReplayConfig::with_budget(40_000))?;
/// assert_eq!(result.trace, "gzip");
/// assert!(result.measured_conditionals > 0);
/// // Per-branch profiles reconcile with the totals.
/// let sum: u64 = result.per_branch.iter().map(|b| b.mispredicts).sum();
/// assert_eq!(sum, result.mispredicts);
/// # Ok::<(), replay::ReplayError>(())
/// ```
///
/// # Errors
///
/// Trace-format errors from the reader: header validation, corruption,
/// truncation.
pub fn replay_bytes<P: DirectionPredictor>(
    bytes: &[u8],
    predictor: &mut P,
    config: &ReplayConfig,
) -> Result<ReplayResult> {
    replay_stream(&mut BtReader::new(bytes)?, predictor, config)
}

/// The direct-execution reference: walks `program`'s correct path and
/// feeds the *same* replay step the streaming path uses, with no trace
/// in between. Replaying a corpus recorded from `(program, seed)` at the
/// same budget must reproduce this bit-for-bit — the round-trip
/// determinism guarantee the integration tests pin.
#[must_use]
pub fn direct_replay<P: DirectionPredictor>(
    program: &Program,
    seed: u64,
    predictor: &mut P,
    config: &ReplayConfig,
) -> ReplayResult {
    let mut walker = Walker::with_seed(program, seed);
    let mut session = ReplaySession::new(predictor, *config);
    let mut per_pc = HashMap::new();
    loop {
        let ev = walker.next_branch();
        // The same event-to-record conversion the corpus recorder uses,
        // so the two paths cannot drift on a field mapping.
        if !session.step(&ev.to_record(), predictor, &mut per_pc) {
            break;
        }
        walker.follow(ev.outcome);
    }
    session.finish(
        program.name().to_string(),
        predictor.name(),
        per_pc.into_values(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictors::configs::{self, Budget};
    use predictors::{Bimodal, Gshare};

    fn recorded(name: &str, max_uops: u64) -> (Vec<u8>, workloads::Benchmark) {
        let bench = workloads::benchmark(name).unwrap();
        let program = bench.program();
        let mut buf = Vec::new();
        crate::corpus::record_trace(&program, bench.seed, max_uops, &mut buf).unwrap();
        (buf, bench)
    }

    #[test]
    fn replay_produces_sane_stats() {
        let (bytes, _) = recorded("gzip", 60_000);
        let mut p = configs::gshare(Budget::K16);
        let r = replay_bytes(&bytes, &mut p, &ReplayConfig::with_budget(60_000)).unwrap();
        assert_eq!(r.trace, "gzip");
        assert_eq!(r.predictor, "gshare");
        assert!(r.measured_uops >= 40_000, "measured {}", r.measured_uops);
        assert!(r.measured_conditionals > 1_000);
        assert!(r.mispredicts > 0, "synthetic code is not perfect");
        let mr = r.misp_per_kuops();
        assert!(mr > 0.1 && mr < 200.0, "misp/Kuops {mr}");
        // Per-branch counters reconcile with the totals.
        let sum: u64 = r.per_branch.iter().map(|b| b.mispredicts).sum();
        assert_eq!(sum, r.mispredicts);
        let occ: u64 = r.per_branch.iter().map(|b| b.occurrences).sum();
        assert_eq!(occ, r.measured_conditionals);
    }

    #[test]
    fn corpus_replay_equals_direct_execution() {
        let (bytes, bench) = recorded("gcc", 50_000);
        let cfg = ReplayConfig::with_budget(50_000);
        let mut a = configs::gshare(Budget::K8);
        let from_trace = replay_bytes(&bytes, &mut a, &cfg).unwrap();
        let mut b = configs::gshare(Budget::K8);
        let direct = direct_replay(&bench.program(), bench.seed, &mut b, &cfg);
        assert_eq!(
            from_trace, direct,
            "trace replay must equal direct execution"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let (bytes, _) = recorded("tpcc", 40_000);
        let cfg = ReplayConfig::with_budget(40_000);
        let run = || {
            let mut p = configs::bc_gskew(Budget::K8);
            replay_bytes(&bytes, &mut p, &cfg).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batched_streaming_replay_equals_scalar_reference() {
        // The streaming path feeds 64-branch chunks to the fused kernels;
        // the scalar reference predicts one branch at a time. Every counter
        // and per-branch profile must agree, including across the warm-up
        // boundary (which falls mid-chunk).
        let (bytes, _) = recorded("crafty", 70_000);
        let (name, records) = decode_records(&bytes).unwrap();
        let cfg = ReplayConfig::with_budget(70_000);
        let mut a = configs::bc_gskew(Budget::K8);
        let streamed = replay_bytes(&bytes, &mut a, &cfg).unwrap();
        let mut b = configs::bc_gskew(Budget::K8);
        let scalar = replay_records_scalar(&name, &records, &mut b, &cfg);
        assert_eq!(streamed, scalar);
    }

    #[test]
    fn v1_and_v2_images_replay_bit_identically() {
        // The same walk recorded in both formats must replay to identical
        // results: v2 hands the engine its framed blocks, v1 is cut into
        // blocks of BLOCK_RECORDS records by the reader.
        let bench = workloads::benchmark("tpcc").unwrap();
        let program = bench.program();
        let mut v1 = Vec::new();
        crate::corpus::record_trace_v1(&program, bench.seed, 50_000, &mut v1).unwrap();
        let mut v2 = Vec::new();
        crate::corpus::record_trace(&program, bench.seed, 50_000, &mut v2).unwrap();
        let version = |bytes: &[u8]| BtReader::new(bytes).unwrap().version();
        assert_eq!(version(&v1), bptrace::BT_VERSION_V1);
        assert_eq!(version(&v2), bptrace::BT_VERSION);

        let cfg = ReplayConfig::with_budget(50_000);
        let mut a = configs::bc_gskew(Budget::K8);
        let from_v1 = replay_bytes(&v1, &mut a, &cfg).unwrap();
        let mut b = configs::bc_gskew(Budget::K8);
        let from_v2 = replay_bytes(&v2, &mut b, &cfg).unwrap();
        assert_eq!(from_v1, from_v2, "format version changed replay results");
    }

    #[test]
    fn warmup_region_is_excluded() {
        let (bytes, _) = recorded("swim", 40_000);
        let all = ReplayConfig {
            max_uops: 40_000,
            warmup_uops: 0,
        };
        let warm = ReplayConfig::with_budget(40_000);
        let mut p = Bimodal::new(4096);
        let cold = replay_bytes(&bytes, &mut p, &all).unwrap();
        let mut p = Bimodal::new(4096);
        let warmed = replay_bytes(&bytes, &mut p, &warm).unwrap();
        assert!(warmed.measured_conditionals < cold.measured_conditionals);
        assert!(warmed.measured_uops < cold.measured_uops);
        assert_eq!(warmed.replayed_records, cold.replayed_records);
    }

    #[test]
    fn better_predictors_win_on_history_predictable_code() {
        // unzip is dominated by long periodic patterns and correlation —
        // exactly what a global-history predictor captures and a bimodal
        // counter cannot. (On large-footprint chaotic code the ranking can
        // invert at replay scale, because rarely-revisited (pc, history)
        // contexts keep a long-history predictor cold; the tournament
        // reports, not asserts, those rankings.)
        let (bytes, _) = recorded("unzip", 400_000);
        let cfg = ReplayConfig::with_budget(400_000);
        let mut bimodal = Bimodal::new(8 * 1024);
        let weak = replay_bytes(&bytes, &mut bimodal, &cfg).unwrap();
        let mut gshare = Gshare::new(8 * 1024, 8);
        let strong = replay_bytes(&bytes, &mut gshare, &cfg).unwrap();
        assert!(
            strong.mispredicts < weak.mispredicts,
            "history predictor should beat bimodal on unzip: {} vs {}",
            strong.mispredicts,
            weak.mispredicts
        );
    }

    #[test]
    fn h2p_branches_are_ranked_and_positive() {
        let (bytes, _) = recorded("tpcc", 60_000);
        let mut p = configs::gshare(Budget::K4);
        let r = replay_bytes(&bytes, &mut p, &ReplayConfig::with_budget(60_000)).unwrap();
        let top = r.h2p_branches(5);
        assert!(!top.is_empty(), "tpcc must have hard branches");
        assert!(top.windows(2).all(|w| w[0].mispredicts >= w[1].mispredicts));
        assert!(top.iter().all(|b| b.mispredicts > 0));
        assert!(top[0].bias() >= 0.5 && top[0].bias() <= 1.0);
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let (mut bytes, _) = recorded("art", 20_000);
        bytes.truncate(bytes.len() - 3);
        let mut p = Bimodal::new(64);
        let err = replay_bytes(&bytes, &mut p, &ReplayConfig::with_budget(20_000)).unwrap_err();
        assert!(matches!(err, crate::error::ReplayError::Trace(_)));
    }
}
