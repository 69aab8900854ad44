//! TAGE — a TAgged GEometric-history-length predictor — plus a
//! Bullseye-style hard-to-predict (H2P) side allocator.
//!
//! The prophet/critic split is predictor-agnostic (§3.1: “the components …
//! can be any existing predictors”), and the tagged-geometric family is the
//! strongest conventional engine known for the role. [`Tage`] follows the
//! classic construction: a bimodal base table plus N partially-tagged
//! direct-mapped banks indexed by geometrically growing history lengths.
//! The longest-history hitting bank *provides* the prediction; the next
//! hit (or the base table) is the *alternate*. Useful bits guard provider
//! entries from reallocation and decay on a deterministic period; on a
//! mispredict a new entry is stolen in a longer-history bank.
//!
//! [`DynamicAllocator`] is the H2P subsystem in the style of Bullseye
//! (arXiv:2506.06773): hard-to-predict statics — the top slice of
//! mispredicting branches, which Lin & Tarsa (arXiv:1906.08170) show
//! dominate misprediction cost — are flagged by an online
//! occurrence/mispredict tracker (the same ≥32-execution threshold the
//! trace-side `BranchProfile` H2P flagging uses) and each flagged static
//! *steals dedicated table capacity*: a private slice of pattern counters
//! no other branch can alias. A confidence gate arbitrates: the dedicated
//! entry only overrides TAGE when its counter is saturated.
//!
//! Both a scalar path and a fused replay kernel (`replay_block`) are
//! provided. `predict` is pure (`&self`), so the kernel — which computes
//! each element's per-bank index/tag hashes once and predicts-then-trains
//! in element order — is *exactly* the scalar sequence; `batch_equiv.rs`
//! pins the equivalence and `tage_invariants.rs` pins the structural
//! invariants.
//!
//! Every bank shares one index width and one tag width, so the PC half of
//! the tag hash is computed once per branch, not once per bank. The replay
//! kernel goes further: replay history moves one outcome at a time, so it
//! keeps each bank's index fold and tag fold as a *folded-history
//! register*, seeded from the chunk's start register once
//! per call and stepped in constant time per element, instead of
//! re-folding up to 64 history bits per bank per branch. Those registers
//! live only inside one call; the predictor stores nothing derived from
//! the history. The H2P allocator is consulted once per branch: the
//! flagged slot and its dedicated-entry index, found at prediction time,
//! are carried through to training.

use crate::counter::SatCounter;
use crate::history::{fold_bits, mask, HistoryBits};
use crate::index::{fold, gshare_index, mix2_tag_pc};
use crate::table::CounterTable;
use crate::{DirectionPredictor, Pc, PredictBlock, Prediction};

/// Counter width of the tagged banks (the conventional TAGE choice).
const CTR_BITS: usize = 3;
/// Counter width of the bimodal base table.
const BASE_BITS: usize = 2;
/// Width of the useful counters guarding tagged entries.
const U_BITS: usize = 2;
/// Width of the use-alt-on-newly-allocated policy counter.
const ALT_BITS: usize = 4;
/// Shortest geometric history length.
const MIN_HIST: usize = 5;
/// Updates between useful-bit aging passes (deterministic, not wall-clock).
const U_AGING_PERIOD: u32 = 4096;
/// Upper bound on tagged banks a [`Tage`] instance may carry.
const MAX_BANKS: usize = 8;

/// One tagged bank: packed prediction counters, packed useful counters and
/// a parallel partial-tag vector, all direct-mapped at one history length.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TageBank {
    counters: CounterTable,
    useful: CounterTable,
    tags: Vec<u16>,
    tag_bits: usize,
    hist_len: usize,
}

impl TageBank {
    fn new(entries: usize, tag_bits: usize, hist_len: usize) -> Self {
        assert!(
            (1..=16).contains(&tag_bits),
            "tag width {tag_bits} out of range 1..=16"
        );
        Self {
            counters: CounterTable::new(entries, CTR_BITS),
            useful: CounterTable::new(entries, U_BITS),
            tags: vec![0; entries],
            tag_bits,
            hist_len,
        }
    }

    /// Per-entry storage: prediction counter + useful counter + tag.
    fn storage_bits(&self) -> usize {
        self.counters.storage_bits() + self.useful.storage_bits() + self.tags.len() * self.tag_bits
    }
}

/// One bank's slice of the history register, XOR-folded to the bank's
/// index width and to its tag width: the two history operands of the
/// bank's index and tag hashes (those of [`crate::index::mix2`]).
#[derive(Clone, Copy, Default)]
struct Folds {
    idx: u64,
    tag: u64,
}

impl Folds {
    /// The folds of the low `len` bits of `h`.
    fn of(h: u64, len: usize, index_bits: usize, tag_bits: usize) -> Self {
        Self {
            idx: fold_bits(h, len, index_bits),
            tag: fold_bits(h, len, tag_bits),
        }
    }
}

/// Everything one `(pc, history)` context resolves to: per-bank hashes,
/// the provider/alternate scan result and the H2P allocator's entry.
/// Computed once and shared between the predict and train halves of
/// `predict_train` — `predict` reads no mutable state, so the reuse is
/// bit-identical to recomputing.
struct Lookup {
    pc: Pc,
    /// The history register clipped to `history_len`: the bits the banks
    /// read, and the context the allocator indexes its entries with.
    hist: HistoryBits,
    idx: [u64; MAX_BANKS],
    tag: [u16; MAX_BANKS],
    base_idx: u64,
    /// Longest-history hitting bank, if any.
    provider: Option<usize>,
    /// Next-longest hitting bank below the provider, if any.
    alt: Option<usize>,
    /// The branch's dedicated H2P entry, if it is a flagged static.
    h2p: Option<H2pEntry>,
}

/// The directions a lookup decides on, before training.
struct Decision {
    /// The prediction actually returned (after the H2P chooser).
    final_taken: bool,
    /// The TAGE-side prediction (after the alternate policy) — this is what
    /// drives bank allocation; the H2P override is a separate structure.
    tage_taken: bool,
    provider_taken: bool,
    alt_taken: bool,
    /// Provider entry looks newly allocated: weak counter, zero useful.
    newly: bool,
    confidence: i32,
}

/// A Bullseye-style dynamic allocator for hard-to-predict statics.
///
/// Tracks per-static occurrence and mispredict counts in a small
/// direct-mapped profile; a static that crosses the H2P thresholds
/// (≥ [`Self::FLAG_MIN_OCCURRENCES`] executions with ≥ 25 % mispredicts —
/// the online mirror of the trace-side `BranchProfile` flagging) is
/// *flagged* and assigned a private slice of the dedicated counter table
/// that no other branch can alias. Flag capacity is bounded; the flagged
/// set is append-only, so slot assignment is stable and deterministic.
///
/// # Examples
///
/// ```
/// use predictors::DynamicAllocator;
///
/// let a = DynamicAllocator::new(16, 16, 32);
/// assert_eq!(a.flagged_statics(), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynamicAllocator {
    /// Flagged static branch addresses, in flagging order (append-only —
    /// slot `s` permanently owns dedicated entries `s * entries_per ..`).
    flagged: Vec<u64>,
    capacity: usize,
    /// Dedicated pattern counters: `capacity × entries_per` three-bit cells.
    table: CounterTable,
    /// log2 of the per-static entry count.
    ctx_bits: usize,
    /// Per-slot tournament chooser: counts up when the dedicated entry
    /// beats the TAGE-side prediction on a disagreement, down when it
    /// loses. The override fires only while this counter is taken, so a
    /// flagged static's dedicated slice must earn a winning record before
    /// it may overrule TAGE.
    chooser: CounterTable,
    /// Online H2P profile, direct-mapped: partial tag + occurrence and
    /// mispredict counts (saturating bytes).
    track_tags: Vec<u16>,
    track_occ: Vec<u8>,
    track_misp: Vec<u8>,
}

/// A flagged static's dedicated entry for one branch: its slot and the
/// entry's table index in the branch's context.
#[derive(Clone, Copy)]
struct H2pEntry {
    slot: usize,
    index: u64,
}

impl DynamicAllocator {
    /// Executions before a static can be flagged (matches the trace-side
    /// `H2P_MIN_OCCURRENCES`).
    pub const FLAG_MIN_OCCURRENCES: u8 = 32;

    /// Partial-tag width of the tracker.
    const TRACK_TAG_BITS: usize = 12;

    /// Creates an allocator for up to `capacity` flagged statics, each
    /// owning `entries_per` dedicated counters, with a `tracker_entries`
    /// online profile.
    ///
    /// # Panics
    ///
    /// Panics if any size is not a non-zero power of two.
    #[must_use]
    pub fn new(capacity: usize, entries_per: usize, tracker_entries: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && entries_per.is_power_of_two(),
            "allocator capacity {capacity} × {entries_per} must be powers of two"
        );
        assert!(
            tracker_entries.is_power_of_two(),
            "tracker entries {tracker_entries} must be a power of two"
        );
        Self {
            flagged: Vec::new(),
            capacity,
            table: CounterTable::new(capacity * entries_per, CTR_BITS),
            ctx_bits: entries_per.trailing_zeros() as usize,
            chooser: CounterTable::new(capacity, CTR_BITS),
            track_tags: vec![0; tracker_entries],
            track_occ: vec![0; tracker_entries],
            track_misp: vec![0; tracker_entries],
        }
    }

    /// Number of statics currently holding dedicated capacity.
    #[must_use]
    pub fn flagged_statics(&self) -> usize {
        self.flagged.len()
    }

    /// Maximum number of flagged statics.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `pc` currently holds dedicated capacity.
    #[must_use]
    pub fn is_flagged(&self, pc: Pc) -> bool {
        self.slot_of(pc).is_some()
    }

    /// Flags `pc` as hard-to-predict, stealing a dedicated table slice for
    /// it (no-op when already flagged or at capacity). Exposed so callers
    /// with trace-side profiles — `BranchProfile::h2p_candidates` — can
    /// seed the flag set instead of waiting for the online tracker.
    pub fn flag(&mut self, pc: Pc) {
        if self.flagged.len() < self.capacity && self.slot_of(pc).is_none() {
            self.flagged.push(pc.addr());
        }
    }

    /// The flagged slot `pc` owns, if any.
    fn slot_of(&self, pc: Pc) -> Option<usize> {
        self.flagged.iter().position(|&p| p == pc.addr())
    }

    /// Slot `slot`'s dedicated entry for `pc` in context `hist`.
    fn entry(&self, slot: usize, pc: Pc, hist: HistoryBits) -> H2pEntry {
        let ctx = gshare_index(pc.addr(), hist.bits(), hist.len(), self.ctx_bits);
        H2pEntry {
            slot,
            index: ((slot as u64) << self.ctx_bits) | ctx,
        }
    }

    /// `pc`'s dedicated entry in context `hist`, if `pc` is flagged.
    fn locate(&self, pc: Pc, hist: HistoryBits) -> Option<H2pEntry> {
        self.slot_of(pc).map(|slot| self.entry(slot, pc, hist))
    }

    /// A located entry's `(direction, saturated)`.
    fn dedicated(&self, e: H2pEntry) -> (bool, bool) {
        let c = self.table.counter(e.index);
        (c.is_taken(), c.is_strong())
    }

    /// The dedicated prediction for `pc`, if flagged: `(direction,
    /// saturated)`. The caller's chooser only honours saturated entries.
    #[must_use]
    pub fn predict_h2p(&self, pc: Pc, hist: HistoryBits) -> Option<(bool, bool)> {
        self.locate(pc, hist).map(|e| self.dedicated(e))
    }

    /// Whether the tournament chooser currently favours `pc`'s dedicated
    /// entry over the TAGE-side prediction.
    #[must_use]
    pub fn chooser_favors(&self, pc: Pc) -> bool {
        self.slot_of(pc)
            .is_some_and(|slot| self.chooser.taken(slot as u64))
    }

    /// Commit-time bookkeeping: profile the static, flag it when it crosses
    /// the H2P thresholds, score the chooser on disagreements, and train
    /// the dedicated entry if flagged. `tage_taken` is the TAGE-side
    /// prediction the chooser competes against.
    pub fn observe(
        &mut self,
        pc: Pc,
        hist: HistoryBits,
        taken: bool,
        tage_taken: bool,
        mispredicted: bool,
    ) {
        let entry = self.locate(pc, hist);
        self.observe_at(entry, pc, hist, taken, tage_taken, mispredicted);
    }

    /// [`Self::observe`] given `pc`'s entry as located before the call, so
    /// a branch scans the flagged list once from prediction to training.
    fn observe_at(
        &mut self,
        mut entry: Option<H2pEntry>,
        pc: Pc,
        hist: HistoryBits,
        taken: bool,
        tage_taken: bool,
        mispredicted: bool,
    ) {
        let word = pc.addr() >> 2;
        let slot = (word & (self.track_tags.len() as u64 - 1)) as usize;
        let tag = (fold(word.rotate_left(17), Self::TRACK_TAG_BITS)) as u16;
        if self.track_tags[slot] != tag {
            // Direct-mapped replacement: the newcomer restarts the profile.
            self.track_tags[slot] = tag;
            self.track_occ[slot] = 0;
            self.track_misp[slot] = 0;
        }
        self.track_occ[slot] = self.track_occ[slot].saturating_add(1);
        if mispredicted {
            self.track_misp[slot] = self.track_misp[slot].saturating_add(1);
        }
        if entry.is_none()
            && self.flagged.len() < self.capacity
            && self.track_occ[slot] >= Self::FLAG_MIN_OCCURRENCES
            && u32::from(self.track_misp[slot]) * 4 >= u32::from(self.track_occ[slot])
        {
            self.flagged.push(pc.addr());
            entry = Some(self.entry(self.flagged.len() - 1, pc, hist));
        }
        if let Some(e) = entry {
            let (dir, strong) = self.dedicated(e);
            // Tournament scoring: only committed (saturated) dedicated
            // predictions that disagreed with TAGE move the chooser —
            // agreements carry no information about which side is better.
            if strong && dir != tage_taken {
                self.chooser.update(e.slot as u64, dir == taken);
            }
            self.table.update(e.index, taken);
        }
    }

    /// Storage: dedicated counters + chooser + flagged addresses +
    /// tracker profile.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.table.storage_bits()
            + self.chooser.storage_bits()
            + self.capacity * 64
            + self.track_tags.len() * (Self::TRACK_TAG_BITS + 16)
    }
}

/// The TAGE predictor: bimodal base + N tagged geometric-history banks,
/// with an optional [`DynamicAllocator`] H2P subsystem.
///
/// # Examples
///
/// ```
/// use predictors::{DirectionPredictor, HistoryBits, Pc, Tage};
///
/// let mut p = Tage::new(1024, 256, 4, 8, 32);
/// let mut bhr = HistoryBits::new(p.history_len());
/// let pc = Pc::new(0x40_1000);
/// for _ in 0..4 {
///     p.update(pc, bhr, true);
///     bhr.push(true);
/// }
/// assert!(p.predict(pc, bhr).taken());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tage {
    base: CounterTable,
    banks: Vec<TageBank>,
    /// Policy counter: trust the alternate over a newly allocated provider?
    use_alt_on_new: SatCounter,
    /// Deterministic update counter driving periodic useful-bit aging.
    tick: u32,
    history_len: usize,
    allocator: Option<DynamicAllocator>,
}

impl Tage {
    /// Creates a TAGE predictor with `banks` tagged banks of `bank_entries`
    /// entries each over geometric history lengths from `MIN_HIST` to
    /// `max_hist`, plus a `base_entries`-entry bimodal base.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is 0 or exceeds 8, if `max_hist` exceeds 64 or is
    /// not past the geometric minimum, or if any table size is not a
    /// power of two.
    #[must_use]
    pub fn new(
        base_entries: usize,
        bank_entries: usize,
        banks: usize,
        tag_bits: usize,
        max_hist: usize,
    ) -> Self {
        assert!(
            (1..=MAX_BANKS).contains(&banks),
            "bank count {banks} out of range 1..={MAX_BANKS}"
        );
        assert!(
            (MIN_HIST + banks..=64).contains(&max_hist),
            "max history {max_hist} out of range"
        );
        let lengths = geometric_lengths(banks, MIN_HIST, max_hist);
        Self {
            base: CounterTable::new(base_entries, BASE_BITS),
            banks: lengths
                .iter()
                .map(|&l| TageBank::new(bank_entries, tag_bits, l))
                .collect(),
            use_alt_on_new: SatCounter::weakly_not_taken(ALT_BITS),
            tick: 0,
            history_len: max_hist,
            allocator: None,
        }
    }

    /// Attaches a [`DynamicAllocator`] H2P subsystem (builder style).
    #[must_use]
    pub fn with_allocator(mut self, allocator: DynamicAllocator) -> Self {
        self.allocator = Some(allocator);
        self
    }

    /// The attached H2P allocator, if any.
    #[must_use]
    pub fn allocator(&self) -> Option<&DynamicAllocator> {
        self.allocator.as_ref()
    }

    /// Mutable access to the attached H2P allocator, if any — for seeding
    /// the flag set from a trace-side `BranchProfile`.
    pub fn allocator_mut(&mut self) -> Option<&mut DynamicAllocator> {
        self.allocator.as_mut()
    }

    /// The geometric history length of each tagged bank, shortest first.
    #[must_use]
    pub fn bank_history_lengths(&self) -> Vec<usize> {
        self.banks.iter().map(|b| b.hist_len).collect()
    }

    /// The useful-counter value of every entry in bank `bank`.
    /// Test instrumentation for the aging invariants.
    #[must_use]
    pub fn useful_values(&self, bank: usize) -> Vec<u8> {
        let b = &self.banks[bank];
        (0..b.counters.len())
            .map(|i| b.useful.counter(i as u64).value())
            .collect()
    }

    /// The provider and alternate bank history lengths for one context, if
    /// any bank hits: `(provider_hist_len, alternate_hist_len_or_0)`.
    /// Test instrumentation for the provider ≥ alternate invariant.
    #[must_use]
    pub fn provider_lengths(&self, pc: Pc, hist: HistoryBits) -> Option<(usize, usize)> {
        let look = self.lookup(pc, hist);
        look.provider.map(|p| {
            (
                self.banks[p].hist_len,
                look.alt.map_or(0, |a| self.banks[a].hist_len),
            )
        })
    }

    /// The prediction, only when a *tagged* bank provides it — `None` when
    /// the context falls through to the bimodal base. Critic wrappers use
    /// this as their engagement filter: the tagged banks effectively tag
    /// the contexts TAGE has allocated capacity for, exactly the filtering
    /// role the tagged-gshare critic's tag table plays.
    #[must_use]
    pub fn predict_tagged(&self, pc: Pc, hist: HistoryBits) -> Option<Prediction> {
        let look = self.lookup(pc, hist);
        look.provider?;
        let dec = self.decide(&look);
        Some(Prediction::with_confidence(dec.final_taken, dec.confidence))
    }

    /// The index width and tag width every bank shares.
    fn hash_widths(&self) -> (usize, usize) {
        let bank = &self.banks[0];
        (bank.counters.index_bits(), bank.tag_bits)
    }

    /// Folds every bank's slice of `hist`, then probes the banks. Pure.
    fn lookup(&self, pc: Pc, hist: HistoryBits) -> Lookup {
        // The allocator sees the bits the banks read, whatever the length
        // of the caller's register — as it does in `replay_block`.
        let hist = HistoryBits::from_raw(hist.bits(), hist.len().min(self.history_len));
        let (index_bits, tag_bits) = self.hash_widths();
        let mut folds = [Folds::default(); MAX_BANKS];
        for (f, bank) in folds.iter_mut().zip(&self.banks) {
            *f = Folds::of(
                hist.recent(bank.hist_len),
                bank.hist_len,
                index_bits,
                tag_bits,
            );
        }
        self.probe(pc, hist, &folds)
    }

    /// Hashes every bank from its history folds, scans for provider and
    /// alternate, and locates the branch's H2P entry. `hist` is already
    /// clipped to `history_len`. Pure.
    fn probe(&self, pc: Pc, hist: HistoryBits, folds: &[Folds; MAX_BANKS]) -> Lookup {
        let (index_bits, tag_bits) = self.hash_widths();
        let (index_mask, tag_mask) = (mask(index_bits), mask(tag_bits));
        let word = pc.addr() >> 2;
        let tag_pc = mix2_tag_pc(pc.addr(), index_bits, tag_bits);
        let mut idx = [0u64; MAX_BANKS];
        let mut tag = [0u16; MAX_BANKS];
        for b in 0..self.banks.len() {
            idx[b] = (word ^ folds[b].idx) & index_mask;
            tag[b] = ((folds[b].tag ^ tag_pc) & tag_mask) as u16;
        }
        let mut provider = None;
        let mut alt = None;
        for b in (0..self.banks.len()).rev() {
            if self.banks[b].tags[idx[b] as usize] == tag[b] {
                if provider.is_none() {
                    provider = Some(b);
                } else {
                    alt = Some(b);
                    break;
                }
            }
        }
        Lookup {
            pc,
            hist,
            idx,
            tag,
            base_idx: word,
            provider,
            alt,
            h2p: self.allocator.as_ref().and_then(|a| a.locate(pc, hist)),
        }
    }

    /// Resolves a lookup into directions and confidence. Pure.
    fn decide(&self, look: &Lookup) -> Decision {
        let base_taken = self.base.taken(look.base_idx);
        let alt_taken = look
            .alt
            .map_or(base_taken, |a| self.banks[a].counters.taken(look.idx[a]));
        let (provider_taken, tage_taken, newly, mut confidence) = match look.provider {
            Some(p) => {
                let c = self.banks[p].counters.counter(look.idx[p]);
                let provider_taken = c.is_taken();
                let thr = c.threshold();
                let weak = c.value() == thr || c.value() + 1 == thr;
                let newly = weak && self.banks[p].useful.counter(look.idx[p]).value() == 0;
                // The alternate-prediction policy: a newly allocated entry
                // has not earned trust yet; a policy counter learns whether
                // the alternate does better in that situation.
                let tage_taken = if newly && self.use_alt_on_new.is_taken() {
                    alt_taken
                } else {
                    provider_taken
                };
                let confidence = i32::from(if provider_taken {
                    c.value() - thr
                } else {
                    thr - 1 - c.value()
                });
                (provider_taken, tage_taken, newly, confidence)
            }
            None => {
                let c = self.base.counter(look.base_idx);
                let confidence = i32::from(if base_taken {
                    c.value() - c.threshold()
                } else {
                    c.threshold() - 1 - c.value()
                });
                (base_taken, base_taken, false, confidence)
            }
        };
        // The confidence-gated chooser, gated on THREE sides: a flagged
        // static's dedicated entry overrides TAGE only when the entry is
        // saturated, TAGE itself is weak (boundary-distance-0 provider
        // or a newly allocated entry), AND the per-slot tournament
        // chooser says the dedicated slice has been winning its
        // disagreements. A confident TAGE prediction always stands — the
        // dedicated slice exists to repair the low-confidence tail, not
        // to second-guess established providers.
        let mut final_taken = tage_taken;
        if let (Some(a), Some(e)) = (&self.allocator, look.h2p) {
            let (dir, strong) = a.dedicated(e);
            if strong && (confidence == 0 || newly) && a.chooser.taken(e.slot as u64) {
                final_taken = dir;
                confidence = i32::from(SatCounter::weakly_not_taken(CTR_BITS).max());
            }
        }
        Decision {
            final_taken,
            tage_taken,
            provider_taken,
            alt_taken,
            newly,
            confidence,
        }
    }

    /// The commit-time training step for one resolved branch, given the
    /// lookup/decision its prediction was made from.
    fn train(&mut self, look: &Lookup, dec: &Decision, taken: bool) {
        if let Some(p) = look.provider {
            // Alternate policy: when a newly allocated provider and the
            // alternate disagreed, learn which to trust next time.
            if dec.newly && dec.provider_taken != dec.alt_taken {
                self.use_alt_on_new.update(dec.alt_taken == taken);
            }
            self.banks[p].counters.update(look.idx[p], taken);
            // Useful bits move only when provider and alternate disagreed:
            // credit the provider for beating the alternate, blame it for
            // losing (the entry stops being worth protecting).
            if dec.provider_taken != dec.alt_taken {
                self.banks[p]
                    .useful
                    .update(look.idx[p], dec.provider_taken == taken);
            }
        } else {
            self.base.update(look.base_idx, taken);
        }
        // Allocation on a TAGE mispredict: steal the first longer-history
        // entry whose useful counter has decayed to zero; if every
        // candidate is protected, weaken them all so one frees up soon.
        if dec.tage_taken != taken {
            let start = look.provider.map_or(0, |p| p + 1);
            if start < self.banks.len() {
                let mut allocated = false;
                for b in start..self.banks.len() {
                    if self.banks[b].useful.counter(look.idx[b]).value() == 0 {
                        let weak = SatCounter::weak_for(CTR_BITS, taken).value();
                        let bank = &mut self.banks[b];
                        bank.tags[look.idx[b] as usize] = look.tag[b];
                        bank.counters.set(look.idx[b], weak);
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    for b in start..self.banks.len() {
                        self.banks[b].useful.update(look.idx[b], false);
                    }
                }
            }
        }
        // Deterministic periodic aging — an update counter, never wall
        // clock, so replays and batched kernels age at identical points.
        self.tick += 1;
        if self.tick >= U_AGING_PERIOD {
            self.tick = 0;
            for bank in &mut self.banks {
                bank.useful.halve_all();
            }
        }
        if let Some(a) = &mut self.allocator {
            a.observe_at(
                look.h2p,
                look.pc,
                look.hist,
                taken,
                dec.tage_taken,
                dec.final_taken != taken,
            );
        }
    }

    /// Fused predict-then-train for one element: the lookup is computed
    /// once and shared. `predict` reads no mutable state, so this is
    /// bit-identical to scalar predict-then-update.
    fn predict_train(&mut self, look: &Lookup, taken: bool) -> bool {
        let dec = self.decide(look);
        self.train(look, &dec, taken);
        dec.final_taken
    }
}

/// `n` geometrically spaced history lengths from `min` to `max`,
/// strictly increasing.
fn geometric_lengths(n: usize, min: usize, max: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let l = if n == 1 {
            max as f64
        } else {
            let ratio = (max as f64 / min as f64).powf(i as f64 / (n - 1) as f64);
            min as f64 * ratio
        };
        let mut l = l.round() as usize;
        if let Some(&prev) = out.last() {
            l = l.max(prev + 1);
        }
        out.push(l.min(64));
    }
    out
}

impl DirectionPredictor for Tage {
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        let dec = self.decide(&self.lookup(pc, hist));
        Prediction::with_confidence(dec.final_taken, dec.confidence)
    }

    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        let look = self.lookup(pc, hist);
        self.predict_train(&look, taken);
    }

    fn history_len(&self) -> usize {
        self.history_len
    }

    fn storage_bits(&self) -> usize {
        self.base.storage_bits()
            + self.banks.iter().map(TageBank::storage_bits).sum::<usize>()
            + ALT_BITS
            + self
                .allocator
                .as_ref()
                .map_or(0, DynamicAllocator::storage_bits)
    }

    fn name(&self) -> &'static str {
        if self.allocator.is_some() {
            "tage+h2p"
        } else {
            "tage"
        }
    }

    /// Keeps each bank's `Folds` as folded-history registers, seeded from
    /// `start` once per call. Pushing outcome `t` shifts a bank's
    /// `len`-bit slice of the register left by one and drops its oldest
    /// bit `o` (bit `len - 1`), where `len` is the bank's history length
    /// clipped to the register's. A fold to `w` bits sends bit `i` to bit
    /// `i mod w` and is linear over XOR, so the shifted slice's fold is
    /// the old fold rotated left by one within `w` bits, with `t` entering
    /// at bit 0 and `o` cancelled at bit `len mod w`: exactly what
    /// `fold_bits` gives for the new slice, in constant time per bank.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        assert!(pcs.len() <= PredictBlock::CAPACITY, "replay block overfull");
        let eff = self.history_len.min(start.len());
        let m = mask(eff);
        let mut h = start.recent(eff);
        let (index_bits, tag_bits) = self.hash_widths();
        let (index_mask, tag_mask) = (mask(index_bits), mask(tag_bits));
        let banks = self.banks.len();
        let mut folds = [Folds::default(); MAX_BANKS];
        // Per bank: the oldest bit's position in `h`, and where it lands
        // in the index fold and in the tag fold.
        let mut outgoing = [(0, 0, 0); MAX_BANKS];
        for (b, bank) in self.banks.iter().enumerate() {
            let len = bank.hist_len.min(eff);
            folds[b] = Folds::of(h, len, index_bits, tag_bits);
            outgoing[b] = (len.max(1) - 1, len % index_bits, len % tag_bits);
        }
        let mut bits = 0u64;
        for (i, &pc) in pcs.iter().enumerate() {
            let look = self.probe(pc, HistoryBits::from_raw(h, eff), &folds);
            let taken = (outcomes >> i) & 1 == 1;
            bits |= u64::from(self.predict_train(&look, taken)) << i;
            // A zero-length register takes in no bit (`m` is 0), so `h`
            // and every fold stay 0.
            let t = u64::from(taken) & m;
            for (f, &(oldest, idx_at, tag_at)) in folds[..banks].iter_mut().zip(&outgoing) {
                let o = (h >> oldest) & 1;
                // Shift, take `t` in and cancel `o`; then wrap the bit
                // shifted out at `w` back to bit 0.
                let c = (f.idx << 1) ^ t ^ (o << idx_at);
                f.idx = (c ^ (c >> index_bits)) & index_mask;
                let c = (f.tag << 1) ^ t ^ (o << tag_at);
                f.tag = (c ^ (c >> tag_bits)) & tag_mask;
            }
            h = ((h << 1) | t) & m;
        }
        PredictBlock::from_parts(bits, pcs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tage {
        Tage::new(256, 64, 4, 8, 24)
    }

    #[test]
    fn geometric_lengths_are_strictly_increasing() {
        for n in 1..=8usize {
            let ls = geometric_lengths(n, MIN_HIST, 48);
            assert_eq!(ls.len(), n);
            for w in ls.windows(2) {
                assert!(w[0] < w[1], "lengths not increasing: {ls:?}");
            }
            assert_eq!(*ls.last().unwrap(), 48);
        }
        assert_eq!(geometric_lengths(4, 5, 24), vec![5, 8, 14, 24]);
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut p = small();
        let mut bhr = HistoryBits::new(p.history_len());
        let pc = Pc::new(0x40_0000);
        for _ in 0..8 {
            p.update(pc, bhr, true);
            bhr.push(true);
        }
        assert!(p.predict(pc, bhr).taken());
    }

    #[test]
    fn learns_a_history_correlated_pattern_bimodal_cannot() {
        // Alternating T/N at one PC: bimodal oscillates, tagged banks key
        // on the history and lock on.
        let mut p = small();
        let mut bhr = HistoryBits::new(p.history_len());
        let pc = Pc::new(0x40_0100);
        let mut correct_late = 0;
        for i in 0..512 {
            let taken = i % 2 == 0;
            let pred = p.predict(pc, bhr).taken();
            if i >= 256 && pred == taken {
                correct_late += 1;
            }
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        assert!(
            correct_late > 240,
            "TAGE failed to learn the alternating pattern: {correct_late}/256"
        );
    }

    #[test]
    fn provider_uses_longest_matching_history() {
        let mut p = small();
        let mut bhr = HistoryBits::new(p.history_len());
        let pc = Pc::new(0x40_0200);
        for i in 0..2048 {
            let taken = (i / 3) % 2 == 0;
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        if let Some((prov, alt)) = p.provider_lengths(pc, bhr) {
            assert!(prov >= alt, "provider {prov} below alternate {alt}");
        }
    }

    #[test]
    fn update_trains_exactly_like_replay_block() {
        let mut scalar = small();
        let mut fused = small();
        let mut bhr = HistoryBits::new(scalar.history_len());
        let mut state = 0x9e37_79b9u64;
        for _ in 0..8 {
            let start = bhr;
            let mut pcs = [Pc::new(0); PredictBlock::CAPACITY];
            let mut outcomes = 0u64;
            for (i, pc) in pcs.iter_mut().enumerate() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *pc = Pc::new(0x40_0000 + (state >> 58) * 4);
                let taken = state & 4 == 4;
                outcomes |= u64::from(taken) << i;
                scalar.update(*pc, bhr, taken);
                bhr.push(taken);
            }
            let _ = fused.replay_block(&pcs, outcomes, start);
        }
        assert_eq!(scalar, fused);
    }

    #[test]
    fn allocator_flags_a_hard_static_and_steals_capacity() {
        let mut a = DynamicAllocator::new(4, 16, 32);
        let pc = Pc::new(0x41_0000);
        let hist = HistoryBits::new(24);
        // A 50%-mispredicted static crosses the flag thresholds.
        for i in 0..64 {
            a.observe(pc, hist, i % 2 == 0, false, i % 2 == 0);
        }
        assert!(a.is_flagged(pc));
        assert_eq!(a.flagged_statics(), 1);
    }

    #[test]
    fn allocator_capacity_is_bounded() {
        let mut a = DynamicAllocator::new(2, 16, 32);
        for s in 0..8u64 {
            a.flag(Pc::new(0x40_0000 + s * 4));
        }
        assert_eq!(a.flagged_statics(), 2);
    }

    #[test]
    fn allocator_dedicated_entries_do_not_alias_across_statics() {
        let mut a = DynamicAllocator::new(4, 16, 32);
        let pc1 = Pc::new(0x40_0000);
        let pc2 = Pc::new(0x40_0004);
        a.flag(pc1);
        a.flag(pc2);
        let hist = HistoryBits::new(8);
        for _ in 0..8 {
            a.observe(pc1, hist, true, false, false);
            a.observe(pc2, hist, false, true, false);
        }
        assert_eq!(a.predict_h2p(pc1, hist), Some((true, true)));
        assert_eq!(a.predict_h2p(pc2, hist), Some((false, true)));
    }

    #[test]
    fn h2p_override_is_confidence_gated() {
        // The chooser is gated on both sides: a saturated dedicated entry
        // wins only while TAGE itself is weak; a confident TAGE stands.
        let mut p = Tage::new(256, 64, 4, 8, 24).with_allocator(DynamicAllocator::new(4, 16, 32));
        let pc = Pc::new(0x40_0300);
        let hist = HistoryBits::new(p.history_len());
        // Flag the static and saturate its dedicated entry taken while
        // TAGE is still untrained (weak base counter, confidence 0).
        // Reporting tage_taken=false makes each post-saturation observe a
        // disagreement the dedicated entry wins, so the tournament
        // chooser also comes to favour the dedicated slice.
        p.allocator_mut().unwrap().flag(pc);
        for _ in 0..8 {
            p.allocator_mut()
                .unwrap()
                .observe(pc, hist, true, false, false);
        }
        assert!(
            p.predict(pc, hist).taken(),
            "saturated H2P entry must win over a weak TAGE"
        );
        // Train the base strongly not-taken: TAGE is now confident, so
        // the dedicated entry must no longer override.
        for _ in 0..4 {
            p.base.update(pc.addr() >> 2, false);
        }
        assert!(
            !p.predict(pc, hist).taken(),
            "a confident TAGE prediction stands against the dedicated entry"
        );
    }

    #[test]
    fn storage_accounts_for_every_structure() {
        let plain = small();
        let with = small().with_allocator(DynamicAllocator::new(4, 16, 32));
        assert!(with.storage_bits() > plain.storage_bits());
        // base 256×2 + 4 banks × 64 × (3+2+8) + 4-bit policy counter.
        assert_eq!(plain.storage_bits(), 256 * 2 + 4 * 64 * 13 + 4);
        assert_eq!(plain.name(), "tage");
        assert_eq!(with.name(), "tage+h2p");
    }
}
