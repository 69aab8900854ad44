//! Gshare and its tagged (set-associative) variant.

use crate::index::{gshare_index, mix2};
use crate::{
    CounterTable, DirectionPredictor, HistoryBits, Pc, PredictBlock, Prediction, SatCounter,
    TagLookup, TaggedTable,
};

/// McFarling's gshare predictor: two-bit counters indexed by
/// `PC XOR folded-history`.
///
/// Table 3 of the paper pairs the history length with the index width
/// (e.g. 8 K entries / 13-bit history at 2 KB up to 128 K / 17 at 32 KB);
/// [`crate::configs::gshare`] provides those pairings.
///
/// # Examples
///
/// ```
/// use predictors::{DirectionPredictor, Gshare, HistoryBits, Pc};
///
/// let mut p = Gshare::new(8192, 13);
/// let pc = Pc::new(0x400_100);
/// // Learn an alternating pattern purely from history correlation.
/// let mut bhr = HistoryBits::new(13);
/// for i in 0..200 {
///     let taken = i % 2 == 0;
///     p.update(pc, bhr, taken);
///     bhr.push(taken);
/// }
/// let pred = p.predict(pc, bhr);
/// assert!(pred.taken()); // after ...NTNT the next is T
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gshare {
    table: CounterTable,
    history_len: usize,
}

impl Gshare {
    /// Creates a gshare predictor with `entries` two-bit counters and
    /// `history_len` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a non-zero power of two or
    /// `history_len > 64`.
    #[must_use]
    pub fn new(entries: usize, history_len: usize) -> Self {
        assert!(history_len <= crate::MAX_HISTORY_BITS);
        Self {
            table: CounterTable::new(entries, 2),
            history_len,
        }
    }

    fn index(&self, pc: Pc, hist: HistoryBits) -> u64 {
        gshare_index(
            pc.addr(),
            hist.recent(self.history_len),
            self.history_len,
            self.table.index_bits(),
        )
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        let c = self.table.counter(self.index(pc, hist));
        Prediction::with_confidence(c.is_taken(), i32::from(c.is_strong()))
    }

    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        self.table.update(self.index(pc, hist), taken);
    }

    fn history_len(&self) -> usize {
        self.history_len
    }

    fn storage_bits(&self) -> usize {
        self.table.storage_bits()
    }

    fn name(&self) -> &'static str {
        "gshare"
    }

    /// Fused kernel: the index hash is computed once per element, the
    /// prediction read and training write share one table visit, and the
    /// directions accumulate in a local bitmask instead of per-element
    /// [`PredictBlock::push`] calls. The per-element history values are
    /// reconstructed from `start` and the outcome mask in a local register.
    ///
    /// The register shifts at the *effective* length
    /// `min(history_len, start.len())`: bits the caller's register never
    /// retained read as zero, exactly as [`HistoryBits::recent`] reports
    /// them on the scalar path.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        let mut bits = 0u64;
        let width = self.table.index_bits();
        let eff = self.history_len.min(start.len());
        let m = crate::mask(eff);
        let mut h = start.recent(eff);
        for (i, &pc) in pcs.iter().enumerate() {
            let taken = (outcomes >> i) & 1 == 1;
            let idx = gshare_index(pc.addr(), h, self.history_len, width);
            bits |= u64::from(self.table.predict_update(idx, taken)) << i;
            h = ((h << 1) | u64::from(taken)) & m;
        }
        PredictBlock::from_parts(bits, pcs.len())
    }
}

/// Tagged gshare: a set-associative, tagged table of two-bit counters.
///
/// This is the paper's main critic engine (§6): “a variant of the gshare
/// predictor, in which a tag is assigned to each two-bit counter. Its
/// structure is similar to a N-way associative cache, with each data item
/// being a two-bit counter.” A lookup that misses produces no prediction —
/// in the critic role this is the *implicit agree* of the filter (§4).
///
/// Index and tag are two different XOR hashes of (PC, history) per §4; tags
/// are 8–10 bits (“our experiments have shown that only 8–10 bit tags are
/// needed”).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedGshare {
    table: TaggedTable<SatCounter>,
    history_len: usize,
}

impl TaggedGshare {
    /// Creates a tagged gshare with `sets`×`ways` tagged counters,
    /// `tag_bits`-wide tags and `history_len` history bits.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `ways == 0`, or widths are out
    /// of range.
    #[must_use]
    pub fn new(sets: usize, ways: usize, tag_bits: usize, history_len: usize) -> Self {
        assert!(history_len <= crate::MAX_HISTORY_BITS);
        Self {
            table: TaggedTable::new(sets, ways, tag_bits, SatCounter::weakly_not_taken(2)),
            history_len,
        }
    }

    fn hash(&self, pc: Pc, hist: HistoryBits) -> (u64, u64) {
        mix2(
            pc.addr(),
            hist.recent(self.history_len),
            self.history_len,
            self.table.index_bits(),
            self.table.tag_bits(),
        )
    }

    /// Looks up a prediction; `None` on a tag miss.
    #[must_use]
    pub fn lookup(&self, pc: Pc, hist: HistoryBits) -> Option<Prediction> {
        let (idx, tag) = self.hash(pc, hist);
        self.table
            .peek(idx, tag)
            .map(|c| Prediction::with_confidence(c.is_taken(), i32::from(c.is_strong())))
    }

    /// Trains the entry for `(pc, hist)` if present, touching LRU state.
    ///
    /// Returns whether the entry was present.
    pub fn train_existing(&mut self, pc: Pc, hist: HistoryBits, taken: bool) -> bool {
        let (idx, tag) = self.hash(pc, hist);
        match self.table.lookup(idx, tag) {
            Some(c) => {
                c.update(taken);
                true
            }
            None => false,
        }
    }

    /// Allocates (or re-initializes) the entry for `(pc, hist)`, seeding its
    /// counter weakly toward `taken`.
    ///
    /// Returns [`TagLookup::Hit`] if the tag was already present.
    pub fn allocate(&mut self, pc: Pc, hist: HistoryBits, taken: bool) -> TagLookup {
        let (idx, tag) = self.hash(pc, hist);
        self.table.insert(idx, tag, SatCounter::weak_for(2, taken))
    }

    /// Number of valid entries currently held.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// Total entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }
}

impl DirectionPredictor for TaggedGshare {
    /// Predicts not-taken with zero confidence on a tag miss; in the critic
    /// role use [`TaggedGshare::lookup`], which distinguishes misses.
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        self.lookup(pc, hist)
            .unwrap_or(Prediction::taken_or_not(false))
    }

    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        if !self.train_existing(pc, hist, taken) {
            self.allocate(pc, hist, taken);
        }
    }

    fn history_len(&self) -> usize {
        self.history_len
    }

    fn storage_bits(&self) -> usize {
        // Tag + two-bit counter per entry; LRU bookkeeping excluded as usual.
        self.table.capacity() * (self.table.tag_bits() + 2)
    }

    fn name(&self) -> &'static str {
        "tagged-gshare"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_distinguishes_history_contexts() {
        let mut p = Gshare::new(4096, 8);
        let pc = Pc::new(0x7000);
        let ha = HistoryBits::from_raw(0b1111_0000, 8);
        let hb = HistoryBits::from_raw(0b0000_1111, 8);
        for _ in 0..3 {
            p.update(pc, ha, true);
            p.update(pc, hb, false);
        }
        assert!(p.predict(pc, ha).taken());
        assert!(!p.predict(pc, hb).taken());
    }

    #[test]
    fn gshare_learns_loop_exit_pattern() {
        // A 4-iteration loop: T T T N repeating. With >=4 history bits the
        // exit becomes perfectly predictable.
        let mut p = Gshare::new(4096, 8);
        let pc = Pc::new(0x4040);
        let mut bhr = HistoryBits::new(8);
        let pattern = [true, true, true, false];
        for i in 0..400 {
            let taken = pattern[i % 4];
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        // Measure accuracy over one more cycle of the pattern.
        let mut correct = 0;
        for i in 0..40 {
            let taken = pattern[i % 4];
            if p.predict(pc, bhr).taken() == taken {
                correct += 1;
            }
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        assert!(
            correct >= 38,
            "loop pattern should be nearly perfect, got {correct}/40"
        );
    }

    #[test]
    fn gshare_storage_matches_table3() {
        // 2KB budget: 8K entries of 2 bits.
        let p = Gshare::new(8 * 1024, 13);
        assert_eq!(p.storage_bytes(), 2048);
        // 32KB: 128K entries.
        let p = Gshare::new(128 * 1024, 17);
        assert_eq!(p.storage_bytes(), 32 * 1024);
    }

    #[test]
    fn tagged_gshare_miss_yields_none() {
        let t = TaggedGshare::new(256, 6, 9, 18);
        assert!(t.lookup(Pc::new(0x100), HistoryBits::new(18)).is_none());
    }

    #[test]
    fn tagged_gshare_allocate_then_hit() {
        let mut t = TaggedGshare::new(256, 6, 9, 18);
        let pc = Pc::new(0x100);
        let h = HistoryBits::from_raw(0x2_5a5a, 18);
        t.allocate(pc, h, true);
        let pred = t.lookup(pc, h).expect("entry just allocated");
        assert!(pred.taken(), "allocation seeds counter toward outcome");
    }

    #[test]
    fn tagged_gshare_train_existing_misses_without_allocation() {
        let mut t = TaggedGshare::new(64, 2, 8, 10);
        let pc = Pc::new(0x200);
        let h = HistoryBits::from_raw(0x3ff, 10);
        assert!(!t.train_existing(pc, h, true));
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn tagged_gshare_different_contexts_use_different_entries() {
        let mut t = TaggedGshare::new(256, 6, 9, 18);
        let pc = Pc::new(0x300);
        let ha = HistoryBits::from_raw(0x00ff, 18);
        let hb = HistoryBits::from_raw(0xff00, 18);
        t.allocate(pc, ha, true);
        t.allocate(pc, hb, false);
        assert!(t.lookup(pc, ha).unwrap().taken());
        assert!(!t.lookup(pc, hb).unwrap().taken());
    }

    #[test]
    fn tagged_gshare_storage_counts_tags_and_counters() {
        // Table 3 at 8KB: 1024 * 6-way, 18 BOR bits; with 9-bit tags this is
        // 1024*6*(9+2) bits ≈ 8.25 KB — within the paper's ±10% sizing slop.
        let t = TaggedGshare::new(1024, 6, 9, 18);
        assert_eq!(t.storage_bits(), 1024 * 6 * 11);
    }

    #[test]
    fn tagged_gshare_as_direction_predictor_defaults_not_taken() {
        let t = TaggedGshare::new(64, 2, 8, 10);
        assert!(!t.predict(Pc::new(0x10), HistoryBits::new(10)).taken());
    }
}
