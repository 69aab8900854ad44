//! The critic role: predictors that judge the prophet using history *and*
//! future bits from the branch outcome register.

use predictors::index::mix2;
use predictors::{
    DirectionPredictor, HistoryBits, Pc, Perceptron, TagLookup, Tage, TaggedGshare, TaggedTable,
};

use crate::critique::CriticDecision;

/// One element of a batched critic training pass: the branch, the BOR value
/// its critique consumed, its resolved outcome, and the prophet's original
/// prediction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CriticTrainInput {
    /// Branch address.
    pub pc: Pc,
    /// The BOR value used by the critique — including wrong-path future bits.
    pub bor: HistoryBits,
    /// The branch's resolved outcome.
    pub outcome: bool,
    /// The prophet's original prediction (drives filtered allocation).
    pub prophet_pred: bool,
}

/// A critic: given a branch, the BOR value (history + future bits) and the
/// prophet's prediction, it renders a [`CriticDecision`].
///
/// Training happens at commit time with the *same BOR value the critique
/// consumed* — including any wrong-path future bits (§3.3): “If the BOR
/// value did not contain the future bits for the wrong path, the critic
/// would never be trained to recognize when the prophet has mispredicted a
/// branch and gone down the wrong path.”
pub trait Critic {
    /// Critiques the prophet's prediction for the branch at `pc`.
    fn critique(&self, pc: Pc, bor: HistoryBits, prophet_pred: bool) -> CriticDecision;

    /// Commit-time training with the branch's resolved outcome.
    ///
    /// `bor` must be the value used by [`critique`](Self::critique);
    /// `prophet_pred` the prophet's original prediction (needed by filtered
    /// critics, which only allocate on prophet mispredicts).
    fn train(&mut self, pc: Pc, bor: HistoryBits, outcome: bool, prophet_pred: bool);

    /// The BOR length this critic consumes.
    fn bor_len(&self) -> usize;

    /// Storage budget in bits (prediction structures + filter tags).
    fn storage_bits(&self) -> usize;

    /// Short human-readable name.
    fn name(&self) -> &'static str;

    /// Storage budget in bytes, rounded up.
    fn storage_bytes(&self) -> usize {
        self.storage_bits().div_ceil(8)
    }

    /// Batched commit-time training: [`train`](Self::train) per element, in
    /// commit order. The hybrid engine defers trainings and flushes them in
    /// blocks; the default loop is semantically identical to eager
    /// per-branch training because training never reads state that a
    /// critique between two commits could have changed.
    fn train_block(&mut self, inputs: &[CriticTrainInput]) {
        for input in inputs {
            self.train(input.pc, input.bor, input.outcome, input.prophet_pred);
        }
    }
}

/// The no-op critic: always implicitly agrees and never trains.
///
/// A hybrid with a `NullCritic` *is* the conventional “prophet alone”
/// baseline of Figures 6, 7 and 9.
#[derive(Copy, Clone, Debug, Default)]
pub struct NullCritic;

impl NullCritic {
    /// Creates the no-op critic.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Critic for NullCritic {
    fn critique(&self, _pc: Pc, _bor: HistoryBits, prophet_pred: bool) -> CriticDecision {
        CriticDecision::implicit_agree(prophet_pred)
    }

    fn train(&mut self, _pc: Pc, _bor: HistoryBits, _outcome: bool, _prophet_pred: bool) {}

    fn bor_len(&self) -> usize {
        0
    }

    fn storage_bits(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// An unfiltered critic wrapping any [`DirectionPredictor`].
///
/// It engages on *every* branch and trains on every commit — the
/// configuration of Figure 6(a), whose accuracy degrades beyond 8 future
/// bits exactly because critiques for easy branches crowd out the hard ones.
#[derive(Clone, Debug)]
pub struct UnfilteredCritic<P> {
    inner: P,
}

impl<P: DirectionPredictor> UnfilteredCritic<P> {
    /// Wraps a predictor as an always-engaged critic.
    #[must_use]
    pub fn new(inner: P) -> Self {
        Self { inner }
    }

    /// The wrapped predictor.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: DirectionPredictor> Critic for UnfilteredCritic<P> {
    fn critique(&self, pc: Pc, bor: HistoryBits, _prophet_pred: bool) -> CriticDecision {
        CriticDecision::explicit(self.inner.predict(pc, bor).taken())
    }

    fn train(&mut self, pc: Pc, bor: HistoryBits, outcome: bool, _prophet_pred: bool) {
        self.inner.update(pc, bor, outcome);
    }

    fn bor_len(&self) -> usize {
        self.inner.history_len()
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn name(&self) -> &'static str {
        "unfiltered"
    }
}

/// When a filtered critic allocates new entries (§4 ablation).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum AllocationPolicy {
    /// The paper's policy: allocate only when the branch missed the filter
    /// *and* the prophet mispredicted it, so the critic's capacity is spent
    /// exclusively on hard branches.
    #[default]
    OnProphetMispredict,
    /// The naive alternative: allocate on every filter miss. Used by the
    /// ablation experiment to quantify what §4's policy buys.
    OnEveryMiss,
}

/// The tagged gshare critic (§6): a set-associative tagged table of two-bit
/// counters where the tag table *is* the filter.
///
/// * Tag hit → the counter's direction is the critique (engaged).
/// * Tag miss → implicit agree.
/// * Training (§4): a hit trains the counter; a miss allocates a new entry
///   **only when the prophet mispredicted**, seeding the counter toward the
///   branch's outcome.
#[derive(Clone, Debug)]
pub struct TaggedGshareCritic {
    table: TaggedGshare,
    policy: AllocationPolicy,
    confident_only: bool,
}

impl TaggedGshareCritic {
    /// Wraps a [`TaggedGshare`] structure as a critic with the paper's
    /// allocation policy.
    #[must_use]
    pub fn new(table: TaggedGshare) -> Self {
        Self::with_policy(table, AllocationPolicy::OnProphetMispredict)
    }

    /// Wraps a [`TaggedGshare`] structure with an explicit allocation
    /// policy (for the §4 ablation).
    #[must_use]
    pub fn with_policy(table: TaggedGshare, policy: AllocationPolicy) -> Self {
        Self {
            table,
            policy,
            confident_only: false,
        }
    }

    /// Sets the override-confidence threshold: when enabled, a critique
    /// that *disagrees* with the prophet is only issued from a saturated
    /// (strong) counter; a weak disagreement is downgraded to an explicit
    /// agree. Training is unchanged, so a weak counter still strengthens
    /// toward an override on the next occurrence. This is the
    /// `sim::tune` "override threshold" search dimension.
    pub fn set_confident_override(&mut self, on: bool) {
        self.confident_only = on;
    }

    /// Fraction of table entries currently valid, for occupancy studies.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.table.occupancy() as f64 / self.table.capacity() as f64
    }
}

impl Critic for TaggedGshareCritic {
    fn critique(&self, pc: Pc, bor: HistoryBits, prophet_pred: bool) -> CriticDecision {
        match self.table.lookup(pc, bor) {
            Some(pred) => {
                let disagrees = pred.taken() != prophet_pred;
                if disagrees && self.confident_only && pred.confidence() == 0 {
                    // Weak counter: not confident enough to flush the
                    // pipeline over; concur explicitly.
                    CriticDecision::explicit(prophet_pred)
                } else {
                    CriticDecision::explicit(pred.taken())
                }
            }
            None => CriticDecision::implicit_agree(prophet_pred),
        }
    }

    fn train(&mut self, pc: Pc, bor: HistoryBits, outcome: bool, prophet_pred: bool) {
        if !self.table.train_existing(pc, bor, outcome) {
            let allocate = match self.policy {
                AllocationPolicy::OnProphetMispredict => prophet_pred != outcome,
                AllocationPolicy::OnEveryMiss => true,
            };
            if allocate {
                self.table.allocate(pc, bor, outcome);
            }
        }
    }

    fn bor_len(&self) -> usize {
        self.table.history_len()
    }

    fn storage_bits(&self) -> usize {
        self.table.storage_bits()
    }

    fn name(&self) -> &'static str {
        "tagged-gshare"
    }
}

/// A TAGE critic: the tagged banks double as the engagement filter.
///
/// TAGE is self-filtering in exactly the sense §4 builds a filter for — a
/// tagged bank only holds contexts allocated on a mispredict, so a tag hit
/// *means* “this context has been hard before”. The critique engages on a
/// tagged-bank hit and implicitly agrees when the lookup falls through to
/// the bimodal base; training is ordinary TAGE training over the BOR, whose
/// allocate-on-mispredict rule plays the role of the §4 allocation policy.
#[derive(Clone, Debug)]
pub struct TageCritic {
    inner: Tage,
    confident_only: bool,
}

impl TageCritic {
    /// Wraps a [`Tage`] predictor as a self-filtering critic.
    #[must_use]
    pub fn new(inner: Tage) -> Self {
        Self {
            inner,
            confident_only: false,
        }
    }

    /// Sets the override-confidence threshold: when enabled, a disagreeing
    /// critique from a provider counter at the flip boundary (confidence 0)
    /// is downgraded to an explicit agree, mirroring
    /// [`TaggedGshareCritic::set_confident_override`].
    pub fn set_confident_override(&mut self, on: bool) {
        self.confident_only = on;
    }

    /// The wrapped TAGE predictor.
    #[must_use]
    pub fn inner(&self) -> &Tage {
        &self.inner
    }
}

impl Critic for TageCritic {
    fn critique(&self, pc: Pc, bor: HistoryBits, prophet_pred: bool) -> CriticDecision {
        match self.inner.predict_tagged(pc, bor) {
            Some(pred) => {
                let disagrees = pred.taken() != prophet_pred;
                if disagrees && self.confident_only && pred.confidence() == 0 {
                    CriticDecision::explicit(prophet_pred)
                } else {
                    CriticDecision::explicit(pred.taken())
                }
            }
            None => CriticDecision::implicit_agree(prophet_pred),
        }
    }

    fn train(&mut self, pc: Pc, bor: HistoryBits, outcome: bool, _prophet_pred: bool) {
        self.inner.update(pc, bor, outcome);
    }

    fn bor_len(&self) -> usize {
        self.inner.history_len()
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn name(&self) -> &'static str {
        "tage"
    }
}

/// The filtered perceptron critic (§4, Figure 3): an ordinary perceptron
/// plus an N-way associative table of tags.
///
/// The perceptron and the tag table are accessed in parallel; the
/// perceptron's prediction is only *used* on a tag hit. The filter hashes a
/// fixed slice of the BOR (18 bits in Table 3) while the perceptron sees its
/// own, usually longer, slice.
#[derive(Clone, Debug)]
pub struct FilteredPerceptronCritic {
    perceptron: Perceptron,
    filter: TaggedTable<()>,
    filter_hist_len: usize,
}

impl FilteredPerceptronCritic {
    /// Creates a filtered perceptron critic.
    ///
    /// `filter_sets`×`filter_ways` tag-only filter entries with
    /// `tag_bits`-wide tags hashed from `filter_hist_len` BOR bits.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two `filter_sets` or out-of-range widths.
    #[must_use]
    pub fn new(
        perceptron: Perceptron,
        filter_sets: usize,
        filter_ways: usize,
        tag_bits: usize,
        filter_hist_len: usize,
    ) -> Self {
        Self {
            perceptron,
            filter: TaggedTable::new(filter_sets, filter_ways, tag_bits, ()),
            filter_hist_len,
        }
    }

    fn filter_hash(&self, pc: Pc, bor: HistoryBits) -> (u64, u64) {
        mix2(
            pc.addr(),
            bor.recent(self.filter_hist_len),
            self.filter_hist_len,
            self.filter.index_bits(),
            self.filter.tag_bits(),
        )
    }

    /// Whether the filter currently holds the context `(pc, bor)`.
    #[must_use]
    pub fn filter_hit(&self, pc: Pc, bor: HistoryBits) -> bool {
        let (idx, tag) = self.filter_hash(pc, bor);
        self.filter.peek(idx, tag).is_some()
    }
}

impl Critic for FilteredPerceptronCritic {
    fn critique(&self, pc: Pc, bor: HistoryBits, prophet_pred: bool) -> CriticDecision {
        if self.filter_hit(pc, bor) {
            CriticDecision::explicit(self.perceptron.predict(pc, bor).taken())
        } else {
            CriticDecision::implicit_agree(prophet_pred)
        }
    }

    fn train(&mut self, pc: Pc, bor: HistoryBits, outcome: bool, prophet_pred: bool) {
        let (idx, tag) = self.filter_hash(pc, bor);
        if self.filter.lookup(idx, tag).is_some() {
            // “The critic is only trained for branches that have hits” (§4).
            self.perceptron.update(pc, bor, outcome);
        } else if prophet_pred != outcome {
            // “New entries are inserted into the table when a branch has a
            // tag miss and it is mispredicted” (§4); the prediction
            // structures are initialized according to the branch's outcome.
            let existed = self.filter.insert(idx, tag, ());
            debug_assert_eq!(existed, TagLookup::Miss);
            self.perceptron.update(pc, bor, outcome);
        }
    }

    fn bor_len(&self) -> usize {
        self.perceptron.history_len().max(self.filter_hist_len)
    }

    fn storage_bits(&self) -> usize {
        self.perceptron.storage_bits() + self.filter.capacity() * self.filter.tag_bits()
    }

    fn name(&self) -> &'static str {
        "filtered-perceptron"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictors::Gshare;

    fn bor(bits: u64, len: usize) -> HistoryBits {
        HistoryBits::from_raw(bits, len)
    }

    #[test]
    fn null_critic_always_implicitly_agrees() {
        let c = NullCritic::new();
        for pred in [true, false] {
            let d = c.critique(Pc::new(0x10), bor(0b1010, 8), pred);
            assert!(!d.engaged);
            assert_eq!(d.direction, pred);
        }
        assert_eq!(c.storage_bits(), 0);
    }

    #[test]
    fn unfiltered_critic_always_engages() {
        let c = UnfilteredCritic::new(Gshare::new(256, 8));
        let d = c.critique(Pc::new(0x20), bor(0, 8), true);
        assert!(d.engaged);
    }

    #[test]
    fn unfiltered_critic_learns_to_disagree() {
        // Context 0b11 (two taken futures) means the branch was actually
        // not-taken; the critic should learn to output not-taken there.
        let mut c = UnfilteredCritic::new(Gshare::new(256, 8));
        let pc = Pc::new(0x30);
        let ctx = bor(0b11, 8);
        for _ in 0..4 {
            c.train(pc, ctx, false, true);
        }
        let d = c.critique(pc, ctx, true);
        assert!(d.engaged);
        assert!(!d.direction, "critic should disagree with taken prophecy");
        assert!(!d.agrees_with(true));
    }

    #[test]
    fn tagged_gshare_critic_misses_until_prophet_mispredicts() {
        let mut c = TaggedGshareCritic::new(TaggedGshare::new(256, 6, 9, 18));
        let pc = Pc::new(0x40);
        let ctx = bor(0x2_aaaa, 18);
        // Correctly predicted branch at a miss: no allocation.
        c.train(pc, ctx, true, true);
        assert!(!c.critique(pc, ctx, true).engaged);
        // Prophet mispredict at a miss: allocate.
        c.train(pc, ctx, false, true);
        let d = c.critique(pc, ctx, true);
        assert!(d.engaged);
        assert!(!d.direction, "seeded toward actual outcome (not-taken)");
    }

    #[test]
    fn tagged_gshare_critic_trains_existing_even_when_prophet_correct() {
        let mut c = TaggedGshareCritic::new(TaggedGshare::new(256, 6, 9, 18));
        let pc = Pc::new(0x44);
        let ctx = bor(0x1_5555, 18);
        c.train(pc, ctx, false, true); // allocate, weakly not-taken
        c.train(pc, ctx, true, true); // hit: moves toward taken
        c.train(pc, ctx, true, true); // hit: now taken
        assert!(c.critique(pc, ctx, true).direction);
    }

    #[test]
    fn tage_critic_implicitly_agrees_until_tage_allocates() {
        let mut c = TageCritic::new(Tage::new(256, 64, 4, 8, 18));
        let pc = Pc::new(0x48);
        let ctx = bor(0x2_aaaa, 18);
        // Cold: no tagged bank holds this context → implicit agree.
        assert!(!c.critique(pc, ctx, true).engaged);
        // TAGE mispredicts (base defaults weakly not-taken, outcome alternates
        // around it): training allocates a tagged entry, after which the
        // critique engages.
        for _ in 0..4 {
            c.train(pc, ctx, true, false);
            c.train(pc, ctx, false, false);
        }
        assert!(c.critique(pc, ctx, true).engaged);
    }

    #[test]
    fn tage_critic_confident_override_downgrades_weak_disagreement() {
        let mut c = TageCritic::new(Tage::new(256, 64, 4, 8, 18));
        let pc = Pc::new(0x4c);
        let ctx = bor(0x1_5555, 18);
        // Allocate a tagged entry seeded weakly not-taken.
        c.train(pc, ctx, false, true);
        let d = c.critique(pc, ctx, true);
        if d.engaged && !d.direction {
            // The disagreeing counter is freshly allocated (weak). With the
            // confidence gate on, the same critique must concur instead.
            c.set_confident_override(true);
            let gated = c.critique(pc, ctx, true);
            assert!(gated.engaged);
            assert!(gated.direction, "weak disagreement must be downgraded");
        }
    }

    #[test]
    fn filtered_perceptron_implicitly_agrees_on_filter_miss() {
        let c = FilteredPerceptronCritic::new(Perceptron::new(73, 13), 128, 3, 9, 18);
        let d = c.critique(Pc::new(0x50), bor(0x5a5a, 18), true);
        assert!(!d.engaged);
        assert!(d.direction);
    }

    #[test]
    fn filtered_perceptron_allocates_only_on_prophet_mispredict() {
        let mut c = FilteredPerceptronCritic::new(Perceptron::new(73, 13), 128, 3, 9, 18);
        let pc = Pc::new(0x60);
        let ctx = bor(0x00ff, 18);
        c.train(pc, ctx, true, true); // prophet correct: no allocation
        assert!(!c.filter_hit(pc, ctx));
        c.train(pc, ctx, false, true); // prophet wrong: allocate
        assert!(c.filter_hit(pc, ctx));
    }

    #[test]
    fn filtered_perceptron_learns_after_allocation() {
        let mut c = FilteredPerceptronCritic::new(Perceptron::new(73, 13), 128, 3, 9, 18);
        let pc = Pc::new(0x70);
        let ctx = bor(0x00ff, 18);
        for _ in 0..6 {
            c.train(pc, ctx, false, true);
        }
        let d = c.critique(pc, ctx, true);
        assert!(d.engaged);
        assert!(!d.direction);
    }

    #[test]
    fn storage_accounts_filter_tags() {
        let c = FilteredPerceptronCritic::new(Perceptron::new(73, 13), 128, 3, 9, 18);
        assert_eq!(
            c.storage_bits(),
            Perceptron::new(73, 13).storage_bits() + 128 * 3 * 9
        );
    }

    #[test]
    fn boxed_critic_is_object_safe() {
        let c: Box<dyn Critic> = Box::new(NullCritic::new());
        assert_eq!(c.name(), "none");
        let d = c.critique(Pc::new(0), bor(0, 0), false);
        assert!(!d.engaged);
    }
}
