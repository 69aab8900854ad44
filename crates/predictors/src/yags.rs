//! YAGS — "Yet Another Global Scheme" (Eden/Mudge), a tagged de-aliased
//! predictor the paper lists alongside 2Bc-gskew.

use crate::index::mix2;
use crate::{
    CounterTable, DirectionPredictor, HistoryBits, Pc, PredictBlock, Prediction, SatCounter,
    TaggedTable,
};

/// The YAGS predictor.
///
/// A choice PHT (bimodal, indexed by PC) gives each branch's bias. Two small
/// tagged *direction caches* store only the exceptions: the T-cache holds
/// contexts where a bias-taken branch went not-taken would be recorded in the
/// NT-cache and vice versa. On a lookup, the cache *opposite* the bias is
/// probed; a tag hit overrides the bias.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Yags {
    choice: CounterTable,
    taken_cache: TaggedTable<SatCounter>,
    not_taken_cache: TaggedTable<SatCounter>,
    history_len: usize,
}

impl Yags {
    /// Creates a YAGS predictor.
    ///
    /// `choice_entries` bimodal counters; each direction cache has
    /// `cache_sets` × `cache_ways` tagged counters with `tag_bits` tags;
    /// `history_len` bits of global history feed the cache hashes.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two table sizes or out-of-range widths.
    #[must_use]
    pub fn new(
        choice_entries: usize,
        cache_sets: usize,
        cache_ways: usize,
        tag_bits: usize,
        history_len: usize,
    ) -> Self {
        Self {
            choice: CounterTable::new(choice_entries, 2),
            taken_cache: TaggedTable::new(
                cache_sets,
                cache_ways,
                tag_bits,
                SatCounter::weakly_taken(2),
            ),
            not_taken_cache: TaggedTable::new(
                cache_sets,
                cache_ways,
                tag_bits,
                SatCounter::weakly_not_taken(2),
            ),
            history_len,
        }
    }

    fn choice_index(&self, pc: Pc) -> u64 {
        pc.addr() >> 2
    }

    /// The direction caches' set index (a gshare index) and tag.
    fn cache_hash(&self, pc: Pc, hist: HistoryBits) -> (u64, u64) {
        mix2(
            pc.addr(),
            hist.recent(self.history_len),
            self.history_len,
            self.taken_cache.index_bits(),
            self.taken_cache.tag_bits(),
        )
    }
}

impl DirectionPredictor for Yags {
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        let bias = self.choice.counter(self.choice_index(pc)).is_taken();
        let (idx, tag) = self.cache_hash(pc, hist);
        // Probe the cache recording exceptions to the bias.
        let exception = if bias {
            self.not_taken_cache.peek(idx, tag)
        } else {
            self.taken_cache.peek(idx, tag)
        };
        match exception {
            Some(c) => Prediction::with_confidence(c.is_taken(), i32::from(c.is_strong())),
            None => Prediction::taken_or_not(bias),
        }
    }

    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        let ci = self.choice_index(pc);
        let bias = self.choice.counter(ci).is_taken();
        let (idx, tag) = self.cache_hash(pc, hist);

        // The prediction the exception cache gave *before* this update.
        let cache = if bias {
            &mut self.not_taken_cache
        } else {
            &mut self.taken_cache
        };
        let prior = cache.peek(idx, tag).map(SatCounter::is_taken);

        // Train the hitting entry, or allocate when the bias mispredicted
        // this context.
        if let Some(c) = cache.lookup(idx, tag) {
            c.update(taken);
        } else if taken != bias {
            cache.insert(idx, tag, SatCounter::weak_for(2, taken));
        }

        // The choice PHT trains as a bimodal, except it is left alone when
        // the exception cache already provided the correct prediction for a
        // context where the bias is wrong (standard YAGS policy): the bias
        // stays meaningful for the branch's other contexts.
        let cache_was_correct_exception = prior == Some(taken) && taken != bias;
        if !cache_was_correct_exception {
            self.choice.update(ci, taken);
        }
    }

    fn history_len(&self) -> usize {
        self.history_len
    }

    fn storage_bits(&self) -> usize {
        let cache_bits = |c: &TaggedTable<SatCounter>| c.capacity() * (c.tag_bits() + 2);
        self.choice.storage_bits()
            + cache_bits(&self.taken_cache)
            + cache_bits(&self.not_taken_cache)
    }

    fn name(&self) -> &'static str {
        "yags"
    }

    /// Fused kernel: choice index, bias and the cache hash are computed once
    /// per element; the exception cache's pre-update direction serves both
    /// as the prediction and as the `prior` the choice-update policy needs.
    /// The history advances in a local register from `start` and the
    /// outcome mask.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        let mut out = PredictBlock::new();
        let mut hist = start;
        for (i, &pc) in pcs.iter().enumerate() {
            let taken = (outcomes >> i) & 1 == 1;
            let ci = self.choice_index(pc);
            let bias = self.choice.counter(ci).is_taken();
            let (idx, tag) = self.cache_hash(pc, hist);

            let cache = if bias {
                &mut self.not_taken_cache
            } else {
                &mut self.taken_cache
            };
            let prior = cache.peek(idx, tag).map(SatCounter::is_taken);
            out.push(prior.unwrap_or(bias));

            if let Some(c) = cache.lookup(idx, tag) {
                c.update(taken);
            } else if taken != bias {
                cache.insert(idx, tag, SatCounter::weak_for(2, taken));
            }

            let cache_was_correct_exception = prior == Some(taken) && taken != bias;
            if !cache_was_correct_exception {
                self.choice.update(ci, taken);
            }
            hist.push(taken);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Yags {
        Yags::new(1024, 128, 2, 8, 10)
    }

    #[test]
    fn bias_only_branch_allocates_at_most_cold_start_exceptions() {
        let mut p = small();
        let pc = Pc::new(0x100);
        let mut bhr = HistoryBits::new(10);
        for _ in 0..100 {
            p.update(pc, bhr, true);
            bhr.push(true);
        }
        assert!(p.predict(pc, bhr).taken());
        // Only the cold-start mispredicts (choice counter warming from
        // weakly-not-taken) may have allocated exception entries.
        assert!(
            p.taken_cache.occupancy() + p.not_taken_cache.occupancy() <= 2,
            "steady-state biased branch must not keep allocating exceptions"
        );
    }

    #[test]
    fn exception_contexts_override_bias() {
        // Branch is taken except when history ends 0b11.
        let mut p = small();
        let pc = Pc::new(0x200);
        let mut bhr = HistoryBits::new(10);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..2000 {
            let taken = bhr.recent(2) != 0b11;
            let pred = p.predict(pc, bhr).taken();
            if i >= 1000 {
                total += 1;
                correct += u32::from(pred == taken);
            }
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        assert!(
            correct * 100 >= total * 95,
            "history exception should be learned: {correct}/{total}"
        );
    }

    #[test]
    fn storage_counts_choice_and_caches() {
        let p = Yags::new(1024, 128, 2, 8, 10);
        assert_eq!(p.storage_bits(), 1024 * 2 + 2 * (128 * 2 * (8 + 2)));
    }
}
