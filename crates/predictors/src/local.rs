//! Local (per-address) two-level prediction, PAs / Alpha 21264 style.

use crate::history::mask;
use crate::{CounterTable, DirectionPredictor, HistoryBits, Pc, PredictBlock, Prediction};

/// A local-history two-level predictor.
///
/// Level 1 is a table of per-branch history registers; level 2 a table of
/// two-bit (here configurable-width) counters indexed by the local history.
/// The Alpha 21264's tournament predictor pairs such a local component with
/// a global one; the paper mentions that front end (§5) as a candidate host
/// for a prophet/critic hybrid.
///
/// Unlike the global-history predictors in this crate, `Local` keeps its own
/// level-1 state and updates it *non-speculatively* in
/// [`update`](DirectionPredictor::update); the caller's history register is
/// ignored. This matches how local components are modelled in accuracy
/// studies: their first level cannot be checkpoint-repaired cheaply, so they
/// train at commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Local {
    histories: Vec<u64>,
    history_len: usize,
    table: CounterTable,
}

impl Local {
    /// Creates a local predictor with `history_entries` per-branch history
    /// registers of `history_len` bits and `counter_entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if either entry count is not a power of two, or
    /// `history_len > 32`.
    #[must_use]
    pub fn new(history_entries: usize, history_len: usize, counter_entries: usize) -> Self {
        assert!(history_entries.is_power_of_two());
        assert!(
            history_len <= 32,
            "local history length {history_len} too long"
        );
        Self {
            histories: vec![0; history_entries],
            history_len,
            table: CounterTable::new(counter_entries, 2),
        }
    }

    fn l1_index(&self, pc: Pc) -> usize {
        ((pc.addr() >> 2) & (self.histories.len() as u64 - 1)) as usize
    }

    fn l2_index(&self, pc: Pc) -> u64 {
        let local = self.histories[self.l1_index(pc)] & mask(self.history_len);
        // Mix a few PC bits above the history so branches sharing an L1 slot
        // do not fully collide in L2.
        local ^ ((pc.addr() >> 2) << self.history_len)
    }
}

impl DirectionPredictor for Local {
    fn predict(&self, pc: Pc, _hist: HistoryBits) -> Prediction {
        let c = self.table.counter(self.l2_index(pc));
        Prediction::with_confidence(c.is_taken(), i32::from(c.is_strong()))
    }

    fn update(&mut self, pc: Pc, _hist: HistoryBits, taken: bool) {
        self.table.update(self.l2_index(pc), taken);
        let slot = self.l1_index(pc);
        self.histories[slot] =
            ((self.histories[slot] << 1) | u64::from(taken)) & mask(self.history_len);
    }

    fn history_len(&self) -> usize {
        0 // consumes no caller-provided (global) history
    }

    fn storage_bits(&self) -> usize {
        self.histories.len() * self.history_len + self.table.storage_bits()
    }

    fn name(&self) -> &'static str {
        "local"
    }

    /// Fused kernel: the L1 slot and L2 index are derived once per element;
    /// the L2 index is read *before* this element's history push, exactly as
    /// the scalar predict-before-update ordering demands. `Local` ignores
    /// the caller's global history entirely, so the chunk's addresses and
    /// outcome mask are all it needs.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, _start: HistoryBits) -> PredictBlock {
        let mut bits = 0u64;
        for (i, &pc) in pcs.iter().enumerate() {
            let taken = (outcomes >> i) & 1 == 1;
            let slot = self.l1_index(pc);
            let l2 = self.l2_index(pc);
            bits |= u64::from(self.table.predict_update(l2, taken)) << i;
            self.histories[slot] =
                ((self.histories[slot] << 1) | u64::from(taken)) & mask(self.history_len);
        }
        PredictBlock::from_parts(bits, pcs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> HistoryBits {
        HistoryBits::new(0)
    }

    #[test]
    fn learns_short_period_pattern() {
        // T T N repeating is invisible to a bimodal but trivial for local
        // history.
        let mut p = Local::new(1024, 10, 1024);
        let pc = Pc::new(0x900);
        let pattern = [true, true, false];
        for i in 0..600 {
            p.update(pc, g(), pattern[i % 3]);
        }
        let mut correct = 0;
        for i in 0..30 {
            if p.predict(pc, g()).taken() == pattern[i % 3] {
                correct += 1;
            }
            p.update(pc, g(), pattern[i % 3]);
        }
        assert!(
            correct >= 28,
            "local pattern nearly perfect, got {correct}/30"
        );
    }

    #[test]
    fn separate_branches_have_separate_histories() {
        let mut p = Local::new(1024, 8, 4096);
        let a = Pc::new(0x100);
        let b = Pc::new(0x104);
        for _ in 0..50 {
            p.update(a, g(), true);
            p.update(b, g(), false);
        }
        assert!(p.predict(a, g()).taken());
        assert!(!p.predict(b, g()).taken());
    }

    #[test]
    fn storage_includes_both_levels() {
        let p = Local::new(1024, 10, 1024);
        assert_eq!(p.storage_bits(), 1024 * 10 + 1024 * 2);
    }
}
