//! GAs: two-level adaptive prediction with global history concatenation.

use crate::{CounterTable, DirectionPredictor, HistoryBits, Pc, PredictBlock, Prediction};

/// The GAs two-level adaptive predictor (Yeh/Patt).
///
/// The table index is the concatenation of low PC bits with the global
/// history: unlike [`Gshare`](crate::Gshare), which XORs the two (sharing
/// table entries among many contexts), GAs dedicates a history column per
/// address group. The paper cites it as the classic *aliased* global-history
/// scheme that de-aliased predictors (2Bc-gskew, YAGS) improve upon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GAs {
    table: CounterTable,
    history_len: usize,
}

impl GAs {
    /// Creates a GAs predictor with `entries` counters, of which the low
    /// `history_len` index bits come from history and the rest from the PC.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_len` exceeds
    /// the index width.
    #[must_use]
    pub fn new(entries: usize, history_len: usize) -> Self {
        let table = CounterTable::new(entries, 2);
        assert!(
            history_len <= table.index_bits(),
            "history length {history_len} exceeds index width {}",
            table.index_bits()
        );
        Self { table, history_len }
    }

    fn index(&self, pc: Pc, hist: HistoryBits) -> u64 {
        let pc_bits = pc.addr() >> 2;
        (pc_bits << self.history_len) | hist.recent(self.history_len)
    }
}

impl DirectionPredictor for GAs {
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
        "gas"
    }

    /// Fused kernel: one concatenated index per element serves the read and
    /// the training write. The history advances in a local register from
    /// `start` and the outcome mask.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        let mut bits = 0u64;
        let mut hist = start;
        for (i, &pc) in pcs.iter().enumerate() {
            let taken = (outcomes >> i) & 1 == 1;
            let idx = self.index(pc, hist);
            bits |= u64::from(self.table.predict_update(idx, taken)) << i;
            hist.push(taken);
        }
        PredictBlock::from_parts(bits, pcs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_columns_are_disjoint() {
        let mut p = GAs::new(1 << 12, 4);
        let pc = Pc::new(0x100);
        let ha = HistoryBits::from_raw(0b0000, 4);
        let hb = HistoryBits::from_raw(0b0001, 4);
        p.update(pc, ha, true);
        p.update(pc, ha, true);
        assert!(p.predict(pc, ha).taken());
        assert!(
            !p.predict(pc, hb).taken(),
            "adjacent history column untouched"
        );
    }

    #[test]
    fn learns_alternating_branch() {
        let mut p = GAs::new(1 << 12, 6);
        let pc = Pc::new(0x200);
        let mut bhr = HistoryBits::new(6);
        for i in 0..200 {
            let taken = i % 2 == 0;
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        let mut correct = 0;
        for i in 0..20 {
            let taken = i % 2 == 0;
            if p.predict(pc, bhr).taken() == taken {
                correct += 1;
            }
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        assert_eq!(correct, 20);
    }

    #[test]
    #[should_panic(expected = "exceeds index width")]
    fn rejects_history_longer_than_index() {
        let _ = GAs::new(256, 10);
    }
}
