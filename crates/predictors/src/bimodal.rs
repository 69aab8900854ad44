//! Bimodal predictor: a table of two-bit counters indexed by branch address.

use crate::{CounterTable, DirectionPredictor, HistoryBits, Pc, PredictBlock, Prediction};

/// The bimodal (per-address two-bit counter) predictor.
///
/// This is the simplest dynamic predictor and the BIM bank of
/// [`BcGskew`](crate::BcGskew). It ignores history entirely, capturing only
/// each branch's bias.
///
/// # Examples
///
/// ```
/// use predictors::{Bimodal, DirectionPredictor, HistoryBits, Pc};
///
/// let mut p = Bimodal::new(4096);
/// let pc = Pc::new(0x8000);
/// let h = HistoryBits::new(0);
/// p.update(pc, h, true);
/// p.update(pc, h, true);
/// assert!(p.predict(pc, h).taken());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bimodal {
    table: CounterTable,
}

impl Bimodal {
    /// Creates a bimodal predictor with `entries` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a non-zero power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        Self {
            table: CounterTable::new(entries, 2),
        }
    }

    fn index(&self, pc: Pc) -> u64 {
        pc.addr() >> 2
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&self, pc: Pc, _hist: HistoryBits) -> Prediction {
        let c = self.table.counter(self.index(pc));
        Prediction::with_confidence(c.is_taken(), i32::from(c.is_strong()))
    }

    fn update(&mut self, pc: Pc, _hist: HistoryBits, taken: bool) {
        self.table.update(self.index(pc), taken);
    }

    fn history_len(&self) -> usize {
        0
    }

    fn storage_bits(&self) -> usize {
        self.table.storage_bits()
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }

    /// Fused kernel: one index computation and one packed-word visit per
    /// element. Bimodal reads no history, so `start` goes unused.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, _start: HistoryBits) -> PredictBlock {
        let mut bits = 0u64;
        for (i, &pc) in pcs.iter().enumerate() {
            let taken = (outcomes >> i) & 1 == 1;
            bits |= u64::from(self.table.predict_update(self.index(pc), taken)) << i;
        }
        PredictBlock::from_parts(bits, pcs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> HistoryBits {
        HistoryBits::new(0)
    }

    #[test]
    fn learns_bias_per_branch() {
        let mut p = Bimodal::new(1024);
        let a = Pc::new(0x1000);
        let b = Pc::new(0x1004);
        for _ in 0..4 {
            p.update(a, h(), true);
            p.update(b, h(), false);
        }
        assert!(p.predict(a, h()).taken());
        assert!(!p.predict(b, h()).taken());
    }

    #[test]
    fn aliasing_branches_share_a_counter() {
        let mut p = Bimodal::new(16);
        let a = Pc::new(0x0);
        let b = Pc::new(16 * 4); // same index modulo table size
        for _ in 0..4 {
            p.update(a, h(), true);
        }
        assert!(p.predict(b, h()).taken(), "aliased branch sees a's state");
    }

    #[test]
    fn ignores_history() {
        let mut p = Bimodal::new(64);
        let pc = Pc::new(0x40);
        p.update(pc, h(), true);
        p.update(pc, h(), true);
        let h1 = HistoryBits::from_raw(0b1010, 4);
        let h2 = HistoryBits::from_raw(0b0101, 4);
        assert_eq!(p.predict(pc, h1).taken(), p.predict(pc, h2).taken());
    }

    #[test]
    fn storage_accounting() {
        let p = Bimodal::new(8192);
        assert_eq!(p.storage_bits(), 8192 * 2);
        assert_eq!(p.storage_bytes(), 2048);
        assert_eq!(p.history_len(), 0);
    }

    #[test]
    fn hysteresis_survives_single_flip() {
        let mut p = Bimodal::new(64);
        let pc = Pc::new(0x40);
        for _ in 0..3 {
            p.update(pc, h(), true);
        }
        p.update(pc, h(), false);
        assert!(p.predict(pc, h()).taken());
    }
}
