//! 2Bc-gskew — the de-aliased hybrid of Seznec and Michaud, a derivative of
//! which was designed into the Compaq Alpha EV8.

use crate::history::{fold_bits, mask};
use crate::index::{skew, skew_g, skew_h, skew_pc};
use crate::{CounterTable, DirectionPredictor, HistoryBits, Pc, PredictBlock, Prediction};

/// The 2Bc-gskew predictor.
///
/// Four equally-sized banks of two-bit counters (§6 of the paper):
///
/// * **BIM** — a bimodal bank indexed by PC alone;
/// * **G0**, **G1** — gshare-like banks indexed by *skewed* hashes of
///   (PC, history), G1 using a longer history slice than G0;
/// * **META** — a meta-predictor bank choosing between BIM and the majority
///   vote of (BIM, G0, G1).
///
/// The partial-update policy follows Seznec/Michaud's description:
///
/// * On a correct final prediction, only the banks that *participated and
///   agreed* are strengthened (never weakened).
/// * On a misprediction, all direction banks are updated toward the outcome.
/// * META is updated only when BIM and the majority vote disagree, toward
///   whichever was correct.
///
/// # Examples
///
/// ```
/// use predictors::{BcGskew, DirectionPredictor, HistoryBits, Pc};
///
/// let mut p = BcGskew::new(2048, 11); // the paper's 2 KB configuration
/// let pc = Pc::new(0x400_200);
/// let h = HistoryBits::new(11);
/// p.update(pc, h, true);
/// p.update(pc, h, true);
/// assert!(p.predict(pc, h).taken());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BcGskew {
    bim: CounterTable,
    g0: CounterTable,
    g1: CounterTable,
    meta: CounterTable,
    history_len: usize,
    pc_memo: FoldMemo,
}

/// Direct-mapped memo of [`skew_pc`] values, keyed by low PC bits — the
/// scramble-and-fold is a pure function of the address, and replay streams
/// revisit a few hundred static branches, so the fused kernel can skip the
/// 64-bit fold on nearly every element.
///
/// This is simulator bookkeeping, not predictor state: it never influences
/// a prediction (a hit returns exactly what [`skew_pc`] would), so it is
/// excluded from storage accounting and compares equal to any other memo —
/// keeping the differential suite's whole-state `PartialEq` pinned to the
/// architectural tables alone.
#[derive(Clone, Debug)]
struct FoldMemo(Vec<(u64, u64)>);

impl FoldMemo {
    /// Entries; a power of two. `(0, 0)` is a *valid* initial state, not a
    /// sentinel: `skew_pc(0, w)` is 0 for every width.
    const LEN: usize = 256;

    fn new() -> Self {
        Self(vec![(0, 0); Self::LEN])
    }

    /// The memoized [`skew_pc`] at `width` bits.
    #[inline(always)]
    fn skew_pc_at(&mut self, addr: u64, width: usize) -> u64 {
        let slot = ((addr >> 2) as usize) & (Self::LEN - 1);
        let (mpc, mp) = self.0[slot];
        if mpc == addr {
            mp
        } else {
            let p = skew_pc(addr, width);
            self.0[slot] = (addr, p);
            p
        }
    }
}

impl PartialEq for FoldMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FoldMemo {}

/// Which banks said what for one lookup.
#[derive(Copy, Clone, Debug)]
struct BankVotes {
    bim: bool,
    g0: bool,
    g1: bool,
    use_majority: bool,
    majority: bool,
}

impl BcGskew {
    /// Creates a 2Bc-gskew with `entries_per_bank` counters in each of the
    /// four banks and `history_len` bits of global history.
    ///
    /// G0 uses roughly half the history length of G1, the short/long split
    /// of the original design.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_bank` is not a power of two or the history is
    /// too long.
    #[must_use]
    pub fn new(entries_per_bank: usize, history_len: usize) -> Self {
        assert!(history_len <= crate::MAX_HISTORY_BITS);
        Self {
            bim: CounterTable::new(entries_per_bank, 2),
            g0: CounterTable::new(entries_per_bank, 2),
            g1: CounterTable::new(entries_per_bank, 2),
            meta: CounterTable::new(entries_per_bank, 2),
            history_len,
            pc_memo: FoldMemo::new(),
        }
    }

    fn g0_history_len(&self) -> usize {
        self.history_len.div_ceil(2)
    }

    fn indices(&self, pc: Pc, hist: HistoryBits) -> (u64, u64, u64, u64) {
        let width = self.bim.index_bits();
        let short = hist.recent(self.g0_history_len());
        let long = hist.recent(self.history_len);
        let bim_idx = pc.addr() >> 2;
        let g0_idx = skew(0, pc.addr(), short, self.g0_history_len(), width);
        let g1_idx = skew(1, pc.addr(), long, self.history_len, width);
        let meta_idx = skew(2, pc.addr(), long, self.history_len, width);
        (bim_idx, g0_idx, g1_idx, meta_idx)
    }

    fn votes(&self, pc: Pc, hist: HistoryBits) -> BankVotes {
        self.votes_at(self.indices(pc, hist))
    }

    /// Reads the four banks at precomputed indices through the
    /// [`SatCounter`](crate::SatCounter) accessors — the readable
    /// reference formulation used by the scalar path.
    fn votes_at(&self, (bi, g0i, g1i, mi): (u64, u64, u64, u64)) -> BankVotes {
        let bim = self.bim.counter(bi).is_taken();
        let g0 = self.g0.counter(g0i).is_taken();
        let g1 = self.g1.counter(g1i).is_taken();
        let majority = (u8::from(bim) + u8::from(g0) + u8::from(g1)) >= 2;
        let use_majority = self.meta.counter(mi).is_taken();
        BankVotes {
            bim,
            g0,
            g1,
            use_majority,
            majority,
        }
    }

    /// The fused kernel's bank reader: the same votes as [`votes_at`] via
    /// the raw [`CounterTable::taken`] reads (pinned equal to the
    /// `SatCounter` accessor by the table's unit tests).
    fn votes_at_raw(&self, (bi, g0i, g1i, mi): (u64, u64, u64, u64)) -> BankVotes {
        let bim = self.bim.taken(bi);
        let g0 = self.g0.taken(g0i);
        let g1 = self.g1.taken(g1i);
        let majority = (u8::from(bim) + u8::from(g0) + u8::from(g1)) >= 2;
        let use_majority = self.meta.taken(mi);
        BankVotes {
            bim,
            g0,
            g1,
            use_majority,
            majority,
        }
    }

    fn final_of(v: BankVotes) -> bool {
        if v.use_majority {
            v.majority
        } else {
            v.bim
        }
    }

    /// The partial-update policy, applied to pre-read votes at precomputed
    /// indices — shared by the scalar and fused paths.
    fn train_at(&mut self, v: BankVotes, (bi, g0i, g1i, mi): (u64, u64, u64, u64), taken: bool) {
        let final_pred = Self::final_of(v);

        if final_pred == taken {
            // Partial update: strengthen only participating, agreeing banks.
            if v.use_majority {
                if v.bim == taken {
                    self.bim.update(bi, taken);
                }
                if v.g0 == taken {
                    self.g0.update(g0i, taken);
                }
                if v.g1 == taken {
                    self.g1.update(g1i, taken);
                }
            } else {
                self.bim.update(bi, taken);
            }
        } else {
            // Mispredict: retrain everything toward the outcome.
            self.bim.update(bi, taken);
            self.g0.update(g0i, taken);
            self.g1.update(g1i, taken);
        }

        // META learns which side to trust, but only when they disagree.
        if v.bim != v.majority {
            self.meta.update(mi, v.majority == taken);
        }
    }
}

impl DirectionPredictor for BcGskew {
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        let v = self.votes(pc, hist);
        let unanimous = v.bim == v.g0 && v.g0 == v.g1;
        Prediction::with_confidence(Self::final_of(v), i32::from(unanimous))
    }

    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        let banks = self.indices(pc, hist);
        let v = self.votes_at(banks);
        self.train_at(v, banks, taken);
    }

    fn history_len(&self) -> usize {
        self.history_len
    }

    fn storage_bits(&self) -> usize {
        self.bim.storage_bits()
            + self.g0.storage_bits()
            + self.g1.storage_bits()
            + self.meta.storage_bits()
    }

    fn name(&self) -> &'static str {
        "2bc-gskew"
    }

    /// Fused kernel: the four skewed indices and the bank votes are computed
    /// once per element and reused by the training half — the scalar path
    /// hashes and reads them twice (once in `predict`, once in `update`).
    ///
    /// The hashes are additionally factored across the skew family: all
    /// three members share the same scrambled-PC operand ([`skew_pc`]) and
    /// G1/META share the long-history fold, so the per-element cost is one
    /// multiply and two history folds instead of three of each. The
    /// factored expressions are [`skew`]'s own definition term for term.
    ///
    /// Both the short (`g0`) and long history values derive from one
    /// running register reconstructed from `start` and the outcome mask,
    /// shifted at the effective length `min(history_len, start.len())` so
    /// dropped bits read as zero exactly like [`HistoryBits::recent`] on the
    /// scalar path.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        let mut bits = 0u64;
        let width = self.bim.index_bits();
        let g0_len = self.g0_history_len();
        let m = mask(width);
        let eff = self.history_len.min(start.len());
        let hm = mask(eff);
        let mut h = start.recent(eff);
        for (i, &pc) in pcs.iter().enumerate() {
            let taken = (outcomes >> i) & 1 == 1;
            let addr = pc.addr();
            let hs = fold_bits(h & mask(g0_len), g0_len, width);
            let hl = fold_bits(h, self.history_len, width);
            let p = self.pc_memo.skew_pc_at(addr, width);
            let gp = skew_g(p, width);
            let banks = (
                addr >> 2,
                (skew_h(hs, width) ^ gp ^ p) & m,
                (skew_h(hl, width) ^ gp ^ hl) & m,
                (skew_g(hl, width) ^ skew_h(p, width) ^ p) & m,
            );
            let v = self.votes_at_raw(banks);
            bits |= u64::from(Self::final_of(v)) << i;
            self.train_at(v, banks, taken);
            h = ((h << 1) | u64::from(taken)) & hm;
        }
        PredictBlock::from_parts(bits, pcs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_simple_bias() {
        let mut p = BcGskew::new(1024, 10);
        let pc = Pc::new(0x500);
        let h = HistoryBits::new(10);
        for _ in 0..4 {
            p.update(pc, h, false);
        }
        assert!(!p.predict(pc, h).taken());
    }

    #[test]
    fn learns_history_correlated_branch() {
        // Outcome equals the outcome two branches ago: needs global history.
        let mut p = BcGskew::new(4096, 12);
        let pc = Pc::new(0x600);
        let mut bhr = HistoryBits::new(12);
        let mut last2 = [false, true];
        for i in 0..2000 {
            let taken = last2[0];
            p.update(pc, bhr, taken);
            bhr.push(taken);
            last2 = [last2[1], taken];
            let _ = i;
        }
        let mut correct = 0;
        for _ in 0..100 {
            let taken = last2[0];
            if p.predict(pc, bhr).taken() == taken {
                correct += 1;
            }
            p.update(pc, bhr, taken);
            bhr.push(taken);
            last2 = [last2[1], taken];
        }
        assert!(
            correct >= 95,
            "correlated branch should be learned, got {correct}/100"
        );
    }

    #[test]
    fn storage_matches_table3() {
        // Table 3: 2KB budget = 2K entries per bank (4 banks × 2K × 2 bits).
        let p = BcGskew::new(2048, 11);
        assert_eq!(p.storage_bytes(), 2048);
        let p = BcGskew::new(32 * 1024, 15);
        assert_eq!(p.storage_bytes(), 32 * 1024);
    }

    #[test]
    fn meta_learns_to_prefer_bimodal_for_biased_branch_under_noise() {
        // A branch that is ~always taken but whose history context is
        // polluted by a noisy neighbour: BIM is the reliable source.
        let mut p = BcGskew::new(256, 10);
        let biased = Pc::new(0x700);
        let noisy = Pc::new(0x704);
        let mut bhr = HistoryBits::new(10);
        let mut rng: u64 = 0x1234_5678;
        for _ in 0..4000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n_taken = (rng >> 33) & 1 == 1;
            p.update(noisy, bhr, n_taken);
            bhr.push(n_taken);
            p.update(biased, bhr, true);
            bhr.push(true);
        }
        let mut correct = 0;
        for _ in 0..200 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n_taken = (rng >> 33) & 1 == 1;
            p.update(noisy, bhr, n_taken);
            bhr.push(n_taken);
            if p.predict(biased, bhr).taken() {
                correct += 1;
            }
            p.update(biased, bhr, true);
            bhr.push(true);
        }
        assert!(
            correct >= 195,
            "biased branch should stay predicted, got {correct}/200"
        );
    }

    #[test]
    fn partial_update_preserves_disagreeing_bank_on_correct_prediction() {
        // Construct a case where majority is correct but one bank disagrees;
        // the disagreeing bank must not be touched.
        let mut p = BcGskew::new(64, 6);
        let pc = Pc::new(0x800);
        let h = HistoryBits::from_raw(0b101010, 6);
        // Train g0/g1/bim all taken first.
        for _ in 0..4 {
            p.update(pc, h, true);
        }
        let (_, g0i, _, _) = p.indices(pc, h);
        // Manually flip g0 to strongly not-taken.
        for _ in 0..4 {
            p.g0.update(g0i, false);
        }
        let before = p.g0.counter(g0i).value();
        // Correct taken prediction via majority (bim+g1 vote taken).
        p.update(pc, h, true);
        let after = p.g0.counter(g0i).value();
        assert_eq!(
            before, after,
            "disagreeing bank untouched by partial update"
        );
    }
}
