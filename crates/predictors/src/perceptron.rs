//! The perceptron predictor of Jiménez and Lin.
//!
//! Every path — scalar `predict`/`update` and the fused replay kernel —
//! first expands the history register into a vector of ±1 inputs, one
//! byte per position, through a 256-entry byte-expansion table. The dot
//! product and the saturating weight update are then plain zips of two
//! byte slices, which the compiler turns into SIMD lanes, instead of a
//! bit test and a ±1 select per weight. The replay kernel keeps the
//! history in a register and expands it once per branch.

use crate::{
    mask, DirectionPredictor, HistoryBits, Pc, PredictBlock, Prediction, MAX_HISTORY_BITS,
};

/// Weight type: 8-bit signed, as budgeted by Table 3 of the paper
/// (e.g. 2 KB = 113 perceptrons × 18 weights × 1 byte).
type Weight = i8;

/// `SIGNS[b]` holds the eight history bits of byte `b` as the
/// perceptron's inputs, bit 0 first: +1 for taken, −1 for not-taken.
const SIGNS: [[i8; 8]; 256] = {
    let mut table = [[0i8; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            table[byte][bit] = if (byte >> bit) & 1 == 1 { 1 } else { -1 };
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// A history register's bits (newest in bit 0) as ±1 inputs, newest
/// first. The register holds zeros past its length, so those positions
/// read −1, as [`HistoryBits::outcome`] reads them not-taken.
fn signs(bits: u64) -> [i8; MAX_HISTORY_BITS] {
    let mut x = [0i8; MAX_HISTORY_BITS];
    for (lane, byte) in x.chunks_exact_mut(8).zip(bits.to_le_bytes()) {
        lane.copy_from_slice(&SIGNS[usize::from(byte)]);
    }
    x
}

/// The perceptron branch predictor.
///
/// Each table entry is a vector of signed weights `w0..wh`; the prediction
/// for history bits `x1..xh ∈ {-1, +1}` is the sign of
/// `y = w0 + Σ wi·xi`. Training bumps each weight toward agreement whenever
/// the prediction was wrong or `|y|` was below the threshold
/// `θ = ⌊1.93·h + 14⌋`.
///
/// “A key advantage of the perceptron predictor is its ability to consider
/// much longer histories than schemes that use tables with saturating
/// counters” (§6) — which is also why the paper likes it as a critic: future
/// bits can be added to the BOR without sacrificing history reach.
///
/// # Examples
///
/// ```
/// use predictors::{DirectionPredictor, HistoryBits, Pc, Perceptron};
///
/// let mut p = Perceptron::new(113, 17); // the paper's 2 KB configuration
/// let pc = Pc::new(0x400_300);
/// let mut bhr = HistoryBits::new(17);
/// for i in 0..100 {
///     let taken = i % 2 == 0; // alternating branch
///     p.update(pc, bhr, taken);
///     bhr.push(taken);
/// }
/// assert!(p.predict(pc, bhr).confidence() > 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Perceptron {
    weights: Vec<Weight>, // n_perceptrons × (history_len + 1), bias first
    n_perceptrons: usize,
    history_len: usize,
    theta: i32,
}

impl Perceptron {
    /// Creates a perceptron table of `n_perceptrons` entries, each observing
    /// `history_len` bits.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or `history_len > 64`.
    #[must_use]
    pub fn new(n_perceptrons: usize, history_len: usize) -> Self {
        assert!(n_perceptrons > 0, "need at least one perceptron");
        assert!(
            (1..=crate::MAX_HISTORY_BITS).contains(&history_len),
            "history length {history_len} out of range"
        );
        Self {
            weights: vec![0; n_perceptrons * (history_len + 1)],
            n_perceptrons,
            history_len,
            theta: (1.93 * history_len as f64 + 14.0).floor() as i32,
        }
    }

    /// The training threshold θ.
    #[must_use]
    pub fn theta(&self) -> i32 {
        self.theta
    }

    /// Number of perceptrons in the table.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.n_perceptrons
    }

    fn row(&self, pc: Pc) -> usize {
        // Simple modulo hashing over perceptron count (not power-of-two in
        // Table 3: 113, 163, 282, ...).
        ((pc.addr() >> 2) % self.n_perceptrons as u64) as usize
    }

    /// Row `row`'s weights, bias first.
    fn row_weights(&self, row: usize) -> &[Weight] {
        let n = self.history_len + 1;
        &self.weights[row * n..(row + 1) * n]
    }

    /// The dot product `y = w0 + Σ wi·xi` over inputs `x` (from [`signs`]).
    fn output(&self, row: usize, x: &[i8; MAX_HISTORY_BITS]) -> i32 {
        let w = self.row_weights(row);
        // Each term is ±wi, and at most 64 terms of magnitude ≤ 128 sum
        // to within ±8192, so 16-bit lanes cannot overflow.
        let dot: i16 = w[1..]
            .iter()
            .zip(x)
            .map(|(&w, &x)| i16::from(w) * i16::from(x))
            .sum();
        i32::from(w[0]) + i32::from(dot)
    }

    /// Predicts from inputs `x`, then trains toward `taken` when the
    /// prediction was wrong or `|y|` was at most θ. Returns the prediction.
    fn predict_train(&mut self, row: usize, x: &[i8; MAX_HISTORY_BITS], taken: bool) -> bool {
        let y = self.output(row, x);
        // Ties (y == 0) predict taken, per the original description where
        // "if the output is negative ... not taken", otherwise taken.
        let pred = y >= 0;
        if pred != taken || y.abs() <= self.theta {
            let n = self.history_len + 1;
            let w = &mut self.weights[row * n..(row + 1) * n];
            // Each weight moves one step toward agreement between its input
            // and the outcome: +xi when taken, −xi when not.
            if taken {
                w[0] = w[0].saturating_add(1);
                for (w, &x) in w[1..].iter_mut().zip(x) {
                    *w = w.saturating_add(x);
                }
            } else {
                w[0] = w[0].saturating_sub(1);
                for (w, &x) in w[1..].iter_mut().zip(x) {
                    *w = w.saturating_sub(x);
                }
            }
        }
        pred
    }
}

impl DirectionPredictor for Perceptron {
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        let y = self.output(self.row(pc), &signs(hist.bits()));
        Prediction::with_confidence(y >= 0, y.abs())
    }

    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        self.predict_train(self.row(pc), &signs(hist.bits()), taken);
    }

    fn history_len(&self) -> usize {
        self.history_len
    }

    fn storage_bits(&self) -> usize {
        self.n_perceptrons * (self.history_len + 1) * 8
    }

    fn name(&self) -> &'static str {
        "perceptron"
    }

    /// Fused kernel: the dot product `y` is computed once per element and
    /// serves both the prediction and the train-or-not decision — the
    /// scalar path walks the weight row twice (`predict` then `update`).
    /// The history stays in a register clipped to `history_len` (the
    /// positions the weights read) and is expanded once per element.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        assert!(pcs.len() <= PredictBlock::CAPACITY, "replay block overfull");
        let eff = self.history_len.min(start.len());
        let m = mask(eff);
        let mut h = start.recent(eff);
        let mut bits = 0u64;
        for (i, &pc) in pcs.iter().enumerate() {
            let taken = (outcomes >> i) & 1 == 1;
            bits |= u64::from(self.predict_train(self.row(pc), &signs(h), taken)) << i;
            h = ((h << 1) | u64::from(taken)) & m;
        }
        PredictBlock::from_parts(bits, pcs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signs_read_each_position_as_outcome_does() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in 0..=MAX_HISTORY_BITS {
            for _ in 0..16 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let hist = HistoryBits::from_raw(state, len);
                let x = signs(hist.bits());
                for (i, &xi) in x.iter().enumerate() {
                    assert_eq!(
                        xi,
                        if hist.outcome(i) { 1 } else { -1 },
                        "len {len} pos {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn theta_follows_jimenez_lin_formula() {
        assert_eq!(
            Perceptron::new(10, 17).theta(),
            (1.93f64 * 17.0 + 14.0) as i32
        );
        assert_eq!(Perceptron::new(10, 28).theta(), 68);
    }

    #[test]
    fn learns_strong_bias_quickly() {
        let mut p = Perceptron::new(113, 17);
        let pc = Pc::new(0x100);
        let h = HistoryBits::new(17);
        for _ in 0..5 {
            p.update(pc, h, true);
        }
        assert!(p.predict(pc, h).taken());
    }

    #[test]
    fn learns_single_history_bit_correlation() {
        // Outcome = outcome of 3 branches ago. Linearly separable, so a
        // perceptron learns it exactly.
        let mut p = Perceptron::new(113, 17);
        let pc = Pc::new(0x200);
        let mut bhr = HistoryBits::new(17);
        let mut rng: u64 = 99;
        let mut outcomes = std::collections::VecDeque::from([true, false, true]);
        for _ in 0..1000 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = outcomes.front().copied().unwrap();
            p.update(pc, bhr, taken);
            bhr.push(taken);
            outcomes.pop_front();
            outcomes.push_back(taken);
        }
        let mut correct = 0;
        for _ in 0..100 {
            let taken = outcomes.front().copied().unwrap();
            if p.predict(pc, bhr).taken() == taken {
                correct += 1;
            }
            p.update(pc, bhr, taken);
            bhr.push(taken);
            outcomes.pop_front();
            outcomes.push_back(taken);
        }
        assert!(
            correct >= 98,
            "linearly separable pattern, got {correct}/100"
        );
    }

    #[test]
    fn learns_long_history_loop() {
        // A 30-iteration loop exit needs ~30 bits of history: beyond
        // counter-based schemes at small budgets but fine for a perceptron
        // with h=47.
        let mut p = Perceptron::new(282, 47);
        let pc = Pc::new(0x300);
        let mut bhr = HistoryBits::new(47);
        let period = 30;
        for i in 0..3000 {
            let taken = (i % period) != period - 1;
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        let mut correct = 0;
        for i in 0..period {
            let taken = (i % period) != period - 1;
            if p.predict(pc, bhr).taken() == taken {
                correct += 1;
            }
            p.update(pc, bhr, taken);
            bhr.push(taken);
        }
        assert!(
            correct >= period - 2,
            "loop exit learned, got {correct}/{period}"
        );
    }

    #[test]
    fn confidence_grows_with_training() {
        let mut p = Perceptron::new(113, 17);
        let pc = Pc::new(0x400);
        let h = HistoryBits::from_raw(0x1_5555, 17);
        p.update(pc, h, true);
        let early = p.predict(pc, h).confidence();
        for _ in 0..30 {
            p.update(pc, h, true);
        }
        let late = p.predict(pc, h).confidence();
        assert!(late > early, "confidence should grow: {early} -> {late}");
    }

    #[test]
    fn weights_saturate_instead_of_wrapping() {
        let mut p = Perceptron::new(1, 1);
        let pc = Pc::new(0);
        let h = HistoryBits::from_raw(1, 1);
        for _ in 0..500 {
            p.update(pc, h, true);
        }
        // Output bounded by 2 weights × 127.
        assert!(p.predict(pc, h).confidence() <= 254);
    }

    #[test]
    fn storage_matches_table3() {
        // 2 KB: 113 perceptrons × 18 weights × 8 bits = 2034 bytes.
        assert_eq!(Perceptron::new(113, 17).storage_bytes(), 2034);
        // 8 KB: 282 × 29 = 8178 bytes.
        assert_eq!(Perceptron::new(282, 28).storage_bytes(), 8178);
        // 32 KB: 565 × 58 = 32770 bytes (paper rounds to the 32 KB bucket).
        assert_eq!(Perceptron::new(565, 57).storage_bytes(), 32770);
    }
}
