//! Component conditional-branch predictors for the prophet/critic
//! reproduction (Falcón et al., ISCA 2004).
//!
//! The paper's hybrid composes *conventional* predictors into the roles of
//! prophet and critic: “As in a typical hybrid, the components of the
//! prophet/critic hybrid can be any existing predictors” (§3.1). This crate
//! provides those components:
//!
//! * [`Bimodal`] — per-address two-bit counters (McFarling's baseline).
//! * [`Gshare`] — global history XOR address ([McFarling, TN-36]).
//! * [`GAs`] — two-level adaptive with global history concatenation.
//! * [`Local`] — per-address history, two-level (PAs / 21264-style local).
//! * [`BcGskew`] — 2Bc-gskew, the de-aliased EV8-style predictor.
//! * [`Perceptron`] — the Jiménez/Lin neural predictor.
//! * [`Yags`] — YAGS, a tagged de-aliased scheme (Eden/Mudge).
//! * [`Tage`] — tagged geometric-history-length predictor, with an optional
//!   Bullseye-style [`DynamicAllocator`] for hard-to-predict statics.
//!
//! Every predictor implements [`DirectionPredictor`], a *pure* interface:
//! prediction is a function of `(pc, history-bits)` and the caller owns the
//! history register. This mirrors the paper's split of responsibilities —
//! speculative history (BHR/BOR) management, checkpointing and repair happen
//! in the hybrid engine (the `prophet-critic` crate), while pattern tables
//! are trained non-speculatively at commit (§3.2).
//!
//! Table 3 of the paper fixes the configuration of every predictor at each
//! hardware budget from 2 KB to 32 KB; those configurations are encoded in
//! [`configs`] and honoured by the [`DirectionPredictor::storage_bits`]
//! audit.
//!
//! # Quick example
//!
//! ```
//! use predictors::{DirectionPredictor, Gshare, HistoryBits, Pc};
//!
//! let mut p = Gshare::new(1 << 13, 13); // 8K two-bit counters, 13-bit history
//! let bhr = HistoryBits::new(13);
//! let pc = Pc::new(0x401_000);
//!
//! // A branch seen taken twice in the same history context is learned.
//! p.update(pc, bhr, true);
//! p.update(pc, bhr, true);
//! assert!(p.predict(pc, bhr).taken());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
pub mod configs;
mod counter;
mod gas;
mod gshare;
mod gskew;
mod history;
pub mod index;
mod local;
mod perceptron;
mod table;
mod tage;
mod yags;

pub use bimodal::Bimodal;
pub use counter::SatCounter;
pub use gas::GAs;
pub use gshare::{Gshare, TaggedGshare};
pub use gskew::BcGskew;
pub use history::{fold_bits, mask, HistoryBits, MAX_HISTORY_BITS};
pub use local::Local;
pub use perceptron::Perceptron;
pub use table::{CounterTable, TagLookup, TaggedTable};
pub use tage::{DynamicAllocator, Tage};
pub use yags::Yags;

/// The address of a (micro-op level) branch instruction.
///
/// A newtype keeps branch addresses from being confused with table indices
/// or history words in predictor plumbing.
///
/// # Examples
///
/// ```
/// use predictors::Pc;
///
/// let pc = Pc::new(0x40_1000);
/// assert_eq!(pc.addr(), 0x40_1000);
/// assert_eq!(format!("{pc}"), "0x0000000000401000");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pc(u64);

impl Pc {
    /// Wraps a raw byte address.
    #[must_use]
    pub const fn new(addr: u64) -> Self {
        Self(addr)
    }

    /// The raw byte address.
    #[must_use]
    pub const fn addr(self) -> u64 {
        self.0
    }
}

impl From<u64> for Pc {
    fn from(addr: u64) -> Self {
        Self(addr)
    }
}

impl From<Pc> for u64 {
    fn from(pc: Pc) -> Self {
        pc.0
    }
}

impl std::fmt::Display for Pc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

impl std::fmt::LowerHex for Pc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A direction prediction together with the predictor's confidence signal.
///
/// Most predictors only produce a direction; the perceptron also exposes the
/// magnitude of its dot product, which downstream work uses for confidence.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Prediction {
    taken: bool,
    confidence: i32,
}

impl Prediction {
    /// A prediction with explicit confidence.
    #[must_use]
    pub const fn with_confidence(taken: bool, confidence: i32) -> Self {
        Self { taken, confidence }
    }

    /// A bare direction prediction (confidence 0).
    #[must_use]
    pub const fn taken_or_not(taken: bool) -> Self {
        Self {
            taken,
            confidence: 0,
        }
    }

    /// The predicted direction, `true` = taken.
    #[must_use]
    pub const fn taken(self) -> bool {
        self.taken
    }

    /// Predictor-specific confidence magnitude (0 when not provided).
    #[must_use]
    pub const fn confidence(self) -> i32 {
        self.confidence
    }
}

/// One element of a batched training call: the branch, the history value
/// its prediction was made with, and its resolved outcome.
///
/// [`DirectionPredictor::train_block`] takes a slice of these; the hybrid
/// engine queues its deferred commit-time trainings in this form.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PredictInput {
    /// Branch address.
    pub pc: Pc,
    /// History register value at prediction time.
    pub hist: HistoryBits,
    /// The branch's resolved outcome (trains the predictor).
    pub taken: bool,
}

/// The directions produced by one batched call, one bit per element in
/// input order.
///
/// Confidence is not carried — the batched consumer (trace replay) only
/// scores directions. Callers that need confidence use the scalar
/// [`DirectionPredictor::predict`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PredictBlock {
    bits: u64,
    len: u8,
}

impl PredictBlock {
    /// Maximum number of elements per block.
    pub const CAPACITY: usize = 64;

    /// An empty block.
    #[must_use]
    pub const fn new() -> Self {
        Self { bits: 0, len: 0 }
    }

    /// Number of directions held.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the block holds no directions.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a direction.
    ///
    /// # Panics
    ///
    /// Panics if the block already holds [`Self::CAPACITY`] directions.
    pub fn push(&mut self, taken: bool) {
        assert!((self.len as usize) < Self::CAPACITY, "PredictBlock full");
        self.bits |= u64::from(taken) << self.len;
        self.len += 1;
    }

    /// Builds a block directly from a direction bitmask and a length, for
    /// kernels that accumulate their directions in a local `u64` instead of
    /// calling [`push`](Self::push) per element. Bits at and above `len`
    /// are cleared so [`bits`](Self::bits) stays canonical.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`Self::CAPACITY`].
    pub(crate) fn from_parts(bits: u64, len: usize) -> Self {
        assert!(len <= Self::CAPACITY, "PredictBlock overfull");
        let mask = if len == Self::CAPACITY {
            u64::MAX
        } else {
            (1u64 << len) - 1
        };
        Self {
            bits: bits & mask,
            len: len as u8,
        }
    }

    /// The direction predicted for element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn taken(&self, i: usize) -> bool {
        assert!(i < self.len(), "index {i} out of range {}", self.len());
        (self.bits >> i) & 1 == 1
    }

    /// All predicted directions as a bit-vector: bit `i` is element `i`'s
    /// direction, and bits at and above [`len`](Self::len) are zero. Batched
    /// consumers use this to compare a whole block against recorded outcomes
    /// with one XOR instead of [`Self::taken`] calls per element.
    #[must_use]
    pub const fn bits(&self) -> u64 {
        self.bits
    }
}

/// A conditional branch direction predictor as a pure function of
/// `(pc, history)`.
///
/// The caller supplies the history register — a BHR when the predictor acts
/// as a prophet, a BOR (history + future bits) when it acts as the engine of
/// a critic. Implementations must not retain speculative state between
/// [`predict`](Self::predict) and [`update`](Self::update); `update` is the
/// non-speculative commit-time training step of §3.2 and receives the same
/// history value the prediction was made with.
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `pc` given the history
    /// register value `hist`.
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction;

    /// Trains the predictor with the resolved outcome of the branch at `pc`,
    /// using the same history value `hist` that produced its prediction.
    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool);

    /// The number of history bits the predictor actually consumes.
    fn history_len(&self) -> usize;

    /// The storage budget in bits (counters, weights and tags; excludes LRU
    /// bookkeeping, as is conventional in predictor sizing).
    fn storage_bits(&self) -> usize;

    /// A short human-readable name (e.g. `"gshare"`).
    fn name(&self) -> &'static str;

    /// The storage budget in bytes, rounded up.
    fn storage_bytes(&self) -> usize {
        self.storage_bits().div_ceil(8)
    }

    /// Batched train-only pass: [`update`](Self::update) per element, in
    /// order, with no predictions produced.
    ///
    /// Used where predictions would be discarded: the hybrid engine's
    /// deferred commit-time training. Because `predict` has no side effects,
    /// skipping it leaves the predictor in exactly the scalar-path state.
    fn train_block(&mut self, inputs: &[PredictInput]) {
        for input in inputs {
            self.update(input.pc, input.hist, input.taken);
        }
    }

    /// Fused batched predict-then-train over up to
    /// [`PredictBlock::CAPACITY`] branches, from a chunk's *implicit*
    /// histories: element `i`'s history register value is `start` advanced
    /// by outcome bits `0..i` of `outcomes`.
    ///
    /// For each element in order: predict with its history value, then
    /// train with its outcome — exactly the scalar
    /// [`predict`](Self::predict)/[`update`](Self::update) interleaving, so
    /// the returned directions and the post-call predictor state are
    /// bit-identical to the scalar path. The default does precisely that.
    ///
    /// This is how trace replay presents a chunk — on a correct-path trace
    /// every element's history is derivable from the chunk's start history
    /// and the recorded outcome mask, so the replay engine does not buffer a
    /// per-element [`HistoryBits`] snapshot (the measured ~6.5 ns/pred
    /// buffering residual). Table-based predictors override this with one
    /// fused kernel that keeps the running history in a register and
    /// computes each element's table index once instead of twice.
    /// `batch_equiv.rs` pins every implementation against the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `pcs.len() > PredictBlock::CAPACITY`.
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        assert!(pcs.len() <= PredictBlock::CAPACITY, "replay block overfull");
        let mut out = PredictBlock::new();
        let mut hist = start;
        for (i, &pc) in pcs.iter().enumerate() {
            let taken = (outcomes >> i) & 1 == 1;
            out.push(self.predict(pc, hist).taken());
            self.update(pc, hist, taken);
            hist.push(taken);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_round_trips_through_u64() {
        let pc = Pc::new(0xdead_beef);
        let raw: u64 = pc.into();
        assert_eq!(Pc::from(raw), pc);
    }

    #[test]
    fn pc_display_is_padded_hex() {
        assert_eq!(Pc::new(0x12).to_string(), "0x0000000000000012");
        assert_eq!(format!("{:x}", Pc::new(0xab)), "ab");
    }

    #[test]
    fn prediction_accessors() {
        let p = Prediction::with_confidence(true, 42);
        assert!(p.taken());
        assert_eq!(p.confidence(), 42);
        let p = Prediction::taken_or_not(false);
        assert!(!p.taken());
        assert_eq!(p.confidence(), 0);
    }

    #[test]
    fn boxed_predictor_is_object_safe() {
        let mut p: Box<dyn DirectionPredictor> = Box::new(Bimodal::new(64));
        let pc = Pc::new(0x100);
        let h = HistoryBits::new(0);
        p.update(pc, h, true);
        p.update(pc, h, true);
        assert!(p.predict(pc, h).taken());
        assert_eq!(p.name(), "bimodal");
    }

    #[test]
    fn predict_block_packs_directions_in_order() {
        let mut b = PredictBlock::new();
        assert!(b.is_empty());
        for i in 0..PredictBlock::CAPACITY {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), PredictBlock::CAPACITY);
        for i in 0..PredictBlock::CAPACITY {
            assert_eq!(b.taken(i), i % 3 == 0, "direction {i}");
        }
    }

    #[test]
    #[should_panic(expected = "PredictBlock full")]
    fn predict_block_rejects_overflow() {
        let mut b = PredictBlock::new();
        for _ in 0..=PredictBlock::CAPACITY {
            b.push(true);
        }
    }

    #[test]
    fn batched_calls_work_through_trait_objects() {
        // The default batched implementations must be reachable through
        // `Box<dyn DirectionPredictor>` — dispatch stays object-safe.
        let mut p: Box<dyn DirectionPredictor> = Box::new(Bimodal::new(64));
        let inputs: Vec<PredictInput> = (0..8)
            .map(|i| PredictInput {
                pc: Pc::new(0x100),
                hist: HistoryBits::new(0),
                taken: i % 2 == 0,
            })
            .collect();
        let pcs: Vec<Pc> = inputs.iter().map(|input| input.pc).collect();
        let block = p.replay_block(&pcs, 0b0101_0101, HistoryBits::new(0));
        assert_eq!(block.len(), pcs.len());
        p.train_block(&inputs);
    }
}
