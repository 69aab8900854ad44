//! Enum-based static dispatch over the concrete prophets and critics.
//!
//! The experiment grids build thousands of hybrids and drive tens of
//! millions of `predict`/`update`/`critique` calls through them. Boxed
//! trait objects (`Box<dyn DirectionPredictor>`) put a virtual call on
//! every one of those operations and defeat inlining of the table lookups
//! behind them. [`AnyProphet`] and [`AnyCritic`] close the set of
//! component predictors instead: one match (a jump table) selects the
//! concrete implementation, which the compiler can then inline and
//! monomorphize all the way down — the hybrid engine built from them,
//! [`Hybrid`](crate::Hybrid), contains no virtual dispatch at all.
//!
//! The traits stay open and object-safe: a predictor outside the closed
//! set implements them on its own type, and the generic engine
//! (`ProphetCritic<P, C>`) monomorphizes over it just the same.

use predictors::{
    BcGskew, Bimodal, DirectionPredictor, GAs, Gshare, HistoryBits, Local, Pc, Perceptron,
    PredictBlock, PredictInput, Prediction, Tage, Yags,
};

use crate::critic::{
    Critic, CriticTrainInput, FilteredPerceptronCritic, NullCritic, TageCritic, TaggedGshareCritic,
    UnfilteredCritic,
};
use crate::critique::CriticDecision;

/// Every concrete component predictor, statically dispatched.
///
/// Implements [`DirectionPredictor`] by matching once and delegating, so a
/// monomorphized engine (`ProphetCritic<AnyProphet, _>`) pays a jump table
/// instead of a vtable on the per-branch hot path.
#[derive(Clone, Debug)]
pub enum AnyProphet {
    /// Per-address two-bit counters.
    Bimodal(Bimodal),
    /// Global history XOR address.
    Gshare(Gshare),
    /// Two-level adaptive with global history concatenation.
    GAs(GAs),
    /// Per-address history, two-level.
    Local(Local),
    /// 2Bc-gskew, the de-aliased EV8-style predictor.
    BcGskew(BcGskew),
    /// The Jiménez/Lin neural predictor.
    Perceptron(Perceptron),
    /// YAGS, a tagged de-aliased scheme.
    Yags(Yags),
    /// TAGE, tagged geometric history lengths (optionally with the
    /// Bullseye-style H2P allocator attached).
    Tage(Tage),
}

/// Delegates a method call to whichever variant is live.
macro_rules! each_prophet {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyProphet::Bimodal($p) => $body,
            AnyProphet::Gshare($p) => $body,
            AnyProphet::GAs($p) => $body,
            AnyProphet::Local($p) => $body,
            AnyProphet::BcGskew($p) => $body,
            AnyProphet::Perceptron($p) => $body,
            AnyProphet::Yags($p) => $body,
            AnyProphet::Tage($p) => $body,
        }
    };
}

impl DirectionPredictor for AnyProphet {
    #[inline]
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        each_prophet!(self, p => p.predict(pc, hist))
    }

    #[inline]
    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        each_prophet!(self, p => p.update(pc, hist, taken))
    }

    #[inline]
    fn history_len(&self) -> usize {
        each_prophet!(self, p => p.history_len())
    }

    fn storage_bits(&self) -> usize {
        each_prophet!(self, p => p.storage_bits())
    }

    fn name(&self) -> &'static str {
        each_prophet!(self, p => p.name())
    }

    #[inline]
    fn train_block(&mut self, inputs: &[PredictInput]) {
        each_prophet!(self, p => p.train_block(inputs))
    }

    /// One variant match per *chunk* instead of per branch: the selected
    /// concrete predictor's fused kernel then runs the whole block inlined.
    #[inline]
    fn replay_block(&mut self, pcs: &[Pc], outcomes: u64, start: HistoryBits) -> PredictBlock {
        each_prophet!(self, p => p.replay_block(pcs, outcomes, start))
    }
}

macro_rules! prophet_from {
    ($($ty:ident),*) => {$(
        impl From<$ty> for AnyProphet {
            fn from(p: $ty) -> Self {
                AnyProphet::$ty(p)
            }
        }
    )*};
}

prophet_from!(Bimodal, Gshare, GAs, Local, BcGskew, Perceptron, Yags, Tage);

/// Every concrete critic, statically dispatched.
///
/// The unfiltered variant wraps [`AnyProphet`] so *any* component
/// predictor can serve as an always-engaged critic without a box.
#[derive(Clone, Debug)]
pub enum AnyCritic {
    /// The no-op critic (prophet-alone baseline).
    Null(NullCritic),
    /// An always-engaged critic around any component predictor.
    Unfiltered(UnfilteredCritic<AnyProphet>),
    /// The tagged gshare critic (§6).
    TaggedGshare(TaggedGshareCritic),
    /// The filtered perceptron critic (§4).
    FilteredPerceptron(FilteredPerceptronCritic),
    /// The self-filtering TAGE critic.
    Tage(TageCritic),
}

impl AnyCritic {
    /// Applies the override-confidence threshold where the critic kind
    /// supports one (the tagged gshare and TAGE critics; a no-op for the
    /// rest). See [`TaggedGshareCritic::set_confident_override`].
    pub fn set_confident_override(&mut self, on: bool) {
        match self {
            AnyCritic::TaggedGshare(c) => c.set_confident_override(on),
            AnyCritic::Tage(c) => c.set_confident_override(on),
            _ => {}
        }
    }
}

macro_rules! each_critic {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            AnyCritic::Null($c) => $body,
            AnyCritic::Unfiltered($c) => $body,
            AnyCritic::TaggedGshare($c) => $body,
            AnyCritic::FilteredPerceptron($c) => $body,
            AnyCritic::Tage($c) => $body,
        }
    };
}

impl Critic for AnyCritic {
    #[inline]
    fn critique(&self, pc: Pc, bor: HistoryBits, prophet_pred: bool) -> CriticDecision {
        each_critic!(self, c => c.critique(pc, bor, prophet_pred))
    }

    #[inline]
    fn train(&mut self, pc: Pc, bor: HistoryBits, outcome: bool, prophet_pred: bool) {
        each_critic!(self, c => c.train(pc, bor, outcome, prophet_pred))
    }

    #[inline]
    fn bor_len(&self) -> usize {
        each_critic!(self, c => c.bor_len())
    }

    fn storage_bits(&self) -> usize {
        each_critic!(self, c => c.storage_bits())
    }

    fn name(&self) -> &'static str {
        each_critic!(self, c => c.name())
    }

    /// One variant match per chunk of deferred commit-time trainings.
    #[inline]
    fn train_block(&mut self, inputs: &[CriticTrainInput]) {
        each_critic!(self, c => c.train_block(inputs))
    }
}

impl From<NullCritic> for AnyCritic {
    fn from(c: NullCritic) -> Self {
        AnyCritic::Null(c)
    }
}

impl From<UnfilteredCritic<AnyProphet>> for AnyCritic {
    fn from(c: UnfilteredCritic<AnyProphet>) -> Self {
        AnyCritic::Unfiltered(c)
    }
}

impl From<TaggedGshareCritic> for AnyCritic {
    fn from(c: TaggedGshareCritic) -> Self {
        AnyCritic::TaggedGshare(c)
    }
}

impl From<FilteredPerceptronCritic> for AnyCritic {
    fn from(c: FilteredPerceptronCritic) -> Self {
        AnyCritic::FilteredPerceptron(c)
    }
}

impl From<TageCritic> for AnyCritic {
    fn from(c: TageCritic) -> Self {
        AnyCritic::Tage(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_prophet_delegates_every_method() {
        let cases: Vec<AnyProphet> = vec![
            Bimodal::new(256).into(),
            Gshare::new(256, 8).into(),
            Perceptron::new(37, 12).into(),
        ];
        let hist = HistoryBits::new(12);
        for mut p in cases {
            assert!(!p.name().is_empty());
            assert!(p.storage_bits() > 0);
            let pc = Pc::new(0x400);
            let before = p.predict(pc, hist).taken();
            // Train hard toward taken; the prediction must become taken.
            for _ in 0..8 {
                p.update(pc, hist, true);
            }
            assert!(p.predict(pc, hist).taken());
            let _ = before;
        }
    }

    #[test]
    fn any_prophet_matches_inner_predictor_exactly() {
        let mut plain = Gshare::new(512, 9);
        let mut wrapped = AnyProphet::from(Gshare::new(512, 9));
        let mut hist = HistoryBits::new(9);
        for i in 0..500u64 {
            let pc = Pc::new(0x1000 + (i % 32) * 4);
            let taken = (i / 3) % 2 == 0;
            assert_eq!(
                plain.predict(pc, hist).taken(),
                wrapped.predict(pc, hist).taken(),
                "diverged at step {i}"
            );
            plain.update(pc, hist, taken);
            wrapped.update(pc, hist, taken);
            hist.push(taken);
        }
    }

    #[test]
    fn any_critic_delegates_and_converts() {
        let mut critics: Vec<AnyCritic> = vec![
            NullCritic::new().into(),
            UnfilteredCritic::new(AnyProphet::from(Gshare::new(256, 8))).into(),
            TaggedGshareCritic::new(predictors::TaggedGshare::new(64, 4, 9, 8)).into(),
        ];
        let bor = HistoryBits::from_raw(0b1010, 8);
        for c in &mut critics {
            let d = c.critique(Pc::new(0x10), bor, true);
            // A disengaged critique must echo the prophet's direction.
            assert!(d.engaged || d.direction);
            c.train(Pc::new(0x10), bor, false, true);
            assert!(!c.name().is_empty());
        }
        assert_eq!(critics[0].bor_len(), 0);
        assert_eq!(critics[1].bor_len(), 8);
    }
}
