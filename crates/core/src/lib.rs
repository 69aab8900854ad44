//! The prophet/critic hybrid conditional branch predictor.
//!
//! A reproduction of **“Prophet/Critic Hybrid Branch Prediction”**
//! (Falcón, Stark, Ramirez, Lai, Valero — ISCA 2004).
//!
//! The hybrid composes two conventional predictors into new roles:
//!
//! * The **prophet** predicts each branch from history, exactly like a
//!   conventional predictor, and keeps predicting down the predicted path.
//!   Its prediction stream is the *branch future* (a prophecy).
//! * The **critic** waits until the prophet has produced a configurable
//!   number of *future bits* for a branch, then critiques the prediction
//!   using its branch outcome register (BOR) — a shift register holding
//!   both history and future. An engaged critique that disagrees overrides
//!   the prophet; the critic's prediction is always final.
//!
//! Because the critic is consulted *later* than the prophet, it can
//! correlate on the (predicted) future — something no conventional hybrid,
//! fusion, or overriding predictor can do, since those give every component
//! the same history (§2). After a prophet mispredict, the future bits in the
//! BOR come from the *wrong path*, and that wrong-path signature is exactly
//! what the critic learns to recognize (§3.3).
//!
//! # Crate layout
//!
//! * [`ProphetCritic`] — the engine: speculative BHR/BOR management,
//!   in-order critique scheduling, override/flush, checkpoint repair, and
//!   commit-time training.
//! * [`Critic`] and implementations: [`NullCritic`] (prophet-alone
//!   baseline), [`UnfilteredCritic`], [`TaggedGshareCritic`],
//!   [`FilteredPerceptronCritic`] (§4's filtering).
//! * [`CritiqueKind`]/[`CritiqueStats`] — the §7.3 taxonomy
//!   (`correct_agree`, `incorrect_disagree`, …) behind Figure 8 and Table 4.
//! * [`HybridSpec`] — named paper configurations, buildable at any Table 3
//!   budget.
//!
//! # Example: an 8 KB + 8 KB hybrid with 8 future bits
//!
//! ```
//! use predictors::Pc;
//! use prophet_critic::{Budget, CriticKind, HybridSpec, ProphetKind};
//!
//! let spec = HybridSpec::paired(
//!     ProphetKind::Perceptron,
//!     Budget::K8,
//!     CriticKind::TaggedGshare,
//!     Budget::K8,
//!     8,
//! );
//! let mut hybrid = spec.build();
//!
//! // Fetch-order protocol: predict, drain critiques, resolve in order.
//! let ev = hybrid.predict(Pc::new(0x400_000));
//! assert_eq!(ev.id.seq(), 0);
//! while let Some(critique) = hybrid.critique_next() {
//!     // an override would require redirecting fetch here
//!     let _ = critique;
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod combos;
mod critic;
mod critique;
mod dispatch;
mod hybrid;

pub use combos::{CriticKind, Hybrid, HybridSpec, ProphetKind};
pub use critic::{
    AllocationPolicy, Critic, CriticTrainInput, FilteredPerceptronCritic, NullCritic, TageCritic,
    TaggedGshareCritic, UnfilteredCritic,
};
pub use critique::{CriticDecision, CritiqueKind, CritiqueStats};
pub use dispatch::{AnyCritic, AnyProphet};
pub use hybrid::{BranchId, CritiqueEvent, HybridError, PredictEvent, ProphetCritic, ResolveEvent};

// Re-export the budget type: every spec in this crate is parameterized by it.
pub use predictors::configs::Budget;
