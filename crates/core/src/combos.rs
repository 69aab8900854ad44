//! Named prophet/critic combinations from the paper's evaluation, buildable
//! by specification.
//!
//! The figures pair three prophets (gshare, 2Bc-gskew, perceptron) with two
//! filtered critics (tagged gshare, filtered perceptron) and one unfiltered
//! critic (perceptron), at the Table 3 budgets. [`HybridSpec`] names such a
//! combination and [`HybridSpec::build`] constructs the monomorphized
//! engine ([`Hybrid`]).

use predictors::configs::{self, Budget};

use crate::critic::{
    Critic, FilteredPerceptronCritic, NullCritic, TageCritic, TaggedGshareCritic, UnfilteredCritic,
};
use crate::dispatch::{AnyCritic, AnyProphet};
use crate::hybrid::ProphetCritic;

/// The prophet component of a [`HybridSpec`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ProphetKind {
    /// gshare at the Table 3 configuration.
    Gshare,
    /// 2Bc-gskew at the Table 3 configuration.
    BcGskew,
    /// Perceptron at the Table 3 configuration.
    Perceptron,
    /// TAGE at the budget-ladder configuration (post-paper entrant).
    Tage,
    /// TAGE with the Bullseye-style H2P allocator attached.
    TageH2p,
}

impl ProphetKind {
    /// All prophets in the evaluation grid: the paper's three plus the
    /// post-paper TAGE pair (with and without the H2P allocator).
    pub const ALL: [ProphetKind; 5] = [
        ProphetKind::Gshare,
        ProphetKind::BcGskew,
        ProphetKind::Perceptron,
        ProphetKind::Tage,
        ProphetKind::TageH2p,
    ];

    /// The paper's prophet trio — exactly the configurations Figures 7
    /// and 9 sweep. The figure-reproduction experiments iterate this so
    /// the post-paper TAGE entrants (which join the wider grids via
    /// [`Self::ALL`]) cannot change the reproduced tables.
    pub const PAPER: [ProphetKind; 3] = [
        ProphetKind::Gshare,
        ProphetKind::BcGskew,
        ProphetKind::Perceptron,
    ];

    /// The paper's display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProphetKind::Gshare => "gshare",
            ProphetKind::BcGskew => "2Bc-gskew",
            ProphetKind::Perceptron => "perceptron",
            ProphetKind::Tage => "tage",
            ProphetKind::TageH2p => "tage+h2p",
        }
    }

    /// Builds the prophet at `budget` per Table 3, statically dispatched.
    #[must_use]
    pub fn build(self, budget: Budget) -> AnyProphet {
        match self {
            ProphetKind::Gshare => AnyProphet::Gshare(configs::gshare(budget)),
            ProphetKind::BcGskew => AnyProphet::BcGskew(configs::bc_gskew(budget)),
            ProphetKind::Perceptron => AnyProphet::Perceptron(configs::perceptron(budget)),
            ProphetKind::Tage => AnyProphet::Tage(configs::tage(budget)),
            ProphetKind::TageH2p => AnyProphet::Tage(configs::tage_h2p(budget)),
        }
    }
}

impl std::fmt::Display for ProphetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The critic component of a [`HybridSpec`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CriticKind {
    /// No critic: the prophet-alone baseline.
    None,
    /// Unfiltered perceptron critic (Figure 6a).
    UnfilteredPerceptron,
    /// Tagged gshare critic (Figures 5, 6c, 7, 8, 9, 10; “t.gshare”).
    TaggedGshare,
    /// Filtered perceptron critic (Figures 6b, 7; “f.perceptron”).
    FilteredPerceptron,
    /// Self-filtering TAGE critic (post-paper entrant; “t.tage”).
    Tage,
}

impl CriticKind {
    /// All critic kinds in the evaluation grid: the paper's four plus the
    /// post-paper TAGE critic.
    pub const ALL: [CriticKind; 5] = [
        CriticKind::None,
        CriticKind::UnfilteredPerceptron,
        CriticKind::TaggedGshare,
        CriticKind::FilteredPerceptron,
        CriticKind::Tage,
    ];

    /// The paper's display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CriticKind::None => "none",
            CriticKind::UnfilteredPerceptron => "perceptron",
            CriticKind::TaggedGshare => "t.gshare",
            CriticKind::FilteredPerceptron => "f.perceptron",
            CriticKind::Tage => "t.tage",
        }
    }

    /// Builds the critic at `budget` per Table 3, statically dispatched.
    #[must_use]
    pub fn build(self, budget: Budget) -> AnyCritic {
        match self {
            CriticKind::None => AnyCritic::Null(NullCritic::new()),
            CriticKind::UnfilteredPerceptron => AnyCritic::Unfiltered(UnfilteredCritic::new(
                AnyProphet::Perceptron(configs::perceptron(budget)),
            )),
            CriticKind::TaggedGshare => {
                AnyCritic::TaggedGshare(TaggedGshareCritic::new(configs::tagged_gshare(budget)))
            }
            CriticKind::FilteredPerceptron => {
                let (sets, filter_hist, _) = configs::perceptron_filter_params(budget);
                AnyCritic::FilteredPerceptron(FilteredPerceptronCritic::new(
                    configs::filtered_perceptron_core(budget),
                    sets,
                    configs::PERCEPTRON_FILTER_WAYS,
                    configs::TAG_BITS,
                    filter_hist,
                ))
            }
            CriticKind::Tage => AnyCritic::Tage(TageCritic::new(configs::tage(budget))),
        }
    }
}

impl std::fmt::Display for CriticKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully-specified prophet/critic configuration.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HybridSpec {
    /// Which predictor plays the prophet.
    pub prophet: ProphetKind,
    /// The prophet's hardware budget.
    pub prophet_budget: Budget,
    /// Which predictor plays the critic.
    pub critic: CriticKind,
    /// The critic's hardware budget (ignored for [`CriticKind::None`]).
    pub critic_budget: Budget,
    /// Number of future bits the critic waits for.
    pub future_bits: usize,
    /// Override-confidence threshold: when `true`, a critic kind that
    /// carries a confidence signal (the tagged gshare's two-bit counters)
    /// only overrides the prophet from a *saturated* counter; weak
    /// disagreements concur instead. `false` is the paper's behaviour.
    /// One of the `sim::tune` search dimensions.
    pub confident_override: bool,
}

/// The monomorphized hybrid engine built from a [`HybridSpec`]: enum-based
/// static dispatch end to end, no vtables on the per-branch hot path.
pub type Hybrid = ProphetCritic<AnyProphet, AnyCritic>;

impl HybridSpec {
    /// A prophet-alone baseline at `budget`.
    #[must_use]
    pub fn alone(prophet: ProphetKind, budget: Budget) -> Self {
        Self {
            prophet,
            prophet_budget: budget,
            critic: CriticKind::None,
            critic_budget: budget,
            future_bits: 0,
            confident_override: false,
        }
    }

    /// A full prophet/critic pairing.
    #[must_use]
    pub fn paired(
        prophet: ProphetKind,
        prophet_budget: Budget,
        critic: CriticKind,
        critic_budget: Budget,
        future_bits: usize,
    ) -> Self {
        Self {
            prophet,
            prophet_budget,
            critic,
            critic_budget,
            future_bits,
            confident_override: false,
        }
    }

    /// This spec with the override-confidence threshold switched on or
    /// off (see [`Self::confident_override`]).
    #[must_use]
    pub fn with_confident_override(mut self, on: bool) -> Self {
        self.confident_override = on;
        self
    }

    /// The tuned headline configuration: the winner of the deterministic
    /// parameter search in `sim::tune` (`experiments tune`, preset
    /// `headline`) over the pooled fast set at `SCALE=1`.
    ///
    /// A 16 KB 2Bc-gskew prophet with a small (2 KB) tagged-gshare critic
    /// at **one** future bit and the **override-confidence threshold on**
    /// (only saturated critic counters override). Total storage ≈18.5 KB —
    /// the same 16 KB class as the baseline under the workspace's ±15 %
    /// sizing convention. Compared to the untuned 8+8/8-fb default this
    /// flips the headline from *losing* to the 16 KB 2Bc-gskew baseline
    /// (~−12 % misp/Kuops) to *beating* it (~+2 % pooled, winning or
    /// tying 10 of 14 fast-set benchmarks): on the synthetic corpus the
    /// critique signal is only worth a pipeline redirect when the critic
    /// is both engaged *and* confident, and one future bit captures most
    /// of the exploitable wrong-path correlation (cf. Figure 5's
    /// premiere/flash behaviour). The `headline` experiment builds its
    /// hybrid from this preset; the tune report flags drift if a fresh
    /// search stops agreeing with it.
    #[must_use]
    pub fn tuned_headline() -> Self {
        Self::paired(
            ProphetKind::BcGskew,
            Budget::K16,
            CriticKind::TaggedGshare,
            Budget::K2,
            1,
        )
        .with_confident_override(true)
    }

    /// Builds the monomorphized hybrid engine.
    ///
    /// # Examples
    ///
    /// ```
    /// use predictors::Pc;
    /// use prophet_critic::{Budget, CriticKind, HybridSpec, ProphetKind};
    ///
    /// let spec = HybridSpec::paired(
    ///     ProphetKind::BcGskew,
    ///     Budget::K8,
    ///     CriticKind::TaggedGshare,
    ///     Budget::K8,
    ///     8,
    /// );
    /// let mut hybrid = spec.build();
    ///
    /// // The engine enforces the fetch-order protocol: predict, drain
    /// // critiques, resolve oldest-first.
    /// let ev = hybrid.predict(Pc::new(0x400_100));
    /// assert_eq!(ev.id.seq(), 0);
    /// while let Some(critique) = hybrid.critique_next() {
    ///     let _ = critique; // an override would redirect fetch here
    /// }
    /// // 8+8 KB: total storage lands near the 16 KB baseline budget.
    /// let kb = hybrid.storage_bytes() / 1024;
    /// assert!((14..=19).contains(&kb));
    /// ```
    #[must_use]
    pub fn build(&self) -> Hybrid {
        let mut critic = self.critic.build(self.critic_budget);
        critic.set_confident_override(self.confident_override);
        ProphetCritic::new(
            self.prophet.build(self.prophet_budget),
            critic,
            self.future_bits,
        )
    }

    /// The most future bits this spec's critic can hold: its BOR length,
    /// the bound [`ProphetCritic::new`] asserts (0 for
    /// [`CriticKind::None`], whose spec waits for none). Builds the critic
    /// to ask it.
    #[must_use]
    pub fn max_future_bits(&self) -> usize {
        self.critic.build(self.critic_budget).bor_len()
    }

    /// A display label like `8KB perceptron + 8KB t.gshare (8 fb)` (with
    /// a `, conf` marker when the override-confidence threshold is on).
    #[must_use]
    pub fn label(&self) -> String {
        match self.critic {
            CriticKind::None => format!("{} {} alone", self.prophet_budget, self.prophet),
            _ => format!(
                "{} {} + {} {} ({} fb{})",
                self.prophet_budget,
                self.prophet,
                self.critic_budget,
                self.critic,
                self.future_bits,
                if self.confident_override {
                    ", conf"
                } else {
                    ""
                }
            ),
        }
    }
}

impl std::fmt::Display for HybridSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predictors::Pc;

    #[test]
    fn every_combination_builds_and_runs() {
        for prophet in ProphetKind::ALL {
            for critic in CriticKind::ALL {
                let fb = if critic == CriticKind::None { 0 } else { 4 };
                let spec = HybridSpec::paired(prophet, Budget::K4, critic, Budget::K2, fb);
                let mut h = spec.build();
                for i in 0..32u64 {
                    h.predict(Pc::new(0x1000 + i * 4));
                }
                while let Some(ev) = h.critique_next() {
                    let _ = ev;
                }
                while h.in_flight() > 0 {
                    if h.force_critique_next().is_none() {
                        let _ = h.resolve_oldest(true).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn alone_spec_has_null_critic_and_zero_future_bits() {
        let spec = HybridSpec::alone(ProphetKind::BcGskew, Budget::K16);
        assert_eq!(spec.critic, CriticKind::None);
        assert_eq!(spec.future_bits, 0);
        let h = spec.build();
        // Prophet-alone storage equals the prophet's Table 3 budget.
        assert_eq!(h.storage_bytes(), Budget::K16.bytes());
    }

    #[test]
    fn paired_storage_is_sum_of_halves() {
        let spec = HybridSpec::paired(
            ProphetKind::Gshare,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K8,
            8,
        );
        let h = spec.build();
        // 8 KB gshare + ~8 KB tagged gshare: within 15% of 16 KB.
        let total = h.storage_bytes();
        assert!(
            (14 * 1024..=19 * 1024).contains(&total),
            "8+8 hybrid storage {total} out of range"
        );
    }

    #[test]
    fn tuned_headline_is_a_16kb_class_hybrid() {
        let spec = HybridSpec::tuned_headline();
        assert_ne!(spec.critic, CriticKind::None, "headline needs a critic");
        assert!(spec.future_bits >= 1);
        let total = spec.build().storage_bytes();
        assert!(
            (14 * 1024..=19 * 1024).contains(&total),
            "tuned preset must stay storage-comparable to the 16KB baseline, got {total}"
        );
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        let spec = HybridSpec::paired(
            ProphetKind::Perceptron,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K8,
            8,
        );
        assert_eq!(spec.label(), "8KB perceptron + 8KB t.gshare (8 fb)");
        let alone = HybridSpec::alone(ProphetKind::Gshare, Budget::K16);
        assert_eq!(alone.label(), "16KB gshare alone");
    }

    #[test]
    fn every_critic_builds_at_its_max_future_bits() {
        for critic in CriticKind::ALL {
            for budget in Budget::ALL {
                let mut spec = HybridSpec::paired(ProphetKind::Gshare, budget, critic, budget, 0);
                spec.future_bits = spec.max_future_bits();
                assert_eq!(spec.build().future_bits(), spec.future_bits, "{spec}");
            }
        }
        // The tagged gshare's BOR is 18 bits at every budget.
        let tgshare = HybridSpec::paired(
            ProphetKind::Gshare,
            Budget::K8,
            CriticKind::TaggedGshare,
            Budget::K32,
            1,
        );
        assert_eq!(tgshare.max_future_bits(), 18);
    }
}
