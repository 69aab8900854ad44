//! Equivalence tests: the enum-dispatch engine ([`HybridSpec::build`])
//! must match the concrete monomorph of the same spec — for example
//! `ProphetCritic<Gshare, TaggedGshareCritic>`, built from the very
//! components the enums wrap — prediction-for-prediction on a shared
//! branch trace.

use predictors::{DirectionPredictor, Pc};
use prophet_critic::{
    AnyCritic, AnyProphet, Budget, Critic, CriticKind, HybridSpec, ProphetCritic, ProphetKind,
};
use workloads::rng::SmallRng;

/// Every prophet × critic pairing the experiments build, each pairing
/// with the override-confidence threshold off and on.
fn all_specs() -> Vec<HybridSpec> {
    let mut out = Vec::new();
    for prophet in ProphetKind::ALL {
        out.push(HybridSpec::alone(prophet, Budget::K4));
        for critic in [
            CriticKind::UnfilteredPerceptron,
            CriticKind::TaggedGshare,
            CriticKind::FilteredPerceptron,
            CriticKind::Tage,
        ] {
            let spec = HybridSpec::paired(prophet, Budget::K4, critic, Budget::K2, 4);
            out.push(spec);
            out.push(spec.with_confident_override(true));
        }
    }
    out
}

/// A check run against the concrete monomorph of `spec`.
trait MonomorphCheck {
    fn check<P: DirectionPredictor, C: Critic>(&self, spec: &HybridSpec, mono: ProphetCritic<P, C>);
}

/// Unwraps the spec's critic (override-confidence flag applied, as
/// `HybridSpec::build` does) to its concrete type.
fn with_monomorph(spec: &HybridSpec, check: &impl MonomorphCheck) {
    let mut critic = spec.critic.build(spec.critic_budget);
    critic.set_confident_override(spec.confident_override);
    match critic {
        AnyCritic::Null(c) => with_prophet(spec, c, check),
        AnyCritic::Unfiltered(c) => with_prophet(spec, c, check),
        AnyCritic::TaggedGshare(c) => with_prophet(spec, c, check),
        AnyCritic::FilteredPerceptron(c) => with_prophet(spec, c, check),
        AnyCritic::Tage(c) => with_prophet(spec, c, check),
    }
}

/// Unwraps the spec's prophet to its concrete type and runs `check` on
/// the resulting `ProphetCritic<Prophet, C>`.
fn with_prophet<C: Critic>(spec: &HybridSpec, critic: C, check: &impl MonomorphCheck) {
    let fb = spec.future_bits;
    match spec.prophet.build(spec.prophet_budget) {
        AnyProphet::Bimodal(p) => check.check(spec, ProphetCritic::new(p, critic, fb)),
        AnyProphet::Gshare(p) => check.check(spec, ProphetCritic::new(p, critic, fb)),
        AnyProphet::GAs(p) => check.check(spec, ProphetCritic::new(p, critic, fb)),
        AnyProphet::Local(p) => check.check(spec, ProphetCritic::new(p, critic, fb)),
        AnyProphet::BcGskew(p) => check.check(spec, ProphetCritic::new(p, critic, fb)),
        AnyProphet::Perceptron(p) => check.check(spec, ProphetCritic::new(p, critic, fb)),
        AnyProphet::Yags(p) => check.check(spec, ProphetCritic::new(p, critic, fb)),
        AnyProphet::Tage(p) => check.check(spec, ProphetCritic::new(p, critic, fb)),
    }
}

/// A shared pseudo-random branch trace: (pc, outcome) pairs.
fn trace(seed: u64, len: usize) -> Vec<(Pc, bool)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let pc = Pc::new(0x40_0000 + rng.gen_range(0u64..96) * 4);
            (pc, rng.gen::<bool>())
        })
        .collect()
}

/// Drives the enum engine and the monomorph in lockstep.
struct Lockstep;

impl MonomorphCheck for Lockstep {
    fn check<P: DirectionPredictor, C: Critic>(
        &self,
        spec: &HybridSpec,
        mut mono: ProphetCritic<P, C>,
    ) {
        let mut fast = spec.build();
        assert_eq!(fast.storage_bits(), mono.storage_bits(), "{}", spec.label());

        let mut outcomes: std::collections::VecDeque<bool> = Default::default();
        for (step, (pc, outcome)) in trace(0xD15C_0000 + spec.future_bits as u64, 600)
            .into_iter()
            .enumerate()
        {
            let pf = fast.predict(pc);
            let pm = mono.predict(pc);
            assert_eq!(
                pf.taken,
                pm.taken,
                "{}: prophecy diverged at {step}",
                spec.label()
            );
            assert_eq!(pf.id, pm.id);
            outcomes.push_back(outcome);

            loop {
                let cf = fast.critique_next();
                let cm = mono.critique_next();
                match (cf, cm) {
                    (None, None) => break,
                    (Some(a), Some(b)) => {
                        assert_eq!(a, b, "{}: critique diverged at {step}", spec.label());
                        if a.overridden {
                            outcomes.truncate(outcomes.len() - a.flushed.min(outcomes.len()));
                        }
                    }
                    (a, b) => panic!(
                        "{}: critique readiness diverged at {step}: {a:?} vs {b:?}",
                        spec.label()
                    ),
                }
            }

            while fast.in_flight() > 12 {
                if !fast.critique_ready() {
                    let a = fast.force_critique_next();
                    let b = mono.force_critique_next();
                    assert_eq!(a, b, "{}: forced critique diverged", spec.label());
                    if let Some(cr) = a {
                        if cr.overridden {
                            outcomes.truncate(outcomes.len() - cr.flushed.min(outcomes.len()));
                        }
                    }
                }
                let o = outcomes.pop_front().expect("outcome per in-flight branch");
                let ra = fast.resolve_oldest(o).expect("head critiqued");
                let rb = mono.resolve_oldest(o).expect("head critiqued");
                assert_eq!(ra, rb, "{}: resolve diverged at {step}", spec.label());
                if ra.mispredict {
                    outcomes.clear();
                }
            }
        }

        assert_eq!(
            fast.stats(),
            mono.stats(),
            "{}: final stats diverged",
            spec.label()
        );
        assert_eq!(fast.bhr(), mono.bhr(), "{}", spec.label());
        assert_eq!(fast.bor(), mono.bor(), "{}", spec.label());
    }
}

#[test]
fn enum_and_monomorph_engines_agree_prediction_for_prediction() {
    for spec in all_specs() {
        with_monomorph(&spec, &Lockstep);
    }
}

/// Compares the enum engine's reported identity with the monomorph's.
struct Identity;

impl MonomorphCheck for Identity {
    fn check<P: DirectionPredictor, C: Critic>(
        &self,
        spec: &HybridSpec,
        mono: ProphetCritic<P, C>,
    ) {
        let fast = spec.build();
        assert_eq!(fast.name(), mono.name(), "{}", spec.label());
        assert_eq!(fast.future_bits(), mono.future_bits());
        assert_eq!(fast.storage_bytes(), mono.storage_bytes());
    }
}

#[test]
fn component_names_and_budgets_survive_the_enum_wrapping() {
    for spec in all_specs() {
        with_monomorph(&spec, &Identity);
    }
}
