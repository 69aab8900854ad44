//! Randomized tests of the hybrid engine's protocol invariants under
//! seeded drive sequences (offline stand-in for proptest).

use std::collections::VecDeque;

use workloads::rng::SmallRng;

use predictors::{Bimodal, Gshare, Pc};
use prophet_critic::{
    BranchId, Critic, CritiqueEvent, CritiqueKind, NullCritic, ProphetCritic, TaggedGshareCritic,
    UnfilteredCritic,
};

/// A seeded random branch stream of `(pc index, outcome)` pairs.
fn stream(rng: &mut SmallRng) -> Vec<(u16, bool)> {
    let len = rng.gen_range(1usize..300);
    (0..len)
        .map(|_| (rng.gen_range(0u16..64), rng.gen::<bool>()))
        .collect()
}

/// Drives a hybrid through a branch stream with the proper fetch-order
/// protocol and returns its final stats.
fn drive<C: Critic>(
    mut hybrid: ProphetCritic<Bimodal, C>,
    stream: &[(u16, bool)],
    depth: usize,
) -> (u64, u64) {
    let mut outcomes: std::collections::VecDeque<bool> = std::collections::VecDeque::new();
    for (pc_raw, outcome) in stream {
        let pc = Pc::new(0x1000 + u64::from(*pc_raw) * 4);
        hybrid.predict(pc);
        outcomes.push_back(*outcome);
        while hybrid.critique_next().is_some() {}
        // Keep the in-flight window bounded like the simulator does.
        while hybrid.in_flight() > depth {
            if !hybrid.critique_ready() {
                let _ = hybrid.force_critique_next();
            }
            let outcome = outcomes.pop_front().expect("outcome per in-flight branch");
            let ev = hybrid.resolve_oldest(outcome).expect("head critiqued");
            if ev.mispredict {
                // Flushed branches' outcomes are discarded with them.
                outcomes.drain(..ev.flushed.min(outcomes.len()));
            }
        }
    }
    // Drain.
    while hybrid.in_flight() > 0 {
        if !hybrid.critique_ready() {
            let _ = hybrid.force_critique_next();
        }
        let outcome = outcomes.pop_front().unwrap_or(false);
        let ev = hybrid.resolve_oldest(outcome).expect("drains cleanly");
        if ev.mispredict {
            outcomes.drain(..ev.flushed.min(outcomes.len()));
        }
    }
    (hybrid.stats().total(), hybrid.stats().final_mispredicts())
}

#[test]
fn engine_commits_every_branch_exactly_once_null() {
    let mut rng = SmallRng::seed_from_u64(0xB001);
    for _ in 0..40 {
        let s = stream(&mut rng);
        let hybrid = ProphetCritic::new(Bimodal::new(128), NullCritic::new(), 0);
        // Resolve each branch before predicting the next (depth 0): with
        // f=0 nothing is speculated past a branch, so every stream entry
        // commits exactly once.
        let (committed, misp) = drive(hybrid, &s, 0);
        assert_eq!(committed, s.len() as u64);
        assert!(misp <= committed);
    }
}

#[test]
fn engine_never_wedges_with_future_bits() {
    let mut rng = SmallRng::seed_from_u64(0xB002);
    for _ in 0..40 {
        let s = stream(&mut rng);
        let fb = rng.gen_range(1usize..=8);
        let critic = UnfilteredCritic::new(Gshare::new(256, 8));
        let hybrid = ProphetCritic::new(Bimodal::new(128), critic, fb);
        // Lazy resolution: speculated branches flushed by a mispredict are
        // not re-fetched by this driver, so commits can be fewer than the
        // stream length — but the engine must never wedge or over-commit.
        let (committed, misp) = drive(hybrid, &s, 12);
        assert!(committed >= 1);
        assert!(committed <= s.len() as u64);
        assert!(misp <= committed);
    }
}

#[test]
fn stats_taxonomy_is_conserved() {
    let mut rng = SmallRng::seed_from_u64(0xB003);
    for _ in 0..40 {
        let s = stream(&mut rng);
        let fb = rng.gen_range(1usize..=6);
        let critic = TaggedGshareCritic::new(predictors::TaggedGshare::new(64, 4, 9, 12));
        let mut hybrid = ProphetCritic::new(Bimodal::new(128), critic, fb);
        // Drive inline to keep access to stats.
        let mut outcomes: std::collections::VecDeque<bool> = Default::default();
        for (pc_raw, outcome) in &s {
            hybrid.predict(Pc::new(0x1000 + u64::from(*pc_raw) * 4));
            outcomes.push_back(*outcome);
            while hybrid.critique_next().is_some() {}
            while hybrid.in_flight() > 10 {
                if !hybrid.critique_ready() {
                    let _ = hybrid.force_critique_next();
                }
                let o = outcomes.pop_front().unwrap();
                let ev = hybrid.resolve_oldest(o).unwrap();
                if ev.mispredict {
                    outcomes.drain(..ev.flushed.min(outcomes.len()));
                }
            }
        }
        let stats = hybrid.stats();
        let sum: u64 = CritiqueKind::ALL.iter().map(|k| stats.count(*k)).sum();
        assert_eq!(sum, stats.total());
        assert_eq!(
            stats.final_mispredicts(),
            stats.count(CritiqueKind::IncorrectAgree)
                + stats.count(CritiqueKind::IncorrectNone)
                + stats.count(CritiqueKind::CorrectDisagree)
        );
    }
}

#[test]
fn bhr_always_reflects_committed_outcomes_for_null_critic() {
    let mut rng = SmallRng::seed_from_u64(0xB004);
    for _ in 0..40 {
        let len = rng.gen_range(1usize..64);
        let outcomes: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
        // With a NullCritic and immediate resolution, after each commit the
        // BHR's newest bit must equal the committed outcome (speculative
        // push repaired on mispredict).
        let mut hybrid = ProphetCritic::new(Gshare::new(256, 8), NullCritic::new(), 0);
        for (i, outcome) in outcomes.iter().enumerate() {
            hybrid.predict(Pc::new(0x2000 + (i as u64 % 16) * 4));
            while hybrid.critique_next().is_some() {}
            let _ = hybrid.resolve_oldest(*outcome).unwrap();
            assert_eq!(hybrid.bhr().outcome(0), *outcome);
        }
    }
}

/// The cycle feed's speculation bound: twice the 32-entry FTQ.
const FEED_DEPTH: usize = 64;

/// A driver's mirror of one in-flight branch: its id and, once critiqued,
/// its final direction.
type Slot = (BranchId, Option<bool>);

/// Renders the oldest critique, ready or `force`d, and checks it against
/// the driver's mirror of the in-flight queue, which it keeps in step.
fn critique<C: Critic>(
    hybrid: &mut ProphetCritic<Bimodal, C>,
    mirror: &mut VecDeque<Slot>,
    force: bool,
) -> Option<CritiqueEvent> {
    let ready = hybrid.critique_ready();
    let ev = if force {
        hybrid.force_critique_next()
    } else {
        hybrid.critique_next()
    };
    let oldest = mirror.iter().position(|s| s.1.is_none());
    if !force {
        assert_eq!(
            ev.is_some(),
            ready,
            "critique_next renders exactly the ready critique"
        );
    }
    let Some(ev) = ev else {
        assert!(
            !force || oldest.is_none(),
            "a forced critique always renders"
        );
        return None;
    };
    let idx = oldest.expect("a critique renders an uncritiqued branch");
    assert_eq!(ev.id, mirror[idx].0, "critiques render oldest-first");
    if ev.overridden {
        assert_eq!(ev.flushed, mirror.len() - idx - 1);
        mirror.truncate(idx + 1);
    }
    mirror[idx].1 = Some(ev.final_taken);
    Some(ev)
}

/// What one deep drive exercised.
#[derive(Debug, Default)]
struct DeepDrive {
    overrides: u64,
    forced: u64,
    mispredict_flushes: u64,
    deepest: usize,
}

impl DeepDrive {
    fn note(&mut self, ev: &CritiqueEvent, future_bits: usize) {
        self.overrides += u64::from(ev.overridden);
        self.forced += u64::from(ev.future_bits_used < future_bits);
    }
}

/// Drives `hybrid` for `steps` seeded random steps with up to
/// [`FEED_DEPTH`] branches in flight: fetch, drain ready critiques, force
/// the oldest critique at whatever depth the queue has, or resolve the
/// head with an outcome that is right 90 % of the time, as a warm
/// predictor's is, so the queue often runs full.
fn drive_deep<C: Critic>(
    mut hybrid: ProphetCritic<Bimodal, C>,
    rng: &mut SmallRng,
    steps: usize,
) -> DeepDrive {
    let fb = hybrid.future_bits();
    let mut mirror: VecDeque<Slot> = VecDeque::new();
    let mut seen = DeepDrive::default();
    for _ in 0..steps {
        match rng.gen_range(0u32..10) {
            // A full queue resolves its head instead of fetching.
            0..=5 if mirror.len() < FEED_DEPTH => {
                let pc = Pc::new(0x1000 + rng.gen_range(0u64..64) * 4);
                mirror.push_back((hybrid.predict(pc).id, None));
            }
            6 | 7 => {
                while let Some(ev) = critique(&mut hybrid, &mut mirror, false) {
                    seen.note(&ev, fb);
                }
            }
            8 => {
                if let Some(ev) = critique(&mut hybrid, &mut mirror, true) {
                    seen.note(&ev, fb);
                }
            }
            _ => {
                let Some(&(id, critiqued)) = mirror.front() else {
                    continue;
                };
                let final_taken = match critiqued {
                    Some(taken) => taken,
                    None => {
                        let ev = critique(&mut hybrid, &mut mirror, true)
                            .expect("an uncritiqued head can be forced");
                        seen.note(&ev, fb);
                        ev.final_taken
                    }
                };
                let outcome = final_taken ^ rng.gen_bool(0.1);
                let ev = hybrid
                    .resolve_oldest(outcome)
                    .expect("the head is critiqued");
                assert_eq!(ev.id, id);
                assert_eq!(ev.mispredict, outcome != final_taken);
                if ev.mispredict {
                    assert_eq!(ev.flushed, mirror.len() - 1);
                    seen.mispredict_flushes += u64::from(ev.flushed > 0);
                    mirror.clear();
                } else {
                    mirror.pop_front();
                }
            }
        }
        assert_eq!(hybrid.in_flight(), mirror.len());
        seen.deepest = seen.deepest.max(mirror.len());
    }
    seen
}

/// The drives above keep at most 12 branches in flight; the cycle feed
/// keeps up to 64. At that depth, for every future-bit count 0..=8 and
/// both a filtering and an unfiltered critic, overrides, forced critiques
/// and mispredict flushes all run past the engine's debug-build check
/// that its critiqued-prefix counter agrees with a scan of the queue.
#[test]
fn critiqued_prefix_holds_at_the_cycle_feeds_depth() {
    let mut rng = SmallRng::seed_from_u64(0xB005);
    for fb in 0..=8 {
        let unfiltered = ProphetCritic::new(
            Bimodal::new(128),
            UnfilteredCritic::new(Gshare::new(256, 8)),
            fb,
        );
        let tagged = ProphetCritic::new(
            Bimodal::new(128),
            TaggedGshareCritic::new(predictors::TaggedGshare::new(64, 4, 9, 12)),
            fb,
        );
        for seen in [
            drive_deep(unfiltered, &mut rng, 4000),
            drive_deep(tagged, &mut rng, 4000),
        ] {
            assert_eq!(seen.deepest, FEED_DEPTH, "fb {fb}: {seen:?}");
            assert!(seen.overrides > 0, "fb {fb}: {seen:?}");
            assert!(seen.mispredict_flushes > 0, "fb {fb}: {seen:?}");
            // With at most one future bit, a branch's own prophecy
            // completes its input, so no critique can be short of bits.
            assert_eq!(seen.forced > 0, fb > 1, "fb {fb}: {seen:?}");
        }
    }
}
