//! Differential property suite for the batched kernels.
//!
//! Every predictor's `replay_block` and `train_block` must be
//! prediction-for-prediction and state-for-state identical to the scalar
//! `predict`/`update` path — for random chunk sizes 1..=64, with the global
//! history evolving *inside* chunks (`replay_block` derives each element's
//! history value from the chunk's start register and the outcomes of the
//! elements before it). The BENCH artifacts and every cached `sim::store`
//! cell depend on prediction streams, so this equivalence is the gate on
//! the whole structure-of-arrays layer.

use predictors::configs::{self, Budget};
use predictors::{
    BcGskew, Bimodal, DirectionPredictor, DynamicAllocator, GAs, Gshare, HistoryBits, Local, Pc,
    PredictInput, Prediction, Tage, TaggedGshare, Yags,
};
use predictors::{Perceptron, PredictBlock};
use workloads::rng::SmallRng;

/// Builds a branch stream with evolving global history: a pool of aliasing
/// branch addresses with mixed behaviours (biased, patterned, noisy), where
/// each element's history value captures all earlier outcomes — so chunk
/// boundaries fall mid-pattern and mid-history.
fn stream(hist_len: usize, n: usize, seed: u64) -> Vec<PredictInput> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut hist = HistoryBits::new(hist_len);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let which = rng.gen_range(0usize..24);
        let pc = Pc::new(0x40_0000 + (which as u64) * 4);
        let taken = match which % 3 {
            0 => which.is_multiple_of(2),             // statically biased
            1 => (i / (which + 1)).is_multiple_of(2), // loop-like pattern
            _ => rng.gen_bool(0.5),                   // noise
        };
        out.push(PredictInput { pc, hist, taken });
        hist.push(taken);
    }
    out
}

/// A stream over 256 distinct statics, for predictors at the sizes replay
/// runs. Half the elements come from 16 hot statics that own slots 0..16
/// of the H2P allocator's 32-entry tracker; all of them mispredict often
/// enough to be flagged, so they fill a 16-slot allocator. The other half
/// come from 240 statics that share slots 16..32, fifteen to a slot, so
/// the tracker keeps evicting one profile for another.
fn wide_stream(hist_len: usize, n: usize, seed: u64) -> Vec<PredictInput> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut hist = HistoryBits::new(hist_len);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        // Branch `k` sits at word `0x10_0000 + k`, in tracker slot `k % 32`.
        let (k, taken) = if rng.gen_bool(0.5) {
            let k = rng.gen_range(0usize..16);
            let taken = if k.is_multiple_of(2) {
                rng.gen_bool(0.5)
            } else {
                hist.outcome(k % 7) ^ rng.gen_bool(0.3)
            };
            (k, taken)
        } else {
            let c = rng.gen_range(0usize..240);
            let taken = match c % 3 {
                0 => c.is_multiple_of(2),
                1 => (i / (c % 13 + 1)).is_multiple_of(2),
                _ => rng.gen_bool(0.5),
            };
            (32 * (c / 16) + 16 + c % 16, taken)
        };
        out.push(PredictInput {
            pc: Pc::new(0x40_0000 + (k as u64) * 4),
            hist,
            taken,
        });
        hist.push(taken);
    }
    out
}

/// Splits `inputs` into chunks of random sizes 1..=64.
fn random_chunks(inputs: &[PredictInput], seed: u64) -> Vec<&[PredictInput]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut chunks = Vec::new();
    let mut rest = inputs;
    while !rest.is_empty() {
        let take = rng.gen_range(1usize..=64).min(rest.len());
        let (head, tail) = rest.split_at(take);
        chunks.push(head);
        rest = tail;
    }
    chunks
}

/// Replays `chunks` in order through `replay_block`, each as its
/// addresses, its outcome mask and its first element's history register.
/// Returns every direction.
fn replay_run<'a, P: DirectionPredictor>(
    p: &mut P,
    chunks: impl IntoIterator<Item = &'a [PredictInput]>,
) -> Vec<bool> {
    let mut preds = Vec::new();
    for chunk in chunks {
        let pcs: Vec<Pc> = chunk.iter().map(|input| input.pc).collect();
        let mut outcomes = 0u64;
        for (i, input) in chunk.iter().enumerate() {
            outcomes |= u64::from(input.taken) << i;
        }
        let block = p.replay_block(&pcs, outcomes, chunk[0].hist);
        assert_eq!(block.len(), chunk.len());
        preds.extend((0..block.len()).map(|i| block.taken(i)));
    }
    preds
}

/// The scalar reference: predict-then-update per element.
fn scalar_run<P: DirectionPredictor>(p: &mut P, inputs: &[PredictInput]) -> Vec<bool> {
    inputs
        .iter()
        .map(|input| {
            let pred = p.predict(input.pc, input.hist).taken();
            p.update(input.pc, input.hist, input.taken);
            pred
        })
        .collect()
}

/// Asserts batched == scalar on [`stream`] with a register of the
/// predictor's own history length.
fn assert_batch_equiv<P>(make: impl Fn() -> P, seed: u64)
where
    P: DirectionPredictor + PartialEq + std::fmt::Debug,
{
    let hist_len = make().history_len().max(1);
    assert_batch_equiv_on(make, &stream(hist_len, 4096, seed), seed);
}

/// Asserts batched == scalar over `inputs`: directions element-for-element,
/// then the full predictor state (via `PartialEq` over every table word,
/// weight, tag and LRU stamp), for `replay_block`, `train_block` and a mix
/// of the two. Returns the scalar run's final predictor.
fn assert_batch_equiv_on<P>(make: impl Fn() -> P, inputs: &[PredictInput], seed: u64) -> P
where
    P: DirectionPredictor + PartialEq + std::fmt::Debug,
{
    let mut scalar = make();
    let scalar_preds = scalar_run(&mut scalar, inputs);

    // replay_block over random chunk sizes.
    let mut replayed = make();
    let replay_preds = replay_run(&mut replayed, random_chunks(inputs, seed ^ 0x000b_10c4));
    assert_eq!(
        replay_preds,
        scalar_preds,
        "{}: replay_block directions diverged from scalar",
        scalar.name()
    );
    assert_eq!(
        replayed,
        scalar,
        "{}: predictor state diverged after replay_block",
        scalar.name()
    );

    // train_block must land in the same state (predict has no side effects,
    // so a train-only pass tracks the scalar state exactly).
    let mut trained = make();
    for chunk in random_chunks(inputs, seed ^ 0x7_ea1) {
        trained.train_block(chunk);
    }
    assert_eq!(
        trained,
        scalar,
        "{}: predictor state diverged after train_block",
        scalar.name()
    );

    // Interleaving the two batched entry points mid-stream must also track
    // the scalar state.
    let mut mixed = make();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3_b0b);
    for chunk in random_chunks(inputs, seed ^ 0x3_b0b) {
        if rng.gen_bool(0.5) {
            let _ = replay_run(&mut mixed, [chunk]);
        } else {
            mixed.train_block(chunk);
        }
    }
    assert_eq!(
        mixed,
        scalar,
        "{}: predictor state diverged after mixed replay/train blocks",
        scalar.name()
    );
    scalar
}

#[test]
fn bimodal_batched_equals_scalar() {
    assert_batch_equiv(|| Bimodal::new(1024), 0xb1);
}

#[test]
fn gshare_batched_equals_scalar() {
    assert_batch_equiv(|| Gshare::new(4096, 12), 0x95);
}

#[test]
fn gshare_smallest_table3_budget_batched_equals_scalar() {
    // The 2 KB Table-3 gshare: 8K entries, 13-bit history — the packed
    // banks' smallest production configuration.
    assert_batch_equiv(|| Gshare::new(8 * 1024, 13), 0x2b);
}

#[test]
fn gas_batched_equals_scalar() {
    assert_batch_equiv(|| GAs::new(4096, 6), 0x6a);
}

#[test]
fn local_batched_equals_scalar() {
    assert_batch_equiv(|| Local::new(512, 10, 4096), 0x10c);
}

#[test]
fn bc_gskew_batched_equals_scalar() {
    assert_batch_equiv(|| BcGskew::new(2048, 11), 0x65);
}

#[test]
fn perceptron_batched_equals_scalar() {
    assert_batch_equiv(|| Perceptron::new(113, 17), 0x9e);
}

#[test]
fn yags_batched_equals_scalar() {
    assert_batch_equiv(|| Yags::new(1024, 128, 2, 8, 13), 0x7a);
}

#[test]
fn tagged_gshare_batched_equals_scalar() {
    // Exercises the fused LRU/clock sequence: hits and misses, allocation,
    // eviction — all must leave the clock and stamps bit-identical.
    assert_batch_equiv(|| TaggedGshare::new(256, 6, 9, 18), 0x46);
}

#[test]
fn tage_batched_equals_scalar() {
    // The production-shaped TAGE: provider/altpred selection, use-alt
    // policy updates, allocation and useful-bit movement all must land
    // bit-identical under the fused kernels.
    assert_batch_equiv(|| Tage::new(256, 64, 4, 8, 24), 0x7a9e);
}

#[test]
fn tage_allocation_storm_batched_equals_scalar() {
    // 16-entry banks: the 24-address stream aliases constantly, so most
    // elements mispredict and hammer the allocate-on-mispredict path —
    // including the everyone-protected fallback that decays a whole
    // column of useful bits at once.
    assert_batch_equiv(|| Tage::new(64, 16, 4, 4, 12), 0x57_0a);
}

#[test]
fn tage_tag_aliasing_batched_equals_scalar() {
    // 2-bit partial tags over 8-entry banks: false tag hits are the
    // common case, so provider selection constantly lands on entries
    // trained by other statics. Order-dependent — any reordering inside
    // the batched kernels shows up immediately.
    assert_batch_equiv(|| Tage::new(64, 8, 4, 2, 10), 0xa11a);
}

#[test]
fn tage_with_allocator_batched_equals_scalar() {
    // Pre-flagged H2P statics: dedicated-entry training, the tournament
    // chooser and the confidence-gated override all run inside the
    // batched kernels and must track scalar exactly.
    assert_batch_equiv(
        || {
            let mut p =
                Tage::new(256, 64, 4, 8, 24).with_allocator(DynamicAllocator::new(8, 16, 32));
            let a = p.allocator_mut().unwrap();
            // Statics 0, 7 and 13 from the stream's 24-address pool.
            a.flag(Pc::new(0x40_0000));
            a.flag(Pc::new(0x40_0000 + 7 * 4));
            a.flag(Pc::new(0x40_0000 + 13 * 4));
            p
        },
        0xa110,
    );
}

#[test]
fn tage_with_allocator_on_longer_registers_batched_equals_scalar() {
    // Registers longer than `history_len` (24): the allocator must index
    // its dedicated entries with the 24 bits the banks read, on the scalar
    // path as in `replay_block`, which clips the register. Statics are
    // flagged online.
    for len in [40, 64] {
        let seed = 0x40b ^ len as u64;
        let p = assert_batch_equiv_on(
            || Tage::new(256, 64, 4, 8, 24).with_allocator(DynamicAllocator::new(8, 16, 32)),
            &stream(len, 4096, seed),
            seed,
        );
        assert!(p.allocator().unwrap().flagged_statics() > 0);
    }
}

#[test]
fn replay_lineup_bimodal_batched_equals_scalar() {
    let make = || Bimodal::new(64 * 1024);
    let inputs = wide_stream(make().history_len(), 8192, 0xb164);
    assert_batch_equiv_on(make, &inputs, 0xb164);
}

#[test]
fn replay_lineup_gas_batched_equals_scalar() {
    let make = || GAs::new(64 * 1024, 10);
    let inputs = wide_stream(make().history_len(), 8192, 0x6a64);
    assert_batch_equiv_on(make, &inputs, 0x6a64);
}

#[test]
fn replay_lineup_perceptron_batched_equals_scalar() {
    // The 16 KB row replay runs: 348 rows of 47 history weights.
    let make = || configs::perceptron(Budget::K16);
    let inputs = wide_stream(make().history_len(), 8192, 0x9e16);
    assert_batch_equiv_on(make, &inputs, 0x9e16);
}

#[test]
fn perceptron_on_a_short_register_batched_equals_scalar() {
    // A 20-bit register under 47 weights: positions 20..47 read not-taken.
    let inputs = wide_stream(20, 8192, 0x9e20);
    assert_batch_equiv_on(|| configs::perceptron(Budget::K16), &inputs, 0x9e20);
}

#[test]
fn replay_lineup_yags_batched_equals_scalar() {
    let make = || Yags::new(32 * 1024, 1024, 2, 9, 13);
    let inputs = wide_stream(make().history_len(), 8192, 0x7a16);
    assert_batch_equiv_on(make, &inputs, 0x7a16);
}

#[test]
fn replay_lineup_tage_batched_equals_scalar() {
    let make = || configs::tage(Budget::K16);
    let inputs = wide_stream(make().history_len(), 8192, 0x7a9e16);
    assert_batch_equiv_on(make, &inputs, 0x7a9e16);
}

#[test]
fn replay_lineup_tage_h2p_batched_equals_scalar() {
    // 256 statics against a 16-slot allocator and a 32-entry tracker:
    // every slot fills, and the flagged statics' dedicated entries and
    // choosers train for most of the stream.
    let make = || configs::tage_h2p(Budget::K16);
    let inputs = wide_stream(make().history_len(), 8192, 0xa116);
    let statics: std::collections::BTreeSet<Pc> = inputs.iter().map(|e| e.pc).collect();
    assert_eq!(statics.len(), 256);
    let p = assert_batch_equiv_on(make, &inputs, 0xa116);
    let a = p.allocator().unwrap();
    assert_eq!(a.flagged_statics(), a.capacity());
}

#[test]
fn tage_aging_reset_boundary_batched_equals_scalar() {
    // Three full useful-bit aging periods (one `halve_all` per 4096
    // updates), with random chunk boundaries falling mid-period: the
    // deterministic aging tick must fire at the same element index in
    // scalar and batched runs, and the saturated useful counters built
    // up within each period must halve to identical values.
    let make = || Tage::new(256, 64, 4, 8, 24);
    let mut scalar = make();
    let inputs = stream(scalar.history_len(), 3 * 4096 + 777, 0xa6e);
    let scalar_preds = scalar_run(&mut scalar, &inputs);

    let mut batched = make();
    let got = replay_run(&mut batched, random_chunks(&inputs, 0xa6e ^ 0x77));
    assert_eq!(
        got, scalar_preds,
        "tage: directions diverged across aging resets"
    );
    assert_eq!(batched, scalar, "tage: state diverged across aging resets");
}

/// A predictor that implements only the scalar interface — it exercises the
/// trait's *default* batched implementations, which every predictor
/// without a fused kernel (tagged gshare among them) falls back on.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ScalarOnly(Gshare);

impl DirectionPredictor for ScalarOnly {
    fn predict(&self, pc: Pc, hist: HistoryBits) -> Prediction {
        self.0.predict(pc, hist)
    }
    fn update(&mut self, pc: Pc, hist: HistoryBits, taken: bool) {
        self.0.update(pc, hist, taken);
    }
    fn history_len(&self) -> usize {
        self.0.history_len()
    }
    fn storage_bits(&self) -> usize {
        self.0.storage_bits()
    }
    fn name(&self) -> &'static str {
        "scalar-only"
    }
}

#[test]
fn default_batched_implementations_equal_scalar() {
    assert_batch_equiv(|| ScalarOnly(Gshare::new(2048, 10)), 0xde);
}

#[test]
fn chunk_capacity_boundary_is_exact() {
    // Full 64-element blocks — the replay engine's steady-state chunk size.
    let mut scalar = Gshare::new(4096, 12);
    let inputs = stream(12, 64 * 32, 0xca);
    let scalar_preds = scalar_run(&mut scalar, &inputs);
    let mut batched = Gshare::new(4096, 12);
    let got = replay_run(&mut batched, inputs.chunks(PredictBlock::CAPACITY));
    assert_eq!(got, scalar_preds);
    assert_eq!(batched, scalar);
}
