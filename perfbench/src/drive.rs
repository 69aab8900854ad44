//! Time-boxed driving of a workload's two operation kinds, and the run
//! inputs derived from the workload seed.

use std::time::Instant;

use sim::experiments::common::{expand_benchmarks, select_benchmarks, BenchSet};
use sim::experiments::ExpEnv;
use workloads::Benchmark;

/// One timed operation: host time and the work it did.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Sample {
    /// Which cell (or request) of the workload ran.
    pub cell: usize,
    /// Host nanoseconds.
    pub ns: f64,
    /// Work units (replayed branches or committed uops; 1 per request).
    pub work: f64,
}

/// The best-of-run host time of one operation: each cell's fastest
/// execution, averaged over cells with every cell weighted equally.
///
/// On a shared host the same cell runs 30–50 % slower during busy spells
/// of one to several seconds, and runs mix spells differently, so means and
/// medians move with the host. A cell's fastest execution in the run is
/// what the code costs when nothing else contends; it moves with the code.
#[must_use]
pub fn cell_best_ns(samples: &[Sample]) -> f64 {
    let mut best: std::collections::BTreeMap<usize, f64> = Default::default();
    for s in samples {
        let e = best.entry(s.cell).or_insert(f64::INFINITY);
        *e = e.min(s.ns);
    }
    best.values().sum::<f64>() / best.len() as f64
}

/// Work per host microsecond over `samples` (millions of units a second).
#[must_use]
pub fn rate(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| s.work).sum::<f64>() * 1e3 / samples.iter().map(|s| s.ns).sum::<f64>()
}

/// Host samples of one workload: its fast operations (a replay cell, an
/// accuracy cell, a warm request) and its slow ones (a trace-fed cycle
/// cell, a cycle cell, a cold request), plus its set-up and probe times.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// Fast-operation samples.
    pub fast: Vec<Sample>,
    /// Slow-operation samples.
    pub slow: Vec<Sample>,
    /// Seconds per set-up repetition.
    pub setups: Vec<f64>,
    /// Nanoseconds per [`probe_ns`] call.
    pub probes: Vec<f64>,
}

/// Table words the probe updates (64 KB, inside the host's L2).
const PROBE_WORDS: usize = 1 << 13;

/// Probe iterations: about 0.3 ms on the reference host.
const PROBE_ITERS: u32 = 100_000;

/// Probe calls after every slice pair.
const PROBES: usize = 5;

/// The probe's fastest time on the reference host: a 2-vCPU x86-64 VM
/// (Xeon, 2.0 GHz) in a quiet spell.
pub const PROBE_REF_NS: f64 = 300_000.0;

/// Host nanoseconds of one call of a fixed integer workload that belongs
/// to the benchmark, not to the code it measures: xorshift draws updating
/// a 64 KB table behind a data-dependent branch. Its fastest time in a run
/// tells how fast the host ran CPU-bound code during that run.
#[must_use]
pub fn probe_ns() -> f64 {
    let mut table = vec![0u64; PROBE_WORDS];
    let (mut x, mut acc) = (0x2545_F491_4F6C_DD1D_u64, 0u64);
    let t0 = Instant::now();
    for _ in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & (PROBE_WORDS - 1)];
        if *slot & 1 == x >> 63 {
            acc = acc.wrapping_add(*slot);
        } else {
            acc ^= x;
        }
        *slot = slot.wrapping_add(x >> 32);
    }
    std::hint::black_box(acc);
    ns_since(t0)
}

/// The fastest of `samples`.
#[must_use]
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs one set-up repetition; returns its result and its seconds.
pub fn timed_setup<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Host nanoseconds since `t0`.
#[must_use]
pub fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// The two operation kinds of a workload.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A replay cell, an accuracy cell, a warm request.
    Fast,
    /// A trace-fed cycle cell, a cycle cell, a cold request.
    Slow,
}

/// Runs `op` on each kind in alternating slices until `seconds` have
/// passed (at least one operation of each kind), calling `between` and
/// then the probe after every fast and slow slice pair, and returns the
/// fast, slow and probe samples.
///
/// There are about 20 pairs, and a slow slice is nine times a fast one.
/// Busy spells on a shared host last seconds; a cell's best time comes from
/// the quiet stretches between them, so one sweep over every slow cell (up
/// to 80 times the cost of a fast one) must fit in such a stretch, while
/// each fast cell still runs dozens of times. Alternating short slices
/// spread both kinds, and whatever `between` times, over the same host
/// conditions.
pub fn alternate(
    seconds: f64,
    mut op: impl FnMut(Kind) -> Sample,
    mut between: impl FnMut(),
) -> Timing {
    let start = Instant::now();
    let fast_s = seconds / 200.0;
    let mut t = Timing::default();
    while t.fast.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for (kind, out, slice_s) in [
            (Kind::Fast, &mut t.fast, fast_s),
            (Kind::Slow, &mut t.slow, 9.0 * fast_s),
        ] {
            let slice = Instant::now();
            loop {
                out.push(op(kind));
                if slice.elapsed().as_secs_f64() >= slice_s {
                    break;
                }
            }
        }
        between();
        t.probes.extend((0..PROBES).map(|_| probe_ns()));
    }
    t
}

/// Every execution of a cell must reproduce its first one exactly; the
/// first one is kept in `first`.
pub fn same_as_first<R: PartialEq>(first: &mut Option<R>, r: R) -> bool {
    match first {
        Some(f) => *f == r,
        None => {
            *first = Some(r);
            true
        }
    }
}

/// Workload seeds fold onto this many variant rounds, so the expansion
/// below stays at most 1 400 benchmarks long.
const SEED_ROUNDS: u64 = 100;

/// The fast set for workload seed `seed`: round `k` of `expand_benchmarks`,
/// with `k` the seed modulo [`SEED_ROUNDS`]. Round 0 is the Table 1 set
/// itself, so seed 0 keeps the Table 1 names and seeds; other rounds rename
/// and reseed every benchmark, so both the programs and their walks change.
#[must_use]
pub fn benchmarks(seed: u64) -> Vec<Benchmark> {
    let base = select_benchmarks(BenchSet::Fast);
    let n = base.len();
    let k = (seed % SEED_ROUNDS) as usize;
    expand_benchmarks(base, n * (k + 1)).split_off(n * k)
}

/// A single-threaded, storeless experiment environment at `scale` (the
/// workspace's `SCALE` convention: `scale × 1.2 M` uops per benchmark).
#[must_use]
pub fn env(scale: f64) -> ExpEnv {
    ExpEnv {
        scale,
        ..ExpEnv::tiny().with_threads(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_slice_expand_benchmarks() {
        let ids = |v: &[Benchmark]| -> Vec<(String, u64)> {
            v.iter().map(|b| (b.name.clone(), b.seed)).collect()
        };
        let base = select_benchmarks(BenchSet::Fast);
        let n = base.len();
        assert_eq!(ids(&benchmarks(0)), ids(&base));
        let expanded = expand_benchmarks(base, n * 3);
        for k in 0..3 {
            assert_eq!(ids(&benchmarks(k as u64)), ids(&expanded[n * k..n * (k + 1)]));
        }
        assert_eq!(ids(&benchmarks(SEED_ROUNDS + 2)), ids(&benchmarks(2)));
        assert_eq!(benchmarks(u64::MAX).len(), n);
    }

    #[test]
    fn later_executions_must_match_the_first() {
        let mut first = None;
        assert!(same_as_first(&mut first, 3));
        assert!(same_as_first(&mut first, 3));
        assert!(!same_as_first(&mut first, 4));
        assert_eq!(first, Some(3));
    }

    #[test]
    fn alternate_samples_both_kinds() {
        let mut pairs = 0;
        let t = alternate(
            0.0,
            |kind| Sample {
                cell: 0,
                ns: if kind == Kind::Fast { 1.0 } else { 2.0 },
                work: 1.0,
            },
            || pairs += 1,
        );
        assert_eq!((t.fast.len(), t.slow.len(), pairs), (1, 1, 1));
        assert_eq!(t.slow[0].ns, 2.0);
        assert_eq!(t.probes.len(), PROBES);
        assert!(best(&t.probes) > 0.0);
    }

    #[test]
    fn cell_best_weights_cells_equally() {
        let s = |cell, ns| Sample {
            cell,
            ns,
            work: 1.0,
        };
        // Cell 0 ran three times (best 1), cell 1 once (10): they average
        // to 5.5 however often each ran.
        let samples = [s(0, 3.0), s(0, 1.0), s(0, 2.0), s(1, 10.0)];
        assert_eq!(cell_best_ns(&samples), 5.5);
        assert_eq!(rate(&samples), 4.0 * 1e3 / 16.0);
    }
}
