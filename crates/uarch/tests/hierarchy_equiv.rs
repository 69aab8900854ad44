//! Differential suite for the flat data-side hierarchy.
//!
//! `uarch::Cache` keeps each set's tags in most-recently-used-first order in
//! one flat array, the prefetcher keeps its slots in a recency list and
//! returns a prefetch depth, and `DataStream` hands each address to a
//! closure. The `reference` module below keeps the layout they replaced:
//! per-set vectors of `(valid, tag, lru stamp)` under a global access
//! clock, a prefetcher that evicts the slot with the oldest age stamp and
//! returns the lines to fetch as a `Vec`, and a `Vec`-returning,
//! SipHash-keyed address generator. Every cycle-model figure and every
//! cached cell depends on the data side's hits, misses and prefetches, so
//! the two must agree call for call: every access result, every
//! `contains`, the running hit and miss counts, every hierarchy
//! `(latency, level)`, `counts()` and `prefetches()`.

use uarch::{AccessLevel, Cache, CacheParams, DataProfile, DataStream, Hierarchy, MachineParams};

/// The replaced implementation, kept as the oracle.
mod reference {
    use uarch::{AccessLevel, CacheParams, DataProfile, MachineParams};

    /// Stamp-LRU cache: per-set vectors of `(valid, tag, lru)`.
    pub struct Cache {
        sets: Vec<Vec<(bool, u64, u64)>>,
        line_shift: u32,
        set_mask: u64,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl Cache {
        pub fn new(p: &CacheParams) -> Self {
            let sets = p.sets();
            Self {
                sets: vec![vec![(false, 0, 0); p.ways]; sets],
                line_shift: p.line_bytes.trailing_zeros(),
                set_mask: (sets - 1) as u64,
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn locate(&self, addr: u64) -> (usize, u64) {
            let line = addr >> self.line_shift;
            (
                (line & self.set_mask) as usize,
                line >> self.sets.len().trailing_zeros(),
            )
        }

        pub fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let (set, tag) = self.locate(addr);
            let ways = &mut self.sets[set];
            if let Some(w) = ways.iter_mut().find(|(v, t, _)| *v && *t == tag) {
                w.2 = self.clock;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|(v, _, lru)| (*v, *lru))
                .expect("cache has ways");
            *victim = (true, tag, self.clock);
            false
        }

        pub fn fill(&mut self, addr: u64) {
            self.clock += 1;
            let (set, tag) = self.locate(addr);
            let ways = &mut self.sets[set];
            if ways.iter().any(|(v, t, _)| *v && *t == tag) {
                return;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|(v, _, lru)| (*v, *lru))
                .expect("cache has ways");
            *victim = (true, tag, self.clock);
        }

        pub fn contains(&self, addr: u64) -> bool {
            let (set, tag) = self.locate(addr);
            self.sets[set].iter().any(|(v, t, _)| *v && *t == tag)
        }

        pub fn hits(&self) -> u64 {
            self.hits
        }

        pub fn misses(&self) -> u64 {
            self.misses
        }
    }

    /// Stream prefetcher returning the lines to prefetch.
    struct StreamPrefetcher {
        streams: Vec<(u64, u32, u64)>,
        clock: u64,
        issued: u64,
    }

    impl StreamPrefetcher {
        fn new(n: usize) -> Self {
            Self {
                streams: vec![(u64::MAX, 0, 0); n],
                clock: 0,
                issued: 0,
            }
        }

        fn observe(&mut self, line: u64) -> Vec<u64> {
            self.clock += 1;
            if let Some(s) = self
                .streams
                .iter_mut()
                .find(|(last, _, _)| last.wrapping_add(1) == line)
            {
                s.0 = line;
                s.1 = (s.1 + 1).min(8);
                s.2 = self.clock;
                if s.1 >= 2 {
                    let depth = u64::from(s.1.min(4));
                    self.issued += depth;
                    return (1..=depth).map(|d| line + d).collect();
                }
                return Vec::new();
            }
            let slot = self
                .streams
                .iter_mut()
                .min_by_key(|(_, _, age)| *age)
                .expect("prefetcher has streams");
            *slot = (line, 0, self.clock);
            Vec::new()
        }
    }

    pub struct Hierarchy {
        l1: Cache,
        l2: Cache,
        prefetcher: StreamPrefetcher,
        l1_hit: u64,
        l2_hit: u64,
        mem_lat: u64,
        counts: (u64, u64, u64),
    }

    impl Hierarchy {
        pub fn new(m: &MachineParams) -> Self {
            Self {
                l1: Cache::new(&m.l1d),
                l2: Cache::new(&m.l2),
                prefetcher: StreamPrefetcher::new(m.prefetch_streams),
                l1_hit: m.l1d.hit_cycles,
                l2_hit: m.l2.hit_cycles,
                mem_lat: m.memory_cycles(),
                counts: (0, 0, 0),
            }
        }

        pub fn access(&mut self, addr: u64) -> (u64, AccessLevel) {
            if self.l1.access(addr) {
                self.counts.0 += 1;
                return (self.l1_hit, AccessLevel::L1);
            }
            for line in self.prefetcher.observe(addr >> 6) {
                self.l2.fill(line << 6);
            }
            if self.l2.access(addr) {
                self.counts.1 += 1;
                return (self.l2_hit, AccessLevel::L2);
            }
            self.counts.2 += 1;
            (self.mem_lat, AccessLevel::Memory)
        }

        pub fn counts(&self) -> (u64, u64, u64) {
            self.counts
        }

        pub fn prefetches(&self) -> u64 {
            self.prefetcher.issued
        }
    }

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `Vec`-returning address generator with SipHash-keyed counters.
    pub struct DataStream {
        profile: DataProfile,
        counters: std::collections::HashMap<u64, u64>,
        base: u64,
    }

    impl DataStream {
        pub fn new(profile: DataProfile, seed: u64) -> Self {
            Self {
                profile,
                counters: std::collections::HashMap::new(),
                base: 0x1000_0000 ^ (seed << 12),
            }
        }

        pub fn accesses(&mut self, block_key: u64, uops: u64) -> Vec<u64> {
            let n = uops / u64::from(self.profile.uops_per_access.max(1));
            if n == 0 {
                return Vec::new();
            }
            let h = mix(block_key);
            let streaming = (h % 1000) < u64::from(self.profile.streaming_permille);
            let iter = self.counters.entry(block_key).or_insert(0);
            let ws = self.profile.working_set.max(4096);
            let mut out = Vec::with_capacity(n as usize);
            for k in 0..n {
                let addr = if streaming {
                    let region = (h >> 10) % 64;
                    self.base + region * (ws / 64) + ((*iter * n + k) * 8) % (ws / 64)
                } else {
                    self.base + mix(h ^ (*iter * n + k)) % ws
                };
                out.push(addr);
            }
            *iter += 1;
            out
        }
    }
}

/// A local xorshift64* generator: `uarch` has no dependencies.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The unit-test geometry (8 sets × 2 ways), a direct-mapped one
/// (16 × 1, where the most recent way is the whole set) and Table 2's
/// I-cache (128 × 8), L1D (32 × 16) and L2 (2048 × 16).
fn geometries() -> Vec<(&'static str, CacheParams)> {
    let m = MachineParams::isca04();
    let tiny = CacheParams {
        size_bytes: 1024,
        ways: 2,
        line_bytes: 64,
        hit_cycles: 1,
    };
    let direct = CacheParams { ways: 1, ..tiny };
    vec![
        ("tiny", tiny),
        ("direct", direct),
        ("icache", m.icache),
        ("l1d", m.l1d),
        ("l2", m.l2),
    ]
}

/// Prefetcher sizes the hierarchy tests run: a single slot (its own
/// least and most recent), two, three and Table 2's sixteen.
const STREAM_COUNTS: [usize; 4] = [1, 2, 3, 16];

/// Table 2's machine with `streams` prefetch streams.
fn machine(streams: usize) -> MachineParams {
    MachineParams {
        prefetch_streams: streams,
        ..MachineParams::isca04()
    }
}

/// Applies one operation to both caches and compares everything the
/// public API shows.
struct CachePair {
    label: String,
    flat: Cache,
    oracle: reference::Cache,
    ops: u64,
}

impl CachePair {
    fn new(label: String, p: &CacheParams) -> Self {
        Self {
            label,
            flat: Cache::new(p),
            oracle: reference::Cache::new(p),
            ops: 0,
        }
    }

    fn access(&mut self, addr: u64) {
        self.ops += 1;
        let (got, want) = (self.flat.access(addr), self.oracle.access(addr));
        assert_eq!(
            got, want,
            "{}: access({addr:#x}) at op {}",
            self.label, self.ops
        );
        self.probe(addr);
        self.check_counts();
    }

    fn fill(&mut self, addr: u64) {
        self.ops += 1;
        self.flat.fill(addr);
        self.oracle.fill(addr);
        self.probe(addr);
        self.check_counts();
    }

    fn probe(&self, addr: u64) {
        assert_eq!(
            self.flat.contains(addr),
            self.oracle.contains(addr),
            "{}: contains({addr:#x}) at op {}",
            self.label,
            self.ops
        );
    }

    fn check_counts(&self) {
        assert_eq!(
            (self.flat.hits(), self.flat.misses()),
            (self.oracle.hits(), self.oracle.misses()),
            "{}: hits/misses at op {}",
            self.label,
            self.ops
        );
    }
}

#[test]
fn cache_matches_reference_on_seeded_streams() {
    for (name, p) in geometries() {
        let line = p.line_bytes as u64;
        let sets = p.sets() as u64;
        let lines = sets * p.ways as u64;
        for seed in 1..=3u64 {
            let mut rng = XorShift::new(seed ^ lines);
            let mut pair = CachePair::new(format!("{name} seed {seed}"), &p);
            // Tags well past 32 bits, as data addresses carry `seed << 12`.
            let base = (rng.next() >> 20) << 12;
            let mut recent = base;
            let ops = (lines * 12).clamp(20_000, 250_000);
            for _ in 0..ops {
                let addr = match rng.below(10) {
                    // Anywhere in four times the capacity: steady evictions.
                    0..=3 => base + rng.below(4 * lines * line),
                    // Many lines aliasing one set, cycling past its ways.
                    4 | 5 => base + rng.below(3 * p.ways as u64) * sets * line + rng.below(line),
                    // A line just touched, at another offset.
                    6 => (recent & !(line - 1)) + rng.below(line),
                    // A short ascending walk from the last address.
                    _ => recent + line,
                };
                recent = addr;
                if rng.below(4) == 0 {
                    pair.fill(addr);
                } else {
                    pair.access(addr);
                }
                pair.probe(base + rng.below(4 * lines * line));
            }
        }
    }
}

#[test]
fn fills_of_resident_lines_keep_their_recency() {
    for (name, p) in geometries() {
        let line = p.line_bytes as u64;
        let stride = p.sets() as u64 * line;
        let ways = p.ways as u64;
        let mut pair = CachePair::new(name.to_string(), &p);
        // Fill one set, then re-fill its LRU line before every miss: the
        // re-fill must not protect it, so each miss evicts it.
        for k in 0..ways {
            pair.access(k * stride);
        }
        for k in ways..4 * ways {
            pair.fill((k - ways) * stride);
            pair.access(k * stride);
            for j in 0..=k {
                pair.probe(j * stride);
            }
        }
        // Fills into a partly filled set take empty ways first.
        let other = line;
        for k in 0..ways {
            pair.fill(other + k * stride);
            pair.fill(other);
            for j in 0..=k {
                pair.probe(other + j * stride);
            }
        }
    }
}

/// Drives both hierarchies with one address and compares the results.
fn hierarchy_step(flat: &mut Hierarchy, oracle: &mut reference::Hierarchy, addr: u64, op: u64) {
    let got: (u64, AccessLevel) = flat.access(addr);
    assert_eq!(got, oracle.access(addr), "access({addr:#x}) at op {op}");
    assert_eq!(flat.counts(), oracle.counts(), "counts at op {op}");
    assert_eq!(
        flat.prefetches(),
        oracle.prefetches(),
        "prefetches at op {op}"
    );
}

#[test]
fn hierarchy_matches_reference_on_every_data_profile() {
    let profiles = [
        ("streaming", DataProfile::streaming()),
        ("scattered", DataProfile::scattered()),
        ("resident", DataProfile::resident()),
    ];
    for streams in STREAM_COUNTS {
        let m = machine(streams);
        for (profile_name, profile) in profiles {
            let name = format!("{profile_name}, {streams} streams");
            for seed in [0x5EED_u64, 0x15CA_2004] {
                let mut rng = XorShift::new(seed);
                let mut stream = DataStream::new(profile, seed);
                let mut oracle_stream = reference::DataStream::new(profile, seed);
                let mut flat = Hierarchy::new(&m);
                let mut oracle = reference::Hierarchy::new(&m);
                // A program of 600 static blocks, visited at random with
                // varying chunk sizes, as the pipeline feeds wrong paths.
                let blocks: Vec<u64> = (0..600)
                    .map(|_| 0x40_0000 + rng.below(1 << 18) * 4)
                    .collect();
                let mut op = 0;
                for _ in 0..40_000 {
                    let key = blocks[rng.below(blocks.len() as u64) as usize];
                    let uops = 1 + rng.below(40);
                    let mut got = Vec::new();
                    stream.for_each_access(key, uops, |a| got.push(a));
                    let want = oracle_stream.accesses(key, uops);
                    assert_eq!(got, want, "{name}: addresses of block {key:#x}");
                    for addr in want {
                        op += 1;
                        hierarchy_step(&mut flat, &mut oracle, addr, op);
                    }
                }
                assert!(
                    flat.counts().2 > 0 && flat.prefetches() > 0,
                    "{name}: the run must reach memory and the prefetcher"
                );
            }
        }
    }
}

#[test]
fn hierarchy_matches_reference_on_interleaved_streams() {
    // Ascending streams at one or two lines per step, interleaved with
    // scattered traffic and restarted where other streams are: streams
    // overtake each other and reuse slots. A restarted stream re-touches
    // lines still in the L1, so the prefetcher rarely sees one line twice;
    // the next test covers that case. Fewer slots than streams make every
    // prefetcher size recycle its slots.
    for streams in STREAM_COUNTS {
        let m = machine(streams);
        let mut rng = XorShift::new(7);
        let mut flat = Hierarchy::new(&m);
        let mut oracle = reference::Hierarchy::new(&m);
        let mut heads: Vec<u64> = (0..24).map(|i| 0x7_0000_0000 + i * 0x10_0000).collect();
        for op in 0..200_000u64 {
            let addr = match rng.below(8) {
                0 => 0x7_0000_0000 + rng.below(96 << 20),
                1 => {
                    let (a, b) = (rng.below(24) as usize, rng.below(24) as usize);
                    heads[a] = heads[b];
                    heads[a]
                }
                _ => {
                    let s = rng.below(24) as usize;
                    heads[s] += 64 * (1 + rng.below(2));
                    heads[s]
                }
            };
            hierarchy_step(&mut flat, &mut oracle, addr, op);
        }
        assert!(flat.prefetches() > 0, "{streams} streams must prefetch");
    }
}

#[test]
fn streams_sharing_a_last_line_resolve_in_slot_order() {
    // Two prefetch streams end on the same line only when that line left
    // the L1 between their accesses. Train stream A up to line `x`, push
    // `x` out of the L1 with one long walk (one stream, 512 lines, every
    // 32nd in `x`'s L1 set), then miss on `x` again: a fresh stream B also
    // ends at `x`. The next lines continue whichever comes first in slot
    // order: A, which took the first slot of the fresh prefetcher.
    let m = MachineParams::isca04();
    let mut flat = Hierarchy::new(&m);
    let mut oracle = reference::Hierarchy::new(&m);
    let x = 0x3_0000_0000_u64 >> 6;
    let walk = x + 1 + 32 * 1000;
    let mut op = 0;
    let mut step = |flat: &mut Hierarchy, line: u64| {
        op += 1;
        hierarchy_step(flat, &mut oracle, line << 6, op);
    };
    for line in (x - 3..=x).chain(walk..walk + 512) {
        step(&mut flat, line);
    }
    let before = flat.prefetches();
    for line in [x, x + 1, x + 2] {
        step(&mut flat, line);
    }
    assert_eq!(
        flat.prefetches() - before,
        8,
        "A (confidence 3) continues twice at depth 4; B would issue 2"
    );
}

#[test]
fn hierarchy_matches_reference_from_line_zero() {
    // The prefetcher's empty slots hold line `u64::MAX`, one line behind
    // line 0, so line 0 continues an empty slot's "stream".
    for streams in STREAM_COUNTS {
        let m = machine(streams);
        let mut flat = Hierarchy::new(&m);
        let mut oracle = reference::Hierarchy::new(&m);
        for (op, addr) in [0, 64, 128, 0, 192, 256, 64 << 20, 0]
            .into_iter()
            .enumerate()
        {
            hierarchy_step(&mut flat, &mut oracle, addr, op as u64);
        }
        assert!(flat.prefetches() > 0, "{streams} streams must prefetch");
    }
}
