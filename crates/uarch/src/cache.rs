//! A set-associative cache hierarchy with a stream prefetcher.
//!
//! Table 2's memory system: 64 KB I-cache, 32 KB L1D (3-cycle), 2 MB L2
//! (16-cycle), 100 ns memory, and a 16-stream hardware data prefetcher.
//!
//! The cycle model runs the data side on every fetched chunk, wrong paths
//! included, so each level keeps its tags in one flat, set-major array and
//! no access allocates.

use crate::params::{CacheParams, MachineParams};

/// Marks an empty way. A real tag drops the address's line offset and set
/// index bits, at least one of them, so it never reaches this value.
const INVALID: u64 = u64::MAX;

/// One set-associative cache level with true-LRU replacement.
///
/// Each set is a run of `ways` tags in recency order, most recently used
/// first, with empty ways at the end. An access moves its tag to the
/// front: a hit carries the ways ahead of the tag's old slot down one, a
/// miss carries the whole set down one, dropping the last way (an empty
/// one while the set is filling, the LRU line once it is full).
#[derive(Clone, Debug)]
pub struct Cache {
    /// `sets × ways` tags, set-major.
    tags: Vec<u64>,
    ways: usize,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

/// Moves `tag` to the front of `ways` in one pass: puts it in way 0 and
/// carries each way down one slot, stopping at the slot the tag left.
/// Returns whether the tag was there; if not, every way moved and the
/// last one dropped out.
fn move_to_front(ways: &mut [u64], tag: u64) -> bool {
    let mut carry = tag;
    for way in ways {
        let old = std::mem::replace(way, carry);
        if old == tag {
            return true;
        }
        carry = old;
    }
    false
}

impl Cache {
    /// Builds a cache from its parameters.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no power-of-two set count, or neither a
    /// line offset nor a set index to take from the address (its tags
    /// would need every `u64` value).
    #[must_use]
    pub fn new(p: &CacheParams) -> Self {
        let sets = p.sets();
        let line_shift = p.line_bytes.trailing_zeros();
        let set_bits = sets.trailing_zeros();
        assert!(
            line_shift + set_bits > 0,
            "full-width tags leave no value free to mark empty ways"
        );
        Self {
            tags: vec![INVALID; sets * p.ways],
            ways: p.ways,
            line_shift,
            set_bits,
            set_mask: (sets - 1) as u64,
            hits: 0,
            misses: 0,
        }
    }

    /// The tags of `addr`'s set, and its tag.
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        let start = (line & self.set_mask) as usize * self.ways;
        (start..start + self.ways, line >> self.set_bits)
    }

    /// Accesses `addr`; returns whether it hit. Misses allocate the line.
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let ways = &mut self.tags[set];
        // Most hits are on the most recent way, which needs no move.
        let hit = ways[0] == tag || move_to_front(ways, tag);
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Installs a line without counting an access (prefetch fill). A line
    /// already resident keeps its place in the recency order.
    pub fn fill(&mut self, addr: u64) {
        let (set, tag) = self.locate(addr);
        let ways = &mut self.tags[set];
        if !ways.contains(&tag) {
            move_to_front(ways, tag);
        }
    }

    /// Whether `addr` is resident (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.tags[set].contains(&tag)
    }

    /// Demand hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// A simple stream-based hardware prefetcher (Table 2: 16 streams).
///
/// Detects ascending line-granularity streams on L2 accesses and prefetches
/// the next lines into L2. A new stream replaces the least recently used
/// slot; slots no stream has touched yet go first, in slot order.
#[derive(Clone, Debug)]
struct StreamPrefetcher {
    /// Last line seen per stream slot; `u64::MAX` in a slot never touched.
    last: Vec<u64>,
    /// Confidence per stream slot, saturating at 8.
    confidence: Vec<u32>,
    /// The slots in recency order, a circular doubly linked list through
    /// node `n` (one past the last slot): `newer[n]` is the least recently
    /// used slot, `older[n]` the most recent. Untouched slots start the
    /// list in slot order.
    newer: Vec<usize>,
    older: Vec<usize>,
    issued: u64,
}

impl StreamPrefetcher {
    /// Builds a prefetcher with `n` stream slots.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0: a new stream needs a slot to take.
    fn new(n: usize) -> Self {
        assert!(n > 0, "prefetcher has streams");
        Self {
            last: vec![u64::MAX; n],
            confidence: vec![0; n],
            newer: (0..=n).map(|s| (s + 1) % (n + 1)).collect(),
            older: (0..=n).map(|s| (s + n) % (n + 1)).collect(),
            issued: 0,
        }
    }

    /// Makes `slot` the most recently used.
    fn touch(&mut self, slot: usize) {
        let (older, newer) = (self.older[slot], self.newer[slot]);
        self.newer[older] = newer;
        self.older[newer] = older;
        let end = self.last.len();
        let mru = self.older[end];
        self.newer[mru] = slot;
        self.older[slot] = mru;
        self.newer[slot] = end;
        self.older[end] = slot;
    }

    /// Observes a demand line address; returns how many of the lines after
    /// it to prefetch.
    fn observe(&mut self, line: u64) -> u64 {
        // Existing stream one line behind? The first in slot order wins
        // (an untouched slot's `u64::MAX` is one line behind line 0).
        let behind = line.wrapping_sub(1);
        if let Some(slot) = self.last.iter().position(|&last| last == behind) {
            self.last[slot] = line;
            let confidence = (self.confidence[slot] + 1).min(8);
            self.confidence[slot] = confidence;
            self.touch(slot);
            if confidence >= 2 {
                let depth = u64::from(confidence.min(4));
                self.issued += depth;
                return depth;
            }
            return 0;
        }
        // Allocate a new stream over the LRU slot.
        let slot = self.newer[self.last.len()];
        self.last[slot] = line;
        self.confidence[slot] = 0;
        self.touch(slot);
        0
    }
}

/// Latency classification of one data access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AccessLevel {
    /// L1D hit.
    L1,
    /// L2 hit.
    L2,
    /// Memory access.
    Memory,
}

/// The full data-side hierarchy: L1D + L2 + memory latency + prefetcher.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    prefetcher: StreamPrefetcher,
    l1_hit: u64,
    l2_hit: u64,
    mem_lat: u64,
    pub_l1_hits: u64,
    pub_l2_hits: u64,
    pub_mem: u64,
}

impl Hierarchy {
    /// Builds the Table 2 data hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `m` has no prefetch streams, or a data cache geometry
    /// [`Cache::new`] rejects.
    #[must_use]
    pub fn new(m: &MachineParams) -> Self {
        Self {
            l1: Cache::new(&m.l1d),
            l2: Cache::new(&m.l2),
            prefetcher: StreamPrefetcher::new(m.prefetch_streams),
            l1_hit: m.l1d.hit_cycles,
            l2_hit: m.l2.hit_cycles,
            mem_lat: m.memory_cycles(),
            pub_l1_hits: 0,
            pub_l2_hits: 0,
            pub_mem: 0,
        }
    }

    /// Performs a demand data access; returns `(latency_cycles, level)`.
    pub fn access(&mut self, addr: u64) -> (u64, AccessLevel) {
        if self.l1.access(addr) {
            self.pub_l1_hits += 1;
            return (self.l1_hit, AccessLevel::L1);
        }
        // The prefetcher observes the full L2 access stream (hits included,
        // so a stream keeps training once its own prefetches start hitting).
        let line = addr >> 6;
        for d in 1..=self.prefetcher.observe(line) {
            self.l2.fill((line + d) << 6);
        }
        if self.l2.access(addr) {
            self.pub_l2_hits += 1;
            return (self.l2_hit, AccessLevel::L2);
        }
        self.pub_mem += 1;
        (self.mem_lat, AccessLevel::Memory)
    }

    /// `(l1_hits, l2_hits, memory_accesses)` so far.
    #[must_use]
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.pub_l1_hits, self.pub_l2_hits, self.pub_mem)
    }

    /// Prefetch lines issued so far.
    #[must_use]
    pub fn prefetches(&self) -> u64 {
        self.prefetcher.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheParams {
        CacheParams {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            hit_cycles: 1,
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(&tiny());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1030), "same 64-byte line");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1024B / 2 ways / 64B lines = 8 sets. Same set every 8 lines.
        let mut c = Cache::new(&tiny());
        let a = 0x0000u64;
        let b = a + 8 * 64;
        let d = a + 16 * 64;
        c.access(a);
        c.access(b);
        c.access(a); // a most recent; b is LRU
        c.access(d); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn fill_does_not_count_as_demand() {
        let mut c = Cache::new(&tiny());
        c.fill(0x2000);
        assert_eq!(c.misses() + c.hits(), 0);
        assert!(c.access(0x2000), "prefilled line hits");
    }

    #[test]
    fn hierarchy_latencies_are_ordered() {
        let m = MachineParams::isca04();
        let mut h = Hierarchy::new(&m);
        let (mem, lvl) = h.access(0x10_0000);
        assert_eq!(lvl, AccessLevel::Memory);
        assert_eq!(mem, 380);
        let (l1, lvl) = h.access(0x10_0000);
        assert_eq!(lvl, AccessLevel::L1);
        assert_eq!(l1, 3);
        assert_eq!(h.counts(), (1, 0, 1));
    }

    #[test]
    #[should_panic(expected = "prefetcher has streams")]
    fn zero_prefetch_streams_fail_at_construction() {
        let m = MachineParams {
            prefetch_streams: 0,
            ..MachineParams::isca04()
        };
        let _ = Hierarchy::new(&m);
    }

    #[test]
    fn streaming_pattern_trains_prefetcher() {
        let m = MachineParams::isca04();
        let mut h = Hierarchy::new(&m);
        let mut mem_accesses_late = 0;
        for i in 0..64u64 {
            let addr = 0x800_0000 + i * 64;
            let (_, lvl) = h.access(addr);
            if i >= 16 && lvl == AccessLevel::Memory {
                mem_accesses_late += 1;
            }
        }
        assert!(
            mem_accesses_late < 24,
            "prefetcher should cover a linear stream, {mem_accesses_late} late misses"
        );
        assert!(h.prefetches() > 0);
    }

    #[test]
    fn random_pattern_defeats_prefetcher() {
        let m = MachineParams::isca04();
        let mut h = Hierarchy::new(&m);
        let mut x = 12345u64;
        let mut mem = 0;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // 64 MB working set: far beyond L2.
            let addr = (x >> 10) % (64 << 20);
            if matches!(h.access(addr).1, AccessLevel::Memory) {
                mem += 1;
            }
        }
        assert!(
            mem > 150,
            "random far accesses should mostly miss, got {mem}"
        );
    }
}
