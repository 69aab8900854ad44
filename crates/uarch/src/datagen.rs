//! Synthetic data-access streams.
//!
//! The paper's LITs contain full memory images; our programs have no data
//! side, so the cycle model synthesizes one: each basic block owns a
//! deterministic access generator — streaming (array walk, prefetchable) or
//! pointer-chasing (hash-scattered over the working set) — so the cache
//! hierarchy and prefetcher see realistic locality structure that differs
//! by benchmark.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Per-program data-side character.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DataProfile {
    /// Working-set bytes (drives L2 residency).
    pub working_set: u64,
    /// Permille of blocks whose accesses stream sequentially.
    pub streaming_permille: u16,
    /// Uops per data access: a visit of `u` uops issues
    /// `u / uops_per_access` accesses, rounded down (0 counts as 1).
    pub uops_per_access: u32,
}

impl DataProfile {
    /// A cache-friendly profile (FP-like: streaming over big arrays).
    #[must_use]
    pub fn streaming() -> Self {
        Self {
            working_set: 32 << 20,
            streaming_permille: 850,
            uops_per_access: 3,
        }
    }

    /// A pointer-chasing profile (server-like: scattered over a big set).
    #[must_use]
    pub fn scattered() -> Self {
        Self {
            working_set: 48 << 20,
            streaming_permille: 200,
            uops_per_access: 3,
        }
    }

    /// A mostly-resident profile (integer codes: modest working set).
    #[must_use]
    pub fn resident() -> Self {
        Self {
            working_set: 1 << 20,
            streaming_permille: 500,
            uops_per_access: 3,
        }
    }
}

fn mix(x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well-distributed.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hasher of the per-block counter map, whose keys are already
/// `mix`ed: it passes a `u64` key through unchanged. Block keys are
/// branch addresses of a synthetic program or of an operator's trace
/// corpus, never input from a network client, so the map needs no
/// protection against keys crafted to collide.
#[derive(Default)]
struct MixedKeyHasher(u64);

impl Hasher for MixedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Deterministic per-block data-address generator.
#[derive(Clone, Debug)]
pub struct DataStream {
    profile: DataProfile,
    /// Per-block iteration counters (position in the block's array walk),
    /// keyed by the block key's `mix`: a bijection, so each block still
    /// owns exactly one counter.
    counters: HashMap<u64, u64, BuildHasherDefault<MixedKeyHasher>>,
    base: u64,
}

impl DataStream {
    /// Creates a stream generator for one program run.
    #[must_use]
    pub fn new(profile: DataProfile, seed: u64) -> Self {
        Self {
            profile,
            counters: HashMap::default(),
            base: 0x1000_0000 ^ (seed << 12),
        }
    }

    /// Passes `f` each data address, in order, that a block of `uops` uops
    /// issues on this visit. `block_key` identifies the static block (e.g.
    /// its terminator pc).
    pub fn for_each_access(&mut self, block_key: u64, uops: u64, mut f: impl FnMut(u64)) {
        let n = uops / u64::from(self.profile.uops_per_access.max(1));
        if n == 0 {
            return;
        }
        let h = mix(block_key);
        let streaming = (h % 1000) < u64::from(self.profile.streaming_permille);
        let iter = self.counters.entry(h).or_insert(0);
        let ws = self.profile.working_set.max(4096);
        let first = *iter * n;
        *iter += 1;
        if streaming {
            // Sequential walk over a per-block array region.
            let region = self.base + (h >> 10) % 64 * (ws / 64);
            for k in first..first + n {
                f(region + (k * 8) % (ws / 64));
            }
        } else {
            // Hash-scattered over the working set (pointer chase).
            for k in first..first + n {
                f(self.base + mix(h ^ k) % ws);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accesses(d: &mut DataStream, block_key: u64, uops: u64) -> Vec<u64> {
        let mut out = Vec::new();
        d.for_each_access(block_key, uops, |a| out.push(a));
        out
    }

    #[test]
    fn access_count_scales_with_uops() {
        let mut d = DataStream::new(DataProfile::resident(), 1);
        assert_eq!(accesses(&mut d, 0x100, 9).len(), 3);
        assert_eq!(accesses(&mut d, 0x100, 2).len(), 0);
    }

    #[test]
    fn streaming_blocks_emit_sequential_addresses() {
        let profile = DataProfile {
            working_set: 1 << 20,
            streaming_permille: 1000,
            uops_per_access: 3,
        };
        let mut d = DataStream::new(profile, 1);
        let a = accesses(&mut d, 0x40, 30);
        let b = accesses(&mut d, 0x40, 30);
        // Consecutive visits continue the walk: first address of b follows
        // the last address of a by one stride.
        assert_eq!(b[0], a.last().unwrap() + 8);
        assert!(a.windows(2).all(|w| w[1] == w[0] + 8));
    }

    #[test]
    fn scattered_blocks_jump_around() {
        let profile = DataProfile {
            working_set: 32 << 20,
            streaming_permille: 0,
            uops_per_access: 3,
        };
        let mut d = DataStream::new(profile, 1);
        let a = accesses(&mut d, 0x40, 30);
        let far = a.windows(2).filter(|w| w[0].abs_diff(w[1]) > 4096).count();
        assert!(far >= a.len() / 2, "scattered accesses should be far apart");
    }

    #[test]
    fn generator_is_deterministic() {
        let mut d1 = DataStream::new(DataProfile::scattered(), 9);
        let mut d2 = DataStream::new(DataProfile::scattered(), 9);
        assert_eq!(accesses(&mut d1, 0x77, 24), accesses(&mut d2, 0x77, 24));
    }
}
