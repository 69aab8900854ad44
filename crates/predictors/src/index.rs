//! Index and tag hash functions.
//!
//! Every table-based predictor boils down to “hash (PC, history) into an
//! index”. This module centralizes the hash families used across the crate:
//!
//! * [`gshare_index`] — the classic XOR of PC bits with (folded) history.
//! * [`skew`] — a family of three decorrelated indexing functions in the
//!   style of the e-gskew/2Bc-gskew predictors, built from two cheap
//!   bijections (`h` and `g` below play the roles of H and H⁻¹ in the
//!   Seznec/Michaud construction).
//! * [`mix2`] — a pair of *different* XOR-based hashes over (PC, BOR) used by
//!   the filtered critic, matching §4: “The index into the table and the tags
//!   are computed with two different hash functions … different XOR functions
//!   of the branch address and BOR value.”

use crate::history::{fold_bits, mask};

/// XOR-fold `value` down to `width` bits (re-export of the history fold for
/// arbitrary words such as PCs).
#[must_use]
pub fn fold(value: u64, width: usize) -> u64 {
    fold_bits(value, 64, width)
}

/// The conventional gshare index: PC bits XOR folded history, `width` bits.
///
/// The PC is pre-shifted by 2 since branch addresses of uop-level IA32 code
/// are effectively 4-byte aligned for indexing purposes.
#[must_use]
pub fn gshare_index(pc: u64, hist: u64, hist_len: usize, width: usize) -> u64 {
    let h = fold_bits(hist, hist_len, width);
    ((pc >> 2) ^ h) & mask(width)
}

/// The bijection H of the skewed hash family (Seznec's skewed-associative
/// construction): shift left, feeding `msb ^ lsb` into the vacated low bit.
///
/// `H(x)_i = x_{i-1}` for `i ≥ 1`, `H(x)_0 = x_{n-1} ^ x_0`.
#[must_use]
pub fn skew_h(x: u64, n: usize) -> u64 {
    debug_assert!((2..=63).contains(&n));
    let m = mask(n);
    let x = x & m;
    let msb = (x >> (n - 1)) & 1;
    (((x << 1) & m) | (msb ^ (x & 1))) & m
}

/// The exact inverse bijection H⁻¹: shift right, reconstructing the old high
/// bit as `lsb ^ bit1`.
#[must_use]
pub fn skew_g(x: u64, n: usize) -> u64 {
    debug_assert!((2..=63).contains(&n));
    let m = mask(n);
    let x = x & m;
    let lsb = x & 1;
    let bit1 = (x >> 1) & 1;
    ((x >> 1) | ((lsb ^ bit1) << (n - 1))) & m
}

/// The shared PC operand of the [`skew`] family at `width` bits — the
/// multiplicative scramble and fold every member applies to the branch
/// address. Factored out so fused kernels can compute it once per element
/// and combine it with [`skew_h`]/[`skew_g`] directly; [`skew`] itself is
/// defined in terms of it.
#[must_use]
pub fn skew_pc(pc: u64, width: usize) -> u64 {
    fold((pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15), width)
}

/// The three skewed indexing functions used by 2Bc-gskew's G0, G1 and META
/// banks.
///
/// `which` selects the member of the family (0, 1 or 2). The input is the
/// concatenation of folded history and PC bits, split in halves `v1`/`v2`
/// as in the original construction:
///
/// * `f0(v) = H(v1) ^ G(v2) ^ v2`
/// * `f1(v) = H(v1) ^ G(v2) ^ v1`
/// * `f2(v) = G(v1) ^ H(v2) ^ v2`
///
/// # Panics
///
/// Panics if `which > 2` or `width` is out of range `2..=31`.
#[must_use]
pub fn skew(which: usize, pc: u64, hist: u64, hist_len: usize, width: usize) -> u64 {
    assert!(which <= 2, "skew function index {which} out of range");
    assert!((2..=31).contains(&width), "skew width {width} out of range");
    let h = fold_bits(hist, hist_len, width);
    let p = skew_pc(pc, width);
    let v1 = h;
    let v2 = p;
    let out = match which {
        0 => skew_h(v1, width) ^ skew_g(v2, width) ^ v2,
        1 => skew_h(v1, width) ^ skew_g(v2, width) ^ v1,
        _ => skew_g(v1, width) ^ skew_h(v2, width) ^ v2,
    };
    out & mask(width)
}

/// The PC operand of [`mix2`]'s tag at `tag_width` bits, for an index of
/// `index_width` bits. It does not depend on the history, so kernels that
/// hash one branch into several equally sized tables (TAGE's banks)
/// compute it once per branch; [`mix2`] itself is defined in terms of it.
#[must_use]
pub(crate) fn mix2_tag_pc(pc: u64, index_width: usize, tag_width: usize) -> u64 {
    fold(
        (pc >> 2).rotate_left(7) ^ (pc >> (2 + index_width)),
        tag_width,
    )
}

/// Two different XOR hashes of `(pc, bits)` producing an `index` of
/// `index_width` bits and a `tag` of `tag_width` bits.
///
/// Used by the filtered critic (§4) and by tagged gshare. The two hashes
/// fold the history at different granularities and swizzle the PC
/// differently, minimizing the probability that two distinct
/// (address, BOR) contexts collide on *both* index and tag.
#[must_use]
pub fn mix2(
    pc: u64,
    bits: u64,
    bits_len: usize,
    index_width: usize,
    tag_width: usize,
) -> (u64, u64) {
    let idx = gshare_index(pc, bits, bits_len, index_width);
    // Tag: fold history at tag width, XOR with differently-shifted PC bits so
    // that index and tag disagree on how they view both inputs.
    let th = fold_bits(bits, bits_len, tag_width);
    let tag = (th ^ mix2_tag_pc(pc, index_width, tag_width)) & mask(tag_width);
    (idx, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_index_masks_to_width() {
        for pc in [0u64, 4, 0xdead_beef, u64::MAX] {
            for hist in [0u64, 0x5555, u64::MAX] {
                let idx = gshare_index(pc, hist, 16, 10);
                assert!(idx < (1 << 10));
            }
        }
    }

    #[test]
    fn gshare_index_depends_on_history() {
        let a = gshare_index(0x400_0000, 0b1010, 13, 13);
        let b = gshare_index(0x400_0000, 0b1011, 13, 13);
        assert_ne!(a, b);
    }

    #[test]
    fn gshare_index_depends_on_pc() {
        let a = gshare_index(0x1000, 0b1010, 13, 13);
        let b = gshare_index(0x1004, 0b1010, 13, 13);
        assert_ne!(a, b);
    }

    #[test]
    fn skew_h_is_bijective_on_small_width() {
        let n = 8;
        let mut seen = vec![false; 1 << n];
        for x in 0..(1u64 << n) {
            let y = skew_h(x, n) as usize;
            assert!(!seen[y], "skew_h collision at {x}");
            seen[y] = true;
        }
    }

    #[test]
    fn skew_g_is_bijective_on_small_width() {
        let n = 8;
        let mut seen = vec![false; 1 << n];
        for x in 0..(1u64 << n) {
            let y = skew_g(x, n) as usize;
            assert!(!seen[y], "skew_g collision at {x}");
            seen[y] = true;
        }
    }

    #[test]
    fn skew_members_are_decorrelated() {
        // The three functions must map the same (pc, hist) to mostly
        // different indices; count agreements over a sweep.
        let width = 10;
        let mut same01 = 0;
        let mut same02 = 0;
        let mut total = 0;
        for pc in (0..2048u64).map(|i| 0x40_0000 + i * 4) {
            let hist = pc.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let f0 = skew(0, pc, hist, 13, width);
            let f1 = skew(1, pc, hist, 13, width);
            let f2 = skew(2, pc, hist, 13, width);
            same01 += usize::from(f0 == f1);
            same02 += usize::from(f0 == f2);
            total += 1;
        }
        // Random chance of agreement is 1/1024; allow generous slack.
        assert!(
            same01 < total / 50,
            "f0/f1 agree too often: {same01}/{total}"
        );
        assert!(
            same02 < total / 50,
            "f0/f2 agree too often: {same02}/{total}"
        );
    }

    #[test]
    fn mix2_widths_respected() {
        let (idx, tag) = mix2(0xdead_bee0, 0xffff, 18, 8, 9);
        assert!(idx < (1 << 8));
        assert!(tag < (1 << 9));
    }

    #[test]
    fn mix2_index_and_tag_differ_in_sensitivity() {
        // Two contexts that collide on the index should usually have
        // different tags.
        let mut collisions = 0;
        let mut both = 0;
        let contexts: Vec<(u64, u64)> = (0..4096u64)
            .map(|i| (0x40_0000 + (i % 64) * 4, i.wrapping_mul(0x9E37_79B9)))
            .collect();
        for (i, &(pc_a, h_a)) in contexts.iter().enumerate() {
            let (ia, ta) = mix2(pc_a, h_a, 18, 8, 9);
            for &(pc_b, h_b) in &contexts[i + 1..i + 8.min(contexts.len() - i)] {
                let (ib, tb) = mix2(pc_b, h_b, 18, 8, 9);
                if ia == ib {
                    collisions += 1;
                    if ta == tb {
                        both += 1;
                    }
                }
            }
        }
        if collisions > 20 {
            assert!(
                both * 10 < collisions,
                "tags fail to disambiguate index collisions: {both}/{collisions}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "skew function index")]
    fn skew_rejects_bad_member() {
        let _ = skew(3, 0, 0, 8, 10);
    }
}
