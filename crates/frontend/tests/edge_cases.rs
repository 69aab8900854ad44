//! Edge-case coverage for the BTB's conflict-eviction paths.

use frontend::Btb;
use predictors::Pc;

/// PCs that collide in one set of a 2-set, 2-way BTB: the set index is
/// taken from the word address (`pc >> 2`), so stepping by
/// `sets * 4` bytes keeps the set and changes the tag.
fn colliding_pcs(n: usize) -> Vec<Pc> {
    (0..n).map(|i| Pc::new(0x1000 + (i as u64) * 8)).collect()
}

#[test]
fn btb_conflict_eviction_is_lru_within_the_set() {
    // 4 entries, 2 ways -> 2 sets; three same-set branches contend.
    let mut btb = Btb::new(4, 2);
    let pcs = colliding_pcs(3);
    btb.allocate(pcs[0], 0xa0, true);
    btb.allocate(pcs[1], 0xa1, true);
    // Touch pcs[0] so pcs[1] becomes LRU, then allocate the third.
    assert!(btb.lookup(pcs[0]).is_some());
    btb.allocate(pcs[2], 0xa2, true);
    assert!(btb.peek(pcs[0]).is_some(), "recently used entry survives");
    assert!(btb.peek(pcs[1]).is_none(), "LRU entry evicted on conflict");
    assert_eq!(btb.peek(pcs[2]).unwrap().target, 0xa2);
    // The other set is untouched by the conflict chain.
    assert_eq!(btb.occupancy(), 2);
}

#[test]
fn btb_eviction_victim_misses_and_reallocates() {
    let mut btb = Btb::new(4, 2);
    let pcs = colliding_pcs(3);
    for (i, pc) in pcs.iter().enumerate() {
        btb.allocate(*pc, i as u64, true);
    }
    // pcs[0] was evicted; a lookup is a miss that redirects the front
    // end, and commit-time reallocation brings it back (evicting the
    // new LRU, pcs[1]).
    let misses_before = btb.misses();
    assert!(btb.lookup(pcs[0]).is_none());
    assert_eq!(btb.misses(), misses_before + 1);
    btb.allocate(pcs[0], 0xb0, true);
    assert_eq!(btb.peek(pcs[0]).unwrap().target, 0xb0);
    assert!(btb.peek(pcs[1]).is_none());
    assert!(btb.peek(pcs[2]).is_some());
}

#[test]
fn btb_conditional_flag_round_trips_through_conflicts() {
    let mut btb = Btb::new(4, 2);
    let pcs = colliding_pcs(2);
    btb.allocate(pcs[0], 0xc0, true);
    btb.allocate(pcs[1], 0xc1, false);
    assert!(btb.lookup(pcs[0]).unwrap().conditional);
    assert!(!btb.lookup(pcs[1]).unwrap().conditional);
}
