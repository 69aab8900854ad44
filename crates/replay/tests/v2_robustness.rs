//! Robustness sweeps for the block-compressed `.bt` v2 format.
//!
//! Four properties, per the format's durability contract:
//!
//! 1. **Round-trip** — on randomized streams, a v2 image decodes (through
//!    the scalar reference reader) to exactly the records a v1 image does.
//! 2. **Truncation** — a v2 image cut at *any* byte offset either fails
//!    with a typed error or yields a strict prefix of the records; it
//!    never panics and never fabricates data.
//! 3. **Bit flips** — a single flipped bit in any block loses *only* that
//!    block: `salvage` recovers every other record intact.
//! 4. **Fault injection** — [`FaultPlan`] flip/trunc corruption applied to
//!    a recorded v2 trace is caught by the strict reader and contained by
//!    `salvage`.

use bptrace::{
    salvage, BranchKind, BranchRecord, BtBlockWriter, BtReader, BtWriter, BT_BLOCK_MAGIC,
    BT_VERSION,
};
use replay::{decode_records, record_trace, replay_bytes, FaultPlan, ReplayConfig};

/// xorshift64* — deterministic, dependency-free randomness for streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A randomized branch stream: mostly conditionals over a PC pool (so the
/// dictionary sees reuse *and* misses), with calls/returns and occasional
/// uops outliers mixed in.
fn random_stream(seed: u64, n: usize) -> Vec<BranchRecord> {
    let mut rng = Rng(seed | 1);
    let pool: Vec<u64> = (0..24)
        .map(|_| 0x40_0000 + (rng.next() & 0xf_fffc))
        .collect();
    (0..n)
        .map(|_| {
            let pc = pool[(rng.next() % pool.len() as u64) as usize];
            let target = pool[(rng.next() % pool.len() as u64) as usize];
            let uops = 1
                + (rng.next() % 9) as u32
                + if rng.next().is_multiple_of(41) {
                    300
                } else {
                    0
                };
            match rng.next() % 10 {
                0 => BranchRecord {
                    pc,
                    target,
                    kind: BranchKind::Call,
                    taken: true,
                    uops_since_prev: uops,
                },
                1 => BranchRecord {
                    pc,
                    target,
                    kind: BranchKind::Return,
                    taken: true,
                    uops_since_prev: uops,
                },
                2 => BranchRecord {
                    pc,
                    target,
                    kind: BranchKind::Jump,
                    taken: true,
                    uops_since_prev: uops,
                },
                _ => BranchRecord::conditional(pc, target, !rng.next().is_multiple_of(3), uops),
            }
        })
        .collect()
}

fn encode_v1(records: &[BranchRecord], name: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = BtWriter::new(&mut buf, name).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
    buf
}

fn encode_v2(records: &[BranchRecord], name: &str, cap: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = BtBlockWriter::with_block_capacity(&mut buf, name, cap).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
    buf
}

#[test]
fn randomized_streams_round_trip_identically_across_formats() {
    for seed in [3, 0x5eed, 0xdead_beef] {
        // Lengths straddling the default and a small block boundary.
        for n in [1usize, 63, 64, 65, 4095, 4096, 4097] {
            let records = random_stream(seed, n);
            let v1 = encode_v1(&records, "rt");
            let v2 = encode_v2(&records, "rt", 64);
            let (n1, d1) = decode_records(&v1).unwrap();
            let (n2, d2) = decode_records(&v2).unwrap();
            assert_eq!((n1.as_str(), &d1), ("rt", &records), "v1 seed={seed} n={n}");
            assert_eq!((n2.as_str(), &d2), ("rt", &records), "v2 seed={seed} n={n}");
        }
    }
}

#[test]
fn truncation_at_every_byte_offset_errors_or_yields_a_strict_prefix() {
    let records = random_stream(7, 500);
    let image = encode_v2(&records, "cut", 64);
    for cut in 0..image.len() {
        match decode_records(&image[..cut]) {
            // A cut landing exactly on a block boundary reads as clean
            // EOF: fewer records, but every one of them right.
            Ok((name, prefix)) => {
                assert_eq!(name, "cut", "cut={cut}");
                assert!(prefix.len() < records.len(), "cut={cut} lost no records");
                assert_eq!(prefix, records[..prefix.len()], "cut={cut} corrupted data");
            }
            Err(e) => {
                let _typed: replay::ReplayError = e;
            }
        }
    }
}

#[test]
fn single_bit_flip_in_any_block_loses_only_that_block() {
    const CAP: usize = 64;
    let records = random_stream(11, 500);
    let image = encode_v2(&records, "flip", CAP);

    let markers: Vec<usize> = (0..image.len().saturating_sub(BT_BLOCK_MAGIC.len()))
        .filter(|&i| image[i..i + BT_BLOCK_MAGIC.len()] == BT_BLOCK_MAGIC)
        .collect();
    assert_eq!(
        markers.len(),
        records.len().div_ceil(CAP),
        "spurious marker in image"
    );

    for (b, &start) in markers.iter().enumerate() {
        let end = markers.get(b + 1).copied().unwrap_or(image.len());
        let mut bad = image.clone();
        // Flip one payload bit in the middle of the block's framed span.
        bad[start + (end - start) / 2] ^= 0x10;

        assert!(
            decode_records(&bad).is_err(),
            "strict reader accepted block {b} damage"
        );

        let report = salvage(&bad).unwrap();
        assert_eq!(report.name, "flip");
        assert_eq!(report.corrupt_spans, 1, "block {b}");
        let lo = b * CAP;
        let hi = ((b + 1) * CAP).min(records.len());
        let mut expected = records[..lo].to_vec();
        expected.extend_from_slice(&records[hi..]);
        assert_eq!(
            report.records, expected,
            "block {b} damage leaked past the block"
        );
    }
}

#[test]
fn fault_plan_flip_and_trunc_are_caught_by_the_v2_reader() {
    let bench = workloads::benchmark("gzip").unwrap();
    let mut image = Vec::new();
    record_trace(&bench.program(), bench.seed, 60_000, &mut image).unwrap();
    assert_eq!(
        BtReader::new(image.as_slice()).unwrap().version(),
        BT_VERSION
    );
    let (_, full) = decode_records(&image).unwrap();
    let cfg = ReplayConfig::with_budget(60_000);

    // Flip: one seeded bit in the second half. Every block byte is under
    // a checksum, so the strict reader must refuse the whole image, and
    // salvage must contain the loss to a single span.
    let plan = FaultPlan::from_spec("seed=11;flip=gzip").unwrap();
    let mut flipped = image.clone();
    assert!(plan.corrupt_trace("gzip", &mut flipped).is_some());
    assert!(decode_records(&flipped).is_err());
    let mut p = predictors::configs::gshare(predictors::configs::Budget::K16);
    assert!(replay_bytes(&flipped, &mut p, &cfg).is_err());
    let report = salvage(&flipped).unwrap();
    assert_eq!(report.corrupt_spans, 1);
    assert!(report.records.len() < full.len());

    // Trunc: a seeded cut in the second half — an error, or a clean-EOF
    // strict prefix if the cut lands exactly between blocks.
    let plan = FaultPlan::from_spec("seed=11;trunc=gzip").unwrap();
    let mut cut = image.clone();
    assert!(plan.corrupt_trace("gzip", &mut cut).is_some());
    assert!(cut.len() < image.len());
    if let Ok((_, prefix)) = decode_records(&cut) {
        assert!(prefix.len() < full.len());
        assert_eq!(prefix, full[..prefix.len()]);
    }
}
