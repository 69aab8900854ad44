//! Integration tests for the trace formats against real generated
//! workloads, including on-disk round trips, `.bt` error paths
//! (truncation mid-record, foreign magic, version mismatch) and a
//! deterministic randomized round-trip property test.

use prophet_critic_repro::bptrace::{
    BranchKind, BranchRecord, BtReader, BtWriter, TraceError, TraceStats, BT_MAGIC, BT_VERSION,
};
use prophet_critic_repro::workloads::rng::SmallRng;
use prophet_critic_repro::workloads::{self, correct_path_trace, Snapshot, Walker};

#[test]
fn bt_file_round_trip_on_disk() {
    let bench = workloads::benchmark("crafty").unwrap();
    let program = bench.program();
    let records = correct_path_trace(&program, bench.seed, 5_000);

    let dir = std::env::temp_dir().join("pc-repro-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("crafty.bt");

    let file = std::fs::File::create(&path).unwrap();
    let mut w = BtWriter::new(std::io::BufWriter::new(file), "crafty").unwrap();
    for r in &records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();

    let file = std::fs::File::open(&path).unwrap();
    let mut r = BtReader::new(std::io::BufReader::new(file)).unwrap();
    assert_eq!(r.name(), "crafty");
    let decoded = r.read_all().unwrap();
    assert_eq!(decoded, records);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_reruns_identically() {
    // A snapshot must reproduce the exact branch stream: serialize the
    // program, read it back, and compare walks step by step.
    let bench = workloads::benchmark("applu").unwrap();
    let program = bench.program();
    let snap = Snapshot::new(program, bench.seed);
    let mut buf = Vec::new();
    snap.write_to(&mut buf).unwrap();
    let restored = Snapshot::read_from(buf.as_slice()).unwrap();

    let mut original = Walker::with_seed(&snap.program, snap.seed);
    let mut replayed = Walker::with_seed(&restored.program, restored.seed);
    for _ in 0..5_000 {
        let a = original.next_branch();
        let b = replayed.next_branch();
        assert_eq!((a.pc, a.outcome, a.uops), (b.pc, b.outcome, b.uops));
        original.follow(a.outcome);
        replayed.follow(b.outcome);
    }
}

#[test]
fn workload_characteristics_are_plausible() {
    // The paper: IA32 conditional branches every ~13 uops averaged over all
    // benchmarks (integer code denser). Verify our suites span a similar
    // range.
    let mut ratios = Vec::new();
    for name in ["gzip", "swim", "specjbb", "premiere", "tpcc"] {
        let bench = workloads::benchmark(name).unwrap();
        let program = bench.program();
        let records = correct_path_trace(&program, bench.seed, 8_000);
        let stats = TraceStats::from_records(&records);
        ratios.push((name, stats.uops_per_conditional(), stats.taken_rate()));
    }
    for (name, upc, taken) in &ratios {
        assert!(
            (3.0..45.0).contains(upc),
            "{name}: {upc} uops/cond out of band"
        );
        // Loop-dominated FP code legitimately reaches ~95% taken.
        assert!(
            (0.3..0.98).contains(taken),
            "{name}: taken rate {taken} out of band"
        );
    }
    // FP code is sparser in branches than integer code.
    let gzip = ratios.iter().find(|r| r.0 == "gzip").unwrap().1;
    let swim = ratios.iter().find(|r| r.0 == "swim").unwrap().1;
    assert!(swim > gzip, "FP uops/cond {swim} should exceed INT {gzip}");
}

#[test]
fn corrupt_files_error_cleanly() {
    // Both formats must fail with typed errors, never panic.
    assert!(matches!(
        BtReader::new(&b"NOTATRACEFILE..."[..]),
        Err(TraceError::BadMagic { .. })
    ));
    assert!(Snapshot::read_from(&b"JUNKJUNKJUNK"[..]).is_err());

    let bench = workloads::benchmark("gap").unwrap();
    let snap = Snapshot::new(bench.program(), 3);
    let mut buf = Vec::new();
    snap.write_to(&mut buf).unwrap();
    for cut in [7, buf.len() / 2, buf.len() - 1] {
        let truncated = &buf[..cut];
        assert!(
            Snapshot::read_from(truncated).is_err(),
            "truncation at {cut} undetected"
        );
    }
}

/// Encodes `records` as a complete `.bt` image.
fn encode(records: &[BranchRecord], name: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = BtWriter::new(&mut buf, name).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap();
    buf
}

#[test]
fn bt_version_mismatch_is_rejected() {
    // Craft a header claiming a future format version: same magic, bumped
    // version field (bytes 4..6, little-endian).
    let records = [BranchRecord::conditional(0x1000, 0x2000, true, 5)];
    let mut buf = encode(&records, "future");
    buf[4..6].copy_from_slice(&(BT_VERSION + 1).to_le_bytes());
    match BtReader::new(buf.as_slice()) {
        Err(TraceError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, BT_VERSION + 1);
            assert_eq!(supported, BT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // Version 0 is likewise invalid (reserved).
    buf[4..6].copy_from_slice(&0u16.to_le_bytes());
    assert!(matches!(
        BtReader::new(buf.as_slice()),
        Err(TraceError::UnsupportedVersion { .. })
    ));
}

#[test]
fn bt_bad_magic_reports_both_magics() {
    let mut buf = encode(&[BranchRecord::conditional(0x10, 0x20, false, 1)], "x");
    buf[..4].copy_from_slice(b"ELF\x7f");
    match BtReader::new(buf.as_slice()) {
        Err(TraceError::BadMagic { expected, found }) => {
            assert_eq!(expected, BT_MAGIC);
            assert_eq!(&found, b"ELF\x7f");
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn bt_truncation_at_every_offset_errors_cleanly() {
    // Chop a real multi-record stream at *every* byte offset: the reader
    // must never panic, must fail cleanly inside the header, and a cut
    // mid-record must either error or stop at a record boundary with
    // fewer records.
    let bench = workloads::benchmark("vpr").unwrap();
    let records = correct_path_trace(&bench.program(), bench.seed, 40);
    let buf = encode(&records, "vpr");
    let header_len = encode(&[], "vpr").len();
    for cut in 0..buf.len() {
        let mut reader = match BtReader::new(&buf[..cut]) {
            Ok(r) => {
                assert!(cut >= header_len, "header parsed from {cut} bytes");
                r
            }
            Err(_) => {
                assert!(cut < header_len, "header rejected at {cut} bytes");
                continue;
            }
        };
        match reader.read_all() {
            Ok(decoded) => {
                assert!(decoded.len() < records.len(), "cut {cut} lost nothing");
                assert_eq!(
                    decoded,
                    records[..decoded.len()],
                    "cut {cut} corrupted data"
                );
            }
            Err(TraceError::UnexpectedEof { .. } | TraceError::Corrupt { .. }) => {}
            Err(other) => panic!("cut {cut}: unexpected error kind {other:?}"),
        }
    }
}

#[test]
fn randomized_record_sequences_round_trip() {
    // Deterministic property test (offline container: no proptest): 50
    // random sequences of adversarial records — huge PC jumps, all four
    // kinds, fall-through targets, inline and escaped uop counts — must
    // round-trip the binary format losslessly.
    let mut rng = SmallRng::seed_from_u64(0x0bad_5eed_1a7e_0001);
    for case in 0..50 {
        // Stay 1 KiB clear of u64::MAX: `fall_through()` is `pc + 4`.
        const PC_MAX: u64 = u64::MAX - 1024;
        let len = rng.gen_range(0usize..=200);
        let mut records = Vec::with_capacity(len);
        let mut pc: u64 = rng.gen_range(0u64..=PC_MAX);
        for _ in 0..len {
            // Mix small forward steps with arbitrary jumps.
            pc = if rng.gen_bool(0.7) {
                (pc + rng.gen_range(0u64..=64)).min(PC_MAX)
            } else {
                rng.gen_range(0u64..=PC_MAX)
            };
            let kind = match rng.gen_range(0u8..=3) {
                0 => BranchKind::Conditional,
                1 => BranchKind::Jump,
                2 => BranchKind::Call,
                _ => BranchKind::Return,
            };
            let target = if rng.gen_bool(0.25) {
                pc + 4 // exercises fall-through target elision
            } else {
                rng.gen_range(0u64..=PC_MAX)
            };
            let uops_since_prev = if rng.gen_bool(0.8) {
                rng.gen_range(0u32..=14) // inline encoding
            } else {
                rng.gen_range(15u32..=u32::MAX) // varint escape
            };
            records.push(BranchRecord {
                pc,
                target,
                kind,
                taken: rng.gen_bool(0.5),
                uops_since_prev,
            });
        }
        let buf = encode(&records, "prop");
        let mut reader = BtReader::new(buf.as_slice()).unwrap();
        let decoded = reader.read_all().unwrap();
        assert_eq!(decoded, records, "case {case} (len {len}) corrupted");
        assert_eq!(reader.records(), records.len() as u64);
        assert_eq!(
            TraceStats::from_records(&decoded),
            TraceStats::from_records(&records),
            "case {case}: stats diverged"
        );
    }
}
