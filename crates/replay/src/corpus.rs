//! Building and verifying on-disk trace corpora.
//!
//! A corpus directory holds, per benchmark:
//!
//! * `<name>.bt` — the correct-path branch trace, recorded by streaming
//!   the walker's branch events straight into a [`BtWriter`] (nothing is
//!   materialized);
//! * `<name>.pcl` — the program snapshot (the LIT analog), so hybrids can
//!   be *re-executed* rather than trace-replayed (paper §6);
//! * one `trace` line in `corpus.manifest` ([`Manifest`]) carrying seeds,
//!   budgets, byte lengths, FNV-1a checksums and the [`TraceStats`]
//!   summary.
//!
//! [`verify_entry`] closes the loop: it re-hashes both artifacts against
//! the manifest and then replays the snapshot's correct path against the
//! recorded trace record-for-record — the cross-check that the two
//! evaluation paths (trace replay for conventional predictors, snapshot
//! re-execution for hybrids) observe the identical architectural branch
//! stream.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use bptrace::{BranchProfile, BranchRecord, BtBlockWriter, BtReader, BtWriter};
use predictors::DirectionPredictor;
use workloads::{Benchmark, Program, Snapshot, Walker};

use crate::checksum::{hash_file, HashingWriter};
use crate::engine::{replay_stream, ReplayConfig, ReplayResult};
use crate::error::{ReplayError, Result};
use crate::manifest::{Manifest, TraceEntry};

/// The minimal writer surface shared by the v1 record-stream and v2
/// block-compressed trace writers, so one recording walk serves both.
trait TraceSink {
    fn put(&mut self, rec: &BranchRecord) -> bptrace::Result<()>;
    fn count(&self) -> u64;
    fn close(self) -> bptrace::Result<()>;
}

impl<W: Write> TraceSink for BtWriter<W> {
    fn put(&mut self, rec: &BranchRecord) -> bptrace::Result<()> {
        self.write(rec)
    }
    fn count(&self) -> u64 {
        self.records()
    }
    fn close(self) -> bptrace::Result<()> {
        self.finish().map(|_| ())
    }
}

impl<W: Write> TraceSink for BtBlockWriter<W> {
    fn put(&mut self, rec: &BranchRecord) -> bptrace::Result<()> {
        self.write(rec)
    }
    fn count(&self) -> u64 {
        self.records()
    }
    fn close(self) -> bptrace::Result<()> {
        self.finish().map(|_| ())
    }
}

/// The correct-path walk behind [`record_trace`]/[`record_trace_v1`]:
/// format-agnostic, so both writers record the identical record stream.
fn record_walk<S: TraceSink>(
    program: &Program,
    seed: u64,
    max_uops: u64,
    mut writer: S,
) -> Result<(u64, BranchProfile)> {
    let mut walker = Walker::with_seed(program, seed);
    let mut profile = BranchProfile::new();
    let mut uops: u64 = 0;
    while uops < max_uops {
        let ev = walker.next_branch();
        let rec = ev.to_record();
        writer.put(&rec)?;
        profile.observe(&rec);
        uops += ev.uops;
        walker.follow(ev.outcome);
    }
    let records = writer.count();
    writer.close()?;
    Ok((records, profile))
}

/// Walks `program`'s correct path until `max_uops` micro-ops are covered,
/// streaming one [`BranchRecord`] per conditional branch into `out` in
/// the block-compressed v2 format (the recording default).
///
/// Returns the record count and the per-static-branch profile (whose
/// [`BranchProfile::stats`] is the manifest summary). The record stream is
/// identical to [`workloads::correct_path_trace`] on the same
/// `(program, seed)` — deterministic in the seed, so re-recording always
/// reproduces the corpus bit-for-bit.
///
/// # Errors
///
/// Propagates trace-format/I/O errors from the writer.
pub fn record_trace<W: Write>(
    program: &Program,
    seed: u64,
    max_uops: u64,
    out: W,
) -> Result<(u64, BranchProfile)> {
    let writer = BtBlockWriter::new(out, program.name())?;
    record_walk(program, seed, max_uops, writer)
}

/// [`record_trace`] in the legacy v1 record-stream format — the
/// migration baseline (`traces migrate` rewrites such traces to v2) and
/// the reference image for the v1-vs-v2 differential tests.
///
/// # Errors
///
/// Propagates trace-format/I/O errors from the writer.
pub fn record_trace_v1<W: Write>(
    program: &Program,
    seed: u64,
    max_uops: u64,
    out: W,
) -> Result<(u64, BranchProfile)> {
    let writer = BtWriter::new(out, program.name())?;
    record_walk(program, seed, max_uops, writer)
}

/// Records one benchmark into `dir`: writes `<name>.bt` (in the v2
/// block-compressed format) and `<name>.pcl` (checksummed as they stream
/// out) and returns the manifest entry.
///
/// # Errors
///
/// Propagates trace-format and I/O errors.
pub fn record_benchmark(dir: &Path, bench: &Benchmark, uop_budget: u64) -> Result<TraceEntry> {
    record_benchmark_with(dir, bench, uop_budget, bptrace::BT_VERSION)
}

/// [`record_benchmark`] with an explicit trace format version
/// ([`bptrace::BT_VERSION`] or [`bptrace::BT_VERSION_V1`]) — the CLI's
/// `record --format` plumbing and the migration tests' v1 baseline.
///
/// # Errors
///
/// Propagates trace-format and I/O errors; rejects unknown versions.
pub fn record_benchmark_with(
    dir: &Path,
    bench: &Benchmark,
    uop_budget: u64,
    bt_version: u16,
) -> Result<TraceEntry> {
    let program = bench.program();

    let bt_file = format!("{}.bt", bench.name);
    // The hashing layer sits outside the buffer so it sees the final byte
    // stream exactly as it lands on disk.
    let mut bt = HashingWriter::new(BufWriter::new(std::fs::File::create(dir.join(&bt_file))?));
    let (records, profile) = match bt_version {
        bptrace::BT_VERSION_V1 => record_trace_v1(&program, bench.seed, uop_budget, &mut bt)?,
        bptrace::BT_VERSION => record_trace(&program, bench.seed, uop_budget, &mut bt)?,
        v => {
            return Err(ReplayError::Corpus {
                trace: bench.name.clone(),
                reason: format!("unknown .bt format version {v}"),
            })
        }
    };
    bt.flush()?;
    let (bt_bytes, bt_fnv1a) = (bt.written(), bt.hash());

    let pcl_file = format!("{}.pcl", bench.name);
    let mut pcl = HashingWriter::new(BufWriter::new(std::fs::File::create(dir.join(&pcl_file))?));
    Snapshot::new(program, bench.seed).write_to(&mut pcl)?;
    pcl.flush()?;
    let (pcl_bytes, pcl_fnv1a) = (pcl.written(), pcl.hash());

    Ok(TraceEntry {
        name: bench.name.clone(),
        seed: bench.seed,
        uop_budget,
        records,
        bt_file,
        bt_bytes,
        bt_fnv1a,
        bt_version,
        pcl_file,
        pcl_bytes,
        pcl_fnv1a,
        stats: profile.stats(),
    })
}

/// Records `benches` into `dir` sequentially and writes the manifest.
///
/// (The `traces` CLI fans [`record_benchmark`] cells over the parallel
/// grid runner instead; this is the plain library entry point.)
///
/// # Errors
///
/// Propagates per-benchmark errors; on success the manifest is on disk.
pub fn record_corpus(dir: &Path, benches: &[Benchmark], uop_budget: u64) -> Result<Manifest> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = Manifest::default();
    for bench in benches {
        manifest
            .entries
            .push(record_benchmark(dir, bench, uop_budget)?);
    }
    manifest.save(dir)?;
    Ok(manifest)
}

/// Loads the program snapshot of a corpus entry.
///
/// # Errors
///
/// Trace-format/I/O errors opening or parsing the `.pcl` file.
pub fn load_snapshot(dir: &Path, entry: &TraceEntry) -> Result<Snapshot> {
    let file = std::fs::File::open(dir.join(&entry.pcl_file))?;
    Ok(Snapshot::read_from(BufReader::new(file))?)
}

/// Opens a streaming reader over a corpus entry's `.bt` trace.
///
/// # Errors
///
/// Trace-format/I/O errors opening the file or its header.
pub fn open_trace(dir: &Path, entry: &TraceEntry) -> Result<BtReader<BufReader<std::fs::File>>> {
    let file = std::fs::File::open(dir.join(&entry.bt_file))?;
    Ok(BtReader::new(BufReader::new(file))?)
}

/// Rewrites one corpus entry's `.bt` trace from the v1 record stream to
/// the v2 block-compressed format, in a bounded-memory stream (one block
/// buffered at a time, never the whole trace).
///
/// The rewrite is gated before it replaces anything: the new file is
/// written to `<bt_file>.v2tmp`, re-read with the scalar reference
/// reader, and compared record-for-record against the original; only a
/// bit-identical record stream is renamed over the v1 file. Returns the
/// updated manifest entry (new byte length, checksum, `bt_version=2`;
/// record count and stats unchanged). An entry already at v2 is returned
/// unchanged without touching disk.
///
/// # Errors
///
/// Trace-format/I/O errors, or [`ReplayError::Corpus`] if the re-decoded
/// stream diverges from the original (the temp file is removed and the
/// v1 trace left in place).
pub fn migrate_entry(dir: &Path, entry: &TraceEntry) -> Result<TraceEntry> {
    if entry.bt_version == bptrace::BT_VERSION {
        return Ok(entry.clone());
    }
    let src = dir.join(&entry.bt_file);
    let tmp = dir.join(format!("{}.v2tmp", entry.bt_file));
    let fail = |reason: String| {
        let _ = std::fs::remove_file(&tmp);
        Err(ReplayError::Corpus {
            trace: entry.name.clone(),
            reason,
        })
    };

    let mut reader = BtReader::new(BufReader::new(std::fs::File::open(&src)?))?;
    let mut out = HashingWriter::new(BufWriter::new(std::fs::File::create(&tmp)?));
    let mut writer = BtBlockWriter::new(&mut out, reader.name())?;
    while let Some(rec) = reader.next_record()? {
        writer.write(&rec)?;
    }
    let records = writer.records();
    writer.finish()?;
    out.flush()?;
    let (bt_bytes, bt_fnv1a) = (out.written(), out.hash());
    if records != entry.records {
        return fail(format!(
            "migration wrote {records} records, manifest says {}",
            entry.records
        ));
    }

    // Lockstep gate: the rewritten stream must decode bit-identically to
    // the original before it may replace it.
    let mut old = BtReader::new(BufReader::new(std::fs::File::open(&src)?))?;
    let mut new = BtReader::new(BufReader::new(std::fs::File::open(&tmp)?))?;
    let mut index: u64 = 0;
    loop {
        match (old.next_record()?, new.next_record()?) {
            (None, None) => break,
            (Some(a), Some(b)) if a == b => index += 1,
            (a, b) => {
                return fail(format!(
                    "migrated stream diverges at record {index}: v1 {a:?} vs v2 {b:?}"
                ))
            }
        }
    }

    std::fs::rename(&tmp, &src)?;
    Ok(TraceEntry {
        bt_bytes,
        bt_fnv1a,
        bt_version: bptrace::BT_VERSION,
        ..entry.clone()
    })
}

/// Replays one corpus entry's trace straight off disk through
/// `predictor`, whichever format version the file header names. Memory
/// stays bounded: the trace streams through one decoded block at a time
/// and is never materialized.
///
/// # Errors
///
/// Trace-format/I/O errors from the reader.
pub fn replay_entry<P: DirectionPredictor>(
    dir: &Path,
    entry: &TraceEntry,
    predictor: &mut P,
    config: &ReplayConfig,
) -> Result<ReplayResult> {
    replay_stream(&mut open_trace(dir, entry)?, predictor, config)
}

/// Streams the recorded trace against a fresh correct-path walk of
/// `snapshot`, failing on the first diverging record; returns the number
/// of records compared.
///
/// This is the §6 split made checkable: conventional predictors will
/// consume the `.bt` stream and hybrids will re-execute the snapshot, so
/// the walk's record (via [`BranchEvent::to_record`]) must equal every
/// trace record field-for-field.
///
/// [`BranchEvent::to_record`]: workloads::BranchEvent::to_record
///
/// # Errors
///
/// [`ReplayError::Corpus`] naming the diverging record, or trace-format
/// errors from the reader.
pub fn cross_check_snapshot<R: std::io::Read>(
    mut trace: BtReader<R>,
    snapshot: &Snapshot,
) -> Result<u64> {
    let mut walker = Walker::with_seed(&snapshot.program, snapshot.seed);
    let name = snapshot.program.name().to_string();
    let mut index: u64 = 0;
    while let Some(rec) = trace.next_record()? {
        let ev = walker.next_branch();
        let walked = ev.to_record();
        if walked != rec {
            return Err(ReplayError::Corpus {
                trace: name,
                reason: format!(
                    "snapshot walk diverges from trace at record {index}: \
                     walk {walked:?} vs trace {rec:?}"
                ),
            });
        }
        walker.follow(ev.outcome);
        index += 1;
    }
    Ok(index)
}

/// Fully verifies one corpus entry: byte lengths and checksums of both
/// artifacts against the manifest, the record count, and the
/// snapshot-vs-trace cross-check.
///
/// # Errors
///
/// [`ReplayError::Corpus`] describing the first failed check.
pub fn verify_entry(dir: &Path, entry: &TraceEntry) -> Result<()> {
    let fail = |reason: String| {
        Err(ReplayError::Corpus {
            trace: entry.name.clone(),
            reason,
        })
    };
    let (bt_bytes, bt_hash) = hash_file(&dir.join(&entry.bt_file))?;
    if (bt_bytes, bt_hash) != (entry.bt_bytes, entry.bt_fnv1a) {
        return fail(format!(
            "{}: expected {} bytes fnv1a {:#x}, found {} bytes fnv1a {:#x}",
            entry.bt_file, entry.bt_bytes, entry.bt_fnv1a, bt_bytes, bt_hash
        ));
    }
    let (pcl_bytes, pcl_hash) = hash_file(&dir.join(&entry.pcl_file))?;
    if (pcl_bytes, pcl_hash) != (entry.pcl_bytes, entry.pcl_fnv1a) {
        return fail(format!(
            "{}: expected {} bytes fnv1a {:#x}, found {} bytes fnv1a {:#x}",
            entry.pcl_file, entry.pcl_bytes, entry.pcl_fnv1a, pcl_bytes, pcl_hash
        ));
    }

    let snapshot = load_snapshot(dir, entry)?;
    if snapshot.seed != entry.seed {
        return fail(format!(
            "snapshot seed {:#x} != manifest seed {:#x}",
            snapshot.seed, entry.seed
        ));
    }
    let reader = open_trace(dir, entry)?;
    if reader.name() != entry.name {
        return fail(format!(
            "trace header name {:?} != manifest name",
            reader.name()
        ));
    }
    let records = cross_check_snapshot(reader, &snapshot)?;
    if records != entry.records {
        return fail(format!(
            "record count {records} != manifest records {}",
            entry.records
        ));
    }
    Ok(())
}

/// Verifies every entry of `manifest` in order.
///
/// # Errors
///
/// The first entry's failure, as [`verify_entry`].
pub fn verify_corpus(dir: &Path, manifest: &Manifest) -> Result<()> {
    for entry in &manifest.entries {
        verify_entry(dir, entry)?;
    }
    Ok(())
}

/// One corpus entry that failed verification and was set aside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The trace (benchmark) name from the manifest.
    pub trace: String,
    /// Why verification failed, verbatim.
    pub reason: String,
}

/// The outcome of a full, non-short-circuiting corpus verification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Names of entries that passed every check, in manifest order.
    pub ok: Vec<String>,
    /// Entries that failed a check, in manifest order, with reasons.
    pub quarantine: Vec<QuarantineEntry>,
}

impl VerifyReport {
    /// Whether every entry verified clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantine.is_empty()
    }
}

/// Verifies every entry of `manifest` without short-circuiting: failed
/// entries are quarantined (name + reason) and the rest still get
/// checked. This is the graceful-degradation counterpart of
/// [`verify_corpus`] — a single rotten `.bt` block marks one trace bad
/// instead of aborting the whole corpus.
#[must_use]
pub fn verify_corpus_report(dir: &Path, manifest: &Manifest) -> VerifyReport {
    let mut report = VerifyReport::default();
    for entry in &manifest.entries {
        match verify_entry(dir, entry) {
            Ok(()) => report.ok.push(entry.name.clone()),
            Err(e) => report.quarantine.push(QuarantineEntry {
                trace: entry.name.clone(),
                reason: e.to_string(),
            }),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bptrace::TraceStats;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("replay-corpus-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recording_matches_correct_path_trace() {
        let bench = workloads::benchmark("gzip").unwrap();
        let program = bench.program();
        let mut buf = Vec::new();
        let (records, profile) = record_trace(&program, bench.seed, 30_000, &mut buf).unwrap();
        let decoded = BtReader::new(buf.as_slice()).unwrap().read_all().unwrap();
        assert_eq!(decoded.len() as u64, records);
        assert_eq!(profile.stats(), TraceStats::from_records(&decoded));
        // Identical to the materializing extractor on the same prefix.
        let reference = workloads::correct_path_trace(&program, bench.seed, decoded.len());
        assert_eq!(decoded, reference);
        // The uop budget is honoured (stop at the first record crossing it).
        assert!(profile.stats().uops >= 30_000);
        let without_last: u64 = decoded[..decoded.len() - 1]
            .iter()
            .map(|r| u64::from(r.uops_since_prev))
            .sum();
        assert!(without_last < 30_000);
    }

    #[test]
    fn corpus_records_verifies_and_reloads() {
        let dir = temp_dir("roundtrip");
        let benches: Vec<Benchmark> = ["mcf", "swim"]
            .iter()
            .map(|n| workloads::benchmark(n).unwrap())
            .collect();
        let manifest = record_corpus(&dir, &benches, 20_000).unwrap();
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(Manifest::load(&dir).unwrap(), manifest);
        verify_corpus(&dir, &manifest).unwrap();

        let entry = manifest.entry("mcf").unwrap();
        assert!(entry.records > 100);
        assert!(entry.stats.uops >= 20_000);
        let snap = load_snapshot(&dir, entry).unwrap();
        assert_eq!(snap.program.name(), "mcf");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = temp_dir("corrupt");
        let benches = vec![workloads::benchmark("art").unwrap()];
        let manifest = record_corpus(&dir, &benches, 10_000).unwrap();
        let entry = &manifest.entries[0];

        // Flip one payload byte in the .bt file.
        let path = dir.join(&entry.bt_file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = verify_entry(&dir, entry).unwrap_err();
        assert!(err.to_string().contains("fnv1a"), "{err}");

        // Truncation is also a checksum/length failure.
        bytes[mid] ^= 0x40;
        bytes.pop();
        std::fs::write(&path, &bytes).unwrap();
        assert!(verify_entry(&dir, entry).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migration_rewrites_v1_to_v2_with_replay_pinned() {
        use crate::engine::ReplayConfig;
        use predictors::configs::{self, Budget};

        let dir = temp_dir("migrate");
        let bench = workloads::benchmark("gzip").unwrap();
        let v1 = record_benchmark_with(&dir, &bench, 30_000, bptrace::BT_VERSION_V1).unwrap();
        assert_eq!(v1.bt_version, 1);
        verify_entry(&dir, &v1).unwrap();

        let cfg = ReplayConfig::with_budget(30_000);
        let mut p = configs::gshare(Budget::K8);
        let before = replay_entry(&dir, &v1, &mut p, &cfg).unwrap();

        let v2 = migrate_entry(&dir, &v1).unwrap();
        assert_eq!(v2.bt_version, 2);
        assert_eq!(v2.records, v1.records);
        assert!(
            v2.bt_bytes < v1.bt_bytes,
            "v2 must shrink the trace: {} vs {}",
            v2.bt_bytes,
            v1.bt_bytes
        );
        // The updated entry verifies clean (checksums, cross-check) and
        // replays bit-identically to the v1 original.
        verify_entry(&dir, &v2).unwrap();
        let mut p = configs::gshare(Budget::K8);
        let after = replay_entry(&dir, &v2, &mut p, &cfg).unwrap();
        assert_eq!(before, after, "migration changed replay results");
        // No stray temp file; re-migrating is a no-op.
        assert!(!dir.join(format!("{}.v2tmp", v2.bt_file)).exists());
        assert_eq!(migrate_entry(&dir, &v2).unwrap(), v2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_benchmark_defaults_to_v2_and_verifies() {
        let dir = temp_dir("default-v2");
        let bench = workloads::benchmark("art").unwrap();
        let entry = record_benchmark(&dir, &bench, 15_000).unwrap();
        assert_eq!(entry.bt_version, bptrace::BT_VERSION);
        let reader = open_trace(&dir, &entry).unwrap();
        assert_eq!(reader.version(), bptrace::BT_VERSION);
        verify_entry(&dir, &entry).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cross_check_catches_wrong_seed() {
        let bench = workloads::benchmark("gcc").unwrap();
        let program = bench.program();
        let mut buf = Vec::new();
        record_trace(&program, bench.seed, 15_000, &mut buf).unwrap();
        // Same program, different execution seed: the walks diverge. (The
        // per-branch RNG keeps only odd seeds, so flip a high bit rather
        // than bit 0.)
        let snapshot = Snapshot::new(bench.program(), bench.seed ^ 0xdead_0000);
        let reader = BtReader::new(buf.as_slice()).unwrap();
        let err = cross_check_snapshot(reader, &snapshot).unwrap_err();
        assert!(err.to_string().contains("diverges"), "{err}");
        // And the honest snapshot passes.
        let snapshot = Snapshot::new(bench.program(), bench.seed);
        let reader = BtReader::new(buf.as_slice()).unwrap();
        cross_check_snapshot(reader, &snapshot).unwrap();
    }
}
