//! The block-compressed `.bt` v2 format.
//!
//! v1 streams one varint-delta record at a time, which makes decode the
//! replay bottleneck once prediction itself is batched, and means a single
//! flipped bit desynchronizes the delta chain and poisons everything after
//! it. v2 groups records into framed, independently decodable blocks:
//!
//! ```text
//! magic    "BPTR"                       4 bytes
//! version  u16 LE                       2
//! name     varint length + UTF-8        benchmark name
//! blocks   until EOF:
//!   marker      "BTBK"                  4 bytes
//!   payload_len varint                  byte length of payload
//!   checksum    u64 LE                  FNV-1a-64 of payload
//!   payload:
//!     records    varint                 record count n (1..=65536)
//!     dict_len   varint                 distinct (pc, target, kind) statics d
//!     dict       d entries:
//!       pc_delta   signed varint        vs previous dict entry's pc (first: 0)
//!       meta       u8                   bits 0-1 kind code, bit 2 target present
//!       tgt_delta  signed varint        vs fall-through (pc+4), if meta bit 2
//!       base_uops  varint               the static's most common uops in the block
//!     index      ceil(n*w/8) bytes      fixed-width dict ids, w = bits(d-1),
//!                                       record i = bits [i*w, (i+1)*w) LSB-first
//!     taken      tagged section:
//!       tag        u8                   0 = raw bitmask, 1 = run-length
//!       raw:       ceil(n/8) bytes      record i taken = byte i/8 bit i%8
//!       rle:       u8 first outcome + varint run lengths summing to n
//!     residuals  uops exceptions (uops != the static's base), tagged:
//!       tag        u8                   0 = none, 1 = bitmap, 2 = sparse
//!       bitmap:    ceil(n/8) presence bytes, then a signed varint delta
//!                  (uops - base) per set bit
//!       sparse:    varint count, then per exception a varint index gap
//!                  (vs previous exception; first vs 0) + signed varint delta
//! ```
//!
//! Every delta chain restarts per block, so blocks decode independently:
//! the checksum detects corruption at block granularity and [`salvage`] can
//! resynchronize on the next marker instead of losing the rest of the
//! stream. Dynamic branch streams revisit a small static working set, so
//! the dictionary amortizes pc/target bytes across all repeats of a static
//! within a block; a hot conditional costs ⌈log₂ d⌉ index bits plus one
//! taken bit. The index width is derived from `dict_len` on both sides, so
//! it costs no header byte, and extraction is a branchless shift/mask —
//! the decode hot loop. `base_uops` is the *mode* of a static's uops
//! within the block (ties toward the smaller value), so residual
//! exceptions stay rare even when a static's first occurrence is atypical
//! (loop entry vs steady state), and most blocks take the one-byte `none`
//! or short `sparse` residual encodings.
//!
//! [`BtBlockReader`] decodes whole blocks into the reusable column buffers
//! of a [`DecodedBlock`]. The replay engine takes them through
//! [`BtReader::next_block`](crate::BtReader::next_block), which also cuts
//! v1 streams into blocks, and consumes the columns directly without
//! materializing per-record [`BranchRecord`]s; record by record,
//! [`BtReader`](crate::BtReader) remains the scalar reference reader over
//! both versions.

use std::collections::HashMap;
use std::io::{Read, Write};

use crate::binary::{BT_MAGIC, BT_VERSION};
use crate::error::{Result, TraceError};
use crate::record::{BranchKind, BranchRecord};
use crate::wire::{read_header, write_header, WireReader, WireWriter};

/// Marker framing every v2 block.
pub const BT_BLOCK_MAGIC: [u8; 4] = *b"BTBK";

/// Default records per block: large enough to amortize the dictionary over
/// a benchmark's static working set, small enough that a corrupt block
/// loses little and decoded columns stay cache-resident.
pub const BLOCK_RECORDS: usize = 4096;

/// Hard cap on records per block (sanity bound while decoding).
const MAX_BLOCK_RECORDS: usize = 65536;

/// Hard cap on a block payload (sanity bound while decoding).
const MAX_BLOCK_PAYLOAD: u64 = 1 << 24;

/// FNV-1a-64 of `bytes` — the per-block payload checksum.
///
/// Deliberately a local implementation: `bptrace` sits below the corpus
/// layer and depends on nothing.
#[must_use]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Streaming writer of block-compressed `.bt` v2 traces.
///
/// Records buffer until a block fills (or [`finish`](Self::finish) flushes
/// the remainder), then the block is dictionary/delta/run-length encoded,
/// checksummed and framed.
///
/// # Examples
///
/// ```
/// use bptrace::{BranchRecord, BtBlockWriter, BtReader};
///
/// let mut buf = Vec::new();
/// let mut w = BtBlockWriter::new(&mut buf, "demo")?;
/// w.write(&BranchRecord::conditional(0x1000, 0x1040, true, 7))?;
/// w.finish()?;
///
/// // The version-negotiating scalar reader decodes v2 transparently.
/// let mut r = BtReader::new(buf.as_slice())?;
/// assert_eq!(r.name(), "demo");
/// assert_eq!(r.next_record()?.unwrap().pc, 0x1000);
/// # Ok::<(), bptrace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct BtBlockWriter<W: Write> {
    wire: WireWriter<W>,
    pending: Vec<BranchRecord>,
    block_records: usize,
    records: u64,
    payload: Vec<u8>,
}

impl<W: Write> BtBlockWriter<W> {
    /// Creates a writer with the default block size and emits the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(out: W, name: &str) -> Result<Self> {
        Self::with_block_capacity(out, name, BLOCK_RECORDS)
    }

    /// Creates a writer flushing a block every `block_records` records.
    ///
    /// Small capacities are for tests that want many blocks from few
    /// records; production recording uses [`BLOCK_RECORDS`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if `block_records` is zero or above the format's 65536 cap.
    pub fn with_block_capacity(out: W, name: &str, block_records: usize) -> Result<Self> {
        assert!(
            (1..=MAX_BLOCK_RECORDS).contains(&block_records),
            "block capacity {block_records} out of range"
        );
        let mut wire = WireWriter::new(out);
        write_header(&mut wire, BT_MAGIC, BT_VERSION)?;
        wire.write_str(name)?;
        Ok(Self {
            wire,
            pending: Vec::with_capacity(block_records),
            block_records,
            records: 0,
            payload: Vec::new(),
        })
    }

    /// Appends one record, flushing a full block if this one completes it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, rec: &BranchRecord) -> Result<()> {
        self.pending.push(*rec);
        self.records += 1;
        if self.pending.len() >= self.block_records {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Records accepted so far (including any still buffered).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Encodes and frames the pending records as one block.
    fn flush_block(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.payload.clear();
        encode_payload(&self.pending, &mut self.payload)?;
        self.wire.write_bytes(&BT_BLOCK_MAGIC)?;
        self.wire.write_varint(self.payload.len() as u64)?;
        self.wire.write_u64(fnv1a(&self.payload))?;
        self.wire.write_bytes(&self.payload)?;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final (possibly partial) block and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final flush.
    pub fn finish(mut self) -> Result<W> {
        self.flush_block()?;
        self.wire.flush()?;
        Ok(self.wire.into_inner())
    }
}

/// Bits needed to represent every value in `0..=max` (zero when `max` is).
fn bit_width(max: usize) -> u32 {
    usize::BITS - max.leading_zeros()
}

/// Encoded length of `v` as a LEB128 varint.
fn varint_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

/// Encodes one block's records into `payload` (dictionary, index stream,
/// taken section, uops residuals).
fn encode_payload(records: &[BranchRecord], payload: &mut Vec<u8>) -> Result<()> {
    let n = records.len();
    let mut w = WireWriter::new(&mut *payload);
    w.write_varint(n as u64)?;

    // ---- Dictionary of (pc, target, kind) statics, first-appearance order.
    let mut ids: HashMap<(u64, u64, u8), u32> = HashMap::with_capacity(64);
    let mut dict: Vec<&BranchRecord> = Vec::new();
    let mut index: Vec<u32> = Vec::with_capacity(n);
    for rec in records {
        let key = (rec.pc, rec.target, rec.kind.code());
        let id = *ids.entry(key).or_insert_with(|| {
            dict.push(rec);
            (dict.len() - 1) as u32
        });
        index.push(id);
    }

    // ---- Per-static base uops: the mode within this block (ties toward
    // the smaller value, so encoding is deterministic). A static's first
    // occurrence is often atypical — loop entry vs steady state — and
    // basing residuals on the mode keeps exceptions rare.
    let mut uops_seen: Vec<Vec<u32>> = vec![Vec::new(); dict.len()];
    for (i, rec) in records.iter().enumerate() {
        uops_seen[index[i] as usize].push(rec.uops_since_prev);
    }
    let base: Vec<u32> = uops_seen
        .into_iter()
        .map(|mut seen| {
            seen.sort_unstable();
            let (mut best, mut best_count, mut run) = (seen[0], 0usize, 0usize);
            for j in 0..seen.len() {
                run = if j > 0 && seen[j] == seen[j - 1] {
                    run + 1
                } else {
                    1
                };
                if run > best_count {
                    best_count = run;
                    best = seen[j];
                }
            }
            best
        })
        .collect();

    w.write_varint(dict.len() as u64)?;
    let mut prev_pc = 0u64;
    for (e, &base_uops) in dict.iter().zip(&base) {
        let fall_through = e.pc.wrapping_add(4);
        let has_target = e.target != fall_through;
        w.write_signed(e.pc.wrapping_sub(prev_pc) as i64)?;
        w.write_u8(e.kind.code() | (u8::from(has_target) << 2))?;
        if has_target {
            w.write_signed(e.target.wrapping_sub(fall_through) as i64)?;
        }
        w.write_varint(u64::from(base_uops))?;
        prev_pc = e.pc;
    }

    // ---- Index stream: fixed-width bit-packed dict ids, LSB-first.
    let width = bit_width(dict.len() - 1);
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &id in &index {
        acc |= u64::from(id) << nbits;
        nbits += width;
        while nbits >= 8 {
            w.write_u8(acc as u8)?;
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        w.write_u8(acc as u8)?;
    }

    // ---- Taken section: raw bitmask or run-length, whichever is smaller.
    let mut rle = Vec::new();
    {
        let mut rw = WireWriter::new(&mut rle);
        rw.write_u8(u8::from(records[0].taken))?;
        let mut run = 0u64;
        let mut bit = records[0].taken;
        for rec in records {
            if rec.taken == bit {
                run += 1;
            } else {
                rw.write_varint(run)?;
                bit = rec.taken;
                run = 1;
            }
        }
        rw.write_varint(run)?;
    }
    let raw_len = n.div_ceil(8);
    if rle.len() < raw_len {
        w.write_u8(1)?;
        w.write_bytes(&rle)?;
    } else {
        w.write_u8(0)?;
        let mut bytes = vec![0u8; raw_len];
        for (i, rec) in records.iter().enumerate() {
            bytes[i / 8] |= u8::from(rec.taken) << (i % 8);
        }
        w.write_bytes(&bytes)?;
    }

    // ---- Uops residuals: records whose uops differ from their static's
    // base, as whichever tagged encoding is smallest.
    let exceptions: Vec<(usize, i64)> = records
        .iter()
        .enumerate()
        .filter_map(|(i, rec)| {
            let b = base[index[i] as usize];
            (rec.uops_since_prev != b).then(|| (i, i64::from(rec.uops_since_prev) - i64::from(b)))
        })
        .collect();
    if exceptions.is_empty() {
        w.write_u8(0)?;
    } else {
        let delta_bytes: usize = exceptions
            .iter()
            .map(|&(_, d)| varint_len(crate::wire::zigzag(d)))
            .sum();
        let bitmap_cost = n.div_ceil(8) + delta_bytes;
        let mut sparse_cost = varint_len(exceptions.len() as u64) + delta_bytes;
        let mut prev = 0usize;
        for &(i, _) in &exceptions {
            sparse_cost += varint_len((i - prev) as u64);
            prev = i;
        }
        if sparse_cost < bitmap_cost {
            w.write_u8(2)?;
            w.write_varint(exceptions.len() as u64)?;
            let mut prev = 0usize;
            for &(i, d) in &exceptions {
                w.write_varint((i - prev) as u64)?;
                w.write_signed(d)?;
                prev = i;
            }
        } else {
            w.write_u8(1)?;
            let mut presence = vec![0u8; n.div_ceil(8)];
            for &(i, _) in &exceptions {
                presence[i / 8] |= 1 << (i % 8);
            }
            w.write_bytes(&presence)?;
            for &(_, d) in &exceptions {
                w.write_signed(d)?;
            }
        }
    }
    Ok(())
}

/// A positioned cursor over a checksummed block payload.
///
/// All reads are bounds-checked against the slice; running out of bytes
/// mid-payload is corruption (the frame length and checksum already
/// vouched for the payload's extent), reported as `None` and mapped to
/// [`TraceError::Corrupt`] at the call site. Parsing straight off the
/// slice — instead of through the generic `io::Read` wire layer — is what
/// keeps block decode off the replay critical path.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline(always)]
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// LEB128 varint with an inlined single-byte fast path (the
    /// overwhelmingly common case for dict deltas, runs and residuals).
    #[inline(always)]
    fn varint(&mut self) -> Option<u64> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        if b < 0x80 {
            return Some(u64::from(b));
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7u32;
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            if shift >= 63 && b > 1 {
                return None; // overflows 64 bits
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    #[inline(always)]
    fn signed(&mut self) -> Option<i64> {
        self.varint().map(crate::wire::unzigzag)
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(s)
    }
}

/// One decoded block as reusable column buffers.
///
/// The replay engine iterates these columns directly — no intermediate
/// [`BranchRecord`] is built on the hot path. [`record`](Self::record)
/// materializes single records for the scalar reference reader, migration
/// and tests.
#[derive(Debug, Default)]
pub struct DecodedBlock {
    len: usize,
    pcs: Vec<u64>,
    targets: Vec<u64>,
    kinds: Vec<BranchKind>,
    /// Taken outcomes, bit i of word i/64.
    taken: Vec<u64>,
    uops: Vec<u32>,
    /// Frame scratch: raw payload bytes of the block being decoded.
    payload: Vec<u8>,
}

impl DecodedBlock {
    /// Creates an empty block buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Branch addresses, one per record.
    #[must_use]
    pub fn pcs(&self) -> &[u64] {
        &self.pcs[..self.len]
    }

    /// Branch targets, one per record.
    #[must_use]
    pub fn targets(&self) -> &[u64] {
        &self.targets[..self.len]
    }

    /// Branch kinds, one per record.
    #[must_use]
    pub fn kinds(&self) -> &[BranchKind] {
        &self.kinds[..self.len]
    }

    /// Uop counts since the previous branch, one per record.
    #[must_use]
    pub fn uops(&self) -> &[u32] {
        &self.uops[..self.len]
    }

    /// Taken outcomes as a packed bitmask: record `i` is bit `i % 64` of
    /// word `i / 64`.
    #[must_use]
    pub fn taken_words(&self) -> &[u64] {
        &self.taken
    }

    /// Whether record `i` was taken.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn taken(&self, i: usize) -> bool {
        assert!(i < self.len);
        (self.taken[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Materializes record `i` — the scalar-reference and migration path.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn record(&self, i: usize) -> BranchRecord {
        assert!(i < self.len);
        BranchRecord {
            pc: self.pcs[i],
            target: self.targets[i],
            kind: self.kinds[i],
            taken: self.taken(i),
            uops_since_prev: self.uops[i],
        }
    }

    /// Appends one record to the columns — how a v1 reader fills a block.
    pub(crate) fn push(&mut self, rec: &BranchRecord) {
        let i = self.len;
        if i.is_multiple_of(64) {
            self.taken.push(0);
        }
        self.taken[i / 64] |= u64::from(rec.taken) << (i % 64);
        self.pcs.push(rec.pc);
        self.targets.push(rec.target);
        self.kinds.push(rec.kind);
        self.uops.push(rec.uops_since_prev);
        self.len = i + 1;
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.pcs.clear();
        self.targets.clear();
        self.kinds.clear();
        self.taken.clear();
        self.uops.clear();
    }

    /// Parses one payload into the column buffers.
    fn parse_payload(&mut self, bytes: &[u8], offset: u64) -> Result<()> {
        self.clear();
        let corrupt = |what: &'static str| TraceError::Corrupt { offset, what };
        let mut c = Cursor { bytes, pos: 0 };
        let n = c.varint().ok_or_else(|| corrupt("block record count"))? as usize;
        if n == 0 || n > MAX_BLOCK_RECORDS {
            return Err(corrupt("block record count"));
        }
        let dict_len = c.varint().ok_or_else(|| corrupt("block dictionary size"))? as usize;
        if dict_len == 0 || dict_len > n {
            return Err(corrupt("block dictionary size"));
        }

        // ---- Dictionary.
        let mut dict_pc = Vec::with_capacity(dict_len);
        let mut dict_target = Vec::with_capacity(dict_len);
        let mut dict_kind = Vec::with_capacity(dict_len);
        let mut dict_uops = Vec::with_capacity(dict_len);
        let mut prev_pc = 0u64;
        for _ in 0..dict_len {
            let delta = c.signed().ok_or_else(|| corrupt("dictionary pc delta"))?;
            let pc = prev_pc.wrapping_add(delta as u64);
            let meta = c.u8().ok_or_else(|| corrupt("dictionary meta"))?;
            if meta & !0b111 != 0 {
                return Err(corrupt("block dictionary meta"));
            }
            let kind = BranchKind::from_code(meta & 0b11).ok_or_else(|| corrupt("block kind"))?;
            let target = if meta & 0b100 != 0 {
                let delta = c
                    .signed()
                    .ok_or_else(|| corrupt("dictionary target delta"))?;
                pc.wrapping_add(4).wrapping_add(delta as u64)
            } else {
                pc.wrapping_add(4)
            };
            let uops = c
                .varint()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| corrupt("block dictionary uops"))?;
            dict_pc.push(pc);
            dict_target.push(target);
            dict_kind.push(kind);
            dict_uops.push(uops);
            prev_pc = pc;
        }

        // ---- Index stream expands the dictionary into columns: a
        // branchless shift/mask per record off a 64-bit accumulator.
        let width = bit_width(dict_len - 1);
        let idx_bytes = c
            .take((n * width as usize).div_ceil(8))
            .ok_or_else(|| corrupt("block index"))?;
        self.pcs.resize(n, 0);
        self.targets.resize(n, 0);
        self.kinds.resize(n, BranchKind::Conditional);
        self.uops.resize(n, 0);
        let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
        let mut acc = 0u64;
        let mut nbits = 0u32;
        let mut at = 0usize;
        for i in 0..n {
            while nbits < width {
                acc |= u64::from(idx_bytes[at]) << nbits;
                at += 1;
                nbits += 8;
            }
            let id = (acc & mask) as usize;
            acc >>= width;
            nbits -= width;
            if id >= dict_len {
                return Err(corrupt("block record index"));
            }
            self.pcs[i] = dict_pc[id];
            self.targets[i] = dict_target[id];
            self.kinds[i] = dict_kind[id];
            self.uops[i] = dict_uops[id];
        }

        // ---- Taken section.
        self.taken.resize(n.div_ceil(64), 0);
        match c.u8().ok_or_else(|| corrupt("taken tag"))? {
            0 => {
                let raw = c
                    .take(n.div_ceil(8))
                    .ok_or_else(|| corrupt("taken bitmask"))?;
                for (j, &b) in raw.iter().enumerate() {
                    self.taken[j / 8] |= u64::from(b) << ((j % 8) * 8);
                }
            }
            1 => {
                let first = c.u8().ok_or_else(|| corrupt("taken first outcome"))?;
                if first > 1 {
                    return Err(corrupt("block taken first outcome"));
                }
                let mut bit = first == 1;
                let mut pos = 0usize;
                while pos < n {
                    let run = c.varint().ok_or_else(|| corrupt("taken run"))? as usize;
                    if run == 0 || run > n - pos {
                        return Err(corrupt("block taken run"));
                    }
                    if bit {
                        for i in pos..pos + run {
                            self.taken[i / 64] |= 1 << (i % 64);
                        }
                    }
                    pos += run;
                    bit = !bit;
                }
            }
            _ => return Err(corrupt("block taken tag")),
        }

        // ---- Uops residuals.
        match c.u8().ok_or_else(|| corrupt("residual tag"))? {
            0 => {}
            1 => {
                let presence = c
                    .take(n.div_ceil(8))
                    .ok_or_else(|| corrupt("uops presence"))?;
                for i in 0..n {
                    if (presence[i / 8] >> (i % 8)) & 1 == 1 {
                        let delta = c.signed().ok_or_else(|| corrupt("uops residual"))?;
                        let v = i64::from(self.uops[i]) + delta;
                        self.uops[i] =
                            u32::try_from(v).map_err(|_| corrupt("block uops residual"))?;
                    }
                }
            }
            2 => {
                let count = c.varint().ok_or_else(|| corrupt("uops exception count"))? as usize;
                if count > n {
                    return Err(corrupt("block uops exception count"));
                }
                let mut idx = 0usize;
                for k in 0..count {
                    let gap = c
                        .varint()
                        .and_then(|v| usize::try_from(v).ok())
                        .ok_or_else(|| corrupt("uops exception gap"))?;
                    let from = if k == 0 { 0 } else { idx };
                    if (k > 0 && gap == 0) || gap > n - 1 - from {
                        return Err(corrupt("block uops exception gap"));
                    }
                    idx = from + gap;
                    let delta = c.signed().ok_or_else(|| corrupt("uops residual"))?;
                    let v = i64::from(self.uops[idx]) + delta;
                    self.uops[idx] =
                        u32::try_from(v).map_err(|_| corrupt("block uops residual"))?;
                }
            }
            _ => return Err(corrupt("block residual tag")),
        }

        if c.pos != bytes.len() {
            return Err(corrupt("block payload size"));
        }
        self.len = n;
        Ok(())
    }
}

/// Reads one framed block (after its marker) into `block`.
fn decode_block_body<R: Read>(wire: &mut WireReader<R>, block: &mut DecodedBlock) -> Result<()> {
    let offset = wire.position();
    let payload_len = wire.read_varint("block length")?;
    if payload_len > MAX_BLOCK_PAYLOAD {
        return Err(TraceError::Corrupt {
            offset,
            what: "block length",
        });
    }
    let checksum = wire.read_u64("block checksum")?;
    block.payload.resize(payload_len as usize, 0);
    let mut payload = std::mem::take(&mut block.payload);
    let res = (|| {
        wire.read_exact(&mut payload, "block payload")?;
        if fnv1a(&payload) != checksum {
            return Err(TraceError::Corrupt {
                offset,
                what: "block checksum mismatch",
            });
        }
        block.parse_payload(&payload, offset)
    })();
    block.payload = payload;
    res
}

/// Chunked reader of block-compressed `.bt` v2 traces.
///
/// Decodes whole blocks into a caller-provided [`DecodedBlock`], reusing
/// its buffers across blocks. [`BtReader`](crate::BtReader) wraps this
/// reader for v2 files: its `next_block` hands these blocks to the replay
/// engine, and its `next_record` yields identical records one at a time.
///
/// Errors are terminal: a corrupt block fails the stream, and corpus-level
/// tooling quarantines the trace. [`salvage`] exists for explicitly lossy
/// recovery of the undamaged blocks.
#[derive(Debug)]
pub struct BtBlockReader<R: Read> {
    wire: WireReader<R>,
    name: String,
    records: u64,
    blocks: u64,
}

impl<R: Read> BtBlockReader<R> {
    /// Opens a v2 trace, validating magic and version.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] on a
    /// foreign or newer file; [`TraceError::Corrupt`] on a v1 file (use
    /// [`BtReader`](crate::BtReader), which negotiates both versions).
    pub fn new(input: R) -> Result<Self> {
        let mut wire = WireReader::new(input);
        let version = read_header(&mut wire, BT_MAGIC, BT_VERSION)?;
        if version != BT_VERSION {
            return Err(TraceError::Corrupt {
                offset: 4,
                what: "v1 record stream (block reader requires v2)",
            });
        }
        let name = wire.read_str("trace name")?;
        Ok(Self::from_wire(wire, name))
    }

    /// Wraps a wire reader positioned just past the name (header already
    /// consumed and negotiated by the caller).
    pub(crate) fn from_wire(wire: WireReader<R>, name: String) -> Self {
        Self {
            wire,
            name,
            records: 0,
            blocks: 0,
        }
    }

    /// The benchmark name stored in the header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records decoded so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Blocks decoded so far.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Decodes the next block into `block`; `false` at a clean end of
    /// stream (the EOF falls exactly on a block boundary).
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] on a bad marker, checksum mismatch or
    /// malformed payload; [`TraceError::UnexpectedEof`] on a truncated
    /// block.
    pub fn next_block(&mut self, block: &mut DecodedBlock) -> Result<bool> {
        let Some(first) = self.wire.read_u8_or_eof()? else {
            return Ok(false);
        };
        let offset = self.wire.position() - 1;
        let mut rest = [0u8; 3];
        self.wire.read_exact(&mut rest, "block marker")?;
        if [first, rest[0], rest[1], rest[2]] != BT_BLOCK_MAGIC {
            return Err(TraceError::Corrupt {
                offset,
                what: "block marker",
            });
        }
        decode_block_body(&mut self.wire, block)?;
        self.records += block.len() as u64;
        self.blocks += 1;
        Ok(true)
    }
}

/// What [`salvage`] recovered from a damaged v2 trace.
#[derive(Debug)]
pub struct SalvageReport {
    /// The benchmark name from the header.
    pub name: String,
    /// Every record from every block that decoded and checksummed clean.
    pub records: Vec<BranchRecord>,
    /// Blocks recovered intact.
    pub blocks_decoded: u64,
    /// Maximal corrupt regions skipped (each one or more damaged blocks).
    pub corrupt_spans: u64,
}

/// Best-effort lossy recovery: decodes every intact block of a v2 trace,
/// resynchronizing on the next [`BT_BLOCK_MAGIC`] marker after damage.
///
/// Because each attempt re-parses from a candidate marker position in the
/// slice (rather than trusting a possibly-corrupt length field to skip
/// forward in a stream), a single damaged block can never swallow its
/// intact neighbors: corruption costs exactly the blocks it touches.
///
/// # Errors
///
/// Fails only if the file header itself is unreadable or not v2; block
/// damage is reported, not raised.
pub fn salvage(bytes: &[u8]) -> Result<SalvageReport> {
    let mut wire = WireReader::new(bytes);
    let version = read_header(&mut wire, BT_MAGIC, BT_VERSION)?;
    if version != BT_VERSION {
        return Err(TraceError::Corrupt {
            offset: 4,
            what: "v1 record stream (salvage requires v2)",
        });
    }
    let name = wire.read_str("trace name")?;
    let mut off = wire.position() as usize;

    let mut report = SalvageReport {
        name,
        records: Vec::new(),
        blocks_decoded: 0,
        corrupt_spans: 0,
    };
    let mut block = DecodedBlock::new();
    let mut in_skip = false;
    while off < bytes.len() {
        let Some(rel) = find_marker(&bytes[off..]) else {
            // Trailing bytes with no marker: damage unless nothing is left.
            if !in_skip {
                report.corrupt_spans += 1;
            }
            break;
        };
        if rel > 0 && !in_skip {
            report.corrupt_spans += 1;
            in_skip = true;
        }
        let at = off + rel;
        let mut wire = WireReader::new(&bytes[at + BT_BLOCK_MAGIC.len()..]);
        match decode_block_body(&mut wire, &mut block) {
            Ok(()) => {
                in_skip = false;
                for i in 0..block.len() {
                    report.records.push(block.record(i));
                }
                report.blocks_decoded += 1;
                off = at + BT_BLOCK_MAGIC.len() + wire.position() as usize;
            }
            Err(_) => {
                if !in_skip {
                    report.corrupt_spans += 1;
                    in_skip = true;
                }
                off = at + 1;
            }
        }
    }
    Ok(report)
}

/// Position of the first block marker in `bytes`, if any.
fn find_marker(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(BT_BLOCK_MAGIC.len())
        .position(|w| w == BT_BLOCK_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BtReader;

    fn sample_stream(n: usize) -> Vec<BranchRecord> {
        // A small loop nest: aliased conditionals, a call/return pair, and
        // occasional uops outliers — exercises dictionary reuse, both taken
        // encodings, and residuals.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let rec = match i % 7 {
                0..=3 => BranchRecord::conditional(0x40_1000, 0x40_0f80, i % 5 != 4, 6),
                4 => BranchRecord::conditional(0x40_1040, 0x40_1100, i % 2 == 0, 3),
                5 => BranchRecord {
                    pc: 0x40_1080,
                    target: 0x40_8000,
                    kind: BranchKind::Call,
                    taken: true,
                    uops_since_prev: if i % 35 == 5 { 211 } else { 2 },
                },
                _ => BranchRecord {
                    pc: 0x40_8040,
                    target: 0x40_1084,
                    kind: BranchKind::Return,
                    taken: true,
                    uops_since_prev: 4,
                },
            };
            out.push(rec);
        }
        out
    }

    fn encode(records: &[BranchRecord], name: &str, cap: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BtBlockWriter::with_block_capacity(&mut buf, name, cap).unwrap();
        for r in records {
            w.write(r).unwrap();
        }
        assert_eq!(w.records(), records.len() as u64);
        w.finish().unwrap();
        buf
    }

    #[test]
    fn block_reader_round_trips_across_block_boundaries() {
        let records = sample_stream(1000);
        let buf = encode(&records, "blocks", 64);
        let mut r = BtBlockReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.name(), "blocks");
        let mut block = DecodedBlock::new();
        let mut decoded = Vec::new();
        while r.next_block(&mut block).unwrap() {
            for i in 0..block.len() {
                decoded.push(block.record(i));
            }
        }
        assert_eq!(decoded, records);
        assert_eq!(r.records(), 1000);
        assert_eq!(r.blocks(), 1000u64.div_ceil(64));
    }

    #[test]
    fn scalar_reader_negotiates_v2() {
        let records = sample_stream(300);
        let buf = encode(&records, "nego", 128);
        let mut r = BtReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.name(), "nego");
        assert_eq!(r.read_all().unwrap(), records);
        assert_eq!(r.records(), 300);
    }

    #[test]
    fn v1_reader_cuts_its_stream_into_blocks() {
        // Longer than two blocks, so the last block is a partial one.
        let records = sample_stream(2 * BLOCK_RECORDS + 300);
        let mut v1 = Vec::new();
        let mut w = crate::BtWriter::new(&mut v1, "cut").unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();

        let mut r = BtReader::new(v1.as_slice()).unwrap();
        assert_eq!(r.version(), crate::BT_VERSION_V1);
        let mut block = DecodedBlock::new();
        let (mut sizes, mut decoded) = (Vec::new(), Vec::new());
        while r.next_block(&mut block).unwrap() {
            sizes.push(block.len());
            decoded.extend((0..block.len()).map(|i| block.record(i)));
        }
        assert_eq!(sizes, [BLOCK_RECORDS, BLOCK_RECORDS, 300]);
        assert_eq!(decoded, records);
        assert_eq!(r.records(), records.len() as u64);
    }

    #[test]
    fn v2_is_smaller_than_v1_on_loopy_streams() {
        let records = sample_stream(20_000);
        let v2 = encode(&records, "size", BLOCK_RECORDS);
        let mut v1 = Vec::new();
        let mut w = crate::BtWriter::new(&mut v1, "size").unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        assert!(
            v2.len() * 2 <= v1.len(),
            "v2 {} bytes not 2x smaller than v1 {} bytes",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let buf = encode(&[], "empty", 16);
        let mut r = BtBlockReader::new(buf.as_slice()).unwrap();
        let mut block = DecodedBlock::new();
        assert!(!r.next_block(&mut block).unwrap());
        assert_eq!(r.records(), 0);
    }

    #[test]
    fn checksum_catches_payload_damage() {
        let records = sample_stream(200);
        let mut buf = encode(&records, "flip", 64);
        let last = buf.len() - 3; // inside the final block's payload
        buf[last] ^= 0x10;
        let mut r = BtBlockReader::new(buf.as_slice()).unwrap();
        let mut block = DecodedBlock::new();
        let mut err = None;
        loop {
            match r.next_block(&mut block) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(err, Some(TraceError::Corrupt { .. })),
            "damage not detected: {err:?}"
        );
    }

    #[test]
    fn block_reader_rejects_v1_streams() {
        let mut buf = Vec::new();
        crate::BtWriter::new(&mut buf, "v1")
            .unwrap()
            .finish()
            .unwrap();
        assert!(matches!(
            BtBlockReader::new(buf.as_slice()),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn salvage_loses_only_the_damaged_block() {
        let records = sample_stream(640);
        let buf = encode(&records, "salvage", 64);
        // Flip one bit somewhere in the middle of the file.
        let mut damaged = buf.clone();
        let at = buf.len() / 2;
        damaged[at] ^= 0x04;
        let report = salvage(&damaged).unwrap();
        assert_eq!(report.name, "salvage");
        assert_eq!(report.corrupt_spans, 1);
        assert_eq!(report.blocks_decoded, 9);
        // The recovered records are exactly the original stream minus one
        // aligned 64-record block.
        assert_eq!(report.records.len(), 640 - 64);
        let clean = salvage(&buf).unwrap();
        assert_eq!(clean.records, records);
        assert_eq!(clean.corrupt_spans, 0);
    }

    #[test]
    fn rle_beats_raw_on_biased_streams() {
        // All-taken: RLE is a tag + first bit + one run varint.
        let records: Vec<BranchRecord> = (0..512)
            .map(|_| BranchRecord::conditional(0x1000, 0x0f00, true, 5))
            .collect();
        let biased = encode(&records, "x", 512);
        let noisy: Vec<BranchRecord> = (0..512)
            .map(|i| {
                BranchRecord::conditional(0x1000, 0x0f00, (i * 2654435761u64).is_multiple_of(3), 5)
            })
            .collect();
        let noisy = encode(&noisy, "x", 512);
        assert!(biased.len() < noisy.len());
        // Both still round-trip through the scalar reference.
        let mut r = BtReader::new(biased.as_slice()).unwrap();
        assert_eq!(r.read_all().unwrap(), records);
    }
}
