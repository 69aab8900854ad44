//! The `.bt` binary branch-trace format: v1 record streams and version
//! negotiation over both versions.
//!
//! v1 layout:
//!
//! ```text
//! magic    "BPTR"                      4 bytes
//! version  u16 LE                      1
//! name     varint length + UTF-8       benchmark name
//! records  until EOF:
//!   flags      u8
//!     bit 0    taken
//!     bits 1-2 kind code (cond/jump/call/ret)
//!     bit 3    target delta present (else target == fall-through)
//!     bits 4-7 uops_since_prev if < 15, else 0xF and a varint follows
//!   pc_delta   signed varint, from previous record's pc (first: from 0)
//!   tgt_delta  signed varint from this pc, if flag bit 3
//!   uops       varint, if flags bits 4-7 == 0xF
//! ```
//!
//! Deltas keep hot loops at 2–3 bytes per record. The parser is fully
//! manual and reports typed, offset-carrying errors.
//!
//! v2 is the block-compressed layout in [`crate::block`]. [`BtReader`]
//! negotiates the version from the header and decodes either one through
//! the same interface: `next_record` one record at a time (the
//! bit-identical scalar reference over both versions) or `next_block`
//! into the batched replay engine's column buffers. [`BtWriter`] always
//! emits v1 (the migration baseline); [`BtBlockWriter`](crate::BtBlockWriter)
//! emits v2.

use std::io::{Read, Write};

use crate::block::{BtBlockReader, DecodedBlock, BLOCK_RECORDS};
use crate::error::{Result, TraceError};
use crate::record::{BranchKind, BranchRecord};
use crate::wire::{read_header, write_header, WireReader, WireWriter};

/// Magic bytes of the `.bt` format.
pub const BT_MAGIC: [u8; 4] = *b"BPTR";

/// Newest `.bt` version this build reads (block-compressed).
pub const BT_VERSION: u16 = 2;

/// The legacy record-stream version [`BtWriter`] emits.
pub const BT_VERSION_V1: u16 = 1;

const UOPS_INLINE_MAX: u32 = 14;

/// Streaming writer of legacy v1 (record-stream) `.bt` branch traces.
///
/// New recordings should use [`BtBlockWriter`](crate::BtBlockWriter) (v2);
/// this writer remains as the `traces migrate` baseline and for tests that
/// pin v1 compatibility.
///
/// # Examples
///
/// ```
/// use bptrace::{BranchRecord, BtReader, BtWriter};
///
/// let mut buf = Vec::new();
/// let mut w = BtWriter::new(&mut buf, "demo")?;
/// w.write(&BranchRecord::conditional(0x1000, 0x1040, true, 7))?;
/// w.finish()?;
///
/// let mut r = BtReader::new(buf.as_slice())?;
/// assert_eq!(r.name(), "demo");
/// let rec = r.next_record()?.unwrap();
/// assert_eq!(rec.pc, 0x1000);
/// assert!(rec.taken);
/// # Ok::<(), bptrace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct BtWriter<W: Write> {
    wire: WireWriter<W>,
    prev_pc: u64,
    records: u64,
}

impl<W: Write> BtWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(out: W, name: &str) -> Result<Self> {
        let mut wire = WireWriter::new(out);
        write_header(&mut wire, BT_MAGIC, BT_VERSION_V1)?;
        wire.write_str(name)?;
        Ok(Self {
            wire,
            prev_pc: 0,
            records: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, rec: &BranchRecord) -> Result<()> {
        let has_target = rec.target != rec.fall_through();
        let uops_inline = rec.uops_since_prev.min(UOPS_INLINE_MAX + 1); // 15 = escape
        let flags = u8::from(rec.taken)
            | (rec.kind.code() << 1)
            | (u8::from(has_target) << 3)
            | ((uops_inline as u8) << 4);
        self.wire.write_u8(flags)?;
        self.wire
            .write_signed(rec.pc.wrapping_sub(self.prev_pc) as i64)?;
        if has_target {
            self.wire
                .write_signed(rec.target.wrapping_sub(rec.pc) as i64)?;
        }
        if uops_inline > UOPS_INLINE_MAX {
            self.wire.write_varint(u64::from(rec.uops_since_prev))?;
        }
        self.prev_pc = rec.pc;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final flush.
    pub fn finish(mut self) -> Result<W> {
        self.wire.flush()?;
        Ok(self.wire.into_inner())
    }
}

/// Version-negotiating streaming reader of `.bt` branch traces.
///
/// Reads both the v1 record stream and the block-compressed v2 format
/// through the same record-at-a-time interface, which makes it the
/// bit-identical scalar reference over both versions: migration and the
/// chunked replay path are validated against what this reader yields.
///
/// See [`BtWriter`] for the v1 format and a round-trip example.
#[derive(Debug)]
pub struct BtReader<R: Read> {
    name: String,
    records: u64,
    version: u16,
    body: Body<R>,
}

/// The per-version decoding state behind [`BtReader`].
#[derive(Debug)]
enum Body<R: Read> {
    /// v1: a bare delta-encoded record stream.
    V1 { wire: WireReader<R>, prev_pc: u64 },
    /// v2: framed blocks, decoded one block at a time and cursored.
    V2 {
        blocks: BtBlockReader<R>,
        block: DecodedBlock,
        cursor: usize,
    },
}

impl<R: Read> BtReader<R> {
    /// Opens a trace, validating magic and negotiating the version.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] on a
    /// foreign or newer file, I/O errors otherwise.
    pub fn new(input: R) -> Result<Self> {
        let mut wire = WireReader::new(input);
        let version = read_header(&mut wire, BT_MAGIC, BT_VERSION)?;
        let name = wire.read_str("trace name")?;
        let body = if version == BT_VERSION_V1 {
            Body::V1 { wire, prev_pc: 0 }
        } else {
            Body::V2 {
                blocks: BtBlockReader::from_wire(wire, name.clone()),
                block: DecodedBlock::new(),
                cursor: 0,
            }
        };
        Ok(Self {
            name,
            records: 0,
            version,
            body,
        })
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

    /// The container version found in the header (1 or 2).
    #[must_use]
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Decodes the next record, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`], [`TraceError::UnexpectedEof`] or
    /// [`TraceError::VarintOverflow`] on malformed input.
    pub fn next_record(&mut self) -> Result<Option<BranchRecord>> {
        let rec = match &mut self.body {
            Body::V1 { wire, prev_pc } => match next_v1_record(wire, prev_pc)? {
                Some(rec) => rec,
                None => return Ok(None),
            },
            Body::V2 {
                blocks,
                block,
                cursor,
            } => {
                while *cursor >= block.len() {
                    if !blocks.next_block(block)? {
                        return Ok(None);
                    }
                    *cursor = 0;
                }
                let rec = block.record(*cursor);
                *cursor += 1;
                rec
            }
        };
        self.records += 1;
        Ok(Some(rec))
    }

    /// Decodes the next run of records into `block`'s column buffers;
    /// `false` at a clean end of stream.
    ///
    /// A v2 reader hands over its framed blocks as they are. A v1 reader
    /// cuts its record stream into blocks of up to [`BLOCK_RECORDS`]
    /// records, so the batched replay engine consumes both versions
    /// through this one call. Read a stream either by block or by
    /// [`next_record`](Self::next_record), not both: on v2, a block call
    /// after a record call starts at the next framed block.
    ///
    /// # Errors
    ///
    /// As [`next_record`](Self::next_record). A v1 block is decoded whole,
    /// so a malformed record fails the block it falls in.
    pub fn next_block(&mut self, block: &mut DecodedBlock) -> Result<bool> {
        let more = match &mut self.body {
            Body::V1 { wire, prev_pc } => {
                block.clear();
                while block.len() < BLOCK_RECORDS {
                    let Some(rec) = next_v1_record(wire, prev_pc)? else {
                        break;
                    };
                    block.push(&rec);
                }
                !block.is_empty()
            }
            Body::V2 { blocks, .. } => blocks.next_block(block)?,
        };
        if more {
            self.records += block.len() as u64;
        }
        Ok(more)
    }

    /// Drains the remaining records into a vector.
    ///
    /// # Errors
    ///
    /// As [`next_record`](Self::next_record).
    pub fn read_all(&mut self) -> Result<Vec<BranchRecord>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// Decodes one v1 record from the stream, or `None` at a clean EOF.
fn next_v1_record<R: Read>(
    wire: &mut WireReader<R>,
    prev_pc: &mut u64,
) -> Result<Option<BranchRecord>> {
    let offset = wire.position();
    let Some(flags) = wire.read_u8_or_eof()? else {
        return Ok(None);
    };
    let taken = flags & 1 != 0;
    let kind = BranchKind::from_code((flags >> 1) & 0b11).ok_or(TraceError::Corrupt {
        offset,
        what: "record kind",
    })?;
    let has_target = flags & (1 << 3) != 0;
    let uops_field = u32::from(flags >> 4);

    let pc_delta = wire.read_signed("pc delta")?;
    let pc = prev_pc.wrapping_add(pc_delta as u64);
    let target = if has_target {
        let tgt_delta = wire.read_signed("target delta")?;
        pc.wrapping_add(tgt_delta as u64)
    } else {
        pc + 4
    };
    let uops_since_prev = if uops_field > UOPS_INLINE_MAX {
        let v = wire.read_varint("uop count")?;
        u32::try_from(v).map_err(|_| TraceError::Corrupt {
            offset,
            what: "uop count",
        })?
    } else {
        uops_field
    };

    *prev_pc = pc;
    Ok(Some(BranchRecord {
        pc,
        target,
        kind,
        taken,
        uops_since_prev,
    }))
}

/// Iterator adapter: yields `Result<BranchRecord>` until EOF or error.
impl<R: Read> Iterator for BtReader<R> {
    type Item = Result<BranchRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<BranchRecord> {
        vec![
            BranchRecord::conditional(0x40_1000, 0x40_1080, true, 12),
            BranchRecord::conditional(0x40_1080, 0x40_1000, false, 3),
            BranchRecord {
                pc: 0x40_1084,
                target: 0x40_2000,
                kind: BranchKind::Call,
                taken: true,
                uops_since_prev: 1,
            },
            BranchRecord {
                pc: 0x40_2040,
                target: 0x40_1088,
                kind: BranchKind::Return,
                taken: true,
                uops_since_prev: 200,
            },
            BranchRecord {
                pc: 0x40_1100,
                target: 0x40_0800,
                kind: BranchKind::Jump,
                taken: true,
                uops_since_prev: 15,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let records = sample_records();
        let mut buf = Vec::new();
        let mut w = BtWriter::new(&mut buf, "roundtrip").unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        assert_eq!(w.records(), records.len() as u64);
        w.finish().unwrap();

        let mut r = BtReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.name(), "roundtrip");
        let decoded = r.read_all().unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn iterator_interface_works() {
        let records = sample_records();
        let mut buf = Vec::new();
        let mut w = BtWriter::new(&mut buf, "iter").unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        let decoded: Result<Vec<_>> = BtReader::new(buf.as_slice()).unwrap().collect();
        assert_eq!(decoded.unwrap(), records);
    }

    #[test]
    fn hot_loop_records_are_compact() {
        // A tight loop: same branch, small uop counts. Expect <= 3 bytes per
        // record after the first.
        let mut buf = Vec::new();
        let mut w = BtWriter::new(&mut buf, "x").unwrap();
        for i in 0..100 {
            w.write(&BranchRecord::conditional(0x1000, 0x0f00, i % 9 != 0, 6))
                .unwrap();
        }
        let total = w.finish().unwrap().len();
        assert!(total < 9 + 4 + 100 * 4, "encoding too fat: {total} bytes");
    }

    #[test]
    fn truncated_stream_reports_eof() {
        let mut buf = Vec::new();
        let mut w = BtWriter::new(&mut buf, "t").unwrap();
        w.write(&BranchRecord::conditional(0x1000, 0x2000, true, 5))
            .unwrap();
        w.finish().unwrap();
        // Chop the last byte: the record becomes unreadable.
        buf.pop();
        let mut r = BtReader::new(buf.as_slice()).unwrap();
        assert!(matches!(
            r.next_record(),
            Err(TraceError::UnexpectedEof { .. }) | Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn foreign_file_rejected() {
        let garbage = b"GIF89a notatrace";
        assert!(matches!(
            BtReader::new(garbage.as_slice()),
            Err(TraceError::BadMagic { .. })
        ));
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        BtWriter::new(&mut buf, "empty").unwrap().finish().unwrap();
        let mut r = BtReader::new(buf.as_slice()).unwrap();
        assert!(r.next_record().unwrap().is_none());
        assert_eq!(r.records(), 0);
    }

    #[test]
    fn fall_through_targets_omit_delta() {
        // Not-taken record whose target equals fall-through costs no target
        // bytes.
        let mut with = Vec::new();
        let mut w = BtWriter::new(&mut with, "a").unwrap();
        w.write(&BranchRecord::conditional(0x1000, 0x1004, false, 1))
            .unwrap();
        let with = w.finish().unwrap().len();

        let mut without = Vec::new();
        let mut w = BtWriter::new(&mut without, "a").unwrap();
        w.write(&BranchRecord::conditional(0x1000, 0x9000, false, 1))
            .unwrap();
        let without = w.finish().unwrap().len();
        assert!(with < without);
    }
}
