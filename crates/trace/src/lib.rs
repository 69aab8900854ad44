//! Branch-trace file formats for the prophet/critic reproduction.
//!
//! The paper's simulator executed Intel **LIT**s — proprietary processor
//! snapshots. This crate provides the open equivalents our simulator uses,
//! all *hand-parsed* binary formats (no serialization framework):
//!
//! * [`BtWriter`]/[`BtReader`] — the `.bt` binary branch-trace format:
//!   delta- and varint-compressed dynamic branch records, streamable.
//!   [`BtReader`] negotiates both container versions: record by record it
//!   is the scalar reference decoder, and block by block it feeds both
//!   versions to the batched replay engine.
//! * [`BtBlockWriter`]/[`BtBlockReader`] — the block-compressed v2 layout:
//!   framed, checksummed blocks of ~4K branches with a per-block static
//!   dictionary, decoded whole-block into [`DecodedBlock`] column buffers
//!   for the batched replay engine. [`salvage`] recovers the intact blocks
//!   of a damaged v2 trace.
//! * [`WireReader`]/[`WireWriter`] — the underlying wire primitives
//!   (LEB128 varints, zigzag signed encoding, magic/version headers),
//!   shared with the program-snapshot format in the `workloads` crate.
//! * [`TraceStats`] — workload characterisation (taken rate, uops per
//!   conditional branch, static branch count).
//! * [`BranchProfile`]/[`StaticBranchStats`] — streaming per-static-branch
//!   taken-rate/bias summaries, used by the replay tooling to flag
//!   hard-to-predict (H2P) branches.
//!
//! # The trace corpus and the trace-vs-snapshot evaluation split
//!
//! The `replay` crate builds a durable on-disk **corpus** from these
//! formats: a directory holding one `<benchmark>.bt` branch trace and one
//! `<benchmark>.pcl` program snapshot per benchmark, indexed by a
//! hand-parsed `corpus.manifest` text file. Each manifest line records the
//! benchmark name, execution seed, uop budget, record count, per-file byte
//! length and FNV-1a checksum, and the [`TraceStats`] summary, so a corpus
//! is self-describing and verifiable without re-reading the traces.
//!
//! The corpus deliberately carries **both** artifacts because of the
//! paper's §6 methodology requirement: a *correct-path* branch trace is,
//! by design, insufficient to evaluate a prophet/critic hybrid — the
//! critic's future bits must be produced by actually fetching down wrong
//! paths, and generating them from a correct-path trace would hand the
//! critic oracle information. Evaluation therefore splits by predictor
//! class:
//!
//! * **conventional predictors** replay the `.bt` trace stream directly
//!   (the standard CBP-style trace-driven methodology);
//! * **prophet/critic hybrids** are re-executed from the `.pcl` snapshot
//!   by the execution-driven simulator (the `sim` crate), which walks
//!   real wrong paths.
//!
//! The two paths are cross-checked: the snapshot's correct-path walk must
//! reproduce the recorded trace record-for-record, which corpus
//! verification asserts.
//!
//! # Example
//!
//! ```
//! use bptrace::{BranchRecord, BtReader, BtWriter, TraceStats};
//!
//! let mut buf = Vec::new();
//! let mut w = BtWriter::new(&mut buf, "loop")?;
//! for i in 0..10 {
//!     w.write(&BranchRecord::conditional(0x1000, 0x0ff0, i % 10 != 9, 13))?;
//! }
//! w.finish()?;
//!
//! let mut r = BtReader::new(buf.as_slice())?;
//! let records = r.read_all()?;
//! let stats = TraceStats::from_records(&records);
//! assert_eq!(stats.conditionals, 10);
//! # Ok::<(), bptrace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod block;
mod error;
mod record;
mod stats;
pub mod wire;

pub use binary::{BtReader, BtWriter, BT_MAGIC, BT_VERSION, BT_VERSION_V1};
pub use block::{
    salvage, BtBlockReader, BtBlockWriter, DecodedBlock, SalvageReport, BLOCK_RECORDS,
    BT_BLOCK_MAGIC,
};
pub use error::{Result, TraceError};
pub use record::{BranchKind, BranchRecord};
pub use stats::{BranchProfile, StaticBranchStats, TraceStats, H2P_MAX_BIAS, H2P_MIN_OCCURRENCES};
pub use wire::{WireReader, WireWriter};
