//! Decoupled front-end machinery for the prophet/critic reproduction:
//! the branch target buffer of §5 / Figure 4, plus the stage-accurate
//! fetch/critique/commit timing engine ([`pipeline`]).
//!
//! The prediction engine itself lives in the `prophet-critic` crate; this
//! crate supplies the structures that surround it in the paper's
//! implementation — the BTB that identifies branches at fetch, and the
//! pipeline engine that models the FTQ decoupling prediction generation
//! from prediction consumption and turns override-vs-flush recovery into
//! real, distinct bubble profiles for the cycle model.
//!
//! ```
//! use frontend::{Btb, FrontendPipeline, PipelineParams};
//!
//! let btb = Btb::isca04(); // 4096 entries, 4-way (Table 2)
//! assert_eq!(btb.occupancy(), 0);
//! let pipe = FrontendPipeline::new(PipelineParams::example()); // 32-entry FTQ
//! assert!(pipe.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
pub mod pipeline;

pub use btb::{Btb, BtbEntry};
pub use pipeline::{BubbleProfile, FrontendPipeline, PipelineEvents, PipelineParams};
