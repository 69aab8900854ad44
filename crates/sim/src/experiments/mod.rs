//! One entry point per paper artifact.
//!
//! | id | artifact | module |
//! |---|---|---|
//! | `table1`..`table3` | inventory tables | [`statics`] |
//! | `fig5` | future-bit sweep | [`fig5`] |
//! | `fig6` | combination grid | [`fig6`] |
//! | `fig7` | conventional vs hybrid | [`fig7`] |
//! | `fig8` | critique distribution | [`fig8`] |
//! | `table4` | filter rates | [`table4`] |
//! | `fig9`/`fig10` | uPC | [`upc`] |
//! | `headline` | the abstract's numbers | [`headline`] |
//! | `tracecmp` | trace tournament (corpus replay vs snapshot exec) | [`tracecmp`] |
//! | `tune` | hybrid-parameter calibration search | [`tune`] |
//! | `h2p` | per-hard-branch deltas (Bullseye-style) | [`h2p`] |

pub mod ablation;
pub mod common;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod h2p;
pub mod headline;
pub mod statics;
pub mod table4;
pub mod tracecmp;
pub mod tune;
pub mod upc;

pub use common::{BenchSet, ExpEnv};

use crate::table::Table;

/// A runnable experiment reproducing one paper artifact.
#[derive(Copy, Clone)]
pub struct Experiment {
    /// Stable identifier (CLI argument).
    pub id: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// The runner.
    pub run: fn(&ExpEnv) -> Vec<Table>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish()
    }
}

/// All experiments, in paper order.
#[must_use]
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1: benchmark suites",
            run: statics::table1,
        },
        Experiment {
            id: "table2",
            title: "Table 2: simulation parameters",
            run: statics::table2,
        },
        Experiment {
            id: "table3",
            title: "Table 3: predictor configurations",
            run: statics::table3,
        },
        Experiment {
            id: "fig5",
            title: "Figure 5: future bits vs accuracy",
            run: fig5::run,
        },
        Experiment {
            id: "fig6",
            title: "Figure 6: prophet/critic combinations",
            run: fig6::run,
        },
        Experiment {
            id: "fig7",
            title: "Figure 7: conventional vs hybrid",
            run: fig7::run,
        },
        Experiment {
            id: "fig8",
            title: "Figure 8: critique distribution",
            run: fig8::run,
        },
        Experiment {
            id: "table4",
            title: "Table 4: filter rates",
            run: table4::run,
        },
        Experiment {
            id: "fig9",
            title: "Figure 9: uPC, three prophets",
            run: upc::fig9,
        },
        Experiment {
            id: "fig10",
            title: "Figure 10: uPC per suite",
            run: upc::fig10,
        },
        Experiment {
            id: "headline",
            title: "Abstract: headline comparison",
            run: headline::run,
        },
        Experiment {
            id: "ablation",
            title: "Ablations: tag width + allocation policy (§4)",
            run: ablation::run,
        },
        Experiment {
            id: "tracecmp",
            title: "Trace tournament: corpus replay vs snapshot re-execution",
            run: tracecmp::run,
        },
        Experiment {
            id: "h2p",
            title: "H2P slices: per-hard-branch deltas, baseline vs tuned hybrid",
            run: h2p::run,
        },
        Experiment {
            id: "tune",
            title: "Calibration: deterministic hybrid-parameter search vs 2Bc-gskew",
            run: tune::run,
        },
    ]
}

/// Looks an experiment up by id.
#[must_use]
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_artifact() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        for want in [
            "table1", "table2", "table3", "table4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "headline", "tracecmp", "tune", "h2p",
        ] {
            assert!(ids.contains(&want), "{want} missing from registry");
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(by_id("fig5").is_some());
        assert!(by_id("fig99").is_none());
    }
}
