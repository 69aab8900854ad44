//! The trace-corpus workflow end to end: **record** a corpus to disk,
//! **list/inspect** it through the manifest, **verify** its integrity, and
//! **replay** it through a conventional predictor — then confirm the
//! round trip is deterministic against direct execution.
//!
//! This is the same flow the `traces` CLI drives
//! (`traces record && traces replay`), exercised here as a library demo
//! against a temp-dir corpus.
//!
//! ```text
//! cargo run --release --example trace_tools
//! ```

use prophet_critic_repro::bptrace::{BranchProfile, H2P_MAX_BIAS, H2P_MIN_OCCURRENCES};
use prophet_critic_repro::predictors::configs::{self, Budget};
use prophet_critic_repro::replay::{
    direct_replay, load_snapshot, open_trace, record_corpus, replay_entry, verify_corpus, Manifest,
    ReplayConfig,
};
use prophet_critic_repro::workloads;

const UOP_BUDGET: u64 = 120_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("prophet-critic-trace-tools");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // 1. Record: two benchmarks -> .bt trace + .pcl snapshot each, plus
    //    the corpus.manifest index.
    let benches: Vec<workloads::Benchmark> = ["gcc", "unzip"]
        .iter()
        .map(|n| workloads::benchmark(n).expect("table 1 member"))
        .collect();
    let manifest = record_corpus(&dir, &benches, UOP_BUDGET)?;
    println!("recorded corpus at {}:", dir.display());
    for e in &manifest.entries {
        println!(
            "  {:<6} {:>7} records, {:>7} trace bytes ({:.2} B/record), fnv1a {:#018x}",
            e.name,
            e.records,
            e.bt_bytes,
            e.bt_bytes as f64 / e.records as f64,
            e.bt_fnv1a
        );
    }

    // 2. List: a corpus is self-describing — reload the manifest as a
    //    second session would.
    let reloaded = Manifest::load(&dir)?;
    assert_eq!(reloaded, manifest, "manifest round trip must be lossless");

    // 3. Inspect: stream one trace through the per-static-branch profile
    //    and flag the hard-to-predict (low-bias, hot) branches.
    let entry = reloaded.entry("gcc").expect("recorded above");
    let mut reader = open_trace(&dir, entry)?;
    let mut profile = BranchProfile::new();
    while let Some(rec) = reader.next_record()? {
        profile.observe(&rec);
    }
    println!("\ngcc trace: {}", profile.stats());
    for b in profile
        .h2p_candidates(H2P_MIN_OCCURRENCES, H2P_MAX_BIAS)
        .iter()
        .take(5)
    {
        println!(
            "  H2P candidate {:#010x}: {} execs, taken {:.1}%, bias {:.2}",
            b.pc,
            b.occurrences,
            b.taken_rate() * 100.0,
            b.bias()
        );
    }

    // 4. Verify: checksums, record counts, and the snapshot cross-check
    //    (the snapshot walk must reproduce the trace record-for-record —
    //    that is what licenses evaluating hybrids from snapshots while
    //    conventional predictors replay the trace, paper §6).
    verify_corpus(&dir, &reloaded)?;
    println!("\ncorpus verified: checksums + snapshot cross-check OK");

    // 5. Replay: stream each trace from disk through a 16 KB gshare with
    //    the standard 20% warm-up.
    let cfg = ReplayConfig::with_budget(UOP_BUDGET);
    println!("\n16KB gshare over the corpus:");
    for entry in &reloaded.entries {
        let mut predictor = configs::gshare(Budget::K16);
        let result = replay_entry(&dir, entry, &mut predictor, &cfg)?;
        println!(
            "  {:<6} {:>6} cond measured, {:>5} mispredicts, {:.2} misp/Kuops",
            result.trace,
            result.measured_conditionals,
            result.mispredicts,
            result.misp_per_kuops()
        );

        // Round-trip determinism: the on-disk corpus reproduces direct
        // execution on the same (program, seed) bit-for-bit.
        let bench = workloads::benchmark(&entry.name).expect("manifest names are benchmarks");
        let mut fresh = configs::gshare(Budget::K16);
        let direct = direct_replay(&bench.program(), entry.seed, &mut fresh, &cfg);
        assert_eq!(result, direct, "corpus replay must equal direct execution");
    }
    println!("  (each replay bit-identical to direct execution — round trip is deterministic)");

    // 6. The snapshot side: reload one .pcl and show it re-creates the
    //    program the execution-driven simulator would run for hybrids.
    let snap = load_snapshot(&dir, reloaded.entry("unzip").expect("recorded above"))?;
    println!(
        "\nunzip snapshot: {} blocks, {} behaviours, seed {:#x} — ready for hybrid re-execution",
        snap.program.blocks().len(),
        snap.program.behaviors().len(),
        snap.seed
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
