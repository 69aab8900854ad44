//! The engine-gap probe: the accuracy engine (`run_accuracy`) and the
//! cycle feed (`run_cycles`) run the same program, seed and budget, and
//! should count the same mispredicts and overrides. They do not. The
//! accuracy engine resolves a branch as soon as it is critiqued; the cycle
//! feed resolves it only once the fetch clock passes its resolve time, so
//! timing decides how far each wrong path runs and how late each branch
//! trains. The test is ignored until one engine remains; run it with
//! `cargo test -p sim --test engine_gap -- --ignored --nocapture` to see
//! the gap.

use prophet_critic::{Budget, HybridSpec, ProphetKind};
use sim::{run_accuracy, run_cycles, CycleConfig, SimConfig};

const UOPS: u64 = 200_000;
const SEED: u64 = 11;

#[test]
#[ignore = "the engines disagree by 4-12 %; see the ROADMAP item \"One execution-driven engine\""]
fn accuracy_and_cycle_engines_count_the_same_mispredicts_and_overrides() {
    let specs = [
        (
            "16KB 2Bc-gskew",
            HybridSpec::alone(ProphetKind::BcGskew, Budget::K16),
        ),
        ("tuned_headline", HybridSpec::tuned_headline()),
    ];
    let accuracy = SimConfig::with_budget(UOPS, SEED);
    let cycle = CycleConfig::isca04().budget(UOPS).seed(SEED);
    println!("bench  spec            misp acc / cyc  overrides acc / cyc");
    let mut gaps = Vec::new();
    for bench in ["gzip", "gcc", "vpr", "tpcc"] {
        let program = workloads::benchmark(bench).unwrap().program();
        for (label, spec) in &specs {
            let acc = run_accuracy(&program, &mut spec.build(), &accuracy);
            let cyc = run_cycles(&program, &mut spec.build(), &cycle);
            let row = format!(
                "{bench:<6} {label:<15} {:>5} / {:<5}      {:>5} / {:<5}",
                acc.final_mispredicts, cyc.final_mispredicts, acc.critic_overrides, cyc.overrides
            );
            println!("{row}");
            if (acc.final_mispredicts, acc.critic_overrides)
                != (cyc.final_mispredicts, cyc.overrides)
            {
                gaps.push(row);
            }
        }
    }
    assert!(
        gaps.is_empty(),
        "the engines disagree on {} of {} cells:\n{}",
        gaps.len(),
        4 * specs.len(),
        gaps.join("\n")
    );
}
