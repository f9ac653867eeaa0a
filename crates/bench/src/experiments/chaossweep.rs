//! Chaos sweep: every workload pattern run to completion while one node
//! suffers a permanent mid-run blackout.
//!
//! Each cell runs one access pattern on 8 nodes; at 30 ms simulated time
//! node 5 goes dark forever (`FaultPlan::with_blackout` to `Time::MAX`).
//! The recovery layer has to carry the run from there: the failure
//! detector suspects the victim, the request watchdog re-issues stalled
//! requests down the fallback chain, and ownership reconstruction elects
//! new owners for pages the victim held (docs/RELIABILITY.md). A cell
//! that hangs or strands a pending request fails the whole sweep — the
//! assertion, not the timing, is the point of this bench.
//!
//! Cells report elapsed time plus the `asvm.recover.*` /
//! `cluster.suspect.*` counters, landing in `BENCH_chaossweep.json` under
//! `--json` (schema in EXPERIMENTS.md).
//!
//! Determinism: the plan seed comes from `--seed` (default 1996) and
//! also seeds the uniform cell, so two invocations with the same seed and
//! flags produce byte-identical JSON — `ci/bench_check.sh` relies on
//! this.

use cluster::ManagerKind;
use svmsim::{FaultPlan, NodeId, Time};
use workloads::{run_pattern, Outcome, Pattern, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

const NODES: u16 = 8;
const PAGES: u32 = 8;
/// The node blacked out mid-run. Not node 0 (the barrier coordinator and
/// object home) so the chaos hits an "ordinary" participant; its static
/// manager roles still have to rehash onto survivors.
const VICTIM: NodeId = NodeId(5);
/// When the lights go out: late enough that every pattern is mid-flight,
/// early enough that most of the run happens degraded.
const BLACKOUT_AT: Time = Time::from_nanos(30_000_000);

const KEYS: &[Key] = &[
    "suspect.count=cluster.suspect.count",
    "recover.reissue=asvm.recover.reissue",
    "recover.refetch=asvm.recover.refetch",
    "recover.elected=asvm.recover.elected",
    "retry.resent=asvm.retry.resent",
    "retry.dup_drop=asvm.retry.dup_drop",
    "retry.exhausted=asvm.retry.exhausted",
    "fault.blackout=dropped",
    "page.faults=faults",
];

fn run_cell(seed: u64, pattern: Pattern) -> Outcome {
    let plan = FaultPlan::seeded(seed).with_blackout(VICTIM, BLACKOUT_AT, Time::MAX);
    let sc = Scenario::new(ManagerKind::asvm(), NODES, seed).faults(plan);
    run_pattern(&sc, PAGES, pattern).expect_completed("chaos cell (despite the blackout)")
}

pub fn run(args: &Args) {
    let seed = args.seed;
    let cells: [(&str, Pattern); 4] = [
        ("migratory", Pattern::Migratory { rounds: 3 }),
        ("producer-consumer", Pattern::ProducerConsumer { rounds: 3 }),
        (
            "hotspot",
            Pattern::Hotspot {
                rounds: 6,
                write_every: 3,
            },
        ),
        (
            "uniform",
            Pattern::Uniform {
                ops: 40,
                write_pct: 30,
            },
        ),
    ];
    let mut sweep = Sweep::with_config("chaossweep", args.sweep.clone());
    for (name, pattern) in cells {
        crate::cell(&mut sweep, format!("{name} +blackout"), KEYS, move || {
            run_cell(seed, pattern)
        });
    }
    let report = sweep.run();

    println!(
        "Chaos sweep: {NODES} nodes x {PAGES} pages, node {} dark from {:.0} ms (seed {seed})",
        VICTIM.0,
        BLACKOUT_AT.as_millis_f64()
    );
    println!("{:>28} {:>12}", "cell", "elapsed s");
    for c in &report.cells {
        println!("{:>28} {:>12.4}", c.label, c.value.elapsed_s());
    }
    report.finish();
}
