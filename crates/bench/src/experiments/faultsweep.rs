//! Fault sweep: completion time and retry traffic of a fixed ASVM
//! workload as per-message loss ramps from 0 to 10 percent, with a
//! duplication/delay mix riding along.
//!
//! Every cell runs the same migratory-ownership pattern (the most
//! retry-sensitive shape in the suite: every page changes owner every
//! round) on 8 nodes under a seeded [`svmsim::FaultPlan`]; the retry
//! channel (`asvm::retry`) must absorb the injected faults for the run to
//! complete. Each cell reports its slowdown relative to the loss-free
//! cell plus the `transport.fault.*` / `asvm.retry.*` counters, which land
//! in `BENCH_faultsweep.json` under `--json` (schema in EXPERIMENTS.md,
//! reliability model in docs/RELIABILITY.md).
//!
//! Determinism: the plan seed is fixed per cell, so two invocations with
//! the same flags produce byte-identical JSON.

use cluster::ManagerKind;
use svmsim::{Dur, FaultPlan};
use workloads::{run_pattern, Outcome, Pattern, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

/// Per-message loss rates swept, in parts per million.
const LOSS_PPM: [u32; 6] = [0, 1_000, 5_000, 10_000, 50_000, 100_000];

const NODES: u16 = 8;
const PAGES: u32 = 16;
const ROUNDS: u32 = 4;
const PLAN_SEED: u64 = 1996;

const KEYS: &[Key] = &[
    "fault.dropped=dropped",
    "fault.duplicated=transport.fault.duplicated",
    "fault.delayed=transport.fault.delayed",
    "retry.resent=asvm.retry.resent",
    "retry.dup_drop=asvm.retry.dup_drop",
    "retry.exhausted=asvm.retry.exhausted",
    "page.faults=faults",
    "protocol.messages=messages",
];

fn run_cell(loss_ppm: u32) -> Outcome {
    let plan = if loss_ppm == 0 {
        FaultPlan::none()
    } else {
        // A loss-dominated mix: duplication at a fifth of the loss rate,
        // mild extra delay at a tenth, inside a 2 ms window.
        FaultPlan::seeded(PLAN_SEED ^ loss_ppm as u64)
            .with_drop_ppm(loss_ppm)
            .with_dup_ppm(loss_ppm / 5)
            .with_delay(loss_ppm / 10, Dur::from_millis(2))
    };
    let sc = Scenario::new(ManagerKind::asvm(), NODES, 17).faults(plan);
    run_pattern(&sc, PAGES, Pattern::Migratory { rounds: ROUNDS }).expect_completed("sweep cell")
}

pub fn run(args: &Args) {
    let mut sweep = Sweep::with_config("faultsweep", args.sweep.clone());
    for ppm in LOSS_PPM {
        let label = format!("loss {:.1}%", ppm as f64 / 10_000.0);
        crate::cell(&mut sweep, label, KEYS, move || run_cell(ppm));
    }
    let report = sweep.run();

    println!("Fault sweep: migratory pattern, {NODES} nodes x {PAGES} pages x {ROUNDS} rounds");
    let elapsed: Vec<f64> = report.values().map(Outcome::elapsed_s).collect();
    let base = elapsed[0];
    println!("{:>8} {:>12} {:>10}", "loss", "elapsed s", "slowdown");
    for (ppm, e) in LOSS_PPM.iter().zip(&elapsed) {
        println!(
            "{:>7.1}% {:>12.4} {:>9.2}x",
            *ppm as f64 / 10_000.0,
            e,
            e / base
        );
    }
    report.finish();
}
