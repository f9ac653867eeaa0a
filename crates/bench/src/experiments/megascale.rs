//! Megascale sweep: simulator throughput (events/s) and per-node
//! protocol-state bytes at 128–1024 nodes, ASVM vs. XMM.
//!
//! Three cell families per node count and manager:
//!
//! * `eventloop` — one compute-only task per node burning short bursts:
//!   every event is a bare resume on the event hot path (queue pop,
//!   dispatch, reschedule), so this cell measures the DES engine itself
//!   at cluster scale, free of protocol cost.
//! * `em3d` — the paper's EM3D kernel, weak-scaled (fixed cells per
//!   node) so per-node work stays constant while the cluster grows.
//! * `prodcons` / `hotspot` — synthetic sharing patterns with fan-out
//!   that grows with the cluster (one writer invalidating up to 1023
//!   readers).
//!
//! Every cell reports the [`workloads::StateProbe`]: the maximum and
//! mean per-node protocol state in bytes, read from the coherence
//! engines after the run. The paper's bounded-memory argument is directly
//! visible in the output table — ASVM's per-node state stays flat as the
//! cluster grows, while the XMM manager's lock table grows with
//! (pages × using nodes).
//!
//! Knob: `--seed`, the EM3D graph seed. Same seed ⇒ byte-identical
//! `--stable-json` output.

use cluster::ManagerKind;
use svmsim::Dur;
use workloads::{em3d_run, run_eventloop, run_pattern, Em3dSpec, Pattern, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

/// Compute bursts per node in the event-loop cells. Sized so the cheap
/// resume events dominate the sweep's event mix: the aggregate events/s
/// figure then reflects the event hot path the envelope/pooling work
/// optimized, with the protocol cells riding along for the state gauges.
const EVENTLOOP_STEPS: u32 = 32_768;

/// EM3D cells per node (weak scaling) and computation iterations.
const EM3D_CELLS_PER_NODE: u64 = 200;
const EM3D_ITERS: u32 = 3;

/// Pages and rounds of the sharing patterns.
const PATTERN_PAGES: u32 = 32;
const PRODCONS_ROUNDS: u32 = 2;
const HOTSPOT_ROUNDS: u32 = 4;
const HOTSPOT_WRITE_EVERY: u32 = 2;

/// Cluster sizes swept.
const NODES: [u16; 4] = [128, 256, 512, 1024];

/// The state probe, then the fault count (which the compute-only
/// event-loop cells leave out).
const KEYS: &[Key] = &[
    "state.max_bytes",
    "state.mean_bytes",
    "state.total_bytes",
    "queue.peak",
    "queue.grow",
    "page.faults=faults",
];

fn em3d_spec(kind: ManagerKind, nodes: u16, seed: u64) -> Em3dSpec {
    Em3dSpec {
        kind,
        nodes,
        cells: EM3D_CELLS_PER_NODE * nodes as u64,
        edges_per_cell: 6,
        pct_remote: 0.20,
        iterations: EM3D_ITERS,
        window: 100,
        seed,
        mem_32mb: false,
    }
}

pub fn run(args: &Args) {
    let seed = args.seed;
    let mut sweep = Sweep::with_config("megascale", args.sweep.clone());

    for n in NODES {
        let probe_only = &KEYS[..KEYS.len() - 1];
        crate::cell(
            &mut sweep,
            format!("eventloop {n}n"),
            probe_only,
            move || {
                run_eventloop(
                    ManagerKind::asvm(),
                    n,
                    EVENTLOOP_STEPS,
                    Dur::from_nanos(500),
                )
            },
        );
        for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
            let label = format!("em3d {} {n}n", kind.label());
            crate::cell(&mut sweep, label, KEYS, move || {
                em3d_run(em3d_spec(kind, n, seed))
            });
            for (family, pattern) in [
                (
                    "prodcons",
                    Pattern::ProducerConsumer {
                        rounds: PRODCONS_ROUNDS,
                    },
                ),
                (
                    "hotspot",
                    Pattern::Hotspot {
                        rounds: HOTSPOT_ROUNDS,
                        write_every: HOTSPOT_WRITE_EVERY,
                    },
                ),
            ] {
                let label = format!("{family} {} {n}n", kind.label());
                crate::cell(&mut sweep, label, KEYS, move || {
                    run_pattern(&Scenario::new(kind, n, 17), PATTERN_PAGES, pattern)
                        .expect_completed("megascale pattern")
                });
            }
        }
    }

    let report = sweep.run();

    println!("Megascale sweep: per-node protocol state and event throughput (seed {seed})");
    println!(
        "{:<22} {:>10} {:>12} {:>16} {:>16} {:>12} {:>8}",
        "cell", "sim s", "events", "state max B/node", "state mean B/node", "queue peak", "grows"
    );
    for c in &report.cells {
        let probe = c.value.probe;
        println!(
            "{:<22} {:>10.3} {:>12} {:>16} {:>16} {:>12} {:>8}",
            c.label,
            c.value.elapsed_s(),
            c.events,
            probe.state_max_bytes,
            probe.state_mean_bytes,
            probe.queue_peak,
            probe.queue_grow,
        );
    }

    // The bounded-memory table: worst-case per-node protocol state as the
    // cluster grows, ASVM vs. XMM per workload family.
    println!();
    println!("Bounded-memory check: max per-node protocol state (bytes)");
    print!("{:<10} {:>6}", "workload", "mgr");
    for n in NODES {
        print!(" {:>10}", format!("{n}n"));
    }
    println!();
    for family in ["em3d", "prodcons", "hotspot"] {
        for mgr in ["ASVM", "XMM"] {
            print!("{family:<10} {mgr:>6}");
            for n in NODES {
                let label = format!("{family} {mgr} {n}n");
                let bytes = report
                    .cells
                    .iter()
                    .find(|c| c.label == label)
                    .map(|c| c.value.probe.state_max_bytes)
                    .unwrap_or(0);
                print!(" {bytes:>10}");
            }
            println!();
        }
    }
    report.finish();
}
