//! Ablation for the paper's §3.1 memory-requirements claim:
//!
//! *"With XMM, the centralized manager stores the page state of a memory
//! object in a data structure that requires 1 byte of non-pageable memory
//! for each page in the virtual address space of the memory object,
//! multiplied by the number of nodes that use the object. ... ASVM not
//! only distributes the page state information across the system, but also
//! ties it to physical pages"* — manager memory must grow with the
//! *resident set*, not with `address space × nodes`.

use cluster::{ManagerKind, Step};
use svmsim::{NodeId, Time};
use workloads::{Outcome, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;

/// Builds a cluster where every node maps a large, sparsely touched object
/// and touches `touched` pages each; returns (max per-node, total) manager
/// state bytes — the page-state structures the paper's claim is about,
/// not the whole engine footprint the state probe gauges.
fn measure(
    kind: ManagerKind,
    nodes: u16,
    object_pages: u32,
    touched: u32,
) -> ((usize, usize), Outcome) {
    let sc = Scenario::new(kind, nodes, 5);
    let mut ssi = sc.build();
    let (_, tasks) = Scenario::shared_region(&mut ssi, nodes, object_pages, false);
    for (i, t) in tasks.iter().enumerate() {
        // Each node touches a disjoint slice of the sparse address space.
        let first = i as u32 * touched;
        let steps = (first..first + touched)
            .map(|p| Step::Write {
                va_page: p as u64,
                value: p as u64,
            })
            .collect();
        Scenario::spawn_script(&mut ssi, NodeId(i as u16), *t, steps);
    }
    ssi.run(100_000_000).expect("quiesces");

    let mut max = 0usize;
    let mut total = 0usize;
    for n in 0..nodes {
        let node = ssi.node(NodeId(n));
        let bytes = match (node.asvm(), node.xmm()) {
            (Some(a), _) => a.objects().map(|o| o.state_bytes()).sum::<usize>(),
            (_, Some(x)) => x.manager_table_bytes(),
            _ => 0,
        };
        max = max.max(bytes);
        total += bytes;
    }
    (
        (max, total),
        sc.finish(ssi, Time::ZERO).expect_completed("sparse touch"),
    )
}

const GRID: [(u16, u32); 5] = [(4, 4096), (8, 4096), (16, 4096), (16, 65536), (32, 65536)];

pub fn run(args: &Args) {
    let touched = 32u32;
    let mut sweep = Sweep::with_config("ablation_memory", args.sweep.clone());
    for (nodes, object_pages) in GRID {
        for kind in [ManagerKind::xmm(), ManagerKind::asvm()] {
            let label = format!("{} {}n {}p", kind.label(), nodes, object_pages);
            crate::cell(&mut sweep, label, &[], move || {
                measure(kind, nodes, object_pages, touched)
            });
        }
    }
    let report = sweep.run();

    println!("manager state for a sparse shared object (each node touches {touched} pages)");
    println!(
        "{:>8}{:>12}{:>16}{:>16}{:>16}{:>16}",
        "nodes", "obj pages", "XMM max/node", "XMM total", "ASVM max/node", "ASVM total"
    );
    println!("{}", "-".repeat(84));
    let mut cells = report.values();
    for (nodes, object_pages) in GRID {
        let (xmax, xtot) = cells.next().expect("xmm cell").0;
        let (amax, atot) = cells.next().expect("asvm cell").0;
        println!(
            "{:>8}{:>12}{:>16}{:>16}{:>16}{:>16}",
            nodes, object_pages, xmax, xtot, amax, atot
        );
    }
    println!();
    println!("XMM's manager table grows as pages x nodes regardless of use;");
    println!("ASVM's state follows the resident pages plus bounded hint caches.");
    println!("(The paper notes the XMM design can exhaust memory and crash on");
    println!("large sparse address spaces; here it merely dwarfs ASVM.)");
    report.finish();
}
