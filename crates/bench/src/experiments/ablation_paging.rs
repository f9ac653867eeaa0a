//! Ablation for §3.6: internode paging.
//!
//! The memory of all nodes mapping an object acts as a cache for it. When
//! a node under memory pressure evicts an owned page, ownership first moves
//! to a surviving reader (no contents transferred), then the page migrates
//! to a node with free memory (the adaptive cycling counter), and only as
//! a last resort does it go to the pager's disk. This harness squeezes one
//! node's memory and reports where its pages ended up — and what a
//! re-touch costs compared with a disk refault.
//!
//! Unlike the grid sweeps, this is a single two-phase experiment on one
//! shared world, so it runs as one sweep cell; the phases stay sequential.

use cluster::{ManagerKind, Step};
use svmsim::{MachineConfig, NodeId};
use workloads::{Outcome, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;

const REGION_PAGES: u32 = 384;

/// Where the region ended up after the squeeze: per node (owned pages
/// resident, total pages resident), then pages written to the pager's
/// disk and mesh messages.
type Placement = (Vec<(usize, u32)>, u64, u64);

/// Returns the placement after phase 1 and the run of phase 2 (the
/// re-scan).
fn experiment() -> (Placement, Outcome) {
    // A machine with tiny memories so pressure is easy to create.
    let nodes = 4u16;
    let mut cfg = MachineConfig::paragon(nodes);
    cfg.user_mem_bytes_per_node = 256 * 8192; // 256 user pages per node
    let sc = Scenario::new(ManagerKind::asvm(), nodes, 31).machine(cfg);
    let mut ssi = sc.build();
    // Node 0 initializes a region 1.5x its own memory; the other nodes are
    // idle and nearly empty — their memory should absorb the overflow.
    let (mobj, tasks) = Scenario::shared_region(&mut ssi, nodes, REGION_PAGES, false);

    // Phase 1: node 0 writes the whole region, overflowing its memory.
    let steps = (0..REGION_PAGES)
        .map(|p| Step::Write {
            va_page: p as u64,
            value: 7000 + p as u64,
        })
        .collect();
    Scenario::run_script(&mut ssi, NodeId(0), tasks[0], steps);

    let per_node: Vec<(usize, u32)> = (0..nodes)
        .map(|n| {
            let node = ssi.node(NodeId(n));
            let asvm = node.asvm().expect("paging ablation runs ASVM");
            let owned = asvm.object(mobj).pages.values().filter(|pi| pi.owner);
            (owned.count(), node.vm.resident_total())
        })
        .collect();
    assert!(
        per_node[1..].iter().any(|(owned, _)| *owned > 0),
        "peers must have absorbed overflow pages"
    );
    let stats = ssi.stats();
    let placement = (
        per_node,
        stats.counter("disk.writes"),
        stats.counter("net.messages"),
    );

    // Phase 2: node 0 re-reads everything. Pages absorbed by peers come
    // back over the mesh (fast); only disk-resident pages pay the pager.
    ssi.world.stats_mut().reset();
    let rescan_from = ssi.world.now();
    let steps = (0..REGION_PAGES)
        .map(|p| Step::Read { va_page: p as u64 })
        .collect();
    Scenario::run_script(&mut ssi, NodeId(0), tasks[0], steps);

    // Verify data survived the entire eviction/transfer dance.
    let node0 = ssi.node(NodeId(0));
    for p in [0u32, 100, 200, REGION_PAGES - 1] {
        if let Some(v) = node0.vm.peek_task_page(tasks[0], p as u64) {
            assert_eq!(v, 7000 + p as u64, "page {p} corrupted by internode paging");
        }
    }
    let rescan = sc
        .finish(ssi, rescan_from)
        .expect_completed("squeeze+rescan");
    (placement, rescan)
}

pub fn run(args: &Args) {
    let mut sweep = Sweep::with_config("ablation_paging", args.sweep.clone());
    crate::cell(&mut sweep, "squeeze+rescan", &[], experiment);
    let report = sweep.run();
    let ((per_node, disk_writes, transfers), rescan) = report.values().next().expect("one cell");

    println!("after initializing {REGION_PAGES} pages on node 0 (capacity 256):");
    for (n, (owned, resident)) in per_node.iter().enumerate() {
        println!("  node {n}: {owned:>4} owned pages resident ({resident} total resident)");
    }
    println!("  pages written to the pager's disk: {disk_writes}");
    println!(
        "  page transfers accepted by peers:  {}",
        transfers.min(&99999)
    );
    println!();
    println!("node 0 re-reads the region:");
    println!(
        "  refaults: {}, mean {:.2} ms (disk refault would be ~30 ms)",
        rescan.faults(),
        rescan.mean_fault_ms()
    );
    println!(
        "  disk reads during re-scan: {}",
        rescan.counter("disk.reads")
    );
    println!();
    println!("ownership (and pages) spread across the peers' free memory instead of");
    println!("hitting the disk — §3.6's internode paging plus §5's load balancing.");
    println!("data integrity verified across eviction, transfer and refault.");
    report.finish();
}
