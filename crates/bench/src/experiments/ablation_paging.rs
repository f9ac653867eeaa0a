//! Ablation for §3.6: internode paging.
//!
//! The memory of all nodes mapping an object acts as a cache for it. When
//! a node under memory pressure evicts an owned page, ownership first moves
//! to a surviving reader (no contents transferred), then the page migrates
//! to a node with free memory (the adaptive cycling counter), and only as
//! a last resort does it go to the pager's disk. A lent page goes back,
//! with its ownership, to the first node that reads it again. This harness
//! squeezes one node's memory and reports where its pages ended up — and
//! what a re-touch costs compared with a disk refault — and then runs the
//! squeeze for several rounds, to show whether lent memory keeps serving
//! as a cache once it is full.
//!
//! The squeeze is a two-phase experiment on one shared world, so it runs
//! as one sweep cell; each steady-state configuration is another cell.

use cluster::{ManagerKind, Step};
use svmsim::{Dur, MachineConfig, NodeId, Time};
use workloads::{Outcome, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;

const REGION_PAGES: u32 = 384;

/// Frames of user memory per node in the steady-state runs.
const STEADY_FRAMES: u32 = 128;

/// Rounds of the steady-state runs.
const STEADY_ROUNDS: u32 = 4;

/// The lender's memory as a multiple of the sweeper's overflow, in
/// halves: 0.5×, 1× and 2×.
const LENDER_HALVES: [u32; 3] = [1, 2, 4];

/// Where the region ended up after the squeeze: per node (owned pages
/// resident, total pages resident), then pages written to the pager's
/// disk and page transfers peers accepted (§3.6 step 3).
type Placement = (Vec<(usize, u32)>, u64, u64);

/// The counters each steady-state round reports, in print order.
const ROUND_KEYS: [&str; 6] = [
    "disk.writes",
    "asvm.evict.step1",
    "asvm.evict.step2",
    "asvm.evict.step3",
    "asvm.evict.step4",
    "asvm.evict.lent_return",
];

/// What one cell measured.
enum Measured {
    /// The squeeze: placement after phase 1 (the re-scan is the outcome).
    Squeeze(Placement),
    /// Per steady-state round, its simulated duration and the
    /// [`ROUND_KEYS`] counted in it.
    Steady(Vec<(Dur, [u64; 6])>),
}

/// Returns the placement after phase 1 and the run of phase 2 (the
/// re-scan).
fn experiment() -> (Measured, Outcome) {
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
        stats.counter("asvm.evict.step3"),
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
    (Measured::Squeeze(placement), rescan)
}

/// `kind` on two nodes of [`STEADY_FRAMES`] frames: node 0 writes and
/// then reads back a region larger than its memory, [`STEADY_ROUNDS`]
/// times; node 1 only lends its memory, `halves` / 2 times the overflow.
fn steady(kind: ManagerKind, halves: u32) -> (Measured, Outcome) {
    let overflow = STEADY_FRAMES * 2 / halves;
    let region = STEADY_FRAMES + overflow;
    let mut cfg = MachineConfig::paragon(2);
    cfg.user_mem_bytes_per_node = STEADY_FRAMES as u64 * 8192;
    let sc = Scenario::new(kind, 2, 31).machine(cfg);
    let mut ssi = sc.build();
    let (_, tasks) = Scenario::shared_region(&mut ssi, 2, region, false);
    let counts = |ssi: &cluster::Ssi| ROUND_KEYS.map(|k| ssi.stats().counter(k));
    let mut rounds = Vec::new();
    for round in 0..STEADY_ROUNDS {
        let (start, before) = (ssi.world.now(), counts(&ssi));
        let value = |p: u32| (round as u64 + 1) << 32 | p as u64;
        let writes = (0..region).map(|p| Step::Write {
            va_page: p as u64,
            value: value(p),
        });
        let reads = (0..region).map(|p| Step::Read { va_page: p as u64 });
        Scenario::run_script(&mut ssi, NodeId(0), tasks[0], writes.chain(reads).collect());
        let node0 = ssi.node(NodeId(0));
        for p in [0, region / 2, region - 1] {
            if let Some(v) = node0.vm.peek_task_page(tasks[0], p as u64) {
                assert_eq!(v, value(p), "page {p} corrupted in round {}", round + 1);
            }
        }
        let after = counts(&ssi);
        rounds.push((
            ssi.world.now().since(start),
            std::array::from_fn(|i| after[i] - before[i]),
        ));
    }
    let outcome = sc.finish(ssi, Time::ZERO).expect_completed("steady state");
    (Measured::Steady(rounds), outcome)
}

pub fn run(args: &Args) {
    let mut sweep = Sweep::with_config("ablation_paging", args.sweep.clone());
    crate::cell(&mut sweep, "squeeze+rescan", &[], experiment);
    for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
        for halves in LENDER_HALVES {
            let label = format!("steady {} lender {halves}/2", kind.label());
            crate::cell(&mut sweep, label, &[], move || steady(kind, halves));
        }
    }
    let report = sweep.run();
    let mut cells = report.values();
    let Some((Measured::Squeeze((per_node, disk_writes, transfers)), rescan)) = cells.next() else {
        unreachable!("the squeeze is the first cell");
    };

    println!("after initializing {REGION_PAGES} pages on node 0 (capacity 256):");
    for (n, (owned, resident)) in per_node.iter().enumerate() {
        println!("  node {n}: {owned:>4} owned pages resident ({resident} total resident)");
    }
    println!("  pages written to the pager's disk: {disk_writes}");
    println!("  page transfers accepted by peers:  {transfers}");
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
    println!();
    println!(
        "steady state: node 0 writes, then reads, a region larger than its {STEADY_FRAMES} frames,"
    );
    println!("{STEADY_ROUNDS} rounds; node 1 idles and lends its {STEADY_FRAMES} frames (lender = k × overflow)");
    println!("             k round   sim s disk wr  step 1  step 2  step 3  step 4 lent rt");
    for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
        for halves in LENDER_HALVES {
            let Some((Measured::Steady(rounds), _)) = cells.next() else {
                unreachable!("steady-state cells follow the squeeze");
            };
            for (r, (took, counts)) in rounds.iter().enumerate() {
                let k = format!("{}×", halves as f64 / 2.0);
                let secs = took.as_secs_f64();
                print!("{:<6}{k:>6}{:>6}{secs:>8.2}", kind.label(), r + 1);
                print!("{:>8}", counts[0]);
                for c in &counts[1..] {
                    // XMM has no internode paging.
                    match kind {
                        ManagerKind::Asvm(_) => print!("{c:>8}"),
                        ManagerKind::Xmm { .. } => print!("{:>8}", "-"),
                    }
                }
                println!();
            }
        }
    }
    println!();
    println!("a lent page goes back, with its ownership, to the first node that");
    println!("reads it again, so the lender has room for the next round's overflow.");
    report.finish();
}
