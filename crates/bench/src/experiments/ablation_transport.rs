//! Ablation for the paper's §3.1 transport claims:
//!
//! 1. *"NORMA IPC is responsible for about 90 percent of the latency
//!    involved in resolving remote page faults for memory that is shared
//!    through XMM"* — we re-run an XMM remote fault with NORMA-IPC's
//!    software overheads replaced by STS-class ones (and XMM's heavyweight
//!    IPC handling by ASVM-class handling) and report the share of latency
//!    the transport stack was responsible for.
//! 2. *"transferring a write permission from one node to another using
//!    XMMI takes five messages, two of them containing page contents. With
//!    a more suitable protocol, this number could be reduced to three
//!    messages ... only one of them containing page contents"* — we count
//!    the messages each implementation actually sends.
//!
//! 3. The modern coda: a 3-way backend × sharing-pattern sweep (NORMA-IPC,
//!    STS, one-sided RDMA) over the synthetic patterns.
//!    The 1996 trade-off holds where ownership migrates — ASVM's 3-message
//!    write transfer over the thin STS transport stays ahead of an
//!    interrupt-driven RNIC control path — but inverts on read-heavy
//!    sharing, where a one-sided pull serves a hot page with zero owner
//!    CPU occupancy and no handler serialization. Per-backend message
//!    counters ride along in every cell's JSON record.

use cluster::{ManagerKind, Step};
use machvm::Access;
use svmsim::{CostModel, Dur, FaultPlan, MachineConfig, NodeId};
use transport::Transport;
use workloads::{
    fault_probe, run_pattern, FaultProbeSpec, Outcome, Pattern, ProbeAccess, Scenario,
};

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

/// The write-transfer probe on 4 nodes: node 1 dirties page 0, `readers`
/// read it, then node 3's write fault is measured alone.
fn transfer_probe(sc: Scenario, readers: &[u16]) -> Outcome {
    let mut ssi = sc.build();
    let (_, tasks) = Scenario::shared_region(&mut ssi, 4, 16, false);
    let dirty = vec![Step::Write {
        va_page: 0,
        value: 1,
    }];
    Scenario::run_script(&mut ssi, NodeId(1), tasks[1], dirty);
    for &n in readers {
        let read = vec![Step::Read { va_page: 0 }];
        Scenario::run_script(&mut ssi, NodeId(n), tasks[n as usize], read);
    }
    ssi.world.stats_mut().reset();
    let start = ssi.world.now();
    let touch = vec![Step::Touch {
        va_page: 0,
        access: Access::Write,
    }];
    Scenario::run_script(&mut ssi, NodeId(3), tasks[3], touch);
    sc.finish(ssi, start).expect_completed("transfer probe")
}

/// The XMM write-transfer probe under the given cost model. A reader
/// first forces the coherent version to the pager (paying the
/// paging-space write up front); the measured fault then exercises the
/// pure transfer protocol.
fn xmm_probe(cost: CostModel) -> Outcome {
    let mut cfg = MachineConfig::paragon(4);
    cfg.cost = cost;
    transfer_probe(Scenario::new(ManagerKind::xmm(), 4, 7).machine(cfg), &[2])
}

/// The ASVM 1-read-copy write probe with the protocol carried by `t`.
fn asvm_over(t: Transport) -> Outcome {
    transfer_probe(Scenario::new(ManagerKind::asvm(), 4, 7).transport(t), &[])
}

/// The backend arms of the 3-way sweep. All arms get the same readahead
/// so the protocol configuration differs only where the backend itself
/// does.
fn backend_arms() -> [(&'static str, Transport, asvm::AsvmConfig); 3] {
    let ra = asvm::AsvmConfig::with_readahead(8);
    [
        ("norma", Transport::NORMA, ra),
        ("sts", Transport::STS, ra),
        ("rdma", Transport::RDMA, ra),
    ]
}

/// The sharing-pattern arms: migratory and producer/consumer exercise the
/// 3-message write transfer; the hotspot is read-heavy — after every
/// write round, every reader re-faults the hot set against one owner.
fn pattern_arms() -> [(&'static str, Pattern); 3] {
    [
        ("migratory", Pattern::Migratory { rounds: 4 }),
        ("prodcons", Pattern::ProducerConsumer { rounds: 4 }),
        (
            "hotspot",
            Pattern::Hotspot {
                rounds: 24,
                write_every: 8,
            },
        ),
    ]
}

const PATTERN_KEYS: &[Key] = &[
    "elapsed_us",
    "mean_fault_us",
    "faults",
    "sts.messages",
    "norma.messages",
    "rdma.messages",
    "transport.rdma.read_served",
    "transport.rdma.read_fallback",
];

/// One cell of the backend × pattern sweep: 4 nodes × 32 pages, paced at
/// 800µs of compute per touch (see `Scenario::think` on why pacing makes
/// the fault denominator pattern-dependent rather than
/// fill-spacing-dependent). The completion time is the headline metric;
/// the per-backend message counters land in the cell's JSON record.
fn pattern_cell(t: Transport, cfg: asvm::AsvmConfig, pattern: Pattern) -> Outcome {
    let sc = Scenario::new(ManagerKind::Asvm(cfg), 4, 17)
        .transport(t)
        .think(Dur::from_micros_f64(800.0));
    run_pattern(&sc, 32, pattern).expect_completed("backend sweep cell")
}

const FAULTED_KEYS: &[Key] = &[
    "elapsed_us",
    "faults",
    "sts.messages",
    "norma.messages",
    "rdma.messages",
    "transport.fault.dropped=dropped",
    "asvm.retry.resent",
    "asvm.recover.reissue",
];

/// The reliability contrast: the same seeded lossy plan (`--seed`,
/// default 1996) over each backend. STS and NORMA recover by per-link ARQ
/// retransmission; RDMA has no software ARQ (reliability is in the
/// fabric; only the one-sided read/reply pair crosses the fault seam), so
/// its losses surface as requester watchdog re-issues instead —
/// `asvm.retry.resent` stays zero while `asvm.recover.reissue` does the
/// work. See docs/RELIABILITY.md.
fn faulted_cell(seed: u64, t: Transport, cfg: asvm::AsvmConfig) -> Outcome {
    let plan = FaultPlan::seeded(seed)
        .with_drop_ppm(10_000)
        .with_dup_ppm(2_000);
    let sc = Scenario::new(ManagerKind::Asvm(cfg), 4, seed)
        .transport(t)
        .faults(plan);
    let pattern = Pattern::Uniform {
        ops: 80,
        write_pct: 30,
    };
    run_pattern(&sc, 16, pattern).expect_completed("faulted backend cell")
}

fn count_probe(kind: ManagerKind) -> Outcome {
    fault_probe(FaultProbeSpec {
        kind,
        read_copies: 1,
        faulter_has_copy: false,
        access: ProbeAccess::Write,
    })
}

pub fn run(args: &Args) {
    let mut stripped = CostModel::default();
    stripped.norma_send_cpu = stripped.sts_send_cpu;
    stripped.norma_recv_cpu = stripped.sts_recv_cpu;
    stripped.norma_header_bytes = stripped.sts_header_bytes;
    stripped.xmm_handle = stripped.asvm_handle;
    stripped.xmm_ack_handle = stripped.asvm_ack_handle;

    let seed = args.seed;
    let mut sweep = Sweep::with_config("ablation_transport", args.sweep.clone());
    crate::cell(&mut sweep, "xmm message counts", &[], || {
        count_probe(ManagerKind::xmm())
    });
    crate::cell(&mut sweep, "asvm message counts", &[], || {
        count_probe(ManagerKind::asvm())
    });
    crate::cell(&mut sweep, "xmm over norma", &[], || {
        xmm_probe(CostModel::default())
    });
    crate::cell(&mut sweep, "xmm over sts-class", &[], move || {
        xmm_probe(stripped)
    });
    crate::cell(&mut sweep, "asvm over norma", &[], || {
        asvm_over(Transport::NORMA)
    });
    crate::cell(&mut sweep, "asvm over sts", &[], || {
        asvm_over(Transport::STS)
    });
    for (pname, pattern) in pattern_arms() {
        for (bname, t, cfg) in backend_arms() {
            let label = format!("{pname} over {bname}");
            crate::cell(&mut sweep, label, PATTERN_KEYS, move || {
                pattern_cell(t, cfg, pattern)
            });
        }
    }
    for (bname, t, cfg) in backend_arms() {
        let label = format!("faulted uniform over {bname}");
        crate::cell(&mut sweep, label, FAULTED_KEYS, move || {
            faulted_cell(seed, t, cfg)
        });
    }
    let report = sweep.run();
    let cells: Vec<&Outcome> = report.values().collect();
    let (xmm_dirty, asvm) = (cells[0], cells[1]);
    let [xmm_norma, xmm_fast, asvm_norma, asvm_sts] =
        [2, 3, 4, 5].map(|i| cells[i].mean_fault_ms());
    let matrix: Vec<f64> = cells[6..].iter().map(|o| o.elapsed_s() * 1e3).collect();

    // --- Message counts ----------------------------------------------------
    // Count on the dirty-page transfer (write permission moves from the
    // current writer): the coherent version must reach the pager first.
    println!("write-permission transfer from the current writer:");
    println!(
        "  XMMI : {:>3} messages, {} carrying page contents \
         (paper: 5 msgs, 2 pages; ours adds the ack/completion bookkeeping)",
        xmm_dirty.messages(),
        xmm_dirty.page_messages()
    );
    println!(
        "  ASVM : {:>3} messages, {} carrying page contents \
         (paper: 3 msgs, 1 page; ours adds the static-manager hint update)",
        asvm.messages(),
        asvm.page_messages()
    );

    // --- Transport share of XMM fault latency --------------------------------
    let share = (xmm_norma - xmm_fast) / xmm_norma * 100.0;
    println!();
    println!("XMM remote write fault (warm pager):");
    println!("  NORMA-IPC transport + handling : {xmm_norma:>7.2} ms");
    println!("  STS-class transport + handling : {xmm_fast:>7.2} ms");
    println!("  transport share of latency     : {share:>6.1} %   (paper: ~90 %)");

    // --- The converse: the unchanged ASVM state machines over NORMA-IPC ----
    println!();
    println!("ASVM write fault (1 read copy), same state machines:");
    println!("  over STS (dedicated transport) : {asvm_sts:>7.2} ms");
    println!("  over NORMA-IPC                 : {asvm_norma:>7.2} ms");
    println!(
        "  the dedicated transport buys   : {:>6.1}x",
        asvm_norma / asvm_sts
    );

    // --- Backend × pattern: where the 1996 trade-off inverts ----------------
    println!();
    println!("backend x pattern sweep (4 nodes, 32 pages, 800 us/touch; run time in ms):");
    let backends = backend_arms();
    let patterns = pattern_arms();
    println!(
        "  {:<10} {:>10} {:>10} {:>10}   winner",
        "pattern", backends[0].0, backends[1].0, backends[2].0
    );
    for (pi, (pname, _)) in patterns.iter().enumerate() {
        let row = &matrix[pi * backends.len()..(pi + 1) * backends.len()];
        let win = row
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| backends[i].0)
            .expect("three backends");
        println!(
            "  {:<10} {:>10.1} {:>10.1} {:>10.1}   {}",
            pname, row[0], row[1], row[2], win
        );
    }
    let cell = |label: &str| -> &Outcome {
        let c = report.cells.iter().find(|c| c.label == label);
        &c.expect("cell was added above").value
    };
    let hotspot = cell("hotspot over rdma");
    println!(
        "  rdma one-sided reads on the hotspot: {} served by the owner's NIC, {} raised to its host",
        hotspot.counter("transport.rdma.read_served"),
        hotspot.counter("transport.rdma.read_fallback"),
    );

    // --- Reliability under loss: ARQ retransmission vs watchdog re-issue ----
    println!();
    println!("faulted uniform (1% drop, 0.2% dup), recovery by backend:");
    for (bname, _, _) in backends {
        let o = cell(&format!("faulted uniform over {bname}"));
        println!(
            "  {:<7}: {:>3} dropped, {:>3} ARQ retransmissions, {:>3} watchdog re-issues",
            bname,
            o.dropped(),
            o.counter("asvm.retry.resent"),
            o.counter("asvm.recover.reissue"),
        );
    }
    report.finish();
}
