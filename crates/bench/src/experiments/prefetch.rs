//! Prefetch ablation: access-pattern-driven cross-node page readahead
//! (§6 future work, "read clustering"), off vs on.
//!
//! Each node runs a per-object stream detector over its local demand
//! faults; once a stride survives `asvm::prefetch::MIN_RUN` intervals the
//! engine pulls **speculative read copies** of the predicted window
//! through the normal protocol, at most `DEPTH` in flight, cancelled on a
//! stride break. This harness sweeps the streaming patterns where that
//! should hide demand faults — `filescan` (pure stride-1 read scan), `chain`
//! (writer hands a region to the next reader), `prodcons` (one writer
//! fanning out to readers) — plus `migratory` as the honest counter-case
//! (write-token hops; speculative read copies are invalidated unread and
//! show up under `asvm.prefetch.wasted`).
//!
//! Headline metrics: **faults per kilo-access** (demand faults /
//! analytic access count × 1000) and **demand-fault latency**. Honest
//! accounting rides along: `asvm.prefetch.{issued,hit,late,wasted}` and
//! wasted transfer kilobytes.
//!
//! The `off` arm is `AsvmConfig::default()` and the `data` arm
//! `AsvmConfig::with_prefetch(DEPTH)`, with identical per-touch think
//! time, so the only difference between arms is the prefetch engine.
//! Backend rows: the scan on RDMA (speculative reads go one-sided,
//! `transport.rdma.prefetch_read`) and prodcons on NORMA-IPC.
//!
//! Determinism: the patterns draw nothing from the world seed, so
//! `--seed` only relabels the table; `--json` regenerates
//! `BENCH_prefetch.json` byte-identically.

use asvm::AsvmConfig;
use cluster::ManagerKind;
use svmsim::Dur;
use transport::Transport;
use workloads::{run_pattern, Outcome, Pattern, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

const NODES: u16 = 4;
const PAGES: u32 = 64;
const DEPTH: u32 = 8;
const THINK_US: f64 = 800.0;
/// Page size of `MachineConfig::paragon` — the wasted-kilobytes factor.
const PAGE_KB: u64 = 8;

const PATTERNS: [(&str, Pattern); 4] = [
    ("filescan", Pattern::Scan { rounds: 2 }),
    (
        "chain",
        Pattern::Chain {
            rounds: 8,
            read_pages: PAGES,
        },
    ),
    ("prodcons", Pattern::ProducerConsumer { rounds: 4 }),
    ("migratory", Pattern::Migratory { rounds: 4 }),
];

/// The waste counter-case: the reader consumes only the first few pages
/// of each hand-off, so the speculative window overshoots its interest
/// and the next round's writer invalidates the overshoot unread.
const HANDOFF: Pattern = Pattern::Chain {
    rounds: 8,
    read_pages: 6,
};

const ARMS: [(&str, bool); 2] = [("off", false), ("data", true)];

/// `fpka_x10` and `wasted_kb` are gauges [`run_cell`] derives into the
/// snapshot (the analytic access count and the page size are the cell's
/// knowledge, not the run's).
const KEYS: &[Key] = &[
    "page.faults=faults",
    "fpka_x10",
    "fault_us_mean=mean_fault_us",
    "asvm.prefetch.issued",
    "asvm.prefetch.hit",
    "asvm.prefetch.late",
    "asvm.prefetch.wasted",
    "asvm.prefetch.cancelled",
    "wasted_kb",
    "transport.rdma.prefetch_read",
    "asvm.prefetch.latched",
];

fn arm_cfg(data: bool) -> AsvmConfig {
    if data {
        AsvmConfig::with_prefetch(DEPTH)
    } else {
        AsvmConfig::default()
    }
}

fn run_cell(seed: u64, pattern: Pattern, data: bool, transport: Transport) -> Outcome {
    let sc = Scenario::new(ManagerKind::Asvm(arm_cfg(data)), NODES, seed)
        .transport(transport)
        .think(Dur::from_micros_f64(THINK_US));
    let mut o = run_pattern(&sc, PAGES, pattern).expect_completed("prefetch cell");
    let fpka = o.faults_per_kilo_access(pattern.accesses(NODES, PAGES));
    o.stats.add("fpka_x10", (fpka * 10.0).round() as u64);
    let wasted = o.counter("asvm.prefetch.wasted");
    o.stats.add("wasted_kb", wasted * PAGE_KB);
    o
}

/// Every cell: (table row, arm label, arm, pattern, transport).
fn cells() -> Vec<(String, &'static str, bool, Pattern, Transport)> {
    let mut cells = Vec::new();
    // STS: every pattern × every arm.
    for (label, pattern) in PATTERNS {
        for (arm_label, arm) in ARMS {
            cells.push((
                format!("sts / {label}"),
                arm_label,
                arm,
                pattern,
                Transport::STS,
            ));
        }
    }
    // The waste counter-case, which the waste latch caps.
    for (arm_label, arm) in ARMS {
        cells.push((
            "sts / handoff".into(),
            arm_label,
            arm,
            HANDOFF,
            Transport::STS,
        ));
    }
    // Backend rows: the streaming scan on RDMA (speculative reads go
    // one-sided), prodcons on NORMA-IPC.
    for (backend, transport, (label, pattern)) in [
        ("rdma", Transport::RDMA, PATTERNS[0]),
        ("norma", Transport::NORMA, PATTERNS[2]),
    ] {
        for (arm_label, arm) in ARMS {
            cells.push((
                format!("{backend} / {label}"),
                arm_label,
                arm,
                pattern,
                transport,
            ));
        }
    }
    cells
}

pub fn run(args: &Args) {
    let seed = args.seed;
    let mut sweep = Sweep::with_config("prefetch", args.sweep.clone());
    for (row, arm_label, arm, pattern, transport) in cells() {
        crate::cell(
            &mut sweep,
            format!("{row} / {arm_label}"),
            KEYS,
            move || run_cell(seed, pattern, arm, transport),
        );
    }
    let report = sweep.run();

    println!(
        "Prefetch ablation ({NODES} nodes, {PAGES} pages, depth {DEPTH}, \
         {THINK_US:.0}us think/touch, seed {seed})"
    );
    println!("fpka = demand faults per 1000 accesses (analytic access count per pattern)");
    println!(
        "{:<22}{:>8}{:>8}{:>8}{:>9}{:>9}{:>8}{:>8}{:>8}",
        "pattern", "arm", "faults", "fpka", "flt us", "issued", "hit", "late", "wasted"
    );
    println!("{}", "-".repeat(88));
    for ((row, arm_label, _, pattern, _), o) in cells().iter().zip(report.values()) {
        println!(
            "{:<22}{:>8}{:>8}{:>8.1}{:>9.0}{:>9}{:>8}{:>8}{:>8}",
            row,
            arm_label,
            o.faults(),
            o.faults_per_kilo_access(pattern.accesses(NODES, PAGES)),
            o.mean_fault_ms() * 1000.0,
            o.counter("asvm.prefetch.issued"),
            o.counter("asvm.prefetch.hit"),
            o.counter("asvm.prefetch.late"),
            o.counter("asvm.prefetch.wasted"),
        );
    }
    println!();
    println!("migratory (pure write-token hops) earns zero speculation: only read");
    println!("activity drives speculative pulls. handoff is the waste counter-case:");
    println!("the reader consumes 6 of 64 handed-off pages, so the speculative window");
    println!("overshoots its interest and the overshoot copies are invalidated or");
    println!("overwritten unread (wasted column) until the waste latch turns the");
    println!("data tier off (asvm.prefetch.latched).");
    report.finish();
}
