//! Regenerates **Table 2: File Transfer Rates (MB/s)** and its graphical
//! forms, **Figure 12** (read) and **Figure 13** (write).
//!
//! A 4 MB memory-mapped file is accessed by 1–64 nodes in parallel,
//! bypassing the file server exactly as the paper does. Writes target
//! disjoint sections of a fresh file (bounded by zero-fill supply); reads
//! scan the whole populated file on every node (bounded by the pager — or,
//! under ASVM, served from peer caches after the first copy).

use cluster::ManagerKind;
use workloads::{file_scan, FileScanSpec, ScanDir};

use crate::cli::Args;
use crate::sweep::Sweep;

const NODES: [u16; 7] = [1, 2, 4, 8, 16, 32, 64];
const PAPER_ASVM_WRITE: [f64; 7] = [2.80, 2.60, 2.05, 1.22, 0.62, 0.30, 0.15];
const PAPER_XMM_WRITE: [f64; 7] = [2.15, 1.77, 0.90, 0.49, 0.24, 0.12, 0.06];
const PAPER_ASVM_READ: [f64; 7] = [1.57, 1.53, 1.14, 0.91, 0.70, 0.66, 0.66];
const PAPER_XMM_READ: [f64; 7] = [1.18, 0.38, 0.25, 0.11, 0.05, 0.02, 0.01];

pub fn run(args: &Args) {
    let file_pages = 512; // 4 MB
    let mut sweep = Sweep::with_config("table2", args.sweep.clone());
    for n in NODES {
        for (kind, dir) in [
            (ManagerKind::asvm(), ScanDir::Write),
            (ManagerKind::xmm(), ScanDir::Write),
            (ManagerKind::asvm(), ScanDir::Read),
            (ManagerKind::xmm(), ScanDir::Read),
        ] {
            let spec = FileScanSpec {
                kind,
                nodes: n,
                file_pages,
                dir,
            };
            let label = format!("{} {:?} {}n", kind.label(), dir, n);
            crate::cell(&mut sweep, label, &[], move || file_scan(spec));
        }
    }
    let report = sweep.run();

    println!("Table 2: File Transfer Rates (MB/s) — paper/measured");
    println!(
        "{:>6}{:>18}{:>18}{:>18}{:>18}",
        "nodes", "ASVM write", "XMM write", "ASVM read", "XMM read"
    );
    println!("{}", "-".repeat(78));
    let mut cells = report.values();
    for (i, n) in NODES.iter().enumerate() {
        let mut rate = |what| cells.next().expect(what).rate_mb_s;
        let aw = rate("asvm write");
        let xw = rate("xmm write");
        let ar = rate("asvm read");
        let xr = rate("xmm read");
        println!(
            "{:>6}{:>18}{:>18}{:>18}{:>18}",
            n,
            crate::pair(PAPER_ASVM_WRITE[i], aw),
            crate::pair(PAPER_XMM_WRITE[i], xw),
            crate::pair(PAPER_ASVM_READ[i], ar),
            crate::pair(PAPER_XMM_READ[i], xr),
        );
    }
    println!();
    println!("Figure 12 is the read series, Figure 13 the write series, plotted");
    println!("per node; the table above contains both.");
    report.finish();
}
