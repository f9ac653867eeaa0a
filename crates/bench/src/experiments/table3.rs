//! Regenerates **Table 3: EM3D Timings (seconds)** — execution times of
//! 100 iterations of the EM3D computation loop for 64 000, 256 000 and
//! 1 024 000 cells on 1–64 nodes, under ASVM and NMK13 XMM.
//!
//! Entries marked `*` were measured on a 32 MB node (the data set exceeds
//! a 16 MB node's user memory); `**` entries are omitted because the
//! combined memory of the nodes cannot hold the data set — the same
//! footnotes as the paper.

use cluster::ManagerKind;
use workloads::{em3d_run, Em3dSpec};

use crate::cli::Args;
use crate::sweep::Sweep;

const NODES: [u16; 7] = [1, 2, 4, 8, 16, 32, 64];

struct PaperRow {
    cells: u64,
    asvm: [Option<f64>; 7],
    xmm: [Option<f64>; 7],
}

const PAPER: [PaperRow; 3] = [
    PaperRow {
        cells: 64_000,
        asvm: [
            Some(43.6),
            Some(32.0),
            Some(19.9),
            Some(13.9),
            Some(11.2),
            Some(9.86),
            Some(9.55),
        ],
        xmm: [
            Some(43.6),
            Some(151.0),
            Some(213.0),
            Some(392.0),
            Some(755.0),
            Some(1405.0),
            Some(2735.0),
        ],
    },
    PaperRow {
        cells: 256_000,
        asvm: [
            Some(174.0),
            None,
            None,
            Some(33.6),
            Some(21.5),
            Some(15.6),
            Some(12.8),
        ],
        xmm: [
            Some(174.0),
            None,
            None,
            Some(520.0),
            Some(842.0),
            Some(1604.0),
            Some(2957.0),
        ],
    },
    PaperRow {
        cells: 1_024_000,
        asvm: [Some(698.0), None, None, None, None, Some(54.2), Some(24.4)],
        xmm: [
            Some(698.0),
            None,
            None,
            None,
            None,
            Some(1863.0),
            Some(3373.0),
        ],
    },
];

fn run_cell(kind: ManagerKind, nodes: u16, cells: u64, paper: Option<f64>) -> (String, u64) {
    let spec = Em3dSpec::paper(kind, nodes, cells);
    if !spec.feasible() {
        // `*` = needs a 32 MB node (only possible sequentially);
        // `**` = does not fit at all.
        if nodes == 1 {
            let spec32 = Em3dSpec {
                mem_32mb: true,
                ..spec
            };
            if spec32.feasible() {
                let out = em3d_run(spec32);
                return (
                    format!("{:>7.1}/{:<7.1}*", paper.unwrap_or(0.0), out.elapsed_s()),
                    out.events,
                );
            }
        }
        return (format!("{:>8}{:<8}", "", "**"), 0);
    }
    let out = em3d_run(spec);
    let text = match paper {
        Some(p) => format!("{:>7.1}/{:<8.1}", p, out.elapsed_s()),
        None => format!("{:>7}/{:<8.1}", "-", out.elapsed_s()),
    };
    (text, out.events)
}

pub fn run(args: &Args) {
    // Sequential baselines run with 32 MB nodes, as in the paper.
    let mut sweep = Sweep::with_config("table3", args.sweep.clone());
    for row in &PAPER {
        for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
            let paper = match kind {
                ManagerKind::Asvm(_) => &row.asvm,
                ManagerKind::Xmm { .. } => &row.xmm,
            };
            for (i, n) in NODES.iter().enumerate() {
                let (nodes, cells, paper_val) = (*n, row.cells, paper[i]);
                sweep.cell(
                    format!("{} {}k {}n", kind.label(), cells / 1000, nodes),
                    move || run_cell(kind, nodes, cells, paper_val),
                );
            }
        }
    }
    let report = sweep.run();

    println!("Table 3: EM3D Timings (seconds) — paper/measured");
    println!("(* sequential baseline on a 32 MB node; ** does not fit in memory)");
    let mut cells = report.values();
    for row in &PAPER {
        for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
            print!("{:<6}{:<8}", kind.label(), row.cells / 1000);
            for _ in NODES {
                print!("{:>17}", cells.next().expect("one result per cell"));
            }
            println!();
        }
    }
    println!();
    println!("columns: 1, 2, 4, 8, 16, 32, 64 nodes; problem size in kilo-cells");
    report.finish();
}
