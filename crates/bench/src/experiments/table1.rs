//! Regenerates **Table 1: Page Fault Latencies** (milliseconds).
//!
//! Seven characteristic SVM fault types, measured in task context exactly
//! as the paper does, under both ASVM and NMK13 XMM.

use cluster::ManagerKind;
use workloads::{fault_probe, FaultProbeSpec, ProbeAccess};

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

/// Per-message-kind protocol traffic of the measured fault — the counters
/// `ci/bench_check.sh`'s golden diff guards against chattiness
/// regressions.
const KEYS: &[Key] = &["asvm.msg.*", "emmi.*", "xmm.msg.*"];

struct Row {
    label: &'static str,
    read_copies: u16,
    faulter_has_copy: bool,
    access: ProbeAccess,
    paper_asvm: f64,
    paper_xmm: f64,
}

const ROWS: &[Row] = &[
    Row {
        label: "write fault, 1 read copy",
        read_copies: 1,
        faulter_has_copy: false,
        access: ProbeAccess::Write,
        paper_asvm: 2.24,
        paper_xmm: 38.42,
    },
    Row {
        label: "write fault, 2 read copies",
        read_copies: 2,
        faulter_has_copy: false,
        access: ProbeAccess::Write,
        paper_asvm: 3.10,
        paper_xmm: 12.92,
    },
    Row {
        label: "write fault, 64 read copies",
        read_copies: 64,
        faulter_has_copy: false,
        access: ProbeAccess::Write,
        paper_asvm: 8.96,
        paper_xmm: 72.18,
    },
    Row {
        label: "write upgrade, 2 read copies",
        read_copies: 2,
        faulter_has_copy: true,
        access: ProbeAccess::Write,
        paper_asvm: 1.51,
        paper_xmm: 3.83,
    },
    Row {
        label: "write upgrade, 64 read copies",
        read_copies: 64,
        faulter_has_copy: true,
        access: ProbeAccess::Write,
        paper_asvm: 7.75,
        paper_xmm: 63.72,
    },
    Row {
        label: "read fault, first reader",
        read_copies: 0,
        faulter_has_copy: false,
        access: ProbeAccess::Read,
        paper_asvm: 2.35,
        paper_xmm: 38.59,
    },
    Row {
        label: "read fault, second reader",
        read_copies: 2,
        faulter_has_copy: false,
        access: ProbeAccess::Read,
        paper_asvm: 2.35,
        paper_xmm: 10.06,
    },
];

pub fn run(args: &Args) {
    let mut sweep = Sweep::with_config("table1", args.sweep.clone());
    for row in ROWS {
        for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
            let spec = FaultProbeSpec {
                kind,
                read_copies: row.read_copies,
                faulter_has_copy: row.faulter_has_copy,
                access: row.access,
            };
            let label = format!("{} {}", kind.label(), row.label);
            crate::cell(&mut sweep, label, KEYS, move || fault_probe(spec));
        }
    }
    let report = sweep.run();

    println!("Table 1: Page Fault Latencies (ms) — paper/measured");
    println!("{:<32}{:>18}{:>18}", "Fault Type", "ASVM", "XMM");
    println!("{}", "-".repeat(68));
    let mut cells = report.values();
    for row in ROWS {
        let asvm = cells.next().expect("asvm cell");
        let xmm = cells.next().expect("xmm cell");
        println!(
            "{:<32}{:>18}{:>18}",
            row.label,
            crate::pair(row.paper_asvm, asvm.mean_fault_ms()),
            crate::pair(row.paper_xmm, xmm.mean_fault_ms()),
        );
    }
    report.finish();
}
