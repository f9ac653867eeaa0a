//! Regenerates **Figure 10: write page-fault latency vs. number of nodes
//! with read copies** (1–64 readers), for both the plain write fault and
//! the write upgrade fault (faulting node already holds a read copy),
//! under ASVM and NMK13 XMM.
//!
//! The paper's curves: ASVM latencies grow slowly with the reader count
//! (pipelined invalidations at the owner); XMM latencies grow steeply
//! (serialized NORMA-IPC flush messages at the centralized manager).

use cluster::ManagerKind;
use workloads::{fault_probe, FaultProbeSpec, ProbeAccess};

use crate::cli::Args;
use crate::sweep::Sweep;

const READERS: [u16; 8] = [1, 2, 4, 8, 16, 32, 48, 64];

pub fn run(args: &Args) {
    let mut sweep = Sweep::with_config("figure10", args.sweep.clone());
    for r in READERS {
        for (kind, has_copy) in [
            (ManagerKind::asvm(), false),
            (ManagerKind::asvm(), true),
            (ManagerKind::xmm(), false),
            (ManagerKind::xmm(), true),
        ] {
            // An upgrade needs the faulter to be one of the readers.
            if has_copy && r < 2 {
                sweep.cell(format!("{} skip {}r", kind.label(), r), move || (None, 0));
                continue;
            }
            let spec = FaultProbeSpec {
                kind,
                read_copies: r,
                faulter_has_copy: has_copy,
                access: ProbeAccess::Write,
            };
            let tag = if has_copy { "upg" } else { "wf" };
            sweep.cell(format!("{} {} {}r", kind.label(), tag, r), move || {
                let out = fault_probe(spec);
                (Some(out.mean_fault_ms()), out.events)
            });
        }
    }
    let report = sweep.run();

    println!("Figure 10: write fault latency (ms) vs read copies");
    println!(
        "{:>8}{:>14}{:>14}{:>14}{:>14}",
        "readers", "ASVM wf", "ASVM upg", "XMM wf", "XMM upg"
    );
    println!("{}", "-".repeat(64));
    let mut cells = report.values();
    for r in READERS {
        let mut row = vec![format!("{r:>8}")];
        for _ in 0..4 {
            row.push(match cells.next().expect("one result per cell") {
                Some(ms) => format!("{ms:>14.2}"),
                None => format!("{:>14}", "-"),
            });
        }
        println!("{}", row.join(""));
    }
    println!();
    println!("paper anchor points: ASVM wf 1→2.24, 2→3.10, 64→8.96;");
    println!("                     XMM  wf 1→38.42 (disk), 2→12.92, 64→72.18");
    report.finish();
}
