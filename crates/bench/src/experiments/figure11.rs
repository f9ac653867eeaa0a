//! Regenerates **Figure 11: page-fault latency on inherited memory vs.
//! copy-chain length**.
//!
//! A 128 KB region is initialized, a chain of copies is spawned across n
//! nodes by repeated remote forks, and the last task faults in all pages.
//! The paper fits the per-fault latency as `lb + n·la`:
//!
//! * NMK13 XMM: lb ≈ 5.0 ms, la ≈ 4.3 ms per hop (each hop is a blocking
//!   internal-pager fault over NORMA-IPC);
//! * ASVM: lb ≈ 2.7 ms, la ≈ 0.48 ms per hop (pull operations over STS).

use cluster::ManagerKind;
use workloads::{copy_chain_probe, CopyChainSpec};

use crate::cli::Args;
use crate::sweep::Sweep;

const LENGTHS: [u16; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

pub fn run(args: &Args) {
    let mut sweep = Sweep::with_config("figure11", args.sweep.clone());
    for len in LENGTHS {
        for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
            let spec = CopyChainSpec {
                kind,
                chain_len: len,
                region_pages: 16,
            };
            let label = format!("{} chain{}", kind.label(), len);
            crate::cell(&mut sweep, label, &[], move || copy_chain_probe(spec));
        }
    }
    let report = sweep.run();

    println!("Figure 11: inherited-memory fault latency (ms) vs chain length");
    println!("{:>8}{:>12}{:>12}", "chain", "ASVM", "XMM");
    println!("{}", "-".repeat(32));
    let mut asvm = Vec::new();
    let mut xmm = Vec::new();
    let mut cells = report.values();
    for len in LENGTHS {
        let a = cells.next().expect("asvm cell").mean_fault_ms();
        let x = cells.next().expect("xmm cell").mean_fault_ms();
        asvm.push(a);
        xmm.push(x);
        println!("{:>8}{:>12.2}{:>12.2}", len, a, x);
    }
    // Least-squares fit of latency = lb + n*la.
    let fit = |ys: &[f64]| {
        let n = ys.len() as f64;
        let xs: Vec<f64> = LENGTHS.iter().map(|l| *l as f64).collect();
        let sx: f64 = xs.iter().sum();
        let sy: f64 = ys.iter().sum();
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
        let la = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let lb = (sy - la * sx) / n;
        (lb, la)
    };
    let (alb, ala) = fit(&asvm);
    let (xlb, xla) = fit(&xmm);
    println!();
    println!("fit latency = lb + n*la:");
    println!("  ASVM lb = {alb:.2} ms, la = {ala:.2} ms/hop   (paper: 2.7, 0.48)");
    println!("  XMM  lb = {xlb:.2} ms, la = {xla:.2} ms/hop   (paper: 5.0, 4.3)");
    println!();
    println!(
        "chain of 8 (a 256-node binary-tree spawn): ASVM {:.1} ms, XMM {:.1} ms (paper: 6.4, 35)",
        asvm[7], xmm[7]
    );
    report.finish();
}
