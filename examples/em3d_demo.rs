//! EM3D on the simulated multicomputer: ASVM versus the XMM baseline.
//!
//! Runs a reduced version of the paper's Table 3 workload — the EM3D
//! electromagnetic kernel with shared-memory communication — on a few node
//! counts, under both memory managers, and prints the execution times.
//!
//! Run with: `cargo run --release --example em3d_demo`

use cluster::ManagerKind;
use workloads::{em3d_run, Em3dSpec};

fn main() {
    let cells = 64_000;
    let iterations = 20; // reduced from the paper's 100 for a quick demo
    println!("EM3D, {cells} cells, {iterations} iterations (reduced demo)");
    println!(
        "{:<8}{:>14}{:>14}{:>12}",
        "nodes", "ASVM (s)", "XMM (s)", "ASVM wins"
    );
    println!("{}", "-".repeat(48));

    for nodes in [1u16, 2, 4, 8] {
        let mut aspec = Em3dSpec::paper(ManagerKind::asvm(), nodes, cells);
        aspec.iterations = iterations;
        aspec.mem_32mb = nodes == 1;
        let a = em3d_run(aspec);

        let mut xspec = Em3dSpec::paper(ManagerKind::xmm(), nodes, cells);
        xspec.iterations = iterations;
        xspec.mem_32mb = nodes == 1;
        let x = em3d_run(xspec);

        println!(
            "{:<8}{:>14.2}{:>14.2}{:>11.1}x",
            nodes,
            a.elapsed_s(),
            x.elapsed_s(),
            x.elapsed_s() / a.elapsed_s()
        );
    }
    println!();
    println!("With ASVM the times shrink as nodes are added; with NMK13 XMM the");
    println!("centralized manager serializes every fault and the times grow —");
    println!("the paper's Table 3 in miniature.");
}
