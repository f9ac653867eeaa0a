//! §6 Future Work, implemented and measured.
//!
//! The paper closes by sketching how to combine UFS's caching with PFS's
//! striping: (1) range-lock primitives replacing the NORMA token server,
//! (2) multiple pagers per object used round-robin (striping), and
//! (3) clustering of page-in requests. All three are implemented behind
//! `AsvmConfig`/`Ssi` switches; this harness measures what they buy.

use cluster::{ManagerKind, Step};
use machvm::{Access, Inherit};
use svmsim::{MachineConfig, NodeId, Time};
use workloads::{Outcome, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;

const STRIPES: [u16; 3] = [1, 2, 4];
const READAHEADS: [u32; 3] = [0, 4, 8];

/// Sequential cold read of a populated file; returns MB/s seen by node 0.
fn read_rate(stripes: u16, readahead: u32, pages: u32) -> (f64, Outcome) {
    let mut cfg = MachineConfig::paragon(2);
    cfg.io_nodes = stripes.max(1);
    let kind = ManagerKind::Asvm(asvm::AsvmConfig::with_readahead(readahead));
    let sc = Scenario::new(kind, 2, 7).machine(cfg);
    let mut ssi = sc.build();
    let mobj = if stripes > 1 {
        ssi.create_striped_object(pages, true, stripes)
    } else {
        ssi.create_object(NodeId(0), pages, true)
    };
    let t = ssi.alloc_task();
    ssi.map_shared(
        t,
        NodeId(0),
        0,
        mobj,
        NodeId(0),
        pages,
        Access::Write,
        Inherit::Share,
    );
    ssi.finalize();
    let steps = (0..pages)
        .map(|p| Step::Read { va_page: p as u64 })
        .collect();
    Scenario::run_script(&mut ssi, NodeId(0), t, steps);
    let secs = ssi
        .node(NodeId(0))
        .task_runtime(t)
        .expect("finished")
        .as_secs_f64();
    let rate = pages as f64 * 8192.0 / secs / (1024.0 * 1024.0);
    (
        rate,
        sc.finish(ssi, Time::ZERO).expect_completed("cold read"),
    )
}

pub fn run(args: &Args) {
    let pages = 512; // a 4 MB file, as in Table 2
    let mut sweep = Sweep::with_config("futurework", args.sweep.clone());
    for stripes in STRIPES {
        for ra in READAHEADS {
            crate::cell(&mut sweep, format!("{stripes}s ra{ra}"), &[], move || {
                read_rate(stripes, ra, pages)
            });
        }
    }
    let report = sweep.run();

    println!("cold sequential read of a 4 MB mapped file, one node (MB/s):");
    println!(
        "{:<12}{:>14}{:>14}{:>14}",
        "stripes", "ra=0", "ra=4", "ra=8"
    );
    println!("{}", "-".repeat(54));
    let mut cells = report.values();
    for stripes in STRIPES {
        print!("{stripes:<12}");
        for _ in READAHEADS {
            print!("{:>14.2}", cells.next().expect("one result per cell").0);
        }
        println!();
    }
    println!();
    println!("baseline (1 stripe, no clustering) matches Table 2's single-node");
    println!("read; striping adds disk parallelism, read clustering overlaps the");
    println!("per-page protocol round trips — together they approach the media");
    println!("bandwidth of all stripes, the UFS+PFS combination §6 argues for.");
    println!();
    println!("range locks: see tests/futurework.rs — multi-page updates become");
    println!("atomic under concurrent writers/readers with no token server.");
    report.finish();
}
