//! The §6 "future work" file system: UFS-style local caching plus
//! PFS-style striping, on ASVM.
//!
//! A file is striped round-robin over several I/O nodes (one pager each),
//! read with request clustering, cached in compute-node memory by the
//! distributed memory layer, and updated atomically under range locks —
//! the combination the paper's closing section argues for.
//!
//! Run with: `cargo run --release --example striped_fs`

use cluster::{ManagerKind, ScriptProgram, Ssi, Step};
use machvm::{Access, Inherit};
use svmsim::{MachineConfig, NodeId};

fn main() {
    let mut cfg = MachineConfig::paragon(4);
    cfg.io_nodes = 4;
    let kind = ManagerKind::Asvm(asvm::AsvmConfig::with_prefetch(8));
    let mut ssi = Ssi::with_machine(cfg, kind, 21);

    let pages = 256u32; // a 2 MB file
    let mobj = ssi.create_striped_object(pages, true, 4);
    println!(
        "2 MB file striped over I/O nodes {:?}",
        ssi.world.machine().io_nodes().collect::<Vec<_>>()
    );

    let tasks: Vec<_> = (0..4u16)
        .map(|n| {
            let t = ssi.alloc_task();
            ssi.map_shared(
                t,
                NodeId(n),
                0,
                mobj,
                NodeId(0),
                pages,
                Access::Write,
                Inherit::Share,
            );
            t
        })
        .collect();
    ssi.finalize();
    ssi.set_barrier_parties(4);

    // Node 0 cold-reads the whole file (striped + clustered); the others
    // wait, then read it hot from node memory; node 3 finally rewrites a
    // record (4 pages) atomically under a range lock.
    let mut steps0: Vec<Step> = (0..pages)
        .map(|p| Step::Read { va_page: p as u64 })
        .collect();
    steps0.push(Step::Barrier(1));
    steps0.push(Step::Barrier(2));
    steps0.push(Step::Done);
    ssi.spawn(NodeId(0), tasks[0], Box::new(ScriptProgram::new(steps0)));
    for n in 1..4u16 {
        let mut steps: Vec<Step> = vec![Step::Barrier(1)];
        steps.extend((0..pages).map(|p| Step::Read { va_page: p as u64 }));
        if n == 3 {
            steps.push(Step::LockRange {
                va_page: 8,
                pages: 4,
            });
            steps.extend((8..12).map(|p| Step::Write {
                va_page: p,
                value: 0xED17_0000 + p,
            }));
            steps.push(Step::UnlockRange {
                va_page: 8,
                pages: 4,
            });
        }
        steps.push(Step::Barrier(2));
        steps.push(Step::Done);
        ssi.spawn(
            NodeId(n),
            tasks[n as usize],
            Box::new(ScriptProgram::new(steps)),
        );
    }

    ssi.run(u64::MAX / 2).expect("quiesces");
    assert!(ssi.all_done());

    let cold = ssi.node(NodeId(0)).task_runtime(tasks[0]).unwrap();
    println!(
        "cold striped read on node 0:   {:.1} MB/s",
        pages as f64 * 8192.0 / cold.as_secs_f64() / (1024.0 * 1024.0)
    );
    let s = ssi.stats();
    println!("disk reads (once per page):    {}", s.counter("disk.reads"));
    println!(
        "faults completed:              {}",
        s.counter("faults.completed")
    );
    for io in ssi.world.machine().io_nodes().collect::<Vec<_>>() {
        println!("  stripe {io}: {} disk reads", ssi.world.disk(io).reads);
    }
    // Node 3's locked update invalidated the other nodes' cached copies
    // (that is the coherence protocol working); every copy that remains
    // resident carries the new value.
    let mut holders = 0;
    for n in 0..4u16 {
        if let Some(v) = ssi.node(NodeId(n)).vm.peek_task_page(tasks[n as usize], 9) {
            assert_eq!(v, 0xED17_0009);
            holders += 1;
        }
    }
    assert!(holders >= 1, "the writer holds the updated page");
    println!("record update under the range lock is visible everywhere — UFS");
    println!("caching + PFS striping + token-free locking, per the paper's §6.");
}
