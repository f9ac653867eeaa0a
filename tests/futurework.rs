//! Integration tests for the paper's §6 future-work features implemented
//! as extensions: range locks, striped multi-pager files, and read
//! clustering.

use cluster::{ManagerKind, Program, ScriptProgram, Ssi, Step, TaskEnv};
use machvm::{Access, Inherit};
use svmsim::{MachineConfig, NodeId};

/// Writers bracket multi-page updates with range locks; a checker reads
/// the range under the same lock and must never observe a torn update
/// (pages from two different rounds).
struct LockedWriter {
    me: u64,
    rounds: u32,
    pages: u32,
    round: u32,
    idx: u32,
    stage: u8,
}

impl Program for LockedWriter {
    fn step(&mut self, _env: &mut TaskEnv) -> Step {
        loop {
            if self.round >= self.rounds {
                return Step::Done;
            }
            match self.stage {
                0 => {
                    self.stage = 1;
                    return Step::LockRange {
                        va_page: 0,
                        pages: self.pages,
                    };
                }
                1 => {
                    if self.idx < self.pages {
                        let p = self.idx;
                        self.idx += 1;
                        return Step::Write {
                            va_page: p as u64,
                            value: self.me * 1_000_000 + self.round as u64,
                        };
                    }
                    self.stage = 2;
                    self.idx = 0;
                }
                2 => {
                    self.stage = 0;
                    self.round += 1;
                    return Step::UnlockRange {
                        va_page: 0,
                        pages: self.pages,
                    };
                }
                _ => unreachable!(),
            }
        }
    }
}

struct LockedChecker {
    rounds: u32,
    pages: u32,
    round: u32,
    idx: u32,
    stage: u8,
    first_seen: u64,
}

impl Program for LockedChecker {
    fn step(&mut self, env: &mut TaskEnv) -> Step {
        loop {
            if self.round >= self.rounds {
                return Step::Done;
            }
            match self.stage {
                0 => {
                    self.stage = 1;
                    return Step::LockRange {
                        va_page: 0,
                        pages: self.pages,
                    };
                }
                1 => {
                    if self.idx < self.pages {
                        let p = self.idx;
                        self.idx += 1;
                        self.stage = 2;
                        return Step::Read { va_page: p as u64 };
                    }
                    self.stage = 3;
                    self.idx = 0;
                }
                2 => {
                    let v = env.last_read.expect("read done");
                    if self.idx == 1 {
                        self.first_seen = v;
                    } else {
                        assert_eq!(
                            v,
                            self.first_seen,
                            "torn update observed under a range lock (page {})",
                            self.idx - 1
                        );
                    }
                    self.stage = 1;
                }
                3 => {
                    self.stage = 0;
                    self.round += 1;
                    self.first_seen = 0;
                    return Step::UnlockRange {
                        va_page: 0,
                        pages: self.pages,
                    };
                }
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn range_locks_make_multi_page_updates_atomic() {
    let nodes = 4u16;
    let pages = 6u32;
    let mut ssi = Ssi::new(nodes, ManagerKind::asvm(), 55);
    let home = NodeId(0);
    let mobj = ssi.create_object(home, pages, false);
    let tasks: Vec<_> = (0..nodes)
        .map(|n| {
            let t = ssi.alloc_task();
            ssi.map_shared(
                t,
                NodeId(n),
                0,
                mobj,
                home,
                pages,
                Access::Write,
                Inherit::Share,
            );
            t
        })
        .collect();
    ssi.finalize();
    // Two writers and two checkers, all hammering the same range.
    for n in 0..2u16 {
        ssi.spawn(
            NodeId(n),
            tasks[n as usize],
            Box::new(LockedWriter {
                me: n as u64 + 1,
                rounds: 5,
                pages,
                round: 0,
                idx: 0,
                stage: 0,
            }),
        );
    }
    for n in 2..4u16 {
        ssi.spawn(
            NodeId(n),
            tasks[n as usize],
            Box::new(LockedChecker {
                rounds: 5,
                pages,
                round: 0,
                idx: 0,
                stage: 0,
                first_seen: 0,
            }),
        );
    }
    ssi.run(u64::MAX / 2).expect("quiesces");
    assert!(ssi.all_done(), "no lock waiter may be stranded");
    cluster::check_asvm_invariants(&ssi);
}

#[test]
fn striped_file_reads_use_all_io_nodes() {
    // A machine with 4 I/O nodes; a file striped over all of them.
    let mut cfg = MachineConfig::paragon(4);
    cfg.io_nodes = 4;
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), 8);
    let pages = 64u32;
    let mobj = ssi.create_striped_object(pages, true, 4);
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
    let steps: Vec<Step> = (0..pages)
        .map(|p| Step::Read { va_page: p as u64 })
        .chain([Step::Done])
        .collect();
    ssi.spawn(NodeId(0), t, Box::new(ScriptProgram::new(steps)));
    ssi.run(u64::MAX / 2).expect("quiesces");
    assert!(ssi.all_done());
    // Every stripe disk served a quarter of the pages.
    for io in ssi.world.machine().io_nodes().collect::<Vec<_>>() {
        assert_eq!(
            ssi.world.disk(io).reads,
            (pages / 4) as u64,
            "stripe on {io} must serve its share"
        );
    }
    // And the contents are the file's.
    assert_eq!(
        ssi.node(NodeId(0)).vm.peek_task_page(t, 13),
        Some(pager::file_stamp(mobj, machvm::PageIdx(13)))
    );
}

#[test]
fn readahead_cuts_sequential_scan_time() {
    let run = |readahead: u32| {
        let kind = ManagerKind::Asvm(asvm::AsvmConfig::with_prefetch(readahead));
        let mut ssi = Ssi::new(2, kind, 5);
        let pages = 128u32;
        let mobj = ssi.create_object(NodeId(0), pages, true);
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
        let steps: Vec<Step> = (0..pages)
            .map(|p| Step::Read { va_page: p as u64 })
            .chain([Step::Done])
            .collect();
        ssi.spawn(NodeId(0), t, Box::new(ScriptProgram::new(steps)));
        ssi.run(u64::MAX / 2).expect("quiesces");
        assert!(ssi.all_done());
        // Verify contents regardless of prefetch path.
        assert_eq!(
            ssi.node(NodeId(0)).vm.peek_task_page(t, 100),
            Some(pager::file_stamp(mobj, machvm::PageIdx(100)))
        );
        ssi.world.now().as_secs_f64()
    };
    let plain = run(0);
    let clustered = run(8);
    assert!(
        clustered < plain * 0.7,
        "readahead must overlap disk and protocol latency: {clustered} vs {plain}"
    );
}
