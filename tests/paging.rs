//! Internode paging under memory pressure (paper §3.6), property-based.
//!
//! Invariants: no write is ever lost, regardless of how often pages are
//! evicted, transferred between nodes, or returned to the pager; the
//! cluster keeps pages in node memory in preference to disk; and a page
//! that comes back is not evicted again before it was used.

mod common;

use cluster::{ManagerKind, Program, Ssi, Step, TaskEnv};
use machvm::{Access, Inherit, TaskId};
use proptest::prelude::*;
use svmsim::{MachineConfig, NodeId};

/// Sweeps `len` pages from `first`, `rounds` times over: a sequential
/// write pass, then a read pass in `stride` order checking every value.
struct Sweeper {
    first: u32,
    len: u32,
    rounds: u32,
    stride: u32,
    at: u32,
    check: Option<(u32, u64)>,
}

impl Sweeper {
    fn new(first: u32, len: u32, rounds: u32, stride: u32) -> Box<Sweeper> {
        Box::new(Sweeper {
            first,
            len,
            rounds,
            stride,
            at: 0,
            check: None,
        })
    }
}

impl Program for Sweeper {
    fn step(&mut self, env: &mut TaskEnv) -> Step {
        if let Some((page, want)) = self.check.take() {
            assert_eq!(
                env.last_read,
                Some(want),
                "page {page} lost its data under memory pressure"
            );
        }
        if self.at == self.rounds * 2 * self.len {
            return Step::Done;
        }
        let (round, within) = (self.at / (2 * self.len), self.at % (2 * self.len));
        self.at += 1;
        let value = |page: u32| (round as u64 + 1) << 32 | page as u64;
        if within < self.len {
            let page = self.first + within;
            Step::Write {
                va_page: page as u64,
                value: value(page),
            }
        } else {
            // Strided revisit order: the FIFO victim is rarely the page
            // visited longest ago.
            let page = self.first + (within - self.len) * self.stride % self.len;
            self.check = Some((page, value(page)));
            Step::Read {
                va_page: page as u64,
            }
        }
    }
}

/// A machine of `nodes` nodes with `capacity_pages` of user memory each and
/// one `region`-page object homed on node 0, mapped by a task on every node
/// (a node whose task is never spawned only lends its memory).
fn pressured(
    kind: ManagerKind,
    nodes: u16,
    capacity_pages: u64,
    region: u32,
) -> (Ssi, Vec<TaskId>) {
    let mut cfg = MachineConfig::paragon(nodes);
    cfg.user_mem_bytes_per_node = capacity_pages * 8192;
    let mut ssi = Ssi::with_machine(cfg, kind, 3);
    let home = NodeId(0);
    let mobj = ssi.create_object(home, region, false);
    let tasks = (0..nodes)
        .map(|n| {
            let t = ssi.alloc_task();
            ssi.map_shared(
                t,
                NodeId(n),
                0,
                mobj,
                home,
                region,
                Access::Write,
                Inherit::Share,
            );
            t
        })
        .collect();
    ssi.finalize();
    (ssi, tasks)
}

/// Node 0 writes `region` pages (larger than its memory), then reads them
/// all back in a random-ish order; the other nodes donate their memory.
fn churn(kind: ManagerKind, capacity_pages: u64, region: u32, stride: u32, nodes: u16) -> Ssi {
    let (mut ssi, tasks) = pressured(kind, nodes, capacity_pages, region);
    ssi.spawn(NodeId(0), tasks[0], Sweeper::new(0, region, 1, stride));
    ssi.run(u64::MAX / 2).expect("churn quiesces");
    assert!(ssi.node(NodeId(0)).all_tasks_done(), "churner finished");
    ssi
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn asvm_survives_pressure(
        region in 96u32..192,
        stride in prop::sample::select(vec![1u32, 3, 7, 11]),
    ) {
        // 64-page nodes; the region overflows node 0 several times over.
        churn(ManagerKind::asvm(), 64, region, stride, 4);
    }

    #[test]
    fn xmm_survives_pressure(
        region in 96u32..160,
        stride in prop::sample::select(vec![1u32, 3, 7]),
    ) {
        churn(ManagerKind::xmm(), 64, region, stride, 3);
    }
}

#[test]
fn asvm_prefers_peer_memory_over_disk() {
    let ssi = churn(ManagerKind::asvm(), 64, 128, 1, 4);
    // 128 pages into a 64-page node: overflow fits in the 3 idle peers
    // (3 x 64 = 192 pages), so no disk traffic is needed at all.
    assert_eq!(
        ssi.stats().counter("disk.writes"),
        0,
        "peer memory should absorb the overflow without touching the disk"
    );
}

#[test]
fn xmm_under_pressure_goes_to_disk() {
    // The baseline has no internode paging: the same overflow must hit the
    // pager's disk.
    let ssi = churn(ManagerKind::xmm(), 64, 128, 1, 4);
    assert!(
        ssi.stats().counter("disk.writes") > 0,
        "XMM overflow must be written to the paging space"
    );
}

/// Two sweepers on nodes 0 and 1, each cycling through a private slice
/// half again as large as its node's memory, two idle lenders beside them.
/// Returns (faults completed, accesses made, disk writes).
fn two_sweepers(kind: ManagerKind, rounds: u32) -> (u64, u64, u64) {
    const SLICE: u32 = 192;
    let (mut ssi, tasks) = pressured(kind, 4, 128, 4 * SLICE);
    for n in 0..2 {
        let sweeper = Sweeper::new(n as u32 * SLICE, SLICE, rounds, 1);
        ssi.spawn(NodeId(n), tasks[n as usize], sweeper);
    }
    ssi.run(u64::MAX / 2).expect("sweepers quiesce");
    assert!(ssi.all_done(), "both sweepers finished");
    match kind {
        ManagerKind::Asvm(_) => cluster::check_asvm_invariants(&ssi),
        ManagerKind::Xmm { .. } => cluster::check_xmm_invariants(&ssi),
    }
    (
        ssi.stats().counter("faults.completed"),
        2 * rounds as u64 * 2 * SLICE as u64,
        ssi.stats().counter("disk.writes"),
    )
}

/// A page that was evicted and came back is as young as any other fresh
/// page: each access of a cyclic sweep larger than memory faults exactly
/// once, however many rounds ran before it. (Until PR 22 a returning page
/// kept its old place in the replacement queue as well and faults
/// quadrupled per round from the second on — per sweeper, with or without
/// the second one and the lenders; DESIGN §7 "Replacement queue".)
#[test]
fn two_sweepers_fault_once_per_access() {
    for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
        for rounds in 1..=4 {
            let (faults, accesses, disk_writes) = two_sweepers(kind, rounds);
            println!(
                "{} rounds {rounds}: {faults} faults / {accesses} accesses, {disk_writes} disk writes",
                kind.label()
            );
            assert_eq!(
                faults,
                accesses,
                "{} refaults after {rounds} rounds",
                kind.label()
            );
        }
    }
}
