//! Internode paging under memory pressure (paper §3.6), property-based.
//!
//! Invariants: no write is ever lost, regardless of how often pages are
//! evicted, transferred between nodes, or returned to the pager; the
//! cluster keeps pages in node memory in preference to disk, round after
//! round (lent memory is a cache); and a page that comes back is not
//! evicted again before it was used.
//!
//! The CI fault-seeds job runs this file under two fixed seeds via the
//! `ASVM_FAULTS_SEED` environment variable (default 1996); the lossy
//! variant folds that seed into its fault plan.

mod common;

use cluster::{ManagerKind, Program, Ssi, Step, TaskEnv};
use machvm::{Access, Inherit, TaskId};
use proptest::prelude::*;
use svmsim::{FaultPlan, MachineConfig, NodeId};
use transport::Transport;

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
/// (a node whose task is never spawned only lends its memory), under the
/// fault plan `faults`.
fn pressured(
    kind: ManagerKind,
    nodes: u16,
    capacity_pages: u64,
    region: u32,
    faults: FaultPlan,
) -> (Ssi, Vec<TaskId>) {
    let mut cfg = MachineConfig::paragon(nodes);
    cfg.user_mem_bytes_per_node = capacity_pages * 8192;
    cfg.faults = faults;
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
    let (mut ssi, tasks) = pressured(kind, nodes, capacity_pages, region, FaultPlan::none());
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

/// Two sweepers on nodes 0 and 1, each cycling `rounds` times through a
/// private `slice`-page slice, two idle lenders beside them; 128-page
/// memories, under the fault plan `faults`, ASVM's protocol carried by
/// `carrier` (`None`: the default, STS). Returns the finished system, its
/// invariants checked.
fn sweep_pair(
    kind: ManagerKind,
    slice: u32,
    rounds: u32,
    faults: FaultPlan,
    carrier: Option<Transport>,
) -> Ssi {
    let (mut ssi, tasks) = pressured(kind, 4, 128, 4 * slice, faults);
    if let Some(t) = carrier {
        ssi.set_asvm_transport(t);
    }
    for n in 0..2 {
        let sweeper = Sweeper::new(n as u32 * slice, slice, rounds, 1);
        ssi.spawn(NodeId(n), tasks[n as usize], sweeper);
    }
    ssi.run(u64::MAX / 2).expect("sweepers quiesce");
    assert!(ssi.all_done(), "both sweepers finished");
    match kind {
        ManagerKind::Asvm(_) => cluster::check_asvm_invariants(&ssi),
        ManagerKind::Xmm { .. } => cluster::check_xmm_invariants(&ssi),
    }
    ssi
}

/// [`sweep_pair`] with slices half again as large as memory (192 pages),
/// healthy. Returns (faults completed, accesses made, disk writes).
fn two_sweepers(kind: ManagerKind, rounds: u32) -> (u64, u64, u64) {
    const SLICE: u32 = 192;
    let ssi = sweep_pair(kind, SLICE, rounds, FaultPlan::none(), None);
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

/// Lent memory is a cache (§3.6): a page a sweeper pushed out to an idle
/// lender comes back, with its ownership, when the sweeper reads it
/// again, so the lenders have room for the next round's overflow and the
/// disk sees only the first round's spill. Until the lent return, lenders
/// filled up in round 1 and refused every later transfer: 157 / 313 / 469
/// / 627 ASVM disk writes after 1–4 rounds (now 2 / 2 / 2 / 2). XMM has
/// no internode paging and writes every overflowed page every round.
#[test]
fn lent_memory_keeps_disk_writes_flat_after_the_first_round() {
    let (_, _, first) = two_sweepers(ManagerKind::asvm(), 1);
    for rounds in 2..=4 {
        let (_, _, asvm) = two_sweepers(ManagerKind::asvm(), rounds);
        assert!(
            asvm <= first,
            "ASVM: {asvm} disk writes after {rounds} rounds, {first} after 1"
        );
        let (_, _, xmm) = two_sweepers(ManagerKind::xmm(), rounds);
        assert_eq!(xmm, 384 * rounds as u64, "XMM after {rounds} rounds");
    }
}

/// Slices of 300 pages through 128-page memories: the overflow (2 × 172
/// pages) is more than the two lenders can hold, so pages keep reaching
/// the disk, and the lent return must still cost nothing there. Before it
/// this shape wrote 373 / 746 / 1 494 pages after 1 / 2 / 4 rounds.
#[test]
fn oversubscribed_lenders_write_no_more_than_before() {
    for (rounds, before) in [(1, 373), (2, 746), (4, 1_494)] {
        let ssi = sweep_pair(ManagerKind::asvm(), 300, rounds, FaultPlan::none(), None);
        let writes = ssi.stats().counter("disk.writes");
        println!("300-page slices, {rounds} rounds: {writes} disk writes");
        assert!(
            writes <= before,
            "{writes} disk writes after {rounds} rounds, {before} before"
        );
    }
}

/// Base seed of the lossy variant's fault plan (CI matrix: 1996, 777).
fn fault_seed() -> u64 {
    std::env::var("ASVM_FAULTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1996)
}

/// Under 1 % loss, lent pages go back with their ownership while frames
/// are lost. Over STS the link ARQ resends them; over RDMA a lost
/// one-sided read is recovered only by the requester's watchdog re-issue,
/// which then meets the lent page on the lender or at its new owner, and
/// every lent return falls back from the NIC to the two-sided path (its
/// grant carries ownership). Every value survives (the sweepers check
/// each read) and the run ends with one owner per page.
#[test]
fn lent_returns_survive_loss() {
    for (carrier, recovery) in [
        (Transport::STS, "asvm.retry.resent"),
        (Transport::RDMA, "asvm.recover.reissue"),
    ] {
        let plan = FaultPlan::seeded(fault_seed()).with_drop_ppm(10_000);
        let ssi = sweep_pair(ManagerKind::asvm(), 192, 3, plan, Some(carrier));
        let s = ssi.stats();
        let name = carrier.name();
        assert!(s.counter(recovery) > 0, "{name}: no {recovery}");
        assert!(
            s.counter("asvm.evict.lent_return") > 0,
            "{name}: nothing returned"
        );
        let writes = s.counter("disk.writes");
        assert!(
            writes <= 2,
            "{name}: {writes} disk writes; lent memory holds the overflow"
        );
    }
    // Healthy, every read fault of this sweep is a lent return.
    let ssi = sweep_pair(
        ManagerKind::asvm(),
        192,
        3,
        FaultPlan::none(),
        Some(Transport::RDMA),
    );
    let s = ssi.stats();
    assert_eq!(
        s.counter("transport.rdma.read_served"),
        0,
        "a lent return left from the NIC"
    );
    assert!(s.counter("transport.rdma.read_fallback") > 0);
}
