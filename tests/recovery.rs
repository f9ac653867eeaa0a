//! End-to-end recovery-layer coverage: failure detector, request
//! watchdog and ownership reconstruction (`docs/RELIABILITY.md`).
//!
//! Every test here arms a fault plan with a scripted blackout — the
//! recovery machinery is deliberately inert on healthy runs (the
//! byte-identity CI checks depend on that), so these scenarios are the
//! only way to reach it. The CI chaos-matrix job runs this file under two
//! fixed seeds via `ASVM_FAULTS_SEED` (default 1996).

mod common;

use cluster::{check_asvm_invariants_except, ManagerKind, ScriptProgram, Ssi, Step};
use common::with_trace_dump;
use machvm::{Access, Inherit, TaskId};
use svmsim::{Dur, FaultPlan, MachineConfig, NodeId, Time};

/// Base seed for every fault plan in this file (CI matrix: 1996, 777).
fn fault_seed() -> u64 {
    std::env::var("ASVM_FAULTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1996)
}

/// Builds an `nodes`-node ASVM cluster with one `pages`-page object mapped
/// writable everywhere, fully finalized, one task per node.
fn build(nodes: u16, pages: u32, kind: ManagerKind, plan: FaultPlan) -> (Ssi, Vec<TaskId>) {
    let mut cfg = MachineConfig::paragon(nodes);
    cfg.faults = plan;
    let mut ssi = Ssi::with_machine(cfg, kind, 7);
    let home = NodeId(0);
    let mobj = ssi.create_object(home, pages, false);
    let tasks: Vec<TaskId> = (0..nodes)
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
    ssi.set_barrier_parties(nodes as u32);
    ssi.enable_trace(128);
    (ssi, tasks)
}

/// The owner of a page dies while another node still holds a read copy:
/// ownership reconstruction must elect the surviving copy holder as the
/// new owner, and a post-mortem write through it must succeed with the
/// written value visible — no pager fallback, no stale data.
#[test]
fn dead_owner_with_surviving_copy_elects_new_owner() {
    let victim = NodeId(1);
    let plan = FaultPlan::seeded(fault_seed() ^ 0xE1EC).with_blackout(
        victim,
        Time::from_nanos(20_000_000),
        Time::MAX,
    );
    let (mut ssi, tasks) = build(4, 2, ManagerKind::asvm(), plan);
    // Node 1 (the victim) writes page 0 and becomes its owner; node 2
    // reads a copy. Both happen well before the 20 ms blackout. Node 3
    // then writes after the lights go out: its request has to be carried
    // by suspicion + watchdog + reconstruction to node 2's copy.
    ssi.spawn(
        NodeId(1),
        tasks[1],
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 0,
                value: 7,
            },
            Step::Barrier(0),
            Step::Barrier(1),
            // Stay busy past the blackout so the victim never farewells
            // its peers — it must look *dead*, not *done*.
            Step::Compute(Dur::from_millis(100)),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(2),
        tasks[2],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(0),
            Step::Read { va_page: 0 },
            Step::Barrier(1),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(3),
        tasks[3],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(0),
            Step::Barrier(1),
            Step::Compute(Dur::from_millis(40)),
            Step::Write {
                va_page: 0,
                value: 9,
            },
            Step::Read { va_page: 0 },
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(0),
        tasks[0],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(0),
            Step::Barrier(1),
            Step::Done,
        ])),
    );
    with_trace_dump(&mut ssi, |ssi| {
        ssi.run(100_000_000).expect("recovery quiesces");
        assert!(ssi.all_done(), "all tasks finish despite the dead owner");
        assert!(
            ssi.stats().counter("cluster.suspect.count") >= 1,
            "the silent victim must be suspected"
        );
        assert!(
            ssi.stats().counter("asvm.recover.elected") >= 1,
            "reconstruction must elect the surviving copy holder"
        );
        assert_eq!(
            ssi.node(NodeId(3)).vm.peek_task_page(tasks[3], 0),
            Some(9),
            "the post-mortem write must be served from the elected copy"
        );
        check_asvm_invariants_except(ssi, &[NodeId(1)]);
    });
}

/// The owner of a page dies holding the *only* copy: reconstruction finds
/// no surviving holder and falls back to a pager re-fetch. The reader
/// completes with the pager's (stale) contents — the documented trade for
/// never hanging (`docs/RELIABILITY.md` §recovery).
#[test]
fn dead_owner_without_copies_falls_back_to_pager() {
    let victim = NodeId(1);
    let plan = FaultPlan::seeded(fault_seed() ^ 0x0F11).with_blackout(
        victim,
        Time::from_nanos(20_000_000),
        Time::MAX,
    );
    let (mut ssi, tasks) = build(3, 2, ManagerKind::asvm(), plan);
    ssi.spawn(
        NodeId(1),
        tasks[1],
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 0,
                value: 7,
            },
            Step::Barrier(0),
            Step::Compute(Dur::from_millis(100)),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(2),
        tasks[2],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(0),
            Step::Compute(Dur::from_millis(40)),
            Step::Read { va_page: 0 },
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(0),
        tasks[0],
        Box::new(ScriptProgram::new(vec![Step::Barrier(0), Step::Done])),
    );
    with_trace_dump(&mut ssi, |ssi| {
        ssi.run(100_000_000).expect("refetch quiesces");
        assert!(ssi.all_done(), "the reader finishes via the pager");
        assert!(
            ssi.stats().counter("asvm.recover.refetch") >= 1,
            "no surviving copy: recovery must re-fetch from the pager"
        );
        // The write died with the victim; the pager never saw it. Reading
        // the zero-filled backing store is the accepted stale outcome.
        assert_eq!(
            ssi.node(NodeId(2)).vm.peek_task_page(tasks[2], 0),
            Some(0),
            "pager fallback serves the backing store's contents"
        );
        check_asvm_invariants_except(ssi, &[NodeId(1)]);
    });
}

/// A transient blackout: heartbeats go silent long enough to raise
/// suspicion, then resume — the detector must clear the suspicion when
/// the first live beacon arrives, and the run ends clean.
#[test]
fn heartbeat_silence_suspects_and_recovery_beacon_clears() {
    let mut cfg = MachineConfig::paragon(2);
    cfg.faults = FaultPlan::seeded(fault_seed() ^ 0xBEAC).with_blackout(
        NodeId(1),
        Time::from_nanos(30_000_000),
        Time::from_nanos(80_000_000),
    );
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), 7);
    // No shared memory at all: this isolates the failure detector — the
    // only protocol traffic is the heartbeat beacons themselves.
    let a = ssi.alloc_task();
    let b = ssi.alloc_task();
    for (t, n) in [(a, 0u16), (b, 1u16)] {
        ssi.spawn(
            NodeId(n),
            t,
            Box::new(ScriptProgram::new(vec![
                Step::Compute(Dur::from_millis(150)),
                Step::Done,
            ])),
        );
    }
    ssi.run(10_000_000).expect("detector run quiesces");
    assert!(ssi.all_done());
    // The 50 ms silence exceeds the 40 ms suspicion window on both sides
    // of the link (a blackout eats both directions)…
    assert!(
        ssi.stats().counter("cluster.suspect.count") >= 1,
        "50 ms of silence must raise suspicion"
    );
    // …and the post-blackout beacons clear it.
    assert!(
        ssi.stats().counter("cluster.suspect.cleared") >= 1,
        "beacons after the blackout must clear suspicion"
    );
    // The beacon's counter vector is wire bytes, not a page.
    assert!(ssi.stats().counter("cluster.hb") > 0);
    assert_eq!(ssi.stats().counter("sts.page_messages"), 0);
}

/// A mid-run outage shorter than the retry channel's patience is bridged,
/// unnoticed. Node 2 writes 32 pages, then node 1 reads them back one by
/// one. Requests for pages node 0 manages go through node 0, which only
/// forwards them, so that link's round trip is a steady 436 µs and its
/// estimated first timeout settles just above it. Node 0 then goes dark
/// for 40 ms mid-read. The request caught on that link is resent until
/// the lights come back: retransmissions after the first back off from
/// the 2 ms base (110 ms of patience), not from the estimate, whose
/// 63 × RTO ≈ 28 ms abandoned the frame and suspected node 0. No frame is
/// given up on, no peer suspected, and the reads run on. Node 0 computes
/// through the outage, so its silence is judged; 40 ms stays under the
/// gossip detector's 50 ms window on three nodes.
#[test]
fn a_mid_run_blackout_is_bridged_after_the_link_is_sampled() {
    let dark = Time::from_nanos(160_000_000);
    let plan = FaultPlan::seeded(fault_seed() ^ 0xB41D).with_blackout(
        NodeId(0),
        dark,
        dark + Dur::from_millis(40),
    );
    let pages = 32;
    let (mut ssi, tasks) = build(3, pages, ManagerKind::asvm(), plan);
    let mut writes = Vec::new();
    let mut reads = vec![Step::Barrier(0)];
    for p in 0..pages as u64 {
        writes.push(Step::Write {
            va_page: p,
            value: p + 1,
        });
        reads.push(Step::Read { va_page: p });
        reads.push(Step::Compute(Dur::from_micros(100)));
    }
    writes.extend([Step::Barrier(0), Step::Done]);
    reads.push(Step::Done);
    let busy = vec![
        Step::Barrier(0),
        Step::Compute(Dur::from_millis(300)),
        Step::Done,
    ];
    ssi.spawn(NodeId(2), tasks[2], Box::new(ScriptProgram::new(writes)));
    ssi.spawn(NodeId(1), tasks[1], Box::new(ScriptProgram::new(reads)));
    ssi.spawn(NodeId(0), tasks[0], Box::new(ScriptProgram::new(busy)));
    with_trace_dump(&mut ssi, |ssi| {
        ssi.run(10_000_000).expect("bridged run quiesces");
        assert!(ssi.all_done());
    });
    let stats = ssi.stats();
    assert!(
        stats.counter("transport.fault.blackout") > 0,
        "the outage bit"
    );
    assert!(stats.counter("asvm.retry.resent") > 0, "bridged by resends");
    assert_eq!(stats.counter("asvm.retry.exhausted"), 0);
    assert_eq!(stats.counter("cluster.suspect.count"), 0);
    assert!(ssi.link_failures().is_empty());
}

/// A compute node that hosts no task never ticks, so it never beacons —
/// and must not be suspected for it, by anyone, at any loss rate: the
/// detector judges by silence only peers whose counter it has seen
/// advance (`docs/RELIABILITY.md` §7.1). On the all-to-all detector both
/// workers suspected idle node 2 here.
#[test]
fn a_node_without_tasks_is_never_suspected_for_its_silence() {
    let mut cfg = MachineConfig::paragon(3);
    cfg.faults = FaultPlan::seeded(1).with_drop_ppm(1000);
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), 7);
    for n in 0..2u16 {
        let t = ssi.alloc_task();
        ssi.spawn(
            NodeId(n),
            t,
            Box::new(ScriptProgram::new(vec![
                Step::Compute(Dur::from_millis(150)),
                Step::Done,
            ])),
        );
    }
    ssi.run(10_000_000).expect("detector run quiesces");
    assert!(ssi.all_done());
    assert!(
        ssi.stats().counter("cluster.hb") >= 2 * 25,
        "both workers beacon for the whole 150 ms"
    );
    assert_eq!(ssi.stats().counter("cluster.suspect.count"), 0);
}

/// The fallback chain end to end on one cluster: a permanent mid-run
/// blackout of a non-coordinator node, every surviving node still
/// churning. Deterministic companion to the chaossweep bench and the
/// proptest in `faults.rs` — asserts the counters those only sample.
#[test]
fn permanent_blackout_drives_the_full_fallback_chain() {
    use workloads::{run_pattern, Pattern, Scenario};
    let plan = FaultPlan::seeded(fault_seed()).with_blackout(
        NodeId(5),
        Time::from_nanos(30_000_000),
        Time::MAX,
    );
    let sc = Scenario::new(ManagerKind::asvm(), 8, 17).faults(plan);
    let out = run_pattern(&sc, 8, Pattern::Migratory { rounds: 3 });
    assert!(out.completed, "migratory run must survive the blackout");
    assert!(
        out.counter("cluster.suspect.count") >= 1,
        "survivors must suspect the dark node"
    );
    assert!(
        out.counter("asvm.recover.reissue") + out.counter("asvm.recover.refetch") >= 1,
        "stalled requests must be re-issued or re-fetched"
    );
    assert!(
        out.counter("asvm.retry.exhausted") >= 1,
        "frames to the dark node must exhaust their retries"
    );
}
